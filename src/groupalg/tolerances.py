"""Numeric tolerances, overridable through the GROUPALG_TOL environment variable.

Two tiers: EXACT (1e-12) for identities that are permutation-plus-conjugation
exact in floating point, ACCUM (1e-9) for identities built from sums of
products, where rounding accumulates.  Set GROUPALG_TOL to a single number to
override both, or to "exact,accum" to set them separately.  Each value must
be a finite number >= 0: NaN or infinity would pass every residual and a
negative value would fail an exact match, so anything else is a UsageError.
NU_SUM_TOL, how far an object measure may sum from 1, is fixed.
"""

from __future__ import annotations

import math
import os

from .errors import UsageError

EXACT = 1e-12
ACCUM = 1e-9
NU_SUM_TOL = 1e-9


def _parse_env() -> tuple[float, float]:
    raw = os.environ.get("GROUPALG_TOL", "").strip()
    if not raw:
        return EXACT, ACCUM
    try:
        values = [float(p) for p in raw.split(",")]
    except ValueError:
        values = []
    if len(values) not in (1, 2) or not all(0 <= v < math.inf for v in values):
        raise UsageError("GROUPALG_TOL must be a finite number >= 0 or two comma-separated "
                         f"such numbers, got {raw!r}")
    return values[0], values[-1]


def exact_tol(override: float | None = None) -> float:
    if override is not None:
        return override
    return _parse_env()[0]


def accum_tol() -> float:
    return _parse_env()[1]
