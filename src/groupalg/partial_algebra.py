"""Basis-level partial *-algebras given by structure coefficients.

The product of two basis elements is declared only on a domain of index
pairs; where declared, it expands as a complex coefficient vector over the
basis; the domain is sorted keys i * dim + j with one coefficient row each,
the form of a groupoid's table.  The involution sends a basis element to
another basis element times a unit-modulus phase, which keeps it exactly
involutive under the antilinear double application.  Multipliers are
computed at basis-index level and returned as spans: an under-approximation
of multipliers among arbitrary vectors, since a combination could multiply
everything without each basis element of its support doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ShapeMismatch, UndefinedProduct
from .report import Report


def _label(i: int) -> str:
    return f"e{i + 1}"


class StructureTable:
    """Partial products x_i x_j = sum_k coeffs[r, k] e_k with keys[r] = i * dim + j,
    from ``coeff``, a dict (or its items) of finite length-dim vectors.  ``star``
    maps index i to (star(i), phase_i), involutive with conj(phase_i) *
    phase_star(i) = 1 and |phase_i| = 1; star closure of the domain is
    :func:`check_star_compatibility`'s question.  The four arrays are read-only.
    """

    def __init__(self, dim: int, coeff: dict, star: list):
        self.dim = n = int(dim)
        if n <= 0:
            raise ValueError("dim must be positive")
        coeff = dict(coeff)
        keys, rows = np.empty(len(coeff), dtype=np.intp), np.empty((len(coeff), n), dtype=complex)
        for r, ((i, j), v) in enumerate(coeff.items()):
            i, j = int(i), int(j)
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"product ({_label(i)}, {_label(j)}) out of range")
            v = np.asarray(v, dtype=complex)
            if v.shape != (n,):
                raise ValueError(f"coefficients of ({_label(i)}, {_label(j)}) "
                                 f"must have length {n}")
            if not np.isfinite(v).all():
                raise ValueError(f"coefficients of ({_label(i)}, {_label(j)}) must be finite")
            keys[r], rows[r] = i * n + j, v
        if len(star) != n:
            raise ValueError("star must map every basis index")
        s, p = np.empty(n, dtype=np.intp), np.empty(n, dtype=complex)
        for i, (k, phase) in enumerate(star):
            k, phase = int(k), complex(phase)
            if not 0 <= k < n:
                raise ValueError(f"star of {_label(i)} is {_label(k)}, out of range")
            if not abs(abs(phase) - 1.0) <= 1e-12:
                raise ValueError(f"star phase of {_label(i)} must have unit modulus")
            s[i], p[i] = k, phase
        not_involutive = s[s] != np.arange(n)
        bad = np.flatnonzero(not_involutive | (np.abs(np.conj(p) * p[s] - 1.0) > 1e-12))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"star is not involutive on {_label(i)}" if not_involutive[i]
                             else f"star phases at {_label(i)} do not cancel")
        order = np.argsort(keys, kind="stable")
        keep = order[np.diff(keys[order], append=n * n) != 0]  # of equal keys, the last
        self._keys, self.coeffs = np.append(keys[keep], n * n), rows[keep]
        self.star_index, self.star_phase = s, p
        for a in (self._keys, self.coeffs, s, p):
            a.flags.writeable = False
        self.keys = self._keys[:-1]  # a view of a read-only array is read-only

    def _rows(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Row and presence of each key below dim^2; the sentinel dim^2 ends the keys."""
        pos = self._keys.searchsorted(keys)
        return pos, self._keys[pos] == keys

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dim,):
            raise ShapeMismatch(f"vector has shape {v.shape}, expected ({self.dim},)")
        return v

    def _star(self, v: np.ndarray) -> np.ndarray:
        """The star on the last axis; star(k) is k's preimage, as star is an involution."""
        return (np.conj(v) * self.star_phase)[..., self.star_index]

    def star_vector(self, v) -> np.ndarray:
        """Antilinear star on coordinate vectors."""
        return self._star(self._vector(v))

    def product(self, u, v) -> np.ndarray:
        """Bilinear product of coordinate vectors; the supports must pair inside the domain."""
        u, v = self._vector(u), self._vector(v)
        i, j = np.nonzero(u)[0], np.nonzero(v)[0]
        keys = (i[:, None] * self.dim + j).ravel()
        rows, found = self._rows(keys)
        if not found.all():
            left, right = divmod(int(keys[found.argmin()]), self.dim)
            raise UndefinedProduct(f"product {_label(left)} . {_label(right)} is not declared")
        return (u[i, None] * v[j]).ravel() @ self.coeffs[rows]


@dataclass(frozen=True)
class SubspaceBasis:
    """Linearly independent rows spanning a subspace."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", v)
        if v.size and np.linalg.matrix_rank(v) != v.shape[0]:
            raise ValueError("basis rows must be linearly independent")

    @property
    def rank(self) -> int:
        return 0 if self.vectors.size == 0 else self.vectors.shape[0]


def check_star_compatibility(T: StructureTable) -> Report:
    """Verify (x_i x_j)^* = x_j^* x_i^* coefficientwise on the whole domain."""
    atol = tolerances.exact_tol()
    rep = Report("star-compatibility")
    i, j = np.divmod(T.keys, T.dim)
    si, sj, phase = T.star_index[i], T.star_index[j], T.star_phase
    rows, found = T._rows(sj * T.dim + si)
    err = np.zeros(len(T.keys))
    err[found] = np.abs(T._star(T.coeffs[found]) - (phase[i] * phase[j])[found, None]
                        * T.coeffs[rows[found]]).max(axis=1)
    for r in np.flatnonzero(~found | ~(err <= atol)):
        if found[r]:
            rep.add("star-compatibility",
                    f"pair ({_label(i[r])}, {_label(j[r])})", residual=float(err[r]))
        else:
            rep.add("domain-not-star-closed",
                    f"({_label(i[r])}, {_label(j[r])}) declared but "
                    f"({_label(sj[r])}, {_label(si[r])}) is not")
    return rep


def _multiplier_indices(T: StructureTable, side: str) -> np.ndarray:
    """Indices whose row (left) or column (right) holds dim of the distinct keys."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ends = T.keys // T.dim if side == "left" else T.keys % T.dim
    return np.flatnonzero(np.bincount(ends, minlength=T.dim) == T.dim)


def multiplier_subspace(T: StructureTable, side: str) -> SubspaceBasis:
    """Span of the basis elements that multiply every basis element on ``side``."""
    idx = _multiplier_indices(T, side)
    vectors = np.zeros((len(idx), T.dim), dtype=complex)
    vectors[np.arange(len(idx)), idx] = 1.0
    return SubspaceBasis(vectors)


def ideal_closure_check(T: StructureTable) -> Report:
    """Two-sided multipliers form an ideal: their products stay in the span.

    With I the intersection of the left and right multiplier index sets,
    every product x_i x_j and x_j x_i for i in I must have coefficient
    support inside I.  Each offending pair is reported once with its first
    escaping index, in the order of a walk over i in I, then j, (i, j) first.
    """
    atol = tolerances.exact_tol()
    rep = Report("multiplier-ideal")
    n = T.dim
    both = np.concatenate([_multiplier_indices(T, "left"), _multiplier_indices(T, "right")])
    ideal = np.bincount(both, minlength=n) == 2  # in both lists
    a, b = np.divmod(T.keys, n)
    escapes = ~(np.abs(T.coeffs) <= atol) & ~ideal
    hit = np.flatnonzero((ideal[a] | ideal[b]) & escapes.any(axis=1))
    # the walk first meets (a, b) as (i, j) when a is in I and its turn comes
    # no later than b's, else as (j, i) on b's turn
    first = ideal[a] & ((a <= b) | ~ideal[b])
    visit = np.where(first, 2 * (a * n + b), 2 * (b * n + a) + 1)
    for r in hit[np.argsort(visit[hit])]:
        rep.add("ideal-closure",
                f"product ({_label(a[r])}, {_label(b[r])}) has support on "
                f"{_label(int(escapes[r].argmax()))} outside the ideal")
    return rep


def extract_relation(T: StructureTable) -> tuple[list[str], list[tuple[str, str]]]:
    """Objects and pairs feeding the relation-groupoid constructor.

    Returns basis labels e1..en and the declared index pairs as label pairs,
    in row-major order; round-trips through the strict constructor whenever
    the domain is already an equivalence relation.
    """
    labels = [_label(i) for i in range(T.dim)]
    i, j = np.divmod(T.keys, T.dim)
    return labels, [(labels[a], labels[b]) for a, b in zip(i.tolist(), j.tolist())]


def matrix_units_table(m: int) -> StructureTable:
    """The full matrix algebra on m letters in its matrix-unit basis.

    Basis e_(a,b) at index a*m + b, products e_(a,b) e_(c,d) equal to
    delta(b, c) e_(a,d) (declared everywhere), star the transpose.
    """
    n = m * m
    left, right = np.divmod(np.arange(n * n), n)
    (a, b), (c, d) = np.divmod(left, m), np.divmod(right, m)
    coeffs = np.zeros((n * n, n), dtype=complex)
    coeffs[b == c, (a * m + d)[b == c]] = 1.0
    star = list(zip(np.arange(n).reshape(m, m).T.ravel(), np.ones(n)))
    return StructureTable(n, zip(zip(left, right), coeffs), star)
