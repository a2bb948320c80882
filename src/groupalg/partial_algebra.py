"""Basis-level partial *-algebras given by structure coefficients.

The product of two basis elements is declared only on a domain of index
pairs; where declared, it expands as a complex coefficient vector over the
basis.  The involution sends a basis element to another basis element times
a unit-modulus phase, which keeps it exactly involutive under the antilinear
double application.  Multipliers are computed at basis-index level and
returned as spans: an under-approximation of multipliers among arbitrary
vectors, since a combination could in principle multiply everything without
each basis element of its support doing so.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import UndefinedProduct
from .report import Report


def _label(i: int) -> str:
    return f"e{i + 1}"


class StructureTable:
    """Partial products x_i x_j = sum_k coeff[(i, j)][k] e_k, plus a star map.

    ``star`` maps each basis index to (index, phase); the constructor
    requires it to be involutive: star(star(i)) returns index i with
    conj(phase_i) * phase_star(i) = 1 and |phase| = 1.  Whether the product
    domain is closed under the star swap is a compatibility question and is
    left to :func:`check_star_compatibility`.
    """

    def __init__(self, dim: int, coeff: dict, star: list):
        self.dim = int(dim)
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        self.coeff: dict[tuple[int, int], np.ndarray] = {}
        for (i, j), v in dict(coeff).items():
            i, j = int(i), int(j)
            if not (0 <= i < self.dim and 0 <= j < self.dim):
                raise ValueError(f"product ({_label(i)}, {_label(j)}) out of range")
            v = np.asarray(v, dtype=complex)
            if v.shape != (self.dim,):
                raise ValueError(f"coefficients of ({_label(i)}, {_label(j)}) "
                                 f"must have length {self.dim}")
            self.coeff[(i, j)] = v
        if len(star) != self.dim:
            raise ValueError("star must map every basis index")
        self.star_index: list[int] = []
        self.star_phase: list[complex] = []
        for i, (k, phase) in enumerate(star):
            k = int(k)
            phase = complex(phase)
            if not 0 <= k < self.dim:
                raise ValueError(f"star of {_label(i)} is {_label(k)}, out of range")
            if abs(abs(phase) - 1.0) > 1e-12:
                raise ValueError(f"star phase of {_label(i)} must have unit modulus")
            self.star_index.append(k)
            self.star_phase.append(phase)
        for i in range(self.dim):
            j = self.star_index[i]
            if self.star_index[j] != i:
                raise ValueError(f"star is not involutive on {_label(i)}")
            if abs(np.conj(self.star_phase[i]) * self.star_phase[j] - 1.0) > 1e-12:
                raise ValueError(f"star phases at {_label(i)} do not cancel")

    @property
    def domain(self) -> set[tuple[int, int]]:
        return set(self.coeff)

    def star_vector(self, v) -> np.ndarray:
        """Antilinear star on coordinate vectors."""
        v = np.asarray(v, dtype=complex)
        out = np.zeros(self.dim, dtype=complex)
        for i in range(self.dim):
            out[self.star_index[i]] += np.conj(v[i]) * self.star_phase[i]
        return out

    def product(self, u, v) -> np.ndarray:
        """Bilinear product of coordinate vectors; the supports must pair
        inside the domain."""
        u = np.asarray(u, dtype=complex)
        v = np.asarray(v, dtype=complex)
        out = np.zeros(self.dim, dtype=complex)
        for i in np.nonzero(u)[0]:
            for j in np.nonzero(v)[0]:
                c = self.coeff.get((int(i), int(j)))
                if c is None:
                    raise UndefinedProduct(
                        f"product {_label(int(i))} . {_label(int(j))} is not declared")
                out += u[i] * v[j] * c
        return out


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
    for (i, j) in sorted(T.coeff):
        si, sj = T.star_index[i], T.star_index[j]
        if (sj, si) not in T.coeff:
            rep.add("domain-not-star-closed",
                    f"({_label(i)}, {_label(j)}) declared but "
                    f"({_label(sj)}, {_label(si)}) is not")
            continue
        lhs = T.star_vector(T.coeff[(i, j)])
        rhs = T.star_phase[i] * T.star_phase[j] * T.coeff[(sj, si)]
        err = float(np.abs(lhs - rhs).max())
        if err > atol:
            rep.add("star-compatibility",
                    f"pair ({_label(i)}, {_label(j)})", residual=err)
    return rep


def _multiplier_indices(T: StructureTable, side: str) -> list[int]:
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out = []
    for i in range(T.dim):
        if side == "left":
            total = all((i, j) in T.coeff for j in range(T.dim))
        else:
            total = all((j, i) in T.coeff for j in range(T.dim))
        if total:
            out.append(i)
    return out


def multiplier_subspace(T: StructureTable, side: str) -> SubspaceBasis:
    """Span of the basis elements that multiply every basis element on ``side``."""
    idx = _multiplier_indices(T, side)
    vectors = np.zeros((len(idx), T.dim), dtype=complex)
    for row, i in enumerate(idx):
        vectors[row, i] = 1.0
    return SubspaceBasis(vectors)


def ideal_closure_check(T: StructureTable) -> Report:
    """Two-sided multipliers form an ideal: their products stay in the span.

    With I the intersection of the left and right multiplier index sets,
    every product x_i x_j and x_j x_i for i in I must have coefficient
    support inside I; offending pairs are reported with the escaping index.
    """
    atol = tolerances.exact_tol()
    rep = Report("multiplier-ideal")
    ideal = sorted(set(_multiplier_indices(T, "left")) & set(_multiplier_indices(T, "right")))
    iset = set(ideal)
    for i in ideal:
        for j in range(T.dim):
            for (a, b) in ((i, j), (j, i)):
                c = T.coeff.get((a, b))
                if c is None:
                    continue
                escape = [k for k in range(T.dim)
                          if abs(c[k]) > atol and k not in iset]
                if escape:
                    rep.add("ideal-closure",
                            f"product ({_label(a)}, {_label(b)}) has support on "
                            f"{_label(escape[0])} outside the ideal")
    return rep


def extract_relation(T: StructureTable) -> tuple[list[str], list[tuple[str, str]]]:
    """Objects and pairs feeding the relation-groupoid constructor.

    Returns basis labels e1..en and the declared index pairs as label pairs,
    in row-major order; round-trips through the strict constructor whenever
    the domain is already an equivalence relation.
    """
    labels = [_label(i) for i in range(T.dim)]
    pairs = [(labels[i], labels[j]) for (i, j) in sorted(T.coeff)]
    return labels, pairs


def matrix_units_table(m: int) -> StructureTable:
    """The full matrix algebra on m letters in its matrix-unit basis.

    Basis e_(a,b) at index a*m + b, products e_(a,b) e_(c,d) equal to
    delta(b, c) e_(a,d) (declared everywhere), star the transpose.
    """
    n = m * m
    coeff = {}
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    v = np.zeros(n, dtype=complex)
                    if b == c:
                        v[a * m + d] = 1.0
                    coeff[(a * m + b, c * m + d)] = v
    star = [(b * m + a, 1.0) for a in range(m) for b in range(m)]
    return StructureTable(n, coeff, star)
