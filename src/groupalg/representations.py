"""Hilbert bundles over the objects and representations of the convolution algebra.

A bundle assigns each object a finite-dimensional Hilbert space with a
diagonal weighted inner product; a unitary bundle representation assigns
each arrow a unitary H_src -> H_tgt compatibly with units, composition and
inversion.  Two canonical examples: the trivial representation on the line
bundle, and the left regular representation on the target-fiber bundle,
where an arrow acts by translating fiber indicators.  Both are monomial,
one 1 per column, and are kept as index data (:class:`IndexRep`) that the
checks and the integration read without building a dense matrix.  A field
of unitaries conjugates such a rep into a :class:`ConjugatedRep`, whose
laws, and the gap between its integrated operators and those of the base
conjugated, are bounded from per-object quantities of the field.

A probability measure nu on the objects induces arrow measures
m(a) = nu(tgt a) weight(a), its inverse image m_inv, the modular function
delta = m / m_inv, and the symmetrized m_o = m * delta^(-1/2), which is
inversion invariant.  Integrating a bundle representation against m_o turns
an arrow function f into a block operator on the nu-weighted direct sum of
the fibers; the resulting map is a *-homomorphism of the convolution
algebra whose operator norm is dominated by the I-norm.

Transitive groupoids split: after fixing a base object and one arrow into
each object, every arrow factors uniquely through the base isotropy group,
and the convolution algebra with counting weights is *-isomorphic to
(full matrix algebra on the objects) tensor (isotropy group algebra).
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import tolerances
from .blocks import BlockOperator, BlockPartition, factored_ratios
from .errors import NotTransitive, ShapeMismatch
from .groupoid import FiniteGroupoid, IsotropyGroup, _joined, _ranges, components, isotropy
from .haar import HaarSystem, _as_function, i_norm
from .orbits import _kept, isomorphism_fault, regular_blocks, translates
from .report import Report


@dataclass(frozen=True)
class QuasiInvariantMeasure:
    """Strictly positive probability weights on the objects."""

    nu: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.nu, dtype=float)
        object.__setattr__(self, "nu", v)
        if v.ndim != 1:
            raise ValueError("nu must be a flat vector")
        bad = check_nu(v)[0].errors
        if bad:
            raise ValueError(bad[0].witness)


def check_nu(nu) -> tuple[Report, float]:
    """Whether raw object weights are a probability measure (all strictly
    positive, total mass 1; vacuous on no objects), and how far their total
    mass is from 1."""
    v = np.asarray(nu, dtype=float)
    total = float(v.sum())
    rep = Report("nu-normalization")
    if not np.all(v > 0):
        rep.add("nu-positivity", "a nu weight is not strictly positive")
    elif v.size and abs(total - 1.0) > tolerances.NU_SUM_TOL:
        rep.add("nu-normalization", f"nu sums to {total:.17g}, not 1")
    return rep, abs(total - 1.0)


def uniform_measure(G: FiniteGroupoid) -> QuasiInvariantMeasure:
    return QuasiInvariantMeasure(np.full(G.n_objects, 1.0 / max(G.n_objects, 1)))


@dataclass(frozen=True)
class InducedMeasures:
    """Arrow measures induced by nu and the Haar weights."""

    m: np.ndarray
    m_inv: np.ndarray
    delta: np.ndarray
    m_o: np.ndarray


def induced_measures(G: FiniteGroupoid, mu: HaarSystem,
                     nu: QuasiInvariantMeasure) -> InducedMeasures:
    m = nu.nu[G.tgt] * mu.weights
    m_inv = m[G.inverse]
    dlt = m / m_inv
    m_o = np.sqrt(m * m_inv)
    return InducedMeasures(m, m_inv, dlt, m_o)


# ---------------------------------------------------------------------------
# bundles and bundle representations

class HilbertBundle:
    """Per-object dimensions and diagonal inner-product weights."""

    def __init__(self, dims, weights):
        self.dims = [int(d) for d in dims]
        self.weights = [np.asarray(w, dtype=float) for w in weights]
        if len(self.dims) != len(self.weights):
            raise ValueError("dims and weights must align")
        for d, w in zip(self.dims, self.weights):
            if d <= 0 or w.shape != (d,) or not np.all(w > 0):
                raise ValueError("each fiber needs a positive weight per dimension")
        self.offsets = [0, *np.cumsum(self.dims, dtype=int).tolist()]
        self.total_dim = self.offsets[-1]

    def slice_of(self, x: int) -> slice:
        return slice(self.offsets[x], self.offsets[x + 1])


def canonical_bundle(G: FiniteGroupoid, mu: HaarSystem) -> HilbertBundle:
    """The target-fiber bundle: dimension |fiber|, weights the Haar weights."""
    fibers = G.target_fibers
    return HilbertBundle(fibers.size, [mu.weights[fibers.of(x)] for x in range(G.n_objects)])


def line_bundle(G: FiniteGroupoid) -> HilbertBundle:
    return HilbertBundle([1] * G.n_objects, [np.ones(1)] * G.n_objects)


@dataclass(frozen=True)
class IndexRep:
    """A monomial representation: op(a) is a 0/1 matrix with one 1 per
    column, kept as the row of each column.

    Column j of op(a) has its 1 in row ``rows[starts[a] + j]``, for j below
    ``starts[a + 1] - starts[a]``; op(a) maps the fiber of ``src[a]`` into
    the fiber of ``tgt[a]`` and has ``bundle.dims[tgt[a]]`` rows.  ``ops``
    reads the same matrices densely, each built when it is read.
    """

    bundle: HilbertBundle
    src: np.ndarray
    tgt: np.ndarray
    rows: np.ndarray
    starts: np.ndarray

    @property
    def ops(self) -> _DenseOps:
        return _DenseOps(len(self.starts) - 1, self.dense_op)

    @cached_property
    def blocks(self) -> tuple[BlockPartition, np.ndarray]:
        """The blocks of every integrated operator of this rep, each its own
        slot: the connected components of the bundle positions, joined by the
        (row, column) of each 1, and the column (:meth:`BlockPartition.cells`)
        of each entry of ``rows`` in one operator's data."""
        width = np.diff(self.starts)
        arrow = np.repeat(np.arange(len(width)), width)
        offsets = np.array(self.bundle.offsets[:-1], dtype=np.intp)
        r = offsets[self.tgt[arrow]] + self.rows
        c = offsets[self.src[arrow]] + _ranges(np.zeros_like(width), width)
        part = BlockPartition.of(components(self.bundle.total_dim, r, c))
        return part, part.cells(r, c)

    def dense_op(self, a: int) -> np.ndarray:
        """op(a) as a dense matrix; raises ShapeMismatch when a column has
        its 1 outside the ``bundle.dims[tgt[a]]`` rows."""
        cols = self.rows[self.starts[a]:self.starts[a + 1]]
        d = self.bundle.dims[self.tgt[a]]
        outside = (cols < 0) | (cols >= d)
        if outside.any():
            j = int(np.argmax(outside))
            raise ShapeMismatch(f"op({a}) has its 1 of column {j} in row {int(cols[j])}, "
                                f"wants rows 0..{d - 1}")
        out = np.zeros((d, len(cols)), dtype=complex)
        out[cols, np.arange(len(cols))] = 1.0
        return out


class _DenseOps(Sequence):
    """The ops of a rep as a sequence of dense matrices, ``build(a)`` the op
    of arrow a, built each time it is read."""

    def __init__(self, n: int, build):
        self._n, self._build = n, build

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, a):
        a = operator.index(a)
        if not -self._n <= a < self._n:
            raise IndexError(f"arrow index {a} out of range")
        return self._build(a % self._n)


@dataclass(frozen=True)
class ConjugatedRep:
    """An :class:`IndexRep` conjugated by a field of unitaries, one per
    object, as :func:`conjugate_rep_on` builds it: ``field[x]`` is U_x and
    ``inverses[x]`` its computed inverse V_x.  The op of a: s -> t is
    fl(U_t P_a V_s) for the 0/1 op P_a of ``base``; ``ops`` reads them
    densely, each built from the columns of U_t that P_a picks when it is
    read, and holds nothing of its own.
    """

    base: IndexRep
    field: tuple[np.ndarray, ...]
    inverses: tuple[np.ndarray, ...]

    @property
    def bundle(self) -> HilbertBundle:
        return self.base.bundle

    @property
    def ops(self) -> _DenseOps:
        base, field, inverses = self.base, self.field, self.inverses
        return _DenseOps(len(base.starts) - 1, lambda a: (
            field[base.tgt[a]][:, base.rows[base.starts[a]:base.starts[a + 1]]]
            @ inverses[base.src[a]]))


def _index_rep(bundle: HilbertBundle, G: FiniteGroupoid, rows, counts) -> IndexRep:
    starts = np.zeros(len(counts) + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    rows = np.array(rows, dtype=np.intp)
    for v in (rows, starts):
        v.flags.writeable = False
    return IndexRep(bundle, G.src, G.tgt, rows, starts)


def trivial_rep(G: FiniteGroupoid) -> IndexRep:
    """Every arrow acts as 1 on the line bundle.

    Complex scalars throughout; restricting the line fiber to a real unit
    interval would change nothing checkable at this scale.
    """
    return _index_rep(line_bundle(G), G, np.zeros(G.n_arrows, dtype=np.intp),
                      np.ones(G.n_arrows, dtype=np.intp))


def left_regular_rep(G: FiniteGroupoid, mu: HaarSystem) -> IndexRep:
    """Translation on the target-fiber bundle, as index data.

    op(a) maps the indicator of the j-th arrow h of the fiber of src(a) to
    the indicator of a o h, so ``rows[starts[a] + j]`` is the position of
    a o h in the fiber of tgt(a) (fibers ascend); unitary for the weighted
    inner products whenever the Haar system is left-invariant.  Raises
    ValueError at the first arrow, then column, whose composite is undefined
    or leaves the target fiber.
    """
    into, first, size = G.target_fibers
    counts = size[G.src]
    arrow = np.repeat(np.arange(G.n_arrows), counts)
    h = into[_ranges(first[G.src], counts)]
    c = G.composites(arrow, h)
    bad = (c < 0) | (G.tgt[c] != G.tgt[arrow])
    if bad.any():
        a, h = (int(v[np.argmax(bad)]) for v in (arrow, h))
        c = G.compose(a, h)  # raises when the product is undefined
        raise ValueError(f"{G.arrow_ids[a]} o {G.arrow_ids[h]} = {G.arrow_ids[c]} "
                         f"leaves the target fiber of {G.objects[G.tgt[a]]}")
    return _index_rep(canonical_bundle(G, mu), G, G._place[c], counts)


_ENTRY_BATCH = 1 << 20  # matrix columns compared per batch in _column_gaps
_SCATTER_BATCH = 1 << 16  # op entries scattered per batch in integrated_blocks


def _column_gaps(ok, width, lhs, rhs) -> np.ndarray:
    """Residuals of items i comparing two 0/1 matrices with one 1 per column:
    inf where ``ok[i]`` is False (the shapes differ), else 1.0 where the row
    ``lhs(i, j)`` of some column j < ``width[i]`` differs from ``rhs(i, j)``,
    else 0.0, which is ``max |lhs - rhs|`` exactly.

    Items of one width go together, i as a column and j as a row, so each
    row lookup is one broadcast gather.
    """
    bad = np.zeros(len(width), dtype=bool)
    for w in np.flatnonzero(np.bincount(width[ok])).tolist():
        items, j = np.flatnonzero(ok & (width == w)), np.arange(w)
        step = max(1, _ENTRY_BATCH // max(w, 1))
        for lo in range(0, len(items), step):
            i = items[lo:lo + step, None]
            bad[i[:, 0]] = (lhs(i, j) != rhs(i, j)).any(axis=1)
    return np.where(ok, bad.astype(float), math.inf)


def _shape_fault(G: FiniteGroupoid, rep: IndexRep) -> str | None:
    """:func:`_first_shape_fault` of ``rep`` on ``G``, :func:`_kept`."""
    return _kept(G, rep, "_shape", _first_shape_fault)


def _require_shape(G: FiniteGroupoid, rep: IndexRep) -> None:
    """Raise ShapeMismatch with the :func:`_shape_fault` witness, if any."""
    if (fault := _shape_fault(G, rep)) is not None:
        raise ShapeMismatch(f"representation does not match the groupoid: {fault}")


def _first_shape_fault(G: FiniteGroupoid, rep: IndexRep) -> str | None:
    """The witness of the first way the index data fail to give each arrow a
    dims[tgt] x dims[src] op with its 1s inside its rows, else None: one op
    per arrow and one fiber per object, then the first arrow whose op has
    the wrong shape, then the first entry of ``rows`` outside its op's
    target fiber."""
    if len(rep.starts) != G.n_arrows + 1:
        return "one matrix per arrow is required"
    if len(rep.bundle.dims) != G.n_objects:
        return "one fiber per object is required"
    dims, width = np.array(rep.bundle.dims, dtype=np.intp), np.diff(rep.starts)
    wrong = width != dims[G.src]
    if wrong.any():
        a = int(np.argmax(wrong))
        t, s, w = int(dims[G.tgt[a]]), int(dims[G.src[a]]), int(width[a])
        return f"op({G.arrow_ids[a]}) has shape {(t, w)}, wants {(t, s)}"
    outside = (rep.rows < 0) | (rep.rows >= np.repeat(dims[G.tgt], width))
    if outside.any():
        k = int(np.argmax(outside))
        a = int(np.searchsorted(rep.starts, k, side="right")) - 1
        return (f"op({G.arrow_ids[a]}) has its 1 of column {k - int(rep.starts[a])} in row "
                f"{int(rep.rows[k])}, wants rows 0..{int(dims[G.tgt[a]]) - 1}")
    return None


def _multiplicative_by_generators(G: FiniteGroupoid, rep: IndexRep) -> bool:
    """Whether op(a) op(b) = op(a o b) on every composable pair follows from
    the pairs (s, y) of a generator s and an arrow y into src(s) alone.

    It does when the generator certificate proves the table associative
    (:meth:`FiniteGroupoid.certificate`), the ops have their shapes and
    their 1s inside their rows (:func:`_shape_fault`), and every generator
    pair holds.  Every arrow b is a right-nested word over the generators,
    b = s o w, and by induction on its length

        op(b) op(y) = op(s) op(w) op(y) = op(s) op(w o y) = op(s o (w o y)) = op(b o y),

    the first and third steps generator pairs and the last associativity
    (Holt, Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4).
    0/1 matrices with one 1 per column compose exactly, so no tolerance
    enters.
    """
    cert = G.certificate()
    if not cert.associative or _shape_fault(G, rep) is not None:
        return False
    rows, lo = rep.rows, rep.starts[:-1]
    s, y = _joined(cert.generators, np.arange(G.n_arrows), G.src, G.tgt, G.n_objects)
    sy = G.composites(s, y)
    return not _column_gaps(np.ones(len(s), dtype=bool), np.diff(rep.starts)[y],
                            lambda i, j: rows[lo[sy[i]] + j],
                            lambda i, j: rows[lo[s[i]] + rows[lo[y[i]] + j]]).any()


def _index_residuals(G: FiniteGroupoid, rep: IndexRep):
    """The residual of each law from the index data, without building an
    op: per object (units), per composable pair with a composite (pairs and
    residuals), per arrow (inverses, unitarity).

    Products of 0/1 matrices with one 1 per column are such matrices again,
    exactly: op(a) op(b) picks the rows ``rows_a[rows_b]``.  So each law but
    unitarity compares row arrays, with residual 0 or 1.  Where
    multiplicativity is proved, every pair would have residual 0 and the
    pair arrays are empty; otherwise every pair is scanned.  It is proved
    when the certificate proves the table associative and the ops are the
    left regular ones (:func:`orbits.translates`, kept for the
    integration): column j of op(a) op(b) is then the place of
    a o (b o h_j) = (a o b) o h_j.  Other reps ask the generator pairs
    (:func:`_multiplicative_by_generators`).  The Gram matrix
    op(a)^H W_tgt op(a) is diagonal with entries W_tgt[rows_a], plus
    W_tgt[r] off the diagonal wherever two columns share the row r; a
    non-finite weight in the target fiber makes it NaN.  The shared rows are
    sorted out only for the ops not shown injective by an exact inverse law
    op(a^-1) op(a) = I.
    """
    rows, lo = rep.rows, rep.starts[:-1]
    width = np.diff(rep.starts)
    dims = np.array(rep.bundle.dims, dtype=np.intp)
    src, tgt, inv = G.src, G.tgt, G.inverse
    unit = np.array([-1 if u is None else u for u in G.unit_of], dtype=np.intp)
    has = unit >= 0
    u = unit[has]
    units = np.full(G.n_objects, math.nan)
    units[has] = _column_gaps((dims[tgt[u]] == dims[has]) & (width[u] == dims[has]), width[u],
                              lambda i, j: rows[lo[u[i]] + j], lambda i, j: j)
    if ((G.certificate().associative and _shape_fault(G, rep) is None and translates(G, rep))
            or _multiplicative_by_generators(G, rep)):
        a, b, mult = np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
    else:
        a, b, c = G.products()
        mult = _column_gaps((dims[tgt[c]] == dims[tgt[a]]) & (width[c] == width[b]), width[b],
                            lambda i, j: rows[lo[c[i]] + j],
                            lambda i, j: rows[lo[a[i]] + rows[lo[b[i]] + j]])
    inverses = _column_gaps((width == dims[tgt[inv]]) & (width[inv] == dims[tgt]), width[inv],
                            lambda i, j: rows[lo[i] + rows[lo[inv[i]] + j]], lambda i, j: j)
    w = np.concatenate([np.zeros(0)] + rep.bundle.weights)
    off = np.array(rep.bundle.offsets[:-1], dtype=np.intp)
    arrow = np.repeat(np.arange(G.n_arrows), width)
    at = off[tgt[arrow]] + rows
    gaps = np.abs(w[at] - w[off[src[arrow]] + _ranges(np.zeros_like(width), width)])
    unitarity = np.zeros(G.n_arrows)
    np.maximum.at(unitarity, arrow, gaps)
    unshown = ~((inverses[inv] == 0) & (inv[inv] == np.arange(G.n_arrows)))[arrow]
    key = np.sort(arrow[unshown] * len(w) + at[unshown])
    shared = key[1:][key[1:] == key[:-1]]  # (arrow, row) pairs that two columns share
    np.maximum.at(unitarity, shared // len(w), w[shared % len(w)])
    finite = np.array([np.isfinite(v).all() for v in rep.bundle.weights], dtype=bool)
    unitarity[~finite[tgt]] = math.nan
    return units, a, b, mult, inverses, unitarity


def _residuals_of(G: FiniteGroupoid, rep: IndexRep):
    """:func:`_index_residuals` of ``rep`` on ``G``, read-only and
    :func:`_kept`, so a base rep checked again under a conjugated rep is not
    checked twice."""
    def residuals(G, rep):
        out = _index_residuals(G, rep)
        for v in out:
            v.flags.writeable = False
        return out
    return _kept(G, rep, "_residuals", residuals)


def _gamma(k: int) -> float:
    """sqrt(2) k u / (1 - k u), u = 2^-53: a bound on the relative rounding
    of a complex inner product of length k - 2 (Higham, §3.5-3.6)."""
    return math.sqrt(2) * k * 2.0 ** -53 / (1 - k * 2.0 ** -53)


def _field_terms(G: FiniteGroupoid, rep: ConjugatedRep) -> np.ndarray:
    """The per-object rows al, al*, be, be*, e, f, g, h and om of
    :func:`_conjugation_bounds`, unwidened and :func:`_kept`: the objects of
    one fiber dimension as one stack, one batched product per quantity."""
    def terms(G, rep):
        dims, groups = np.array(rep.bundle.dims, dtype=np.intp), []
        for d in np.flatnonzero(np.bincount(dims)).tolist():
            xs = np.flatnonzero(dims == d)
            groups.append((xs, *(np.stack([m[x] for x in xs.tolist()])
                                 for m in (rep.field, rep.inverses, rep.bundle.weights))))

        def norm(m):  # the max row sum of each matrix
            return np.abs(m).sum(axis=2).max(axis=1)

        gram = np.zeros(len(dims))
        for xs, u, _, w in groups:
            gram[xs] = (w[:, :, None] * np.abs(u) ** 2).sum(axis=(1, 2)) / w.sum(axis=1)
        scale = np.sqrt(gram)[G.orbit_index.label][:, None, None]  # at each orbit's least object
        q = np.zeros((9, len(dims)))
        for xs, u, v, w in groups:
            with np.errstate(invalid="ignore"):  # a NaN scale makes the orbit's quantities NaN
                u, v = u / scale[xs], v * scale[xs]
            uh, vh, eye = u.conj().swapaxes(1, 2), v.conj().swapaxes(1, 2), np.eye(w.shape[1])
            q[:, xs] = [norm(u), norm(uh), norm(v), norm(vh), norm(v @ u - eye), norm(u @ v - eye),
                        norm((uh * w[:, None, :]) @ u - eye * w[:, :, None]),
                        norm((vh * w[:, None, :]) @ v - eye * w[:, :, None]), w.max(axis=1)]
        return q
    return _kept(G, rep, "_field", terms)


def _conjugation_bounds(G: FiniteGroupoid, rep: ConjugatedRep, residuals) -> np.ndarray:
    """Per object, bounds on the residuals that the dense check would find
    on the ops of ``rep``, as rows units, multiplicativity, inverses and
    unitarity; ``residuals`` are the base's (:func:`_index_residuals`).

    Write P_a for the 0/1 op of the base, U_x, V_x and W_x for the field,
    its computed inverse and the fiber weights, and ||.|| for the max row
    sum, which bounds the largest entry modulus, the residual the dense
    check reports.  Let u = 2^-53 and gamma = sqrt(2) (d+4) u / (1 - (d+4) u),
    d the largest fiber dimension: it bounds the rounding of a complex
    product of inner dimension d entrywise, |fl(AB) - AB| <= gamma |A||B|
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.5-3.6),
    and spares 2 sqrt(2) u for a scaling: U/c and cV, c > 0 on an orbit,
    make the same ops, so each orbit's Gram scale c, c^2 =
    tr(U_m^H W_m U_m) / tr(W_m) at its least object m, is divided out of U
    and into V first (U and V below are the scaled ones), which moves X_a
    below by at most (2u + O(u^2)) al_t be_s.  Per object
    (:func:`_field_terms`), from one product each for the last four, and
    each widened by (1 + 4 gamma) for the rounding of its moduli and sums:

        al = ||U||, al* = ||U^H||, be = ||V||, be* = ||V^H||, om = max W,
        e = ||VU - I||, f = ||UV - I||, g = ||U^H W U - W||, h = ||V^H W V - W||.

    When the base passes units, multiplicativity and inverses exactly, every
    P_a is a permutation, P_a P_b = P_(a o b) and P_a P_(a^-1) = I, and
    permuting the rows or columns of a matrix keeps both its norms.  The
    op of a: s -> t is O_a = fl(U_t[:, rows_a] V_s) = X_a + E_a with
    X_a = U_t P_a V_s and ||E_a|| <= gamma al_t be_s.  For a: m -> t and
    b: s -> m,

        O_a O_b - O_(a o b) = U_t P_a (V_m U_m - I) P_b V_s + E_a O_b + X_a E_b - E_(a o b);

    with the rounding of the check's product O_a O_b, at most
    gamma ||O_a|| ||O_b||, and of e's own product, every residual of the
    pair is at most al_t be_s mu_m, where mu_m = e_m + gamma + 5 gamma al_m be_m.
    The inverse law is the same with O_(a o b) replaced by I, where
    U_t P_a P_(a^-1) V_t - I = U_t V_t - I, so al_t be_t mu_s + f_t bounds
    it; the op of a unit is fl(U_x V_x), within f_x + 2 gamma al_x be_x of I.
    For unitarity, with rho_a = ||P_a^H W_t P_a - W_s|| the base's residual,

        X_a^H W_t X_a - W_s = (V_s^H W_s V_s - W_s) + V_s^H (P_a^H W_t P_a - W_s) V_s
                              + V_s^H P_a^H (U_t^H W_t U_t - W_t) P_a V_s,

    and E_a, the check's scaling and product, and the products behind g and
    h add at most 6 gamma om_t al_t al*_t be_s be*_s + 2 gamma om_s be_s be*_s,
    so h_s + be_s be*_s (rho_a + g_t + 2 gamma om_s + 6 gamma om_t al_t al*_t)
    bounds the residual of a.

    The two ends of a law range over one orbit independently, so the bound
    at an object takes the orbit's largest factors of the other end: units
    at x, multiplicativity at the middle object m, inverses and unitarity
    at the target t.  Each is widened by (1 + 4 gamma) for the check's
    subtraction and modulus.  Where the base fails an exact law the premise
    fails, and every bound at the objects of that failure is inf.
    """
    units, a, _, mult, inverses, unitarity = residuals
    n = G.n_objects
    gamma = _gamma(max(rep.bundle.dims, default=0) + 4)
    orbit, members = G.orbit_index[:2]
    roots = np.flatnonzero(members.size)
    order, starts, which = members.order, members.start[roots], np.searchsorted(roots, orbit)
    al, al_h, be, be_h, e, f, g, h, om = _field_terms(G, rep) * (1 + 4 * gamma)

    def top(v):  # the largest value over each object's orbit, NaN when one is
        return np.maximum.reduceat(v[order], starts)[which]

    ab = al * be
    mu = e + gamma + 5 * gamma * ab
    rho = np.zeros(n)
    with np.errstate(invalid="ignore"):  # a NaN weight's residual stays NaN
        np.maximum.at(rho, G.tgt, unitarity)
    with np.errstate(over="ignore"):  # weights far from 1: an inf bound
        out = np.stack([f + 2 * gamma * ab, top(al) * top(be) * mu, ab * top(mu) + f,
                        top(h) + top(be * be_h) * (rho + g + 2 * gamma * top(om)
                                                   + 6 * gamma * om * al * al_h)])
    broken = ~(units == 0)
    broken[G.src[a[~(mult == 0)]]] = True
    broken[G.tgt[~(inverses == 0)]] = True
    out[:, broken] = math.inf
    return out * (1 + 4 * gamma)


def check_representation(G: FiniteGroupoid, rep: IndexRep | ConjugatedRep,
                         atol: float | None = None) -> Report:
    """Representation axioms, checked everywhere (not almost-everywhere).

    Units act as identities, composition is preserved on every composable
    pair, inverses invert, and each matrix is unitary for the weighted
    inner products.  Measurability is vacuous on a finite groupoid and is
    recorded as a note.  A residual above atol, or NaN, is an entry; two
    sides of a law that are maps between different spaces have residual inf.

    An :class:`IndexRep` is checked on its index data, as integer
    comparisons (:func:`_index_residuals`, computed once per rep and
    groupoid), after its shape: the first op of the wrong shape, or with a
    1 outside its target fiber, is one ``shape`` entry and ends the check.
    Multiplicativity is proved, for the left regular rep on a table the
    certificate proves associative, from the kept translation proof, else
    from the generator pairs when they hold, and every composable pair is
    scanned otherwise; the entries are the same either way.
    A :class:`ConjugatedRep` is checked so on its base, and each law of its
    ops is bounded from per-object quantities of the field
    (:func:`_conjugation_bounds`): a law whose bound exceeds atol, or is
    NaN, is one entry, witnessed by the object that sets the bound, with
    the bound as its residual.  No op is read or multiplied.
    """
    atol = tolerances.exact_tol(atol)
    out = Report("representation-axioms")
    conjugated = isinstance(rep, ConjugatedRep)
    index = rep.base if conjugated else rep
    if (fault := _shape_fault(G, index)) is not None:
        out.add("shape", fault)
        return out
    residuals = _residuals_of(G, index)
    units, a, b, mult, inverses, unitarity = residuals
    aid, inverse = G.arrow_ids, G.inverse.tolist()

    def failing(residuals):  # indices and residuals above atol, NaN included
        bad = np.flatnonzero(~(residuals <= atol))
        return zip(bad.tolist(), residuals[bad].tolist())

    for x, err in failing(units):
        if G.unit_of[x] is None:
            out.add("units", f"object {G.objects[x]} has no unit arrow")
        else:
            out.add("units", f"op(unit {G.objects[x]}) is not the identity", residual=err)
    for k, err in failing(mult):
        x, y = aid[a[k]], aid[b[k]]
        out.add("multiplicativity", f"op({x} o {y}) != op({x}) op({y})", residual=err)
    for x, err in failing(inverses):
        out.add("inverses", f"op({aid[x]}) op({aid[inverse[x]]}) != identity", residual=err)
    for x, err in failing(unitarity):
        out.add("unitarity", f"op({aid[x]}) is not unitary for the fiber weights",
                residual=err)
    if conjugated:
        laws = ("units", "multiplicativity", "inverses", "unitarity")
        for law, bound in zip(laws, _conjugation_bounds(G, rep, residuals)):
            if not (bound <= atol).all():
                nan = np.isnan(bound)
                x = int(np.argmax(nan if nan.any() else bound))
                out.add(law, f"conjugated ops: the bound at object {G.objects[x]} exceeds atol",
                        residual=float(bound[x]))
    out.add("measurability", "finite groupoid: every section is measurable",
            severity="note")
    return out


def conjugate_rep_on(G: FiniteGroupoid, rep: IndexRep,
                     unitaries: list[np.ndarray]) -> ConjugatedRep:
    """Conjugate ``rep`` by a field of unitaries, one per object.

    Keeps ``rep``, the field and one computed inverse per object, and
    builds no op: :attr:`ConjugatedRep.ops` derives U_t op(a) V_s from them
    when read.  Raises
    ShapeMismatch with the witness of :func:`_shape_fault` when an op of
    ``rep`` has the wrong shape or a 1 outside its target fiber, and unless
    the field has one dims[x] x dims[x] matrix per object x; LinAlgError
    when one is singular.
    """
    _require_shape(G, rep)
    dims = rep.bundle.dims
    if len(unitaries) != G.n_objects:
        raise ShapeMismatch("need one unitary per object")
    field = tuple(np.asarray(u) for u in unitaries)
    for x, (u, d) in enumerate(zip(field, dims)):
        if u.shape != (d, d):
            raise ShapeMismatch(f"the unitary at object {G.objects[x]} has shape {u.shape}, "
                                f"wants {(d, d)}")
    return ConjugatedRep(rep, field, tuple(np.linalg.inv(u) for u in field))


# ---------------------------------------------------------------------------
# integrated representation

def _measures(nu) -> list[QuasiInvariantMeasure]:
    """One measure, or a sequence of them, as a list."""
    return [nu] if isinstance(nu, QuasiInvariantMeasure) else list(nu)


def _coefficients(G: FiniteGroupoid, mu: HaarSystem, nu, fs) -> np.ndarray:
    """The coefficient f_i(a) m_o(a) / nu(tgt a) of op(a) in pi(f_i), per row
    i of the (k, A) ``fs``; with a sequence of m measures, the rows are m
    equal blocks, block j against measure j."""
    nus = _measures(nu)
    at = np.array([x.nu for x in nus])[:, None, G.tgt]
    with np.errstate(over="ignore", invalid="ignore"):  # weights far from 1: inf or NaN
        m_o = np.array([induced_measures(G, mu, x).m_o for x in nus])[:, None]
        return (fs.reshape(len(nus), len(fs) // len(nus), fs.shape[-1]) * m_o / at
                ).reshape(fs.shape)


def integrated_blocks(G: FiniteGroupoid, mu: HaarSystem,
                      nu: QuasiInvariantMeasure | Sequence[QuasiInvariantMeasure],
                      rep: IndexRep, f) -> BlockOperator:
    """The integrated operators of an (A,) function or a (k, A) stack of
    functions, by blocks: operator i accumulates f_i(a) m_o(a) / nu(tgt a)
    times op(a) into the (tgt a, src a) slot of the nu-weighted direct sum
    of the fibers (:func:`integrate_rep`).

    ``nu`` may be a sequence of m measures, with a stack of m equal blocks
    of functions, block j integrated against measure j: the blocks of an
    operator are the rep's and the measure enters only its coefficients and
    its inner product, so one call serves every measure, and each operator
    keeps its measure's row of ``BlockOperator.nu`` (one shared row when
    m = 1).  Each operator is, to the bit, the one call per measure gives.

    Where :func:`orbits.regular_blocks` proves the rep the left regular one
    (the kept :func:`orbits.translates`, then the weights), each orbit is
    one data slot gathered through its ``left`` matrix; each entry is one
    term, 0 plus it where f is not 0, as the scatter adds it.  Any other rep keeps one slot per
    block of :attr:`IndexRep.blocks` (for the trivial rep one per orbit),
    scattered in batches of about ``_SCATTER_BATCH`` op entries, each
    coefficient in arrow order and none where f is 0.  Either way the dense
    matrices equal those of one slice addition per arrow.  Raises
    ShapeMismatch with the witness of :func:`_shape_fault` when an op has
    the wrong shape or a 1 outside its target fiber, and when the stack
    does not split into one block per measure.
    """
    f = _as_function(G, f, stack=True)
    fs = np.atleast_2d(f)
    k = len(fs)
    nus = _measures(nu)
    if not nus or k % len(nus):
        raise ShapeMismatch(f"a stack of {k} functions does not split into one block "
                            f"per measure of {len(nus)}")
    _require_shape(G, rep)
    coeff = _coefficients(G, mu, nus, fs)
    if (regular := _kept(G, rep, "_regular", regular_blocks)) is not None:
        part, take = regular
        flat = np.add(0.0, coeff, out=np.zeros_like(coeff), where=fs != 0).take(take, axis=1)
    else:
        part, column = rep.blocks
        flat = np.zeros((k, part.width), dtype=complex)
        width = np.diff(rep.starts)
        step = max(1, _SCATTER_BATCH // max(len(rep.rows), 1))
        for lo in range(0, k, step):
            row, used = np.nonzero(fs[lo:lo + step] != 0)  # row by row, arrows ascending
            term = np.repeat(np.arange(len(used)), width[used])
            entry, row = _ranges(rep.starts[used], width[used]), lo + row
            np.add.at(flat.reshape(-1), column[entry] + row[term] * part.width,
                      coeff[row, used][term])
    rows, weight = bundle_factors(rep.bundle, nus[0])
    if len(nus) > 1:
        rows = np.repeat([bundle_factors(rep.bundle, x)[0] for x in nus], k // len(nus), axis=0)
    return BlockOperator(rows, weight, part, part.views(flat), k)


def integrate_rep(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                  rep: IndexRep, f) -> np.ndarray:
    """Block operator of f on the nu-weighted direct sum of an index rep's fibers.

    The block at (tgt, src) accumulates f(a) m_o(a) / nu(tgt) times op(a);
    this is the unique operator representing the pairing
    sum_a f(a) <op(a) xi(src a), eta(tgt a)> m_o(a) against the bundle inner
    product sum_x nu(x) <xi(x), eta(x)>_x.  The dense matrix of
    :func:`integrated_blocks`.
    """
    return integrated_blocks(G, mu, nu, rep, _as_function(G, f)).dense()[0]


def bundle_factors(bundle: HilbertBundle,
                   nu: QuasiInvariantMeasure) -> tuple[np.ndarray, np.ndarray]:
    """The two diagonal factors of the full inner product, per position:
    nu of the position's object, and the position's fiber weight."""
    return (np.repeat(nu.nu[:len(bundle.dims)], bundle.dims),
            np.concatenate([np.zeros(0), *bundle.weights]))


def bundle_metric(bundle: HilbertBundle, nu: QuasiInvariantMeasure) -> np.ndarray:
    """Diagonal of the full inner product: nu(x) * fiber weight, concatenated."""
    nus, weights = bundle_factors(bundle, nu)
    return nus * weights


def adjoint_operator(op: np.ndarray, bundle: HilbertBundle,
                     nu: QuasiInvariantMeasure) -> np.ndarray:
    """Adjoint for the weighted inner product: M^-1 op^H M with M the metric,
    its ratios factored as :meth:`BlockOperator.adjoint` takes them."""
    return op.conj().T * factored_ratios(*bundle_factors(bundle, nu))


def operator_norm(op: np.ndarray, bundle: HilbertBundle,
                  nu: QuasiInvariantMeasure) -> float:
    """Spectral norm of a dense operator on the bundle in the weighted
    geometry: :meth:`BlockOperator.norms` of the operator split into the
    connected blocks of its nonzero pattern, rows and columns one index set
    (:meth:`BlockOperator.of_dense`; for the left regular representation,
    one block per source object of the fiber arrows).  NaN for a non-finite
    entry of the flat similar matrix, or a zero or infinite root of the
    metric.
    """
    n = bundle.total_dim
    if op.shape != (n, n):
        raise ShapeMismatch(f"operator has shape {op.shape}, expected {(n, n)}")
    return float(BlockOperator.of_dense(op, *bundle_factors(bundle, nu)).norms()[0])


def operator_norm_bound_check(G: FiniteGroupoid, mu: HaarSystem,
                              nu: QuasiInvariantMeasure, rep: IndexRep, f) -> Report:
    """Check the contraction bound: spectral norm of the integrated operator
    of an index rep never exceeds the I-norm of the function."""
    atol = tolerances.accum_tol()
    out = Report("integrated-norm-bound")
    norm = float(integrated_blocks(G, mu, nu, rep, _as_function(G, f)).norms()[0])
    bound = i_norm(G, mu, f)
    if not norm <= bound + atol:  # a NaN norm fails too
        out.add("norm-bound", f"operator norm {norm:.17g} exceeds I-norm {bound:.17g}",
                residual=float(norm - bound))
    else:
        out.add("norm-bound", f"{norm:.17g} <= {bound:.17g}", severity="note",
                residual=float(max(norm - bound, 0.0)))
    return out


# ---------------------------------------------------------------------------
# transitive decomposition and the matrix-algebra isomorphism

@dataclass(frozen=True)
class TransitiveDecomposition:
    """Base object, trivializing arrows, the base isotropy group, and the
    factorization of every arrow.

    ``taus[x]`` runs base -> x; the factorization of an arrow a: y -> x is
    the unique triple (x, g, y) with a = taus[x] o g o taus[y]^-1 and g a
    loop at the base; ``g_index[a]`` is the index of g in ``iso``.
    """

    base: int
    taus: tuple[int, ...]
    iso: IsotropyGroup
    g_index: np.ndarray = field(compare=False, repr=False)

    def factor(self, G: FiniteGroupoid, a: int) -> tuple[int, int, int]:
        return int(G.tgt[a]), int(self.g_index[a]), int(G.src[a])

    def recompose(self, G: FiniteGroupoid, x: int, g_index: int, y: int) -> int:
        g = self.iso.arrows[g_index]
        return G.compose(G.compose(self.taus[x], g), G.inverse[self.taus[y]])


def decompose_transitive(G: FiniteGroupoid) -> TransitiveDecomposition:
    """The factorization of G's orbit index, on base object 0, checked:
    every object has its tau, the base loops form a group and every arrow
    factors."""
    if not G.is_transitive() or G.n_objects == 0:
        raise NotTransitive("groupoid is not transitive")
    base = 0
    _, _, tau, _, g_index = G.orbit_index
    if (tau == G.n_arrows).any():
        raise NotTransitive(f"no arrow from base into {G.objects[np.argmax(tau == G.n_arrows)]}")
    iso = isotropy(G, base)
    if (g_index < 0).any():
        a = int(np.argmin(g_index))
        raise ValueError(f"arrow {G.arrow_ids[a]} does not factor through the base isotropy")
    return TransitiveDecomposition(base, tuple(tau.tolist()), iso, g_index)


def tensor_of_function(G: FiniteGroupoid, dec: TransitiveDecomposition, f) -> np.ndarray:
    """Image of an arrow function in M_n tensor C[iso] via the factorization."""
    f = _as_function(G, f)
    out = np.zeros((G.n_objects, G.n_objects, dec.iso.order), dtype=complex)
    np.add.at(out, (G.tgt, G.src, dec.g_index), f)
    return out


def _structure_constant_mismatches(G: FiniteGroupoid, dec: TransitiveDecomposition):
    """Arrow pairs (a, b), in (a, b) order, at which the delta product and the
    product of the images disagree.

    With counting weights delta_a * delta_b is delta_c for the table row
    (a, b, c), or zero where the table has no row.  The image side
    e_xy(g_a) e_y'z(g_b) is zero unless y == y', and otherwise e_xz tensor
    the sum of the group elements g with left_div[g_a, g] == g_b: a single
    element when the base isotropy table is a group, any number when it is
    corrupted.  The two sides agree exactly when both are zero or both are
    the same single (tgt, src, group) entry; every other pair differs by 1.
    """
    left_div, h = dec.iso.left_div, dec.iso.order
    # size[i, j] = |{g : left_div[i, g] == j}|
    size = np.bincount(np.arange(h).repeat(h) * h + left_div.ravel(),
                       minlength=h * h).reshape(h, h)
    src, tgt, gi = G.src, G.tgt, dec.g_index
    a, b, c = G._pair_products()  # the composable pairs, y == y'
    k = size[gi[a], gi[b]]
    cc = np.where(c >= 0, c, 0)
    agree = np.where(c >= 0,
                     (k == 1) & (tgt[cc] == tgt[a]) & (src[cc] == src[b])
                     & (left_div[gi[a], gi[cc]] == gi[b]),
                     k == 0)
    first, second, _ = G.compose_table.T
    rows, off = G._endpoint_faults()
    off = rows[off]  # the table rows on pairs with y != y'
    bad_a = np.concatenate([a[~agree], first[off]])
    bad_b = np.concatenate([b[~agree], second[off]])
    order = np.lexsort((bad_b, bad_a))
    return bad_a[order], bad_b[order]


def _involution_mismatches(G: FiniteGroupoid, dec: TransitiveDecomposition) -> np.ndarray:
    """Mask of the arrows a at which the image of the involute of delta_a and
    the star of the image of delta_a disagree.

    The involute of delta_a is the indicator of {b : inverse[b] == a}, whose
    image is 1 at the cells (tgt b, src b, g_index[b]); the star of the image
    of delta_a is 1 at the cells (src a, tgt a, g) with inv(g) == g_index[a].
    Both are 0/1 tensors (distinct arrows factor to distinct cells), so they
    differ by exactly 1 unless the two cell sets are equal.  Each (a, cell)
    pair is coded as one integer; a code found once is in one set only.
    """
    n, h = G.n_objects, dec.iso.order
    src, tgt, gi = G.src, G.tgt, dec.g_index
    cells = n * n * h
    inv = np.asarray(dec.iso.inverse_table, dtype=np.intp)
    a, g = np.nonzero(inv[None, :] == gi[:, None])
    codes = np.concatenate([
        G.inverse * cells + (tgt * n + src) * h + gi,
        a * cells + (src[a] * n + tgt[a]) * h + g])
    code, count = np.unique(codes, return_counts=True)
    bad = np.zeros(G.n_arrows, dtype=bool)
    bad[code[count == 1] // cells] = True
    return bad


def transitive_isomorphism_check(G: FiniteGroupoid, mu: HaarSystem | None = None,
                                 atol: float | None = None) -> Report:
    """Verify the transitive-case isomorphism onto matrices tensor group algebra.

    Sends the arrow factored as (x, g, y) to (elementary matrix e_xy) tensor
    (group element g) and checks, with counting weights: the dimension count
    |arrows| = n^2 |iso|, injectivity on arrow deltas, agreement of the
    delta-product structure constants on all |arrows|^2 pairs, and
    involution compatibility.  The map is linear, so agreement on the deltas
    is agreement on every input.  A non-counting Haar system is noted: the
    map as built compares counting convolution only.

    Where :func:`orbits.isomorphism_fault` proves the orbit from the orbit
    matrices that :func:`groupoid.validate` keeps, every law holds exactly
    and the summary's residual is 0.  Otherwise the structure constants are
    compared exactly, from the composition table and the base isotropy
    group's left-division table, without convolving; a pair that fails has
    residual 1, the entrywise difference of the two products.  The
    involution is compared exactly per arrow, from the inverse table and the
    base isotropy group's inverses, with residual 1 where it fails.
    """
    atol = tolerances.exact_tol(atol)
    out = Report("transitive-isomorphism")
    proved = G.is_transitive() and G.n_objects > 0 and isomorphism_fault(G) is None
    dec = None if proved else decompose_transitive(G)
    if mu is not None and not np.allclose(mu.weights, 1.0):
        out.add("weights", "comparison uses counting weights, not the supplied system",
                severity="note")
    n, h = G.n_objects, int(G.orbit_index.loops[0])

    def summary(worst):
        out.add("summary", f"bijective *-homomorphism onto M_{n} tensor C[iso of order {h}]",
                severity="note", residual=worst)
        return out
    if proved:
        return summary(0.0)
    if G.n_arrows != n * n * h:
        out.add("dimension",
                f"|arrows| = {G.n_arrows} != {n}^2 * {h} = {n * n * h}")
        return out
    codes = np.sort((G.tgt * h + dec.g_index) * n + G.src)  # one per (tgt, g, src) triple
    if (codes[1:] == codes[:-1]).any():
        out.add("injectivity", "two arrows factor to the same (tgt, g, src) triple")
        return out
    # a = tau_x o g o tau_y^-1, where tau_x o g composes (g is a loop at the base)
    tau, loops = np.asarray(dec.taus), np.asarray(dec.iso.arrows)
    left, right = G.composites(tau[G.tgt], loops[dec.g_index]), G.inverse[tau[G.src]]
    fails = (G.composites(left, right) != np.arange(G.n_arrows)) | (G.src[left] != G.tgt[right])
    if fails.any():  # the first failure goes through compose, to raise what it raises
        a = int(np.argmax(fails))
        dec.recompose(G, *dec.factor(G, a))
        out.add("factorization", f"arrow {G.arrow_ids[a]} does not recompose")
        return out

    bad_a, bad_b = _structure_constant_mismatches(G, dec)
    bad_star = _involution_mismatches(G, dec)
    mismatched: dict[int, list[int]] = {}
    if 1.0 > atol:
        for a, b in zip(bad_a.tolist(), bad_b.tolist()):
            mismatched.setdefault(a, []).append(b)
    for a in range(G.n_arrows):
        for b in mismatched.get(a, ()):
            out.add("structure-constants",
                    f"delta product at ({G.arrow_ids[a]}, {G.arrow_ids[b]})",
                    residual=1.0)
        if bad_star[a] and 1.0 > atol:
            out.add("involution", f"star image of {G.arrow_ids[a]} disagrees",
                    residual=1.0)
    return summary(1.0 if len(bad_a) or bad_star.any() else 0.0)


# ---------------------------------------------------------------------------
# spanning families

def fundamental_family_check(G: FiniteGroupoid, mu: HaarSystem, supports) -> Report:
    """Check that the indicators of the rows of ``supports``, a (k, m) int
    array of arrows with distinct targets in each row (else ``ValueError``),
    span every target fiber.  Weighted and restricted to the fiber of x, a
    row is 0 or sqrt(w_a) e_a, so the rank at x counts the arrows into x of
    nonzero weight that some row holds."""
    out = Report("fundamental-family")
    S = np.asarray(supports, dtype=np.intp)
    if ((S < 0) | (S >= G.n_arrows)).any():
        raise ValueError(f"supports name arrows outside 0..{G.n_arrows - 1}")
    ends = np.sort(G.tgt[S], axis=-1)
    if (ends[..., 1:] == ends[..., :-1]).any():
        raise ValueError("a support meets a target fiber twice")
    held = (np.bincount(S.ravel(), minlength=G.n_arrows) > 0) & (mu.weights != 0)
    rank = np.bincount(G.tgt[held], minlength=G.n_objects)
    for x, (r, size) in enumerate(zip(rank.tolist(), G.target_fibers.size.tolist())):
        if not size:
            out.add("fiber", f"object {G.objects[x]} has an empty target fiber")
        elif r < size:
            out.add("spanning", f"object {G.objects[x]}: rank {r} < fiber size {size}")
    return out
