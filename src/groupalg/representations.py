"""Hilbert bundles over the objects and representations of the convolution algebra.

A bundle assigns each object a finite-dimensional Hilbert space with a
diagonal weighted inner product; a unitary bundle representation assigns
each arrow a unitary H_src -> H_tgt compatibly with units, composition and
inversion.  Two canonical examples: the trivial representation on the line
bundle, and the left regular representation on the target-fiber bundle,
where an arrow acts by translating fiber indicators.

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
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .errors import NotTransitive, ShapeMismatch
from .groupoid import FiniteGroupoid, IsotropyGroup, components, isotropy
from .haar import HaarSystem, _as_function, convolve, counting_haar, i_norm
from .randgen import SplitMix64, random_function
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
    m = nu.nu[np.asarray(G.tgt, dtype=np.intp)] * mu.weights
    m_inv = m[np.asarray(G.inverse, dtype=np.intp)]
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
        self.offsets = np.concatenate([[0], np.cumsum(self.dims)])
        self.total_dim = int(self.offsets[-1])

    def slice_of(self, x: int) -> slice:
        return slice(int(self.offsets[x]), int(self.offsets[x + 1]))


def canonical_bundle(G: FiniteGroupoid, mu: HaarSystem) -> HilbertBundle:
    """The target-fiber bundle: dimension |fiber|, weights the Haar weights."""
    dims = [len(G.target_fiber(x)) for x in range(G.n_objects)]
    weights = [mu.weights[list(G.target_fiber(x))] for x in range(G.n_objects)]
    return HilbertBundle(dims, weights)


def line_bundle(G: FiniteGroupoid) -> HilbertBundle:
    return HilbertBundle([1] * G.n_objects, [np.ones(1)] * G.n_objects)


@dataclass(frozen=True)
class BundleRep:
    """A matrix per arrow, shaped dim(tgt) x dim(src) over the given bundle."""

    bundle: HilbertBundle
    ops: list[np.ndarray]


def trivial_rep(G: FiniteGroupoid) -> BundleRep:
    """Every arrow acts as 1 on the line bundle.

    Complex scalars throughout; restricting the line fiber to a real unit
    interval would change nothing checkable at this scale.
    """
    one = np.ones((1, 1), dtype=complex)
    return BundleRep(line_bundle(G), [one] * G.n_arrows)


def left_regular(G: FiniteGroupoid, mu: HaarSystem, arrow: int) -> np.ndarray:
    """Matrix of translation by ``arrow`` from fiber(src) to fiber(tgt).

    On indicators: delta_h maps to delta_(arrow o h), a 0/1 matrix realizing
    the fiber bijection; unitary for the weighted inner products whenever
    the Haar system is left-invariant.
    """
    src_fiber = G.target_fiber(G.src[arrow])
    tgt_fiber = G.target_fiber(G.tgt[arrow])
    row_of = {a: i for i, a in enumerate(tgt_fiber)}
    out = np.zeros((len(tgt_fiber), len(src_fiber)), dtype=complex)
    for col, h in enumerate(src_fiber):
        c = G.compose(arrow, h)
        if c not in row_of:
            raise ValueError(f"{G.arrow_ids[arrow]} o {G.arrow_ids[h]} = {G.arrow_ids[c]} "
                             f"leaves the target fiber of {G.objects[G.tgt[arrow]]}")
        out[row_of[c], col] = 1.0
    return out


def left_regular_rep(G: FiniteGroupoid, mu: HaarSystem) -> BundleRep:
    bundle = canonical_bundle(G, mu)
    return BundleRep(bundle, [left_regular(G, mu, a) for a in range(G.n_arrows)])


def check_representation(G: FiniteGroupoid, rep: BundleRep,
                         atol: float | None = None) -> Report:
    """Representation axioms, checked everywhere (not almost-everywhere).

    Units act as identities, composition is preserved on every composable
    pair, inverses invert, and each matrix is unitary for the weighted
    inner products.  Measurability is vacuous on a finite groupoid and is
    recorded as a note.
    """
    atol = tolerances.exact_tol(atol)
    rep_out = Report("representation-axioms")
    bundle = rep.bundle
    if len(rep.ops) != G.n_arrows:
        rep_out.add("shape", "one matrix per arrow is required")
        return rep_out
    for a in range(G.n_arrows):
        want = (bundle.dims[G.tgt[a]], bundle.dims[G.src[a]])
        if rep.ops[a].shape != want:
            rep_out.add("shape",
                        f"op({G.arrow_ids[a]}) has shape {rep.ops[a].shape}, wants {want}")
            return rep_out
    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            rep_out.add("units", f"object {G.objects[x]} has no unit arrow")
            continue
        err = np.abs(rep.ops[u] - np.eye(bundle.dims[x])).max()
        if err > atol:
            rep_out.add("units", f"op(unit {G.objects[x]}) is not the identity",
                        residual=float(err))
    for a, b, c in zip(*(v.tolist() for v in G.products())):
        err = np.abs(rep.ops[c] - rep.ops[a] @ rep.ops[b]).max()
        if err > atol:
            rep_out.add("multiplicativity",
                        f"op({G.arrow_ids[a]} o {G.arrow_ids[b]}) != "
                        f"op({G.arrow_ids[a]}) op({G.arrow_ids[b]})", residual=float(err))
    for a in range(G.n_arrows):
        inv = G.inverse[a]
        d = bundle.dims[G.tgt[a]]
        err = np.abs(rep.ops[a] @ rep.ops[inv] - np.eye(d)).max()
        if err > atol:
            rep_out.add("inverses",
                        f"op({G.arrow_ids[a]}) op({G.arrow_ids[inv]}) != identity",
                        residual=float(err))
    for a in range(G.n_arrows):
        wt = bundle.weights[G.tgt[a]]
        ws = bundle.weights[G.src[a]]
        gram = rep.ops[a].conj().T * wt @ rep.ops[a]
        err = np.abs(gram - np.diag(ws)).max()
        if err > atol:
            rep_out.add("unitarity",
                        f"op({G.arrow_ids[a]}) is not unitary for the fiber weights",
                        residual=float(err))
    rep_out.add("measurability", "finite groupoid: every section is measurable",
                severity="note")
    return rep_out


def conjugate_rep_on(G: FiniteGroupoid, rep: BundleRep,
                     unitaries: list[np.ndarray]) -> BundleRep:
    """Conjugate ``rep`` by a field of unitaries, one per object."""
    if len(unitaries) != G.n_objects:
        raise ShapeMismatch("need one unitary per object")
    inv = [np.linalg.inv(u) for u in unitaries]
    ops = [unitaries[G.tgt[a]] @ rep.ops[a] @ inv[G.src[a]]
           for a in range(G.n_arrows)]
    return BundleRep(rep.bundle, ops)


# ---------------------------------------------------------------------------
# integrated representation

def integrate_rep(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                  rep: BundleRep, f) -> np.ndarray:
    """Block operator of f on the nu-weighted direct sum of the fibers.

    The block at (tgt, src) accumulates f(a) m_o(a) / nu(tgt) times op(a);
    this is the unique operator representing the pairing
    sum_a f(a) <op(a) xi(src a), eta(tgt a)> m_o(a) against the bundle inner
    product sum_x nu(x) <xi(x), eta(x)>_x.
    """
    f = _as_function(G, f)
    bundle = rep.bundle
    if len(bundle.dims) != G.n_objects or len(rep.ops) != G.n_arrows:
        raise ShapeMismatch("representation does not match the groupoid")
    ind = induced_measures(G, mu, nu)
    out = np.zeros((bundle.total_dim, bundle.total_dim), dtype=complex)
    for a in range(G.n_arrows):
        if f[a] == 0:
            continue
        t, s = G.tgt[a], G.src[a]
        coeff = f[a] * ind.m_o[a] / nu.nu[t]
        out[bundle.slice_of(t), bundle.slice_of(s)] += coeff * rep.ops[a]
    return out


def bundle_metric(bundle: HilbertBundle, nu: QuasiInvariantMeasure) -> np.ndarray:
    """Diagonal of the full inner product: nu(x) * fiber weight, concatenated."""
    return np.concatenate([np.zeros(0)] + [nu.nu[x] * bundle.weights[x]
                                           for x in range(len(bundle.dims))])


def adjoint_operator(op: np.ndarray, bundle: HilbertBundle,
                     nu: QuasiInvariantMeasure) -> np.ndarray:
    """Adjoint for the weighted inner product: M^-1 op^H M with M the metric."""
    m = bundle_metric(bundle, nu)
    return (op.conj().T * m) / m[:, None]


def support_blocks(M: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows and columns of each connected block of the support of ``M``.

    Row i and column j are joined when ``M[i, j] != 0``; a row or column
    with no nonzero entry is in no block.  Blocks come in the order of their
    least row, rows and columns ascending within a block.
    """
    n = M.shape[0]
    support = M != 0
    r, c = np.nonzero(support)
    label = components(n + M.shape[1], r, n + c).tolist()  # rows, then columns shifted by n
    blocks: dict[int, tuple[list[int], list[int]]] = {}
    for i in np.flatnonzero(support.any(axis=1)).tolist():
        blocks.setdefault(label[i], ([], []))[0].append(i)
    for j in np.flatnonzero(support.any(axis=0)).tolist():
        blocks[label[n + j]][1].append(j)
    return [(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))
            for rows, cols in blocks.values()]


def operator_norm(op: np.ndarray, bundle: HilbertBundle,
                  nu: QuasiInvariantMeasure) -> float:
    """Spectral norm in the weighted geometry, via similarity to the flat one.

    The operator is block diagonal up to permuting its rows and columns (for
    the left regular representation, one block per source object of the
    fiber arrows), and the singular values of the flat similar matrix are
    those of its blocks: the norm is the largest over one small SVD per
    support block, and a single block is the whole matrix.  A non-finite
    entry of the flat matrix gives NaN.
    """
    root = np.sqrt(bundle_metric(bundle, nu))
    if not (np.isfinite(root).all() and root.all()):
        return math.nan  # a zero or infinite root spoils its row of the flat matrix
    blocks = support_blocks(op)
    if len(blocks) == 1:
        blocks = [(np.arange(op.shape[0]), np.arange(op.shape[1]))]
    norm = 0.0
    for rows, cols in blocks:
        sim = op[np.ix_(rows, cols)] * root[rows, None] / root[cols]
        if not np.isfinite(sim).all():
            return math.nan
        norm = max(norm, float(np.linalg.svd(sim, compute_uv=False)[0]))
    return norm


def operator_norm_bound_check(G: FiniteGroupoid, mu: HaarSystem,
                              nu: QuasiInvariantMeasure, rep: BundleRep, f,
                              atol: float | None = None) -> Report:
    """Check the contraction bound: spectral norm of the integrated operator
    never exceeds the I-norm of the function."""
    atol = tolerances.accum_tol(atol)
    out = Report("integrated-norm-bound")
    op = integrate_rep(G, mu, nu, rep, f)
    norm = operator_norm(op, rep.bundle, nu)
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
        return G.tgt[a], int(self.g_index[a]), G.src[a]

    def recompose(self, G: FiniteGroupoid, x: int, g_index: int, y: int) -> int:
        g = self.iso.arrows[g_index]
        return G.compose(G.compose(self.taus[x], g), G.inverse[self.taus[y]])


def decompose_transitive(G: FiniteGroupoid) -> TransitiveDecomposition:
    """Pick base object 0 and lowest-id arrows base -> x; factor every arrow."""
    if not G.is_transitive() or G.n_objects == 0:
        raise NotTransitive("groupoid is not transitive")
    base = 0
    taus = []
    for x in range(G.n_objects):
        cands = [a for a in G.target_fiber(x) if G.src[a] == base]
        if not cands:
            raise NotTransitive(f"no arrow from base into {G.objects[x]}")
        taus.append(min(cands))
    iso = isotropy(G, base)
    tau, inverse = np.asarray(taus), np.asarray(G.inverse)
    g = G.composites(G.composites(inverse[tau[G.tgt]], np.arange(G.n_arrows)), tau[G.src])
    position = np.full(G.n_arrows + 1, -1)  # the last entry catches g == -1 (undefined)
    position[list(iso.arrows)] = np.arange(iso.order)
    g_index = position[g]
    if (g_index < 0).any():
        a = int(np.argmin(g_index))
        raise ValueError(f"arrow {G.arrow_ids[a]} does not factor through the base isotropy")
    return TransitiveDecomposition(base, tuple(taus), iso, g_index)


def _group_algebra_product(iso: IsotropyGroup, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Product in M_n tensor C[iso]; tensors indexed [tgt, src, group]."""
    out = np.zeros_like(A)
    for g1 in range(iso.order):
        out += np.einsum("xy,yzg->xzg", A[:, :, g1], B[:, :, iso.left_div[g1]])
    return out


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
    src = np.asarray(G.src, dtype=np.intp)
    tgt = np.asarray(G.tgt, dtype=np.intp)
    gi = dec.g_index
    a, b, c = G._pair_products()  # the composable pairs, y == y'
    k = size[gi[a], gi[b]]
    cc = np.where(c >= 0, c, 0)
    agree = np.where(c >= 0,
                     (k == 1) & (tgt[cc] == tgt[a]) & (src[cc] == src[b])
                     & (left_div[gi[a], gi[cc]] == gi[b]),
                     k == 0)
    first, second, _ = G.compose_table.T
    off = src[first] != tgt[second]  # a table row on a pair with y != y'
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
    src = np.asarray(G.src, dtype=np.intp)
    tgt = np.asarray(G.tgt, dtype=np.intp)
    gi = dec.g_index
    cells = n * n * h
    inv = np.asarray(dec.iso.inverse_table, dtype=np.intp)
    a, g = np.nonzero(inv[None, :] == gi[:, None])
    codes = np.concatenate([
        np.asarray(G.inverse, dtype=np.intp) * cells + (tgt * n + src) * h + gi,
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
    delta-product structure constants on all |arrows|^2 pairs, agreement on
    random linear inputs, and involution compatibility.  A non-counting Haar
    system is noted: the map as built compares counting convolution only.

    The structure constants are compared exactly, from the composition
    table and the base isotropy group's left-division table, without
    convolving; a pair that fails has residual 1, the entrywise difference
    of the two products.  The involution is compared exactly per arrow, from
    the inverse table and the base isotropy group's inverses, with residual
    1 where it fails; the linear inputs go through :func:`convolve`.
    """
    atol = tolerances.exact_tol(atol)
    out = Report("transitive-isomorphism")
    dec = decompose_transitive(G)
    counting = counting_haar(G)
    if mu is not None and not np.allclose(mu.weights, 1.0):
        out.add("weights", "comparison uses counting weights, not the supplied system",
                severity="note")
    n, h = G.n_objects, dec.iso.order
    if G.n_arrows != n * n * h:
        out.add("dimension",
                f"|arrows| = {G.n_arrows} != {n}^2 * {h} = {n * n * h}")
        return out
    triples = [dec.factor(G, a) for a in range(G.n_arrows)]
    if len(set(triples)) != G.n_arrows:
        out.add("injectivity", "two arrows factor to the same (tgt, g, src) triple")
        return out
    for a, (x, g, y) in enumerate(triples):
        if dec.recompose(G, x, g, y) != a:
            out.add("factorization", f"arrow {G.arrow_ids[a]} does not recompose")
            return out

    bad_a, bad_b = _structure_constant_mismatches(G, dec)
    bad_star = _involution_mismatches(G, dec)
    worst = 1.0 if len(bad_a) or bad_star.any() else 0.0
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

    rng = SplitMix64(0xC0FFEE)
    for _ in range(2):
        f = random_function(G, rng)
        g = random_function(G, rng)
        lhs = tensor_of_function(G, dec, convolve(G, counting, f, g))
        rhs = _group_algebra_product(dec.iso, tensor_of_function(G, dec, f),
                                     tensor_of_function(G, dec, g))
        err = float(np.abs(lhs - rhs).max())
        worst = max(worst, err)
        if err > atol:
            out.add("linearity", "random linear inputs disagree under the map",
                    residual=err)
    out.add("summary",
            f"bijective *-homomorphism onto M_{n} tensor C[iso of order {h}]",
            severity="note", residual=worst)
    return out


# ---------------------------------------------------------------------------
# spanning families

def fundamental_family_check(G: FiniteGroupoid, mu: HaarSystem,
                             family: list) -> Report:
    """Check that the family restricted to each target fiber spans it.

    Finite fibers make density literal spanning: the weighted restrictions
    must have rank equal to the fiber size at every object.
    """
    out = Report("fundamental-family")
    for x in range(G.n_objects):
        fiber = list(G.target_fiber(x))
        if not fiber:
            out.add("fiber", f"object {G.objects[x]} has an empty target fiber")
            continue
        root = np.sqrt(mu.weights[fiber])
        rows = [np.asarray(f, dtype=complex)[fiber] * root for f in family]
        rank = int(np.linalg.matrix_rank(np.array(rows))) if rows else 0
        if rank < len(fiber):
            out.add("spanning",
                    f"object {G.objects[x]}: rank {rank} < fiber size {len(fiber)}")
    return out
