"""Oracles: the slower paths that faster code in ``src/`` replaced.

For the representation checks, the dense check: every law computed on dense
ops, one matrix product per composable pair and two per arrow.  It is the
oracle of the index check, which must give the same entries, and of the
per-object bounds of a conjugated rep, which must give the same verdicts
and bound every residual.  With it, the generator-pair bound on
multiplicativity that the dense check of the conjugated rep once used, and
the index check's residuals with every composable pair scanned, which the
index check now keeps for when its generator pairs prove nothing.
For the integrated representations, the paths that the block operators
replaced: the integrated operator scattered into one (sum of dims)^2 matrix,
the one integration of a conjugated rep left, and the battery's integrated
suites run one trial at a time on those matrices, with the unitary field
applied as one block-diagonal matrix and its inverse.  For the per-object
quantities of a conjugated rep's bounds, which are taken over stacks of the
objects of one fiber dimension: the loop over the objects.  For the transport
of a conjugated rep, which the battery judges from a rounding bound: the
dense comparison of each target object's strip of its integrated operators,
summed from the conjugated ops, with the field times the base's.  For the dense
operator norm, the connected blocks of a matrix's support with rows and
columns apart, one SVD each, which ``operator_norm`` took before it read a
block operator, and the block operator's norm with the support's edges
from the 2-D ``np.nonzero`` of its mask, which one flat scan replaced.  For
the I-norm and the weight pairing: their sums written out per fiber and per
arrow.  For the haar weights map, which is converted as one array: the
reader that checked one weight at a time.  For the bisection group, which
is proved by closure under greedy generators: the k x k star table of the
whole set from a dict on row bytes with associativity over all k^3
triples, and the group laws pair by pair; for their enumeration, which
builds each orbit's full bisections level by level as one int array: the
recursive backtracking over all objects.  For the composition lookup,
which reads each row by its position first: the binary search over the
sorted pair keys that it replaced.  For the battery's other randomized suites,
which now draw each suite's trials as one block of the stream and run them
as stacks: the loops that drew and checked one trial at a time.  For the
relation build, which works on sorted (tgt, src) keys: the build from label
sets, a successor dict and an n x n index matrix, with its Python closure.
For the fibers, which are slices of one index sorted by endpoint: the tuples
that one loop over the arrows appended to.  For the fundamental families,
which are judged by counting the arrows their supports cover: the rank of
each weighted fiber restriction by SVD, on the dense indicator family.  For
the multiplier certificate, which looks its pairs up among sorted keys: the
loops with one endpoint-dict lookup per pair.  For the arrows reader, which
resolves each id column in one pass and finds the units from the table:
the reader that looked each id up on its own and built the groupoid twice.
For the orbit index, which factors each orbit once as the groupoid is
built: the derivations that ``orbits()``, the generator certificate and
``decompose_transitive`` each made from their own ``components`` call, and
the index itself one object and one arrow at a time.
For the generator certificate, which runs Light's test on the loop table
of each orbit that ``orbit_matrices`` keeps: Light's test on the whole
table.  For ``validate``'s unit and inverse laws, which are array masks:
the loops that tested them object by object and arrow by arrow.  For the
table rows whose endpoints fail, which the groupoid finds once and keeps
for ``validate``, the certificate and the orbit matrices: the pass each of
them made over the rows for itself, the compose entries worded row by row,
and the certificate's premise over the composable pairs.  For the index
residuals, which take the left regular rep's multiplicativity from its
translation proof and sort for shared rows only the ops that no exact
inverse law shows injective: the generator pairs or the scan of every
pair, and the sort of every entry.  For the relation build, which reads
each composite and inverse at its position in its class's row: the binary
search of every key.

With them, the benchmark's small documents, on which the battery's reports
are pinned and the conjugated rep's bounds are compared with the dense check.
"""

import functools
import math
import os
import random
import sys
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from groupalg import orbits, representations, tolerances
from groupalg.bisections import (Bisection, arrow_array, bisection_compose, target_map,
                                 unit_bisection)
from groupalg.blocks import BlockOperator, BlockPartition
from groupalg.errors import (FileFormatError, NotClosed, NotTransitive, ShapeMismatch,
                             UndefinedProduct, UnknownLabel)
from groupalg.builders import group_groupoid, pair_groupoid, product, symmetric_table
from groupalg.groupoid import (FiniteGroupoid, _composable, _fibers, _joined, _name_missing,
                               _ranges, _triples, components, isotropy)
from groupalg.haar import (HaarSystem, _as_function, convolve, counting_haar,
                           function_to_matrix, i_norm, involute, support_fiber_mass,
                           table_convolve, unit_function)
from groupalg.io import _finite_number, _label_map, _require
from groupalg.partial_algebra import _label
from groupalg.randgen import SplitMix64, random_function, random_groupoid
from groupalg.report import Report, _worst
from groupalg.representations import (ConjugatedRep, HilbertBundle, IndexRep,
                                      QuasiInvariantMeasure, TransitiveDecomposition,
                                      _coefficients, _column_gaps, adjoint_operator,
                                      bundle_factors, induced_measures, operator_norm)


@dataclass(frozen=True)
class DenseRep:
    """A matrix per arrow, shaped dim(tgt) x dim(src) over the bundle."""

    bundle: HilbertBundle
    ops: Sequence[np.ndarray]


def dense_of(rep) -> DenseRep:
    """The ops of an index or conjugated rep, read densely."""
    return DenseRep(rep.bundle, [np.asarray(op) for op in rep.ops])


def _gap(lhs, rhs) -> float:
    """max |lhs - rhs| (NaN when an entry is NaN), or inf when the two
    sides are maps between different spaces."""
    return float(np.abs(lhs - rhs).max()) if lhs.shape == rhs.shape else math.inf


def dense_residuals(G, rep):
    """The residual of each law on dense ops: per object (units), per
    composable pair with a composite, in composable-pair order (the (a, b, c)
    triples and their residuals), per arrow (inverses, unitarity)."""
    ops, dims, weights = rep.ops, rep.bundle.dims, rep.bundle.weights
    src, tgt, inverse = G.src.tolist(), G.tgt.tolist(), G.inverse.tolist()
    units = [math.nan if u is None else _gap(ops[u], np.eye(dims[x]))
             for x, u in enumerate(G.unit_of)]
    table = {(a, b): c for a, b, c in G.compose_table.tolist()}
    triples = [(a, b, table[a, b]) for a, b in G.composable_pairs() if (a, b) in table]
    mult = [_gap(ops[c], ops[a] @ ops[b]) for a, b, c in triples]
    inverses = [_gap(ops[x] @ ops[inverse[x]], np.eye(dims[tgt[x]]))
                if ops[x].shape[1] == ops[inverse[x]].shape[0] else math.inf
                for x in range(G.n_arrows)]
    unitarity = [_gap(ops[x].conj().T * weights[tgt[x]] @ ops[x], np.diag(weights[src[x]]))
                 for x in range(G.n_arrows)]
    return units, triples, mult, inverses, unitarity


def dense_check(G, rep, atol=None) -> Report:
    """``check_representation``'s report from :func:`dense_residuals`."""
    atol = tolerances.exact_tol(atol)
    out = Report("representation-axioms")
    dims, aid = rep.bundle.dims, G.arrow_ids
    if len(rep.ops) != G.n_arrows:
        out.add("shape", "one matrix per arrow is required")
        return out
    if len(dims) != G.n_objects:
        out.add("shape", "one fiber per object is required")
        return out
    for a, op in enumerate(rep.ops):
        want = (dims[G.tgt[a]], dims[G.src[a]])
        if op.shape != want:
            out.add("shape", f"op({aid[a]}) has shape {op.shape}, wants {want}")
            return out
    units, triples, mult, inverses, unitarity = dense_residuals(G, rep)
    for x, err in enumerate(units):
        if G.unit_of[x] is None:
            out.add("units", f"object {G.objects[x]} has no unit arrow")
        elif not err <= atol:
            out.add("units", f"op(unit {G.objects[x]}) is not the identity", residual=err)
    for (a, b, _), err in zip(triples, mult):
        if not err <= atol:
            out.add("multiplicativity", f"op({aid[a]} o {aid[b]}) != op({aid[a]}) op({aid[b]})",
                    residual=err)
    for x, err in enumerate(inverses):
        if not err <= atol:
            out.add("inverses", f"op({aid[x]}) op({aid[G.inverse[x]]}) != identity",
                    residual=err)
    for x, err in enumerate(unitarity):
        if not err <= atol:
            out.add("unitarity", f"op({aid[x]}) is not unitary for the fiber weights",
                    residual=err)
    out.add("measurability", "finite groupoid: every section is measurable",
            severity="note")
    return out


def scanned_index_residuals(G, rep):
    """``representations._index_residuals`` with every composable pair
    scanned: the rows of op(a o b) against those of op(a) op(b) on each
    pair the table defines, however the generator pairs come out."""
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
    key = np.sort(arrow * len(w) + at)
    shared = key[1:][key[1:] == key[:-1]]  # (arrow, row) pairs that two columns share
    np.maximum.at(unitarity, shared // len(w), w[shared % len(w)])
    finite = np.array([np.isfinite(v).all() for v in rep.bundle.weights], dtype=bool)
    unitarity[~finite[tgt]] = math.nan
    return units, a, b, mult, inverses, unitarity


def generator_index_residuals(G, rep):
    """``representations._index_residuals`` before the left regular rep's
    translation proof and the injective ops: multiplicativity proved from
    the generator pairs alone (``_multiplicative_by_generators``), else
    every composable pair scanned, and the shared-row sort of unitarity
    over every entry of ``rows``."""
    out = scanned_index_residuals(G, rep)
    if representations._multiplicative_by_generators(G, rep):
        empty = np.zeros(0, dtype=np.intp)
        return out[0], empty, empty, np.zeros(0), *out[4:]
    return out


def own_pass_endpoint_faults(G):
    """``G._endpoint_faults()`` as ``validate``, the generator certificate
    and ``orbits._build`` each computed it for itself, from the off-domain
    and wrong-endpoint masks of every table row: the faulty rows and
    whether each is off the domain."""
    src, tgt = G.src, G.tgt
    a, b, c = G.compose_table.T
    off = src[a] != tgt[b]
    wrong = (tgt[c] != tgt[a]) | (src[c] != src[b])
    rows = np.flatnonzero(off | wrong)
    return rows, off[rows]


def scanned_compose_entries(G) -> list[tuple[str, str]]:
    """The compose-domain and compose-endpoints entries of ``validate``,
    each row judged from its own endpoints, one row at a time."""
    src, tgt, aid = G.src.tolist(), G.tgt.tolist(), G.arrow_ids
    out = []
    for a, b, c in G.compose_table.tolist():
        if src[a] != tgt[b]:
            out.append(("compose-domain",
                        f"table defines {aid[a]} o {aid[b]} but src/tgt do not match"))
        elif tgt[c] != tgt[a] or src[c] != src[b]:
            out.append(("compose-endpoints",
                        f"{aid[a]} o {aid[b]} = {aid[c]} has wrong endpoints"))
    return out


def pair_endpoints_hold(G) -> bool:
    """The generator certificate's first premise over the composable pairs:
    each has a composite, and the composite has the endpoints of the pair."""
    src, tgt = G.src, G.tgt
    a, b, ab = G._pair_products()
    return not ((ab < 0).any() or (tgt[ab] != tgt[a]).any() or (src[ab] != src[b]).any())


def own_pass_orbit_matrices(G):
    """``orbit_matrices(G)`` built on a copy of G that holds the faulty rows
    of :func:`own_pass_endpoint_faults`, so that ``orbits._build`` drops the
    orbits of its own pass over the rows, as it once did."""
    H = FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table, G.inverse, G.unit_of,
                       G.arrow_ids)
    H._faults = own_pass_endpoint_faults(G)
    return orbits._build(H)


def right_nested_depths(G, gens):
    """Independent closure: the least k with every arrow a right-nested
    word of length at most k over gens, or None."""
    reached, words, k = set(gens), set(gens), 1
    while len(reached) < G.n_arrows:
        words = {G.compose(s, w) for s in gens for w in words if G.src[s] == G.tgt[w]}
        words -= reached
        if not words:
            return None
        reached |= words
        k += 1
    return k


def whole_table_light(G) -> bool:
    """The generator certificate's verdict with Light's test on the whole
    table, as it was taken before the orbits that ``orbit_matrices`` keeps
    were judged by their loop tables: every composable pair defined with
    the right endpoints, the certificate's generators reaching every arrow,
    and (x o s) o y == x o (s o y) for every generator s and composable x, y."""
    src, tgt = G.src, G.tgt
    if not pair_endpoints_hold(G):
        return False
    gens = G.certificate().generators
    if right_nested_depths(G, gens.tolist()) is None:
        return False
    x, s = _joined(np.arange(G.n_arrows), gens, src, tgt, G.n_objects)
    xs = G.composites(x, s)
    for rows, y in _triples(G.target_fibers, src[s]):
        if (G.composites(xs[rows], y)
                != G.composites(x[rows], G.composites(s[rows], y))).any():
            return False
    return True


def looped_unit_inverse_laws(G) -> list[tuple[str, str]]:
    """``validate``'s unit and inverse entries from one loop over the
    objects and two over the arrows, each law tested arrow by arrow."""
    aid, out = G.arrow_ids, []
    unit = [-1 if u is None else u for u in G.unit_of]
    src, tgt, inv = G.src.tolist(), G.tgt.tolist(), G.inverse.tolist()

    def composite(a, b):
        return int(G.composites(a, b)) if a >= 0 and b >= 0 else -1
    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            out.append(("unit-missing", f"object {G.objects[x]} has no unit arrow"))
        elif tgt[u] != x or src[u] != x:
            out.append(("unit-endpoints",
                        f"unit of {G.objects[x]} is {aid[u]}, not a loop at it"))
    for a in range(G.n_arrows):
        if composite(a, unit[src[a]]) not in (-1, a):
            out.append(("unit-law", f"{aid[a]} o unit({G.objects[src[a]]}) != {aid[a]}"))
        if composite(unit[tgt[a]], a) not in (-1, a):
            out.append(("unit-law", f"unit({G.objects[tgt[a]]}) o {aid[a]} != {aid[a]}"))
    for a in range(G.n_arrows):
        i = inv[a]
        if tgt[i] != src[a] or src[i] != tgt[a]:
            out.append(("inverse-endpoints",
                        f"inverse({aid[a]}) = {aid[i]} does not swap endpoints"))
            continue
        if inv[i] != a:
            out.append(("inverse-involution", f"inverse(inverse({aid[a]})) = {aid[inv[i]]}"))
        ut, us = unit[tgt[a]], unit[src[a]]
        if ut >= 0 and composite(a, i) not in (-1, ut):
            out.append(("inverse-law", f"{aid[a]} o {aid[i]} != unit({G.objects[tgt[a]]})"))
        if us >= 0 and composite(i, a) not in (-1, us):
            out.append(("inverse-law", f"{aid[i]} o {aid[a]} != unit({G.objects[src[a]]})"))
    return out


def norm_groupoids() -> dict:
    """Pair groupoids, pair(k) x S3 and random unions: the groupoids the
    operator norm is compared with the dense SVD on."""
    out = {f"pair{k}": pair_groupoid([f"o{i}" for i in range(k)]) for k in (1, 2, 4, 6)}
    for k in (1, 2, 3):
        out[f"pair{k}xS3"] = product(pair_groupoid([f"o{i}" for i in range(k)]),
                                     group_groupoid(*symmetric_table(3)))
    for seed in (3, 11, 29):
        out[f"random{seed}"] = random_groupoid(SplitMix64(seed), max_arrows=40)
    return out


def generator_bound(G, rep) -> float:
    """A bound on every multiplicativity residual of dense ops from the
    generator pairs alone; inf when the table has no certificate, NaN when
    an op is not finite.

    Norms are max row sums.  With S the certificate's generators, L the
    longest right-nested word over S needed to reach an arrow, kappa the
    largest norm of an op and gamma the rounding bound of a complex product
    of inner dimension d (the largest fiber dimension; Higham §3.6), let r
    be the largest computed ||op(s o b) - op(s) op(b)|| over s in S and b
    into src(s), widened by (1 + 4 gamma).  rho = r + gamma kappa^2 bounds
    the exact defect of every generator pair.  Every arrow of depth k > 1 is
    s o w with w of depth k - 1, and the table is associative, so the
    defects E_k of depth-k arrows obey E_1 <= rho and
    E_k <= rho (1 + kappa) + kappa E_(k-1); every computed residual is at
    most (1 + 3u) (E_L + gamma kappa^2), and E_L + gamma kappa^2 is returned.
    """
    cert = G.certificate()
    if not cert.associative:
        return math.inf
    ops = rep.ops
    dim = max(rep.bundle.dims, default=0) + 2
    gamma = math.sqrt(2) * dim * 2.0 ** -53 / (1 - dim * 2.0 ** -53)

    def norm(m):
        return float(np.abs(m).sum(axis=1).max(initial=0.0))

    kappa = max((norm(op) for op in ops), default=0.0) * (1 + 4 * gamma)
    if not math.isfinite(kappa):
        return math.nan
    s, b = _joined(cert.generators, np.arange(G.n_arrows), G.src, G.tgt, G.n_objects)
    r = max((norm(ops[sb] - ops[x] @ ops[y])
             for x, y, sb in zip(s.tolist(), b.tolist(), G.composites(s, b).tolist())),
            default=0.0) * (1 + 4 * gamma)
    rho = r + gamma * kappa ** 2
    bound = rho
    for _ in range(right_nested_depths(G, cert.generators.tolist()) - 1):
        bound = rho * (1 + kappa) + kappa * bound
    return float(bound + gamma * kappa ** 2)


@functools.cache
def benchmark_documents():
    """The benchmark's transitive-ladder and mixed-small documents at seeds
    1-3, as (seed, document) lists by label."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        import inputs
        from workloads import LADDER, MIXED_UNIONS, UNIONS
    finally:
        sys.path.pop(0)
    out = {}
    for seed in (1, 2, 3):
        rng = random.Random(seed)
        for label, n, group in LADDER:
            doc = (inputs.pair_relation_doc(n, rng) if group is None
                   else inputs.union_arrows_doc([(n, group)], rng))
            out.setdefault(label, []).append((seed, doc))
        rng = random.Random(seed)
        for i in MIXED_UNIONS:
            doc = inputs.union_arrows_doc(UNIONS[i], rng)
            out.setdefault(f"union{i:02d}", []).append((seed, doc))
    return out


def pair_layers_ops(seed: int) -> dict:
    """The operations of the benchmark's pair36-layers workload at ``seed``,
    by name, each run on a shared context dict."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        from workloads import pair_layers
    finally:
        sys.path.pop(0)
    return {op.label: op.run for op in pair_layers(seed, 20)}


def next_u64(rng: SplitMix64) -> int:
    """The stream's next draw in Python ints, one splitmix64 step at a time:
    the reference for the array draws of ``SplitMix64.next_u64s``."""
    mask = (1 << 64) - 1
    rng.state = (rng.state + 0x9E3779B97F4A7C15) & mask
    z = rng.state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def scatter_integrate(G, mu, nu, rep, f):
    """The integrated operator of one function as a dense matrix: for an
    IndexRep one scatter of every coefficient to the (row, column) of its
    op's ones, in arrow order; for stored ops (a conjugated or dense rep)
    one slice addition per arrow."""
    f = _as_function(G, f)
    bundle = rep.bundle
    ind = induced_measures(G, mu, nu)
    out = np.zeros((bundle.total_dim, bundle.total_dim), dtype=complex)
    used = np.flatnonzero(f != 0)
    coeff = f[used] * ind.m_o[used] / nu.nu[G.tgt[used]]
    if isinstance(rep, IndexRep):
        offsets = np.array(bundle.offsets, dtype=np.intp)
        width = np.diff(rep.starts)[used]
        k = np.repeat(np.arange(len(used)), width)
        cols = _ranges(np.zeros_like(width), width)
        at = rep.rows[_ranges(rep.starts[used], width)]
        np.add.at(out, (offsets[G.tgt[used]][k] + at, offsets[G.src[used]][k] + cols), coeff[k])
        return out
    for a, t, s, co in zip(used.tolist(), G.tgt[used].tolist(), G.src[used].tolist(), coeff):
        out[bundle.slice_of(t), bundle.slice_of(s)] += co * rep.ops[a]
    return out


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


def nonzero_operator_norm(op, bundle, nu) -> float:
    """``operator_norm`` with the support's edges from the 2-D ``np.nonzero``
    of the mask, as it found them before one flat scan replaced it."""
    n = bundle.total_dim
    if op.shape != (n, n):
        raise ShapeMismatch(f"operator has shape {op.shape}, expected {(n, n)}")
    part = BlockPartition.of(components(n, *np.nonzero(op != 0)))
    data = tuple(op[p[:, :, None], p[:, None, :]][None] for p in part.groups)
    return float(BlockOperator(*bundle_factors(bundle, nu), part, data, 1).norms()[0])


def every_block_norms(ops: BlockOperator) -> np.ndarray:
    """``BlockOperator.norms`` as it was before equal blocks shared an SVD:
    the flat similar blocks from one root of the product metric,
    ``d * r_r / r_c``, and one SVD of every block."""
    root = np.sqrt(ops.metric)
    if not (np.isfinite(root).all() and root.all()):
        return np.full(ops.k, math.nan)
    out = np.zeros(ops.k)
    for p, d in ops.groups:
        r = root[p]
        sim = d * r[:, :, None] / r[:, None, :]
        bad = ~np.isfinite(sim).all(axis=(1, 2, 3))
        sim[bad] = 0.0
        top = np.linalg.svd(sim, compute_uv=False)[..., 0].max(axis=1)
        out = np.maximum(out, np.where(bad, math.nan, top))
    return out


def per_trial_integrated(G, mu, nus, reps, rng, t):
    """The worst residuals of the integrated homomorphism, star and norm
    bound laws, one trial at a time on dense matrices."""
    worst_mult = worst_star = worst_bound = 0.0
    for nu_k in nus:
        for rep in reps:
            for _ in range(t):
                f = random_function(G, rng)
                g = random_function(G, rng)
                pf = scatter_integrate(G, mu, nu_k, rep, f)
                pg = scatter_integrate(G, mu, nu_k, rep, g)
                pfg = scatter_integrate(G, mu, nu_k, rep, convolve(G, mu, f, g))
                worst_mult = _worst(worst_mult, float(np.abs(pfg - pf @ pg).max()))
                pstar = scatter_integrate(G, mu, nu_k, rep, involute(G, f))
                adj = adjoint_operator(pf, rep.bundle, nu_k)
                worst_star = _worst(worst_star, float(np.abs(pstar - adj).max()))
                over = operator_norm(pf, rep.bundle, nu_k) - i_norm(G, mu, f)
                worst_bound = _worst(worst_bound, over, 0.0)
    return worst_mult, worst_star, worst_bound


def big_matrix_transport(G, mu, nu, conj, fs, atol):
    """Whether the conjugated rep passes the dense check, and the worst gap
    between its integrated operators and big pi(f) big^-1, with big the
    block-diagonal field and pi the integration of its base, over the
    functions ``fs``."""
    ok = dense_check(G, dense_of(conj), atol=atol).ok
    big = np.zeros((conj.bundle.total_dim, conj.bundle.total_dim), dtype=complex)
    for x in range(G.n_objects):
        big[conj.bundle.slice_of(x), conj.bundle.slice_of(x)] = conj.field[x]
    worst = 0.0
    for f in fs:
        lhs = scatter_integrate(G, mu, nu, conj, f)
        rhs = big @ scatter_integrate(G, mu, nu, conj.base, f) @ np.linalg.inv(big)
        worst = _worst(worst, float(np.abs(lhs - rhs).max()))
    return ok, worst


def looped_field_terms(G, rep) -> np.ndarray:
    """The per-object quantities of ``_conjugation_bounds``, one object at a
    time, as the bounds took them before the objects of one dimension were
    stacked."""
    orbit = G.orbit_index.label
    scale = [math.sqrt(float((w @ np.abs(u) ** 2).sum()) / float(w.sum()))
             for u, w in zip(rep.field, rep.bundle.weights)]
    scale = [scale[m] for m in orbit.tolist()]  # at each orbit's least object

    def norm(m):  # the max row sum
        return np.abs(m).sum(axis=1).max()

    q = np.zeros((9, G.n_objects))
    for x, (u, v, w, c) in enumerate(zip(rep.field, rep.inverses, rep.bundle.weights, scale)):
        with np.errstate(invalid="ignore"):  # a NaN scale makes the orbit's quantities NaN
            u, v = u / c, v * c
        uh, vh, eye, diag = u.conj().T, v.conj().T, np.eye(len(w)), np.diag(w)
        q[:, x] = [*(norm(m) for m in (u, uh, v, vh, v @ u - eye, u @ v - eye,
                                       (uh * w) @ u - diag, (vh * w) @ v - diag)), w.max()]
    return q


def transport_gaps(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                   conj: ConjugatedRep, plain: BlockOperator, fs: np.ndarray) -> np.ndarray:
    """``max |pi(f_i) - U plain[i] U^-1|`` per function f_i of the stack
    ``fs``, pi the integration of ``conj``, U its block-diagonal field and
    U^-1 the computed inverses, one target object x at a time: the rows of
    x in pi(f_i), summed over x's orbit from the ops of the arrows a into x
    (c_i(a) op(a) into the columns of src(a), in arrow order, none where
    f_i(a) is 0), against U_x plain[x, y] U_y^-1 over the objects y of the
    orbit, taken from U_x times the rows of x in plain.
    """
    dims, offsets = conj.bundle.dims, conj.bundle.offsets
    coeff = _coefficients(G, mu, nu, fs)
    src = G.src.tolist()
    out = np.zeros(len(fs))
    for members in G.orbits():
        pos = np.concatenate([np.arange(offsets[y], offsets[y + 1]) for y in members])
        lo = np.cumsum([0] + [dims[y] for y in members]).tolist()
        spans = {y: slice(lo[j], lo[j + 1]) for j, y in enumerate(members)}
        for x in members:
            strip = np.zeros((len(fs), dims[x], len(pos)), dtype=complex)
            for a in G.target_fibers.of(x).tolist():
                used = np.flatnonzero(fs[:, a] != 0).tolist()
                op = conj.ops[a] if used else None
                for i in used:
                    strip[i, :, spans[src[a]]] += coeff[i, a] * op
            want = np.matmul(conj.field[x], plain.dense(pos[spans[x]])[:, :, pos])
            for y in members:
                want[:, :, spans[y]] = np.matmul(want[:, :, spans[y]], conj.inverses[y])
            out = np.maximum(out, np.abs(strip - want).max(axis=(1, 2)))
    return out


def searched_composites(G, a, b):
    """``G.composites(a, b)`` by a binary search over the pair keys
    first * A + second of the stored table, with a sentinel key A^2 past
    the end that every pair outside 0..A-1 asks for."""
    a, b, n = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp), G.n_arrows
    first, second, composite = G.compose_table.T
    keys = np.append(first * n + second, n * n)
    values = np.append(composite, -1)
    inside = (a >= 0) & (a < n) & (b >= 0) & (b < n)
    query = np.where(inside, a * n + b, n * n)
    pos = keys.searchsorted(query)
    return np.where(keys[pos] == query, values[pos], -1)


def backtracking_bisections(G):
    """All full bisections, by recursive backtracking in object/arrow order."""
    n, tgt = G.n_objects, G.tgt.tolist()
    fibers = [G.source_fibers.of(x).tolist() for x in range(n)]
    out = []
    chosen = []
    used = set()

    def extend(x):
        if x == n:
            out.append(Bisection(tuple(range(n)), tuple(chosen)))
            return
        for a in fibers[x]:
            t = tgt[a]
            if t in used:
                continue
            used.add(t)
            chosen.append(a)
            extend(x + 1)
            chosen.pop()
            used.remove(t)

    extend(0)
    return out


def row_by_row_forms_group(G, sigmas):
    """The bisection group laws on the k x k star table: one composite lookup
    for all k^2 products, a dict on row bytes mapping each back to its index,
    and associativity compared one row i at a time over all k^3 triples."""
    k, n = len(sigmas), G.n_objects
    S = arrow_array(G, sigmas)
    index = {row.tobytes(): i for i, row in enumerate(S)}
    T = G.tgt[S]
    products = G.composites(S[:, T], S)  # [i, j, x] = (sigma_i * sigma_j)(x), or -1
    found = [index.get(row.tobytes()) for row in products.reshape(k * k, n)]
    if None in found:
        return False
    table = np.array(found, dtype=np.intp).reshape(k, k)
    e = index.get(arrow_array(G, [unit_bisection(G)]).tobytes())
    if e is None:
        return False
    if not all(np.array_equal(table[table[i]], table[i][table]) for i in range(k)):
        return False
    rows = np.arange(k)
    if not (np.all(table[e, :] == rows) and np.all(table[:, e] == rows)):
        return False
    if not ((table == e) & (table.T == e)).any(axis=1).all():
        return False
    composed = T[rows[:, None, None], T[None, :, :]]  # [i, j, x] = T_i(T_j(x))
    return bool(np.array_equal(T[table], composed))


def brute_force_forms_group(G, sigmas):
    """The group and homomorphism laws pair by pair, with target-map dicts."""
    index = {s: i for i, s in enumerate(sigmas)}
    k = len(sigmas)
    table = [[0] * k for _ in range(k)]
    for i, s in enumerate(sigmas):
        for j, t in enumerate(sigmas):
            st = bisection_compose(G, s, t)
            if st not in index:
                return False
            table[i][j] = index[st]
    e = index[unit_bisection(G)]
    assoc = all(table[table[i][j]][m] == table[i][table[j][m]]
                for i in range(k) for j in range(k) for m in range(k))
    ident = all(table[e][i] == i == table[i][e] for i in range(k))
    invs = all(any(table[i][j] == e and table[j][i] == e for j in range(k))
               for i in range(k))
    hom = all(target_map(G, sigmas[table[i][j]])
              == {x: target_map(G, sigmas[i])[y] for x, y in target_map(G, sigmas[j]).items()}
              for i in range(k) for j in range(k))
    return assoc and ident and invs and hom


def per_trial_algebra(G, mu, rng, trials):
    """The worst residuals of associativity, the antihomomorphism, the unit,
    f^** = f, the I-norm isometry, submultiplicativity, the integral form
    of left invariance and convolve against the table sum, drawing and
    checking one trial at a time."""
    worst_assoc = worst_antihom = worst_unit = worst_inv2 = 0.0
    worst_subm = worst_isom = worst_integral = worst_paths = 0.0
    u = unit_function(G, mu)
    for _ in range(trials):
        f = random_function(G, rng)
        g = random_function(G, rng)
        h = random_function(G, rng)
        lhs = convolve(G, mu, convolve(G, mu, f, g), h)
        rhs = convolve(G, mu, f, convolve(G, mu, g, h))
        worst_assoc = _worst(worst_assoc, float(np.abs(lhs - rhs).max()))
        anti = involute(G, convolve(G, mu, f, g)) - convolve(G, mu, involute(G, g),
                                                             involute(G, f))
        worst_antihom = _worst(worst_antihom, float(np.abs(anti).max()))
        worst_unit = _worst(worst_unit,
                            float(np.abs(convolve(G, mu, u, f) - f).max()),
                            float(np.abs(convolve(G, mu, f, u) - f).max()))
        worst_inv2 = _worst(worst_inv2, float(np.abs(involute(G, involute(G, f)) - f).max()))
        ni = i_norm(G, mu, f)
        worst_isom = _worst(worst_isom, abs(i_norm(G, mu, involute(G, f)) - ni))
        over = i_norm(G, mu, convolve(G, mu, f, g)) - ni * i_norm(G, mu, g)
        worst_subm = _worst(worst_subm, over, 0.0)
        paths = convolve(G, mu, f, g) - table_convolve(G, mu, f, g)
        worst_paths = _worst(worst_paths, float(np.abs(paths).max()))
        for _ in range(3):
            a = rng.randint(G.n_arrows)
            fiber = G.target_fiber(G.src[a])
            translated = sum(f[c] * mu.weights[hh]
                             for c, hh in zip(G.composites(a, fiber).tolist(), fiber))
            direct = sum(f[k] * mu.weights[k] for k in G.target_fiber(G.tgt[a]))
            worst_integral = _worst(worst_integral, abs(translated - direct))
    return (worst_assoc, worst_antihom, worst_unit, worst_inv2, worst_isom, worst_subm,
            worst_integral, worst_paths)


def per_trial_pair_matrix(G, rng, t):
    """The worst gap between convolution, as the table sum and as convolve,
    and the matrix product, and between the half-density and Frobenius
    pairings, one (f, g) pair at a time."""
    counting = counting_haar(G)
    worst = 0.0
    for _ in range(t):
        f = random_function(G, rng)
        g = random_function(G, rng)
        want = function_to_matrix(G, f) @ function_to_matrix(G, g)
        for conv in (table_convolve, convolve):
            got = function_to_matrix(G, conv(G, counting, f, g))
            worst = _worst(worst, float(np.abs(got - want).max()))
        frob = complex(np.sum(function_to_matrix(G, f) * np.conj(function_to_matrix(G, g))))
        # the pairing as the battery forms it, from one complex product per arrow
        worst = _worst(worst, abs(complex(np.sum(f * np.conj(g) * counting.weights)) - frob))
    return worst


def per_trial_convergence(G, mu, rng):
    """The I-norm convergence bound on the net base + bump / k, one draw and
    one k at a time."""
    support = [a for a in range(G.n_arrows) if rng.random() < 0.6] or [0]
    mass = support_fiber_mass(G, mu, support)
    base = random_function(G, rng)
    bump = np.zeros(G.n_arrows, dtype=complex)
    for a in support:
        bump[a] = rng.complex_box()
    worst_net = 0.0
    for kk in range(1, 6):
        fk = base + bump / kk
        diff = fk - base
        gap = i_norm(G, mu, diff) - mass * float(np.abs(diff).max())
        worst_net = _worst(worst_net, gap, 0.0)
    return worst_net


def components_orbits(G) -> list[list[int]]:
    """``G.orbits()`` from a ``components`` labelling of its own."""
    blocks = _fibers(components(G.n_objects, G.tgt, G.src), G.n_objects)
    return [blocks.of(root).tolist() for root in np.flatnonzero(blocks.size).tolist()]


def certificate_out_of_base(G) -> np.ndarray:
    """The first arrow base -> x that is no loop, A where there is none, as
    the generator certificate found it from a ``components`` labelling of
    its own."""
    src, tgt = G.src, G.tgt
    base = components(G.n_objects, tgt, src)
    out_of_base = np.full(G.n_objects, G.n_arrows)
    from_base = (src != tgt) & (src == base[src])
    np.minimum.at(out_of_base, tgt[from_base], np.flatnonzero(from_base))
    return out_of_base


def derived_decomposition(G) -> TransitiveDecomposition:
    """``decompose_transitive`` with its own orbits and tau, and g numbered
    by the base isotropy group's positions of a double composites lookup."""
    if len(components_orbits(G)) > 1 or G.n_objects == 0:
        raise NotTransitive("groupoid is not transitive")
    base = 0
    leaving = np.flatnonzero(G.src == base)
    tau = np.full(G.n_objects, G.n_arrows)
    np.minimum.at(tau, G.tgt[leaving], leaving)
    if (tau == G.n_arrows).any():
        raise NotTransitive(f"no arrow from base into {G.objects[np.argmax(tau == G.n_arrows)]}")
    iso = isotropy(G, base)
    g = G.composites(G.composites(G.inverse[tau[G.tgt]], np.arange(G.n_arrows)), tau[G.src])
    g_index = iso.position[g]
    if (g_index < 0).any():
        a = int(np.argmin(g_index))
        raise ValueError(f"arrow {G.arrow_ids[a]} does not factor through the base isotropy")
    return TransitiveDecomposition(base, tuple(tau.tolist()), iso, g_index)


def looped_orbit_index(G):
    """(label, members, tau, loops, g) of ``G.orbit_index`` as lists, one
    object and one arrow at a time: the orbits of :func:`components_orbits`,
    tau_x the least arrow base -> x in the target fiber of x, and g[a] the
    place of tau_x^-1 o a o tau_y, found by :func:`searched_composites`,
    among the loops at the base that it is a loop at."""
    n, A = G.n_objects, G.n_arrows
    label = [0] * n
    for block in components_orbits(G):
        for x in block:
            label[x] = block[0]
    members = [[y for y in range(n) if label[y] == x] for x in range(n)]
    tau = [min((a for a in G.target_fiber(x) if G.src[a] == label[x]), default=A)
           for x in range(n)]
    at = [[a for a in G.target_fiber(x) if G.src[a] == x] if label[x] == x else []
          for x in range(n)]
    g = []
    for a in range(A):
        x, y = G.tgt[a], G.src[a]
        c = -1
        if tau[x] < A and tau[y] < A:
            c = int(searched_composites(G, searched_composites(G, G.inverse[tau[x]], a), tau[y]))
        g.append(at[G.src[c]].index(c) if c >= 0 and c in at[G.src[c]] else -1)
    return label, members, tau, [len(v) for v in at], g


def closure(support: list[str], pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Reflexive-symmetric-transitive closure on the support: every pair of
    labels in one connected component of the relation's graph."""
    idx = {lab: i for i, lab in enumerate(support)}
    ends = np.array([(idx[x], idx[y]) for x, y in pairs], dtype=np.intp).reshape(-1, 2)
    label = components(len(support), ends[:, 0], ends[:, 1]).tolist()
    return [(x, y) for x, lx in zip(support, label) for y, ly in zip(support, label)
            if lx == ly]


def set_build_from_relation(objects, pairs, closure_policy: str = "strict") -> FiniteGroupoid:
    """``build_from_relation`` from label sets: the strict checks loop over
    pairs and a successor dict, ``complete`` takes :func:`closure`, and an
    n x n matrix over the support indexes the arrows by (tgt, src)."""
    objects = [str(o) for o in objects]
    if len(set(objects)) != len(objects):
        raise ValueError("object labels must be distinct")
    known = set(objects)
    pairs = [(str(x), str(y)) for x, y in pairs]
    for x, y in pairs:
        if x not in known or y not in known:
            bad = x if x not in known else y
            raise UnknownLabel(f"pair ({x}, {y}) references unknown label {bad!r}")
    if closure_policy not in ("strict", "complete"):
        raise ValueError(f"unknown closure_policy {closure_policy!r}")

    touched = {lab for p in pairs for lab in p}
    support = [o for o in objects if o in touched]
    if closure_policy == "strict":
        pair_set = set(pairs)
        successors: dict[str, list[str]] = {}
        for u, z in pairs:
            successors.setdefault(u, []).append(z)
        for x, y in pairs:
            for z in successors.get(y, ()):
                if (x, z) not in pair_set:
                    raise NotClosed(f"missing composite pair ({x}, {z})", (x, z))
        for x, y in pairs:
            if (y, x) not in pair_set:
                raise NotClosed(f"missing inverse pair ({y}, {x})", (y, x))
        closed = list(pair_set)
    else:
        closed = closure(support, pairs)

    idx = {lab: i for i, lab in enumerate(support)}
    closed.sort(key=lambda p: (idx[p[0]], idx[p[1]]))
    n = len(support)
    tgt = np.array([idx[x] for x, _ in closed], dtype=np.intp)
    src = np.array([idx[y] for _, y in closed], dtype=np.intp)
    by_pair = np.full((n, n), -1, dtype=np.intp)
    by_pair[tgt, src] = np.arange(len(closed))
    first, second = _composable(src, tgt, n)
    table = np.stack([first, second, by_pair[tgt[first], src[second]]], axis=1)
    return FiniteGroupoid(support, src, tgt, table, by_pair[src, tgt], by_pair.diagonal())


def searched_build_from_relation(objects, pairs, closure_policy: str = "strict") -> FiniteGroupoid:
    """``build_from_relation`` with each label pair looked up in a list
    comprehension and every composite and inverse found by one binary search
    over the sorted keys, not read at its position in the class's row."""
    objects = [str(o) for o in objects]
    index = {lab: i for i, lab in enumerate(objects)}
    if len(index) != len(objects):
        raise ValueError("object labels must be distinct")
    ends = np.array([(index.get(str(x), -1), index.get(str(y), -1)) for x, y in pairs],
                    dtype=np.intp).reshape(-1, 2)
    if (ends < 0).any():
        row = int(np.argmax((ends < 0).any(axis=1)))
        x, y = (str(p) for p in pairs[row])
        bad = x if ends[row, 0] < 0 else y
        raise UnknownLabel(f"pair ({x}, {y}) references unknown label {bad!r}")
    if closure_policy not in ("strict", "complete"):
        raise ValueError(f"unknown closure_policy {closure_policy!r}")
    touched = np.zeros(len(objects), dtype=bool)
    touched[ends] = True
    support = [objects[i] for i in np.flatnonzero(touched).tolist()]
    n = len(support)
    t, s = (np.cumsum(touched) - 1)[ends].T
    if closure_policy == "strict":
        keys = np.sort(t * n + s)
        keys = keys[np.diff(keys, prepend=-1) != 0]
    else:
        label = components(n, t, s)
        order, start, size = _fibers(label, n)
        width = size[label]
        keys = np.repeat(np.arange(n) * n, width) + order[_ranges(start[label], width)]
    tgt, src = np.divmod(keys, max(n, 1))
    size = np.bincount(tgt, minlength=n)
    width = size[src]
    first = np.repeat(np.arange(len(keys)), width)
    second = _ranges((np.cumsum(size) - size)[src], width)
    probe = np.append(keys, n * n)
    want = np.concatenate([tgt[first] * n + src[second], src * n + tgt])
    found = probe.searchsorted(want)
    if (probe[found] != want).any():
        _name_missing(support, t, s, probe)
    return FiniteGroupoid(support, src, tgt, np.stack([first, second, found[:len(first)]]).T,
                          found[len(first):], keys.searchsorted(np.arange(n) * (n + 1)))


def tuple_fibers(G):
    """The target and the source fiber of every object, as tuples that one
    loop over the arrows appends to."""
    tf: list[list[int]] = [[] for _ in range(G.n_objects)]
    sf: list[list[int]] = [[] for _ in range(G.n_objects)]
    for a, (t, s) in enumerate(zip(G.tgt.tolist(), G.src.tolist())):
        tf[t].append(a)
        sf[s].append(a)
    return [tuple(v) for v in tf], [tuple(v) for v in sf]


def svd_fundamental_family_check(G, mu, family) -> Report:
    """``fundamental_family_check`` as a rank per target fiber: the rows of
    the (k, arrows) function family restricted to the fiber, weighted by
    sqrt(w), spanning it when ``np.linalg.matrix_rank`` is the fiber size."""
    out = Report("fundamental-family")
    F = np.asarray(family, dtype=complex)  # (m, arrows), one row per function
    for x in range(G.n_objects):
        fiber = G.target_fibers.of(x)
        if not len(fiber):
            out.add("fiber", f"object {G.objects[x]} has an empty target fiber")
            continue
        root = np.sqrt(mu.weights[fiber])
        rank = int(np.linalg.matrix_rank(F[:, fiber] * root)) if len(F) else 0
        if rank < len(fiber):
            out.add("spanning",
                    f"object {G.objects[x]}: rank {rank} < fiber size {len(fiber)}")
    return out


def indicators(G, supports) -> np.ndarray:
    """The (k, arrows) family of indicators of the rows of ``supports``."""
    S = np.asarray(supports, dtype=np.intp)
    F = np.zeros((len(S), G.n_arrows), dtype=complex)
    F[np.arange(len(S))[:, None], S] = 1.0
    return F


def looped_multiplier_certificate(G) -> Report:
    """The closure certificate of ``multipliers``, one endpoint-dict lookup
    per pair: each arrow a incident to an ideal object, against each b out
    of tgt(a) and each b into src(a)."""
    n, src, tgt = G.n_objects, G.src.tolist(), G.tgt.tolist()
    declared = set(zip(tgt, src))
    full_t = np.bincount(G.tgt, minlength=n) == n
    full_s = np.bincount(G.src, minlength=n) == n
    cert = Report("multiplier-ideal-closure")
    for x in np.flatnonzero(full_t & full_s).tolist():
        incident = sorted(set(G.target_fiber(x)) | set(G.source_fiber(x)))
        for a in incident:
            for b in G.source_fiber(tgt[a]):
                if (tgt[b], src[a]) not in declared:
                    cert.add("ideal-closure",
                             f"pair ({G.objects[tgt[b]]}, {G.objects[src[a]]}) "
                             f"missing for ideal object {G.objects[x]}")
            for b in G.target_fiber(src[a]):
                if (tgt[a], src[b]) not in declared:
                    cert.add("ideal-closure",
                             f"pair ({G.objects[tgt[a]]}, {G.objects[src[b]]}) "
                             f"missing for ideal object {G.objects[x]}")
    return cert


def looped_groupoid_from_arrows(doc: dict, where: str) -> FiniteGroupoid:
    """The arrows reader with one dict lookup per id of each compose triple
    and inverse pair, and the groupoid built twice: once to find the units
    from its lookup, once with them."""
    objects = [str(o) for o in _require(doc, "objects", list, where)]
    label_index = {lab: i for i, lab in enumerate(objects)}
    arrows = _require(doc, "arrows", list, where)
    ids, src, tgt = [], [], []
    for rec in arrows:
        ids.append(str(_require(rec, "id", None, where)))
        for key, out in (("src", src), ("tgt", tgt)):
            lab = str(_require(rec, key, None, where))
            if lab not in label_index:
                raise FileFormatError(f"{where}: arrow references unknown object {lab!r}")
            out.append(label_index[lab])
    if len(set(ids)) != len(ids):
        raise FileFormatError(f"{where}: duplicate arrow ids")
    arrow_index = {aid: i for i, aid in enumerate(ids)}

    def aidx(aid) -> int:
        aid = str(aid)
        if aid not in arrow_index:
            raise FileFormatError(f"{where}: unknown arrow id {aid!r}")
        return arrow_index[aid]

    rows = []
    for triple in _require(doc, "compose", list, where):
        if not isinstance(triple, list) or len(triple) != 3:
            raise FileFormatError(f"{where}: compose entries must be id triples")
        rows.append([aidx(t) for t in triple])
    inverse: list[int | None] = [None] * len(ids)
    for pair in _require(doc, "inverse", list, where):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"{where}: inverse entries must be id pairs")
        a = aidx(pair[0])
        if inverse[a] is not None:
            raise FileFormatError(f"{where}: inverse of arrow {ids[a]!r} given twice")
        inverse[a] = aidx(pair[1])
    if None in inverse:
        raise FileFormatError(f"{where}: inverse must cover every arrow exactly once")

    # the unit at x is the first loop u with a o u = a for every arrow a out
    # of x and u o a = a for every arrow a into x
    G = FiniteGroupoid(objects, src, tgt, rows, inverse, [None] * len(objects),
                       arrow_ids=ids)
    unit_of: list[int | None] = []
    for x in range(len(objects)):
        outgoing, incoming = G.source_fibers.of(x), G.target_fibers.of(x)
        unit_of.append(next(
            (u for u in incoming.tolist() if src[u] == x
             and np.array_equal(G.composites(outgoing, u), outgoing)
             and np.array_equal(G.composites(u, incoming), incoming)), None))
    return FiniteGroupoid(objects, src, tgt, G.compose_table, inverse, unit_of,
                          arrow_ids=ids)


def looped_haar_weights(table, G, where: str) -> np.ndarray:
    """The haar weights map read weight by weight, as the reader did before
    it converted the values as one array: every id resolved, then each value
    checked in file order, then the coverage of the arrows."""
    out = np.zeros(G.n_arrows)
    weights = _label_map(table, G.arrow_index, "haar weights", where)
    for a, val in weights:
        out[a] = _finite_number(val, f"{where}: haar weight for {G.arrow_ids[a]!r}")
    if len(weights) != G.n_arrows:
        raise FileFormatError(f"{where}: haar weights must cover every arrow")
    return out


def fiber_sum_i_norm(G, mu, f) -> float:
    """The I-norm by its definition, one Python sum per fiber: the largest of
    sum |f(a)| w(a) over the arrows a into an object and sum |f(a)| w(a^-1)
    over the arrows out of one."""
    w, inv = mu.weights.tolist(), G.inverse.tolist()
    into = [sum(abs(f[a]) * w[a] for a in G.target_fiber(x)) for x in range(G.n_objects)]
    out = [sum(abs(f[a]) * w[inv[a]] for a in G.source_fiber(x)) for x in range(G.n_objects)]
    return float(max(into + out, default=0.0))


def arrow_sum_inner(G, mu, f, g) -> complex:
    """The weight pairing by its definition, sum f(a) conj(g(a)) w(a), one
    arrow at a time."""
    w = mu.weights.tolist()
    return complex(sum(complex(f[a]) * complex(g[a]).conjugate() * w[a]
                       for a in range(G.n_arrows)))


class DictStructureTable:
    """A structure table kept as a dict of per-pair coefficient vectors and
    star lists, as :class:`groupalg.partial_algebra.StructureTable` was
    before it kept sorted pair keys and one coefficient array."""

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

    def star_vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        out = np.zeros(self.dim, dtype=complex)
        for i in range(self.dim):
            out[self.star_index[i]] += np.conj(v[i]) * self.star_phase[i]
        return out

    def product(self, u, v) -> np.ndarray:
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


def dict_star_compatibility(T: DictStructureTable) -> Report:
    """Star compatibility pair by pair over the sorted dict keys."""
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


def dict_multiplier_indices(T: DictStructureTable, side: str) -> list[int]:
    """The basis indices whose row (left) or column (right) is total."""
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


def dict_ideal_closure_check(T: DictStructureTable) -> Report:
    """The ideal closure walked as (i, j) then (j, i) for every ideal i and
    every j, each pair judged at its first visit only."""
    atol = tolerances.exact_tol()
    rep = Report("multiplier-ideal")
    ideal = sorted(set(dict_multiplier_indices(T, "left"))
                   & set(dict_multiplier_indices(T, "right")))
    iset = set(ideal)
    seen = set()
    for i in ideal:
        for j in range(T.dim):
            for (a, b) in ((i, j), (j, i)):
                c = T.coeff.get((a, b))
                if c is None or (a, b) in seen:
                    continue
                seen.add((a, b))
                escape = [k for k in range(T.dim)
                          if abs(c[k]) > atol and k not in iset]
                if escape:
                    rep.add("ideal-closure",
                            f"product ({_label(a)}, {_label(b)}) has support on "
                            f"{_label(escape[0])} outside the ideal")
    return rep


def dict_extract_relation(T: DictStructureTable) -> tuple[list[str], list[tuple[str, str]]]:
    """Basis labels and the declared pairs in row-major order."""
    labels = [_label(i) for i in range(T.dim)]
    return labels, [(labels[i], labels[j]) for (i, j) in sorted(T.coeff)]
