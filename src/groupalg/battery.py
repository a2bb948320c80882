"""The full invariant battery behind ``groupalg check``.

Every suite exercises one family of laws on the loaded groupoid, with
randomized trials drawn from the seeded splitmix stream; identical inputs
and seed reproduce the report byte for byte.  Suites that do not apply to
a groupoid (multipliers on isotropy groupoids, the transitive isomorphism
on multi-orbit ones) are reported as skipped notes, not failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bisections, tolerances
from .groupoid import FiniteGroupoid, IsotropyParts, _ranges, isotropy_parts, multipliers
from .haar import (HaarSystem, convolve, counting_haar, fiber_integrate,
                   function_to_matrix, half_density_inner, i_norm, involute,
                   support_fiber_mass, table_convolve, unit_function)
from .io import GroupoidDocument, fmt
from .randgen import (SplitMix64, below, boxes, random_function, random_unitary_field,
                      units)
from .report import Report, SuiteReport, _worst
from .representations import (ConjugatedRep, IndexRep, QuasiInvariantMeasure, _coefficients,
                              _field_terms, _gamma, _residuals_of, check_representation,
                              conjugate_rep_on, fundamental_family_check, integrated_blocks,
                              left_regular_rep, transitive_isomorphism_check, trivial_rep,
                              uniform_measure)


@dataclass
class SuiteLine:
    name: str
    ok: bool
    detail: str
    residual: float | None = None

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        tail = f"  max residual {fmt(self.residual)}" if self.residual is not None else ""
        return f"{status}  {self.name:<34} {self.detail}{tail}"


class BatteryRun:
    def __init__(self):
        self.lines: list[SuiteLine] = []

    def record(self, name: str, ok: bool, detail: str, residual: float | None = None):
        self.lines.append(SuiteLine(name, ok, detail, residual))

    def record_report(self, name: str, rep: Report):
        self.record_suite(SuiteReport(name, rep))

    def record_suite(self, suite: SuiteReport):
        rep = suite.report
        res = (rep.max_residual() or None) if suite.residual is None else suite.residual
        if rep.ok:
            self.record(suite.name, True, suite.passed, res)
        else:
            first = rep.errors[0]
            self.record(suite.name, False,
                        f"{len(rep.errors)} violation(s); first: {first.check}: {first.witness}",
                        res)

    def skip(self, name: str, reason: str):
        self.lines.append(SuiteLine(name, True, f"skipped: {reason}"))

    @property
    def ok(self) -> bool:
        return all(line.ok for line in self.lines)

    def render(self) -> str:
        return "\n".join(line.render() for line in self.lines)


# every suite after groupoid-axioms, in report order
SUITES = (
    "haar-positivity", "haar-left-invariance", "nu-normalization",
    "convolution-associativity", "involution-antihomomorphism", "convolution-unit",
    "involution-involutive", "inorm-involution-isometry", "inorm-submultiplicative",
    "haar-integral-invariance", "convolution-paths", "pair-matrix-oracle",
    "left-regular-axioms", "trivial-rep-axioms", "integrated-homomorphism", "integrated-star",
    "integrated-norm-bound", "equivalence-transport", "bisection-group",
    "multiplier-ideal", "isotropy-bundle", "transitive-isomorphism",
    "inorm-convergence-bound", "fundamental-family", "half-density-positivity",
    "fiber-integration",
)


def _bisection_images(G: FiniteGroupoid, factors) -> np.ndarray:
    """Full bisections that hold every arrow some full bisection holds:
    the first row of every factor, and each factor's rows completed off
    its objects by that first row."""
    first = np.empty(G.n_objects, dtype=np.intp)
    for objs, rows in factors:
        first[objs] = rows[0]
    images = [first[None]]
    for objs, rows in factors:
        images.append(np.tile(first, (len(rows), 1)))
        images[-1][:, objs] = rows
    return np.concatenate(images)


def _is_loop_restriction(G: FiniteGroupoid, xi: IsotropyParts | FiniteGroupoid) -> bool:
    """Whether xi, the parts of a bundle or one built from them, is G
    restricted to its loops: on G's objects, the loops in arrow order with
    their endpoints, inverses and units, and the rows of G's table on two
    loops, renumbered, in (first, second) order.

    In a groupoid the loops hold every unit and are closed under inversion
    and composition (src(a o b) = src(b) = tgt(b) = src(a) = tgt(a) =
    tgt(a o b)), so the restriction of a G that has passed its axioms
    passes them too, and an xi equal to it is a groupoid.  Parts equal to
    it build one, since :class:`FiniteGroupoid` keeps a sorted, unique
    table and every other part as given."""
    loops = np.flatnonzero(G.tgt == G.src)
    number = np.full(G.n_arrows, -1, dtype=np.intp)
    number[loops] = np.arange(len(loops))
    rows = number[G.compose_table]
    rows = rows[(rows[:, :2] >= 0).all(axis=1)]
    return (xi.objects == G.objects and xi.unit_of == number[G.unit_of].tolist()
            and all(np.array_equal(x, y) for x, y in (
                (xi.src, G.src[loops]), (xi.tgt, G.tgt[loops]),
                (xi.inverse, number[G.inverse[loops]]), (xi.compose_table, rows))))


def _transport_bounds(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                      rep: ConjugatedRep, fs: np.ndarray) -> np.ndarray:
    """Per function f_i of the stack ``fs``, a bound on the largest entry of
    pi(f_i) - U plain_i V as the dense comparison forms it
    (``tests/oracles.transport_gaps``): pi and plain_i the integrations of
    ``rep`` and of its base, U and V its field and computed inverses, block
    diagonal.  inf where the base fails an exact law, NaN where a term is.

    Block (x, y) of pi(f_i) is sum_(a: y -> x) c_i(a) U_x P_a V_y, which is
    U_x plain_i[x, y] V_y in exact arithmetic (c_i the coefficients of
    :func:`integrated_blocks`), so the gap is rounding.  Let gamma =
    ``_gamma(max(d, m) + 4)``, d the largest fiber dimension and m the most
    arrows y -> x.  Each of the six roundings (forming, scaling and summing
    the ops; summing plain, and its two products) is within gamma of
    |U_x| S' |V_y|, S' = sum_a |c_i(a)| P_a, so the gap is within
    6 gamma + 6 gamma^2 + 2 gamma^3 of it (Higham, §3.5-3.6).  When the base
    passes units, multiplicativity and inverses exactly, each P_a is a
    permutation and |U_x| S' |V_y| is at most al_x S be_y, with
    S = sum_(a: y -> x) |c_i(a)| and al, be the max row sums of
    ``_field_terms`` (the orbit's scale cancels).  The bound is
    8 gamma al_x S be_y: for gamma <= 1/16 the rest covers the rounding of
    its own terms and of the comparison's subtraction and modulus.
    """
    units, _, _, mult, inverses, _ = _residuals_of(G, rep.base)
    if not ((units == 0).all() and (mult == 0).all() and (inverses == 0).all()):
        return np.full(len(fs), math.inf)
    n = G.n_objects
    pair, at = np.unique(G.tgt * n + G.src, return_inverse=True)
    sums = np.zeros((len(pair), len(fs)))
    np.add.at(sums, at, np.abs(_coefficients(G, mu, nu, fs)).T)
    m = int(np.bincount(at).max(initial=0))
    gamma = _gamma(max(max(rep.bundle.dims, default=0), m) + 4)
    al, _, be = _field_terms(G, rep)[:3]
    with np.errstate(over="ignore"):  # weights far from 1: an inf bound
        bound = 8 * gamma * al[pair // n, None] * sums * be[pair % n, None]
    return bound.max(axis=0, initial=0.0)


def _integrated_residuals(G: FiniteGroupoid, mu: HaarSystem,
                          nus: list[QuasiInvariantMeasure], reps, rng: SplitMix64,
                          t: int) -> tuple[float, float, float]:
    """The worst residuals of pi(f*g) = pi(f) pi(g), pi(f^*) = pi(f)^* and
    ||pi(f)|| <= ||f||_I over t trials per (nu, rep).

    The trials are stacks: the t (f, g) pairs of every (nu, rep) in turn are
    one draw of 2t functions per (nu, rep), and one :func:`convolve`, one
    :func:`involute` and one :func:`i_norm` call serve them all.  Per rep,
    f, g, f*g and f^* of every nu are integrated together by one
    :func:`integrated_blocks` call, block j against nu j (the blocks are the
    rep's; nu enters only the coefficients and the metric), then multiplied,
    compared and adjoined block by block in one call each, with one batched
    SVD per block size for the norms, over the blocks that differ from the
    block before them (:meth:`~groupalg.blocks.BlockOperator.norms`).
    """
    m, R, A = len(nus), len(reps), G.n_arrows
    f, g = rng.complex_boxes(2 * t * A * m * R).reshape(-1, 2, A).swapaxes(0, 1)
    fg, fstar, norm_f = convolve(G, mu, f, g), involute(G, f), i_norm(G, mu, f)
    # the trials of (nu j, rep r) are the rows (j R + r) t to (j R + r + 1) t
    terms = np.stack([f, g, fg, fstar]).reshape(4, m, R, t, A)
    norm_f = norm_f.reshape(m, R, t)
    rows = np.arange(4 * m * t).reshape(m, 4, t)  # of a rep's operators: nu, term, trial
    worst_mult = worst_star = worst_bound = 0.0
    for r, rep in enumerate(reps):
        ops = integrated_blocks(G, mu, nus, rep, terms[:, :, r].swapaxes(0, 1).reshape(-1, A))
        pf, pg, pfg, pstar = (ops[rows[:, i].ravel()] for i in range(4))
        worst_mult = _worst(worst_mult, *pfg.gaps(pf @ pg).tolist())
        worst_star = _worst(worst_star, *pstar.gaps(pf.adjoint()).tolist())
        worst_bound = _worst(worst_bound, *(pf.norms() - norm_f[:, r].ravel()).tolist(), 0.0)
    return worst_mult, worst_star, worst_bound


def _algebra_residuals(G: FiniteGroupoid, mu: HaarSystem, rng: SplitMix64,
                       t: int) -> tuple[float, ...]:
    """The worst residuals of associativity, the antihomomorphism, the unit,
    f^** = f, the I-norm isometry and submultiplicativity, the integral
    form of left invariance (the fiber sum of f over tgt(a) against the one
    translated by a from src(a), each in fiber order), and of f * g by
    :func:`convolve` against the table sum, over t trials: trial i is f, g,
    h and three arrows a, all t trials one block, run as stacks.

    The stacks are stacked again, one call per level of the terms'
    dependencies: :func:`involute` of f and g; one :func:`convolve` of
    f*g, g*h, u*f, f*u and g^* * f^* (u the unit); one :func:`convolve` of
    (f*g)*h and f*(g*h); :func:`involute` of f*g and f^*; one
    :func:`i_norm` of f, f^*, f*g and g.  Both promise each row bit for bit
    as a single call."""
    A = G.n_arrows
    block = rng.next_u64s(t * (6 * A + 3)).reshape(t, 6 * A + 3)
    f, g, h = boxes(block[:, :6 * A]).reshape(t, 3, A).swapaxes(0, 1)
    u = np.broadcast_to(unit_function(G, mu), f.shape)
    fstar, gstar = involute(G, np.concatenate([f, g])).reshape(2, t, A)
    fg, gh, uf, fu, gsfs = convolve(G, mu, np.concatenate([f, g, u, f, gstar]),
                                    np.concatenate([g, h, f, u, fstar])).reshape(5, t, A)
    fg_h, f_gh = convolve(G, mu, np.concatenate([fg, f]),
                          np.concatenate([h, gh])).reshape(2, t, A)
    fgstar, fstarstar = involute(G, np.concatenate([fg, fstar])).reshape(2, t, A)
    # I-norm residuals in Python floats, where an overflow is inf or nan without a warning
    ni, nstar, nfg, ng = i_norm(G, mu, np.concatenate([f, fstar, fg, g])).reshape(4, t).tolist()
    gaps = [fg_h - f_gh, fgstar - gsfs, np.hstack([uf - f, fu - f]), fstarstar - f]
    paths = np.abs(fg - table_convolve(G, mu, f, g)).max(axis=1)
    a = below(block[:, 6 * A:], A).ravel()  # three arrows per trial
    into, start, size = G.target_fibers
    sums = np.zeros((2, len(a)), dtype=complex)
    for side, x in enumerate((G.src[a], G.tgt[a])):
        owner = np.repeat(np.arange(len(a)), size[x])
        fiber = into[_ranges(start[x], size[x])]
        at = fiber if side else G.composites(a[owner], fiber)
        np.add.at(sums[side], owner, f[owner // 3, at] * mu.weights[fiber])
    return (*(_worst(0.0, *np.abs(d).max(axis=1).tolist()) for d in gaps),
            _worst(0.0, *(abs(x - y) for x, y in zip(nstar, ni))),
            _worst(0.0, *(x - y * z for x, y, z in zip(nfg, ni, ng)), 0.0),
            # Python's abs on each numpy complex: np.abs may differ in the last bit
            _worst(0.0, *(abs(d) for d in sums[0] - sums[1])),
            _worst(0.0, *paths.tolist()))


def _pair_matrix_residual(G: FiniteGroupoid, rng: SplitMix64, t: int) -> float:
    """The worst gap between convolution under counting weights and the
    matrix product, and between the half-density pairing and the Frobenius
    pairing, over t (f, g) pairs drawn as one block.  The convolution is
    taken both as the table sum, which owes nothing to the orbit matrices,
    and as :func:`convolve`."""
    counting = counting_haar(G)
    f, g = rng.complex_boxes(2 * t * G.n_arrows).reshape(t, 2, G.n_arrows).swapaxes(0, 1)
    F, Gm = function_to_matrix(G, f), function_to_matrix(G, g)
    got = function_to_matrix(G, np.concatenate([table_convolve(G, counting, f, g),
                                                convolve(G, counting, f, g)]))
    frob = (F * np.conj(Gm)).reshape(t, -1).sum(axis=1).tolist()
    inner = (f * np.conj(g) * counting.weights).sum(axis=1).tolist()
    gaps = np.abs(got.reshape(2, *F.shape) - F @ Gm).max(axis=(2, 3))
    return _worst(0.0, *gaps.ravel().tolist(), *(abs(x - y) for x, y in zip(inner, frob)))


def _convergence_residual(G: FiniteGroupoid, mu: HaarSystem, rng: SplitMix64) -> float:
    """The worst excess of ||f_k - f||_I over (support fiber mass) * sup
    |f_k - f| on the net f_k = f + bump / k, k = 1..5, the bump on each
    arrow with probability 0.6 (or on arrow 0 alone)."""
    support = np.flatnonzero(units(rng.next_u64s(G.n_arrows)) < 0.6)
    support = support if len(support) else np.zeros(1, dtype=np.intp)
    mass = support_fiber_mass(G, mu, support)
    base = random_function(G, rng)
    bump = np.zeros(G.n_arrows, dtype=complex)
    bump[support] = rng.complex_boxes(len(support))
    diff = np.stack([base + bump / kk - base for kk in range(1, 6)])
    return _worst(0.0, *(i_norm(G, mu, diff) - mass * np.abs(diff).max(axis=1)).tolist(), 0.0)


def _transport_residual(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                        lrep: IndexRep, rng: SplitMix64, atol: float) -> tuple[bool, float]:
    """Whether lrep conjugated by a random unitary field passes the
    representation axioms at atol, and the worst bound on the gap between
    its integrated operators and the conjugated ones of lrep, over two
    random functions (:func:`_transport_bounds`)."""
    conj = conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))
    ok = check_representation(G, conj, atol=atol).ok
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    return ok, _worst(0.0, *_transport_bounds(G, mu, nu, conj, fs).tolist())


def run_battery(gdoc: GroupoidDocument, seed: int = 1, trials: int = 20) -> BatteryRun:
    exact, accum = tolerances.exact_tol(), tolerances.accum_tol()
    run = BatteryRun()
    G = gdoc.groupoid
    rng = SplitMix64(seed)

    axioms, *measures = gdoc.check()
    run.record_suite(axioms)
    if not axioms.report.ok:
        return run  # everything downstream assumes a groupoid
    if G.n_objects == 0:  # no measure on no objects; every law holds vacuously
        for name in SUITES:
            run.skip(name, "empty groupoid")
        return run
    for suite in measures:
        run.record_suite(suite)
    if not run.ok:
        return run  # no Haar system or nu to integrate against
    mu, nu = gdoc.measures()

    # convolution algebra laws on random functions
    for (name, tol, detail), worst in zip((
            ("convolution-associativity", accum, f"{max(trials, 1)} random triples"),
            ("involution-antihomomorphism", exact, "(f*g)^* = g^* * f^*"),
            ("convolution-unit", exact, "weighted unit indicator is a two-sided unit"),
            ("involution-involutive", exact, "f^** = f"),
            ("inorm-involution-isometry", exact, "||f^*||_I = ||f||_I"),
            ("inorm-submultiplicative", accum, "||f*g||_I <= ||f||_I ||g||_I"),
            ("haar-integral-invariance", accum, "fiber integrals agree under translation"),
            ("convolution-paths", accum, "orbit matrix products equal the table sum")),
            _algebra_residuals(G, mu, rng, max(trials, 1)), strict=True):
        run.record(name, worst <= tol, detail, worst)

    # matrix picture of a full pair groupoid (counting weights)
    if G.is_relation_groupoid() and G.is_transitive() and G.n_arrows == G.n_objects ** 2:
        worst = _pair_matrix_residual(G, rng, max(trials // 2, 1))
        run.record("pair-matrix-oracle", worst <= exact,
                   "convolution is matrix multiplication", worst)
    else:
        run.skip("pair-matrix-oracle", "not a full pair groupoid")

    # representations; a rep whose index data are not ops of its bundle (a
    # shape entry) is neither integrated nor conjugated
    reps = []
    for name, rep in (("left-regular-axioms", left_regular_rep(G, mu)),
                      ("trivial-rep-axioms", trivial_rep(G))):
        report = check_representation(G, rep)
        run.record_report(name, report)
        reps.append(None if any(e.check == "shape" for e in report.errors) else rep)
    lrep, trep = reps

    nus = [uniform_measure(G)] if gdoc.nu_raw is None else [uniform_measure(G), nu]
    for (name, tol, detail), worst in zip((
            ("integrated-homomorphism", accum, "pi(f*g) = pi(f) pi(g)"),
            ("integrated-star", exact, "pi(f^*) is the weighted adjoint"),
            ("integrated-norm-bound", accum, "||pi(f)|| <= ||f||_I")),
            _integrated_residuals(G, mu, nus, [r for r in (trep, lrep) if r is not None],
                                  rng, max(trials // 4, 1)),
            strict=True):
        run.record(name, worst <= tol, detail, worst)

    if lrep is None:
        run.record("equivalence-transport", False, "the left regular rep has no ops to conjugate")
    else:
        ok_conj, worst_equiv = _transport_residual(G, mu, nu, lrep, rng, accum)
        run.record("equivalence-transport", ok_conj and worst_equiv <= accum,
                   "conjugating the rep conjugates the integrated rep", worst_equiv)

    # full bisections, orbit by orbit, for the group laws and the fundamental
    # family; the product of the source-fiber sizes bounds their number
    bound = math.prod(max(k, 1) for k in G.source_fibers.size.tolist())
    factors = bisections.orbit_bisections(G) if bound <= 5000 else None
    count = 0 if factors is None else math.prod(len(rows) for _, rows in factors)
    if factors is None:
        run.skip("bisection-group", "too many bisections to enumerate")
    elif count:
        run.record("bisection-group", bisections.factors_form_group(G, factors),
                   f"{count} full bisections form a group; "
                   "targets are a homomorphism")
    else:
        run.record("bisection-group", False, "no full bisection exists")

    # multipliers and ideal closure
    if G.is_relation_groupoid():
        ms = multipliers(G)
        run.record("multiplier-ideal", ms.certificate.ok,
                   f"left {len(ms.left)}, right {len(ms.right)}, ideal {len(ms.ideal)}")
    else:
        run.skip("multiplier-ideal", "groupoid has isotropy beyond units")

    # isotropy bundle, judged as its constructor's arrays, and orbit structure
    xi = isotropy_parts(G)
    sizes = G.target_fibers.size
    orbit_ok = bool((sizes == sizes[G.orbit_index.label]).all())
    run.record("isotropy-bundle", _is_loop_restriction(G, xi) and orbit_ok,
               f"bundle with {len(xi.src)} loops validates; "
               f"fiber sizes constant on orbits")

    # transitive isomorphism
    if G.is_transitive() and G.n_arrows > 0:
        run.record_report("transitive-isomorphism", transitive_isomorphism_check(G, mu))
    else:
        run.skip("transitive-isomorphism", "groupoid is not transitive")

    # I-norm convergence bound on a constructed net
    worst_net = _convergence_residual(G, mu, rng)
    run.record("inorm-convergence-bound", worst_net <= accum,
               "||f_k - f||_I <= (support fiber mass) * sup norm", worst_net)

    # fundamental families: the arrow indicators and any enumerated bisections
    rep_fam = fundamental_family_check(G, mu, np.arange(G.n_arrows)[:, None])
    bis_note = ""
    if count:
        rep_fam.merge(fundamental_family_check(G, mu, _bisection_images(G, factors)))
        bis_note = " (arrow indicators and bisection images)"
    run.record("fundamental-family", rep_fam.ok,
               f"families span every target fiber{bis_note}")

    # half-density pairing positivity: <f, f> against the sum of the fiber
    # integrals of |f|^2, its gap taken relative to that sum, so that the
    # verdict does not depend on the weights' scale
    f = random_function(G, rng)
    norm2 = half_density_inner(G, mu, f, f)
    mass = complex(fiber_integrate(G, mu, np.abs(f) ** 2).sum())
    gap = abs(norm2 - mass) / abs(mass) if mass else abs(norm2)
    zero = half_density_inner(G, mu, np.zeros(G.n_arrows), np.zeros(G.n_arrows))
    run.record("half-density-positivity", norm2.real >= 0 and gap <= exact and zero == 0,
               "<f, f> real and nonnegative, zero only at zero", gap)

    # fiber integration against direct sums
    f = random_function(G, rng)
    fo = fiber_integrate(G, mu, f)
    direct = np.array([sum(f[a] * mu.weights[a] for a in G.target_fiber(x))
                       for x in range(G.n_objects)])
    err = float(np.abs(fo - direct).max()) if G.n_objects else 0.0
    run.record("fiber-integration", err <= exact, "vectorized equals direct sum", err)

    return run
