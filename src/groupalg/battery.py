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
from .blocks import BlockOperator
from .groupoid import (FiniteGroupoid, isotropy_bundle, multipliers, validate)
from .haar import (HaarSystem, convolve, counting_haar, fiber_integrate,
                   function_to_matrix, half_density_inner, i_norm, involute,
                   support_fiber_mass, unit_function)
from .io import GroupoidDocument, fmt
from .randgen import SplitMix64, random_function, random_unitary_field
from .report import Report, SuiteReport, _worst
from .representations import (HilbertBundle, IndexRep,
                              QuasiInvariantMeasure, check_representation,
                              conjugate_rep_on, fundamental_family_check,
                              integrated_blocks, left_regular_rep,
                              transitive_isomorphism_check, trivial_rep,
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
    "haar-integral-invariance", "pair-matrix-oracle", "left-regular-axioms",
    "trivial-rep-axioms", "integrated-homomorphism", "integrated-star",
    "integrated-norm-bound", "equivalence-transport", "bisection-group",
    "multiplier-ideal", "isotropy-bundle", "transitive-isomorphism",
    "inorm-convergence-bound", "fundamental-family", "half-density-positivity",
    "fiber-integration",
)


def _transport_gaps(conj: BlockOperator, plain: BlockOperator, bundle: HilbertBundle,
                    field: list[np.ndarray], field_inv: list[np.ndarray]) -> np.ndarray:
    """``max |conj[i] - U plain[i] U^-1|`` per operator i, with U the
    block-diagonal field, orbit by orbit and object by object.

    ``conj`` has one block per orbit (a dense rep), in which each object's
    fiber is contiguous; the (x, y) slice of U plain U^-1 is
    U_x plain[x, y] U_y^-1, taken from U_x times the rows of x in plain.
    """
    owner = np.repeat(np.arange(len(bundle.dims)), bundle.dims)
    out = np.zeros(len(conj))
    for positions, data in conj.groups:
        for pos, block in zip(positions, data.swapaxes(0, 1)):
            objects = owner[pos]  # ascending, as pos is
            first = np.flatnonzero(np.diff(objects, prepend=-1))
            spans = [(x, slice(lo, lo + bundle.dims[x]))
                     for x, lo in zip(objects[first].tolist(), first.tolist())]
            for x, rows in spans:
                want = np.matmul(field[x], plain.dense(pos[rows])[:, :, pos])
                for y, cols in spans:
                    want[:, :, cols] = np.matmul(want[:, :, cols], field_inv[y])
                out = np.maximum(out, np.abs(block[:, rows] - want).max(axis=(1, 2)))
    return out


def _integrated_residuals(G: FiniteGroupoid, mu: HaarSystem,
                          nus: list[QuasiInvariantMeasure], reps, rng: SplitMix64,
                          t: int) -> tuple[float, float, float]:
    """The worst residuals of pi(f*g) = pi(f) pi(g), pi(f^*) = pi(f)^* and
    ||pi(f)|| <= ||f||_I over t trials per (nu, rep).

    The trials of one (nu, rep) are stacks: the t (f, g) pairs are drawn as
    2t functions in a row, and f, g, f*g and f^* are integrated together,
    multiplied and adjoined block by block, with one batched SVD per block
    size for the norms.
    """
    worst_mult = worst_star = worst_bound = 0.0
    for nu in nus:
        for rep in reps:
            f, g = rng.complex_boxes(2 * t * G.n_arrows).reshape(t, 2, G.n_arrows).swapaxes(0, 1)
            ops = integrated_blocks(G, mu, nu, rep,
                                    np.concatenate([f, g, convolve(G, mu, f, g), involute(G, f)]))
            pf, pg, pfg, pstar = (ops[i * t:(i + 1) * t] for i in range(4))
            worst_mult = _worst(worst_mult, *pfg.gaps(pf @ pg).tolist())
            worst_star = _worst(worst_star, *pstar.gaps(pf.adjoint()).tolist())
            over = pf.norms() - [i_norm(G, mu, fi) for fi in f]
            worst_bound = _worst(worst_bound, *over.tolist(), 0.0)
    return worst_mult, worst_star, worst_bound


def _transport_residual(G: FiniteGroupoid, mu: HaarSystem, nu: QuasiInvariantMeasure,
                        lrep: IndexRep, rng: SplitMix64, atol: float) -> tuple[bool, float]:
    """Whether lrep conjugated by a random unitary field passes the
    representation axioms at atol, and the worst gap between its integrated
    operators and the conjugated ones of lrep, over two random functions."""
    field = random_unitary_field(lrep.bundle.weights, rng)
    conj = conjugate_rep_on(G, lrep, field)
    field_inv = [np.linalg.inv(u) for u in field]
    ok = check_representation(G, conj, atol=atol).ok
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    gaps = _transport_gaps(integrated_blocks(G, mu, nu, conj, fs),
                           integrated_blocks(G, mu, nu, lrep, fs), lrep.bundle, field, field_inv)
    return ok, _worst(0.0, *gaps.tolist())


def _is_full_pair(G: FiniteGroupoid) -> bool:
    return (G.is_relation_groupoid() and G.is_transitive()
            and G.n_arrows == G.n_objects ** 2)


def run_battery(gdoc: GroupoidDocument, seed: int = 1, trials: int = 20) -> BatteryRun:
    exact = tolerances.exact_tol()
    accum = tolerances.accum_tol()
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
    worst_assoc = worst_antihom = worst_unit = worst_inv2 = 0.0
    worst_subm = worst_isom = worst_integral = 0.0
    u = unit_function(G, mu)
    for _ in range(max(trials, 1)):
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
        # integral form of left invariance, independent of the pointwise check
        for _ in range(3):
            a = rng.randint(G.n_arrows)
            fiber = G.target_fiber(G.src[a])
            translated = sum(f[c] * mu.weights[hh]
                             for c, hh in zip(G.composites(a, fiber).tolist(), fiber))
            direct = sum(f[k] * mu.weights[k] for k in G.target_fiber(G.tgt[a]))
            worst_integral = _worst(worst_integral, abs(translated - direct))
    run.record("convolution-associativity", worst_assoc <= accum,
               f"{max(trials, 1)} random triples", worst_assoc)
    run.record("involution-antihomomorphism", worst_antihom <= exact,
               "(f*g)^* = g^* * f^*", worst_antihom)
    run.record("convolution-unit", worst_unit <= exact,
               "weighted unit indicator is a two-sided unit", worst_unit)
    run.record("involution-involutive", worst_inv2 <= exact, "f^** = f", worst_inv2)
    run.record("inorm-involution-isometry", worst_isom <= exact,
               "||f^*||_I = ||f||_I", worst_isom)
    run.record("inorm-submultiplicative", worst_subm <= accum,
               "||f*g||_I <= ||f||_I ||g||_I", worst_subm)
    run.record("haar-integral-invariance", worst_integral <= accum,
               "fiber integrals agree under translation", worst_integral)

    # matrix picture of a full pair groupoid (counting weights)
    if _is_full_pair(G):
        counting = counting_haar(G)
        worst = 0.0
        for _ in range(max(trials // 2, 1)):
            f = random_function(G, rng)
            g = random_function(G, rng)
            got = function_to_matrix(G, convolve(G, counting, f, g))
            want = function_to_matrix(G, f) @ function_to_matrix(G, g)
            worst = _worst(worst, float(np.abs(got - want).max()))
            frob = complex(np.sum(function_to_matrix(G, f)
                                  * np.conj(function_to_matrix(G, g))))
            worst = _worst(worst, abs(half_density_inner(G, counting, f, g) - frob))
        run.record("pair-matrix-oracle", worst <= exact,
                   "convolution is matrix multiplication", worst)
    else:
        run.skip("pair-matrix-oracle", "not a full pair groupoid")

    # representations
    lrep = left_regular_rep(G, mu)
    run.record_report("left-regular-axioms", check_representation(G, lrep))
    trep = trivial_rep(G)
    run.record_report("trivial-rep-axioms", check_representation(G, trep))

    nus = [uniform_measure(G)] if gdoc.nu_raw is None else [uniform_measure(G), nu]
    worst_mult, worst_star, worst_bound = _integrated_residuals(
        G, mu, nus, (trep, lrep), rng, max(trials // 4, 1))
    run.record("integrated-homomorphism", worst_mult <= accum,
               "pi(f*g) = pi(f) pi(g)", worst_mult)
    run.record("integrated-star", worst_star <= exact,
               "pi(f^*) is the weighted adjoint", worst_star)
    run.record("integrated-norm-bound", worst_bound <= accum,
               "||pi(f)|| <= ||f||_I", worst_bound)

    ok_conj, worst_equiv = _transport_residual(G, mu, nu, lrep, rng, accum)
    run.record("equivalence-transport", ok_conj and worst_equiv <= accum,
               "conjugating the rep conjugates the integrated rep", worst_equiv)

    # bisections, enumerated once for the group laws and the fundamental
    # family; the product of the source-fiber sizes bounds their number
    bound = math.prod(max(len(G.source_fiber(x)), 1) for x in range(G.n_objects))
    sigmas = bisections.enumerate_bisections(G) if bound <= 5000 else []
    if bound > 5000:
        run.skip("bisection-group", "too many bisections to enumerate")
    elif sigmas:
        run.record("bisection-group", bisections.forms_group(G, sigmas),
                   f"{len(sigmas)} full bisections form a group; "
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

    # isotropy bundle and orbit structure
    xi = isotropy_bundle(G)
    xi_rep = validate(xi)
    orbit_ok = all(len(set(len(G.target_fiber(x)) for x in block)) == 1
                   for block in G.orbits())
    run.record("isotropy-bundle", xi_rep.ok and orbit_ok,
               f"bundle with {xi.n_arrows} loops validates; "
               f"fiber sizes constant on orbits")

    # transitive isomorphism
    if G.is_transitive() and G.n_arrows > 0:
        run.record_report("transitive-isomorphism", transitive_isomorphism_check(G, mu))
    else:
        run.skip("transitive-isomorphism", "groupoid is not transitive")

    # I-norm convergence bound on a constructed net
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
    run.record("inorm-convergence-bound", worst_net <= accum,
               "||f_k - f||_I <= (support fiber mass) * sup norm", worst_net)

    # fundamental families
    rep_fam = fundamental_family_check(G, mu, np.eye(G.n_arrows, dtype=complex))
    bis_note = ""
    if bound <= 600 and sigmas:
        images = np.zeros((len(sigmas), G.n_arrows), dtype=complex)
        images[np.arange(len(sigmas))[:, None], bisections.arrow_array(G, sigmas)] = 1.0
        rep_fam.merge(fundamental_family_check(G, mu, images))
        bis_note = " (arrow indicators and bisection images)"
    run.record("fundamental-family", rep_fam.ok,
               f"families span every target fiber{bis_note}")

    # half-density pairing positivity
    f = random_function(G, rng)
    norm2 = half_density_inner(G, mu, f, f)
    pos_ok = abs(norm2.imag) <= exact and norm2.real >= 0
    zero = half_density_inner(G, mu, np.zeros(G.n_arrows), np.zeros(G.n_arrows))
    run.record("half-density-positivity", pos_ok and zero == 0,
               "<f, f> real and nonnegative, zero only at zero",
               abs(norm2.imag))

    # fiber integration against direct sums
    f = random_function(G, rng)
    fo = fiber_integrate(G, mu, f)
    direct = np.array([sum(f[a] * mu.weights[a] for a in G.target_fiber(x))
                       for x in range(G.n_objects)])
    err = float(np.abs(fo - direct).max()) if G.n_objects else 0.0
    run.record("fiber-integration", err <= exact, "vectorized equals direct sum", err)

    return run
