"""The battery end to end: committed golden reports and non-finite residuals."""

import copy
import dataclasses
import difflib
import functools
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types
import unittest.mock
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import battery, groupoid, tolerances
from groupalg.battery import SUITES, BatteryRun, _worst, run_battery
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid, pair_groupoid,
                               product, symmetric_table)
from groupalg.cli import main
from groupalg.groupoid import FiniteGroupoid, _ranges
from groupalg.haar import HaarSystem
from groupalg.io import GroupoidDocument, load_groupoid, parse_groupoid_document
from groupalg.orbits import orbit_matrices, regular_blocks
from groupalg.randgen import (SplitMix64, random_function, random_groupoid,
                              random_invariant_weights, random_probability,
                              random_unitary_field)
from groupalg.report import Report
from groupalg.representations import (HilbertBundle, IndexRep, QuasiInvariantMeasure,
                                      check_representation, conjugate_rep_on,
                                      integrated_blocks, left_regular_rep, operator_norm,
                                      trivial_rep, uniform_measure)

from oracles import (benchmark_documents, big_matrix_transport, per_trial_algebra,
                     per_trial_convergence, per_trial_integrated, per_trial_pair_matrix,
                     scatter_integrate, transport_gaps)

DATA = os.path.join(os.path.dirname(__file__), "data")


RESIDUAL = re.compile(r"(?<=  max residual )\S+$", re.M)


@pytest.mark.parametrize("seed", [1, 7])
def test_check_all_matches_the_committed_report(seed, capsys):
    code = main(["check", "all", "--seed", str(seed)])
    # the fixture paths on the "== path" lines depend on where the package lives
    got = re.sub(r"^== .*[\\/]", "== ", capsys.readouterr().out, flags=re.M)
    with open(os.path.join(DATA, f"check_all_seed{seed}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert code == 0
    # names, verdicts and witnesses byte for byte; the residuals' last digits
    # follow the BLAS build, so those compare to a tolerance below every check's
    assert RESIDUAL.sub("*", got) == RESIDUAL.sub("*", want)
    for g, w in zip(RESIDUAL.findall(got), RESIDUAL.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-6, abs_tol=1e-13), (g, w)


@functools.cache
def _pinned_renders():
    with open(os.path.join(DATA, "battery_renders_seed1.txt"), encoding="utf-8") as fh:
        parts = re.split(r"^== (\S+)\n", fh.read(), flags=re.M)
    return {label: text.removesuffix("\n") for label, text in zip(parts[1::2], parts[2::2])}


@pytest.mark.parametrize("label", sorted(benchmark_documents()))
def test_battery_renders_match_the_pinned_ones(label):
    # each benchmark document at seed 1, rendered byte for byte as the file
    # pins it: every residual digit, which any change to the battery's
    # arithmetic moves; the file holds run_battery(doc, seed=1,
    # trials=20).render() of each under a "== label" line
    assert sorted(_pinned_renders()) == sorted(benchmark_documents())
    [doc] = [doc for seed, doc in benchmark_documents()[label] if seed == 1]
    got = run_battery(parse_groupoid_document(doc, where=label), seed=1, trials=20).render()
    want = _pinned_renders()[label]
    assert got == want, "\n" + "\n".join(difflib.unified_diff(
        want.splitlines(), got.splitlines(), "pinned", "rendered", lineterm=""))


def test_the_verdicts_are_the_benchmark_reference():
    # every benchmark document at seeds 1-3, as the benchmark runs it, against
    # perfbench/reference.json, which this test reads and never writes, by the
    # benchmark's own rule: each reference suite has its reference status
    # (PASS, FAIL or skipped), a suite the reference does not know does not
    # fail, and no residual is non-finite; so a regenerated golden cannot hide
    # a verdict that the benchmark would reject
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        from workloads import compare_suites, load_reference
    finally:
        sys.path.pop(0)
    reference = load_reference()
    for label, docs in sorted(benchmark_documents().items()):
        want = reference["mixed-small" if label.startswith("union") else "transitive-ladder"]
        for seed, doc in docs:
            run = run_battery(parse_groupoid_document(doc, where=label), seed=seed, trials=20)
            assert compare_suites(run, want[label]) is None, (label, seed)


FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "src", "groupalg", "fixtures")
GROUPOIDS = ["iso-z2.json", "pair2.json", "pair3-weighted.json", "pair3.json", "pair4.json",
             "two-orbit.json"]
INTEGRATED = ["integrated-homomorphism", "integrated-star", "integrated-norm-bound",
              "equivalence-transport"]


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("name", GROUPOIDS)
def test_integrated_suites_match_the_per_trial_dense_loop(name, seed, monkeypatch):
    # the battery's stream at the integrated suites, replayed through the
    # per-trial loop on dense (sum of dims)^2 matrices
    calls, states = [], []
    real_integrated, real_transport = battery._integrated_residuals, battery._transport_residual

    def integrated(G, mu, nus, reps, rng, t):
        calls.append((G, mu, nus, reps, SplitMix64(0), t))
        calls[-1][4].state = rng.state
        out = real_integrated(G, mu, nus, reps, rng, t)
        states.append(rng.state)
        return out

    def transport(*args):
        out = real_transport(*args)
        states.append(args[4].state)
        return out

    monkeypatch.setattr(battery, "_integrated_residuals", integrated)
    monkeypatch.setattr(battery, "_transport_residual", transport)
    gdoc = load_groupoid(os.path.join(FIXTURES, name))
    run = run_battery(gdoc, seed=seed, trials=20)
    [(G, mu, nus, (trep, lrep), rng, t)] = calls
    want = per_trial_integrated(G, mu, nus, (trep, lrep), rng, t)
    assert rng.state == states[0]  # the stacked draws are the per-trial draws
    nu, accum = gdoc.measures()[1], tolerances.accum_tol()
    conj = conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))
    fs = np.stack([random_function(G, rng) for _ in range(2)])
    assert rng.state == states[1]
    ok, equiv = big_matrix_transport(G, mu, nu, conj, fs, accum)
    gaps = transport_gaps(G, mu, nu, conj, integrated_blocks(G, mu, nu, lrep, fs), fs)
    lines = {line.name: line for line in run.lines}
    for suite, w in zip(INTEGRATED[:3], want, strict=True):
        got = lines[suite].residual
        assert math.isclose(got, w, rel_tol=1e-6, abs_tol=1e-13), (suite, got, w)
        assert lines[suite].ok
    # the transport line reports a bound on the dense comparison's gap
    transport = lines["equivalence-transport"]
    assert gaps.max() <= transport.residual <= accum, (gaps, transport.residual)
    assert ok and equiv <= accum and transport.ok and t == 5


# each stacked suite helper, its per-trial oracle (same arguments) and the
# battery lines that report its residuals
STACKED = {
    "_algebra_residuals": (per_trial_algebra, [
        "convolution-associativity", "involution-antihomomorphism", "convolution-unit",
        "involution-involutive", "inorm-involution-isometry", "inorm-submultiplicative",
        "haar-integral-invariance", "convolution-paths"]),
    "_pair_matrix_residual": (per_trial_pair_matrix, ["pair-matrix-oracle"]),
    "_convergence_residual": (per_trial_convergence, ["inorm-convergence-bound"]),
}


def _random_document(G, rng):
    return GroupoidDocument(G, random_invariant_weights(G, rng),
                            random_probability(G.n_objects, rng), "strict")


def _stacked_documents():
    """(label, document, battery seed): a pair groupoid, a pair x group, a
    one-object Z_n and a random union at seeds 1-10, and unions 0, 4 and 6
    of the benchmark's mixed-small workload at its seed 3, where np.abs and
    Python's abs on a complex differ in the last bit of an integral residual."""
    for seed in range(1, 11):
        rng = SplitMix64(seed)
        for label, G in (("pair4", pair_groupoid("abcd")),
                         ("pair3xz2", product(pair_groupoid("abc"),
                                              group_groupoid(*cyclic_table(2)))),
                         ("z6", group_groupoid(*cyclic_table(6))),
                         ("union", random_groupoid(SplitMix64(100 + seed), max_arrows=32))):
            yield f"{label}-seed{seed}", _random_document(G, rng), seed
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        import inputs
        from workloads import MIXED_UNIONS, UNIONS
    finally:
        sys.path.pop(0)
    rng = random.Random(3)  # the workload draws every union's weights in turn
    for i in MIXED_UNIONS:
        doc = inputs.union_arrows_doc(UNIONS[i], rng)
        if i in (0, 4, 6):
            yield f"mixed-small-union{i}", parse_groupoid_document(doc, where=str(i)), 3


def test_stacked_suites_equal_the_per_trial_oracles_bit_for_bit(monkeypatch):
    calls = []
    for name in STACKED:
        def wrapped(*args, real=getattr(battery, name), name=name):
            [rng] = [a for a in args if isinstance(a, SplitMix64)]
            calls.append([name, args, rng.state])
            out = real(*args)
            calls[-1].extend([rng.state, out])
            return out
        monkeypatch.setattr(battery, name, wrapped)
    checked = []
    for label, gdoc, seed in _stacked_documents():
        calls.clear()
        lines = {line.name: line.residual for line in run_battery(gdoc, seed=seed).lines}
        assert [c[0] for c in calls] == [n for n in STACKED if n != "_pair_matrix_residual"
                                         or lines["pair-matrix-oracle"] is not None], label
        for name, args, before, after, got in calls:
            oracle, suites = STACKED[name]
            replay = SplitMix64(0)
            replay.state = before
            want = oracle(*(replay if isinstance(a, SplitMix64) else a for a in args))
            want = want if isinstance(want, tuple) else (want,)
            assert replay.state == after, (label, name)
            assert (got if isinstance(got, tuple) else (got,)) == want, (label, name)
            assert [lines[s] for s in suites] == list(want), (label, name)
            checked.append(name)
    counts = {name: checked.count(name) for name in STACKED}
    assert counts["_algebra_residuals"] == counts["_convergence_residual"] == 43
    assert counts["_pair_matrix_residual"] >= 10  # pair(4) and random single pair(k)


def test_the_law_trials_are_stacked_calls(monkeypatch):
    # every law term of the algebra suites is a row of one call per level of
    # its dependencies, and every (nu, rep) of the integrated suites shares
    # one draw and one call of each law, and every nu of a rep one
    # integrated_blocks call
    calls = []
    for name in ("convolve", "table_convolve", "involute", "i_norm", "integrated_blocks"):
        def counted(*args, real=getattr(battery, name), name=name):
            calls.append(name)
            return real(*args)
        monkeypatch.setattr(battery, name, counted)

    class Stream(SplitMix64):
        def next_u64s(self, k):
            calls.append("draw")
            return super().next_u64s(k)
    G = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                       pair_groupoid("cde"))
    gdoc = _random_document(G, SplitMix64(3))
    mu, nu = gdoc.measures()
    battery._algebra_residuals(G, mu, Stream(1), 4)
    assert Counter(calls) == {"draw": 1, "involute": 2, "convolve": 2, "table_convolve": 1,
                              "i_norm": 1}
    calls.clear()
    reps = [trivial_rep(G), left_regular_rep(G, mu)]
    battery._integrated_residuals(G, mu, [uniform_measure(G), nu], reps, Stream(1), 2)
    assert Counter(calls) == {"draw": 1, "convolve": 1, "involute": 1, "i_norm": 1,
                              "integrated_blocks": 2}  # one per rep, over both nus


def test_the_left_regular_blocks_of_an_orbit_share_one_svd(monkeypatch):
    # pair(5) with Haar weights constant on source fibres: the five
    # left-regular blocks of each of the t = 2 operators per nu whose norm is
    # taken are equal entry for entry, so each operator is one 5x5 SVD, not
    # five, and the operators of both nus are one batch
    shapes = []
    real = np.linalg.svd

    def recorded(a, *args, **kwargs):
        shapes.append(a.shape)
        return real(a, *args, **kwargs)
    G = pair_groupoid("abcde")
    rng = SplitMix64(5)
    mu = HaarSystem(random_invariant_weights(G, rng))
    nus = [uniform_measure(G), QuasiInvariantMeasure(random_probability(G.n_objects, rng))]
    monkeypatch.setattr(np.linalg, "svd", recorded)
    battery._integrated_residuals(G, mu, nus, [left_regular_rep(G, mu)], rng, 2)
    assert shapes == [(4, 5, 5)]  # one call for both nus, one matrix per operator


def test_stacked_trials_equal_the_per_trial_loop_on_a_broken_rep():
    # two columns of one op swapped, and the weights of its target fiber
    # times 400, break every integrated law by an amount that depends on the
    # drawn functions, so the residuals pin which draws make up each trial
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
    rng = SplitMix64(11)
    mu = HaarSystem(random_invariant_weights(G, rng))
    nus = [uniform_measure(G), QuasiInvariantMeasure(random_probability(G.n_objects, rng))]
    lrep = left_regular_rep(G, mu)
    rows = lrep.rows.copy()
    rows[lrep.starts[5]:lrep.starts[5] + 2] = rows[lrep.starts[5]:lrep.starts[5] + 2][::-1]
    weights = [w * 400.0 if x == G.tgt[5] else w for x, w in enumerate(lrep.bundle.weights)]
    bundle = HilbertBundle(lrep.bundle.dims, weights)
    reps = (trivial_rep(G), lrep, IndexRep(bundle, lrep.src, lrep.tgt, rows, lrep.starts))
    stacked, looped = SplitMix64(3), SplitMix64(3)
    got = battery._integrated_residuals(G, mu, nus, reps, stacked, 5)
    want = per_trial_integrated(G, mu, nus, reps, looped, 5)
    assert stacked.state == looped.state
    assert min(got) > 1e-3
    for g, w in zip(got, want, strict=True):
        assert math.isclose(g, w, rel_tol=1e-9), (got, want)


def _left_regular_changed(G, weights, change, rng):
    """The Haar system and left regular rep of G, unchanged, with one Haar
    weight moved within its source fiber (``weights`` edited in place), or
    with one op's 1 moved in a column of a non-base block."""
    if change == "weight":
        weights[rng.randint(G.n_arrows)] *= 1.25
    mu = HaarSystem(weights)
    rep = left_regular_rep(G, mu)
    if change == "op":  # a column whose arrow leaves a non-base object, of an op of 2+ rows
        into, first, _ = G.target_fibers
        width, dims = np.diff(rep.starts), np.array(rep.bundle.dims)
        arrow = np.repeat(np.arange(G.n_arrows), width)
        column = into[first[G.src[arrow]] + _ranges(np.zeros_like(width), width)]
        movable = np.flatnonzero((G.src[column] != G.orbit_index.label[G.src[column]])
                                 & (dims[G.tgt[arrow]] > 1))
        if len(movable):
            k = movable[rng.randint(len(movable))]
            rows = rep.rows.copy()
            rows[k] = (rows[k] + 1) % dims[G.tgt[arrow[k]]]
            rep = IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
    return mu, rep


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), change=st.sampled_from(["none", "op", "weight"]))
def test_one_slot_per_orbit_exactly_when_the_rep_is_equivariant(seed, change):
    # a random union with random nu, unchanged, with one op's 1 moved in a
    # column of a non-base block, or with one Haar weight moved within its
    # source fiber: the orbit slots are proved exactly when the ops are the
    # left regular ones and the weights constant on source fibers, and
    # either way the dense operators are the scatter's to the bit and the
    # integrated residuals those of the per-trial loop
    rng = SplitMix64(seed)
    G = random_groupoid(rng, max_arrows=40)
    weights = random_invariant_weights(G, rng)
    nus = [QuasiInvariantMeasure(random_probability(G.n_objects, rng))]
    mu, rep = _left_regular_changed(G, weights, change, rng)
    by_source = np.zeros(G.n_objects)
    by_source[G.src] = weights
    equivariant = (np.array_equal(rep.rows, left_regular_rep(G, mu).rows)
                   and (weights == by_source[G.src]).all())
    assert (regular_blocks(G, rep) is not None) == equivariant
    fs = rng.complex_boxes(3 * G.n_arrows).reshape(3, G.n_arrows)
    fs[1, ::2] = 0.0
    fs[2].real[::3] = -0.0  # a signed zero part in a nonzero term
    ops = integrated_blocks(G, mu, nus[0], rep, fs)
    slots, blocks = (sum(len(p) for p in ps) for ps in (ops.partition.leads,
                                                        ops.partition.groups))
    assert slots == (len(G.orbits()) if equivariant else blocks)
    for d, f in zip(ops.dense(), fs, strict=True):
        assert d.tobytes() == scatter_integrate(G, mu, nus[0], rep, f).tobytes()
    stacked, looped = SplitMix64(seed), SplitMix64(seed)
    got = battery._integrated_residuals(G, mu, nus, [rep], stacked, 2)
    want = per_trial_integrated(G, mu, nus, [rep], looped, 2)
    assert stacked.state == looped.state
    for g, w in zip(got, want, strict=True):
        assert math.isclose(g, w, rel_tol=1e-9, abs_tol=1e-13), (got, want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), change=st.sampled_from(["none", "op", "weight"]),
       m=st.integers(1, 3))
def test_a_measure_stack_is_one_call_per_measure_to_the_bit(seed, change, m):
    # m random measures on a random union, with the left regular rep (its ops
    # or weights changed as above) and the trivial rep: one call on m blocks
    # of four functions, block j against measure j, is the m single calls,
    # bit for bit in the dense operators, their adjoints, the products and
    # gaps of the first two operators of each block with the last two, and
    # the norms; each operator keeps its measure's nu row
    rng = SplitMix64(seed)
    G = random_groupoid(rng, max_arrows=40)
    weights = random_invariant_weights(G, rng)
    nus = [QuasiInvariantMeasure(random_probability(G.n_objects, rng)) for _ in range(m)]
    mu, lrep = _left_regular_changed(G, weights, change, rng)
    fs = rng.complex_boxes(4 * m * G.n_arrows).reshape(m, 4, G.n_arrows)
    fs[:, 1, ::2] = 0.0
    halves = np.arange(4 * m).reshape(m, 2, 2)
    for rep in (lrep, trivial_rep(G)):
        ops = integrated_blocks(G, mu, nus, rep, fs.reshape(-1, G.n_arrows))
        alone = [integrated_blocks(G, mu, nu, rep, f) for nu, f in zip(nus, fs, strict=True)]
        assert ops.nu.shape == ((4 * m, rep.bundle.total_dim) if m > 1 else alone[0].nu.shape)
        first, last = ops[halves[:, 0].ravel()], ops[halves[:, 1].ravel()]
        for got, want in (
                (ops.dense(), [op.dense() for op in alone]),
                (ops.adjoint().dense(), [op.adjoint().dense() for op in alone]),
                ((first @ last).dense(), [(op[:2] @ op[2:]).dense() for op in alone]),
                (first.gaps(last), [op[:2].gaps(op[2:]) for op in alone]),
                (ops.norms(), [op.norms() for op in alone])):
            assert np.concatenate(want).tobytes() == got.tobytes(), rep
        # a hand-made nu row with a zero: that operator's norm alone is NaN
        rows = np.array(np.broadcast_to(ops.nu, (len(ops), ops.nu.shape[-1])))
        broken = rng.randint(len(ops))
        rows[broken, rng.randint(rows.shape[1])] = 0.0
        norms = dataclasses.replace(ops, nu=rows).norms()
        assert np.isnan(norms[broken])
        keep = np.arange(len(ops)) != broken
        assert norms[keep].tobytes() == ops.norms()[keep].tobytes()


def test_weights_far_from_one_leave_no_warning_in_the_integrated_layer():
    # pair(4) with Haar weights x 1e160, where m_o overflows: the integrated
    # operators and every block-operator method carry the inf and NaN on to
    # the residuals, and no RuntimeWarning leaves them; a term where f is 0
    # is skipped, not inf times 0, as the scatter skips it
    G = pair_groupoid("abcd")
    rng = SplitMix64(5)
    mu = HaarSystem(random_invariant_weights(G, rng) * 1e160)
    nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    fs[0, ::3] = 0.0
    for rep in (trivial_rep(G), left_regular_rep(G, mu)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ops = integrated_blocks(G, mu, nu, rep, fs)
            pf, pg = ops[:1], ops[1:]
            dense = ops.dense()
            assert not np.isfinite(dense).all()
            assert np.isnan(pf.gaps(pf.adjoint())).all()
            assert np.isnan(pf.gaps(pf @ pg)).all()
            assert np.isnan(ops.norms()).all()
            assert math.isnan(operator_norm(dense[0], rep.bundle, nu))
        with np.errstate(all="ignore"):
            for d, f in zip(dense, fs, strict=True):
                assert d.tobytes() == scatter_integrate(G, mu, nu, rep, f).tobytes()


def test_transport_gaps_take_each_objects_own_fiber_dimension():
    # fibers of dimensions 1 and 2 in one orbit and 2, 1, 3 in another: no
    # groupoid's left regular rep has them, but the gaps are linear algebra
    # on any 0/1 ops with one 1 per column, and equal those of the whole
    # block-diagonal field
    G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cde"))
    rng = SplitMix64(13)
    dims = [1, 2, 2, 1, 3]
    bundle = HilbertBundle(dims, [1.0 + np.arange(d) for d in dims])
    rows = np.concatenate([rng.next_u64s(dims[s]) % np.uint64(dims[t])
                           for t, s in zip(G.tgt.tolist(), G.src.tolist())]).astype(np.intp)
    starts = np.concatenate([[0], np.cumsum(np.array(dims)[G.src])])
    rep = IndexRep(bundle, G.src, G.tgt, rows, starts)
    conj = conjugate_rep_on(G, rep, random_unitary_field(bundle.weights, rng))
    mu, nu = HaarSystem(np.ones(G.n_arrows)), uniform_measure(G)
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    fs[1, 3] = 0  # a term of the second orbit skipped in one function
    plain = integrated_blocks(G, mu, nu, rep, fs)
    big = np.zeros((bundle.total_dim, bundle.total_dim), dtype=complex)
    for x, u in enumerate(conj.field):
        big[bundle.slice_of(x), bundle.slice_of(x)] = u
    want = big @ plain.dense() @ np.linalg.inv(big)
    ops = [op.copy() for op in conj.ops]
    ops[2][1, 0] += 1e-3  # an op of the first orbit, 2 x 1
    for moved in (False, True):
        rep_now = types.SimpleNamespace(bundle=bundle, field=conj.field,
                                        inverses=conj.inverses, ops=ops) if moved else conj
        got = transport_gaps(G, mu, nu, rep_now, plain, fs)
        integrated = np.array([scatter_integrate(G, mu, nu, rep_now, f) for f in fs])
        oracle = np.abs(integrated - want).max(axis=(1, 2))
        np.testing.assert_allclose(got, oracle, rtol=1e-9, atol=1e-13)
        assert (got > 1e-6).all() if moved else (got < 1e-13).all()


def test_transport_gaps_hold_one_op_and_one_strip():
    # pair(32): the parent's stored ops alone took 16 MB, its orbit block 32 MB
    G = pair_groupoid([f"o{i}" for i in range(32)])
    rng = SplitMix64(17)
    mu = HaarSystem(random_invariant_weights(G, rng))
    nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
    lrep = left_regular_rep(G, mu)
    conj = conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    plain = integrated_blocks(G, mu, nu, lrep, fs)
    tracemalloc.start()
    try:
        gaps = transport_gaps(G, mu, nu, conj, plain, fs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (gaps < 1e-12).all()
    assert peak < 8 * 2 ** 20, peak


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["unitary", "non-unitary", "moved-inverse", "scaled"]))
def test_the_transport_bound_covers_the_dense_gap(seed, kind):
    # the battery's bound against the dense comparison it replaced, on random
    # unions with random weights, nu and fields: at one object x the first
    # column of U_x times 1.01, V_x[0, 0] moved by 1e-6, or U_x times 1e3;
    # the verdicts are those of the big-matrix transport
    rng = SplitMix64(seed)
    G = random_groupoid(rng, max_arrows=48)
    mu = HaarSystem(random_invariant_weights(G, rng))
    nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
    lrep = left_regular_rep(G, mu)
    field, x = random_unitary_field(lrep.bundle.weights, rng), rng.randint(G.n_objects)
    if kind == "non-unitary":
        field[x] = field[x] * np.r_[1.01, np.ones(len(field[x]) - 1)]
    elif kind == "scaled":
        field[x] = field[x] * 1e3
    conj = conjugate_rep_on(G, lrep, field)
    if kind == "moved-inverse":
        inverses = list(conj.inverses)
        inverses[x] = inverses[x].copy()
        inverses[x][0, 0] += 1e-6
        conj = dataclasses.replace(conj, inverses=tuple(inverses))
    fs = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
    bounds = battery._transport_bounds(G, mu, nu, conj, fs)
    gaps = transport_gaps(G, mu, nu, conj, integrated_blocks(G, mu, nu, lrep, fs), fs)
    assert (gaps <= bounds).all(), (gaps, bounds)
    accum = tolerances.accum_tol()
    ok, equiv = big_matrix_transport(G, mu, nu, conj, fs, accum)
    passed = check_representation(G, conj, atol=accum).ok and _worst(0.0, *bounds) <= accum
    assert passed == (ok and equiv <= accum), kind
    assert passed or kind != "unitary"


def test_an_arrows_document_failing_the_axioms_stops_the_battery(tmp_path, capsys):
    # the inverse of ab is ab itself: loadable, not a groupoid, and its
    # left-regular bundle would have fibers of dimensions 1 and 2 in one orbit
    doc = {"objects": ["a", "b"],
           "arrows": [{"id": "aa", "src": "a", "tgt": "a"}, {"id": "bb", "src": "b", "tgt": "b"},
                      {"id": "ab", "src": "a", "tgt": "b"}],
           "compose": [["aa", "aa", "aa"], ["bb", "bb", "bb"], ["ab", "aa", "ab"],
                       ["bb", "ab", "ab"], ["ab", "ab", "ab"]],
           "inverse": [["aa", "aa"], ["bb", "bb"], ["ab", "ab"]],
           "haar": {"type": "counting"}}
    path = tmp_path / "not-a-groupoid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    run = run_battery(load_groupoid(str(path)), seed=1)
    assert [(line.name, line.ok) for line in run.lines] == [("groupoid-axioms", False)]
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  groupoid-axioms" in out and "invariant violated" not in out


def test_worst_propagates_nan():
    assert _worst(0.0, 2.0, 1.0) == 2.0
    assert math.isnan(_worst(0.0, math.nan))
    assert math.isnan(_worst(math.nan, 0.0))


@pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan]])
def test_report_max_residual_propagates_nan(residuals):
    rep = Report("law")
    for r in residuals:
        rep.add("law", "witness", residual=r)
    assert math.isnan(rep.max_residual())
    run = BatteryRun()
    run.record_report("law", rep)
    assert run.lines[0].render().endswith("max residual nan")


def test_huge_haar_weights_fail_instead_of_aborting():
    # no errstate around the battery: the error::RuntimeWarning filter of
    # the test run fails the test on any stray overflow
    G = pair_groupoid("abcd")
    rng = SplitMix64(5)
    weights = random_invariant_weights(G, rng) * 1e160
    gdoc = GroupoidDocument(G, weights, random_probability(G.n_objects, rng), "strict")
    run = run_battery(gdoc, seed=1, trials=20)
    assert len(run.lines) == 1 + len(SUITES)
    lines = {line.name: line for line in run.lines}
    bound = lines["integrated-norm-bound"]
    assert not bound.ok and not math.isfinite(bound.residual)
    assoc = lines["convolution-associativity"]
    assert not assoc.ok and not math.isfinite(assoc.residual)
    assert not run.ok


# ---------------------------------------------------------------------------
# every suite can fail: faults monkeypatched into the names battery imports

def _fault_documents():
    """pair(5), and the union pair(3) x S3 + pair(2) x Z2 + pair(1) x Z3,
    each with random invariant weights and nu."""
    pieces = [product(pair_groupoid([f"c{c}x{i}" for i in range(k)]), group_groupoid(*table))
              for c, (k, table) in enumerate([(3, symmetric_table(3)), (2, cyclic_table(2)),
                                              (1, cyclic_table(3))])]
    return {"pair5": _random_document(pair_groupoid("abcde"), SplitMix64(1)),
            "union": _random_document(disjoint_union(*pieces), SplitMix64(1))}


def _columns_swapped(real):
    # columns 0 and 1 of V_s, s the source of arrow 0: the ops are U_t P_a V_s,
    # so those of op(0), and of every op out of s, are swapped, to the bit
    def conjugate_rep_on(G, rep, field):
        conj = real(G, rep, field)
        inverses, s = list(conj.inverses), int(G.src[0])
        inverses[s] = inverses[s][:, [1, 0, *range(2, len(inverses[s]))]]
        return dataclasses.replace(conj, inverses=tuple(inverses))
    return conjugate_rep_on


def _inverse_moved(real):
    def conjugate_rep_on(G, rep, field):  # V_0[0, 0] moved by 1e-6, the ops built from it
        conj = real(G, rep, field)
        inverses = list(conj.inverses)
        inverses[0] = inverses[0].copy()
        inverses[0][0, 0] += 1e-6
        return dataclasses.replace(conj, inverses=tuple(inverses))
    return conjugate_rep_on


def _field_scaled(real):
    def random_unitary_field(weights, rng):  # U_0 scaled by 1.01
        field = real(weights, rng)
        field[0] = field[0] * 1.01
        return field
    return random_unitary_field


def _rows_swapped(real):
    def left_regular_rep(G, mu):  # the first two entries of the rows of arrow 0
        rep = real(G, mu)
        rows = rep.rows.copy()
        rows[[0, 1]] = rows[[1, 0]]
        return IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
    return left_regular_rep


def _row_outside(real, row):
    def rep(*args):  # the row of the last entry of the rows set to row
        made = real(*args)
        rows = made.rows.copy()
        rows[-1] = row
        return IndexRep(made.bundle, made.src, made.tgt, rows, made.starts)
    return rep


def _blocks_scaled(real):
    def integrated_blocks(*args):  # every integrated operator times 1 + 1e-6
        ops = real(*args)
        return dataclasses.replace(ops, data=tuple(d * (1 + 1e-6) for d in ops.data))
    return integrated_blocks


def _unit_bisection_only(real):
    # the bisections module whose orbits each hold the unit bisection alone
    module = types.SimpleNamespace(**vars(real))
    module.orbit_bisections = lambda G: [
        (np.array(objs), np.array([[G.unit_of[x] for x in objs]])) for objs in G.orbits()]
    return module


def _largest_factor_short(real):
    # the bisections module whose largest orbit factor loses its last row
    module = types.SimpleNamespace(**vars(real))

    def orbit_bisections(G):
        factors = real.orbit_bisections(G)
        i = max(range(len(factors)), key=lambda c: len(factors[c][1]))
        factors[i] = (factors[i][0], factors[i][1][:-1])
        return factors
    module.orbit_bisections = orbit_bisections
    return module


def _times(factor):
    def scale(real):
        def scaled(*args):  # every result times factor
            return real(*args) * factor
        return scaled
    return scale


_scaled = _times(1 + 1e-6)


def _orbit_rows_reversed(real):
    def convolve(G, mu, f, g):  # the rows (x, h) of one orbit's left matrix reversed
        blocks = orbit_matrices(G)
        left = [m.copy() for m in blocks.left]
        left[0][0] = left[0][0][::-1]
        H = copy.copy(G)
        H._orbit_matrices = dataclasses.replace(blocks, left=tuple(left))
        return real(H, mu, f, g)
    return convolve


def _arrow_0_moved(real):
    def convolve(*args):  # every output plus 1e-6 at arrow 0, a fault not homogeneous
        out = real(*args).copy()
        out[..., 0] += 1e-6
        return out
    return convolve


def _last_row_dropped(parts):
    # the bundle's parts without the last row of its compose table
    return parts._replace(compose_table=parts.compose_table[:-1])


def _inverse_redirected(parts):
    # the inverse of loop 0 sent to the next loop
    inverse = parts.inverse.copy()
    inverse[0] = (inverse[0] + 1) % len(inverse)
    return parts._replace(inverse=inverse)


BOTH = ("pair5", "union")

# fault: (the name it replaces in battery, the replacement, the suites that
# must fail, the documents on which they must)
FAULTS = {
    "none": (None, None, [], BOTH),
    "conjugated-op-columns-swapped": ("conjugate_rep_on", _columns_swapped,
                                      ["equivalence-transport"], BOTH),
    "inverse-moved": ("conjugate_rep_on", _inverse_moved, ["equivalence-transport"], BOTH),
    "field-scaled": ("random_unitary_field", _field_scaled, ["equivalence-transport"], BOTH),
    "left-regular-rows-swapped": ("left_regular_rep", _rows_swapped, ["left-regular-axioms"],
                                  BOTH),
    "trivial-rep-row-outside-the-line": ("trivial_rep", lambda real: _row_outside(real, 1),
                                         ["trivial-rep-axioms"], BOTH),
    "integrated-blocks-scaled": ("integrated_blocks", _blocks_scaled,
                                 ["integrated-homomorphism"], BOTH),
    # {unit} is a group, so only the bisection images can tell; the union's
    # 5,832 candidate bisections are never enumerated
    "bisections-unit-only": ("bisections", _unit_bisection_only, ["fundamental-family"],
                             ("pair5",)),
    # the one orbit of pair(5) keeps 119 of its 120 bisections, which still
    # hold every arrow, so only the group laws can tell
    "largest-orbit-factor-short": ("bisections", _largest_factor_short, ["bisection-group"],
                                   ("pair5",)),
    # associativity is homogeneous of degree 3 on both sides, so it holds
    "convolve-scaled": ("convolve", _scaled,
                        ["convolution-unit", "integrated-homomorphism", "convolution-paths"],
                        BOTH),
    "convolve-scaled-on-pairs": ("convolve", _scaled, ["pair-matrix-oracle"],
                                 ("pair5",)),
    # the table sum is untouched, so only the comparison of the two paths can tell
    "orbit-rows-reversed": ("convolve", _orbit_rows_reversed, ["convolution-paths"], BOTH),
    "convolve-arrow-0-moved": ("convolve", _arrow_0_moved,
                               ["convolution-associativity", "convolution-unit",
                                "convolution-paths", "integrated-homomorphism"], BOTH),
    "isotropy-bundle-row-dropped": ("isotropy_parts",
                                    lambda real: lambda G: _last_row_dropped(real(G)),
                                    ["isotropy-bundle"], BOTH),
    "involute-scaled": ("involute", _scaled,
                        ["involution-antihomomorphism", "involution-involutive",
                         "inorm-involution-isometry", "integrated-star"], BOTH),
    "fiber-integrate-scaled": ("fiber_integrate", _scaled,
                               ["fiber-integration", "half-density-positivity"], BOTH),
    "half-density-inner-scaled": ("half_density_inner", _times(1.1),
                                  ["half-density-positivity"], BOTH),
}


@pytest.mark.parametrize("doc", ["pair5", "union"])
@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_fault_fails_its_suites(fault, doc, monkeypatch):
    name, make, suites, docs = FAULTS[fault]
    if name is not None:
        monkeypatch.setattr(battery, name, make(getattr(battery, name)))
    run = run_battery(_fault_documents()[doc], seed=1, trials=8)
    failed = {line.name for line in run.lines if not line.ok}
    if name is None:
        assert not failed
    if doc in docs:
        assert set(suites) <= failed, failed


# the rep whose last op gets a row outside its fiber, and the suites that fail
ROW_OUTSIDE = [("trivial_rep", {"trivial-rep-axioms"}),
               ("left_regular_rep", {"left-regular-axioms", "equivalence-transport"})]

# the suites that no fault above fails; a fault that fails one takes it off
UNFAULTED = {
    "haar-positivity", "haar-left-invariance", "nu-normalization",
    "inorm-submultiplicative", "haar-integral-invariance", "integrated-norm-bound",
    "multiplier-ideal", "transitive-isomorphism", "inorm-convergence-bound",
}


def test_every_suite_is_failed_by_some_fault_or_is_listed_unfaulted():
    # the list may only shrink: 9 suites are left
    faulted = {suite for _, _, suites, _ in FAULTS.values() for suite in suites}
    faulted |= {suite for _, suites in ROW_OUTSIDE for suite in suites}
    assert faulted <= set(SUITES)
    assert UNFAULTED == set(SUITES) - faulted
    assert len(UNFAULTED) <= 9


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), corrupt=st.sampled_from([None, _last_row_dropped,
                                                             _inverse_redirected]))
def test_the_isotropy_verdict_is_validate_on_the_bundle(seed, corrupt):
    # the suite compares the bundle's parts with G's restriction to its
    # loops; on a groupoid that passes its axioms, that verdict is validate's
    # on the bundle built from them, for the parts as made and for parts with
    # a row dropped or an inverse moved
    G = random_groupoid(SplitMix64(seed), max_arrows=32)
    parts = groupoid.isotropy_parts(G)
    if corrupt is _inverse_redirected and len(parts.src) < 2:
        return  # a lone loop has no other loop to be sent to
    made = parts if corrupt is None else corrupt(parts)
    with unittest.mock.patch.object(battery, "isotropy_parts", lambda H: made):
        run = run_battery(GroupoidDocument(G, None, None, "strict"), seed=1, trials=1)
    [line] = [line for line in run.lines if line.name == "isotropy-bundle"]
    sizes = G.target_fibers.size
    orbit_ok = bool((sizes == sizes[G.orbit_index.label]).all())
    assert line.ok == (groupoid.validate(FiniteGroupoid(*made)).ok and orbit_ok) == (
        corrupt is None)


@pytest.mark.parametrize("doc", ["pair5", "union"])
@pytest.mark.parametrize("name, suites", ROW_OUTSIDE)
def test_a_row_outside_its_fiber_fails_its_rep_alone(name, suites, doc, monkeypatch):
    # the last arrow's op has a 1 one row past its fiber: one shape entry
    # names it, and the rep is neither integrated nor conjugated, where
    # reading it raised IndexError
    gdoc = _fault_documents()[doc]
    G, real = gdoc.groupoid, getattr(battery, name)
    dims = real(*((G,) if name == "trivial_rep" else (G, gdoc.measures()[0]))).bundle.dims
    row, column = dims[G.tgt[-1]], dims[G.src[-1]] - 1
    monkeypatch.setattr(battery, name, _row_outside(real, row))
    run = run_battery(gdoc, seed=1, trials=8)
    assert len(run.lines) == 1 + len(SUITES)
    assert {line.name for line in run.lines if not line.ok} == suites
    [axioms] = [line for line in run.lines if line.name in suites and "axioms" in line.name]
    assert axioms.detail == (f"1 violation(s); first: shape: op({G.arrow_ids[-1]}) has its 1 "
                             f"of column {column} in row {row}, wants rows 0..{row - 1}")


def test_the_left_regular_index_check_runs_once_per_battery(monkeypatch):
    # equivalence-transport checks the conjugated rep on the left-regular
    # rep that left-regular-axioms has just checked: its exact index check
    # is reused, and every report line stays as it was
    from groupalg import representations
    G = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                       pair_groupoid("cde"))
    gdoc = _random_document(G, SplitMix64(3))
    want = run_battery(gdoc, seed=1, trials=4).lines
    checked = []

    def counted(G, rep, real=representations._index_residuals):
        checked.append(rep)
        return real(G, rep)
    monkeypatch.setattr(representations, "_index_residuals", counted)
    made = []

    def kept(*args, real=battery.left_regular_rep):
        made.append(real(*args))
        return made[-1]
    monkeypatch.setattr(battery, "left_regular_rep", kept)
    assert run_battery(gdoc, seed=1, trials=4).lines == want
    [lrep] = made
    assert sum(rep is lrep for rep in checked) == 1
    assert len(checked) == 2  # and the trivial rep


def test_a_battery_proves_associativity_from_the_orbit_matrices(monkeypatch):
    # every orbit of a verified document is kept by orbit_matrices, so no
    # certificate runs Light's test on a whole table, and the matrices that
    # validate builds are the ones convolve reads: one build, of G, as the
    # isotropy bundle is judged by comparison and never validated
    from groupalg import orbits
    G = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                       pair_groupoid("cde"))
    gdoc = _random_document(G, SplitMix64(3))
    whole, built = [], []

    def light(G, gens, real=groupoid._light_on_the_table):
        whole.append(gens)
        return real(G, gens)

    def build(G, real=orbits._build):
        built.append(G)
        return real(G)
    monkeypatch.setattr(groupoid, "_light_on_the_table", light)
    monkeypatch.setattr(orbits, "_build", build)
    run = run_battery(gdoc, seed=1, trials=4)
    assert all(line.ok for line in run.lines)
    assert whole == []
    assert built == [G]


@pytest.mark.parametrize("make", [
    lambda: pair_groupoid("abcd"),
    lambda: disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                           pair_groupoid("cde")),
], ids=["pair4", "two-orbits"])
def test_a_battery_labels_the_objects_once_per_groupoid_it_builds(make, monkeypatch):
    # every orbit-wise reader takes the orbit index built with the groupoid:
    # each groupoid made (the pieces and G; the battery judges the isotropy
    # bundle as arrays and builds none) has its objects labelled once, as it
    # is built, and never again
    built, labelled = [], []

    def init(self, *args, real=FiniteGroupoid.__init__, **kwargs):
        real(self, *args, **kwargs)
        built.append(self)

    def counted(n, i, j, real=groupoid.components):
        labelled.append((i, j))
        return real(n, i, j)
    monkeypatch.setattr(FiniteGroupoid, "__init__", init)
    for module in [m for name, m in sys.modules.items() if name.startswith("groupalg")]:
        if getattr(module, "components", None) is groupoid.components:
            monkeypatch.setattr(module, "components", counted)
    G = make()
    run = run_battery(GroupoidDocument(G, None, None, "strict"), seed=1, trials=4)
    assert all(line.ok for line in run.lines)
    on_objects = [H for i, j in labelled for H in built if i is H.tgt and j is H.src]
    assert on_objects == built
    assert built[-1] is G


def test_a_battery_and_check_all_never_import_numpy_ma():
    # the first plain np.unique in a process imports numpy.ma, a cost that
    # every cold set-up would pay; a two-orbit union takes the bisection
    # group's orbit-by-orbit path
    script = textwrap.dedent("""
        import contextlib, io, sys
        from groupalg.battery import run_battery
        from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                                       pair_groupoid, product)
        from groupalg.cli import main
        from groupalg.io import GroupoidDocument
        G = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                           pair_groupoid("cde"))
        run = run_battery(GroupoidDocument(G, None, None, "strict"), seed=1, trials=2)
        assert [line.ok for line in run.lines if line.name == "bisection-group"] == [True]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["check", "all", "--seed", "1", "--trials", "2"]) == 0
        print("numpy.ma" in sys.modules)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False", out.stderr
