"""Bundle representations, integration, norm bounds, transitive isomorphism."""

import dataclasses
import itertools
import math
import os
import re
import time
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupalg import blocks, representations, tolerances
from groupalg import (ConjugatedRep, HaarSystem, IndexRep, NotTransitive,
                      QuasiInvariantMeasure, ShapeMismatch, adjoint_operator, canonical_bundle,
                      check_representation, conjugate_rep_on, convolve,
                      counting_haar, decompose_transitive, delta,
                      fundamental_family_check, i_norm, induced_measures,
                      integrate_rep, involute, left_regular_rep,
                      transitive_isomorphism_check, operator_norm,
                      operator_norm_bound_check, table_convolve, trivial_rep,
                      uniform_measure)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               klein_table, pair_groupoid, product,
                               symmetric_table)
from groupalg.groupoid import FiniteGroupoid, components, isotropy
from groupalg.orbits import orbit_matrices
from groupalg.battery import run_battery
from groupalg.io import GroupoidDocument, load_groupoid, parse_groupoid_document
from groupalg.randgen import (SplitMix64, _group_table, random_function, random_groupoid,
                              random_invariant_weights, random_probability,
                              random_unitary_field, units)
from groupalg.report import Report, ReportEntry, _worst
from groupalg.blocks import BlockOperator, BlockPartition
from groupalg.representations import (HilbertBundle, bundle_metric, integrated_blocks,
                                      tensor_of_function)

from oracles import (DenseRep, benchmark_documents, dense_check, dense_of,
                     dense_residuals, every_block_norms, generator_bound, indicators,
                     looped_field_terms,
                     nonzero_operator_norm, norm_groupoids, pair_layers_ops,
                     generator_index_residuals, scanned_index_residuals,
                     scatter_integrate, support_blocks, svd_fundamental_family_check)


def weighted_inner(bundle, nu, u, v):
    m = bundle_metric(bundle, nu)
    return complex(np.sum(np.conj(v) * m * u))


class TestInducedMeasures:
    def test_uniform_counting_pair(self):
        G = pair_groupoid("abc")
        ind = induced_measures(G, counting_haar(G), uniform_measure(G))
        assert np.allclose(ind.delta, 1.0)
        assert np.allclose(ind.m_o, 1.0 / 3.0)

    def test_one_object_group(self):
        Z3 = group_groupoid(*cyclic_table(3))
        mu = counting_haar(Z3)
        ind = induced_measures(Z3, mu, uniform_measure(Z3))
        assert np.allclose(ind.m, mu.weights)
        assert np.allclose(ind.m_inv, mu.weights)
        assert np.allclose(ind.delta, 1.0)
        assert np.allclose(ind.m_o, mu.weights)

    def test_nonuniform_nu_closed_forms(self):
        G = pair_groupoid("abc")
        nu = QuasiInvariantMeasure(np.array([0.5, 0.3, 0.2]))
        ind = induced_measures(G, counting_haar(G), nu)
        for a in range(G.n_arrows):
            t, s = G.tgt[a], G.src[a]
            assert abs(ind.delta[a] - nu.nu[t] / nu.nu[s]) <= 1e-15
            assert abs(ind.m_o[a] - np.sqrt(nu.nu[t] * nu.nu[s])) <= 1e-15

    def test_symmetry_invariants(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rng = SplitMix64(41)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        ind = induced_measures(G, mu, nu)
        inv = np.asarray(G.inverse)
        assert np.abs(ind.delta * ind.delta[inv] - 1.0).max() <= 1e-12
        assert np.abs(ind.m_o - ind.m_o[inv]).max() <= 1e-12
        assert np.abs(ind.m_inv - ind.m[inv]).max() == 0


class TestTrivialRep:
    def test_axioms(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rep = trivial_rep(G)
        assert check_representation(G, rep).ok
        assert all(op.shape == (1, 1) and op[0, 0] == 1.0 for op in rep.ops)


class TestLeftRegular:
    def test_unit_arrow_identity(self):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        ops = left_regular_rep(G, mu).ops
        for x in range(3):
            assert np.array_equal(ops[G.unit_of[x]], np.eye(3))

    def test_pair2_permutation_matrix(self):
        G = pair_groupoid("ab")
        mu = counting_haar(G)
        a_ab = G.arrow_by_endpoints(0, 1)  # arrow b -> a
        M = left_regular_rep(G, mu).ops[a_ab]
        assert M.shape == (2, 2)
        assert sorted(M.reshape(-1).real.tolist()) == [0.0, 0.0, 1.0, 1.0]
        # explicit fiber bijection oracle: column h goes to row index of (a_ab o h)
        src_fiber = G.target_fiber(G.src[a_ab])
        tgt_fiber = G.target_fiber(G.tgt[a_ab])
        for col, h in enumerate(src_fiber):
            row = tgt_fiber.index(G.compose(a_ab, h))
            assert M[row, col] == 1.0

    def test_multiplicativity_matrix_oracle(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(3)))
        ops = left_regular_rep(G, mu).ops
        for a, b, c in sorted(G.compose_table.tolist())[:50]:
            assert np.array_equal(ops[c], ops[a] @ ops[b])

    def test_full_axioms_zero_residual(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(5)))
        rep = left_regular_rep(G, mu)
        assert check_representation(G, rep, atol=0.0).ok

    def test_a_composite_leaving_the_fiber_is_named(self):
        G = pair_groupoid("abc")
        ab, bc, ba = (G.arrow_by_endpoints(t, s) for t, s in ((0, 1), (1, 2), (1, 0)))
        table = [[a, b, ba if (a, b) == (ab, bc) else c]
                 for a, b, c in G.compose_table.tolist()]
        bad = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of)
        aid = G.arrow_ids
        with pytest.raises(ValueError, match=rf"^{aid[ab]} o {aid[bc]} = {aid[ba]} "
                                             r"leaves the target fiber of a$"):
            left_regular_rep(bad, counting_haar(bad))

    def test_transposed_matrix_detected(self):
        # on Z3 the translation matrices are genuine 3-cycles, so a transpose
        # is the inverse matrix and breaks multiplicativity; the transpose of
        # a permutation picks the rows argsort(rows)
        G = group_groupoid(*cyclic_table(3))
        mu = counting_haar(G)
        rep = left_regular_rep(G, mu)
        bad_arrow = 1
        rows = rep.rows.copy()
        cols = slice(rep.starts[bad_arrow], rep.starts[bad_arrow + 1])
        rows[cols] = np.argsort(rows[cols])
        transposed = IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
        assert np.array_equal(transposed.ops[bad_arrow], rep.ops[bad_arrow].T)
        assert not np.array_equal(rep.ops[bad_arrow], rep.ops[bad_arrow].T)
        report = check_representation(G, transposed)
        assert not report.ok
        assert any(G.arrow_ids[bad_arrow] in e.witness for e in report.errors)
        assert report.entries == dense_check(G, dense_of(transposed)).entries

    @pytest.mark.parametrize("fibers", [2, 4])
    def test_a_bundle_with_another_fiber_count_is_a_shape_entry(self, fibers):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        rep = left_regular_rep(G, mu)
        bundle = HilbertBundle([3] * fibers, [np.ones(3)] * fibers)
        index = IndexRep(bundle, rep.src, rep.tgt, rep.rows, rep.starts)
        conj = conjugate_rep_on(G, rep, [np.eye(3, dtype=complex)] * 3)
        for wrong in (index, ConjugatedRep(index, conj.field, conj.inverses),
                      DenseRep(bundle, list(rep.ops))):
            check = dense_check if isinstance(wrong, DenseRep) else check_representation
            assert [(e.check, e.witness) for e in check(G, wrong).errors] == [
                ("shape", "one fiber per object is required")]
            if isinstance(wrong, IndexRep):
                with pytest.raises(ShapeMismatch):
                    integrated_blocks(G, mu, uniform_measure(G), wrong, np.ones(G.n_arrows))
        with pytest.raises(ShapeMismatch, match="does not match the groupoid"):
            conjugate_rep_on(G, index, [np.eye(3, dtype=complex)] * 3)


class TestIntegrateRep:
    def test_zero_function(self):
        G = pair_groupoid("ab")
        op = integrate_rep(G, counting_haar(G), uniform_measure(G),
                           trivial_rep(G), np.zeros(4))
        assert np.all(op == 0)

    def test_delta_single_block_and_pairing_value(self):
        G = pair_groupoid("ab")
        mu = counting_haar(G)
        nu = uniform_measure(G)
        rep = trivial_rep(G)
        a = G.arrow_by_endpoints(0, 1)
        ind = induced_measures(G, mu, nu)
        op = integrate_rep(G, mu, nu, rep, delta(G, a))
        # single nonzero block at (tgt, src), value m_o / nu(tgt)
        assert op[0, 1] != 0 and np.count_nonzero(op) == 1
        assert abs(op[0, 1] - ind.m_o[a] / nu.nu[0]) <= 1e-15
        # the defining sesquilinear pairing evaluates to m_o(a) on indicators
        xi = np.array([0.0, 1.0], dtype=complex)   # supported at src
        eta = np.array([1.0, 0.0], dtype=complex)  # supported at tgt
        got = weighted_inner(rep.bundle, nu, op @ xi, eta)
        assert abs(got - ind.m_o[a]) <= 1e-15

    def test_star_homomorphism_all_combinations(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rng = SplitMix64(43)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nus = [uniform_measure(G),
               QuasiInvariantMeasure(random_probability(G.n_objects, rng))]
        reps = [trivial_rep(G), left_regular_rep(G, mu)]
        for nu in nus:
            for rep in reps:
                for _ in range(4):
                    f, g = random_function(G, rng), random_function(G, rng)
                    pf = integrate_rep(G, mu, nu, rep, f)
                    pg = integrate_rep(G, mu, nu, rep, g)
                    pfg = integrate_rep(G, mu, nu, rep, convolve(G, mu, f, g))
                    assert np.abs(pfg - pf @ pg).max() <= 1e-9
                    pstar = integrate_rep(G, mu, nu, rep, involute(G, f))
                    assert np.abs(pstar - adjoint_operator(pf, rep.bundle, nu)).max() \
                        <= 1e-12

    def test_shape_mismatch(self):
        G = pair_groupoid("ab")
        with pytest.raises(ShapeMismatch):
            integrate_rep(G, counting_haar(G), uniform_measure(G),
                          trivial_rep(G), np.zeros(7))


class TestNormBound:
    def test_delta_unit(self):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        nu = uniform_measure(G)
        rep = left_regular_rep(G, mu)
        f = delta(G, G.unit_of[0])
        op = integrate_rep(G, mu, nu, rep, f)
        assert operator_norm(op, rep.bundle, nu) <= i_norm(G, mu, f) + 1e-12
        assert operator_norm_bound_check(G, mu, nu, rep, f).ok

    def test_random_functions(self):
        G = pair_groupoid("abc")
        rng = SplitMix64(47)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(3, rng))
        rep = left_regular_rep(G, mu)
        for _ in range(25):
            f = random_function(G, rng)
            assert operator_norm_bound_check(G, mu, nu, rep, f).ok

    def test_zero(self):
        G = pair_groupoid("ab")
        rep = trivial_rep(G)
        assert operator_norm_bound_check(G, counting_haar(G), uniform_measure(G),
                                         rep, np.zeros(4)).ok

    def test_non_finite_operator_fails(self):
        G = pair_groupoid("abcd")
        rng = SplitMix64(5)
        mu = HaarSystem(random_invariant_weights(G, rng) * 1e160)
        nu = uniform_measure(G)
        rep = left_regular_rep(G, mu)
        f = random_function(G, rng)
        with np.errstate(all="ignore"):
            assert math.isnan(operator_norm(integrate_rep(G, mu, nu, rep, f), rep.bundle, nu))
            report = operator_norm_bound_check(G, mu, nu, rep, f)
        assert not report.ok
        [entry] = report.errors
        assert math.isnan(entry.residual)


def _dense_operator_norm(op, bundle, nu):
    """The norm by one dense SVD of the whole flat matrix: the oracle."""
    root = np.sqrt(bundle_metric(bundle, nu))
    sim = (op * root[:, None]) / root[None, :]
    if sim.size == 0:
        return 0.0
    return float(np.linalg.svd(sim, compute_uv=False)[0])


def _assert_norms_agree(op, bundle, nu):
    got, want = operator_norm(op, bundle, nu), _dense_operator_norm(op, bundle, nu)
    assert abs(got - want) <= 1e-12 * want, (got, want)
    return got


def _flat_bundle(n, rng):
    """One object of dimension n with random positive weights, and its nu."""
    return (HilbertBundle([n], [0.5 + rng.random(n)]),
            QuasiInvariantMeasure(np.array([1.0])))


class TestBlockOperatorNorm:
    @pytest.mark.parametrize("name", list(norm_groupoids()))
    def test_integrated_reps_agree_with_the_dense_svd(self, name):
        G = norm_groupoids()[name]
        rng = SplitMix64(61)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        lrep = left_regular_rep(G, mu)
        conj = conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))
        for rep in (trivial_rep(G), lrep, conj):
            index = isinstance(rep, IndexRep)
            for _ in range(3):
                f = random_function(G, rng)
                op = (integrate_rep if index else scatter_integrate)(G, mu, nu, rep, f)
                norm = _assert_norms_agree(op, rep.bundle, nu)
                assert norm <= i_norm(G, mu, f) + 1e-12
                if index and f.all():  # the support is the rep's blocks: the same SVDs
                    assert norm == integrated_blocks(G, mu, nu, rep, f).norms()[0]

    def test_zero_operator(self):
        bundle, nu = _flat_bundle(5, np.random.default_rng(1))
        assert operator_norm(np.zeros((5, 5), dtype=complex), bundle, nu) == 0.0
        assert _dense_operator_norm(np.zeros((5, 5)), bundle, nu) == 0.0

    def test_empty_bundle(self):
        bundle = HilbertBundle([], [])
        nu = QuasiInvariantMeasure(np.array([1.0]))
        assert operator_norm(np.zeros((0, 0), dtype=complex), bundle, nu) == 0.0
        assert support_blocks(np.zeros((0, 0))) == []

    def test_diagonal(self):
        rng = np.random.default_rng(2)
        bundle, nu = _flat_bundle(7, rng)
        d = rng.normal(size=7) + 1j * rng.normal(size=7)
        d[[1, 4]] = 0
        op = np.diag(d)
        _assert_norms_agree(op, bundle, nu)
        blocks = support_blocks(op)
        assert [(r.tolist(), c.tolist()) for r, c in blocks] == [
            ([i], [i]) for i in (0, 2, 3, 5, 6)]

    def test_permuted_block_diagonal(self):
        rng = np.random.default_rng(3)
        shapes = [(3, 2), (1, 4), (2, 2), (4, 1), (2, 3)]
        n = sum(r for r, _ in shapes)
        assert n == sum(c for _, c in shapes)
        M = np.zeros((n, n), dtype=complex)
        r0 = c0 = 0
        for r, c in shapes:
            M[r0:r0 + r, c0:c0 + c] = rng.normal(size=(r, c)) + 1j * rng.normal(size=(r, c))
            r0, c0 = r0 + r, c0 + c
        rows, cols = rng.permutation(n), rng.permutation(n)
        op = M[np.ix_(rows, cols)]
        bundle, nu = _flat_bundle(n, rng)
        _assert_norms_agree(op, bundle, nu)
        blocks = support_blocks(op)
        assert sorted((len(r), len(c)) for r, c in blocks) == sorted(shapes)

    def test_tridiagonal_is_one_block(self):
        rng = np.random.default_rng(4)
        n = 40
        op = (np.diag(rng.normal(size=n)) + np.diag(rng.normal(size=n - 1), 1)
              + np.diag(rng.normal(size=n - 1), -1)).astype(complex)
        bundle, nu = _flat_bundle(n, rng)
        _assert_norms_agree(op, bundle, nu)
        [(rows, cols)] = support_blocks(op)
        assert rows.tolist() == cols.tolist() == list(range(n))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), m=st.none() | st.integers(1, 12),
           density=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_sparse_supports(self, n, m, density, seed):
        m = n if m is None else m
        rng = np.random.default_rng(seed)
        M = (rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))) * (
            rng.random((n, m)) < density)
        blocks = support_blocks(M)
        rows = np.concatenate([r for r, _ in blocks] + [np.zeros(0, dtype=int)])
        cols = np.concatenate([c for _, c in blocks] + [np.zeros(0, dtype=int)])
        assert sorted(rows.tolist()) == np.flatnonzero(M.any(axis=1)).tolist()
        assert sorted(cols.tolist()) == np.flatnonzero(M.any(axis=0)).tolist()
        inside = np.zeros((n, m), dtype=bool)
        for r, c in blocks:
            inside[np.ix_(r, c)] = True
        assert not M[~inside].any()
        assert [r[0] for r, _ in blocks] == sorted(r[0] for r, _ in blocks)  # least row first
        for r, c in blocks:
            assert r.tolist() == sorted(r.tolist()) and c.tolist() == sorted(c.tolist())
        for r, c in blocks:  # each block is connected: a search from its first row reaches all of it
            sub = M[np.ix_(r, c)] != 0
            reached = np.zeros(len(r), dtype=bool)
            reached[0] = True
            while True:
                grown = reached | sub[:, sub[reached].any(axis=0)].any(axis=1)
                if (grown == reached).all():
                    break
                reached = grown
            assert reached.all() and sub[reached].any(axis=0).all()
        if n == m:  # an operator on a bundle is square
            _assert_norms_agree(M, *_flat_bundle(n, rng))

    def test_svd_sizes_follow_the_blocks(self, monkeypatch):
        G = pair_groupoid([f"o{i}" for i in range(12)])
        mu = counting_haar(G)
        nu = uniform_measure(G)
        rep = left_regular_rep(G, mu)
        op = integrate_rep(G, mu, nu, rep, random_function(G, SplitMix64(67)))
        shapes = []
        real = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded)
        operator_norm(op, rep.bundle, nu)
        assert shapes and max(max(s[-2:]) for s in shapes) <= 12
        monkeypatch.setattr(np.linalg, "svd", real)
        _assert_norms_agree(op, rep.bundle, nu)

    @pytest.mark.parametrize("shape", [(3, 3), (5, 4), (4, 5), (6, 6)])
    def test_an_operator_of_another_shape_is_refused(self, shape):
        # a 3x3 identity on a 5-dim bundle would read the first three metric entries
        bundle, nu = _flat_bundle(5, np.random.default_rng(6))
        with pytest.raises(ShapeMismatch, match=r"expected \(5, 5\)"):
            operator_norm(np.eye(*shape, dtype=complex), bundle, nu)

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), max_size=5),
           density=st.sampled_from([0.0, 0.2, 0.6, 1.0]), real=st.booleans(),
           layout=st.sampled_from(["C", "F", "transposed", "strided"]),
           special=st.sampled_from([None, math.nan, math.inf, -math.inf, -0.0, 1j]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(sizes=[], density=0.0, real=False, layout="C", special=None, seed=0)
    @example(sizes=[1], density=1.0, real=True, layout="F", special=None, seed=0)
    @example(sizes=[1], density=0.0, real=False, layout="C", special=-0.0, seed=0)
    @example(sizes=[3, 2], density=0.0, real=False, layout="transposed", special=None, seed=0)
    def test_the_flat_scan_gives_the_norm_of_the_2d_scan(self, sizes, density, real, layout,
                                                         special, seed):
        # random blocks, their rows and columns permuted apart, read in any
        # layout: the norm is the oracle's to the bit, or both are NaN
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        M = np.zeros((n, n), dtype=float if real else complex)
        lo = 0
        for k in sizes:
            block = rng.normal(size=(k, k)) if real else \
                rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            M[lo:lo + k, lo:lo + k] = block * (rng.random((k, k)) < density)
            lo += k
        if special is not None and n and not (real and isinstance(special, complex)):
            M[tuple(rng.integers(n, size=(2, 1 + rng.integers(3))))] = special
        M = M[np.ix_(rng.permutation(n), rng.permutation(n))]
        op = {"C": M, "F": np.asfortranarray(M), "transposed": np.ascontiguousarray(M.T).T,
              "strided": np.repeat(np.repeat(M, 2, axis=0), 2, axis=1)[::2, ::2]}[layout]
        assert np.array_equal(op, M, equal_nan=True)
        bundle = HilbertBundle([n], [0.5 + rng.random(n)]) if n else HilbertBundle([], [])
        nu = QuasiInvariantMeasure(np.array([1.0]))
        with np.errstate(invalid="ignore"):  # complex inf / real makes a NaN part
            got, want = operator_norm(op, bundle, nu), nonzero_operator_norm(op, bundle, nu)
        assert (math.isnan(got) and math.isnan(want)) or got.hex() == want.hex(), (got, want)

    @pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
    @pytest.mark.parametrize("dtype", [complex, np.complex64, float, np.int64, bool])
    def test_the_chunked_scan_gathers_the_blocks_of_op_ne_0(self, chunk, dtype, monkeypatch):
        # chunks of one entry (a row each), a few rows, or the whole matrix;
        # complex entries with one part nonzero, a part -0.0, or NaN, in
        # every layout: the blocks and their data are those of the 2-D mask
        monkeypatch.setattr(blocks, "_SCAN_CHUNK", chunk)
        rng = np.random.default_rng(11)
        n = 13
        M = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.2)
        M[2, 5], M[7, 1], M[4, 4], M[9, 3] = 2j, complex(-0.0, 0.0), complex(-0.0, 1.5), 0.5
        M[11, 6] = complex(math.nan, 0.0)
        M[0, 12] = complex(0.0, -0.0)
        op = {complex: M, np.complex64: M.astype(np.complex64), float: M.real,
              np.int64: np.round(3 * np.nan_to_num(M.real)).astype(np.int64), bool: M.real != 0}[dtype]
        nu, weight = np.full(n, 1.0 / n), 0.5 + rng.random(n)
        want = BlockPartition.of(components(n, *np.nonzero(op != 0)))
        for layout in (op, np.asfortranarray(op), op[::-1][::-1], op.T.copy().T):
            got = BlockOperator.of_dense(layout, nu, weight)
            assert len(got.groups) == len(want.groups)
            for (p, d), q in zip(got.groups, want.groups, strict=True):
                assert np.array_equal(p, q)
                assert d.dtype == op.dtype
                assert d[0].tobytes() == op[q[:, :, None], q[:, None, :]].tobytes()

    def test_the_seed_1_pair36_norm_is_unchanged(self):
        # the integrated left regular rep of pair(36) whose norm the
        # benchmark's pair36-layers workload takes, 1,296 x 1,296 with
        # 46,656 nonzero entries, and its norm to the bit (one ulp below the
        # 11.537850096063378 of one root of the product metric: the flat
        # similar blocks are d * nu ratio * weight ratio)
        ops, ctx = pair_layers_ops(1), {}
        for name in ("parse", "left-regular-rep", "integrate-rep"):
            assert ops[name](ctx) is None
        pf, bundle, nu = ctx["pf"], ctx["lrep"].bundle, ctx["nu"]
        assert pf.shape == (1296, 1296) and np.count_nonzero(pf) == 46656
        assert operator_norm(pf, bundle, nu) == nonzero_operator_norm(pf, bundle, nu) \
            == 11.537850096063377

    def test_the_seed_1_pair36_norm_is_one_svd(self, monkeypatch):
        # its 36 left-regular blocks, one per source object, are equal entry
        # for entry, so one 36x36 SVD serves them all
        ops, ctx = pair_layers_ops(1), {}
        for name in ("parse", "left-regular-rep", "integrate-rep"):
            assert ops[name](ctx) is None
        shapes = []
        real = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return real(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", recorded)
        operator_norm(ctx["pf"], ctx["lrep"].bundle, ctx["nu"])
        assert shapes == [(1, 36, 36)]

    @settings(max_examples=150, deadline=None)
    @given(groups=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 5)), min_size=1,
                           max_size=3, unique_by=lambda g: g[0]),
           k=st.integers(0, 3), real=st.booleans(), per_place=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(groups=[(3, 4)], k=2, real=False, per_place=True, seed=0)
    def test_one_svd_per_run_of_equal_blocks(self, groups, k, real, per_place, seed):
        # blocks planted equal to the one before them, one ulp apart in one
        # entry, zero, with signed zeros flipped, or with a NaN, on factors
        # that are powers of 4: every ratio is a power of 2, so the flat
        # similar blocks are exact and equal exactly when planted so
        rng = np.random.default_rng(seed)
        label = np.concatenate([np.repeat(np.arange(nb) + 10 * g, s)
                                for g, (s, nb) in enumerate(groups)])
        label = label[rng.permutation(len(label))]
        part = BlockPartition.of(label)
        exps = []
        for p in part.groups:  # exponents of nu and weight, per place or per position
            shape = (2, 1, p.shape[1]) if per_place else (2, *p.shape)
            exps.append(np.broadcast_to(rng.integers(-3, 4, size=shape), (2, *p.shape)))
        e = np.zeros((2, len(label)), dtype=np.int64)
        for p, x in zip(part.groups, exps):
            e[:, p] = x
        nu, weight = 4.0 ** e
        data, runs = [], 0
        for p, x in zip(part.groups, exps):
            nb, s = p.shape
            d = rng.normal(size=(k, nb, s, s)) if real else \
                rng.normal(size=(k, nb, s, s)) + 1j * rng.normal(size=(k, nb, s, s))
            d[rng.random(d.shape) < 0.3] = 0.0
            for i, b in itertools.product(range(k), range(1, nb)):
                kind = rng.integers(6)
                if kind == 1:  # equal
                    d[i, b] = d[i, b - 1]
                elif kind == 2:  # one ulp apart in its largest entry (none if all are 0)
                    d[i, b] = d[i, b - 1]
                    at = np.unravel_index(np.argmax(np.abs(d[i, b])), (s, s))
                    v = d[i, b][at]
                    if v:
                        d[i, b][at] = np.nextafter(v.real, np.inf) + (0 if real else 1j * v.imag)
                elif kind == 3:  # zero
                    d[i, b] = 0.0
                elif kind == 4:  # equal up to the signs of its zeros
                    d[i, b] = np.where(d[i, b - 1] == 0, -d[i, b - 1], d[i, b - 1])
                elif kind == 5 and rng.random() < 0.3:  # a NaN
                    d[i, b] = d[i, b - 1]
                    d[i, b, 0, 0] = math.nan
            sim = d * 2.0 ** ((x[0][:, :, None] - x[0][:, None, :])
                              + (x[1][:, :, None] - x[1][:, None, :]))
            for i in range(k):
                bad = not np.isfinite(sim[i]).all()
                runs += 1 if bad else 1 + int((sim[i, 1:] != sim[i, :-1]).any(axis=(1, 2)).sum())
            data.append(d)
        ops = BlockOperator(nu, weight, part, tuple(data), k)
        shapes = []
        real_svd = np.linalg.svd

        def recorded(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_svd(a, *args, **kwargs)
        with pytest.MonkeyPatch.context() as m:  # hypothesis reruns the body
            m.setattr(np.linalg, "svd", recorded)
            with np.errstate(invalid="ignore"):
                got = ops.norms()
        want = every_block_norms(ops)
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        assert (np.abs(got[ok] - want[ok]) <= 8 * np.finfo(float).eps * want[ok]).all()
        assert sum(math.prod(shape[:-2]) for shape in shapes) == runs

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entry_gives_nan(self, bad):
        bundle, nu = _flat_bundle(4, np.random.default_rng(5))
        op = np.eye(4, dtype=complex)
        op[2, 1] = bad
        with np.errstate(invalid="ignore"):  # complex inf / real makes a NaN part
            assert math.isnan(operator_norm(op, bundle, nu))


class TestUnitaryEquivalence:
    def test_conjugation_transports(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rng = SplitMix64(53)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        rep = left_regular_rep(G, mu)
        field = random_unitary_field(rep.bundle.weights, rng)
        conj = conjugate_rep_on(G, rep, field)
        assert check_representation(G, conj, atol=1e-9).ok
        big = np.zeros((rep.bundle.total_dim,) * 2, dtype=complex)
        for x in range(G.n_objects):
            big[rep.bundle.slice_of(x), rep.bundle.slice_of(x)] = field[x]
        for _ in range(3):
            f = random_function(G, rng)
            lhs = scatter_integrate(G, mu, nu, conj, f)
            rhs = big @ integrate_rep(G, mu, nu, rep, f) @ np.linalg.inv(big)
            assert np.abs(lhs - rhs).max() <= 1e-9


class TestDecomposeTransitive:
    def test_pair_groupoid_trivial_isotropy(self):
        G = pair_groupoid("abc")
        dec = decompose_transitive(G)
        assert dec.base == 0 and dec.iso.order == 1
        for a in range(G.n_arrows):
            x, g, y = dec.factor(G, a)
            assert (x, y) == (G.tgt[a], G.src[a]) and g == dec.iso.unit_index

    def test_z2_exhaustive_unique_factorization(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        dec = decompose_transitive(G)
        assert dec.iso.order == 2
        triples = set()
        for a in range(G.n_arrows):
            x, g, y = dec.factor(G, a)
            assert dec.recompose(G, x, g, y) == a
            triples.add((x, g, y))
        assert len(triples) == 18

    def test_not_transitive(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        with pytest.raises(NotTransitive):
            decompose_transitive(G)

    @pytest.mark.parametrize("seed", range(4))
    def test_each_tau_is_the_least_arrow_out_of_the_base(self, seed):
        # pair(3) x S3 with its arrows renumbered, so the least arrow base -> x
        # is not the first one the builder made
        G = product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3)))
        perm = np.random.default_rng(seed).permutation(G.n_arrows)
        new = np.argsort(perm)
        H = FiniteGroupoid(G.objects, G.src[perm], G.tgt[perm], new[G.compose_table],
                           new[G.inverse[perm]], new[G.unit_of])
        want = tuple(min(a for a in H.target_fiber(x) if H.src[a] == 0)
                     for x in range(H.n_objects))
        assert decompose_transitive(H).taus == want

    def test_no_arrow_out_of_the_base(self):
        # one orbit, but the only arrow between a and b runs b -> a
        G = FiniteGroupoid("ab", [0, 1, 1], [0, 0, 1], [], [0, 1, 2], [0, 2])
        with pytest.raises(NotTransitive, match="^no arrow from base into b$"):
            decompose_transitive(G)


class TestTransitiveIsomorphism:
    def test_pair3_matrix_algebra(self):
        G = pair_groupoid("abc")
        assert G.n_arrows == 9  # dimension of M_3
        rep = transitive_isomorphism_check(G)
        assert rep.ok and rep.max_residual() <= 1e-12

    def test_pair3_z2(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        assert G.n_arrows == 18  # 9 * |Z2|
        rep = transitive_isomorphism_check(G)
        assert rep.ok and rep.max_residual() <= 1e-12

    def test_one_object_group_reduces_to_group_algebra(self):
        Z4 = group_groupoid(*cyclic_table(4))
        rep = transitive_isomorphism_check(Z4)
        assert rep.ok

    def test_not_transitive_raises(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        with pytest.raises(NotTransitive):
            transitive_isomorphism_check(G)


def _brute_force_group_algebra_product(iso, A, B):
    """Product in M_n tensor C[iso], one Cayley-table lookup per element."""
    h = iso.order
    out = np.zeros_like(A)
    for g1 in range(h):
        k = [iso.mult(iso.inv(g1), g) for g in range(h)]
        out += np.einsum("xy,yzg->xzg", A[:, :, g1], B[:, :, k])
    return out


def _brute_force_group_algebra_star(iso, A):
    """Star in M_n tensor C[iso]: conjugate transpose, group element inverted."""
    inv = [iso.inv(g) for g in range(iso.order)]
    return np.conj(np.transpose(A, (1, 0, 2)))[:, :, inv]


def _brute_force_transitive_check(G, mu=None, atol=None):
    """The isomorphism check by convolving every pair of arrow deltas, as the
    table sums them, and multiplying their images: the oracle for
    transitive_isomorphism_check."""
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

    worst = 0.0
    for a in range(G.n_arrows):
        fa = delta(G, a)
        for b in range(G.n_arrows):
            lhs = tensor_of_function(G, dec, table_convolve(G, counting, fa, delta(G, b)))
            rhs = _brute_force_group_algebra_product(
                dec.iso, tensor_of_function(G, dec, fa), tensor_of_function(G, dec, delta(G, b)))
            err = float(np.abs(lhs - rhs).max())
            worst = max(worst, err)
            if err > atol:
                out.add("structure-constants",
                        f"delta product at ({G.arrow_ids[a]}, {G.arrow_ids[b]})",
                        residual=err)
        star_lhs = tensor_of_function(G, dec, involute(G, fa))
        star_rhs = _brute_force_group_algebra_star(dec.iso, tensor_of_function(G, dec, fa))
        err = float(np.abs(star_lhs - star_rhs).max())
        worst = max(worst, err)
        if err > atol:
            out.add("involution", f"star image of {G.arrow_ids[a]} disagrees",
                    residual=err)

    rng = SplitMix64(0xC0FFEE)
    for _ in range(2):
        f = random_function(G, rng)
        g = random_function(G, rng)
        lhs = tensor_of_function(G, dec, table_convolve(G, counting, f, g))
        rhs = _brute_force_group_algebra_product(dec.iso, tensor_of_function(G, dec, f),
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


def _brute_force_left_regular(G, arrow):
    """Translation by ``arrow`` as a dense matrix, one compose per column:
    the oracle for the ops of left_regular_rep."""
    src_fiber = G.target_fiber(G.src[arrow])
    tgt_fiber = G.target_fiber(G.tgt[arrow])
    out = np.zeros((len(tgt_fiber), len(src_fiber)), dtype=complex)
    for col, h in enumerate(src_fiber):
        c = G.compose(arrow, h)
        if c not in tgt_fiber:
            raise ValueError(f"{G.arrow_ids[arrow]} o {G.arrow_ids[h]} = {G.arrow_ids[c]} "
                             f"leaves the target fiber of {G.objects[G.tgt[arrow]]}")
        out[tgt_fiber.index(c), col] = 1.0
    return out


def _dense_left_regular_rep(G, mu):
    """The left regular representation with dense ops: the oracle for the
    index data of left_regular_rep."""
    return DenseRep(canonical_bundle(G, mu),
                    [_brute_force_left_regular(G, a) for a in range(G.n_arrows)])


def _dense_trivial_rep(G):
    """The trivial representation with dense ops: the oracle for trivial_rep."""
    return DenseRep(HilbertBundle([1] * G.n_objects, [np.ones(1)] * G.n_objects),
                    [np.ones((1, 1), dtype=complex) for _ in range(G.n_arrows)])


def _brute_force_cayley(G, x):
    """The Cayley and inverse tables of the loops at x, one compose per
    pair: the oracle for IsotropyGroup."""
    loops = [a for a in G.target_fiber(x) if G.src[a] == x]
    if G.unit_of[x] not in loops:
        raise ValueError(f"object {G.objects[x]} has no unit loop")
    products = [[G.compose(a, b) for b in loops] for a in loops]
    aid, here = G.arrow_ids, G.objects[x]
    for a, row in zip(loops, products):
        for b, c in zip(loops, row):
            if c not in loops:
                raise ValueError(f"{aid[a]} o {aid[b]} = {aid[c]} is not a loop at {here}")
    for a in loops:
        if G.inverse[a] not in loops:
            raise ValueError(f"inverse({aid[a]}) = {aid[G.inverse[a]]} is not a loop at {here}")
    return ([[loops.index(c) for c in row] for row in products],
            [loops.index(G.inverse[a]) for a in loops])


def _outcome(check, G):
    """The rendered report, or the type and message of what was raised."""
    try:
        return str(check(G))
    except Exception as exc:  # noqa: BLE001 - the oracle must raise the same
        return f"raised {type(exc).__name__}: {exc}"


def _rebuilt(G, table=None, inverse=None):
    return FiniteGroupoid(G.objects, G.src, G.tgt,
                          G.compose_table if table is None else table,
                          G.inverse if inverse is None else inverse,
                          G.unit_of, G.arrow_ids)


def _differential_groupoids():
    return {
        "pair3": pair_groupoid("abc"),
        "pair2xS3": product(pair_groupoid("ab"), group_groupoid(*symmetric_table(3))),
        "pair3xKlein": product(pair_groupoid("abc"), group_groupoid(*klein_table())),
        "Z6": group_groupoid(*cyclic_table(6)),
        "Z8": group_groupoid(*cyclic_table(8)),
    }


def _corruptions(G):
    """Corrupted copies of a transitive groupoid, keyed by the corruption."""
    rows = G.compose_table[np.lexsort((G.compose_table[:, 1], G.compose_table[:, 0]))]
    units = set(G.unit_of)
    dec = decompose_transitive(G)
    loops = set(dec.iso.arrows)
    out = {}
    # a composite away from the base object (the factorization reads the
    # products there) redirected to another arrow with the same endpoints,
    # or to one with other endpoints where there is none
    for i, (a, b, c) in enumerate(rows.tolist()):
        if a in units or b in units or dec.base in (G.tgt[a], G.src[a], G.src[b]):
            continue
        same = [d for d in range(G.n_arrows) if d != c
                and (G.tgt[d], G.src[d]) == (G.tgt[c], G.src[c])]
        table = rows.copy()
        table[i, 2] = same[0] if same else (c + 1) % G.n_arrows
        out["redirected"] = _rebuilt(G, table)
        break
    # a product of two base loops redirected to another base loop
    for i, (a, b, c) in enumerate(rows.tolist()):
        if a in loops and b in loops and a not in units and b not in units:
            table = rows.copy()
            table[i, 2] = next(d for d in dec.iso.arrows if d not in (c, G.unit_of[0]))
            out["redirected-in-isotropy"] = _rebuilt(G, table)
            break
    # the last row off the base loops dropped (on a group, the last row:
    # then the isotropy group cannot be built and both checks raise)
    drop = max((i for i, (a, b, _) in enumerate(rows.tolist())
                if not (a in loops and b in loops)), default=len(rows) - 1)
    out["dropped"] = _rebuilt(G, np.delete(rows, drop, axis=0))
    # an extra row on a pair that does not compose
    off = [(a, b) for a in range(G.n_arrows) for b in range(G.n_arrows)
           if G.src[a] != G.tgt[b]]
    if off:
        a, b = off[len(off) // 2]
        out["off-domain"] = _rebuilt(G, np.vstack([rows, [[a, b, a]]]))
    # two non-unit base loops swap their inverses, or with too few loops the
    # last arrow's inverse becomes an arrow into its source from elsewhere
    if dec.iso.order > 2:
        g1, g2 = [g for g in dec.iso.arrows if g != G.unit_of[0]][:2]
        inverse = list(G.inverse)
        inverse[g1], inverse[g2] = inverse[g2], inverse[g1]
        out["broken-inverse"] = _rebuilt(G, inverse=inverse)
    else:
        inverse = list(G.inverse)
        a = G.n_arrows - 1
        inverse[a] = next(d for d in range(G.n_arrows)
                          if d != inverse[a] and G.tgt[d] == G.src[a]
                          and G.src[d] != G.tgt[a])
        out["broken-inverse"] = _rebuilt(G, inverse=inverse)
    return out


def _one_row_dropped(G):
    """One copy of G per row of its table, with that row dropped."""
    rows = G.compose_table[np.lexsort((G.compose_table[:, 1], G.compose_table[:, 0]))]
    return [_rebuilt(G, np.delete(rows, i, axis=0)) for i in range(len(rows))]


def _inverse_corruptions(G):
    """Copies of a transitive groupoid whose inverse table is corrupted away
    from the trivializing arrows and the units, keyed by the corruption."""
    dec = decompose_transitive(G)
    free = [a for a in range(G.n_arrows)
            if a not in dec.taus and a not in G.unit_of]
    out = {}
    a = next(a for a in free if G.inverse[a] != a)
    inverse = list(G.inverse)
    inverse[a] = a
    out["self-inverse"] = _rebuilt(G, inverse=inverse)
    a, b = free[:2]
    inverse = list(G.inverse)
    inverse[a] = inverse[b]
    out["two-to-one"] = _rebuilt(G, inverse=inverse)
    if len(free) >= 3:
        a, b, c = free[-3:]
        inverse = list(G.inverse)
        inverse[a], inverse[b], inverse[c] = inverse[b], inverse[c], inverse[a]
        out["three-cycle"] = _rebuilt(G, inverse=inverse)
    return out


class TestStructureConstantOracle:
    @pytest.mark.parametrize("name", list(_differential_groupoids()))
    def test_clean_reports_match_the_oracle(self, name):
        G = _differential_groupoids()[name]
        got = _outcome(transitive_isomorphism_check, G)
        assert got == _outcome(_brute_force_transitive_check, G)
        assert got.startswith("transitive-isomorphism: ok")

    @pytest.mark.parametrize("name", list(_differential_groupoids()))
    def test_corrupted_reports_match_the_oracle(self, name):
        cases = _corruptions(_differential_groupoids()[name])
        assert {"dropped", "broken-inverse"} <= set(cases)
        assert {"redirected", "redirected-in-isotropy"} & set(cases)
        for case, H in cases.items():
            got = _outcome(transitive_isomorphism_check, H)
            assert got == _outcome(_brute_force_transitive_check, H), case
            assert not got.startswith("transitive-isomorphism: ok"), case

    @pytest.mark.parametrize("name", list(_differential_groupoids()))
    def test_corrupted_inverse_tables_match_the_oracle(self, name):
        G = _differential_groupoids()[name]
        cases = _inverse_corruptions(G)
        assert {"self-inverse", "two-to-one"} <= set(cases)
        for case, H in cases.items():
            got = _outcome(transitive_isomorphism_check, H)
            assert got == _outcome(_brute_force_transitive_check, H), case
            assert not got.startswith("transitive-isomorphism: ok"), case
            # on a group the isotropy inverses are corrupted alike, and only
            # the structure constants can tell
            assert ("involution" in got) == (G.n_objects > 1), case

    @pytest.mark.parametrize("name", list(_differential_groupoids()))
    def test_corrupted_composition_tables_convolve_as_the_table_sums(self, name):
        # the one orbit is not borne out by its table, so convolve is the
        # table sum bit for bit; a corrupted inverse table leaves the
        # composition table, and so the matrix path, whole
        G = _differential_groupoids()[name]
        f, g = SplitMix64(5).complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
        cases = {**_corruptions(G), **{f"one-row-dropped-{i}": H for i, H in
                                       enumerate(_one_row_dropped(G)[:8])}}
        for case, H in cases.items():
            mu = counting_haar(H)
            if case == "broken-inverse":
                assert len(orbit_matrices(H).left) == 1, case
                continue
            assert orbit_matrices(H).left == (), case
            assert (convolve(H, mu, f, g).tobytes()
                    == table_convolve(H, mu, f, g).tobytes()), case

    def test_one_row_dropped_tables_match_the_oracle(self):
        tables = _one_row_dropped(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))))
        assert len(tables) == 32
        got = [_outcome(transitive_isomorphism_check, H) for H in tables]
        assert got == [_outcome(_brute_force_transitive_check, H) for H in tables]
        # six drops leave the base isotropy group whole and are found when an
        # arrow is recomposed, through a product that is not defined
        base = [_outcome(lambda K: isotropy(K, 0).table, H) for H in tables]
        assert sum(not b.startswith("raised") and "do not compose" in g
                   for g, b in zip(got, base)) == 6

    def test_one_row_dropped_tables_raise_like_the_per_pair_oracles(self):
        tables = _one_row_dropped(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))))
        raised = 0
        for H in tables:
            got = _outcome(lambda K: [op.tolist() for op in
                                      left_regular_rep(K, counting_haar(K)).ops], H)
            assert got == _outcome(lambda K: [_brute_force_left_regular(K, a).tolist()
                                              for a in range(K.n_arrows)], H)
            raised += got.startswith("raised")
            for x in range(H.n_objects):
                iso = _outcome(lambda K: (isotropy(K, x).table, isotropy(K, x).inverse_table), H)
                assert iso == _outcome(lambda K: _brute_force_cayley(K, x), H)
        assert raised == len(tables)  # every dropped product is some translation's

    def test_redirect_inside_the_isotropy_group(self):
        # the left-division table of the corrupted Cayley table is what finds
        # every mismatch; the corrupted entry itself reads the same on both sides
        H = _corruptions(group_groupoid(*cyclic_table(6)))["redirected-in-isotropy"]
        got = transitive_isomorphism_check(H)
        assert str(got) == str(_brute_force_transitive_check(H))
        assert [e.witness for e in got.errors if e.check == "structure-constants"] == [
            "delta product at (g1, g1)", "delta product at (g5, g1)",
            "delta product at (g5, g2)"]

    def test_arrow_that_does_not_factor_raises_alike(self):
        G = product(pair_groupoid("ab"), group_groupoid(*symmetric_table(3)))
        dec = decompose_transitive(G)
        a = next(a for a in range(G.n_arrows)
                 if G.tgt[a] != dec.base and G.src[a] != dec.base)
        first = G.inverse[dec.taus[G.tgt[a]]]
        keep = ~((G.compose_table[:, 0] == first) & (G.compose_table[:, 1] == a))
        H = _rebuilt(G, G.compose_table[keep])
        got = _outcome(transitive_isomorphism_check, H)
        assert got == _outcome(_brute_force_transitive_check, H)
        assert got.startswith("raised ValueError: arrow")

    def test_a_tolerance_of_one_hides_the_structure_constants(self):
        G = pair_groupoid("abc")
        for H in (_corruptions(G)["dropped"], _inverse_corruptions(G)["self-inverse"]):
            for atol in (0.5, 1.0):
                got = transitive_isomorphism_check(H, atol=atol)
                assert str(got) == str(_brute_force_transitive_check(H, atol=atol))

    def test_involution_scatters_no_arrow_deltas(self, monkeypatch):
        calls = []
        real = representations.tensor_of_function

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(representations, "tensor_of_function", counted)
        assert transitive_isomorphism_check(pair_groupoid("abcdef")).ok
        assert len(calls) <= 6  # the two random linear inputs only

    def test_no_delta_convolutions(self, monkeypatch):
        calls = []
        real = representations.table_convolve

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(representations, "table_convolve", counted)
        assert transitive_isomorphism_check(pair_groupoid("abcdef")).ok
        assert len(calls) <= 2


class TestFundamentalFamily:
    def test_all_indicators_span(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        mu = counting_haar(G)
        assert fundamental_family_check(G, mu, np.arange(G.n_arrows)[:, None]).ok

    def test_one_bisection_is_deficient(self):
        G = pair_groupoid("ab")
        rep = fundamental_family_check(G, counting_haar(G), [G.unit_of])
        assert [e.witness for e in rep.errors] == [
            "object a: rank 1 < fiber size 2", "object b: rank 1 < fiber size 2"]

    def test_bisection_images_span_pair_groupoids(self):
        from groupalg import enumerate_bisections
        from groupalg.bisections import arrow_array
        for n in (2, 3, 4):
            G = pair_groupoid([f"o{i}" for i in range(n)])
            S = arrow_array(G, enumerate_bisections(G))
            assert fundamental_family_check(G, counting_haar(G), S).ok

    def test_a_support_that_meets_a_fiber_twice_raises(self):
        # the count holds only when each member meets each fiber at most once
        G = pair_groupoid("ab")  # arrows 0 and 1 both run into a
        mu = counting_haar(G)
        with pytest.raises(ValueError, match="meets a target fiber twice"):
            fundamental_family_check(G, mu, [[0, 3], [0, 1]])
        with pytest.raises(ValueError, match="outside 0..3"):
            fundamental_family_check(G, mu, [[4]])
        with pytest.raises(ValueError, match="outside 0..3"):
            fundamental_family_check(G, mu, [[-1]])

    def test_an_empty_family_and_an_empty_fiber(self):
        G = disjoint_union(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
        mu = counting_haar(G)
        for empty in ([], np.empty((0, 2), dtype=np.intp)):
            assert [e.witness for e in fundamental_family_check(G, mu, empty).errors] == [
                f"object {G.objects[x]}: rank 0 < fiber size {len(G.target_fiber(x))}"
                for x in range(G.n_objects)]
        # object b has no arrow: one entry for its fiber and no rank
        H = FiniteGroupoid(["a", "b"], [0], [0], [(0, 0, 0)], [0], [0, None])
        for supports in ([[0]], []):
            got = fundamental_family_check(H, counting_haar(H), supports)
            want = svd_fundamental_family_check(H, counting_haar(H), indicators(H, supports))
            assert got.errors == want.errors
        assert [e.witness for e in got.errors] == [
            "object a: rank 0 < fiber size 1", "object b has an empty target fiber"]

    def test_the_count_gives_the_svd_oracles_witnesses(self):
        # arrow indicators, whole bisection-image families and subsets of
        # their rows, on seeded random groupoids with invariant weights
        from groupalg import enumerate_bisections
        from groupalg.bisections import arrow_array
        families = deficient = 0
        for seed in range(60):
            rng = SplitMix64(seed)
            G = random_groupoid(rng)
            mu = HaarSystem(random_invariant_weights(G, rng))
            arrows = np.arange(G.n_arrows)[:, None]
            tried = [arrows, arrows[units(rng.next_u64s(G.n_arrows)) < 0.8]]
            if math.prod(G.source_fibers.size.tolist()) <= 2000:
                S = arrow_array(G, enumerate_bisections(G))
                tried += [S, S[:1], S[:len(S) // 2]]
                tried += [S[units(rng.next_u64s(len(S))) < p] for p in (0.05, 0.3, 0.6)]
            for supports in tried:
                got = fundamental_family_check(G, mu, supports)
                want = svd_fundamental_family_check(G, mu, indicators(G, supports))
                assert got.errors == want.errors, (seed, len(supports))
                families += 1
                deficient += not got.ok
        assert families > 250 and 80 < deficient < families - 80, (families, deficient)

    def test_the_count_where_svd_rounding_drops_a_fiber_direction(self):
        # Haar weights by source, exactly left-invariant, 300 orders apart:
        # matrix_rank's tolerance, relative to the largest singular value
        # 1e75 of each fiber, drops 1 and 1e-75, so the SVD reads rank 1
        G = pair_groupoid("abc")
        weights = np.array([1e150, 1e-150, 1.0])[G.src]
        mu = HaarSystem(weights)
        arrows = np.arange(G.n_arrows)[:, None]
        assert fundamental_family_check(G, mu, arrows).ok
        assert [e.witness for e in svd_fundamental_family_check(
            G, mu, indicators(G, arrows)).errors] == [
                f"object {x}: rank 1 < fiber size 3" for x in "abc"]
        gdoc = GroupoidDocument(G, weights, None, "strict")
        with np.errstate(all="ignore"):
            run = run_battery(gdoc, seed=1, trials=4)
        [line] = [line for line in run.lines if line.name == "fundamental-family"]
        assert line.ok, line.render()
        assert line.detail.endswith("(arrow indicators and bisection images)")

    def test_both_families_of_pair32_in_under_a_megabyte(self):
        # A = 1,024: a dense identity family alone would be 16 MB
        G = pair_groupoid([f"o{i}" for i in range(32)])
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(2)))
        x = np.arange(32)
        S = np.stack([(x + i) % 32 * 32 + x for i in range(4)])  # row i sends x to x + i
        tracemalloc.start()
        try:
            arrows_ok = fundamental_family_check(G, mu, np.arange(G.n_arrows)[:, None]).ok
            images = fundamental_family_check(G, mu, S)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arrows_ok
        assert [e.witness for e in images.errors] == [
            f"object o{x}: rank 4 < fiber size 32" for x in range(32)]
        assert peak < 1 << 20, peak

    def test_the_svd_oracle_takes_the_rank_of_the_row_by_row_matrices(self, monkeypatch):
        # each rank is taken of exactly the matrix that one weighted row per
        # function, restricted to the fiber, made; an empty family has rank 0
        G = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                           group_groupoid(*cyclic_table(3)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(3)))
        family = [random_function(G, SplitMix64(i)) for i in range(5)]
        seen = []
        real = np.linalg.matrix_rank

        def recorded(M):
            seen.append(M)
            return real(M)
        monkeypatch.setattr(np.linalg, "matrix_rank", recorded)
        for fam in (family, np.array(family)):
            seen.clear()
            svd_fundamental_family_check(G, mu, fam)
            assert len(seen) == G.n_objects
            for x, M in enumerate(seen):
                fiber = list(G.target_fiber(x))
                root = np.sqrt(mu.weights[fiber])
                rows = np.array([np.asarray(f, dtype=complex)[fiber] * root for f in family])
                assert M.dtype == rows.dtype and np.array_equal(M, rows), x
        seen.clear()
        rep = svd_fundamental_family_check(G, mu, [])
        assert not seen
        assert [e.witness for e in rep.errors] == [
            f"object {G.objects[x]}: rank 0 < fiber size {len(G.target_fiber(x))}"
            for x in range(G.n_objects)]


def test_canonical_bundle_dims_match_fibers():
    G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
    mu = counting_haar(G)
    bundle = canonical_bundle(G, mu)
    assert bundle.dims == [len(G.target_fiber(x)) for x in range(G.n_objects)]
    assert bundle.total_dim == G.n_arrows


# ---------------------------------------------------------------------------
# the conjugated rep: per-object bounds against the dense check

def _check_groupoids():
    return {
        "pair1": pair_groupoid("a"),
        "pair4": pair_groupoid("abcd"),
        "pair2xZ3": product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3))),
        "pair3xS3": product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3))),
        "Z16": group_groupoid(*cyclic_table(16)),
        "union": disjoint_union(product(pair_groupoid("ab"), group_groupoid(*klein_table())),
                                pair_groupoid("x"), pair_groupoid("uvw")),
        **{f"random{seed}": random_groupoid(SplitMix64(seed), max_arrows=40)
           for seed in (2, 9)},
    }


def _conjugated(G, seed=71):
    """The left regular rep under random invariant weights, conjugated by a
    random unitary field."""
    rng = SplitMix64(seed)
    lrep = left_regular_rep(G, HaarSystem(random_invariant_weights(G, rng)))
    return conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))


def _corrupted_fields(G, conj):
    """conj with the first column of U_x scaled by 1.01 (V_x its inverse),
    and with one entry of V_x moved by 1e-6, at the last object x whose
    fiber has dimension 2 or more (else the last object)."""
    dims = conj.bundle.dims
    x = max((y for y in range(G.n_objects) if dims[y] > 1), default=G.n_objects - 1)
    field, inverses = list(conj.field), list(conj.inverses)
    field[x] = field[x] * np.r_[1.01, np.ones(dims[x] - 1)]
    inverses[x] = inverses[x].copy()
    inverses[x][0, 0] += 1e-6
    return {"non-unitary": conjugate_rep_on(G, conj.base, field),
            "moved-inverse": ConjugatedRep(conj.base, conj.field, tuple(inverses))}


def _failing_laws(report):
    return sorted({e.check for e in report.errors})


def _assert_dense_verdicts(G, conj):
    """The laws that check_representation fails on conj and on its
    corrupted fields at the accumulated tier are those the dense check fails.

    Where every fiber has dimension 1 (one-object orbits without isotropy),
    the non-unitary U_x is a multiple of a unitary, conjugating by it
    changes no op, and both checks pass it.
    """
    every = ["inverses", "multiplicativity", "unitarity", "units"]
    scaled = [] if max(conj.bundle.dims) == 1 else ["unitarity"]
    for kind, rep in {"clean": conj, **_corrupted_fields(G, conj)}.items():
        got = _failing_laws(check_representation(G, rep, atol=tolerances.ACCUM))
        want = _failing_laws(dense_check(G, dense_of(rep), atol=tolerances.ACCUM))
        assert got == want == {"clean": [], "non-unitary": scaled}.get(kind, every), kind


def _worst_by_law(G, rep):
    """The dense check's largest residual of each law on the stored ops."""
    units, _, mult, inverses, unitarity = dense_residuals(G, dense_of(rep))
    return [_worst(0.0, *r) for r in (units, mult, inverses, unitarity)]


def _bounds_by_law(G, rep):
    bounds = representations._conjugation_bounds(
        G, rep, representations._index_residuals(G, rep.base))
    return [_worst(0.0, *b.tolist()) for b in bounds]


class _Unreadable(Sequence):
    """Ops that raise when read."""

    def __len__(self):
        raise AssertionError("the ops were read")

    def __getitem__(self, a):
        raise AssertionError("the ops were read")


class TestConjugatedRep:
    @pytest.mark.parametrize("name", sorted(_check_groupoids()))
    @pytest.mark.parametrize("atol", [tolerances.EXACT, tolerances.ACCUM])
    def test_clean_fields_pass_as_in_the_dense_check(self, name, atol):
        G = _check_groupoids()[name]
        conj = _conjugated(G)
        assert [str(e) for e in check_representation(G, conj, atol=atol).entries] == [
            str(ReportEntry("measurability", "finite groupoid: every section is measurable",
                            "note"))]
        assert dense_check(G, dense_of(conj), atol=atol).ok
        bounds, worst = _bounds_by_law(G, conj), _worst_by_law(G, conj)
        assert all(w <= b <= tolerances.ACCUM / 2 for w, b in zip(worst, bounds)), name

    @pytest.mark.parametrize("name", sorted(_check_groupoids()))
    def test_corrupted_fields_fail_the_laws_the_dense_check_fails(self, name):
        G = _check_groupoids()[name]
        _assert_dense_verdicts(G, _conjugated(G))

    @pytest.mark.parametrize("label", sorted(benchmark_documents()))
    def test_the_dense_verdicts_on_the_benchmark_documents(self, label):
        # every transitive-ladder and mixed-small document at seeds 1-3, its
        # field drawn as the battery draws one
        for seed, doc in benchmark_documents()[label]:
            gdoc = parse_groupoid_document(doc, where=label)
            G, (mu, _) = gdoc.groupoid, gdoc.measures()
            lrep = left_regular_rep(G, mu)
            field = random_unitary_field(lrep.bundle.weights, SplitMix64(seed))
            _assert_dense_verdicts(G, conjugate_rep_on(G, lrep, field))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["U", "V"]), st.integers(0, 10 ** 6),
           st.integers(-16, -5))
    def test_the_bounds_bound_the_dense_residuals(self, seed, which, pick, size):
        # a bound below the dense check's residual could pass a rep the
        # dense check fails
        G = random_groupoid(SplitMix64(seed), max_arrows=36)
        conj = _conjugated(G, seed)
        x = pick % G.n_objects
        field, inverses = list(conj.field), list(conj.inverses)
        moved = field if which == "U" else inverses
        d = len(moved[x])
        moved[x] = moved[x] + 10.0 ** size * SplitMix64(pick).complex_boxes(d * d).reshape(d, d)
        rep = ConjugatedRep(conj.base, tuple(field), tuple(inverses))
        worst = _worst_by_law(G, rep)
        assert all(w <= b for w, b in zip(worst, _bounds_by_law(G, rep))), worst
        assert worst[1] <= generator_bound(G, dense_of(rep))
        for atol in (tolerances.EXACT, tolerances.ACCUM):
            if not dense_check(G, dense_of(rep), atol=atol).ok:
                assert not check_representation(G, rep, atol=atol).ok

    def test_the_check_reads_no_op(self, monkeypatch):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(4)))
        conj = _conjugated(G)
        reps = [conj, *_corrupted_fields(G, conj).values()]
        want = [check_representation(G, rep).entries for rep in reps]
        monkeypatch.setattr(ConjugatedRep, "ops", property(lambda rep: _Unreadable()))
        assert [check_representation(G, _fresh(rep)).entries for rep in reps] == want

    @pytest.mark.parametrize("name", sorted(_check_groupoids()))
    def test_the_field_terms_are_those_of_the_object_loop(self, name):
        G = _check_groupoids()[name]
        conj = _conjugated(G)
        np.testing.assert_allclose(representations._field_terms(G, conj),
                                   looped_field_terms(G, conj), rtol=1e-12, atol=1e-15)

    def test_a_failing_base_makes_every_bound_inf(self):
        # two rows of one op of the base swapped: at atol 1 the base passes
        # with residual 1, and only the bounds can fail the conjugated rep
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        conj = _conjugated(G)
        base, a = conj.base, int(np.flatnonzero(G.src != G.tgt)[0])
        rows = base.rows.copy()
        rows[base.starts[a]:base.starts[a] + 2] = rows[base.starts[a]:base.starts[a] + 2][::-1]
        rep = conjugate_rep_on(G, IndexRep(base.bundle, base.src, base.tgt, rows, base.starts),
                               conj.field)
        assert not dense_check(G, dense_of(rep), atol=1.0).ok
        for atol in (1e-9, 1.0):
            report = check_representation(G, rep, atol=atol)
            bounds = [e for e in report.errors if e.witness.startswith("conjugated ops")]
            assert [e.check for e in bounds] == [
                "units", "multiplicativity", "inverses", "unitarity"]
            assert all(e.residual == math.inf for e in bounds)
            assert (len(report.errors) > 4) == (atol < 1)

    def test_a_field_of_the_wrong_shape_is_refused(self):
        G = pair_groupoid("abc")
        lrep = left_regular_rep(G, counting_haar(G))
        for size in (2, 4):
            with pytest.raises(ShapeMismatch, match=rf"^the unitary at object a has shape "
                                                    rf"\({size}, {size}\), wants \(3, 3\)$"):
                conjugate_rep_on(G, lrep, [np.eye(size)] * 3)
        with pytest.raises(ShapeMismatch, match=r"object c has shape \(3, 2\)"):
            conjugate_rep_on(G, lrep, [np.eye(3), np.eye(3), np.eye(3, 2)])
        with pytest.raises(ShapeMismatch, match="one unitary per object"):
            conjugate_rep_on(G, lrep, [np.eye(3)] * 2)
        with pytest.raises(np.linalg.LinAlgError):
            conjugate_rep_on(G, lrep, [np.eye(3), np.zeros((3, 3)), np.eye(3)])

    @pytest.mark.parametrize("everywhere", [False, True])
    def test_a_nan_field_fails_every_law_as_in_the_dense_check(self, everywhere):
        G = pair_groupoid("abc")
        conj = _conjugated(G)
        field, inverses = list(conj.field), list(conj.inverses)
        for x in range(G.n_objects) if everywhere else [1]:
            field[x] = np.full_like(field[x], math.nan)
            inverses[x] = np.full_like(inverses[x], math.nan)
        rep = ConjugatedRep(conj.base, tuple(field), tuple(inverses))
        report = check_representation(G, rep)
        assert _failing_laws(report) == _failing_laws(dense_check(G, dense_of(rep))) == [
            "inverses", "multiplicativity", "unitarity", "units"]
        assert all(math.isnan(e.residual) for e in report.errors)
        assert report.errors[0].witness == \
            f"conjugated ops: the bound at object {'a' if everywhere else 'b'} exceeds atol"

    def test_the_ops_are_built_when_read(self):
        U = disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3))),
                           pair_groupoid([f"o{i}" for i in range(16)]))
        lrep = left_regular_rep(U, counting_haar(U))
        tracemalloc.start()
        try:
            conj = conjugate_rep_on(U, lrep, random_unitary_field(lrep.bundle.weights,
                                                                  SplitMix64(7)))
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            assert len(conj.ops) == U.n_arrows
            grew = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # the field and its inverses are kept, no op; len builds none
        assert held < sum(op.nbytes for op in conj.ops) / 4
        assert grew < 16 * 16 * 16  # the bytes of one op of the pair(16) orbit
        base, field, inverses = conj.base, conj.field, conj.inverses
        for a, (t, s) in enumerate(zip(U.tgt.tolist(), U.src.tolist())):
            want = field[t][:, base.rows[base.starts[a]:base.starts[a + 1]]] @ inverses[s]
            assert np.array_equal(conj.ops[a], want)
        assert np.array_equal(conj.ops[-1], conj.ops[U.n_arrows - 1])
        for a in (U.n_arrows, -U.n_arrows - 1):
            with pytest.raises(IndexError):
                conj.ops[a]

    @pytest.mark.parametrize("name", ["pair1", "Z16", "pair2"])
    def test_a_field_scaled_per_orbit_passes_as_in_the_dense_check(self, name):
        # U times 2 on pair("a") and times 1.01 on the one object of Z16
        # leave every op unitary; U_b alone times 1.01 on pair("ab") does not
        G, scale = {"pair1": (pair_groupoid("a"), [2.0]),
                    "Z16": (group_groupoid(*cyclic_table(16)), [1.01]),
                    "pair2": (pair_groupoid("ab"), [1.0, 1.01])}[name]
        lrep = left_regular_rep(G, counting_haar(G))
        field = random_unitary_field(lrep.bundle.weights, SplitMix64(3))
        rep = conjugate_rep_on(G, lrep, [u * c for u, c in zip(field, scale)])
        for atol in (tolerances.EXACT, tolerances.ACCUM):
            got = _failing_laws(check_representation(G, rep, atol=atol))
            assert got == _failing_laws(dense_check(G, dense_of(rep), atol=atol))
            assert got == (["unitarity"] if name == "pair2" else [])
        if name == "pair1":
            rep = conjugate_rep_on(G, lrep, [np.array([[2.0]])])
            assert check_representation(G, rep, atol=tolerances.EXACT).ok


# ---------------------------------------------------------------------------
# the index reps against the dense oracle

def _entries(report_entries):
    """Entries as text, so NaN residuals compare equal."""
    return [str(e) for e in report_entries]


def _index_and_dense(G, mu, atol=None):
    """The index check's entries of the left regular and trivial reps, and
    the dense check's; or what each build raised."""
    builds = {"left-regular": (lambda K: left_regular_rep(K, mu),
                               lambda K: _dense_left_regular_rep(K, mu)),
              "trivial": (trivial_rep, _dense_trivial_rep)}
    def outcome(check):
        try:
            return _entries(check())
        except ValueError as exc:  # the two builds must raise the same
            return f"raised {exc}"

    return {kind: (outcome(lambda: check_representation(G, index(G), atol=atol).entries),
                   outcome(lambda: dense_check(G, dense(G), atol=atol).entries))
            for kind, (index, dense) in builds.items()}


def _redirects(G, same_target):
    """Copies of G with one composite redirected, keyed by (row, new
    composite): to every arrow into the composite's target whose source
    differs from the second factor's (``same_target``), or else to the next
    arrow."""
    rows = G.compose_table[np.lexsort((G.compose_table[:, 1], G.compose_table[:, 0]))]
    out = {}
    for i, (a, b, c) in enumerate(rows.tolist()):
        if same_target:
            news = [d for d in G.target_fiber(G.tgt[c]) if G.src[d] != G.src[b]]
        else:
            news = [(c + 1) % G.n_arrows]
        for d in news:
            table = rows.copy()
            table[i, 2] = d
            out[i, d] = _rebuilt(G, table)
    return out


_UNION_SHAPES = [  # the unions of the benchmark's mixed-small workload
    [(3, "s3")], [(2, "z2"), (3, "z2"), (3, "klein")], [(1, "z3")], [(2, "1")],
    [(1, "s3"), (3, "z2")], [(1, "1"), (1, "s3"), (3, "z3")], [(4, "z3")],
    [(4, "z2"), (1, "z4"), (1, "z3")], [(3, "s3"), (2, "z2"), (1, "z2")], [(1, "1")],
    [(3, "z4"), (1, "z3"), (1, "z3")], [(2, "s3"), (1, "klein")],
]
def _union(shape):
    pieces = []
    for c, (k, group) in enumerate(shape):
        base = pair_groupoid([f"c{c}x{i}" for i in range(k)])
        group = None if group == "1" else group_groupoid(*_group_table(group))
        pieces.append(base if group is None else product(base, group))
    return pieces[0] if len(pieces) == 1 else disjoint_union(*pieces)


class TestIndexReps:
    def test_storage(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
        rep = left_regular_rep(G, counting_haar(G))
        assert isinstance(rep, IndexRep) and isinstance(trivial_rep(G), IndexRep)
        assert rep.starts.tolist() == [6 * a for a in range(G.n_arrows + 1)]
        assert not rep.rows.flags.writeable and not rep.starts.flags.writeable
        assert len(rep.ops) == G.n_arrows
        assert [op.tolist() for op in rep.ops] == \
            [op.tolist() for op in _dense_left_regular_rep(G, counting_haar(G)).ops]
        assert np.array_equal(rep.ops[-1], rep.ops[G.n_arrows - 1])
        with pytest.raises(IndexError):
            rep.ops[G.n_arrows]

    @pytest.mark.parametrize("name", sorted(_check_groupoids()))
    @pytest.mark.parametrize("atol", [None, 0.0, 1e-9])
    def test_clean_reports_match_the_dense_oracle(self, name, atol):
        G = _check_groupoids()[name]
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(71)))
        for kind, (index, dense) in _index_and_dense(G, mu, atol).items():
            assert index == dense, kind
            assert index == [str(ReportEntry("measurability", "finite groupoid: every "
                                             "section is measurable", "note"))]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["dropped", "redirected", "redirected-source", "weight"]),
           st.integers(0, 10 ** 6), st.sampled_from([2.0, 0.5, 1 + 2.0 ** -40]),
           st.sampled_from([None, 0.0, 1e-9, 1.0]))
    def test_corrupted_reports_match_the_dense_oracle(self, seed, kind, pick, scale, atol):
        G = random_groupoid(SplitMix64(seed), max_arrows=36)
        weights = random_invariant_weights(G, SplitMix64(seed + 1))
        rows = G.compose_table[np.lexsort((G.compose_table[:, 1], G.compose_table[:, 0]))]
        H = G
        if kind == "dropped":
            H = _rebuilt(G, np.delete(rows, pick % len(rows), axis=0))
        elif kind == "weight":
            weights = weights.copy()
            weights[pick % G.n_arrows] *= scale
        else:
            cases = _redirects(G, kind == "redirected-source") or _redirects(G, False)
            H = list(cases.values())[pick % len(cases)]
        for kind, (index, dense) in _index_and_dense(H, HaarSystem(weights), atol).items():
            assert index == dense, kind

    def test_every_redirect_to_another_source_matches_the_dense_oracle(self):
        # a composite into the right target fiber from the wrong source builds;
        # its op is compared column by column with the product of the factors
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(3)))
        cases = _redirects(G, True)
        assert len(cases) == 64
        for key, H in cases.items():
            got = _index_and_dense(H, mu)
            assert got["left-regular"][0] == got["left-regular"][1], key
            assert got["trivial"][0] == got["trivial"][1], key
            assert any("multiplicativity" in e for e in got["left-regular"][0]), key

    def test_an_inverse_into_a_smaller_fiber_has_residual_inf(self):
        # op(a) op(inverse a) would multiply a 2-column op by a 3-row one
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("xyz"))
        a = G.arrow_by_endpoints(0, 1)
        inverse = list(G.inverse)
        inverse[a] = G.arrow_by_endpoints(2, 3)
        H = _rebuilt(G, inverse=inverse)
        index, dense = _index_and_dense(H, counting_haar(H))["left-regular"]
        assert index == dense
        assert f"[error] inverses: op({H.arrow_ids[a]}) op({H.arrow_ids[inverse[a]]}) " \
               "!= identity (residual inf)" in index

    def test_a_non_finite_weight_matches_the_dense_oracle(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        weights = np.ones(G.n_arrows)
        weights[3] = math.inf
        mu = object.__new__(HaarSystem)  # HaarSystem itself refuses the weight
        object.__setattr__(mu, "weights", weights)
        with np.errstate(invalid="ignore"):
            index, dense = _index_and_dense(G, mu)["left-regular"]
        assert index == dense
        assert sum("unitarity" in e and "residual nan" in e for e in index) == 4

    @pytest.mark.parametrize("name", ["pair2.json", "pair3.json", "pair3-weighted.json",
                                      "pair4.json", "iso-z2.json", "two-orbit.json",
                                      *[f"union{i:02d}" for i in range(len(_UNION_SHAPES))]])
    def test_integrated_operators_equal_the_dense_ones(self, name):
        rng = SplitMix64(83)
        if name.endswith(".json"):
            gdoc = load_groupoid(os.path.join(os.path.dirname(__file__), os.pardir,
                                              "src", "groupalg", "fixtures", name))
            G, (mu, nu) = gdoc.groupoid, gdoc.measures()
        else:
            G = _union(_UNION_SHAPES[int(name[5:])])
            mu = HaarSystem(random_invariant_weights(G, rng))
            nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        pairs = [(left_regular_rep(G, mu), _dense_left_regular_rep(G, mu)),
                 (trivial_rep(G), _dense_trivial_rep(G))]
        for index, dense in pairs:
            for f in [random_function(G, rng), delta(G, G.n_arrows - 1), np.zeros(G.n_arrows)]:
                assert np.array_equal(integrate_rep(G, mu, nu, index, f),
                                      scatter_integrate(G, mu, nu, dense, f))

    def test_conjugation_equals_the_dense_conjugation(self):
        G = _union(_UNION_SHAPES[1])
        rng = SplitMix64(89)
        mu = HaarSystem(random_invariant_weights(G, rng))
        index = left_regular_rep(G, mu)
        field = random_unitary_field(index.bundle.weights, rng)
        got = conjugate_rep_on(G, index, field)
        ends = zip(_dense_left_regular_rep(G, mu).ops, G.tgt.tolist(), G.src.tolist())
        want = [field[t] @ op @ np.linalg.inv(field[s]) for op, t, s in ends]
        assert all(np.array_equal(x, y) for x, y in zip(got.ops, want, strict=True))
        assert all(np.array_equal(v, np.linalg.inv(u))
                   for u, v in zip(field, got.inverses, strict=True))
        assert got.base is index and got.bundle is index.bundle

    def test_the_first_op_of_the_wrong_shape_is_named_as_in_the_dense_check(self):
        G = pair_groupoid("abc")
        rep = left_regular_rep(G, counting_haar(G))
        starts = rep.starts.copy()
        starts[4] -= 1  # op(arrow 3) one column short, op(arrow 4) one too many
        bad = IndexRep(rep.bundle, rep.src, rep.tgt, rep.rows, starts)
        want = [("shape", f"op({G.arrow_ids[3]}) has shape (3, 2), wants (3, 3)")]
        assert [(e.check, e.witness) for e in dense_check(G, dense_of(bad)).entries] == want
        rows = rep.rows.copy()
        rows[0] = 9  # a row outside op(arrow 0)'s fiber comes after every shape
        for index in (bad, IndexRep(rep.bundle, rep.src, rep.tgt, rows, starts)):
            assert [(e.check, e.witness) for e in check_representation(G, index).entries] == want

    @pytest.mark.parametrize("kind, k, row", [
        ("left-regular", -1, 7), ("left-regular", 13, -1),
        ("trivial", -1, 1), ("trivial", 4, 1), ("trivial", 4, -1)])
    def test_a_row_outside_its_fiber_is_one_shape_entry(self, kind, k, row):
        # the row was read from a neighbouring op, or raised IndexError; the
        # check names the arrow, column and row and stops, for the rep and
        # for a rep conjugated from it, and every other reader of the rep
        # raises ShapeMismatch with the same witness
        G = pair_groupoid("abc")
        mu, nu = counting_haar(G), uniform_measure(G)
        rep = left_regular_rep(G, mu) if kind == "left-regular" else trivial_rep(G)
        rows = rep.rows.copy()
        rows[k] = row
        bad = IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
        k %= len(rows)
        a = int(np.searchsorted(rep.starts, k, side="right")) - 1
        d = rep.bundle.dims[G.tgt[a]]
        j = k - rep.starts[a]
        witness = f"has its 1 of column {j} in row {row}, wants rows 0..{d - 1}"
        want = [("shape", f"op({G.arrow_ids[a]}) {witness}")]
        eye = [np.eye(n) for n in rep.bundle.dims]
        good = conjugate_rep_on(G, rep, eye)
        conj = ConjugatedRep(bad, good.field, good.inverses)
        for r in (bad, conj):
            assert [(e.check, e.witness) for e in check_representation(G, r).entries] == want
        assert not representations._multiplicative_by_generators(G, bad)
        f = np.ones(G.n_arrows)
        for read in (lambda: conjugate_rep_on(G, bad, eye),
                     lambda: integrated_blocks(G, mu, nu, bad, f),
                     lambda: integrate_rep(G, mu, nu, bad, f)):
            with pytest.raises(ShapeMismatch, match=re.escape(want[0][1])):
                read()
        with pytest.raises(ShapeMismatch, match=re.escape(f"op({a}) {witness}")):
            bad.ops[a]
        assert all(np.array_equal(bad.ops[b], rep.ops[b]) for b in range(G.n_arrows) if b != a)

    def test_the_shape_witness_is_found_once_per_rep_and_groupoid(self, monkeypatch):
        G = pair_groupoid("abc")
        mu, nu = counting_haar(G), uniform_measure(G)
        found = []
        real = representations._first_shape_fault

        def counted(G, rep):
            found.append(G)
            return real(G, rep)
        monkeypatch.setattr(representations, "_first_shape_fault", counted)
        rep = left_regular_rep(G, mu)
        assert check_representation(G, rep).ok
        integrate_rep(G, mu, nu, rep, np.ones(G.n_arrows))
        conjugate_rep_on(G, rep, [np.eye(3)] * 3)
        assert len(found) == 1
        H = pair_groupoid("abc")  # another groupoid object asks again
        integrate_rep(H, mu, nu, rep, np.ones(G.n_arrows))
        assert len(found) == 2 and found[1] is H

    def test_build_check_and_integrate_build_no_dense_op(self, monkeypatch):
        def refuse(self, a):
            raise AssertionError(f"op({a}) built densely")
        monkeypatch.setattr(IndexRep, "dense_op", refuse)
        G = pair_groupoid([f"o{i}" for i in range(12)])
        rng = SplitMix64(97)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        for rep in (left_regular_rep(G, mu), trivial_rep(G)):
            assert len(rep.ops) == G.n_arrows
            assert check_representation(G, rep).ok
            assert np.isfinite(integrate_rep(G, mu, nu, rep, random_function(G, rng))).all()
        with pytest.raises(AssertionError, match="built densely"):
            left_regular_rep(G, mu).ops[0]

    def test_cyclic_256_passes_on_its_generator_pairs_in_seconds(self, monkeypatch):
        # a dense check multiplied all 65,536 pairs of 256 x 256 matrices;
        # the left regular rep of a table the certificate proves associative
        # is multiplicative by its translation proof, so a passing rep
        # compares no pair, not even a generator's; one corrupted op fails
        # that proof and sends the check to the 256 pairs of each generator,
        # then to all 65,536 pairs, with the witnesses of that scan
        G = group_groupoid(*cyclic_table(256))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(101)))
        scanned, compared, by_generators = [], [], []
        real_products, real_gaps = FiniteGroupoid.products, representations._column_gaps
        real_generators = representations._multiplicative_by_generators

        def products(self):
            out = real_products(self)
            scanned.append(len(out[0]))
            return out

        def column_gaps(ok, width, lhs, rhs):
            compared.append(len(width))
            return real_gaps(ok, width, lhs, rhs)

        def multiplicative_by_generators(G, rep):
            by_generators.append(rep)
            return real_generators(G, rep)
        monkeypatch.setattr(FiniteGroupoid, "products", products)
        monkeypatch.setattr(representations, "_column_gaps", column_gaps)
        monkeypatch.setattr(representations, "_multiplicative_by_generators",
                            multiplicative_by_generators)
        rep = left_regular_rep(G, mu)
        start = time.perf_counter()
        report = check_representation(G, rep)
        assert time.perf_counter() - start < 10
        gens = G.certificate().generators.tolist()
        assert G.certificate().associative
        assert report.ok and scanned == [] and by_generators == [] and compared == [1, 256]

        a = next(a for a in range(G.n_arrows) if a not in gens)
        bad = _swapped(rep, a)
        scanned.clear()
        compared.clear()
        report = check_representation(G, bad)
        assert by_generators == [bad]
        assert scanned == [256 ** 2] and compared == [1, 256 * len(gens), 256 ** 2, 256]
        x, y = G.arrow_ids[a], G.arrow_ids[1]
        assert f"op({x} o {y}) != op({x}) op({y})" in [e.witness for e in report.errors]
        monkeypatch.setattr(representations, "_index_residuals", scanned_index_residuals)
        assert report.entries == check_representation(G, _swapped(rep, a)).entries


def _swapped(rep, a):
    """A copy of rep with the rows of the first two columns of op(a)
    swapped, which swaps those two rows of the op; op(a) itself where it
    has fewer than two columns."""
    rows, lo = rep.rows.copy(), rep.starts[a]
    if rep.starts[a + 1] - lo >= 2:
        rows[[lo, lo + 1]] = rows[[lo + 1, lo]]
    return IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)


def _first_difference(got, want):
    """The first line at which two texts differ, with both lines, or None;
    a short message where a report of thousands of entries fails."""
    pairs = enumerate(itertools.zip_longest(got.splitlines(), want.splitlines()))
    return next(((i, g, w) for i, (g, w) in pairs if g != w), None)


def _fresh(rep):
    """rep with no index residuals kept from an earlier check."""
    if isinstance(rep, ConjugatedRep):
        return dataclasses.replace(rep, base=_fresh(rep.base))
    return dataclasses.replace(rep)


class TestGeneratorPairs:
    """Multiplicativity proved from the generator pairs against the scan of
    every composable pair (``oracles.scanned_index_residuals``)."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32),
           st.sampled_from(["generator", "non-generator", "unit", "redirected", "outside"]),
           st.integers(0, 10 ** 6), st.sampled_from([None, 1.0]))
    def test_reports_equal_those_of_the_scan(self, seed, kind, pick, atol):
        G = random_groupoid(SplitMix64(seed), max_arrows=36)
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(seed + 1)))
        H, reps = G, [left_regular_rep(G, mu), trivial_rep(G)]
        gens = G.certificate().generators.tolist()
        pools = {"generator": gens,
                 "non-generator": [a for a in range(G.n_arrows) if a not in gens],
                 "unit": G.unit_of}
        if kind in pools and pools[kind]:
            a = pools[kind][pick % len(pools[kind])]
            reps = [_swapped(rep, a) for rep in reps]
        elif kind == "redirected":  # into the right fiber from the wrong source, if any
            cases = list(_redirects(G, True).values())
            H = cases[pick % len(cases)] if cases else \
                list(_redirects(G, False).values())[pick % G.n_arrows]
            assert not cases or not H.certificate().associative
        elif kind == "outside":  # one entry below 0 or past its op's rows
            for i, rep in enumerate(reps):
                rows, k = rep.rows.copy(), pick % len(rep.rows)
                a = int(np.searchsorted(rep.starts, k, side="right")) - 1
                rows[k] = rep.bundle.dims[G.tgt[a]] if pick % 2 else -1
                reps[i] = IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
        for rep in reps:
            field = random_unitary_field(rep.bundle.weights, SplitMix64(seed))
            formed = representations._shape_fault(H, rep) is None
            if formed:
                conj = conjugate_rep_on(H, rep, field)
            else:  # which refuses the rep; its laws are checked all the same
                with pytest.raises(ShapeMismatch):
                    conjugate_rep_on(H, rep, field)
                conj = ConjugatedRep(rep, tuple(field), tuple(map(np.linalg.inv, field)))
            proved = representations._multiplicative_by_generators(H, rep)
            assert not proved or formed
            if formed:  # the premises hold, and no pair fails, exactly when proved
                mult = scanned_index_residuals(H, rep)[3]
                assert proved == (H.certificate().associative and not mult.any())
            for r in (rep, conj):
                def lines(K):
                    return "\n".join(_entries(check_representation(K, _fresh(r), atol).entries))
                got = _outcome(lines, H)
                with pytest.MonkeyPatch.context() as patch:
                    patch.setattr(representations, "_index_residuals", scanned_index_residuals)
                    want = _outcome(lines, H)
                diff = _first_difference(got, want)
                assert diff is None, kind
            bounds = [_outcome(lambda K: representations._conjugation_bounds(
                K, conj, residuals(K, _fresh(rep))).tolist(), H)
                for residuals in (representations._index_residuals, scanned_index_residuals)]
            assert bounds[0] == bounds[1], kind


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _corrupted_rep(G, rep, kind, pick):
    """rep with one op's first two rows swapped, with a row repeated inside
    one op of two or more columns, or with one fiber weight moved by 1.25;
    rep itself for any other kind, or where no op has two columns."""
    if kind == "swapped":
        return _swapped(rep, pick % G.n_arrows)
    wide = np.flatnonzero(np.diff(rep.starts) >= 2)
    if kind == "duplicated" and len(wide):
        rows, lo = rep.rows.copy(), rep.starts[wide[pick % len(wide)]]
        rows[lo + 1] = rows[lo]
        return IndexRep(rep.bundle, rep.src, rep.tgt, rows, rep.starts)
    if kind == "weight":
        weights = [w.copy() for w in rep.bundle.weights]
        x = pick % G.n_objects
        weights[x][pick % len(weights[x])] *= 1.25
        return IndexRep(HilbertBundle(rep.bundle.dims, weights), rep.src, rep.tgt, rep.rows,
                        rep.starts)
    return rep


class TestProvedResiduals:
    """The index residuals, with multiplicativity proved for the left
    regular rep from its translation proof and the shared rows sorted only
    for the ops no exact inverse law shows injective, against the oracle
    that asks the generator pairs or scans every pair and sorts every entry
    (``oracles.generator_index_residuals``), array for array."""

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2 ** 32), st.sampled_from(["none", "swapped", "duplicated",
                                                      "weight", "inverse"]),
           st.integers(0, 10 ** 6), st.sampled_from(["associative", "redirected", "loop"]))
    def test_residual_arrays_equal_the_oracle(self, seed, kind, pick, table):
        G = random_groupoid(SplitMix64(seed), max_arrows=36)
        if table == "loop":  # labels with correct endpoints that do not associate
            G = disjoint_union(G, product(pair_groupoid("pq"),
                                          group_groupoid([f"l{i}" for i in range(5)], _LOOP5)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(seed + 1)))
        reps = [_corrupted_rep(G, rep, kind, pick)
                for rep in (left_regular_rep(G, mu), trivial_rep(G))]
        H = G
        if table == "redirected":  # one composite sent into its target from another source
            rows = G.compose_table.copy()
            a, b, c = rows[pick % len(rows)]
            news = [d for d in G.target_fiber(G.tgt[c]) if G.src[d] != G.src[b]]
            rows[pick % len(rows), 2] = news[pick % len(news)] if news else (c + 1) % G.n_arrows
            H = _rebuilt(G, rows)
        if kind == "inverse":  # one arrow's inverse moved to the next arrow
            inverse = G.inverse.copy()
            a = pick % G.n_arrows
            inverse[a] = (inverse[a] + 1) % G.n_arrows
            H = _rebuilt(H, inverse=inverse)
        if table != "redirected" and kind != "inverse":
            assert H.certificate().associative == (table == "associative")
        for rep in reps:
            if representations._shape_fault(H, rep) is not None:
                continue
            got = representations._index_residuals(H, _fresh(rep))
            want = generator_index_residuals(H, _fresh(rep))
            for g, w in zip(got, want, strict=True):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(g, w, equal_nan=True), kind

    def test_the_left_regular_rep_of_an_associative_table_asks_no_generator_pair(
            self, monkeypatch):
        asked = []
        real = representations._multiplicative_by_generators

        def by_generators(G, rep):
            asked.append(rep)
            return real(G, rep)
        monkeypatch.setattr(representations, "_multiplicative_by_generators", by_generators)
        for G in (pair_groupoid("abcd"), group_groupoid(*cyclic_table(12)),
                  product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3))),
                  random_groupoid(SplitMix64(5), max_arrows=64)):
            mu = HaarSystem(random_invariant_weights(G, SplitMix64(6)))
            assert G.certificate().associative
            rep, other = left_regular_rep(G, mu), trivial_rep(G)
            assert check_representation(G, rep).ok and asked == []
            assert check_representation(G, other).ok and asked == [other]
            asked.clear()

    def test_a_valid_rep_sorts_no_shared_row(self, monkeypatch):
        # every op of a valid rep has its exact inverse law, so none is sorted
        # for shared rows; a row repeated in op(a) breaks the inverse laws of
        # a and a^-1 and sends the entries of those two ops, and no other, to
        # the sort, which finds the row
        sorted_sizes = []

        class CountedNumpy:  # numpy as representations reads it, np.sort counted
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def sort(a, *args, **kwargs):
                sorted_sizes.append(np.size(a))
                return np.sort(a, *args, **kwargs)
        monkeypatch.setattr(representations, "np", CountedNumpy())
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(8)))
        for rep in (left_regular_rep(G, mu), trivial_rep(G)):
            assert check_representation(G, rep).ok and sorted_sizes == [0]
            sorted_sizes.clear()
        rep = left_regular_rep(G, mu)
        a = 4
        assert G.inverse[a] != a
        bad = _corrupted_rep(G, rep, "duplicated", a)
        assert bad.rows[bad.starts[a] + 1] == bad.rows[bad.starts[a]]
        report = check_representation(G, bad)
        assert sorted_sizes == [2 * 9]  # two ops of nine columns
        witness = f"op({G.arrow_ids[a]}) is not unitary for the fiber weights"
        assert report.errors[-1].witness == witness


# ---------------------------------------------------------------------------
# integrated operators by blocks against the dense scatter and loops

def _measured(name, rng):
    """A fixture or a mixed-small union shape, with its Haar system and nu."""
    if name.endswith(".json"):
        gdoc = load_groupoid(os.path.join(os.path.dirname(__file__), os.pardir,
                                          "src", "groupalg", "fixtures", name))
        return gdoc.groupoid, *gdoc.measures()
    G = _union(_UNION_SHAPES[int(name[5:])])
    return (G, HaarSystem(random_invariant_weights(G, rng)),
            QuasiInvariantMeasure(random_probability(G.n_objects, rng)))


_MEASURED = ["pair2.json", "pair3.json", "pair3-weighted.json", "pair4.json", "iso-z2.json",
             "two-orbit.json", *[f"union{i:02d}" for i in range(len(_UNION_SHAPES))]]


def _reps_of(G, mu):
    return {"left-regular": left_regular_rep(G, mu), "trivial": trivial_rep(G)}


def _functions(G, rng):
    """A random function, one with every third value 0, a delta and zero."""
    sparse = random_function(G, rng)
    sparse[::3] = 0
    return np.array([random_function(G, rng), sparse, delta(G, G.n_arrows - 1),
                     np.zeros(G.n_arrows)])


class TestIntegratedBlocks:
    @pytest.mark.parametrize("name", _MEASURED)
    def test_integrate_rep_equals_the_dense_scatter(self, name):
        rng = SplitMix64(83)
        G, mu, nu = _measured(name, rng)
        for kind, rep in _reps_of(G, mu).items():
            fs = _functions(G, rng)
            for f in fs:
                assert np.array_equal(integrate_rep(G, mu, nu, rep, f),
                                      scatter_integrate(G, mu, nu, rep, f)), kind
            # one stack, whose rows use different arrows
            dense = integrated_blocks(G, mu, nu, rep, fs).dense()
            assert all(np.array_equal(d, scatter_integrate(G, mu, nu, rep, f))
                       for d, f in zip(dense, fs, strict=True)), kind

    @pytest.mark.parametrize("per_batch", [1, 2, 3])
    def test_the_scatter_batches_change_no_bit(self, per_batch, monkeypatch):
        # batches of one, two or three of the stack's four functions
        rng = SplitMix64(87)
        G, mu, nu = _measured("union07", rng)
        for kind, rep in _reps_of(G, mu).items():
            fs = _functions(G, rng)
            whole = integrated_blocks(G, mu, nu, rep, fs).dense()
            monkeypatch.setattr(representations, "_SCATTER_BATCH", len(rep.rows) * per_batch)
            assert np.array_equal(integrated_blocks(G, mu, nu, rep, fs).dense(), whole), kind
            assert all(np.array_equal(d, scatter_integrate(G, mu, nu, rep, f))
                       for d, f in zip(whole, fs, strict=True)), kind
            monkeypatch.undo()

    @pytest.mark.parametrize("name", _MEASURED)
    def test_index_blocks_are_the_support_blocks(self, name):
        # with f > 0 no two terms cancel, so the support of the operator
        # is every entry of the ops
        G, mu, nu = _measured(name, SplitMix64(89))
        for rep in (left_regular_rep(G, mu), trivial_rep(G)):
            op = integrated_blocks(G, mu, nu, rep, np.ones(G.n_arrows))
            got = sorted(p.tolist() for positions, _ in op.groups for p in positions)
            support = support_blocks(op.dense()[0])
            assert all(np.array_equal(r, c) for r, c in support)
            assert got == sorted(r.tolist() for r, _ in support)
            assert rep.blocks is rep.blocks  # computed once per rep

    def test_left_regular_blocks_are_the_source_objects(self):
        G = product(pair_groupoid("abcd"), group_groupoid(*symmetric_table(3)))
        mu = counting_haar(G)
        op = integrated_blocks(G, mu, uniform_measure(G), left_regular_rep(G, mu),
                               np.ones(G.n_arrows))
        [(positions, data)] = op.groups
        assert positions.shape == (4, 4 * 6) and data.shape == (1, 4, 24, 24)
        # the trivial rep of a transitive groupoid is one block of all objects
        [(positions, _)] = integrated_blocks(G, mu, uniform_measure(G), trivial_rep(G),
                                             np.ones(G.n_arrows)).groups
        assert positions.tolist() == [list(range(4))]

    @pytest.mark.parametrize("name", ["two-orbit.json", "union01", "union07", "union10"])
    def test_products_adjoints_gaps_and_norms_agree_with_the_dense_matrices(self, name):
        rng = SplitMix64(97)
        G, mu, nu = _measured(name, rng)
        for kind, rep in _reps_of(G, mu).items():
            ops = integrated_blocks(G, mu, nu, rep, _functions(G, rng)[:3])
            dense = ops.dense()
            assert len(ops) == 3 and len(ops[1:3]) == 2
            assert np.abs((ops @ ops).dense() - dense @ dense).max() <= 1e-13, kind
            assert np.array_equal(ops.adjoint().dense(),
                                  [adjoint_operator(d, rep.bundle, nu) for d in dense]), kind
            assert np.array_equal(ops[:2].gaps(ops[1:]),
                                  np.abs(dense[:2] - dense[1:]).max(axis=(1, 2))), kind
            for norm, d in zip(ops.norms(), dense, strict=True):
                assert norm == pytest.approx(_dense_operator_norm(d, rep.bundle, nu),
                                             rel=1e-12, abs=1e-15), kind

    def test_a_non_finite_entry_makes_its_norm_nan(self):
        G = pair_groupoid("abcd")
        rng = SplitMix64(101)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = uniform_measure(G)
        f = random_function(G, rng)
        bad = f.copy()
        bad[5] = complex(math.inf, 0.0)
        for rep in (trivial_rep(G), left_regular_rep(G, mu)):
            with np.errstate(invalid="ignore"):
                norms = integrated_blocks(G, mu, nu, rep, [f, bad, f]).norms()
                want = operator_norm(integrate_rep(G, mu, nu, rep, f), rep.bundle, nu)
            assert norms[0] == norms[2] == pytest.approx(want, rel=1e-12)
            assert math.isnan(norms[1])
            with np.errstate(invalid="ignore"):
                ops = integrated_blocks(G, mu, nu, rep, [f, bad, f])
                gaps = ops.gaps(ops[::-1])
            assert gaps[0] == gaps[2] == 0.0
            assert math.isnan(gaps[1])

    def test_operators_on_different_blocks_do_not_combine(self):
        G = pair_groupoid("abc")
        mu, nu = counting_haar(G), uniform_measure(G)
        f = np.ones(G.n_arrows)
        ops = integrated_blocks(G, mu, nu, left_regular_rep(G, mu), f)
        other = integrated_blocks(G, mu, nu, trivial_rep(G), f)
        with pytest.raises(ShapeMismatch):
            ops @ other
        with pytest.raises(ShapeMismatch):
            ops.gaps(other)

    def test_stacks_of_two_lengths_other_than_one_do_not_combine(self):
        # a raw numpy broadcast error before; a stack of one still pairs with any
        G = pair_groupoid("abc")
        mu, nu = counting_haar(G), uniform_measure(G)
        rng = SplitMix64(105)
        for rep in (left_regular_rep(G, mu), trivial_rep(G)):
            ops = integrated_blocks(G, mu, nu, rep, [random_function(G, rng) for _ in range(3)])
            for other in (ops[:2], ops[1:]):
                with pytest.raises(ShapeMismatch, match="^stacks of 3 and 2 block operators$"):
                    ops @ other
                with pytest.raises(ShapeMismatch, match="^stacks of 2 and 3 block operators$"):
                    other.gaps(ops)
            one, repeated = ops[1:2], ops[[1, 1, 1]]
            assert np.array_equal((ops @ one).dense(), (ops @ repeated).dense())
            assert np.array_equal((one @ ops).dense(), (repeated @ ops).dense())
            assert np.array_equal(one.gaps(ops), repeated.gaps(ops))
            assert one.gaps(ops)[1] == 0.0

    def test_operators_with_different_nu_rows_do_not_combine(self):
        # a product in one geometry of operators made in two would be neither's
        G = disjoint_union(pair_groupoid("ab"), product(pair_groupoid("cd"),
                                                        group_groupoid(*cyclic_table(2))))
        rng = SplitMix64(107)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nus = [uniform_measure(G), QuasiInvariantMeasure(random_probability(G.n_objects, rng))]
        fs = rng.complex_boxes(4 * G.n_arrows).reshape(4, G.n_arrows)
        for rep in (left_regular_rep(G, mu), trivial_rep(G)):
            ops = integrated_blocks(G, mu, nus, rep, fs)  # two per measure
            apart = [integrated_blocks(G, mu, nu, rep, f) for nu, f in zip(nus, (fs[:2], fs[2:]))]
            for a, b in ((ops[:2], ops[2:]), (ops[[0, 2]], ops[[3, 1]]), tuple(apart),
                         (apart[0], ops[2:]), (ops[2:3], apart[0])):
                with pytest.raises(ShapeMismatch, match="^block operators with different nu rows$"):
                    a @ b
                with pytest.raises(ShapeMismatch, match="^block operators with different nu rows$"):
                    a.gaps(b)
            # operators row by row in one geometry pair, a shared row with a
            # stack of rows equal to it too
            assert np.array_equal((ops[[0, 2]] @ ops[[1, 3]]).dense(),
                                  (ops[[0, 2]] @ ops[[1, 3]][::-1][::-1]).dense())
            assert np.array_equal((ops[:2] @ apart[0]).dense(), (apart[0] @ apart[0]).dense())
            assert np.array_equal(apart[1].gaps(ops[2:]), [0.0, 0.0])

    def test_a_stack_splits_into_one_block_per_measure(self):
        G = pair_groupoid("abc")
        mu, nu = counting_haar(G), uniform_measure(G)
        fs = np.ones((3, G.n_arrows))
        for nus, k in (([nu, nu], 3), ([], 3)):
            with pytest.raises(ShapeMismatch, match=f"^a stack of {k} functions does not split "
                                                    f"into one block per measure of {len(nus)}$"):
                integrated_blocks(G, mu, nus, trivial_rep(G), fs)

    def test_an_empty_bundle(self):
        empty = BlockPartition.of(np.zeros(0, dtype=int))
        ops = BlockOperator(np.zeros(0), np.zeros(0), empty, (), 3)
        assert ops.dense().shape == (3, 0, 0)
        assert ops.norms().tolist() == [0.0, 0.0, 0.0]
        assert ops.gaps(ops).tolist() == [0.0, 0.0, 0.0]

    def test_norm_bound_check_makes_no_dense_operator(self, monkeypatch):
        def refuse(self):
            raise AssertionError("dense operator built")
        monkeypatch.setattr(BlockOperator, "dense", refuse)
        G = pair_groupoid([f"o{i}" for i in range(6)])
        rng = SplitMix64(103)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        for rep in (trivial_rep(G), left_regular_rep(G, mu)):
            assert operator_norm_bound_check(G, mu, nu, rep, random_function(G, rng)).ok
