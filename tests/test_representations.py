"""Bundle representations, integration, norm bounds, transitive isomorphism."""

import numpy as np
import pytest

from groupalg import (HaarSystem, NotTransitive, QuasiInvariantMeasure,
                      ShapeMismatch, adjoint_operator, canonical_bundle,
                      check_representation, conjugate_rep_on, convolve,
                      counting_haar, decompose_transitive, delta,
                      fundamental_family_check, i_norm, induced_measures,
                      integrate_rep, involute, left_regular, left_regular_rep,
                      transitive_isomorphism_check, operator_norm,
                      operator_norm_bound_check, trivial_rep,
                      uniform_measure)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               pair_groupoid, product)
from groupalg.randgen import (SplitMix64, random_function,
                              random_invariant_weights, random_probability,
                              random_unitary_field)
from groupalg.representations import BundleRep, bundle_metric


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
        for x in range(3):
            M = left_regular(G, mu, G.unit_of[x])
            assert np.array_equal(M, np.eye(3))

    def test_pair2_permutation_matrix(self):
        G = pair_groupoid("ab")
        mu = counting_haar(G)
        a_ab = G.arrow_by_endpoints(0, 1)  # arrow b -> a
        M = left_regular(G, mu, a_ab)
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
        for a, b, c in sorted(G.compose_table.tolist())[:50]:
            lhs = left_regular(G, mu, c)
            rhs = left_regular(G, mu, a) @ left_regular(G, mu, b)
            assert np.array_equal(lhs, rhs)

    def test_full_axioms_zero_residual(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        mu = HaarSystem(random_invariant_weights(G, SplitMix64(5)))
        rep = left_regular_rep(G, mu)
        assert check_representation(G, rep, atol=0.0).ok

    def test_transposed_matrix_detected(self):
        # on Z3 the translation matrices are genuine 3-cycles, so a transpose
        # is the inverse matrix and breaks multiplicativity
        G = group_groupoid(*cyclic_table(3))
        mu = counting_haar(G)
        rep = left_regular_rep(G, mu)
        ops = list(rep.ops)
        bad_arrow = 1
        assert not np.array_equal(ops[bad_arrow], ops[bad_arrow].T)
        ops[bad_arrow] = ops[bad_arrow].T.copy()
        report = check_representation(G, BundleRep(rep.bundle, ops))
        assert not report.ok
        assert any(G.arrow_ids[bad_arrow] in e.witness for e in report.errors)


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
            lhs = integrate_rep(G, mu, nu, conj, f)
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


class TestFundamentalFamily:
    def test_all_indicators_span(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        mu = counting_haar(G)
        fam = [delta(G, a) for a in range(G.n_arrows)]
        assert fundamental_family_check(G, mu, fam).ok

    def test_single_constant_deficient(self):
        G = pair_groupoid("ab")
        rep = fundamental_family_check(G, counting_haar(G), [np.ones(4)])
        assert not rep.ok
        assert any("rank 1" in e.witness for e in rep.errors)

    def test_bisection_images_span_pair_groupoids(self):
        from groupalg import enumerate_bisections
        for n in (2, 3, 4):
            G = pair_groupoid([f"o{i}" for i in range(n)])
            mu = counting_haar(G)
            family = []
            for s in enumerate_bisections(G):
                ind = np.zeros(G.n_arrows, dtype=complex)
                for a in s.arrows:
                    ind[a] = 1.0
                family.append(ind)
            assert fundamental_family_check(G, mu, family).ok


def test_canonical_bundle_dims_match_fibers():
    G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
    mu = counting_haar(G)
    bundle = canonical_bundle(G, mu)
    assert bundle.dims == [len(G.target_fiber(x)) for x in range(G.n_objects)]
    assert bundle.total_dim == G.n_arrows
