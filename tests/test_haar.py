"""Haar systems and the convolution algebra, checked against brute-force sums."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import haar
from groupalg import (FiniteGroupoid, HaarSystem, check_left_invariance, convolve,
                      counting_haar, delta, fiber_integrate,
                      function_to_matrix, half_density_inner, i_norm, involute,
                      source_haar, support_fiber_mass, table_convolve, unit_function)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               pair_groupoid, product, symmetric_table)
from groupalg.errors import ShapeMismatch
from groupalg.haar import check_haar_positivity
from groupalg.orbits import orbit_matrices
from groupalg.randgen import (SplitMix64, random_function, random_groupoid,
                              random_invariant_weights)

from oracles import arrow_sum_inner, fiber_sum_i_norm


def brute_force_convolve(G, weights, f, g):
    """Oracle: sum f(a) g(b) weight(a) over every factorization a o b = c."""
    out = np.zeros(G.n_arrows, dtype=complex)
    for a, b, c in G.compose_table.tolist():
        out[c] += f[a] * g[b] * weights[a]
    return out


class TestHaarSystems:
    def test_counting_all_ones_and_invariant(self):
        for G in (pair_groupoid("abc"),
                  product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))):
            mu = counting_haar(G)
            assert np.all(mu.weights == 1.0)
            assert check_left_invariance(G, mu).ok

    def test_isotropy_bundle_counting(self):
        from groupalg import isotropy_bundle
        xi = isotropy_bundle(product(pair_groupoid("ab"),
                                     group_groupoid(*cyclic_table(2))))
        assert check_left_invariance(xi, counting_haar(xi)).ok

    def test_source_weights_invariant(self):
        G = pair_groupoid("abc")
        mu = source_haar(G, [0.5, 1.5, 2.5])
        assert check_left_invariance(G, mu).ok

    def test_perturbation_detected_with_witness(self):
        G = pair_groupoid("abc")
        w = source_haar(G, [0.5, 1.5, 2.5]).weights.copy()
        target = G.arrow_by_endpoints(0, 1)
        w[target] += 1e-6
        rep = check_left_invariance(G, HaarSystem(w))
        assert not rep.ok
        assert any(G.arrow_ids[target] in e.witness for e in rep.errors)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            HaarSystem(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_weights_are_refused(self, bad):
        weights = np.ones(9)
        weights[4] = bad
        [entry] = check_haar_positivity(weights).errors
        assert entry.witness == ("a Haar weight is not finite" if bad == np.inf
                                 else "a Haar weight is not strictly positive")
        with pytest.raises(ValueError, match="a Haar weight is not"):
            HaarSystem(weights)
        assert check_haar_positivity(np.ones(9)).ok

    def test_left_invariance_fails_on_a_nan_residual(self):
        # inf - inf is NaN: the judgment must read NaN as a failure; the
        # system is built around HaarSystem, which refuses these weights
        G = pair_groupoid("abc")
        mu = object.__new__(HaarSystem)
        object.__setattr__(mu, "weights", np.full(G.n_arrows, np.inf))
        with np.errstate(invalid="ignore"):
            rep = check_left_invariance(G, mu)
        assert not rep.ok
        assert len(rep.errors) == len(G.products()[0])
        assert all(np.isnan(e.residual) for e in rep.errors)


class TestFiberIntegrate:
    def test_ones_pair3_counting(self):
        G = pair_groupoid("abc")
        fo = fiber_integrate(G, counting_haar(G), np.ones(9))
        assert np.allclose(fo, 3.0)

    def test_zero(self):
        G = pair_groupoid("abc")
        assert np.all(fiber_integrate(G, counting_haar(G), np.zeros(9)) == 0)

    def test_indicator_lands_at_target(self):
        G = pair_groupoid("ab")
        mu = source_haar(G, [2.0, 3.0])
        a = G.arrow_by_endpoints(0, 1)  # b -> a
        fo = fiber_integrate(G, mu, delta(G, a))
        assert fo[0] == mu.weights[a] and fo[1] == 0


class TestConvolve:
    def test_z2_group_algebra(self):
        Z2 = group_groupoid(*cyclic_table(2))
        mu = counting_haar(Z2)
        e, g = 0, 1
        got = convolve(Z2, mu, delta(Z2, g), delta(Z2, g))
        assert np.allclose(got, delta(Z2, e))

    def test_matrix_oracle_pair_groupoids(self):
        rng = SplitMix64(2024)
        for n in (2, 3, 4):
            G = pair_groupoid([f"o{i}" for i in range(n)])
            mu = counting_haar(G)
            for _ in range(5):
                f = random_function(G, rng)
                g = random_function(G, rng)
                got = function_to_matrix(G, convolve(G, mu, f, g))
                want = function_to_matrix(G, f) @ function_to_matrix(G, g)
                assert np.abs(got - want).max() <= 1e-12

    def test_unit_delta_restricts_to_fiber(self):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        x = G.object_index("b")
        rng = SplitMix64(5)
        g = random_function(G, rng)
        got = convolve(G, mu, delta(G, G.unit_of[x]), g)
        for a in range(G.n_arrows):
            want = g[a] if G.tgt[a] == x else 0.0
            assert abs(got[a] - want) <= 1e-12

    def test_against_brute_force_on_varied_groupoids(self):
        rng = SplitMix64(99)
        groupoids = [
            pair_groupoid("ab"),
            product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3))),
            disjoint_union(pair_groupoid("ab"), group_groupoid(*cyclic_table(4))),
        ]
        for G in groupoids:
            w = random_invariant_weights(G, rng)
            mu = HaarSystem(w)
            for _ in range(4):
                f = random_function(G, rng)
                g = random_function(G, rng)
                got = convolve(G, mu, f, g)
                want = brute_force_convolve(G, w, f, g)
                assert np.abs(got - want).max() <= 1e-12

    def test_associativity_brute(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rng = SplitMix64(123)
        mu = HaarSystem(random_invariant_weights(G, rng))
        f, g, h = (random_function(G, rng) for _ in range(3))
        lhs = convolve(G, mu, convolve(G, mu, f, g), h)
        rhs = convolve(G, mu, f, convolve(G, mu, g, h))
        assert np.abs(lhs - rhs).max() <= 1e-9

    def test_unit_function_two_sided(self):
        G = pair_groupoid("abc")
        rng = SplitMix64(7)
        mu = HaarSystem(random_invariant_weights(G, rng))
        u = unit_function(G, mu)
        f = random_function(G, rng)
        assert np.abs(convolve(G, mu, u, f) - f).max() <= 1e-12
        assert np.abs(convolve(G, mu, f, u) - f).max() <= 1e-12


class TestStacks:
    """A (k, A) stack goes row by row, each row as a single call."""

    @pytest.mark.parametrize("seed", [3, 17])
    def test_stacked_convolve_equals_single_calls(self, seed):
        G = random_groupoid(SplitMix64(seed), max_arrows=40)
        rng = SplitMix64(seed)
        mu = HaarSystem(random_invariant_weights(G, rng))
        F = np.array([random_function(G, rng) for _ in range(5)])
        Gs = np.array([random_function(G, rng) for _ in range(5)])
        got = convolve(G, mu, F, Gs)
        assert got.shape == F.shape
        assert all(np.array_equal(got[i], convolve(G, mu, F[i], Gs[i])) for i in range(5))
        one = convolve(G, mu, F[0], Gs)  # a single function against a stack
        assert all(np.array_equal(one[i], convolve(G, mu, F[0], Gs[i])) for i in range(5))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 6))
    def test_stacked_i_norm_equals_single_calls(self, seed, k):
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=40)
        mu = HaarSystem(random_invariant_weights(G, rng))
        F = rng.complex_boxes(k * G.n_arrows).reshape(k, G.n_arrows)
        got = i_norm(G, mu, F)
        assert got.shape == (k,)
        assert [x.tobytes() for x in got] == [np.float64(i_norm(G, mu, f)).tobytes() for f in F]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 3))
    def test_stacked_convolve_over_several_chunks_equals_single_calls(self, seed, k, rows):
        # a budget of one row's terms takes single calls; of two or three
        # rows', chunks, the last one possibly short
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=40)
        mu = HaarSystem(random_invariant_weights(G, rng))
        F = rng.complex_boxes(k * G.n_arrows).reshape(k, G.n_arrows)
        Gs = rng.complex_boxes(k * G.n_arrows).reshape(k, G.n_arrows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(haar, "_TERM_BATCH", rows * len(G.compose_table))
            got, one = table_convolve(G, mu, F, Gs), table_convolve(G, mu, F[0], Gs)
        assert got.tobytes() == np.array([table_convolve(G, mu, f, g)
                                          for f, g in zip(F, Gs)]).tobytes()
        assert one.tobytes() == np.array([table_convolve(G, mu, F[0], g) for g in Gs]).tobytes()

    def test_stacked_involute_equals_single_calls(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3)))
        rng = SplitMix64(5)
        F = np.array([random_function(G, rng) for _ in range(4)])
        got = involute(G, F)
        assert all(np.array_equal(got[i], involute(G, F[i])) for i in range(4))

    def test_empty_stack_and_bad_shapes(self):
        G = pair_groupoid("ab")
        mu = counting_haar(G)
        assert convolve(G, mu, np.zeros((0, 4)), np.zeros((0, 4))).shape == (0, 4)
        with pytest.raises(ShapeMismatch, match=r"expected \(4,\) or \(k, 4\)"):
            convolve(G, mu, np.zeros((2, 5)), np.zeros((2, 5)))
        for bad in (np.zeros((2, 5)), np.zeros((2, 2, 4))):
            with pytest.raises(ShapeMismatch, match=r"expected \(4,\) or \(k, 4\)"):
                i_norm(G, mu, bad)
        assert i_norm(G, mu, np.zeros((0, 4))).shape == (0,)
        with pytest.raises(ShapeMismatch):
            half_density_inner(G, mu, np.zeros((2, 4)), np.zeros((2, 4)))  # one function


def _rounding_bound(G, mu, f, g):
    """8 gamma_(2m+2) (|f| w * |g|) per output, m the largest target fiber:
    each path is within sqrt(2) 2 gamma_(2m+2) of the exact sum of its m
    complex terms (each component is a sum of 2m real products, Higham,
    *Accuracy and Stability*, 3.1 and 3.6), and the two gaps add."""
    m = int(G.target_fibers.size.max(initial=0))
    u = np.finfo(float).eps / 2
    gamma = (2 * m + 2) * u / (1 - (2 * m + 2) * u)
    return 8 * gamma * table_convolve(G, mu, np.abs(f), np.abs(g)).real


class TestOrbitMatrices:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6))
    def test_convolve_equals_the_table_sum_to_rounding(self, seed, k):
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=48)
        mu = HaarSystem(random_invariant_weights(G, rng))
        F, Gs = rng.complex_boxes(2 * k * G.n_arrows).reshape(2, k, G.n_arrows)
        blocks = orbit_matrices(G)
        assert not len(blocks.rest[0])  # every orbit of a groupoid is verified
        assert sum(right.size for right in blocks.right) == G.n_arrows
        gap = np.abs(convolve(G, mu, F, Gs) - table_convolve(G, mu, F, Gs))
        assert (gap <= _rounding_bound(G, mu, F, Gs)).all()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 9), st.integers(1, 3))
    def test_stack_rows_equal_single_calls_bit_for_bit(self, seed, k, rows):
        # a budget of one row's matrix entries takes one row a chunk; of two
        # or three rows', chunks, the last one possibly short
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=40)
        mu = HaarSystem(random_invariant_weights(G, rng))
        F, Gs = rng.complex_boxes(2 * k * G.n_arrows).reshape(2, k, G.n_arrows)
        entries = max(left[0].size for left in orbit_matrices(G).left)
        for budget in (haar._TERM_BATCH, rows * entries):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(haar, "_TERM_BATCH", budget)
                got, one = convolve(G, mu, F, Gs), convolve(G, mu, F[0], Gs)
            assert got.tobytes() == np.array([convolve(G, mu, f, g)
                                              for f, g in zip(F, Gs)]).tobytes()
            assert one.tobytes() == np.array([convolve(G, mu, F[0], g) for g in Gs]).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_shuffled_table_rows_leave_the_result_unchanged(self, seed, shuffle):
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=48)
        mu = HaarSystem(random_invariant_weights(G, rng))
        f, g = rng.complex_boxes(2 * G.n_arrows).reshape(2, G.n_arrows)
        order = np.random.default_rng(shuffle).permutation(len(G.compose_table))
        H = FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table[order], G.inverse,
                           G.unit_of, G.arrow_ids)
        assert convolve(H, mu, f, g).tobytes() == convolve(G, mu, f, g).tobytes()

    def test_the_matrices_are_the_factorization(self):
        # pair(2) x Z3: the arrow (x, h, y) sits at right[0, x |H| + h, y],
        # and left[0, (x, h), (y, k)] is (x, h k^-1, y)
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
        [left], [right] = orbit_matrices(G).left, orbit_matrices(G).right
        assert left.shape == (1, 6, 6) and right.shape == (1, 6, 2)
        tau = [min(a for a in range(G.n_arrows) if G.src[a] == 0 and G.tgt[a] == x)
               for x in range(2)]
        loops = [a for a in range(G.n_arrows) if G.src[a] == G.tgt[a] == 0]
        for x in range(2):
            for h in range(3):
                for y in range(2):
                    a = G.compose(G.compose(tau[x], loops[h]), G.inverse[tau[y]])
                    assert right[0, 3 * x + h, y] == a
                    for k in range(3):
                        hk = G.compose(loops[h], G.inverse[loops[k]])
                        b = G.compose(G.compose(tau[x], hk), G.inverse[tau[y]])
                        assert left[0, 3 * x + h, 3 * y + k] == b

    @pytest.mark.parametrize("corrupt", ["dropped", "redirected", "off-domain"])
    def test_an_orbit_the_table_does_not_bear_out_takes_the_table_sum(self, corrupt):
        # pair(3) x S3 beside pair(2): corrupting a row of the first orbit
        # sends its rows to the table sum, bit for bit, and leaves the other
        # orbit a matrix product
        G = disjoint_union(product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3))),
                           pair_groupoid("de"))
        table = G.compose_table.copy()
        if corrupt == "dropped":
            table = table[1:]
        elif corrupt == "redirected":
            table[5, 2] = table[6, 2]
        else:  # a row on a pair that does not compose
            table = np.vstack([table, [0, G.n_arrows - 1, 0]])
        H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of, G.arrow_ids)
        blocks = orbit_matrices(H)
        assert [right.shape for right in blocks.right] == [(1, 2, 2)]
        assert sorted(blocks.rest[1].tolist()) == sorted(
            a for a, _, _ in H.compose_table.tolist() if a < 54)
        rng = SplitMix64(9)
        mu = counting_haar(H)
        f, g = rng.complex_boxes(2 * H.n_arrows).reshape(2, H.n_arrows)
        got, want = convolve(H, mu, f, g), table_convolve(H, mu, f, g)
        assert got[:54].tobytes() == want[:54].tobytes()
        assert np.abs(got - want).max() <= 1e-14

    @pytest.mark.parametrize("table", [
        # the first loop a two-sided unit, every other product the second:
        # the labels are a bijection and every pair has one row, but right
        # multiplication does not permute the loops
        [[a, b, a + b if 0 in (a, b) else 1] for a in range(3) for b in range(3)],
        # the first loop absorbs from the left, so tau_x^-1 o a o tau_y is
        # the first loop for every a: two arrows share one label
        [[a, b, 0 if a == 0 else 2] for a in range(3) for b in range(3)],
    ], ids=["not-a-group-table", "labels-collide"])
    def test_a_one_object_table_the_loops_do_not_bear_out_takes_the_table_sum(self, table):
        G = FiniteGroupoid(["x"], [0] * 3, [0] * 3, table, [0, 1, 2], [0])
        blocks = orbit_matrices(G)
        assert blocks.left == () and len(blocks.rest[0]) == 9
        f, g = np.arange(3) + 1j, np.arange(3) - 2j
        mu = counting_haar(G)
        assert convolve(G, mu, f, g).tobytes() == table_convolve(G, mu, f, g).tobytes()

    def test_empty_groupoids(self):
        for G in (FiniteGroupoid([], [], [], [], [], []),
                  FiniteGroupoid(["x"], [], [], [], [], [None])):
            mu = HaarSystem(np.ones(0))
            assert convolve(G, mu, np.zeros(0), np.zeros(0)).shape == (0,)
            assert convolve(G, mu, np.zeros((3, 0)), np.zeros((3, 0))).shape == (3, 0)


class TestInvolute:
    def test_swap_and_conjugate(self):
        G = pair_groupoid("ab")
        a_xy = G.arrow_by_endpoints(0, 1)
        a_yx = G.arrow_by_endpoints(1, 0)
        f = 1j * delta(G, a_xy)
        fs = involute(G, f)
        assert fs[a_yx] == -1j and fs[a_xy] == 0

    def test_real_symmetric_fixed(self):
        G = pair_groupoid("abc")
        rng = SplitMix64(11)
        f = np.real(random_function(G, rng)).astype(complex)
        f = (f + f[np.asarray(G.inverse)]) / 2
        assert np.abs(involute(G, f) - f).max() == 0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_double_involution(self, seed):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        f = random_function(G, SplitMix64(seed))
        assert np.abs(involute(G, involute(G, f)) - f).max() == 0

    def test_antihomomorphism(self):
        G = pair_groupoid("abc")
        rng = SplitMix64(13)
        mu = HaarSystem(random_invariant_weights(G, rng))
        f, g = random_function(G, rng), random_function(G, rng)
        lhs = involute(G, convolve(G, mu, f, g))
        rhs = convolve(G, mu, involute(G, g), involute(G, f))
        assert np.abs(lhs - rhs).max() <= 1e-12


class TestINorm:
    def test_ones_pair2(self):
        G = pair_groupoid("ab")
        assert i_norm(G, counting_haar(G), np.ones(4)) == 2.0

    def test_delta_counting(self):
        G = pair_groupoid("abc")
        assert i_norm(G, counting_haar(G), delta(G, 1)) == 1.0

    @pytest.mark.parametrize("arrow", [-1, -4, 4, 5])
    def test_delta_outside_the_arrows_raises(self, arrow):
        # never Python's negative indexing: delta(G, -1) is not the indicator of a03
        with pytest.raises(ValueError, match=rf"arrow index {arrow} .* 0\.\.3$"):
            delta(pair_groupoid("ab"), arrow)

    def test_fiber_sum_oracle(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        rng = SplitMix64(17)
        w = random_invariant_weights(G, rng)
        mu = HaarSystem(w)
        f = random_function(G, rng)
        t_side = max(sum(abs(f[a]) * w[a] for a in G.target_fiber(x))
                     for x in range(G.n_objects))
        s_side = max(sum(abs(f[a]) * w[G.inverse[a]] for a in G.source_fiber(x))
                     for x in range(G.n_objects))
        assert abs(i_norm(G, mu, f) - max(t_side, s_side)) <= 1e-15

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-4, 4, allow_nan=False), st.integers(0, 2 ** 16))
    def test_homogeneity(self, c, seed):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        f = random_function(G, SplitMix64(seed))
        assert abs(i_norm(G, mu, c * f) - abs(c) * i_norm(G, mu, f)) <= 1e-9

    def test_involution_isometry_and_submultiplicativity(self):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
        rng = SplitMix64(19)
        mu = HaarSystem(random_invariant_weights(G, rng))
        for _ in range(10):
            f, g = random_function(G, rng), random_function(G, rng)
            assert abs(i_norm(G, mu, involute(G, f)) - i_norm(G, mu, f)) <= 1e-12
            assert i_norm(G, mu, convolve(G, mu, f, g)) <= \
                i_norm(G, mu, f) * i_norm(G, mu, g) + 1e-9


class TestHalfDensityInner:
    def test_definiteness(self):
        G = pair_groupoid("ab")
        mu = counting_haar(G)
        rng = SplitMix64(23)
        f = random_function(G, rng)
        v = half_density_inner(G, mu, f, f)
        assert abs(v.imag) <= 1e-12 and v.real > 0
        assert half_density_inner(G, mu, np.zeros(4), np.zeros(4)) == 0

    def test_disjoint_supports_orthogonal(self):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        assert half_density_inner(G, mu, delta(G, 0), delta(G, 5)) == 0

    def test_frobenius_match(self):
        G = pair_groupoid("abc")
        mu = counting_haar(G)
        rng = SplitMix64(29)
        f, g = random_function(G, rng), random_function(G, rng)
        frob = np.sum(function_to_matrix(G, f) * np.conj(function_to_matrix(G, g)))
        assert abs(half_density_inner(G, mu, f, g) - frob) <= 1e-12


def test_support_fiber_mass_bounds_inorm():
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
    rng = SplitMix64(31)
    mu = HaarSystem(random_invariant_weights(G, rng))
    support = [a for a in range(G.n_arrows) if rng.random() < 0.5] or [0]
    mass = support_fiber_mass(G, mu, support)
    for _ in range(5):
        f = np.zeros(G.n_arrows, dtype=complex)
        for a in support:
            f[a] = rng.complex_box()
        assert i_norm(G, mu, f) <= mass * np.abs(f).max() + 1e-12


class TestINormDefinition:
    """The I-norm layer against its definition, on random unions of
    transitive groupoids with left-invariant random weights."""

    @staticmethod
    def _case(seed):
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=48)
        return G, HaarSystem(random_invariant_weights(G, rng)), rng

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_i_norm_is_the_largest_fiber_sum(self, seed):
        G, mu, rng = self._case(seed)
        for f in (random_function(G, rng), random_function(G, rng).real,
                  np.zeros(G.n_arrows)):
            want = fiber_sum_i_norm(G, mu, f)
            assert i_norm(G, mu, f) == pytest.approx(want, rel=1e-13, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_an_arrow_indicator_has_the_larger_of_its_two_weights(self, seed):
        G, mu, _ = self._case(seed)
        w = mu.weights
        for a in range(G.n_arrows):
            assert i_norm(G, mu, delta(G, a)) == max(w[a], w[G.inverse[a]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_support_fiber_mass_is_the_i_norm_of_the_indicator(self, seed, draw):
        G, mu, _ = self._case(seed)
        pick = np.random.default_rng(draw)
        support = np.flatnonzero(pick.random(G.n_arrows) < pick.random())
        indicator = np.zeros(G.n_arrows)
        indicator[support] = 1.0
        mass = support_fiber_mass(G, mu, support.tolist())
        assert mass == i_norm(G, mu, indicator)
        assert mass == pytest.approx(fiber_sum_i_norm(G, mu, indicator), rel=1e-13, abs=0.0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_the_weight_pairing_is_hermitian_and_its_sum(self, seed):
        # exactly Hermitian, complex functions included, and <f, f> exactly real
        G, mu, rng = self._case(seed)
        f, g = random_function(G, rng), random_function(G, rng)
        for f, g in ((f, g), (f.real + 0j, g.imag + 0j), (f, f)):
            fg, gf = half_density_inner(G, mu, f, g), half_density_inner(G, mu, g, f)
            scale = float(np.sum(np.abs(f) * np.abs(g) * mu.weights))
            assert fg == gf.conjugate()
            assert abs(fg - arrow_sum_inner(G, mu, f, g)) <= 1e-13 * scale
        assert half_density_inner(G, mu, f, f).imag == 0


@pytest.mark.parametrize("support, bad", [([-1], -1), ([4], 4), ((0, 3, 5, -2), 5)])
def test_support_fiber_mass_outside_the_arrows_raises(support, bad):
    # never Python's negative indexing: [-1] is not the support {a03}, of mass 1.0
    with pytest.raises(ValueError, match=rf"^arrow index {bad} .* 0\.\.3$"):
        support_fiber_mass(pair_groupoid("ab"), counting_haar(pair_groupoid("ab")), support)
