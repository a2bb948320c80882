"""Bundle representations, integration, norm bounds, transitive isomorphism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import representations, tolerances
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
                               klein_table, pair_groupoid, product,
                               symmetric_table)
from groupalg.groupoid import FiniteGroupoid
from groupalg.randgen import (SplitMix64, random_function, random_groupoid,
                              random_invariant_weights, random_probability,
                              random_unitary_field)
from groupalg.report import Report
from groupalg.representations import (BundleRep, HilbertBundle, bundle_metric,
                                      support_blocks, tensor_of_function)


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

    def test_a_composite_leaving_the_fiber_is_named(self):
        G = pair_groupoid("abc")
        ab, bc, ba = (G.arrow_by_endpoints(t, s) for t, s in ((0, 1), (1, 2), (1, 0)))
        table = [[a, b, ba if (a, b) == (ab, bc) else c]
                 for a, b, c in G.compose_table.tolist()]
        bad = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of)
        aid = G.arrow_ids
        with pytest.raises(ValueError, match=rf"^{aid[ab]} o {aid[bc]} = {aid[ba]} "
                                             r"leaves the target fiber of a$"):
            left_regular(bad, counting_haar(bad), ab)

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


def _norm_groupoids():
    out = {f"pair{k}": pair_groupoid([f"o{i}" for i in range(k)]) for k in (1, 2, 4, 6)}
    for k in (1, 2, 3):
        out[f"pair{k}xS3"] = product(pair_groupoid([f"o{i}" for i in range(k)]),
                                     group_groupoid(*symmetric_table(3)))
    for seed in (3, 11, 29):
        out[f"random{seed}"] = random_groupoid(SplitMix64(seed), max_arrows=40)
    return out


class TestBlockOperatorNorm:
    @pytest.mark.parametrize("name", list(_norm_groupoids()))
    def test_integrated_reps_agree_with_the_dense_svd(self, name):
        G = _norm_groupoids()[name]
        rng = SplitMix64(61)
        mu = HaarSystem(random_invariant_weights(G, rng))
        nu = QuasiInvariantMeasure(random_probability(G.n_objects, rng))
        lrep = left_regular_rep(G, mu)
        conj = conjugate_rep_on(G, lrep, random_unitary_field(lrep.bundle.weights, rng))
        for rep in (trivial_rep(G), lrep, conj):
            for _ in range(3):
                f = random_function(G, rng)
                norm = _assert_norms_agree(integrate_rep(G, mu, nu, rep, f), rep.bundle, nu)
                assert norm <= i_norm(G, mu, f) + 1e-12

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
    """The isomorphism check by convolving every pair of arrow deltas and
    multiplying their images: the oracle for transitive_isomorphism_check."""
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
            lhs = tensor_of_function(G, dec, convolve(G, counting, fa, delta(G, b)))
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
        lhs = tensor_of_function(G, dec, convolve(G, counting, f, g))
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
        real = representations.convolve

        def counted(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)
        monkeypatch.setattr(representations, "convolve", counted)
        assert transitive_isomorphism_check(pair_groupoid("abcdef")).ok
        assert len(calls) <= 2


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
