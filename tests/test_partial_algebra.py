"""Structure tables: star compatibility, multipliers, ideal closure, extraction."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import (ShapeMismatch, UndefinedProduct, build_from_relation,
                      check_star_compatibility, extract_relation,
                      ideal_closure_check, matrix_units_table,
                      multiplier_subspace, validate)
from groupalg.partial_algebra import StructureTable, _multiplier_indices

from oracles import (DictStructureTable, dict_extract_relation, dict_ideal_closure_check,
                     dict_multiplier_indices, dict_star_compatibility)


def declared(T) -> dict:
    """The table's domain as a dict {(i, j): coefficient vector}."""
    return {divmod(int(k), T.dim): c for k, c in zip(T.keys, T.coeffs)}


def expand_matrix_product(m, i, j):
    """Oracle for the matrix-unit table: multiply actual matrix units."""
    a, b = divmod(i, m)
    c, d = divmod(j, m)
    lhs = np.zeros((m, m))
    lhs[a, b] = 1.0
    rhs = np.zeros((m, m))
    rhs[c, d] = 1.0
    return (lhs @ rhs).reshape(-1)


class TestStarCompatibility:
    def test_m2_units_clean_via_expansion_oracle(self):
        T = matrix_units_table(2)
        assert len(declared(T)) == 16
        for (i, j), coeff in declared(T).items():
            assert np.allclose(np.asarray(coeff).real, expand_matrix_product(2, i, j))
            assert np.allclose(np.asarray(coeff).imag, 0.0)
        assert check_star_compatibility(T).ok

    def test_commutative_identity_star(self):
        coeff = {(i, j): np.eye(2)[0] * 0 for i in range(2) for j in range(2)}
        coeff[(0, 0)] = np.array([1.0, 0.0])
        coeff[(1, 1)] = np.array([0.0, 1.0])
        coeff[(0, 1)] = coeff[(1, 0)] = np.array([0.0, 0.0])
        T = StructureTable(2, coeff, [(0, 1.0), (1, 1.0)])
        assert check_star_compatibility(T).ok

    def test_corrupted_star_names_witness(self):
        T = matrix_units_table(2)
        star = list(zip(T.star_index, T.star_phase))
        star[0] = (0, -1.0)  # flip a diagonal phase; still involutive
        bad = StructureTable(T.dim, declared(T), star)
        rep = check_star_compatibility(bad)
        assert not rep.ok
        assert any("(e1, e1)" in e.witness for e in rep.errors)

    def test_domain_not_star_closed_reported(self):
        coeff = {(0, 0): np.array([1.0, 0.0]), (0, 1): np.array([0.0, 1.0])}
        T = StructureTable(2, coeff, [(0, 1.0), (1, 1.0)])
        rep = check_star_compatibility(T)
        assert any(e.check == "domain-not-star-closed" for e in rep.entries)

    def test_complex_phase_star(self):
        # 1-dim: e1 e1 = 0 so any unit phase is compatible
        T = StructureTable(1, {(0, 0): np.array([0.0])}, [(0, 1j)])
        assert check_star_compatibility(T).ok


class TestStructureTableInvariants:
    def test_star_must_be_involutive(self):
        with pytest.raises(ValueError):
            StructureTable(2, {}, [(1, 1.0), (0, -1.0)])  # phases do not cancel

    def test_star_phase_modulus(self):
        with pytest.raises(ValueError):
            StructureTable(1, {}, [(0, 2.0)])

    @pytest.mark.parametrize("dim, coeff, pair", [
        (1, {(0, 0): [np.nan]}, "(e1, e1)"),
        (1, {(0, 0): [np.inf]}, "(e1, e1)"),
        (2, {(0, 0): [0, 0], (0, 1): [1, 0], (1, 0): [0, complex(0, np.nan)]},
         "(e2, e1)"),  # in a product of the ideal element e1
    ], ids=["nan", "inf", "nan-in-ideal-product"])
    def test_non_finite_coefficients_rejected(self, dim, coeff, pair):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=re.escape(f"coefficients of {pair} must be finite")):
                StructureTable(dim, coeff, [(i, 1.0) for i in range(dim)])

    def test_length_is_checked_before_finiteness(self):
        with pytest.raises(ValueError, match="must have length 2"):
            StructureTable(2, {(0, 0): [np.nan]}, [(0, 1.0), (1, 1.0)])

    @pytest.mark.parametrize("phase", [np.nan, np.inf, complex(1, np.nan), complex(np.inf, 0)])
    def test_non_finite_phase_rejected(self, phase):
        with pytest.raises(ValueError, match="^star phase of e1 must have unit modulus$"):
            StructureTable(1, {(0, 0): [0.0]}, [(0, phase)])

    def test_arrays_are_read_only_and_copied(self):
        v = np.array([0.0, 1.0], dtype=complex)
        T = StructureTable(2, {(0, 0): v, (0, 1): v, (1, 0): np.zeros(2)},
                           [(0, 1.0), (1, 1.0)])
        assert not ideal_closure_check(T).ok
        for a in (T.keys, T.coeffs, T.star_index, T.star_phase):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[-1]
        v[:] = 0.0  # the caller's vector is not the table's
        assert not ideal_closure_check(T).ok

    def test_indices_equal_after_int_keep_the_last_vector_as_a_dict_does(self):
        coeff = {(0, 0): [1.0], (0.5, 0): [2.0]}
        T = StructureTable(1, coeff, [(0, 1.0)])
        assert T.keys.tolist() == [0] and T.coeffs.tolist() == [[2.0]]
        assert declared(T).keys() == DictStructureTable(1, coeff, [(0, 1.0)]).coeff.keys()

    def test_antilinear_double_application_on_vectors(self):
        T = matrix_units_table(2)
        rng = np.random.default_rng(3)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert np.allclose(T.star_vector(T.star_vector(v)), v, atol=1e-12)


class TestMultiplierSubspace:
    def test_total_domain_full_rank(self):
        T = matrix_units_table(2)
        assert multiplier_subspace(T, "left").rank == 4
        assert multiplier_subspace(T, "right").rank == 4

    def test_empty_domain_rank_zero(self):
        T = StructureTable(3, {}, [(i, 1.0) for i in range(3)])
        assert multiplier_subspace(T, "left").rank == 0
        assert multiplier_subspace(T, "right").rank == 0

    def test_cross_domain_rank_one_each_side(self):
        n = 3
        coeff = {}
        for j in range(n):
            coeff[(0, j)] = np.zeros(n)
            coeff[(j, 0)] = np.zeros(n)
        T = StructureTable(n, coeff, [(i, 1.0) for i in range(n)])
        left = multiplier_subspace(T, "left")
        right = multiplier_subspace(T, "right")
        assert left.rank == 1 and right.rank == 1
        assert left.vectors[0][0] == 1.0 and right.vectors[0][0] == 1.0

    def test_star_exchanges_sides(self):
        # star-closed domain: left multiplier indices map onto right ones
        n = 2
        coeff = {(0, j): np.zeros(n) for j in range(n)}
        coeff[(1, 0)] = np.zeros(n)
        star = [(1, 1.0), (0, 1.0)]  # swaps e1 and e2
        # star closure demands (star j, star i) in domain for each (i, j)
        coeff[(1, 1)] = np.zeros(n)
        coeff[(0, 1)] = np.zeros(n)
        T = StructureTable(n, coeff, star)
        assert check_star_compatibility(T).ok
        pairs = declared(T)
        left_idx = {i for i in range(n)
                    if all((i, j) in pairs for j in range(n))}
        right_idx = {i for i in range(n)
                     if all((j, i) in pairs for j in range(n))}
        assert {T.star_index[i] for i in left_idx} == right_idx


class TestIdealClosure:
    def test_m2_all_multipliers_clean(self):
        assert ideal_closure_check(matrix_units_table(2)).ok

    def test_constructed_escape_witness(self):
        # e1 is the only two-sided multiplier; e1 e2 escapes onto e3
        n = 3
        coeff = {}
        for j in range(n):
            coeff[(0, j)] = np.zeros(n)
            coeff[(j, 0)] = np.zeros(n)
        coeff[(0, 1)] = np.array([0.0, 0.0, 1.0])
        T = StructureTable(n, coeff, [(i, 1.0) for i in range(n)])
        rep = ideal_closure_check(T)
        assert not rep.ok
        assert any("e1" in e.witness and "e2" in e.witness and "e3" in e.witness
                   for e in rep.errors)

    def test_empty_domain_vacuous(self):
        T = StructureTable(3, {}, [(i, 1.0) for i in range(3)])
        assert ideal_closure_check(T).ok

    def test_each_pair_reported_once(self):
        # (e1, e1) is both (i, j) and (j, i) for the ideal element e1
        coeff = {(0, 0): [0.0, 1.0], (0, 1): [0.0, 0.0], (1, 0): [0.0, 0.0]}
        T = StructureTable(2, coeff, [(0, 1.0), (1, 1.0)])
        assert str(ideal_closure_check(T)) == (
            "multiplier-ideal: 1 violation(s)\n"
            "  [error] ideal-closure: product (e1, e1) has support on e2 outside the ideal")


class TestExtractRelation:
    def test_total_domain_gives_full_pair_groupoid(self):
        T = matrix_units_table(2)  # total domain on 4 basis elements
        labels, pairs = extract_relation(T)
        G = build_from_relation(labels, pairs, "strict")
        assert G.n_arrows == 16 and validate(G).ok

    def test_diagonal_domain_gives_units_only(self):
        coeff = {(i, i): np.zeros(3) for i in range(3)}
        T = StructureTable(3, coeff, [(i, 1.0) for i in range(3)])
        labels, pairs = extract_relation(T)
        G = build_from_relation(labels, pairs, "strict")
        assert G.n_arrows == 3
        assert all(G.is_unit(a) for a in range(G.n_arrows))

    def test_block_domain_two_orbits(self):
        blocks = [("e1", "e2"), ("e3",)]
        coeff = {}
        for block in [(0, 1), (2,)]:
            for i in block:
                for j in block:
                    coeff[(i, j)] = np.zeros(3)
        T = StructureTable(3, coeff, [(i, 1.0) for i in range(3)])
        labels, pairs = extract_relation(T)
        G = build_from_relation(labels, pairs, "strict")
        got = [[G.objects[x] for x in block] for block in G.orbits()]
        assert got == [list(b) for b in blocks]

    def test_round_trip_on_equivalence_domain(self):
        coeff = {(i, j): np.zeros(2) for i in range(2) for j in range(2)}
        T = StructureTable(2, coeff, [(0, 1.0), (1, 1.0)])
        labels, pairs = extract_relation(T)
        G = build_from_relation(labels, pairs, "strict")
        assert sorted(G.relation_pairs()) == sorted(pairs)


class TestBilinearity:
    def test_product_expansion_matches_matrix_multiplication(self):
        T = matrix_units_table(2)
        rng = np.random.default_rng(7)
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        v = rng.normal(size=4) + 1j * rng.normal(size=4)
        got = T.product(u, v)
        want = (u.reshape(2, 2) @ v.reshape(2, 2)).reshape(-1)
        assert np.abs(got - want).max() <= 1e-12

    @settings(max_examples=30, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_linearity_in_each_slot(self, a, b):
        T = matrix_units_table(2)
        rng = np.random.default_rng(11)
        x, y, z = (rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3))
        lhs = T.product(a * x + b * y, z)
        rhs = a * T.product(x, z) + b * T.product(y, z)
        assert np.abs(lhs - rhs).max() <= 1e-12
        lhs = T.product(z, a * x + b * y)
        rhs = a * T.product(z, x) + b * T.product(z, y)
        assert np.abs(lhs - rhs).max() <= 1e-12

    @pytest.mark.parametrize("call, shape", [
        (lambda T: T.star_vector(np.ones(6)), "(6,)"),
        (lambda T: T.star_vector(np.ones(2)), "(2,)"),
        (lambda T: T.product([1, 0], [1, 0, 0, 0]), "(2,)"),
        (lambda T: T.product(np.eye(5)[4], np.eye(4)[0]), "(5,)"),
    ], ids=["star-long", "star-short", "product-short", "product-long"])
    def test_vectors_of_the_wrong_length_raise(self, call, shape):
        with pytest.raises(ShapeMismatch,
                           match=re.escape(f"vector has shape {shape}, expected (4,)")):
            call(matrix_units_table(2))

    def test_undefined_product_raises(self):
        T = StructureTable(2, {(0, 0): np.zeros(2)}, [(0, 1.0), (1, 1.0)])
        with pytest.raises(UndefinedProduct):
            T.product(np.array([1.0, 0]), np.array([0, 1.0]))


_VALUES = [0, 1, -1, 1j, -1j, 0.5]
_PHASES = [1, -1, 1j, -1j]
_CORRUPTIONS = ["pair-out-of-range", "short-vector", "not-involutive", "phases-not-cancelling",
                "phase-off-circle", "star-short"]


@st.composite
def tables(draw):
    """(dim, coeff, star) of a random table: a random domain with some total
    rows and columns (so that the ideal is not empty), optionally closed
    under the star swap, and an involutive star with phases equal on each
    swapped pair; then up to two of the corruptions the constructor checks."""
    n = draw(st.integers(1, 6))
    vector = st.one_of(st.just([0] * n),
                       st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n))
    total = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    index = list(range(n))
    order = draw(st.permutations(range(n)))
    for t in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * t], order[2 * t + 1]
        index[a], index[b] = b, a
    phase = [draw(st.sampled_from(_PHASES)) for _ in range(n)]
    phase = [phase[min(i, index[i])] for i in range(n)]
    coeff = {(i, j): draw(vector) for i in range(n) for j in range(n)
             if total[i] or total[j] or draw(st.booleans())}
    if draw(st.booleans()):  # close the domain under (i, j) -> (star j, star i)
        for (i, j) in list(coeff):
            coeff.setdefault((index[j], index[i]), draw(vector))
    star = list(zip(index, phase))
    kinds = draw(st.lists(st.sampled_from(_CORRUPTIONS), max_size=2, unique=True))
    for kind in sorted(kinds, key=_CORRUPTIONS.index):  # "star-short" last
        if kind == "pair-out-of-range":
            items = list(coeff.items())
            bad = draw(st.sampled_from([(n, 0), (0, n), (-1, 0)]))
            items.insert(draw(st.integers(0, len(items))), (bad, [0] * n))
            coeff = dict(items)
        elif kind == "short-vector" and coeff:
            coeff[draw(st.sampled_from(sorted(coeff)))] = [0] * (n - 1)
        elif kind == "not-involutive":
            i = draw(st.integers(0, n - 1))
            star[i] = ((star[i][0] + 1) % n, star[i][1])
        elif kind == "phases-not-cancelling":  # unless every index is a fixed point
            i = draw(st.sampled_from([k for k in range(n) if star[k][0] != k] or [0]))
            star[i] = (star[i][0], -star[i][1])
        elif kind == "phase-off-circle":
            i = draw(st.integers(0, n - 1))
            star[i] = (star[i][0], draw(st.sampled_from([2.0, 0.5, 1 + 1j])))
        elif kind == "star-short":
            star = star[:-1]
    return n, coeff, star


def _built(cls, n, coeff, star):
    try:
        return cls(n, coeff, star), None
    except ValueError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def _product(T, u, v):
    try:
        return T.product(u, v)
    except UndefinedProduct as exc:
        return str(exc)


class TestAgainstDictOracle:
    @settings(max_examples=250, deadline=None)
    @given(tables(), st.data())
    def test_reports_lookups_and_errors_match_the_dict_table(self, table, data):
        T, error = _built(StructureTable, *table)
        O, oracle_error = _built(DictStructureTable, *table)
        assert error == oracle_error
        if T is None:
            return
        assert str(check_star_compatibility(T)) == str(dict_star_compatibility(O))
        assert str(ideal_closure_check(T)) == str(dict_ideal_closure_check(O))
        for side in ("left", "right"):
            assert _multiplier_indices(T, side).tolist() == dict_multiplier_indices(O, side)
        assert extract_relation(T) == dict_extract_relation(O)
        n = T.dim
        u, v = (np.array(data.draw(st.lists(st.sampled_from(_VALUES), min_size=n, max_size=n)),
                         dtype=complex) for _ in range(2))
        assert np.array_equal(T.star_vector(u), O.star_vector(u))
        got, want = _product(T, u, v), _product(O, u, v)
        if isinstance(want, str):
            assert got == want
        else:
            assert np.abs(got - want).max() <= 1e-12
