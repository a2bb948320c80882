"""Bisection group: counts, star product laws, target homomorphism."""

import itertools
import math
import os
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import DomainMismatch
from groupalg.battery import _bisection_images, run_battery
from groupalg.bisections import (Bisection, _bisection_rows, bisection_compose,
                                 bisection_inverse, enumerate_bisections, factors_form_group,
                                 forms_group, left_translate, make_bisection,
                                 orbit_bisections, target_map, unit_bisection)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               klein_table, pair_groupoid, product)
from groupalg.cli import _fixture_paths
from groupalg.groupoid import FiniteGroupoid, components
from groupalg.io import GroupoidDocument, load_groupoid, parse_groupoid_document
from groupalg.randgen import SplitMix64, random_groupoid

from oracles import backtracking_bisections, brute_force_forms_group, row_by_row_forms_group


def test_counts_are_factorials():
    for n in range(1, 6):
        G = pair_groupoid([f"o{i}" for i in range(n)])
        assert len(enumerate_bisections(G)) == math.factorial(n)


def test_bisections_of_pair_are_permutations():
    G = pair_groupoid("abcd")
    perms = {tuple(target_map(G, s)[x] for x in range(4))
             for s in enumerate_bisections(G)}
    assert perms == set(itertools.permutations(range(4)))


def test_unit_bisection_neutral_and_translation_identity():
    G = pair_groupoid("abc")
    e = unit_bisection(G)
    for tau in enumerate_bisections(G):
        assert bisection_compose(G, e, tau) == tau
        assert bisection_compose(G, tau, e) == tau
    for a in range(G.n_arrows):
        assert left_translate(G, e, a) == a


def test_inverse_bisection_gives_unit():
    G = pair_groupoid("abc")
    e = unit_bisection(G)
    for s in enumerate_bisections(G):
        assert bisection_compose(G, s, bisection_inverse(G, s)) == e
        assert bisection_compose(G, bisection_inverse(G, s), s) == e


def test_target_map_homomorphism_and_translation_source():
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == math.factorial(3) * 2 ** 3
    for s in sigmas[:8]:
        for t in sigmas[:8]:
            st = bisection_compose(G, s, t)
            tm = target_map(G, st)
            ts, tt = target_map(G, s), target_map(G, t)
            assert tm == {x: ts[tt[x]] for x in tt}
        for a in range(G.n_arrows):
            assert G.src[left_translate(G, s, a)] == G.src[a]


def test_group_axioms_exhaustive_n3():
    G = pair_groupoid("abc")
    sigmas = enumerate_bisections(G)
    index = {s: i for i, s in enumerate(sigmas)}
    table = [[index[bisection_compose(G, s, t)] for t in sigmas] for s in sigmas]
    k = len(sigmas)
    for i in range(k):
        for j in range(k):
            for m in range(k):
                assert table[table[i][j]][m] == table[i][table[j][m]]
    e = index[unit_bisection(G)]
    assert all(table[e][i] == i == table[i][e] for i in range(k))
    for i in range(k):
        assert any(table[i][j] == e and table[j][i] == e for j in range(k))


def test_domain_mismatch_on_partial_bisections():
    G = pair_groupoid("abc")
    # sigma defined on {a} only, picking the arrow a -> b
    ab = G.arrow_by_endpoints(G.object_index("b"), G.object_index("a"))
    sigma = make_bisection(G, {G.object_index("a"): ab})
    tau_full = unit_bisection(G)
    with pytest.raises(DomainMismatch):
        bisection_compose(G, sigma, tau_full)
    loop_c = G.unit_of[G.object_index("c")]
    with pytest.raises(DomainMismatch):
        left_translate(G, sigma, loop_c)


def test_an_undefined_star_product_raises_at_the_first_failing_object():
    # drop the products of the last two objects: the middle one is named;
    # a target outside sigma's domain before it raises DomainMismatch instead
    G = pair_groupoid("abc")
    cycle = {x: G.arrow_by_endpoints((x + 1) % 3, x) for x in range(3)}
    sigma = tau = make_bisection(G, cycle)
    pairs = [(cycle[G.tgt[a]], a) for a in tau.arrows]
    H = _with_table(G, [row for row in G.compose_table.tolist()
                        if tuple(row[:2]) not in pairs[1:]])
    first, second = (G.arrow_ids[a] for a in pairs[1])
    with pytest.raises(ValueError, match=rf"^arrows {first} and {second} do not compose$"):
        bisection_compose(H, sigma, tau)
    tail = make_bisection(H, {1: cycle[1], 2: cycle[2]})  # objects b and c
    # at b the product is undefined, at c the target a is outside the domain
    with pytest.raises(ValueError, match=rf"^arrows {first} and {second} do not compose$"):
        bisection_compose(H, tail, tail)
    # at b the target c is outside the domain, at c the product is undefined
    with pytest.raises(DomainMismatch, match="^target c of tau is outside the domain of sigma$"):
        bisection_compose(H, make_bisection(H, {0: cycle[0]}), tail)
    assert bisection_compose(G, sigma, tau).arrows == tuple(
        G.compose(s, t) for s, t in pairs)


def test_local_bisection_inverse_round_trip():
    G = pair_groupoid("abc")
    a, b = G.object_index("a"), G.object_index("b")
    sigma = make_bisection(G, {a: G.arrow_by_endpoints(b, a)})
    inv = bisection_inverse(G, sigma)
    assert inv.domain == (b,)
    back = bisection_compose(G, sigma, inv)
    assert back.arrows == (G.unit_of[b],)


@pytest.mark.parametrize("call, index", [
    (lambda G: make_bisection(G, {1: -1}), "arrow index -1"),
    (lambda G: make_bisection(G, {1: 7}), "arrow index 7"),
    (lambda G: make_bisection(G, {5: 0}), "object index 5"),
    (lambda G: make_bisection(G, {-1: 0}), "object index -1"),
    (lambda G: left_translate(G, unit_bisection(G), 7), "arrow index 7"),
    (lambda G: left_translate(G, unit_bisection(G), -1), "arrow index -1"),
    # bisections made by hand, without make_bisection's check
    (lambda G: bisection_inverse(G, Bisection((1,), (7,))), "arrow index 7"),
    (lambda G: bisection_inverse(G, Bisection((1,), (-1,))), "arrow index -1"),
    (lambda G: target_map(G, Bisection((1,), (7,))), "arrow index 7"),
    (lambda G: target_map(G, Bisection((1,), (-1,))), "arrow index -1"),
    (lambda G: target_map(G, Bisection((5,), (0,))), "object index 5"),
    (lambda G: bisection_compose(G, Bisection((0, 1), (0, 7)), unit_bisection(G)),
     "arrow index 7"),
    (lambda G: bisection_compose(G, unit_bisection(G), Bisection((0, 1), (0, -1))),
     "arrow index -1"),
    (lambda G: bisection_compose(G, Bisection((-1,), (0,)), unit_bisection(G)),
     "object index -1"),
], ids=["negative-arrow", "arrow-past-the-end", "object-past-the-end", "negative-object",
        "translate-past-the-end", "translate-negative", "inverse-past-the-end",
        "inverse-negative", "target-map-past-the-end", "target-map-negative",
        "target-map-object-past-the-end", "compose-sigma-past-the-end", "compose-tau-negative",
        "compose-negative-object"])
def test_an_index_out_of_range_raises_value_error_naming_it(call, index):
    # never read as Python's negative indexing, nor an IndexError
    G = pair_groupoid("ab")  # objects 0..1, arrows 0..3
    with pytest.raises(ValueError, match=rf"^{index} out of range: indices run over 0\.\.\d$"):
        call(G)


@pytest.mark.parametrize("call, objects, arrows", [
    (lambda G: bisection_compose(G, unit_bisection(G), Bisection((0, 1), (0,))), 2, 1),
    (lambda G: bisection_compose(G, Bisection((0, 1), (0,)), unit_bisection(G)), 2, 1),
    (lambda G: target_map(G, Bisection((0, 1), (0,))), 2, 1),
    (lambda G: bisection_inverse(G, Bisection((0,), (0, 3))), 1, 2),
    (lambda G: left_translate(G, Bisection((0,), (0, 3)), 0), 1, 2),
], ids=["compose-tau", "compose-sigma", "target-map", "inverse", "translate"])
def test_a_bisection_with_more_objects_than_arrows_or_fewer_raises(call, objects, arrows):
    # zipped, the two would pass every check with the longer one cut short
    G = pair_groupoid("ab")
    with pytest.raises(ValueError, match=rf"^a bisection needs one arrow per object: "
                                         rf"{objects} objects, {arrows} arrows$"):
        call(G)


def test_rejects_non_injective_targets():
    G = pair_groupoid("ab")
    a, b = 0, 1
    with pytest.raises(ValueError):
        make_bisection(G, {a: G.arrow_by_endpoints(a, a),
                           b: G.arrow_by_endpoints(a, b)})


def _outcome(G, sigmas, check):
    try:
        return check(G, sigmas)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return f"raised {type(exc).__name__}: {exc}"


def test_forms_group_on_clean_groupoids():
    for G in (pair_groupoid("abc"), pair_groupoid("abcd"),
              product(pair_groupoid("ab"), group_groupoid(*klein_table())),
              group_groupoid(*cyclic_table(5))):
        sigmas = enumerate_bisections(G)
        assert forms_group(G, sigmas) is True
        assert row_by_row_forms_group(G, sigmas) is True


def test_forms_group_rejects_a_set_that_is_not_closed():
    G = pair_groupoid("abc")
    sigmas = enumerate_bisections(G)
    assert forms_group(G, sigmas[:-1]) is False
    assert brute_force_forms_group(G, sigmas[:-1]) is False
    assert row_by_row_forms_group(G, sigmas[:-1]) is False


def _parallel(G, a):
    """The next arrow with the endpoints of ``a``, cyclically."""
    same = [b for b in range(G.n_arrows) if (G.src[b], G.tgt[b]) == (G.src[a], G.tgt[a])]
    return same[(same.index(a) + 1) % len(same)]


def _with_table(G, table, unit_of=None):
    return FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse,
                          G.unit_of if unit_of is None else unit_of)


def test_forms_group_agrees_with_the_pairwise_laws_on_corrupted_tables():
    for G in (product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2))),
              product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))):
        rows = G.compose_table
        verdicts = set()
        # a composite redirected to a parallel arrow (the bisections stay
        # closed) or to the next arrow (they need not)
        for i in range(0, len(rows), 7):
            table = rows.copy()
            table[i, 2] = _parallel(G, table[i, 2]) if i % 2 else (table[i, 2] + 1) % G.n_arrows
            H = _with_table(G, table)
            sigmas = enumerate_bisections(H)
            got = _outcome(H, sigmas, forms_group)
            assert got == _outcome(H, sigmas, brute_force_forms_group), (G.n_arrows, i)
            assert got == _outcome(H, sigmas, row_by_row_forms_group), (G.n_arrows, i)
            verdicts.add(got if isinstance(got, bool) else "raised")
        assert False in verdicts, G.n_arrows


def test_forms_group_is_false_when_a_composite_is_missing():
    # every composable pair occurs in some star product of full bisections;
    # the pairwise compose raises on the missing product, the array form
    # reads it as -1, a row outside the set
    for G in (pair_groupoid("abc"), product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))):
        sigmas = enumerate_bisections(G)
        for i in range(len(G.compose_table)):
            H = _with_table(G, np.delete(G.compose_table, i, axis=0))
            assert forms_group(H, sigmas) is False, i
            assert row_by_row_forms_group(H, sigmas) is False, i
            with pytest.raises(ValueError):
                brute_force_forms_group(H, sigmas)


def test_forms_group_is_false_without_the_unit_bisection():
    # a set closed under the star product that misses the groupoid's unit
    # bisection, here because unit_of names the other arrow of Z2, and the
    # empty set: the pairwise index lookup raises KeyError on both
    G = group_groupoid(*cyclic_table(2))
    e, g = G.unit_of[0], 1 - G.unit_of[0]
    H = _with_table(G, G.compose_table, unit_of=[g])
    only_e = [make_bisection(H, {0: e})]
    assert forms_group(H, only_e) is False
    assert forms_group(G, []) is False
    for args in ((H, only_e), (G, [])):
        assert row_by_row_forms_group(*args) is False
        with pytest.raises(KeyError):
            brute_force_forms_group(*args)


def test_forms_group_memory_is_linear_in_the_bisection_count():
    # pair(3) x Z3 has k = 162 bisections; k^3 int64 tables would take 34 MB
    # each, and the k x k star table 0.2 MB; the closure holds k x n arrays
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3)))
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == 162
    tracemalloc.start()
    try:
        assert forms_group(G, sigmas) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak


def _z5_bundle(count):
    return disjoint_union(*[group_groupoid(*cyclic_table(5)) for _ in range(count)])


def test_forms_group_agrees_with_the_row_by_row_oracle_on_larger_sets():
    # k = 162 and k = 625, each in enumeration order, shuffled, with one
    # bisection dropped and with one repeated
    rng = np.random.default_rng(7)
    for G in (product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3))), _z5_bundle(4)):
        sigmas = enumerate_bisections(G)
        assert len(sigmas) in (162, 625)
        shuffled = [sigmas[i] for i in rng.permutation(len(sigmas))]
        for case, expected in ((sigmas, True), (shuffled, True), (shuffled[1:], False),
                               (shuffled + shuffled[:1], False)):
            assert forms_group(G, case) is expected
            assert row_by_row_forms_group(G, case) is expected


def test_forms_group_on_the_empty_groupoid():
    # no objects: the empty bisection alone is the trivial group
    G = disjoint_union()
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == 1
    for case, expected in ((sigmas, True), ([], False), (sigmas * 2, False)):
        assert forms_group(G, case) is expected
        assert row_by_row_forms_group(G, case) is expected


# a loop of order 5: unit, two-sided inverses and (one object) the
# homomorphism all hold, but (1 * 1) * 2 = 2 and 1 * (1 * 2) = 4
_LOOP = ([f"g{i}" for i in range(5)],
         [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])


def test_only_lights_test_rejects_a_non_associative_loop():
    # the kernel sees it through Light's test in the generator certificate
    loop = _LOOP[1]
    G = group_groupoid(*_LOOP)
    sigmas = enumerate_bisections(G)
    assert [s.arrows for s in sigmas] == [(a,) for a in range(5)]
    assert all(bisection_compose(G, s, t).arrows == (loop[i][j],)
               for i, s in enumerate(sigmas) for j, t in enumerate(sigmas))
    assert forms_group(G, sigmas) is False
    assert row_by_row_forms_group(G, sigmas) is False
    assert brute_force_forms_group(G, sigmas) is False


def test_forms_group_memory_on_a_bundle_of_four_z5_loops():
    # k = 625 over 4 objects: whole k^2 x n int64 product arrays take 12.5 MB
    # each and the row-by-row form peaks near 60 MB; the closure forms k
    # products per generator
    G = _z5_bundle(4)
    sigmas = enumerate_bisections(G)
    tracemalloc.start()
    try:
        assert forms_group(G, sigmas) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20, peak


def test_battery_enumerates_once_and_composes_no_pairs(monkeypatch):
    # the battery takes each orbit's bisections once, as int arrays, for
    # both suites: no Bisection objects and no pairwise star products
    from groupalg import bisections
    calls = {"orbit_bisections": 0, "enumerate_bisections": 0, "bisection_compose": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(bisections, name, counted(name, getattr(bisections, name)))
    G = pair_groupoid("abcd")  # 24 bisections, inside both enumeration caps
    run = run_battery(GroupoidDocument(G, None, None, "strict"), seed=1, trials=2)
    lines = {line.name: line for line in run.lines}
    assert lines["bisection-group"].ok
    assert lines["bisection-group"].detail.startswith("24 full bisections")
    assert lines["fundamental-family"].detail.endswith("(arrow indicators and bisection images)")
    assert calls == {"orbit_bisections": 1, "enumerate_bisections": 0, "bisection_compose": 0}


def test_a_target_outside_its_factor_raises_naming_the_factor_and_the_row():
    # pair(4) with a factor of objects {a, b}: its second row sends b to c
    G = pair_groupoid("abcd")
    rows = _bisection_rows(G, [0, 1])
    assert G.tgt[rows[1]].tolist() == [0, 2]
    with pytest.raises(ValueError, match=r"^row 1 of factor 0 has a target outside the "
                                         r"factor's objects a, b$"):
        factors_form_group(G, [(np.array([0, 1]), rows)])
    # the columns of an earlier factor do not leak into a later one
    H = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
    (ab, ab_rows), _ = orbit_bisections(H)
    cd = H.arrow_by_endpoints(3, 2)
    with pytest.raises(ValueError, match=r"^row 0 of factor 1 has a target outside the "
                                         r"factor's objects c$"):
        factors_form_group(H, [(ab, ab_rows), (np.array([2]), np.array([[cd]]))])


def _monoid():
    """The monoid {1, z} with z z = z: associative, with no inverse of z."""
    return FiniteGroupoid(["*"], [0, 0], [0, 0], [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
                          [0, 1], [0])


def _z3_unit_misplaced():
    """Z3 with unit_of naming a generator: the unit row is no identity."""
    G = group_groupoid(*cyclic_table(3))
    return _with_table(G, G.compose_table, unit_of=[(G.unit_of[0] + 1) % 3])


@pytest.mark.parametrize("make", [_monoid, _z3_unit_misplaced], ids=["monoid", "z3-unit"])
def test_the_closure_rejects_associative_tables_that_are_no_group(make):
    # the certificate proves both tables associative; in the monoid, right
    # multiplication by z sends both rows to z, and in Z3, right
    # multiplication by the true identity joins nothing to the unit row
    H = make()
    assert H.certificate().associative
    sigmas = enumerate_bisections(H)
    assert forms_group(H, sigmas) is False
    assert row_by_row_forms_group(H, sigmas) is False


def test_rows_not_sourced_at_their_objects_are_no_group_of_bisections():
    # pair(ab) with its units swapped between the columns: a table that
    # also composes the two units makes the star table of {e, swapped} Z2,
    # which the whole-table oracle accepts, but the rows are no bisections
    G = pair_groupoid("ab")
    ua, ub = G.unit_of
    H = _with_table(G, np.concatenate([G.compose_table, [[ua, ub, ua], [ub, ua, ub]]]))
    assert H.certificate().associative
    rows = [Bisection((0, 1), (ua, ub)), Bisection((0, 1), (ub, ua))]
    assert row_by_row_forms_group(H, rows) is True
    assert forms_group(H, rows) is False


_ISOTROPY = {"1": cyclic_table(1), "z2": cyclic_table(2), "z3": cyclic_table(3),
             "klein": klein_table(), "loop": _LOOP}


def _union_bisection_count(shape):
    return math.prod(math.factorial(n) * len(_ISOTROPY[h][0]) ** n for n, h in shape)


_SMALL_UNIONS = st.lists(st.tuples(st.integers(1, 3), st.sampled_from(sorted(_ISOTROPY))),
                         min_size=1, max_size=3).filter(lambda u: _union_bisection_count(u) <= 150)


@settings(max_examples=150, deadline=None)
@given(_SMALL_UNIONS, st.sampled_from(["shuffled", "dropped", "repeated", "redirected"]),
       st.integers(0, 2 ** 32 - 1))
def test_the_closure_agrees_with_the_whole_table_on_random_small_unions(shape, case, seed):
    # every outcome of forms_group on the whole set and of factors_form_group
    # on the orbit factors, raised exceptions included, as the k x k star
    # table with Light's test gives it; a union holding the loop is not
    # associative, and every verdict on it is False
    rng = np.random.default_rng(seed)
    G = disjoint_union(*(product(pair_groupoid([f"o{i}" for i in range(n)]),
                                 group_groupoid(*_ISOTROPY[h])) for n, h in shape))
    if case == "redirected":
        table = G.compose_table.copy()
        table[rng.integers(len(table)), 2] = rng.integers(G.n_arrows)
        G = _with_table(G, table)
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == _union_bisection_count(shape)
    sigmas = [sigmas[i] for i in rng.permutation(len(sigmas))]
    if case == "dropped":
        del sigmas[rng.integers(len(sigmas))]
    elif case == "repeated":
        sigmas.append(sigmas[rng.integers(len(sigmas))])
    want = _outcome(G, sigmas, row_by_row_forms_group)
    assert _outcome(G, sigmas, forms_group) == want
    if case in ("shuffled", "redirected"):  # every full bisection: the orbit factors apply
        assert _outcome(G, orbit_bisections(G), factors_form_group) == want
    if case == "shuffled":
        assert want is all(h != "loop" for _, h in shape)


def test_the_closure_checks_pair_8_in_linear_memory():
    # k = 40,320: the k x k star table alone would take 12.1 GiB; the
    # closure holds a few k x n arrays at a time
    G = pair_groupoid([f"o{i}" for i in range(8)])
    factors = orbit_bisections(G)
    assert [len(rows) for _, rows in factors] == [40320]
    G.certificate()  # the groupoid's own, kept on it
    tracemalloc.start()
    try:
        assert factors_form_group(G, factors) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20, peak


def test_forms_group_sees_targets_that_do_not_follow_the_product():
    # the four bisections of pair(4) whose targets are the Klein four-group,
    # with the composites rewritten so that their star table is Z4: still a
    # group, but Klein targets are not a homomorphism image of Z4
    G = pair_groupoid("abcd")
    klein = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    by_targets = {tuple(target_map(G, s)[x] for x in range(4)): s
                  for s in enumerate_bisections(G)}
    sigmas = [by_targets[p] for p in klein]
    assert forms_group(G, sigmas)
    z4 = {}
    for i, s in enumerate(sigmas):
        for j, t in enumerate(sigmas):
            for x in range(4):
                z4[s.arrows[target_map(G, t)[x]], t.arrows[x]] = sigmas[(i + j) % 4].arrows[x]
    table = G.compose_table.copy()
    for row in table:
        row[2] = z4.get((row[0], row[1]), row[2])
    H = _with_table(G, table)
    index = {s: i for i, s in enumerate(sigmas)}
    assert [[index[bisection_compose(H, s, t)] for t in sigmas] for s in sigmas] == \
        [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert forms_group(H, sigmas) is False
    assert brute_force_forms_group(H, sigmas) is False
    assert row_by_row_forms_group(H, sigmas) is False


def _benchmark_unions():
    """The benchmark's union shapes, by index, as groupoids (the weights,
    which no bisection depends on, drawn from one seeded stream)."""
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))
    try:
        import inputs
        from workloads import UNIONS
    finally:
        sys.path.pop(0)
    rng = random.Random(1)
    return {i: parse_groupoid_document(inputs.union_arrows_doc(shape, rng), where=str(i)).groupoid
            for i, shape in enumerate(UNIONS)}


def test_forms_group_checks_the_benchmark_unions_orbit_by_orbit(monkeypatch):
    # unions 4 and 11 are the ones the mixed-small battery checks; union 5
    # (k = 972) is the one it leaves out; 7 and 10 are the other unions
    # with k <= 5000 of more than one orbit, too large for the whole-set check
    from groupalg import bisections
    sizes = []  # the rows of each factor that closes to a group

    def counted(G, objs, S, T, unit, real=bisections._group_by_closure):
        closed = real(G, objs, S, T, unit)
        sizes.append(len(S) if closed else -1)
        return closed
    monkeypatch.setattr(bisections, "_group_by_closure", counted)
    unions = _benchmark_unions()
    for i, k, factors in ((4, 288, [6, 48]), (5, 972, [1, 6, 162]), (11, 288, [72, 4]),
                          (7, 4608, [384, 4, 3]), (10, 3456, [384, 3, 3]), (2, 3, [3])):
        orbits = orbit_bisections(unions[i])
        assert math.prod(len(rows) for _, rows in orbits) == k
        sizes.clear()
        assert factors_form_group(unions[i], orbits) is True, i
        assert sorted(sizes) == sorted(factors), i
        if k <= 1000:
            sigmas = enumerate_bisections(unions[i])
            assert forms_group(unions[i], sigmas) is True, i
            assert row_by_row_forms_group(unions[i], sigmas) is True, i


def test_forms_group_agrees_with_the_oracle_off_the_product_on_the_unions():
    rng = np.random.default_rng(5)
    unions = _benchmark_unions()
    for i in (4, 11):
        G = unions[i]
        sigmas = enumerate_bisections(G)
        sigmas = [sigmas[j] for j in rng.permutation(len(sigmas))]
        for case in (sigmas, sigmas[1:], sigmas + sigmas[3:4], sigmas[:-1] + sigmas[:1]):
            assert forms_group(G, case) is row_by_row_forms_group(G, case) is (case is sigmas), i


def _three_orbits():
    """pair(ab) x Z2, Z3 and pair(cd): k = 8 * 3 * 2 = 48 full bisections."""
    return disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                          group_groupoid(*cyclic_table(3)), pair_groupoid("cd"))


def _orbit_of(G):
    return components(G.n_objects, G.tgt, G.src)[G.src]


def test_forms_group_on_corrupted_multi_orbit_unions():
    # every outcome, raised exceptions included, as the whole-set oracles give it
    G = _three_orbits()
    orbit, rows = _orbit_of(G), G.compose_table
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == 48
    cases = {"clean": (G, sigmas), "dropped": (G, sigmas[:17] + sigmas[18:]),
             "duplicated": (G, sigmas + sigmas[30:31])}
    for i in range(0, len(rows), 5):
        # a swapped composite inside one orbit, one redirected into another orbit
        j = next((j for j in range(i + 1, len(rows)) if orbit[rows[j, 2]] == orbit[rows[i, 2]]
                  and rows[j, 2] != rows[i, 2]), None)
        if j is not None:
            table = rows.copy()
            table[[i, j], 2] = table[[j, i], 2]
            cases[f"swapped {i} {j}"] = (_with_table(G, table), sigmas)
        table = rows.copy()
        table[i, 2] = np.flatnonzero(orbit != orbit[rows[i, 2]])[i % 3]
        cases[f"redirected {i}"] = (_with_table(G, table), sigmas)
        cases[f"missing {i}"] = (_with_table(G, np.delete(rows, i, axis=0)), sigmas)
    for x in range(G.n_objects):
        unit_of = list(G.unit_of)
        unit_of[x] = None
        cases[f"no-unit at {x}"] = (_with_table(G, rows, unit_of=unit_of), sigmas)
    verdicts = {}
    for name, (H, case) in cases.items():
        got = _outcome(H, case, forms_group)
        assert got == _outcome(H, case, row_by_row_forms_group), name
        if case is sigmas:  # every full bisection: the orbit-by-orbit check applies
            assert got == _outcome(H, orbit_bisections(H), factors_form_group), name
        if not name.startswith("missing"):  # the pairwise compose raises on a missing product
            assert got == _outcome(H, case, brute_force_forms_group), name
        verdicts.setdefault(name.split()[0], set()).add(got if isinstance(got, bool) else "raised")
    assert verdicts["clean"] == {True}
    assert verdicts["dropped"] == verdicts["duplicated"] == verdicts["missing"] == {False}
    assert False in verdicts["swapped"] and verdicts["redirected"] == {False}
    assert verdicts["no-unit"] == {"raised"}


def test_forms_group_looks_for_the_unit_only_once_the_table_associates():
    # without a unit at one object, the full set raises as the whole-set
    # check does; with a product missing too, the certificate fails first
    # and the answer is False
    G = _three_orbits()
    unit_of = list(G.unit_of)
    unit_of[4] = None
    H = _with_table(G, G.compose_table, unit_of=unit_of)
    sigmas = enumerate_bisections(H)
    with pytest.raises(ValueError, match="has no unit arrow"):
        forms_group(H, sigmas)
    missing = _with_table(G, G.compose_table[1:], unit_of=unit_of)
    assert forms_group(missing, sigmas) is False
    assert row_by_row_forms_group(missing, sigmas) is False


def _enumeration_cases():
    """pair(1..6), the fixtures, the benchmark unions, random unions,
    corrupted tables (their source and target maps stay), the empty
    groupoid and an object with an empty source fiber."""
    cases = {f"pair{n}": pair_groupoid([f"o{i}" for i in range(n)]) for n in range(1, 7)}
    for path in _fixture_paths():
        name = os.path.basename(path)
        if not (name.endswith("manifest.json") or name.startswith(("fn-", "st-"))):
            cases[name] = load_groupoid(path).groupoid
    cases.update({f"union{i}": G for i, G in _benchmark_unions().items()})
    cases.update({f"random{seed}": random_groupoid(SplitMix64(seed)) for seed in range(1, 9)})
    G = _three_orbits()
    rows = G.compose_table
    redirected = rows.copy()
    redirected[0, 2] = np.flatnonzero(_orbit_of(G) != _orbit_of(G)[rows[0, 2]])[0]
    cases["redirected"] = _with_table(G, redirected)
    cases["missing"] = _with_table(G, rows[1:])
    unit_of = list(G.unit_of)
    unit_of[2] = None
    cases["no-unit"] = _with_table(G, rows, unit_of=unit_of)
    cases["empty"] = disjoint_union()
    # object b has no arrow, so no full bisection exists
    cases["empty-source-fiber"] = FiniteGroupoid(["a", "b", "c"], np.array([0, 2]),
                                                 np.array([0, 2]), np.array([[0, 0, 0], [1, 1, 1]]),
                                                 np.array([0, 1]), [0, None, 1])
    return cases


def _product_rows(G, factors):
    """The rows of the Cartesian product of the factors, as a set."""
    out = set()
    for picks in itertools.product(*(rows.tolist() for _, rows in factors)):
        row = [0] * G.n_objects
        for (objs, _), pick in zip(factors, picks):
            for x, a in zip(objs.tolist(), pick):
                row[x] = a
        out.add(tuple(row))
    return out


def test_the_enumeration_and_its_orbit_factors_equal_the_backtracking():
    for name, G in _enumeration_cases().items():
        want = backtracking_bisections(G)
        rows = _bisection_rows(G, range(G.n_objects))
        assert rows.shape == (len(want), G.n_objects), name
        assert rows.tolist() == [list(s.arrows) for s in want], name
        assert enumerate_bisections(G) == want, name
        factors = orbit_bisections(G)
        assert [objs.tolist() for objs, _ in factors] == G.orbits(), name
        assert _product_rows(G, factors) == {s.arrows for s in want}, name
        if want:  # the battery's bisection images hold every arrow the whole set holds
            images = _bisection_images(G, factors)
            assert {tuple(row) for row in images.tolist()} <= {s.arrows for s in want}, name
            assert set(images.ravel().tolist()) == {a for s in want for a in s.arrows}, name
        # the unions' verdicts are the orbit-by-orbit test's
        if len(want) <= 1000 and not name.startswith("union"):
            got = _outcome(G, factors, factors_form_group)
            assert got == _outcome(G, want, forms_group), name
            assert got == _outcome(G, want, row_by_row_forms_group), name
