"""Bisection group: counts, star product laws, target homomorphism."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from groupalg import DomainMismatch
from groupalg.battery import run_battery
from groupalg.bisections import (bisection_compose, bisection_inverse,
                                 enumerate_bisections, forms_group, left_translate,
                                 make_bisection, target_map, unit_bisection)
from groupalg.builders import (cyclic_table, group_groupoid, klein_table,
                               pair_groupoid, product)
from groupalg.groupoid import FiniteGroupoid
from groupalg.io import GroupoidDocument


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


def test_local_bisection_inverse_round_trip():
    G = pair_groupoid("abc")
    a, b = G.object_index("a"), G.object_index("b")
    sigma = make_bisection(G, {a: G.arrow_by_endpoints(b, a)})
    inv = bisection_inverse(G, sigma)
    assert inv.domain == (b,)
    back = bisection_compose(G, sigma, inv)
    assert back.arrows == (G.unit_of[b],)


def test_rejects_non_injective_targets():
    G = pair_groupoid("ab")
    a, b = 0, 1
    with pytest.raises(ValueError):
        make_bisection(G, {a: G.arrow_by_endpoints(a, a),
                           b: G.arrow_by_endpoints(a, b)})


def _brute_force_forms_group(G, sigmas):
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


def _outcome(G, sigmas, check):
    try:
        return check(G, sigmas)
    except Exception as exc:  # noqa: BLE001 - both sides must raise alike
        return f"raised {type(exc).__name__}: {exc}"


def test_forms_group_on_clean_groupoids():
    for G in (pair_groupoid("abc"), pair_groupoid("abcd"),
              product(pair_groupoid("ab"), group_groupoid(*klein_table())),
              group_groupoid(*cyclic_table(5))):
        assert forms_group(G, enumerate_bisections(G)) is True


def test_forms_group_rejects_a_set_that_is_not_closed():
    G = pair_groupoid("abc")
    sigmas = enumerate_bisections(G)
    assert forms_group(G, sigmas[:-1]) is False
    assert _brute_force_forms_group(G, sigmas[:-1]) is False


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
            assert got == _outcome(H, sigmas, _brute_force_forms_group), (G.n_arrows, i)
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
            with pytest.raises(ValueError):
                _brute_force_forms_group(H, sigmas)


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
        with pytest.raises(KeyError):
            _brute_force_forms_group(*args)


def test_forms_group_memory_is_quadratic_in_the_bisection_count():
    # pair(3) x Z3 has k = 162 bisections; k^3 int64 tables would take 34 MB each
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3)))
    sigmas = enumerate_bisections(G)
    assert len(sigmas) == 162
    tracemalloc.start()
    try:
        assert forms_group(G, sigmas) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_battery_enumerates_once_and_composes_no_pairs(monkeypatch):
    from groupalg import bisections
    calls = {"enumerate": 0, "compose": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper
    monkeypatch.setattr(bisections, "enumerate_bisections",
                        counted("enumerate", bisections.enumerate_bisections))
    monkeypatch.setattr(bisections, "bisection_compose",
                        counted("compose", bisections.bisection_compose))
    G = pair_groupoid("abcd")  # 24 bisections, inside both enumeration caps
    run = run_battery(GroupoidDocument(G, None, None, "strict"), seed=1, trials=2)
    lines = {line.name: line for line in run.lines}
    assert lines["bisection-group"].ok
    assert lines["bisection-group"].detail.startswith("24 full bisections")
    assert lines["fundamental-family"].detail.endswith("(arrow indicators and bisection images)")
    assert calls == {"enumerate": 1, "compose": 0}


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
    assert _brute_force_forms_group(H, sigmas) is False
