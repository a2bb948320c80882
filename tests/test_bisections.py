"""Bisection group: counts, star product laws, target homomorphism."""

import itertools
import math

import pytest

from groupalg import DomainMismatch
from groupalg.bisections import (bisection_compose, bisection_inverse,
                                 enumerate_bisections, forms_group, left_translate,
                                 make_bisection, target_map, unit_bisection)
from groupalg.builders import (cyclic_table, group_groupoid, klein_table,
                               pair_groupoid, product)
from groupalg.groupoid import FiniteGroupoid


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


def test_forms_group_agrees_with_the_pairwise_laws_on_corrupted_tables():
    G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
    rows = G.compose_table
    verdicts = set()
    # a composite redirected to its parallel arrow (the bisections stay
    # closed) or to the next arrow (they need not)
    for i in range(0, len(rows), 7):
        table = rows.copy()
        table[i, 2] = table[i, 2] ^ 1 if i % 2 else (table[i, 2] + 1) % G.n_arrows
        H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of)
        sigmas = enumerate_bisections(H)
        got = _outcome(H, sigmas, forms_group)
        assert got == _outcome(H, sigmas, _brute_force_forms_group), i
        verdicts.add(got if isinstance(got, bool) else "raised")
    assert False in verdicts


def test_forms_group_sees_targets_that_reverse_the_product(monkeypatch):
    # inverse target permutations make an anti-homomorphism on pair(3): the
    # star table is still a group, the target law fails (S3 is not abelian)
    from groupalg import bisections
    real = bisections.target_map

    def inverted(G, sigma):
        return {t: x for x, t in real(G, sigma).items()}
    G = pair_groupoid("abc")
    sigmas = enumerate_bisections(G)
    assert forms_group(G, sigmas)
    monkeypatch.setattr(bisections, "target_map", inverted)
    assert not forms_group(G, sigmas)
