"""Inductive systems: coherence checks, colimits, functoriality."""

import os

import numpy as np
import pytest

from groupalg import (GroupoidMorphism, InductiveSystem, SystemInvalid,
                      check_system, convolve, counting_haar, limit,
                      morphism_report, validate)
from groupalg.builders import pair_groupoid
from groupalg.groupoid import FiniteGroupoid, relation_isomorphism
from groupalg.io import load_manifest
from groupalg.randgen import SplitMix64, random_function

CHAIN_MANIFEST = os.path.join(os.path.dirname(__file__), os.pardir, "src", "groupalg",
                              "fixtures", "chain-manifest.json")


def inclusion(A, B):
    """Label-respecting inclusion of one relation groupoid into another."""
    om = tuple(B.object_index(lab) for lab in A.objects)
    am = tuple(B.arrow_by_endpoints(om[A.tgt[a]], om[A.src[a]])
               for a in range(A.n_arrows))
    return GroupoidMorphism(om, am)


def chain_system():
    p2 = pair_groupoid("ab")
    p3 = pair_groupoid("abc")
    p4 = pair_groupoid("abcd")
    leq = {("p2", "p3"), ("p3", "p4"), ("p2", "p4")}
    emb = {("p2", "p3"): inclusion(p2, p3),
           ("p3", "p4"): inclusion(p3, p4),
           ("p2", "p4"): inclusion(p2, p4)}
    return InductiveSystem(["p2", "p3", "p4"], leq,
                           {"p2": p2, "p3": p3, "p4": p4}, emb)


def merged_overlap_system():
    """Two pieces glued only through a common upper bound: pair(ab) onto
    {a, b} and pair(cd) onto {b, c} of pair(abc), so c -> b and d -> c."""
    pa = pair_groupoid("ab")
    pc = pair_groupoid("cd")
    top = pair_groupoid("abc")
    om_pa = tuple(top.object_index(x) for x in "ab")
    am_pa = tuple(top.arrow_by_endpoints(om_pa[pa.tgt[r]], om_pa[pa.src[r]])
                  for r in range(4))
    om_pc = (top.object_index("b"), top.object_index("c"))
    am_pc = tuple(top.arrow_by_endpoints(om_pc[pc.tgt[r]], om_pc[pc.src[r]])
                  for r in range(4))
    return InductiveSystem(
        ["pa", "pc", "top"],
        {("pa", "top"), ("pc", "top")},
        {"pa": pa, "pc": pc, "top": top},
        {("pa", "top"): GroupoidMorphism(om_pa, am_pa),
         ("pc", "top"): GroupoidMorphism(om_pc, am_pc)})


def pairwise_limit_table(sys_, res):
    """Oracle for the limit's table: every composable pair of limit arrows,
    composed in a common upper piece of their smallest-tag representatives."""
    L = res.groupoid
    reps = {}
    for lab in sys_.labels:
        for r, c in enumerate(res.injections[lab].arrow_map):
            reps.setdefault(c, (lab, r))

    def upper_bound(a, b):
        return next(c for c in sys_.labels
                    if (a == c or (a, c) in sys_.leq) and (b == c or (b, c) in sys_.leq))

    def image_in(lab, r, target):
        return r if lab == target else sys_.embeddings[(lab, target)].arrow_map[r]

    rows = []
    for ca in range(L.n_arrows):
        for cb in range(L.n_arrows):
            if L.src[ca] != L.tgt[cb]:
                continue
            (la, ra), (lb, rb) = reps[ca], reps[cb]
            up = upper_bound(la, lb)
            comp = sys_.pieces[up].compose(image_in(la, ra, up), image_in(lb, rb, up))
            rows.append([ca, cb, res.injections[up].arrow_map[comp]])
    return sorted(rows)


class TestCheckSystem:
    def test_chain_clean(self):
        assert check_system(chain_system()).ok

    def test_single_piece_vacuous(self):
        sys_ = InductiveSystem(["p"], set(), {"p": pair_groupoid("ab")}, {})
        assert check_system(sys_).ok

    def test_cocycle_mutation_detected_with_chain_witness(self):
        sys_ = chain_system()
        p4 = sys_.pieces["p4"]
        # redirect p2 -> p4 through a nontrivial automorphism of pair(4):
        # still injective and structure preserving, but the cocycle breaks
        swap = {0: 1, 1: 0, 2: 2, 3: 3}
        om = tuple(swap[x] for x in sys_.embeddings[("p2", "p4")].object_map)
        am = tuple(p4.arrow_by_endpoints(om[sys_.pieces["p2"].tgt[a]],
                                         om[sys_.pieces["p2"].src[a]])
                   for a in range(sys_.pieces["p2"].n_arrows))
        sys_.embeddings[("p2", "p4")] = GroupoidMorphism(om, am)
        rep = check_system(sys_)
        assert not rep.ok
        assert any(e.check == "cocycle" and "(p2, p3, p4)" in e.witness
                   for e in rep.errors)

    def test_broken_structure_preservation_detected(self):
        sys_ = chain_system()
        phi = sys_.embeddings[("p2", "p3")]
        am = list(phi.arrow_map)
        am[1], am[2] = am[2], am[1]
        sys_.embeddings[("p2", "p3")] = GroupoidMorphism(phi.object_map, tuple(am))
        rep = check_system(sys_)
        assert any("embedding(p2<=p3)" in e.check for e in rep.errors)

    def test_missing_upper_bound_detected(self):
        sys_ = InductiveSystem(["a", "b"], set(),
                               {"a": pair_groupoid("xy"), "b": pair_groupoid("zw")},
                               {})
        rep = check_system(sys_)
        assert any(e.check == "directedness" for e in rep.errors)

    def test_equal_object_sets_warn_not_error(self):
        p2a = pair_groupoid("ab")
        p2b = pair_groupoid("ab")
        sys_ = InductiveSystem(["a", "b"], {("a", "b")},
                               {"a": p2a, "b": p2b},
                               {("a", "b"): inclusion(p2a, p2b)})
        rep = check_system(sys_)
        assert rep.ok
        assert any(e.check == "object-sets" for e in rep.warnings)

    def test_top_level_compatibility(self):
        sys_ = chain_system()
        p5 = pair_groupoid("abcde")
        tops = {lab: inclusion(sys_.pieces[lab], p5) for lab in sys_.labels}
        sys_.top = (p5, tops)
        assert check_system(sys_).ok
        tops["p2"] = GroupoidMorphism(
            tuple(reversed(tops["p2"].object_map[:2])) + tops["p2"].object_map[2:],
            tops["p2"].arrow_map)
        rep = check_system(sys_)
        assert not rep.ok


class TestLimit:
    def test_chain_limit_is_pair4(self):
        res = limit(chain_system())
        G = res.groupoid
        assert validate(G).ok
        assert (G.n_objects, G.n_arrows) == (4, 16)
        phi = relation_isomorphism(G, pair_groupoid("abcd"))
        assert phi is not None

    def test_single_piece_identity(self):
        P = pair_groupoid("ab")
        res = limit(InductiveSystem(["p"], set(), {"p": P}, {}))
        assert res.groupoid.relation_pairs() == P.relation_pairs()

    def test_colimit_square_commutes(self):
        sys_ = chain_system()
        res = limit(sys_)
        for (a, b), phi in sys_.embeddings.items():
            inj_a, inj_b = res.injections[a], res.injections[b]
            assert inj_a.object_map == tuple(
                inj_b.object_map[x] for x in phi.object_map)
            assert inj_a.arrow_map == tuple(
                inj_b.arrow_map[r] for r in phi.arrow_map)
        for lab in sys_.labels:
            assert morphism_report(sys_.pieces[lab], res.groupoid,
                                   res.injections[lab],
                                   require_injective=True).ok

    def test_invalid_system_raises(self):
        sys_ = chain_system()
        del sys_.embeddings[("p2", "p4")]
        with pytest.raises(SystemInvalid):
            limit(sys_)

    def test_merged_overlap_union_find_oracle(self):
        sys_ = merged_overlap_system()
        assert check_system(sys_).ok
        res = limit(sys_)
        # counted by hand: b of pa and c of pc both land on b of top
        assert res.groupoid.n_objects == 3
        assert res.groupoid.n_arrows == 9
        assert res.injections["pa"].object_map[1] == res.injections["pc"].object_map[0]

    @pytest.mark.parametrize("system", ["chain-fixture", "merged-overlap", "colimit-square"])
    def test_table_matches_the_pairwise_upper_piece_oracle(self, system):
        sys_ = {"chain-fixture": lambda: load_manifest(CHAIN_MANIFEST),
                "merged-overlap": merged_overlap_system,
                "colimit-square": chain_system}[system]()
        res = limit(sys_)
        assert sorted(res.groupoid.compose_table.tolist()) == pairwise_limit_table(sys_, res)

    def test_a_defective_piece_carries_into_the_limit(self):
        sys_ = chain_system()
        p4 = sys_.pieces["p4"]
        ad, da = p4.arrow_by_endpoints(0, 3), p4.arrow_by_endpoints(3, 0)
        table = [row for row in p4.compose_table.tolist() if row[:2] != [ad, da]]
        sys_.pieces["p4"] = FiniteGroupoid(p4.objects, p4.src, p4.tgt, table, p4.inverse,
                                           p4.unit_of, p4.arrow_ids)
        assert check_system(sys_).ok  # no embedding reads the dropped product
        res = limit(sys_)
        ad_, da_ = (res.injections["p4"].arrow_map[r] for r in (ad, da))
        L = res.groupoid
        assert [(e.check, e.witness) for e in validate(L).errors] == [
            ("compose-missing", f"{L.arrow_ids[ad_]} o {L.arrow_ids[da_]} undefined")]

    def test_order_independence_with_canonical_relabeling(self):
        res1 = limit(chain_system())

        def shuffled():
            sys_ = chain_system()
            order = ["p4", "p2", "p3"]
            return InductiveSystem(order, sys_.leq, sys_.pieces, sys_.embeddings)

        res2 = limit(shuffled())
        phi = relation_isomorphism(res1.groupoid, res2.groupoid)
        assert phi is not None
        # canonical relabeling: the label-identity map is that isomorphism
        assert sorted(res1.groupoid.objects) == sorted(res2.groupoid.objects)
        assert set(res1.groupoid.relation_pairs()) == set(res2.groupoid.relation_pairs())


def test_convolution_functoriality_through_injection():
    sys_ = chain_system()
    res = limit(sys_)
    L = res.groupoid
    inj = res.injections["p3"]
    P = sys_.pieces["p3"]
    rng = SplitMix64(61)
    f_p = random_function(P, rng)
    g_p = random_function(P, rng)
    push = np.zeros(L.n_arrows, dtype=complex)
    push2 = np.zeros(L.n_arrows, dtype=complex)
    for r in range(P.n_arrows):
        push[inj.arrow_map[r]] = f_p[r]
        push2[inj.arrow_map[r]] = g_p[r]
    conv_limit = convolve(L, counting_haar(L), push, push2)
    conv_piece = convolve(P, counting_haar(P), f_p, g_p)
    for r in range(P.n_arrows):
        assert abs(conv_limit[inj.arrow_map[r]] - conv_piece[r]) <= 1e-12
    image = set(inj.arrow_map)
    for a in range(L.n_arrows):
        if a not in image:
            assert conv_limit[a] == 0
