"""Groupoid kernel: construction, validation, fibers, multipliers, isotropy."""

import copy
import itertools
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import (NotClosed, NotRelationGroupoid, UnknownLabel,
                      UnknownObject, build_from_relation, isotropy,
                      isotropy_bundle, multipliers, validate)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               pair_groupoid, product)
from groupalg.cli import main
from groupalg.groupoid import FiniteGroupoid, components, relation_isomorphism
from groupalg.io import (GroupoidDocument, parse_groupoid_document, save_function,
                         save_groupoid)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "groupalg", "fixtures")


def brute_force_closure(pairs):
    """Independent oracle: grow the pair set until nothing new appears."""
    closed = set(pairs)
    support = {z for p in closed for z in p}
    closed |= {(x, x) for x in support}
    changed = True
    while changed:
        changed = False
        for x, y in list(closed):
            if (y, x) not in closed:
                closed.add((y, x))
                changed = True
        for x, y in list(closed):
            for u, z in list(closed):
                if y == u and (x, z) not in closed:
                    closed.add((x, z))
                    changed = True
    return closed


class TestBuildFromRelation:
    def test_single_unit(self):
        G = build_from_relation(["x"], [("x", "x")], "strict")
        assert G.n_objects == 1 and G.n_arrows == 1
        assert G.is_unit(0)

    def test_strict_transitivity_witness(self):
        with pytest.raises(NotClosed) as exc:
            build_from_relation(["a", "b", "c"], [("a", "b"), ("b", "c")], "strict")
        assert exc.value.witness == ("a", "c")

    def test_complete_closure_matches_brute_force(self):
        pairs = [("a", "b"), ("b", "c")]
        G = build_from_relation(["a", "b", "c"], pairs, "complete")
        want = brute_force_closure(pairs)
        got = {(t, s) for t, s in G.relation_pairs()}
        assert got == want
        assert G.n_arrows == 9
        assert validate(G).ok

    def test_strict_witness_follows_pair_order(self):
        pairs = [("a", "b"), ("b", "d"), ("b", "c"), ("b", "b")]
        with pytest.raises(NotClosed) as exc:
            build_from_relation(list("abcd"), pairs, "strict")
        assert exc.value.witness == ("a", "d")

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            build_from_relation(["a"], [("a", "z")], "strict")

    def test_support_restriction(self):
        G = build_from_relation(["a", "b", "c"], [("a", "a")], "strict")
        assert G.objects == ["a"]

    def test_strict_missing_symmetry(self):
        with pytest.raises(NotClosed) as exc:
            build_from_relation(["a", "b"],
                                [("a", "a"), ("b", "b"), ("a", "b")], "strict")
        assert exc.value.witness == ("b", "a")


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=12))
def test_complete_mode_always_builds_a_groupoid(int_pairs):
    labels = [f"o{i}" for i in range(5)]
    pairs = [(labels[i], labels[j]) for i, j in int_pairs]
    if not pairs:
        return
    G = build_from_relation(labels, pairs, "complete")
    assert validate(G).ok
    got = {(t, s) for t, s in G.relation_pairs()}
    assert got == brute_force_closure(pairs)


class TestValidate:
    def test_pair3_clean(self):
        assert validate(pair_groupoid("abc")).ok

    def test_corrupted_composition_detected(self):
        G = pair_groupoid("abc")
        table = sorted(G.compose_table.tolist())
        # redirect one non-unit composite to a wrong arrow with same endpoints profile
        row = next(r for r in table if not G.is_unit(r[2]))
        row[2] = G.unit_of[0]
        bad = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of)
        rep = validate(bad)
        assert not rep.ok
        assert any(e.check in ("compose-endpoints", "associativity", "unit-law",
                               "inverse-law") for e in rep.errors)

    def test_missing_unit_names_object(self):
        G = pair_groupoid("ab")
        units = list(G.unit_of)
        units[1] = None
        bad = FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table,
                             G.inverse, units)
        rep = validate(bad)
        assert any(e.check == "unit-missing" and "b" in e.witness for e in rep.errors)

    def test_inverse_endpoint_violation(self):
        G = pair_groupoid("ab")
        inv = list(G.inverse)
        inv[1] = 1  # (a,b) declared self-inverse: endpoints do not swap
        bad = FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table, inv,
                             G.unit_of)
        assert any(e.check == "inverse-endpoints" for e in validate(bad).errors)


def _pair3_arrows_doc():
    """pair(3) as an explicit-arrows document; arrow "ts" runs s -> t."""
    labels = "abc"
    return {"objects": list(labels),
            "arrows": [{"id": t + s, "src": s, "tgt": t} for t in labels for s in labels],
            "compose": [[t + u, u + s, t + s]
                        for t in labels for u in labels for s in labels],
            "inverse": [[t + s, s + t] for t in labels for s in labels]}


def _iso_z2_doc():
    with open(os.path.join(FIXTURES, "iso-z2.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _edit_compose(doc, first, second, composite=None):
    """Redirect (or, with no composite, drop) the product first o second."""
    doc = copy.deepcopy(doc)
    k = next(i for i, t in enumerate(doc["compose"]) if t[:2] == [first, second])
    if composite is None:
        del doc["compose"][k]
    else:
        doc["compose"][k][2] = composite
    return doc


def _appended(doc, *triples):
    doc = copy.deepcopy(doc)
    doc["compose"].extend(triples)
    return doc


def _loaded(doc):
    return parse_groupoid_document(doc).groupoid


def _rebuilt(G, inverse=None, unit_of=None):
    return FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table,
                          inverse or G.inverse, unit_of or G.unit_of, G.arrow_ids)


def _with_inverse(G, arrow, inverse):
    inv = list(G.inverse)
    inv[G.arrow_index(arrow)] = G.arrow_index(inverse)
    return _rebuilt(G, inverse=inv)


_ISO_ASSOC = [
    "(a01 o a01) o a03 = a03 != a02 = a01 o (a01 o a03)",
    "(a01 o a02) o a06 = a00 != a01 = a01 o (a02 o a06)",
    "(a01 o a02) o a07 = a01 != a00 = a01 o (a02 o a07)",
    "(a01 o a02) o a09 = a03 != a02 = a01 o (a02 o a09)",
    "(a01 o a02) o a10 = a04 != a05 = a01 o (a02 o a10)",
    "(a01 o a02) o a11 = a05 != a04 = a01 o (a02 o a11)",
    "(a01 o a03) o a09 = a03 != a02 = a01 o (a03 o a09)",
    "(a01 o a04) o a14 = a03 != a02 = a01 o (a04 o a14)",
    "(a01 o a05) o a15 = a03 != a02 = a01 o (a05 o a15)",
    "(a06 o a01) o a02 = a09 != a08 = a06 o (a01 o a02)",
    "(a07 o a01) o a02 = a08 != a09 = a07 o (a01 o a02)",
    "(a12 o a01) o a02 = a15 != a14 = a12 o (a01 o a02)",
    "(a13 o a01) o a02 = a14 != a15 = a13 o (a01 o a02)",
    "(a02 o a07) o a02 = a02 != a03 = a02 o (a07 o a02)",
    "(a03 o a06) o a02 = a02 != a03 = a03 o (a06 o a02)",
    "(a04 o a13) o a02 = a02 != a03 = a04 o (a13 o a02)",
    "(a05 o a12) o a02 = a02 != a03 = a05 o (a12 o a02)",
]

_CORRUPTIONS = {
    "off-domain": (
        lambda: _loaded(_appended(_pair3_arrows_doc(), ["ab", "ab", "aa"])),
        [("compose-domain", "table defines ab o ab but src/tgt do not match")]),
    "dropped": (
        lambda: _loaded(_edit_compose(_pair3_arrows_doc(), "ab", "bc")),
        [("compose-missing", "ab o bc undefined")]),
    "wrong-endpoints": (
        lambda: _loaded(_edit_compose(_pair3_arrows_doc(), "ab", "bc", "ba")),
        [("compose-endpoints", "ab o bc = ba has wrong endpoints"),
         ("associativity", "(ab o ba) o ac = ac != ba = ab o (ba o ac)"),
         ("associativity", "(ac o cb) o bc = ba != ac = ac o (cb o bc)")]),
    "off-domain-read-by-associativity": (
        lambda: _loaded(_appended(_edit_compose(_pair3_arrows_doc(), "ab", "bc", "ba"),
                                  ["ba", "cc", "bb"])),
        [("compose-endpoints", "ab o bc = ba has wrong endpoints"),
         ("compose-domain", "table defines ba o cc but src/tgt do not match"),
         ("associativity", "(ab o ba) o ac = ac != ba = ab o (ba o ac)"),
         ("associativity", "(ab o bc) o cc = bb != ba = ab o (bc o cc)"),
         ("associativity", "(ac o cb) o bc = ba != ac = ac o (cb o bc)")]),
    "repeated-product-last-wins": (
        lambda: _loaded(_appended(_pair3_arrows_doc(), ["ab", "bc", "ba"])),
        [("compose-endpoints", "ab o bc = ba has wrong endpoints"),
         ("associativity", "(ab o ba) o ac = ac != ba = ab o (ba o ac)"),
         ("associativity", "(ac o cb) o bc = ba != ac = ac o (cb o bc)")]),
    "repeated-product-repaired": (
        lambda: _loaded(_appended(_edit_compose(_pair3_arrows_doc(), "ab", "bc", "ba"),
                                  ["ab", "bc", "ac"])),
        []),
    "iso-wrong-endpoints": (
        lambda: _loaded(_edit_compose(_iso_z2_doc(), "a01", "a02", "a06")),
        [("compose-endpoints", "a01 o a02 = a06 has wrong endpoints"),
         ("associativity", "(a01 o a01) o a03 = a03 != a06 = a01 o (a01 o a03)"),
         ("associativity", "(a01 o a03) o a09 = a03 != a06 = a01 o (a03 o a09)"),
         ("associativity", "(a01 o a04) o a14 = a03 != a06 = a01 o (a04 o a14)"),
         ("associativity", "(a01 o a05) o a15 = a03 != a06 = a01 o (a05 o a15)"),
         ("associativity", "(a02 o a07) o a02 = a06 != a03 = a02 o (a07 o a02)"),
         ("associativity", "(a03 o a06) o a02 = a06 != a03 = a03 o (a06 o a02)"),
         ("associativity", "(a04 o a13) o a02 = a06 != a03 = a04 o (a13 o a02)"),
         ("associativity", "(a05 o a12) o a02 = a06 != a03 = a05 o (a12 o a02)")]),
    "iso-associativity": (
        lambda: _loaded(_edit_compose(_iso_z2_doc(), "a01", "a02", "a02")),
        [("associativity", w) for w in _ISO_ASSOC]),
    "unit-missing": (
        lambda: _rebuilt(_loaded(_pair3_arrows_doc()), unit_of=[0, None, 8]),
        [("unit-missing", "object b has no unit arrow")]),
    "unit-misplaced": (
        lambda: _rebuilt(_loaded(_pair3_arrows_doc()), unit_of=[1, 4, 8]),
        [("unit-endpoints", "unit of a is ab, not a loop at it"),
         ("unit-law", "aa o unit(a) != aa"),
         ("unit-law", "ba o unit(a) != ba"),
         ("unit-law", "ca o unit(a) != ca"),
         ("inverse-law", "aa o aa != unit(a)"),
         ("inverse-law", "aa o aa != unit(a)"),
         ("inverse-law", "ab o ba != unit(a)"),
         ("inverse-law", "ac o ca != unit(a)"),
         ("inverse-law", "ab o ba != unit(a)"),
         ("inverse-law", "ac o ca != unit(a)")]),
    "inverse-endpoints": (
        lambda: _with_inverse(_loaded(_pair3_arrows_doc()), "ab", "ab"),
        [("inverse-endpoints", "inverse(ab) = ab does not swap endpoints"),
         ("inverse-involution", "inverse(inverse(ba)) = ab")]),
    "iso-inverse-involution": (
        lambda: _with_inverse(_loaded(_iso_z2_doc()), "a01", "a00"),
        [("inverse-involution", "inverse(inverse(a01)) = a00"),
         ("inverse-law", "a01 o a00 != unit(a)"),
         ("inverse-law", "a00 o a01 != unit(a)")]),
}


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_validate_pins_every_witness_in_order(case):
    build, want = _CORRUPTIONS[case]
    assert [(e.check, e.witness) for e in validate(build()).entries] == want


def test_validate_clean_explicit_documents():
    assert validate(_loaded(_pair3_arrows_doc())).entries == []
    assert validate(_loaded(_iso_z2_doc())).entries == []


_TABLES_FOR_COMMANDS = {
    **{case: build for case, (build, _) in _CORRUPTIONS.items()},
    "iso-composite-off-the-loops":
        lambda: _loaded(_edit_compose(_iso_z2_doc(), "a01", "a01", "a03")),
    "iso-inverse-off-the-loops": lambda: _with_inverse(_loaded(_iso_z2_doc()), "a01", "a02"),
}

_COMMANDS = [["validate"], ["check", "--trials", "2"], ["rep", "trivial"],
             ["rep", "left-regular"], ["equiv"], ["integrate", "F"],
             ["integrate", "F", "--rep", "trivial"], ["convolve", "F", "F"],
             ["inorm", "F"], ["multipliers"]]


@pytest.mark.parametrize("case", sorted(_TABLES_FOR_COMMANDS))
def test_every_command_reports_a_corrupted_table_without_a_traceback(case, tmp_path,
                                                                     capsys):
    G = _TABLES_FOR_COMMANDS[case]()
    path, f = str(tmp_path / "g.json"), str(tmp_path / "f.json")
    save_groupoid(path, GroupoidDocument(G, None, None, "strict"))
    save_function(f, G, np.ones(G.n_arrows))
    for command, *rest in _COMMANDS:
        argv = [command, path, *(f if arg == "F" else arg for arg in rest)]
        assert main(argv) in (0, 1, 2), argv


class TestFibers:
    def test_pair3_target_fiber_enumeration(self):
        G = pair_groupoid("abc")
        a = G.object_index("a")
        # oracle: filter all arrows by their stored target
        want = tuple(k for k in range(G.n_arrows) if G.tgt[k] == a)
        assert G.target_fiber(a) == want
        assert {(G.objects[G.tgt[k]], G.objects[G.src[k]]) for k in want} == \
            {("a", "a"), ("a", "b"), ("a", "c")}

    def test_single_unit_fiber(self):
        G = build_from_relation(["x"], [("x", "x")], "strict")
        assert G.target_fiber(0) == (0,)
        assert G.source_fiber(0) == (0,)

    def test_disjoint_union_fibers_stay_in_component(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        c = G.object_index("c")
        fiber = G.target_fiber(c)
        assert all(G.objects[G.src[k]] in ("c", "d") for k in fiber)
        assert len(fiber) == 2

    def test_unknown_object(self):
        with pytest.raises(UnknownObject):
            pair_groupoid("ab").target_fiber(5)


class TestMultipliers:
    def test_full_pair_everything(self):
        G = pair_groupoid("abcd")
        ms = multipliers(G)
        assert ms.left == ms.right == ms.ideal == (0, 1, 2, 3)
        assert ms.certificate.ok

    def test_exhaustive_scan_oracle(self):
        # relation {(a,a),(a,b),(b,b)} completed
        G = build_from_relation(["a", "b"], [("a", "a"), ("a", "b"), ("b", "b")],
                                "complete")
        pairs = {(t, s) for t, s in G.relation_pairs()}
        labels = G.objects
        left_oracle = {x for x in labels if all((x, u) in pairs for u in labels)}
        right_oracle = {y for y in labels if all((v, y) in pairs for v in labels)}
        ms = multipliers(G)
        assert {labels[i] for i in ms.left} == left_oracle
        assert {labels[i] for i in ms.right} == right_oracle
        assert {labels[i] for i in ms.ideal} == left_oracle & right_oracle

    def test_two_orbits_empty_ideal(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        ms = multipliers(G)
        assert ms.left == () and ms.right == () and ms.ideal == ()
        assert ms.certificate.ok

    def test_isotropy_rejected(self):
        Z2 = group_groupoid(*cyclic_table(2))
        with pytest.raises(NotRelationGroupoid):
            multipliers(Z2)


class TestIsotropy:
    def test_pair_groupoid_trivial(self):
        G = pair_groupoid("abc")
        for x in range(3):
            assert isotropy(G, x).order == 1

    def test_z2_isotropy_everywhere(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        z2 = cyclic_table(2)[1]
        for x in range(3):
            iso = isotropy(G, x)
            assert iso.order == 2
            # group-table comparison against the abstract Z2 table
            relabel = {iso.unit_index: 0, 1 - iso.unit_index: 1}
            got = {(relabel[i], relabel[j]): relabel[iso.mult(i, j)]
                   for i in range(2) for j in range(2)}
            assert got == {(i, j): z2[i][j] for i in range(2) for j in range(2)}

    def test_a_composite_off_the_loops_is_named(self):
        G = _loaded(_edit_compose(_iso_z2_doc(), "a01", "a01", "a03"))
        with pytest.raises(ValueError, match=r"^a01 o a01 = a03 is not a loop at a$"):
            isotropy(G, 0)

    def test_an_inverse_off_the_loops_is_named(self):
        G = _with_inverse(_loaded(_iso_z2_doc()), "a01", "a02")
        with pytest.raises(ValueError, match=r"^inverse\(a01\) = a02 is not a loop at a$"):
            isotropy(G, 0)

    def test_bundle_counts_and_validates(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        xi = isotropy_bundle(G)
        assert xi.n_objects == 3 and xi.n_arrows == 6
        assert validate(xi).ok
        assert xi.orbits() == [[0], [1], [2]]


class TestOrbits:
    def test_pair_single_block(self):
        assert pair_groupoid("abc").orbits() == [[0, 1, 2]]

    def test_union_two_blocks(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        assert G.orbits() == [[0, 1], [2, 3]]

    def test_reachability_oracle(self):
        G = build_from_relation(
            ["a", "b", "c", "d", "e"],
            [("a", "b"), ("c", "d"), ("e", "e")], "complete")
        # oracle: breadth-first reachability over undirected arrow endpoints
        adj = {x: set() for x in range(G.n_objects)}
        for k in range(G.n_arrows):
            adj[G.src[k]].add(G.tgt[k])
            adj[G.tgt[k]].add(G.src[k])
        seen, blocks = set(), []
        for x in range(G.n_objects):
            if x in seen:
                continue
            frontier, block = [x], set()
            while frontier:
                v = frontier.pop()
                if v in block:
                    continue
                block.add(v)
                frontier.extend(adj[v] - block)
            seen |= block
            blocks.append(sorted(block))
        assert G.orbits() == blocks

    def test_fiber_sizes_constant_on_orbits(self):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3)))
        sizes = {len(G.target_fiber(x)) for x in range(G.n_objects)}
        assert len(sizes) == 1


class UnionFind:
    """Disjoint sets on 0..n-1; the root of every set is its smallest member.
    The oracle for :func:`components`."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, i: int) -> int:
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@st.composite
def _graphs(draw):
    """(n, i, j): random edges, self-loops, repeated edges and a long path
    through a random part of the vertices, in a random order."""
    n = draw(st.integers(0, 60))
    if n == 0:
        return 0, [], []
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=n))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    path = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
    edges += list(zip(path, path[1:]))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    edges = draw(st.permutations(edges))
    return n, [a for a, _ in edges], [b for _, b in edges]


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(_graphs())
    def test_labels_are_the_union_find_roots(self, graph):
        n, i, j = graph
        uf = UnionFind(n)
        for a, b in zip(i, j):
            uf.union(a, b)
        assert components(n, i, j).tolist() == [uf.find(v) for v in range(n)]

    def test_a_path_of_2000_vertices_gets_one_label(self):
        assert components(2000, np.arange(1999), np.arange(1, 2000)).tolist() == [0] * 2000


class TestRelationView:
    def test_involution_squared_and_endpoint_swap(self):
        G = pair_groupoid("abcd")
        for a in range(G.n_arrows):
            assert G.inverse[G.inverse[a]] == a
            assert (G.tgt[G.inverse[a]], G.src[G.inverse[a]]) == (G.src[a], G.tgt[a])

    def test_relation_isomorphism_found(self):
        A = build_from_relation(list("wxyz"), [("w", "x"), ("y", "z")], "complete")
        B = build_from_relation(list("pqrs"), [("p", "q"), ("r", "s")], "complete")
        phi = relation_isomorphism(A, B)
        assert phi is not None

    def test_relation_isomorphism_absent(self):
        A = build_from_relation(list("abc"), [("a", "b")], "complete")
        B = build_from_relation(list("abc"), [("a", "b"), ("b", "c")], "complete")
        assert relation_isomorphism(A, B) is None


def test_pair_groupoid_agrees_with_relation_constructor():
    # independent construction paths must coincide arrow-for-arrow
    for n in (2, 3, 4):
        labels = [chr(ord("a") + i) for i in range(n)]
        direct = pair_groupoid(labels)
        rel = build_from_relation(labels, list(itertools.product(labels, labels)),
                                  "strict")
        assert direct.objects == rel.objects
        assert direct.relation_pairs() == rel.relation_pairs()
        assert np.array_equal(direct.compose_table, rel.compose_table)
        assert direct.inverse == rel.inverse


def _mixed_groupoids():
    return [pair_groupoid("abcd"),
            product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3))),
            disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                           pair_groupoid("xyz"))]


def test_convolution_plan_is_the_fiberwise_enumeration():
    # oracle: for every arrow out and every left into tgt(out), in fiber order,
    # the factor right = inverse(left) o out; this order fixes convolve's sums
    for G in _mixed_groupoids():
        want = [(out, left, G.compose(G.inverse[left], out))
                for out in range(G.n_arrows) for left in G.target_fiber(G.tgt[out])]
        outs, lefts, rights = G.convolution_plan()
        assert list(zip(outs.tolist(), lefts.tolist(), rights.tolist())) == want


def test_vectorized_and_scalar_lookups_agree():
    for G in _mixed_groupoids():
        a, b = np.array(G.composable_pairs()).T
        assert G.composites(a, b).tolist() == [G.compose(x, y) for x, y in zip(a, b)]
        off = [(x, y) for x in range(G.n_arrows) for y in range(G.n_arrows)
               if G.src[x] != G.tgt[y]][:20]
        assert G.composites(*np.array(off).T).tolist() == [-1] * len(off)
        with pytest.raises(ValueError):
            G.compose(*off[0])
        assert G.composites([-1, 0], [0, -1]).tolist() == [-1, -1]
