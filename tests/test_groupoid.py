"""Groupoid kernel: construction, validation, fibers, multipliers, isotropy."""

import copy
import itertools
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import (FileFormatError, HaarSystem, NotClosed, NotRelationGroupoid,
                      NotTransitive, UnknownLabel, UnknownObject, build_from_relation,
                      convolve, isotropy_bundle, multipliers, table_convolve, validate)
from groupalg.builders import (cyclic_table, disjoint_union, group_groupoid,
                               klein_table, pair_groupoid, product, symmetric_table)
from groupalg import groupoid as gmod
from groupalg import orbits
from groupalg.cli import main
from groupalg.groupoid import FiniteGroupoid, components, relation_isomorphism
from groupalg.haar import check_left_invariance, counting_haar
from groupalg.inductive import limit
from groupalg.io import (GroupoidDocument, load_manifest, parse_groupoid_document,
                         save_function, save_groupoid)
from groupalg.randgen import SplitMix64, random_groupoid

from oracles import (certificate_out_of_base, components_orbits, derived_decomposition,
                     isotropy, looped_multiplier_certificate, looped_orbit_index,
                     looped_unit_inverse_laws, norm_groupoids, own_pass_endpoint_faults,
                     own_pass_orbit_matrices, pair_endpoints_hold, right_nested_depths,
                     scanned_compose_entries, searched_build_from_relation,
                     searched_composites, set_build_from_relation, tuple_fibers,
                     generator_certificate, whole_table_light)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "groupalg", "fixtures")


def _arrows_renumbered(G, order):
    """G with arrow order[i] renumbered i."""
    new = np.empty_like(order)
    new[order] = np.arange(len(order))
    return FiniteGroupoid(G.objects, G.src[order], G.tgt[order], new[G.compose_table],
                          new[G.inverse[order]], [new[u] for u in G.unit_of],
                          [G.arrow_ids[a] for a in order])


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

    @pytest.mark.parametrize("pairs", [
        [("a", "z")], [("z", "a")], [("y", "z")], [("a", "a"), ("a", "b"), ("z", "y")],
        [(1, 2), ("a", 3)], [("a", "a"), (1, "c")]])
    def test_the_first_unknown_label_is_named_as_the_set_build_names_it(self, pairs):
        # labels are read as strings: the int 1 is the object "1"
        def first_error(build):
            with pytest.raises(UnknownLabel) as exc:
                build(["a", "b", 1, "2"], pairs, "bogus")  # before the policy check
            return str(exc.value)
        assert first_error(build_from_relation) == first_error(set_build_from_relation)

    def test_a_malformed_relation_entry_is_reported_before_any_unknown_label(self):
        doc = {"objects": ["a", "b"], "relation": [["a", "z"], ["a", "b", "c"]]}
        with pytest.raises(FileFormatError, match="relation entries must be label pairs$"):
            parse_groupoid_document(doc, where="g")
        doc["relation"] = [["a", "a"], [1, "z"]]
        with pytest.raises(FileFormatError,
                           match=r"^g: pair \(1, z\) references unknown label '1'$"):
            parse_groupoid_document(doc, where="g")

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


@st.composite
def relations(draw):
    """Objects in a random order and label pairs over them: either any pairs,
    or the pairs within the classes of a random partition, some dropped,
    shuffled, some repeated; objects in no class touch no pair."""
    objects = draw(st.permutations([f"o{i}" for i in range(draw(st.integers(0, 7)))]))
    if not objects:
        return objects, []
    if draw(st.booleans()):
        return objects, draw(st.lists(st.tuples(st.sampled_from(objects),
                                                st.sampled_from(objects)), max_size=14))
    cls = draw(st.lists(st.integers(0, 3), min_size=len(objects), max_size=len(objects)))
    pairs = [(x, y) for x, cx in zip(objects, cls) for y, cy in zip(objects, cls)
             if cx == cy < 3]
    if pairs:
        drop = draw(st.sets(st.integers(0, len(pairs) - 1), max_size=2))
        pairs = draw(st.permutations([p for i, p in enumerate(pairs) if i not in drop]))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3)) if pairs else []
    return objects, pairs


def _built(build, objects, pairs, policy):
    try:
        G = build(objects, pairs, policy)
    except NotClosed as exc:
        return str(exc), exc.witness
    return (G.objects, G.arrow_ids, G.src.tolist(), G.tgt.tolist(), G.compose_table.tolist(),
            G.inverse.tolist(), G.unit_of)


@settings(max_examples=300, deadline=None)
@given(relations(), st.sampled_from(["strict", "complete"]))
def test_build_from_relation_agrees_with_the_set_build(relation, policy):
    objects, pairs = relation
    assert (_built(build_from_relation, objects, pairs, policy)
            == _built(set_build_from_relation, objects, pairs, policy))


@settings(max_examples=300, deadline=None)
@given(relations(), st.sampled_from(["strict", "complete"]))
def test_the_build_by_position_equals_the_search(relation, policy):
    # closed or not: the same groupoid, or the same NotClosed message and witness
    objects, pairs = relation
    assert (_built(build_from_relation, objects, pairs, policy)
            == _built(searched_build_from_relation, objects, pairs, policy))


def test_a_relation_entry_that_is_no_pair_is_refused():
    for pairs in ([("a", "b", "a")], [("a",)], [("a", "a"), "ab", "abc"]):
        with pytest.raises(ValueError, match="^relation entries must be label pairs$"):
            build_from_relation(["a", "b"], pairs, "strict")


def _index(G):
    """What the constructor derives from the table: the stored rows, the
    sorted keys it searches, each arrow's first row, and the maps it keeps."""
    return (G.compose_table.tolist(), G._keys.tolist(), G._start.tolist(), G.inverse.tolist(),
            G.unit_of)


@settings(max_examples=200, deadline=None)
@given(relations(), st.sampled_from(["strict", "complete"]), st.randoms(use_true_random=False))
def test_the_sorted_build_equals_the_sorted_constructor_path(relation, policy, rnd):
    # the build hands the constructor its rows in (first, second) order,
    # which it keeps without np.unique; the same rows shuffled, once with a
    # wrong composite for one pair ahead of the right one, take np.unique
    # and must give the same groupoid
    objects, pairs = relation
    try:
        G = build_from_relation(objects, pairs, policy)
    except NotClosed:  # named as the set build names it (the test above)
        return
    rows = G.compose_table.tolist()
    first, second, _ = G.compose_table.T
    assert (np.diff(first * G.n_arrows + second) > 0).all()
    shuffled = rnd.sample(rows, len(rows))
    tables = [shuffled]
    if rows:
        a, b, c = rnd.choice(rows)
        tables.append([[a, b, (c + 1) % G.n_arrows], *shuffled])
    for table in tables:
        H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of, G.arrow_ids)
        assert _index(H) == _index(G)


def _orbit_arrays(om):
    return ([m.tolist() for m in om.left], [m.tolist() for m in om.right],
            [v.tolist() for v in om.rest], om.associative.tolist())


def _every_orbit_kept(G):
    return sum(len(right) for right in orbits.orbit_matrices(G).right) == len(G.orbits())


def _certified_as_the_oracle(G):
    """The certificate's verdict, as the whole-table certificate of
    ``oracles.generator_certificate`` gives it on a table whose every orbit
    the orbit matrices keep; any other table is not proved."""
    return _every_orbit_kept(G) and whole_table_light(G)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.sampled_from(["off-domain", "wrong-endpoints", "missing"]), max_size=3),
       st.randoms(use_true_random=False))
def test_one_endpoint_pass_judges_as_the_three_passes(seed, edits, rnd):
    # rows added off the domain (or, by chance, on it, where they win),
    # composites redirected, rows dropped: validate's compose entries, the
    # certificate and the kept orbits read from the one kept pass are those
    # of each reader's own pass over the rows
    G = random_groupoid(SplitMix64(seed), max_arrows=36)
    A, rows = G.n_arrows, G.compose_table.tolist()
    for edit in edits:
        if edit == "off-domain":
            rows.append([rnd.randrange(A), rnd.randrange(A), rnd.randrange(A)])
        elif edit == "wrong-endpoints":
            rows[rnd.randrange(len(rows))][2] = rnd.randrange(A)
        elif len(rows) > 1:
            del rows[rnd.randrange(len(rows))]
    H = FiniteGroupoid(G.objects, G.src, G.tgt, rows, G.inverse, G.unit_of, G.arrow_ids)
    got, want = H._endpoint_faults(), own_pass_endpoint_faults(H)
    assert [v.tolist() for v in got] == [v.tolist() for v in want]
    entries = [(e.check, e.witness) for e in validate(H).entries]
    compose = scanned_compose_entries(H)
    assert entries[:len(compose)] == compose
    assert not {"compose-domain", "compose-endpoints"} & {c for c, _ in entries[len(compose):]}
    oracle = generator_certificate(H)
    if not pair_endpoints_hold(H):
        assert not oracle.associative and oracle.generators.tolist() == []
        assert not H.certificate().associative
    assert H.certificate().associative == _certified_as_the_oracle(H)
    assert _orbit_arrays(orbits.orbit_matrices(H)) == _orbit_arrays(own_pass_orbit_matrices(H))


def test_validate_the_certificate_and_the_orbits_read_the_one_kept_pass(monkeypatch):
    # the pass is made once per groupoid, whichever reader comes first; a
    # fault planted in it is what all three judge, since none of them
    # compares the rows' endpoints on its own
    made = []
    real = FiniteGroupoid._endpoint_faults

    def counted(self):
        if self._faults is None:
            made.append(self)
        return real(self)
    monkeypatch.setattr(FiniteGroupoid, "_endpoint_faults", counted)
    for first in ("validate", "certificate", "orbits", "convolve"):
        G = product(pair_groupoid("abc"), group_groupoid(*cyclic_table(2)))
        mu = counting_haar(G)
        readers = {"validate": lambda: validate(G), "certificate": G.certificate,
                   "orbits": lambda: orbits.orbit_matrices(G),
                   "convolve": lambda: convolve(G, mu, np.ones(G.n_arrows), np.ones(G.n_arrows))}
        readers.pop(first)()
        for read in readers.values():
            read()
        assert made == [G] and validate(G).ok and G.certificate().associative
        made.clear()
    G = pair_groupoid("abc")
    a, b, c = G.compose_table[5].tolist()
    G._faults = (np.array([5]), np.array([False]))  # row 5 planted as a wrong composite
    assert [(e.check, e.witness) for e in validate(G).errors] == [
        ("compose-endpoints", f"{G.arrow_ids[a]} o {G.arrow_ids[b]} = {G.arrow_ids[c]} "
                              "has wrong endpoints")]
    assert not G.certificate().associative and orbits.orbit_matrices(G).left == ()
    assert made == []


def test_a_repeated_pair_in_sorted_rows_keeps_its_last_row():
    G = pair_groupoid("abc")
    rows = G.compose_table.tolist()
    a, b, c = rows[4]
    for early, late in [(G.unit_of[0], c), (c, G.unit_of[0])]:
        table = rows[:4] + [[a, b, early], [a, b, late]] + rows[5:]
        H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of)
        assert H.compose_table.tolist() == rows[:4] + [[a, b, late]] + rows[5:]
        assert H.composites(a, b) == late


def test_a_discrete_relation_builds_in_memory_linear_in_its_pairs():
    # an n x n index over the support would take 200 MB here
    labels = [f"o{i}" for i in range(5000)]
    pairs = [(x, x) for x in labels]
    for policy in ("strict", "complete"):
        tracemalloc.start()
        try:
            G = build_from_relation(labels, pairs, policy)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.n_arrows == 5000 and G.unit_of == list(range(5000))
        assert peak < 20e6, (policy, peak)


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


def _all_triples_associativity(G):
    """The per-triple associativity scan: every pair (x, y) the table
    defines on composable arrows, in composable-pair order, then every z
    into src(y); a triple is a witness when both bracketings are defined
    and differ.  Lookups read the table as written, off-domain rows too."""
    table = {(a, b): c for a, b, c in G.compose_table.tolist()}
    aid, out = G.arrow_ids, []
    for x, y in G.composable_pairs():
        xy = table.get((x, y))
        if xy is None:
            continue
        for z in G.target_fiber(G.src[y]):
            left, yz = table.get((xy, z)), table.get((y, z))
            right = None if yz is None else table.get((x, yz))
            if left is not None and right is not None and left != right:
                out.append(("associativity",
                            f"({aid[x]} o {aid[y]}) o {aid[z]} = {aid[left]} "
                            f"!= {aid[right]} = {aid[x]} o ({aid[y]} o {aid[z]})"))
    return out


_DOMAIN_CHECKS = ("compose-domain", "compose-endpoints", "compose-missing")


def _validate_with_the_triple_scan(G):
    """validate's entries with its associativity entries taken from the
    oracle: they follow the domain checks and precede the unit checks."""
    rest = [(e.check, e.witness) for e in validate(G).entries if e.check != "associativity"]
    return ([e for e in rest if e[0] in _DOMAIN_CHECKS] + _all_triples_associativity(G)
            + [e for e in rest if e[0] not in _DOMAIN_CHECKS])


@pytest.mark.parametrize("case", sorted(_CORRUPTIONS))
def test_validate_matches_the_triple_scan_on_corrupted_tables(case):
    G = _CORRUPTIONS[case][0]()
    assert [(e.check, e.witness) for e in validate(G).entries] == \
        _validate_with_the_triple_scan(G)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(["none", "parallel", "any", "drop"]),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_validate_matches_the_triple_scan_on_random_groupoids(seed, kind, row, pick):
    # "parallel" redirects one product to an arrow with the same endpoints,
    # which only Light's test can tell from a groupoid
    G = random_groupoid(SplitMix64(seed), max_arrows=48)
    table = np.array(G.compose_table)
    if kind == "drop":
        table = np.delete(table, row % len(table), axis=0)
    elif kind != "none":
        c = table[row % len(table), 2]
        pool = [x for x in range(G.n_arrows)
                if kind == "any" or (G.src[x], G.tgt[x]) == (G.src[c], G.tgt[c])]
        table[row % len(table), 2] = pool[pick % len(pool)]
    H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of, G.arrow_ids)
    assert [(e.check, e.witness) for e in validate(H).entries] == \
        _validate_with_the_triple_scan(H)
    if kind == "none":
        assert H.certificate().associative
    assert H.certificate().associative == _certified_as_the_oracle(H)


def _fixture_groupoids():
    out = {}
    for name in sorted(os.listdir(FIXTURES)):
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        if "relation" in doc or "arrows" in doc:
            out[f"fixture-{name}"] = lambda doc=doc: _loaded(doc)
    return out


_CERTIFIED = {
    **_fixture_groupoids(),
    **{f"corrupted-{case}": build for case, (build, _) in _CORRUPTIONS.items()},
    **{f"norm-{name}": lambda name=name: norm_groupoids()[name] for name in norm_groupoids()},
    **{f"random-{seed}": lambda seed=seed: random_groupoid(SplitMix64(seed), max_arrows=64)
       for seed in (1, 2, 5, 17, 40, 99)},
}


@pytest.mark.parametrize("case", sorted(_CERTIFIED))
def test_the_orbit_certificate_agrees_with_lights_test_on_the_whole_table(case):
    # a table with an orbit that is not kept is not proved: of these, only
    # the row off the domain leaves a table that the whole-table test proves,
    # and validate scans it to the same report
    G = _CERTIFIED[case]()
    assert G.certificate().associative == _certified_as_the_oracle(G)
    flipped = G.certificate().associative != whole_table_light(G)
    assert flipped == (case == "corrupted-off-domain")
    if flipped:
        assert [(e.check, e.witness) for e in validate(G).entries] == \
            _validate_with_the_triple_scan(G)


# loops of order 5 that are no groups, Latin squares with identity 0: in
# the first every element is its own inverse, and (1 1) 2 = 2 != 4 = 1 (1 2);
# the second is generated by 2 alone, which fails Light's test
_LOOPS5 = {
    "self-inverse": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
                     [4, 3, 1, 2, 0]],
    "generated-by-2": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
                       [4, 2, 0, 1, 3]],
}


def _pair2_times(table, back):
    """pair(2) x L for the loop table L: arrows (x, g, y) running y -> x,
    (x, g, y) o (y, h, z) = (x, L[g][h], z); x-major, then y, then g, except
    that the first arrow b -> a is (a, back, b).  So the star's loop at a,
    (a, back, b) o (b, 0, a), is (a, back, a).  Each (x, g, y) is given the
    inverse (y, g, x)."""
    h = len(table)
    arrows = [(x, g, y) for x in range(2) for y in range(2)
              for g in ([back, *(k for k in range(h) if k != back)] if (x, y) == (0, 1)
                        else range(h))]
    at = {arrow: i for i, arrow in enumerate(arrows)}
    rows = [(at[x, g, y], at[y, k, z], at[x, table[g][k], z])
            for x, g, y in arrows for w, k, z in arrows if w == y]
    return FiniteGroupoid("ab", [y for _, _, y in arrows], [x for x, _, _ in arrows], rows,
                          [at[y, g, x] for x, g, y in arrows], [at[0, 0, 0], at[1, 0, 1]])


@pytest.mark.parametrize("loop, back", [("self-inverse", 0), ("generated-by-2", 2)])
def test_a_kept_orbit_with_a_non_associative_label_table_is_refused(loop, back):
    L = np.array(_LOOPS5[loop])
    assert (np.sort(L, axis=0) == np.arange(5)[:, None]).all()
    assert (np.sort(L, axis=1) == np.arange(5)).all()
    assert not (L[L] == L[:, L]).all()  # (x y) z == x (y z) fails somewhere
    G = _pair2_times(_LOOPS5[loop], back)
    # the orbit matrices keep the one orbit, so its loop table decides, as
    # the whole-table test over generators that reach every arrow does
    om = orbits.orbit_matrices(G)
    assert len(om.left) == 1 and len(om.rest[0]) == 0 and not om.associative.any()
    assert right_nested_depths(G, generator_certificate(G).generators.tolist()) is not None
    assert not G.certificate().associative
    assert not whole_table_light(G)
    entries = [(e.check, e.witness) for e in validate(G).entries]
    assert [e for e in entries if e[0] == "associativity"] == _all_triples_associativity(G) != []
    assert entries == _validate_with_the_triple_scan(G)


def test_each_orbit_is_judged_on_its_own_rows():
    # a clean pair(2) x Z3 beside pair(2) x a loop that is no group: the
    # loop orbit's label table fails Light's test, so validate scans every
    # triple, to the triple scan's entries; the isomorphism proof names the
    # loop orbit's base with associativity and proves the clean orbit
    clean = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))
    G = disjoint_union(clean, _pair2_times(_LOOPS5["self-inverse"], 0))
    bases = np.flatnonzero(G.orbit_index.members.size).tolist()
    om = orbits.orbit_matrices(G)
    assert len(bases) == 2 and sum(len(right) for right in om.right) == 2
    assert om.associative[bases].tolist() == [True, False]
    assert not G.certificate().associative
    entries = [(e.check, e.witness) for e in validate(G).entries]
    assert [e for e in entries if e[0] == "associativity"] == _all_triples_associativity(G) != []
    assert entries == _validate_with_the_triple_scan(G)
    assert orbits.isomorphism_fault(G) == (bases[1], "associativity")
    assert orbits.isomorphism_fault(clean) is None


class TestGeneratorCertificate:
    """The certificate beside the whole-table one of
    ``oracles.generator_certificate``, its reference: the generators that
    reference takes, and tables neither proves."""

    @pytest.mark.parametrize("n", [1, 2, 5, 36])
    def test_pair_groupoid_star(self, n):
        G = pair_groupoid([f"x{i}" for i in range(n)])
        cert = generator_certificate(G)
        assert cert.associative and G.certificate().associative
        # one arrow each way between the base and every other object; at
        # n = 1 the unit, which no star makes
        assert len(cert.generators) == max(2 * (n - 1), 1)
        assert right_nested_depths(G, cert.generators.tolist()) == (1 if n == 1 else 2)

    @pytest.mark.parametrize("name, G", [
        ("z128", group_groupoid(*cyclic_table(128))),
        ("pair3xz6", product(pair_groupoid("abc"), group_groupoid(*cyclic_table(6)))),
        ("union", disjoint_union(product(pair_groupoid("ab"), group_groupoid(*klein_table())),
                                 pair_groupoid("x"), pair_groupoid("uvw"))),
        ("pair3xs3", product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3)))),
    ])
    def test_the_generators_reach_every_arrow(self, name, G):
        cert = generator_certificate(G)
        assert cert.associative and G.certificate().associative
        assert right_nested_depths(G, cert.generators.tolist()) is not None

    def test_isotropy_powers_keep_words_short(self):
        # Z_128 from one generator would need words of length 127
        G = group_groupoid(*cyclic_table(128))
        gens = generator_certificate(G).generators.tolist()
        assert len(gens) <= 8 and right_nested_depths(G, gens) <= 7

    def test_a_category_the_generators_do_not_reach_gets_the_scan(self):
        # b -> x by f and h = g o f, loops 1_x and g at x, and no arrow back:
        # Light's test holds on the generators {1_b, f}, which reach neither
        # 1_x nor g, and g o 1_x = 1_x breaks (g o 1_x) o g = g o (1_x o g)
        unit_b, f, unit_x, g, h = range(5)
        table = [(unit_b, unit_b, unit_b), (f, unit_b, f), (h, unit_b, h),
                 (unit_x, f, f), (unit_x, h, h), (g, f, h), (g, h, f),
                 (unit_x, unit_x, unit_x), (unit_x, g, g), (g, unit_x, unit_x),
                 (g, g, unit_x)]
        G = FiniteGroupoid("bx", [0, 0, 1, 1, 0], [0, 1, 1, 1, 1], table,
                           list(range(5)), [unit_b, unit_x])
        assert not G.certificate().associative
        entries = [(e.check, e.witness) for e in validate(G).entries]
        assert ("associativity", "(a03 o a02) o a03 = a03 != a02 = a03 o (a02 o a03)") \
            in entries
        assert entries == _validate_with_the_triple_scan(G)

    def test_no_certificate_without_a_complete_table(self):
        for case in ("dropped", "wrong-endpoints", "iso-associativity"):
            assert not _CORRUPTIONS[case][0]().certificate().associative

    def test_validate_looks_up_pairs_not_triples(self, monkeypatch):
        n = 12
        G = pair_groupoid([f"x{i}" for i in range(n)])
        looked = []
        real = FiniteGroupoid.composites

        def counted(self, a, b):
            looked.append(np.size(a))
            return real(self, a, b)

        monkeypatch.setattr(FiniteGroupoid, "composites", counted)
        assert validate(G).ok
        # the orbit matrices read the table's rows and look nothing up: one
        # lookup per composable pair, n^3, and four per arrow for the unit
        # and inverse laws; the triple scan they replace makes 3 per
        # composable triple, 3 n^4
        assert sum(looked) == n ** 3 + 4 * n ** 2 < 3 * n ** 4


def test_one_pass_looks_the_pair_products_up_once(monkeypatch):
    # validate and the Haar invariance check both read the composable pairs
    # and their composites, kept on the groupoid
    made = []
    real = gmod._composable

    def counted(*args):
        made.append(args)
        return real(*args)
    monkeypatch.setattr(gmod, "_composable", counted)
    G = pair_groupoid([f"x{i}" for i in range(6)])
    gdoc = GroupoidDocument(G, np.ones(G.n_arrows), None, "strict")
    assert validate(G).ok and G.certificate().associative
    assert check_left_invariance(G, counting_haar(G)).ok
    assert all(s.report.ok for s in gdoc.check())
    assert len(made) == 1
    a, b, c = G._pair_products()
    assert G._pair_products() is G._pair_products()
    assert not any(v.flags.writeable for v in (a, b, c))
    pairs = G.composable_pairs()  # its own enumeration
    assert len(made) == 2
    assert list(zip(a.tolist(), b.tolist())) == pairs
    assert c.tolist() == [G.compose(x, y) for x, y in pairs]


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


_UNIT_AND_INVERSE = ("unit-missing", "unit-endpoints", "unit-law", "inverse-endpoints",
                     "inverse-involution", "inverse-law")


def _unit_and_inverse_entries(G):
    return [(e.check, e.witness) for e in validate(G).entries if e.check in _UNIT_AND_INVERSE]


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(["renumbered", "dropped", "redirected", "inverse", "moved"]),
                max_size=3),
       st.booleans(), st.data())
def test_unit_and_inverse_masks_agree_with_the_loops(seed, kinds, unit, data):
    G = random_groupoid(SplitMix64(seed), max_arrows=40)
    for kind in kinds:
        G = _corrupted(G, kind, data)
    if unit:  # one unit moved to any arrow, or dropped
        units = list(G.unit_of)
        units[data.draw(st.integers(0, G.n_objects - 1))] = data.draw(
            st.one_of(st.none(), st.integers(0, G.n_arrows - 1)))
        G = FiniteGroupoid(G.objects, G.src, G.tgt, G.compose_table, G.inverse, units)
    assert _unit_and_inverse_entries(G) == looped_unit_inverse_laws(G)


@pytest.mark.parametrize("case", sorted(_TABLES_FOR_COMMANDS) + ["unit-composite-is-arrow-0",
                                                                 "inverse-swaps-and-repeats"])
def test_unit_and_inverse_masks_agree_with_the_loops_on_corrupted_tables(case):
    if case == "unit-composite-is-arrow-0":
        # aa o unit(a) read as the arrow numbered 0 where another arrow is expected
        G = _loaded(_edit_compose(_pair3_arrows_doc(), "ab", "bb", "aa"))
    elif case == "inverse-swaps-and-repeats":
        # inverse(aa) = ab: wrong endpoints, and inverse(ab) is not aa either
        G = _with_inverse(_loaded(_pair3_arrows_doc()), "aa", "ab")
    else:
        G = _TABLES_FOR_COMMANDS[case]()
    assert _unit_and_inverse_entries(G) == looped_unit_inverse_laws(G)


def _empty():
    return FiniteGroupoid([], [], [], [], [], [])


_DEGENERATE_RELATIONS = {
    "empty": ([], [], "strict"),
    "no-pairs": (["a", "b"], [], "complete"),
    "one-object": (["x"], [("x", "x")], "strict"),
    "one-object-complete": (["x", "y"], [("x", "x")], "complete"),
    "units-only": (list("abc"), [("c", "c"), ("a", "a")], "strict"),
    "complete-union": (list("abcde"), [("a", "b"), ("c", "c"), ("e", "d")], "complete"),
}

_DEGENERATE = {
    **{f"relation-{name}": lambda args=args: build_from_relation(*args)
       for name, args in _DEGENERATE_RELATIONS.items()},
    "empty": _empty,
    "one-arrow": lambda: FiniteGroupoid(["x"], [0], [0], [[0, 0, 0]], [0], [0]),
    "one-arrow-no-table": lambda: FiniteGroupoid(["x"], [0], [0], [], [0], [0]),
    "one-arrow-no-unit": lambda: FiniteGroupoid(["x"], [0], [0], [[0, 0, 0]], [0], [None]),
    "object-without-arrows": lambda: FiniteGroupoid("xy", [0], [0], [[0, 0, 0]], [0], [0, None]),
    "union": lambda: disjoint_union(_empty(), pair_groupoid("x"), _empty(),
                                    FiniteGroupoid(["y"], [0], [0], [], [0], [0]),
                                    build_from_relation(list("uv"), [("u", "v")], "complete")),
}


@pytest.mark.parametrize("case", sorted(_DEGENERATE))
def test_degenerate_shapes_get_the_oracle_paths_report(case):
    G = _DEGENERATE[case]()
    assert G.certificate().associative == _certified_as_the_oracle(G)
    assert [(e.check, e.witness) for e in validate(G).entries] == \
        _validate_with_the_triple_scan(G)


@pytest.mark.parametrize("name", sorted(_DEGENERATE_RELATIONS))
def test_degenerate_relations_build_and_check_as_the_set_build(name, tmp_path):
    objects, pairs, policy = _DEGENERATE_RELATIONS[name]
    assert (_built(build_from_relation, objects, pairs, policy)
            == _built(set_build_from_relation, objects, pairs, policy))
    path = str(tmp_path / "g.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"objects": objects, "relation": [list(p) for p in pairs],
                   "closure_policy": policy}, fh)
    assert main(["validate", path]) == 0
    assert main(["check", path, "--trials", "2"]) == 0


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

    @pytest.mark.parametrize("make", [
        lambda: product(pair_groupoid("abc"), group_groupoid(*symmetric_table(3))),
        lambda: disjoint_union(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)),
                               product(pair_groupoid("cd"), group_groupoid(*klein_table()))),
        lambda: FiniteGroupoid("abc", [0, 2, 0], [0, 0, 2], [], [0, 1, 2], [None] * 3),
        lambda: FiniteGroupoid([], [], [], [], [], []),
    ], ids=["product", "union", "empty-fibers", "empty"])
    def test_fibers_agree_with_the_per_arrow_loop(self, make):
        G = make()
        assert ([G.target_fiber(x) for x in range(G.n_objects)],
                [G.source_fiber(x) for x in range(G.n_objects)]) == tuple_fibers(G)
        assert all(type(a) is int for x in range(G.n_objects) for a in G.source_fiber(x))
        assert not any(v.flags.writeable for v in (*G.target_fibers, *G.source_fibers))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.data())
def test_fibers_of_random_and_corrupted_groupoids_agree_with_the_loop(seed, data):
    # random_groupoid, then the same arrows with endpoints redrawn at random
    # (a corrupted table, objects with empty fibers)
    G = random_groupoid(SplitMix64(seed))
    ends = st.lists(st.integers(0, G.n_objects - 1), min_size=G.n_arrows, max_size=G.n_arrows)
    H = FiniteGroupoid(G.objects, data.draw(ends), data.draw(ends), G.compose_table,
                       G.inverse, G.unit_of)
    for K in (G, H):
        assert ([K.target_fiber(x) for x in range(K.n_objects)],
                [K.source_fiber(x) for x in range(K.n_objects)]) == tuple_fibers(K)


def _corrupted(G, kind, data):
    """G with one corruption drawn from ``data``: a table row dropped or its
    composite redirected (where a row is left), an inverse redirected, an
    arrow's source moved, or the arrows renumbered."""
    def pick(n):
        return data.draw(st.integers(0, n - 1))
    src, table, inverse, units = G.src.copy(), G.compose_table.copy(), G.inverse.copy(), G.unit_of
    if kind == "renumbered":
        perm = np.array(data.draw(st.permutations(range(G.n_arrows))), dtype=np.intp)
        new = np.argsort(perm)
        src, table, inverse = src[perm], new[table], new[inverse[perm]]
        return FiniteGroupoid(G.objects, src, G.tgt[perm], table, inverse, new[units])
    if not len(table) and kind in ("dropped", "redirected"):
        pass  # no row left to corrupt
    elif kind == "dropped":
        table = np.delete(table, pick(len(table)), axis=0)
    elif kind == "redirected":
        table[pick(len(table)), 2] = pick(G.n_arrows)
    elif kind == "inverse":
        inverse[pick(G.n_arrows)] = pick(G.n_arrows)
    elif kind == "moved":
        src[pick(G.n_arrows)] = pick(G.n_objects)
    return FiniteGroupoid(G.objects, src, G.tgt, table, inverse, units)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32),
       st.lists(st.sampled_from(["renumbered", "dropped", "redirected", "inverse", "moved"]),
                max_size=2),
       st.data())
def test_the_orbit_index_agrees_with_the_per_module_derivations(seed, kinds, data):
    G = random_groupoid(SplitMix64(seed), max_arrows=40)
    for kind in kinds:
        G = _corrupted(G, kind, data)
    index, n = G.orbit_index, G.n_objects
    label, members, tau, loops, g = looped_orbit_index(G)
    assert index.label.tolist() == label
    assert [index.members.of(x).tolist() for x in range(n)] == members
    assert index.tau.tolist() == tau
    assert index.loops.tolist() == loops
    assert index.g.tolist() == g
    assert G.orbits() == components_orbits(G)
    assert G.is_transitive() == (len(components_orbits(G)) <= 1)
    off_base = np.where(index.label == np.arange(n), G.n_arrows, index.tau)
    assert off_base.tolist() == certificate_out_of_base(G).tolist()
    # the transitive factorization derived on its own, where it exists, is
    # the index's tau and g; it is refused as not transitive exactly where
    # the index has no orbit, more than one, or a missing tau
    refused = n == 0 or not G.is_transitive() or (index.tau == G.n_arrows).any()
    try:
        dec = derived_decomposition(G)
    except NotTransitive:
        assert refused
    except ValueError:  # the base loops are no group, or an arrow does not factor
        assert not refused
    else:
        assert not refused
        assert dec.taus == tuple(index.tau.tolist()) and dec.g_index.tolist() == index.g.tolist()
    assert not any(v.flags.writeable for v in (*index[:1], *index.members, *index[2:]))


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

    @staticmethod
    def _relation_table(labels, ends):
        """A relation groupoid's arrays, one arrow (t, s) per entry of ends,
        as a hand-built table: no products, each arrow its own inverse;
        multipliers reads neither."""
        t, s = np.array(ends).T
        units = [ends.index((x, x)) for x in range(len(labels))]
        return FiniteGroupoid(labels, s, t, np.zeros((0, 3), dtype=np.intp),
                              np.arange(len(ends)), units)

    def test_certificate_fails_where_the_relation_is_not_transitive(self):
        # a ~ b ~ c without a ~ c: b multiplies everything, and composing
        # through b reaches the undeclared (a, c) and (c, a)
        G = self._relation_table(list("abc"), [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0),
                                               (1, 2), (2, 1)])
        ms = multipliers(G)
        assert ms.left == ms.right == ms.ideal == (1,)
        witnesses = [e.witness for e in ms.certificate.errors]
        assert witnesses == [e.witness for e in looped_multiplier_certificate(G).errors]
        assert witnesses == ["pair (a, c) missing for ideal object b",
                             "pair (c, a) missing for ideal object b"] * 2

    @pytest.mark.parametrize("seed", range(6))
    def test_certificate_equals_the_loops(self, seed):
        # pair(6) with random arrows away from object 0 dropped, so 0 stays
        # in the ideal, and pair(5) whole
        rng = SplitMix64(seed)
        n = 6
        kept = [(t, s) for t in range(n) for s in range(n)
                if t == s or 0 in (t, s) or rng.random() < 0.6]
        G = self._relation_table([f"o{i}" for i in range(n)], kept)
        ms = multipliers(G)
        assert 0 in ms.ideal and not ms.certificate.ok
        assert ms.certificate.errors == looped_multiplier_certificate(G).errors
        G = pair_groupoid("abcde")
        assert multipliers(G).certificate.errors == looped_multiplier_certificate(G).errors == []


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), shuffled=st.booleans())
    def test_the_bundle_keeps_its_parts_verbatim(self, seed, shuffled):
        # on a random union, its arrows renumbered at random or not, so that
        # the loops of different objects interleave: the constructor keeps
        # every part as isotropy_parts makes it, the table sorted and unique,
        # so judging the parts judges the bundle
        rng = SplitMix64(seed)
        G = random_groupoid(rng, max_arrows=48)
        if shuffled:
            G = _arrows_renumbered(G, np.argsort(rng.next_u64s(G.n_arrows), kind="stable"))
        assert validate(G).ok
        parts = gmod.isotropy_parts(G)
        xi = FiniteGroupoid(*parts)
        assert xi.objects == parts.objects and xi.unit_of == parts.unit_of
        for name in ("src", "tgt", "compose_table", "inverse"):
            assert np.array_equal(getattr(xi, name), getattr(parts, name)), name
        assert validate(xi).ok and xi.n_arrows == (G.src == G.tgt).sum()


class TestOrbits:
    def test_pair_single_block(self):
        assert pair_groupoid("abc").orbits() == [[0, 1, 2]]

    def test_union_two_blocks(self):
        G = disjoint_union(pair_groupoid("ab"), pair_groupoid("cd"))
        assert G.orbits() == [[0, 1], [2, 3]]

    def test_interleaved_blocks_in_the_order_of_their_least_object(self):
        G = build_from_relation(list("abcd"), [("d", "b"), ("c", "a")], "complete")
        assert G.orbits() == [[0, 2], [1, 3]]
        assert FiniteGroupoid("abc", [2], [0], [], [0], [None] * 3).orbits() == [[0, 2], [1]]

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
        assert direct.inverse.tolist() == rel.inverse.tolist()


def _pairwise_unit_and_inverses(table):
    """The first two-sided identity and each element's two-sided inverses,
    by scanning the table pair by pair."""
    n = len(table)
    unit = next(e for e in range(n) if all(table[e][j] == j == table[j][e] for j in range(n)))
    return unit, [[j for j in range(n) if table[i][j] == unit == table[j][i]]
                  for i in range(n)]


_LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
_TABLES = {**{f"z{n}": (lambda n=n: cyclic_table(n)) for n in (1, 2, 5, 6)},
           "klein": klein_table, "s3": lambda: symmetric_table(3),
           "loop5": lambda: ([f"g{i}" for i in range(5)], _LOOP5)}


@pytest.mark.parametrize("group", list(_TABLES))
def test_group_groupoid_unit_and_inverses_agree_with_the_pairwise_scan(group):
    elements, table = _TABLES[group]()
    unit, inverses = _pairwise_unit_and_inverses(table)
    G = group_groupoid(elements, table)
    assert G.unit_of == [unit]
    assert [[a] for a in G.inverse.tolist()] == inverses
    n = len(table)
    assert [[G.compose(i, j) for j in range(n)] for i in range(n)] == np.asarray(table).tolist()


def test_cyclic_table_is_one_int_array():
    # no list of lists: at n = 2048 it held 144 MB before the groupoid
    # converted it; reading table[i][j] works on the array as on lists
    elements, table = cyclic_table(7)
    assert elements == [f"g{k}" for k in range(7)]
    assert isinstance(table, np.ndarray) and table.shape == (7, 7) and table.dtype.kind == "i"
    assert table.tolist() == [[(i + j) % 7 for j in range(7)] for i in range(7)]
    assert table[3][5] == 1 and table[6][6] == 5


@pytest.mark.parametrize("table, message", [
    # no identity, and no inverses either: the identity is named first
    ([[0, 0], [0, 0]], "multiplication table has no identity element"),
    ([[1, 0], [0, 0]], "multiplication table has no identity element"),
    ([], "multiplication table has no identity element"),
    # a and b both lack an inverse: the first element is named
    ([[0, 1, 2], [1, 1, 2], [2, 2, 2]], "element a has no unique inverse"),
    # a is its own inverse, b has none
    ([[0, 1, 2], [1, 0, 2], [2, 2, 2]], "element b has no unique inverse"),
    # ab = e but ba = b: b is only a right inverse of a
    ([[0, 1, 2], [1, 2, 0], [2, 2, 2]], "element a has no unique inverse"),
    # a has two inverses, a and b
    ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "element a has no unique inverse"),
])
def test_group_groupoid_names_a_missing_identity_or_inverse(table, message):
    elements = ["e", "a", "b"][:len(table)]
    with pytest.raises(ValueError, match=f"^{message}$"):
        group_groupoid(elements, table)


_MADE = {
    "pair_groupoid": lambda: pair_groupoid("abc"),
    "group_groupoid": lambda: group_groupoid(*cyclic_table(3)),
    "product": lambda: product(pair_groupoid("ab"), group_groupoid(*klein_table())),
    "disjoint_union": lambda: disjoint_union(pair_groupoid("ab"),
                                             group_groupoid(*cyclic_table(2))),
    "relation-strict": lambda: build_from_relation(
        list("abc"), [(x, y) for x in "ab" for y in "ab"], "strict"),
    "relation-complete": lambda: build_from_relation(
        list("abc"), [("a", "b"), ("b", "c")], "complete"),
    "arrows-file": lambda: parse_groupoid_document(_iso_z2_doc()).groupoid,
    "isotropy_bundle": lambda: isotropy_bundle(
        product(pair_groupoid("ab"), group_groupoid(*cyclic_table(3)))),
    "limit": lambda: limit(load_manifest(os.path.join(FIXTURES, "chain-manifest.json"))).groupoid,
}


@pytest.mark.parametrize("how", list(_MADE))
def test_structure_maps_are_read_only_int_arrays(how):
    G = _MADE[how]()
    assert G.n_arrows > 0
    for table in (G.src, G.tgt, G.inverse):
        assert isinstance(table, np.ndarray) and table.dtype == np.intp
        assert table.shape == (G.n_arrows,) and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[0]


def test_the_constructor_copies_the_structure_maps():
    ends = np.zeros(1, dtype=np.intp)
    G = FiniteGroupoid(["a"], ends, ends, [[0, 0, 0]], ends, [0])
    ends[0] = 5
    assert ends.flags.writeable
    assert G.src.tolist() == G.tgt.tolist() == G.inverse.tolist() == [0]


def _mixed_groupoids():
    return [pair_groupoid("abcd"),
            product(pair_groupoid("abc"), group_groupoid(*cyclic_table(3))),
            disjoint_union(product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2))),
                           pair_groupoid("xyz"))]


def test_convolution_plan_is_the_fiberwise_enumeration():
    # oracle: for every arrow out and every left into tgt(out), in fiber order,
    # the factor right = inverse(left) o out; the order of each output's
    # terms fixes the table sum's order, so the plan is compared grouped by out
    for G in _mixed_groupoids():
        want = [(out, left, G.compose(G.inverse[left], out))
                for out in range(G.n_arrows) for left in G.target_fiber(G.tgt[out])]
        outs, lefts, rights = G.convolution_plan()
        by_out = np.argsort(outs, kind="stable")
        assert list(zip(outs[by_out].tolist(), lefts[by_out].tolist(),
                        rights[by_out].tolist())) == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_the_stored_order_does_not_depend_on_the_input_order(seed, shuffle, row, pick):
    G = random_groupoid(SplitMix64(seed), max_arrows=48)
    n = G.n_arrows
    rng = np.random.default_rng(shuffle)
    shuffled = np.array(G.compose_table)[rng.permutation(len(G.compose_table))]
    a, b, c = shuffled[row % len(shuffled)].tolist()
    repeated = np.vstack([shuffled, [[a, b, (c + 1 + pick % max(n - 1, 1)) % n]]])
    mu = HaarSystem(rng.uniform(0.5, 2.0, n))
    f, g = rng.normal(size=(2, n)) + 1j * rng.normal(size=(2, n))
    for table in (shuffled, repeated):
        H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of, G.arrow_ids)
        first, second, _ = H.compose_table.T
        assert (np.diff(first * n + second) > 0).all()
        last_wins = {(x, y): z for x, y, z in table.tolist()}
        rows = np.array([[x, y, z] for (x, y), z in sorted(last_wins.items())])
        assert H.compose_table.tolist() == rows.tolist()
        # the terms of each output, added one by one in ascending first
        terms = f[rows[:, 0]] * g[rows[:, 1]] * mu.weights[rows[:, 0]]
        want = np.zeros(n, dtype=complex)
        for out in range(n):
            for i in np.flatnonzero(rows[:, 2] == out).tolist():
                want[out] += terms[i]
        assert np.array_equal(table_convolve(H, mu, f, g), want)
        assert np.array_equal(table_convolve(H, mu, np.stack([f, f]), g), np.stack([want, want]))


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


def test_indices_outside_the_arrows_compose_to_nothing():
    # on pair(2), A = 4: the key of (0, 6) is the key of (1, 2), which composes,
    # and (5, 0) lies past every key
    G = pair_groupoid("ab")
    assert G.composites(1, 2) == 0
    a = [0, 5, 4, 0, -1, 2, 3, 100, -100]
    b = [6, 0, 0, 4, 5, -3, 2**20, -100, 100]
    assert G.composites(a, b).tolist() == [-1] * len(a)
    assert G.composites(np.array([[0], [5]]), np.array([0, 6])).tolist() == [[0, -1], [-1, -1]]


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 2 ** 32), st.floats(0, 0.5),
       st.integers(0, 40), st.integers(0, 20))
def test_lookup_by_position_agrees_with_the_binary_search(seed, draw, drop, repeat, off):
    # a random table with some rows dropped, some pairs repeated (the last
    # row wins) and some rows off the domain, in a shuffled order; asked
    # on pairs inside and outside 0..A-1, in broadcast shapes and as 0-d
    G = random_groupoid(SplitMix64(seed), max_arrows=40)
    n = G.n_arrows
    rng = np.random.default_rng(draw)
    rows = G.compose_table[rng.uniform(size=len(G.compose_table)) >= drop]
    again = rows[rng.integers(0, max(len(rows), 1), size=repeat if len(rows) else 0)]
    again = np.column_stack([again[:, :2], rng.integers(0, n, size=len(again))])
    stray = rng.integers(0, n, size=(off, 3))
    table = np.vstack([rows, again, stray])[rng.permutation(len(rows) + len(again) + off)]
    H = FiniteGroupoid(G.objects, G.src, G.tgt, table, G.inverse, G.unit_of, G.arrow_ids)
    last_wins = {(x, y): z for x, y, z in table.tolist()}
    a = rng.integers(-n - 2, 2 * n + 2, size=(24, 1))
    b = np.concatenate([rng.integers(-n - 2, 2 * n + 2, size=8), table[:8, 1],
                        np.arange(min(n, 8))])[None, :]
    got = H.composites(a, b)
    assert got.shape == np.broadcast_shapes(a.shape, b.shape)
    assert np.array_equal(got, searched_composites(H, a, b))
    assert got.tolist() == [[last_wins.get((x, y), -1) for y in b[0].tolist()]
                            for x in a[:, 0].tolist()]
    # every stored row answers its own pair, whatever its endpoints
    first, second, composite = H.compose_table.T
    assert np.array_equal(H.composites(first, second), composite)
    stored = [(int(first[0]), int(second[0]))] if len(first) else []  # all rows may be dropped
    for x, y in ((int(a[0, 0]), int(b[0, 0])), *stored, (-1, n)):
        zero_d = H.composites(x, y)
        assert isinstance(zero_d, np.ndarray) and zero_d.shape == ()
        assert int(zero_d) == last_wins.get((x, y), -1) == int(searched_composites(H, x, y))


@pytest.mark.parametrize("a, b", [(-1, 3), (3, -1), (0, 6), (6, 0), (4, 4), (-5, 0)])
def test_compose_refuses_indices_outside_the_arrows(a, b):
    # on pair(2), A = 4: Python's negative indexing would read -1 as arrow 3,
    # and a03 o a03 is defined
    G = pair_groupoid("ab")
    assert G.compose(3, 3) == 3
    with pytest.raises(ValueError, match=rf"^arrows {a} and {b} do not compose: "
                                         r"indices run over 0\.\.3$"):
        G.compose(a, b)
    with pytest.raises(ValueError, match="^arrows a00 and a03 do not compose$"):
        G.compose(0, 3)
