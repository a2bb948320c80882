"""Command-line interface: exit codes, round trips, deterministic reports."""

import copy
import json
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupalg import cli, convolve, counting_haar, validate
from groupalg.battery import SUITES, run_battery
from groupalg.builders import cyclic_table, group_groupoid, pair_groupoid, product
from groupalg.cli import main
from groupalg.groupoid import FiniteGroupoid
from groupalg import io as gio
from groupalg.io import (GroupoidDocument, load_function, load_groupoid,
                         save_function, save_groupoid)
from groupalg.randgen import SplitMix64, random_groupoid

from oracles import looped_groupoid_from_arrows, looped_haar_weights

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "groupalg", "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def _edited(name: str, edit) -> dict:
    with open(fx(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    return doc


def _replaced(value):
    """An edit of a weight map's (id, value) items: the i-th value, counted
    round, becomes ``value``."""
    def edit(items, i):
        if items:
            k = i % len(items)
            items[k] = (items[k][0], value)
    return edit


def _deleted(items, i):
    if items:
        del items[i % len(items)]


_WEIGHT_EDITS = {
    "unknown-id": lambda items, i: items.insert(i % (len(items) + 1), ("nowhere", 1.0)),
    "missing-arrow": _deleted,
    "true": _replaced(True),
    "string": _replaced("1.5"),
    "nan": _replaced(float("nan")),
    "infinity": _replaced(float("inf")),
    "huge-int": _replaced(10 ** 400),
    "above-2**53": _replaced(2 ** 53 + 1),
    "above-2**64": _replaced(2 ** 64 + 1),
}

_PIECE = {"name": "p2", "file": fx("pair2.json")}
_PAIR2_IDS = ["a00", "a01", "a02", "a03"]
# the identity map of pair2, as an embedding record without its "to"
_PAIR2_ONTO = {"from": "p2", "objects": {"a": "a", "b": "b"},
               "arrows": {aid: aid for aid in _PAIR2_IDS}}

# the command words before the malformed file, and the file's document
_MALFORMED = {
    "relation-not-a-list": (["validate"], {"objects": ["a"], "relation": 5}),
    "star-record": (["algebra"], _edited("st-m2-units.json", lambda d: d.update(star=[5]))),
    "piece-record": (["limit"], {"pieces": [5], "embeddings": []}),
    "embedding-record": (["limit"], {"pieces": [_PIECE], "embeddings": [5]}),
    "top-embedding-record": (["limit"], {"pieces": [_PIECE], "embeddings": [],
                                         "top": {"file": fx("pair2.json"), "embeddings": [5]}}),
    "coefficient-string": (["algebra"], _edited(
        "st-m2-units.json", lambda d: d["products"][0].update(coeffs=[["x", 0]] * 4))),
    "coefficient-bool": (["algebra"], _edited(
        "st-m2-units.json", lambda d: d["products"][0].update(coeffs=[[True, 0]] * 4))),
    "phase-string": (["algebra"], _edited(
        "st-m2-units.json", lambda d: d["star"][0].update(phase="i"))),
    "phase-number": (["algebra"], _edited(
        "st-m2-units.json", lambda d: d["star"][0].update(phase=5))),
    "function-nan": (["inorm", fx("pair2.json")],
                     {aid: [float("nan"), 0] for aid in _PAIR2_IDS}),
    "function-bool": (["inorm", fx("pair2.json")], {aid: [True, 0] for aid in _PAIR2_IDS}),
    "product-repeated": (["algebra"], _edited(
        "st-m2-units.json",
        lambda d: d["products"].append(dict(d["products"][0], coeffs=[[0, 0]] * 4)))),
    "identity-embedding-arrows": (["limit"], {
        "pieces": [_PIECE], "embeddings": [dict(_PAIR2_ONTO, to="p2", arrows="x")]}),
    "identity-embedding-unknown-label": (["limit"], {
        "pieces": [_PIECE],
        "embeddings": [dict(_PAIR2_ONTO, to="p2", objects={"a": "a", "b": "z"})]}),
    "embedding-repeated": (["limit"], {
        "pieces": [_PIECE, {"name": "q2", "file": fx("pair2.json")}],
        "embeddings": [dict(_PAIR2_ONTO, to="q2")] * 2}),
    "top-embedding-repeated": (["limit"], {
        "pieces": [_PIECE], "embeddings": [],
        "top": {"file": fx("pair2.json"), "embeddings": [_PAIR2_ONTO] * 2}}),
    "haar-weight-bool": (["validate"], _edited(
        "pair3.json", lambda d: d.update(haar={"weights": {f"a{k:02d}": True
                                                           for k in range(9)}}))),
}


def _at(entries, i):
    return i % len(entries) if entries else None


def _edit_entry(key, value):
    def edit(doc, i, j, ids):
        if (k := _at(doc[key], i)) is not None:
            doc[key][k] = value(doc[key][k], j, ids)
    return edit


def _insert(key, value):
    def edit(doc, i, j, ids):
        if (k := _at(doc[key], i)) is not None:
            doc[key].insert(j % (len(doc[key]) + 1), value(doc[key][k], j, ids))
    return edit


def _drop(key):
    def edit(doc, i, j, ids):
        if (k := _at(doc[key], i)) is not None:
            del doc[key][k]
    return edit


# edits of an arrows document: (doc, i, j, arrow ids) -> None, in place
_EDITS = {
    "compose-repeated": _insert("compose", lambda e, j, ids: [e[0], e[1], ids[j % len(ids)]]),
    "compose-redirected": _edit_entry("compose", lambda e, j, ids: [e[0], e[1],
                                                                    ids[j % len(ids)]]),
    "compose-unknown-id": _edit_entry("compose", lambda e, j, ids: [
        "nope" if p == j % 3 else x for p, x in enumerate(e)]),
    "compose-unhashable-id": _edit_entry("compose", lambda e, j, ids: [
        [x] if p == j % 3 else x for p, x in enumerate(e)]),
    "compose-short": _edit_entry("compose", lambda e, j, ids: e[:2]),
    "compose-tuple": _edit_entry("compose", lambda e, j, ids: tuple(e)),
    "compose-dropped": _drop("compose"),
    "compose-shuffled": lambda doc, i, j, ids: random.Random(j).shuffle(doc["compose"]),
    "inverse-repeated": _insert("inverse", lambda e, j, ids: [e[0], ids[j % len(ids)]]),
    "inverse-unknown-id": _edit_entry("inverse", lambda e, j, ids: [
        "nope" if p == j % 2 else x for p, x in enumerate(e)]),
    "inverse-not-a-list": _edit_entry("inverse", lambda e, j, ids: "e"),
    "inverse-dropped": _drop("inverse"),
}


class TestValidateCommand:
    def test_pair3_ok(self, capsys):
        assert main(["validate", fx("pair3.json")]) == 0

    def test_non_transitive_strict_exit1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({
            "objects": ["a", "b", "c"],
            "relation": [["a", "a"], ["b", "b"], ["c", "c"],
                         ["a", "b"], ["b", "a"], ["b", "c"], ["c", "b"]],
        }))
        assert main(["validate", str(path)]) == 1
        err = capsys.readouterr().err
        assert "(a, c)" in err

    def test_malformed_number_exit2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"objects": ["a"], "relation": [["a", "a"]], "nu": {"a": 1.0e}}')
        assert main(["validate", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_bad_weight_reported(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({
            "objects": ["a"], "relation": [["a", "a"]],
            "haar": {"weights": {"a00": -1.0}},
        }))
        assert main(["validate", str(path)]) == 1
        assert "haar" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("member", ["haar", "nu"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan"), 10 ** 400],
                             ids=["Infinity", "NaN", "1e400-integer"])
    def test_non_finite_number_is_a_parse_error(self, tmp_path, capsys, command,
                                                member, value):
        doc = json.loads(open(fx("pair3.json")).read())
        G = load_groupoid(fx("pair3.json")).groupoid
        if member == "haar":
            doc["haar"] = {"weights": {aid: value for aid in G.arrow_ids}}
        else:
            doc["nu"] = {lab: value for lab in G.objects}
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ") and "is not finite" in err

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_file_is_a_parse_error(self, tmp_path, capsys, case):
        head, doc = _MALFORMED[case]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main([*head, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: malformed.json: ")


    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("inverse", [[["e", "e"], ["e", "f"], ["f", "f"]],
                                         [["e", "f"], ["f", "f"], ["e", "e"]]],
                             ids=["last-wins", "first-wins"])
    def test_an_inverse_given_twice_is_a_parse_error(self, tmp_path, capsys, command,
                                                     inverse):
        loop = {"src": "x", "tgt": "x"}
        path = tmp_path / "z2.json"
        path.write_text(json.dumps({
            "objects": ["x"], "arrows": [dict(loop, id="e"), dict(loop, id="f")],
            "compose": [["e", "e", "e"], ["e", "f", "f"], ["f", "e", "f"], ["f", "f", "e"]],
            "inverse": inverse}))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == (
            "parse error: z2.json: inverse of arrow 'e' given twice\n")

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.booleans(),
           st.lists(st.tuples(st.sampled_from(sorted(_EDITS)), st.integers(0, 10 ** 6),
                              st.integers(0, 10 ** 6)), max_size=4))
    def test_the_arrows_reader_reads_as_the_looped_one(self, seed, numeric, edits):
        # corrupted and duplicate-laden files: the same groupoid, or the same
        # parse error raised first, as the reader with one lookup per id
        G = random_groupoid(SplitMix64(seed), max_arrows=24)
        ids = [str(i) for i in range(G.n_arrows)] if numeric else G.arrow_ids
        name = (lambda a: a) if numeric else (lambda a: ids[a])  # numeric: JSON ints
        doc = {"objects": list(G.objects),
               "arrows": [{"id": aid, "src": G.objects[s], "tgt": G.objects[t]}
                          for aid, s, t in zip(ids, G.src.tolist(), G.tgt.tolist())],
               "compose": [[name(a), ids[b], name(c)] for a, b, c in G.compose_table.tolist()],
               "inverse": [[name(a), ids[i]] for a, i in enumerate(G.inverse.tolist())]}
        for edit, i, j in edits:
            _EDITS[edit](doc, i, j, ids)

        def outcome(reader):
            try:
                H = reader(copy.deepcopy(doc), "doc.json")
            except Exception as exc:  # noqa: BLE001 - both must raise the same
                return type(exc).__name__, str(exc)
            return (H.objects, H.arrow_ids, H.src.tolist(), H.tgt.tolist(),
                    H.compose_table.tolist(), H.inverse.tolist(), H.unit_of)
        assert outcome(gio._groupoid_from_arrows) == outcome(looped_groupoid_from_arrows)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1),
           st.lists(st.tuples(st.sampled_from(sorted(_WEIGHT_EDITS)), st.integers(0, 10 ** 6)),
                    max_size=4))
    def test_the_haar_weights_reader_reads_as_the_looped_one(self, seed, edits):
        # corrupted weight maps, read from JSON text: the same array to the
        # bit, or the same parse error raised first, as the reader that
        # checked one weight at a time
        G = random_groupoid(SplitMix64(seed), max_arrows=24)
        rng = random.Random(seed)
        items = [(aid, rng.choice([rng.randint(1, 9), rng.uniform(0.1, 9.0)]))
                 for aid in G.arrow_ids]
        rng.shuffle(items)
        for edit, i in edits:
            _WEIGHT_EDITS[edit](items, i)
        table = json.loads(json.dumps(dict(items)))

        def outcome(reader):
            try:
                return "ok", reader(table, G, "doc.json").tobytes()
            except Exception as exc:  # noqa: BLE001 - both must raise the same
                return type(exc).__name__, str(exc)
        assert outcome(gio._haar_weights) == outcome(looped_haar_weights)

    @pytest.mark.parametrize("value, error", [
        (True, "is not a number"), ("2", "is not a number"), (float("nan"), "is not finite"),
        (float("-inf"), "is not finite"), (10 ** 400, "is not finite")])
    def test_a_bad_haar_weight_is_named_in_the_parse_error(self, tmp_path, capsys, value,
                                                            error):
        doc = _edited("pair2.json", lambda d: d.update(
            haar={"weights": {"a00": 1, "a01": 2.5, "a02": value, "a03": 1.0}}))
        path = tmp_path / "w.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == f"parse error: w.json: haar weight for 'a02' {error}\n"

    @pytest.mark.parametrize("left, label", [(0, "e0"), (5, "e5")])
    def test_structure_table_messages_count_from_one(self, tmp_path, capsys, left, label):
        path = tmp_path / "st.json"
        path.write_text(json.dumps(_edited(
            "st-m2-units.json", lambda d: d["products"][0].update(left=left))))
        assert main(["algebra", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"parse error: st.json: product ({label}, e1) out of range\n")


class TestRoundTrips:
    def test_groupoid_file_round_trip(self, tmp_path):
        gdoc = load_groupoid(fx("pair3-weighted.json"))
        out = tmp_path / "copy.json"
        save_groupoid(str(out), gdoc)
        back = load_groupoid(str(out))
        G, H = gdoc.groupoid, back.groupoid
        assert G.objects == H.objects
        assert G.arrow_ids == H.arrow_ids
        assert G.src.tolist() == H.src.tolist() and G.tgt.tolist() == H.tgt.tolist()
        assert np.array_equal(G.compose_table, H.compose_table)
        assert G.inverse.tolist() == H.inverse.tolist() and G.unit_of == H.unit_of
        assert np.array_equal(gdoc.haar_raw, back.haar_raw)
        assert np.array_equal(gdoc.nu_raw, back.nu_raw)

    @pytest.mark.parametrize("name", ["iso-z2.json", "pair2.json", "pair3.json",
                                      "pair3-weighted.json", "pair4.json", "two-orbit.json",
                                      "chain-manifest.json"])
    def test_saved_compose_lists_ascend_by_pair(self, name, tmp_path, capsys):
        # the file lists the table as its sorted rows, so each pair of arrow
        # indices comes once and in ascending order
        out = tmp_path / "g.json"
        if name == "chain-manifest.json":
            assert main(["limit", fx(name), "--out", str(out)]) == 0
            G = load_groupoid(str(out)).groupoid
        else:
            gdoc = load_groupoid(fx(name))
            G = gdoc.groupoid
            save_groupoid(str(out), gdoc)
        with open(out, encoding="utf-8") as fh:
            compose = json.load(fh)["compose"]
        ids = G.arrow_ids
        rows = sorted(G.compose_table.tolist())
        assert compose == [[ids[a], ids[b], ids[c]] for a, b, c in rows]
        pairs = [(G.arrow_index(a), G.arrow_index(b)) for a, b, _ in compose]
        assert all(p < q for p, q in zip(pairs, pairs[1:]))

    def test_function_file_round_trip(self, tmp_path):
        G = load_groupoid(fx("pair3.json")).groupoid
        f = np.array([0.1 * k + 1j * (1.0 / (k + 3)) for k in range(9)])
        path = tmp_path / "f.json"
        save_function(str(path), G, f)
        assert np.array_equal(load_function(str(path), G), f)

    def test_sparse_function_defaults_zero(self, tmp_path):
        G = load_groupoid(fx("pair2.json")).groupoid
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"a01": [2.0, 0.0]}))
        with pytest.raises(Exception):
            load_function(str(path), G)
        f = load_function(str(path), G, sparse=True)
        assert f[G.arrow_index("a01")] == 2.0 and np.count_nonzero(f) == 1

    def test_arrows_form_units_derived(self, tmp_path):
        G = product(pair_groupoid("ab"), group_groupoid(*cyclic_table(2)))
        out = tmp_path / "gz.json"
        save_groupoid(str(out), GroupoidDocument(G, None, None, "strict"))
        back = load_groupoid(str(out)).groupoid
        assert back.unit_of == G.unit_of
        assert validate(back).ok


class TestCommands:
    def test_inorm_prints_two(self, capsys):
        assert main(["inorm", fx("pair2.json"), fx("fn-ones-pair2.json")]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_rep_left_regular_arrow_a01(self, capsys):
        assert main(["rep", fx("pair2.json"), "left-regular", "--arrow", "a01"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2  # a 2x2 matrix
        values = [v for line in out for v in line.split("  ")]
        ones = sum(1 for v in values if v == "[1, 0]")
        zeros = sum(1 for v in values if v == "[0, 0]")
        assert ones == 2 and zeros == 2

    def test_convolve_matches_oracle(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["convolve", fx("pair3.json"), fx("fn-f-pair3.json"),
                     fx("fn-g-pair3.json"), "--out", str(out)]) == 0
        gdoc = load_groupoid(fx("pair3.json"))
        G = gdoc.groupoid
        f = load_function(fx("fn-f-pair3.json"), G)
        g = load_function(fx("fn-g-pair3.json"), G)
        want = convolve(G, counting_haar(G), f, g)
        got = load_function(str(out), G)
        assert np.abs(got - want).max() <= 1e-15

    def test_involute_writes_function(self, tmp_path):
        out = tmp_path / "inv.json"
        assert main(["involute", fx("pair3.json"), fx("fn-f-pair3.json"),
                     "--out", str(out)]) == 0
        G = load_groupoid(fx("pair3.json")).groupoid
        f = load_function(fx("fn-f-pair3.json"), G)
        got = load_function(str(out), G)
        inv = np.asarray(G.inverse)
        assert np.array_equal(got, np.conj(f[inv]))

    def test_fibers(self, capsys):
        assert main(["fibers", fx("pair3.json"), "--object", "a"]) == 0
        out = capsys.readouterr().out
        assert "a00 a01 a02" in out

    def test_multipliers(self, capsys):
        assert main(["multipliers", fx("two-orbit.json")]) == 0
        out = capsys.readouterr().out
        assert "ideal: (none)" in out

    def test_equiv_pair3(self, capsys):
        assert main(["equiv", fx("pair3.json")]) == 0
        out = capsys.readouterr().out
        assert "isotropy order: 1" in out

    def test_equiv_iso_z2(self, capsys):
        assert main(["equiv", fx("iso-z2.json")]) == 0
        out = capsys.readouterr().out
        assert "isotropy order: 2" in out

    def test_integrate_writes_blocks(self, tmp_path):
        out = tmp_path / "op.json"
        assert main(["integrate", fx("pair3-weighted.json"), fx("fn-f-pair3.json"),
                     "--rep", "left-regular", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["rows"] == doc["cols"] == 9
        assert len(doc["data"]) == 81
        assert doc["offsets"] == [0, 3, 6, 9]

    def test_limit_command(self, capsys):
        assert main(["limit", fx("chain-manifest.json")]) == 0
        out = capsys.readouterr().out
        assert "limit: 4 objects, 16 arrows" in out

    def test_limit_reads_a_well_formed_identity_embedding(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"pieces": [_PIECE],
                                    "embeddings": [dict(_PAIR2_ONTO, to="p2")]}))
        assert main(["limit", str(path)]) == 0
        assert "limit: 2 objects, 4 arrows" in capsys.readouterr().out

    def test_limit_out_round_trips(self, tmp_path, capsys):
        out = tmp_path / "limit.json"
        assert main(["limit", fx("chain-manifest.json"), "--out", str(out)]) == 0
        G = load_groupoid(str(out)).groupoid
        assert (G.n_objects, G.n_arrows) == (4, 16)
        assert validate(G).ok

    def test_limit_of_a_defective_piece_fails_validation(self, tmp_path, capsys):
        for name in ("chain-manifest.json", "pair2.json", "pair3.json"):
            (tmp_path / name).write_text(open(fx(name)).read())
        P = load_groupoid(fx("pair4.json")).groupoid
        ad, da = P.arrow_by_endpoints(0, 3), P.arrow_by_endpoints(3, 0)
        table = [row for row in P.compose_table.tolist() if row[:2] != [ad, da]]
        bad = FiniteGroupoid(P.objects, P.src, P.tgt, table, P.inverse, P.unit_of,
                             P.arrow_ids)
        save_groupoid(str(tmp_path / "pair4.json"), GroupoidDocument(bad, None, None, "strict"))
        assert main(["limit", str(tmp_path / "chain-manifest.json")]) == 1
        assert capsys.readouterr().out.endswith("FAIL: limit does not validate\n")

    def test_check_single_file(self, capsys):
        assert main(["check", fx("iso-z2.json"), "--seed", "3",
                     "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_check_corrupted_compose_table(self, tmp_path, capsys):
        doc = json.loads(open(fx("iso-z2.json")).read())
        doc["compose"][7][2] = doc["compose"][8][2]  # redirect one composite
        path = tmp_path / "corrupt.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL  groupoid-axioms" in out
        assert any(word in out for word in ("associativity", "compose-endpoints",
                                            "unit-law", "inverse-law"))

    def test_check_empty_groupoid(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"objects": [], "relation": []}')
        assert main(["validate", str(path)]) == 0
        assert main(["check", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2].startswith("PASS  groupoid-axioms")
        assert [line.split()[1] for line in lines[3:]] == list(SUITES)
        assert all(line.endswith("skipped: empty groupoid") for line in lines[3:])

    def test_suites_lists_every_suite_in_order(self):
        run = run_battery(load_groupoid(fx("pair3-weighted.json")), seed=1, trials=2)
        assert [line.name for line in run.lines] == ["groupoid-axioms", *SUITES]

    def test_algebra_command(self, capsys):
        assert main(["algebra", fx("st-m2-units.json")]) == 0
        out = capsys.readouterr().out
        assert "left multiplier rank: 4" in out

    _ALGEBRA_HEAD = ("left multiplier rank: {0}\nright multiplier rank: {0}\n"
                     "relation: 4 objects, {1} pairs\n")

    @pytest.mark.parametrize("edit, code, out", [
        (lambda d: None, 0, _ALGEBRA_HEAD.format(4, 16) + "structure-table: ok\n"),
        (lambda d: d["star"][0].update(phase=[-1.0, 0.0]), 1,
         _ALGEBRA_HEAD.format(4, 16) + "structure-table: 4 violation(s)\n"
         "  [error] star-compatibility: pair (e1, e1) (residual 2)\n"
         "  [error] star-compatibility: pair (e1, e2) (residual 2)\n"
         "  [error] star-compatibility: pair (e2, e3) (residual 2)\n"
         "  [error] star-compatibility: pair (e3, e1) (residual 2)\n"),
        (lambda d: d["products"].remove(next(p for p in d["products"]
                                             if (p["left"], p["right"]) == (2, 3))), 1,
         _ALGEBRA_HEAD.format(3, 15) + "structure-table: 4 violation(s)\n"
         "  [error] ideal-closure: product (e1, e2) has support on e2 outside the ideal\n"
         "  [error] ideal-closure: product (e3, e1) has support on e3 outside the ideal\n"
         "  [error] ideal-closure: product (e2, e4) has support on e2 outside the ideal\n"
         "  [error] ideal-closure: product (e4, e3) has support on e3 outside the ideal\n"),
    ], ids=["fixture", "e1-phase-flipped", "e2-e3-removed"])
    def test_algebra_report_bytes(self, tmp_path, capsys, edit, code, out):
        path = tmp_path / "st.json"
        path.write_text(json.dumps(_edited("st-m2-units.json", edit)))
        assert main(["algebra", str(path)]) == code
        assert capsys.readouterr().out == out

    def test_missing_file_exit2(self, capsys):
        assert main(["validate", "/nonexistent/g.json"]) == 2

    @pytest.mark.parametrize("argv", [["fibers", fx("pair3.json"), "--object", "zz"],
                                      ["rep", fx("pair3.json"), "left-regular", "--arrow", "zz"]],
                             ids=["fibers-object", "rep-arrow"])
    def test_unknown_command_line_label_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: unknown") and "'zz'" in err

    @pytest.mark.parametrize("argv, message", [
        (["equiv", fx("two-orbit.json")], "groupoid is not transitive"),
        (["multipliers", fx("iso-z2.json")], "multipliers need a relation-derived groupoid")],
        ids=["equiv-two-orbit", "multipliers-iso-z2"])
    def test_input_outside_the_command_domain_is_a_usage_error(self, argv, message, capsys):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: {message}\n"

    @pytest.mark.parametrize("trials", ["-3", "0"])
    @pytest.mark.parametrize("target", ["pair3.json", "all"])
    def test_fewer_than_one_trial_is_a_usage_error(self, trials, target, capsys):
        # before, the battery clamped K to one trial and the check passed
        path = target if target == "all" else fx(target)
        assert main(["check", path, "--trials", trials]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"usage error: --trials must be at least 1, not {trials}\n"
        assert main(["check", fx("pair3.json"), "--trials", "1"]) == 0
        assert "1 random triples" in capsys.readouterr().out


class TestDeterminism:
    def test_check_byte_identical_runs(self, capsys):
        main(["check", fx("pair3.json"), "--seed", "11", "--trials", "8"])
        first = capsys.readouterr().out
        main(["check", fx("pair3.json"), "--seed", "11", "--trials", "8"])
        second = capsys.readouterr().out
        assert first == second

    def test_seed_changes_stream_not_verdict(self, capsys):
        assert main(["check", fx("pair3.json"), "--seed", "1"]) == 0
        assert main(["check", fx("pair3.json"), "--seed", "2"]) == 0


class TestToleranceOverride:
    def test_env_var_applies(self, monkeypatch, capsys):
        # absurdly tight accumulation tolerance makes a random suite fail
        monkeypatch.setenv("GROUPALG_TOL", "0,0")
        code = main(["check", fx("pair3.json"), "--seed", "1", "--trials", "4"])
        assert code == 1
        monkeypatch.delenv("GROUPALG_TOL")
        assert main(["check", fx("pair3.json"), "--seed", "1", "--trials", "4"]) == 0

    @pytest.mark.parametrize("value", ["abc", "1e-12,x", "1,2,3", "nan", "inf", "-1",
                                       "1e-12,nan"])
    def test_malformed_value_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("GROUPALG_TOL", value)
        assert main(["check", fx("pair3.json"), "--seed", "1", "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert "GROUPALG_TOL" in captured.err
        assert "invariant violated" not in captured.err


class TestOneParser:
    def test_calls_in_one_process_share_one_parser(self, monkeypatch, capsys):
        # the parser is built at the first call and kept; each call still
        # runs the module's cmd_<name> of that moment, a rebound one too,
        # and an argparse error leaves the parser serving the next call
        built, seen = [], []
        real = cli.build_parser

        def build_parser():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", build_parser)
        cli._parser.cache_clear()
        try:
            assert main(["validate", fx("pair3.json")]) == 0
            assert capsys.readouterr().out == "file-invariants: ok\n"
            monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(
                (args.file, args.seed, args.trials)) or 7)
            assert main(["check", fx("pair2.json"), "--seed", "5"]) == 7
            assert seen == [(fx("pair2.json"), 5, 20)]
            for argv in (["check"], ["nope", fx("pair3.json")], ["check", "x", "--seed", "y"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert capsys.readouterr().err.startswith("usage: groupalg")
            assert main(["fibers", fx("pair3.json"), "--object", "a"]) == 0
            assert "a00 a01 a02" in capsys.readouterr().out
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()
