"""Command-line interface: exit codes, round trips, deterministic reports."""

import json
import os

import numpy as np
import pytest

from groupalg import convolve, counting_haar, validate
from groupalg.battery import SUITES, run_battery
from groupalg.builders import cyclic_table, group_groupoid, pair_groupoid, product
from groupalg.cli import main
from groupalg.groupoid import FiniteGroupoid
from groupalg.io import (GroupoidDocument, load_function, load_groupoid,
                         save_function, save_groupoid)

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "groupalg", "fixtures")


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


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


class TestRoundTrips:
    def test_groupoid_file_round_trip(self, tmp_path):
        gdoc = load_groupoid(fx("pair3-weighted.json"))
        out = tmp_path / "copy.json"
        save_groupoid(str(out), gdoc)
        back = load_groupoid(str(out))
        G, H = gdoc.groupoid, back.groupoid
        assert G.objects == H.objects
        assert G.arrow_ids == H.arrow_ids
        assert G.src == H.src and G.tgt == H.tgt
        assert np.array_equal(G.compose_table, H.compose_table)
        assert G.inverse == H.inverse and G.unit_of == H.unit_of
        assert np.array_equal(gdoc.haar_raw, back.haar_raw)
        assert np.array_equal(gdoc.nu_raw, back.nu_raw)

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

    def test_missing_file_exit2(self, capsys):
        assert main(["validate", "/nonexistent/g.json"]) == 2

    @pytest.mark.parametrize("argv", [["fibers", fx("pair3.json"), "--object", "zz"],
                                      ["rep", fx("pair3.json"), "left-regular", "--arrow", "zz"]],
                             ids=["fibers-object", "rep-arrow"])
    def test_unknown_command_line_label_is_a_usage_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error: unknown") and "'zz'" in err


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

    @pytest.mark.parametrize("value", ["abc", "1e-12,x", "1,2,3"])
    def test_malformed_value_is_a_usage_error(self, monkeypatch, capsys, value):
        monkeypatch.setenv("GROUPALG_TOL", value)
        assert main(["check", fx("pair3.json"), "--seed", "1", "--trials", "4"]) == 2
        captured = capsys.readouterr()
        assert "GROUPALG_TOL" in captured.err
        assert "invariant violated" not in captured.err
