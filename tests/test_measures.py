"""The document check: one judge for the Haar weights and nu.

`groupalg validate` and the head of the battery render the same four
reports (groupoid-axioms, haar-positivity, haar-left-invariance,
nu-normalization).  The committed ``validate_*.txt`` files pin the
`validate` text on every shipped groupoid fixture and on pair3 with broken
measures; a broken Haar system or nu ends the battery after its
nu-normalization line instead of aborting `check`.
"""

import json
import os

import pytest

from groupalg.battery import run_battery
from groupalg.cli import main
from groupalg.io import parse_groupoid_document

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir,
                        "src", "groupalg", "fixtures")
DATA = os.path.join(os.path.dirname(__file__), "data")

GROUPOID_FIXTURES = ["iso-z2", "pair2", "pair3", "pair3-weighted", "pair4", "two-orbit"]

# pair3 with one measure member replaced; pair3's arrows are a00 ... a08
PAIR3_MEASURES = {
    "pair3-haar-negative": {"haar": {"weights": {
        f"a{i:02d}": -1.0 if i == 4 else 1.0 for i in range(9)}}},
    "pair3-nu-zero": {"nu": {"a": 0.0, "b": 0.5, "c": 0.5}},
    "pair3-nu-sum-1.5": {"nu": {"a": 0.5, "b": 0.5, "c": 0.5}},
    "pair3-nu-off-2e-9": {"nu": {"a": 0.5, "b": 0.25, "c": 0.25 + 2e-9}},
    "pair3-nu-off-5e-10": {"nu": {"a": 0.5, "b": 0.25, "c": 0.25 + 5e-10}},
}
# the documents whose Haar system or nu is invalid, with the suite that fails
BAD_MEASURES = {
    "pair3-haar-negative": "haar-positivity",
    "pair3-nu-zero": "nu-normalization",
    "pair3-nu-sum-1.5": "nu-normalization",
    "pair3-nu-off-2e-9": "nu-normalization",
}


def fx(name: str) -> str:
    return os.path.join(FIXTURES, name)


def measure_doc(name: str) -> dict:
    with open(fx("pair3.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc.update(PAIR3_MEASURES[name])
    return doc


def document_path(name: str, tmp_path) -> str:
    if name in GROUPOID_FIXTURES:
        return fx(f"{name}.json")
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(measure_doc(name)))
    return str(path)


@pytest.mark.parametrize("name", GROUPOID_FIXTURES + list(PAIR3_MEASURES))
def test_validate_matches_the_committed_output(name, tmp_path, capsys):
    """Each file holds the stdout of `groupalg validate`, then ``exit N``."""
    code = main(["validate", document_path(name, tmp_path)])
    with open(os.path.join(DATA, f"validate_{name}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert f"{capsys.readouterr().out}exit {code}\n" == want


@pytest.mark.parametrize("name", list(BAD_MEASURES))
def test_check_reports_a_bad_measure_instead_of_aborting(name, tmp_path, capsys):
    assert main(["check", document_path(name, tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()[1:]
    suites = ["groupoid-axioms", "haar-positivity", "haar-left-invariance",
              "nu-normalization"]
    if BAD_MEASURES[name] == "haar-positivity":
        suites.remove("haar-left-invariance")
    assert [line.split()[1] for line in lines] == suites
    for line in lines:
        status = "FAIL" if line.split()[1] == BAD_MEASURES[name] else "PASS"
        assert line.startswith(status), line


@pytest.mark.parametrize("name", list(BAD_MEASURES))
def test_run_battery_stops_after_nu_normalization(name):
    run = run_battery(parse_groupoid_document(measure_doc(name)), seed=1, trials=2)
    assert run.lines[-1].name == "nu-normalization"
    assert [line.name for line in run.lines if not line.ok] == [BAD_MEASURES[name]]


@pytest.mark.parametrize("name, witness", [
    ("pair3-haar-negative", "a Haar weight is not strictly positive"),
    ("pair3-nu-sum-1.5", "nu sums to 1.5, not 1"),
])
@pytest.mark.parametrize("command", [["convolve", "fn-f-pair3.json", "fn-g-pair3.json"],
                                     ["inorm", "fn-f-pair3.json"],
                                     ["integrate", "fn-f-pair3.json"],
                                     ["rep", "left-regular"], ["equiv"]],
                         ids=lambda c: c[0])
def test_measure_commands_refuse_a_bad_measure_with_its_witness(
        name, witness, command, tmp_path, capsys):
    path = document_path(name, tmp_path)
    args = [fx(a) if a.endswith(".json") else a for a in command[1:]]
    assert main([command[0], path, *args]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"invariant violated: {witness}\n"


@pytest.mark.parametrize("nu", [None, {}], ids=["no-nu", "empty-nu"])
@pytest.mark.parametrize("command", [["validate"], ["convolve", "f", "f"], ["inorm", "f"],
                                     ["rep", "left-regular"], ["integrate", "f"]],
                         ids=lambda c: c[0])
def test_the_empty_groupoid_has_valid_measures(nu, command, tmp_path, capsys):
    # with no objects there is no mass to normalize: the empty nu is valid,
    # so every command that computes with the measures runs
    doc = {"objects": [], "relation": []}
    if nu is not None:
        doc["nu"] = nu
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    fn = tmp_path / "f.json"
    fn.write_text("{}")
    args = [str(fn) if a == "f" else a for a in command[1:]]
    assert main([command[0], str(path), *args]) == 0
    assert capsys.readouterr().err == ""
