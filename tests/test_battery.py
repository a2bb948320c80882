"""The battery end to end: committed golden reports and non-finite residuals."""

import math
import os
import re

import numpy as np
import pytest

from groupalg.battery import SUITES, BatteryRun, _worst, run_battery
from groupalg.builders import pair_groupoid
from groupalg.cli import main
from groupalg.io import GroupoidDocument
from groupalg.randgen import SplitMix64, random_invariant_weights, random_probability
from groupalg.report import Report

DATA = os.path.join(os.path.dirname(__file__), "data")


RESIDUAL = re.compile(r"(?<=  max residual )\S+$", re.M)


@pytest.mark.parametrize("seed", [1, 7])
def test_check_all_matches_the_committed_report(seed, capsys):
    code = main(["check", "all", "--seed", str(seed)])
    # the fixture paths on the "== path" lines depend on where the package lives
    got = re.sub(r"^== .*[\\/]", "== ", capsys.readouterr().out, flags=re.M)
    with open(os.path.join(DATA, f"check_all_seed{seed}.txt"), encoding="utf-8") as fh:
        want = fh.read()
    assert code == 0
    # names, verdicts and witnesses byte for byte; the residuals' last digits
    # follow the BLAS build, so those compare to a tolerance below every check's
    assert RESIDUAL.sub("*", got) == RESIDUAL.sub("*", want)
    for g, w in zip(RESIDUAL.findall(got), RESIDUAL.findall(want)):
        assert math.isclose(float(g), float(w), rel_tol=1e-6, abs_tol=1e-13), (g, w)


def test_worst_propagates_nan():
    assert _worst(0.0, 2.0, 1.0) == 2.0
    assert math.isnan(_worst(0.0, math.nan))
    assert math.isnan(_worst(math.nan, 0.0))


@pytest.mark.parametrize("residuals", [[math.nan, 1.0], [1.0, math.nan]])
def test_report_max_residual_propagates_nan(residuals):
    rep = Report("law")
    for r in residuals:
        rep.add("law", "witness", residual=r)
    assert math.isnan(rep.max_residual())
    run = BatteryRun()
    run.record_report("law", rep)
    assert run.lines[0].render().endswith("max residual nan")


def test_huge_haar_weights_fail_instead_of_aborting():
    G = pair_groupoid("abcd")
    rng = SplitMix64(5)
    weights = random_invariant_weights(G, rng) * 1e160
    gdoc = GroupoidDocument(G, weights, random_probability(G.n_objects, rng), "strict")
    with np.errstate(all="ignore"):
        run = run_battery(gdoc, seed=1, trials=20)
    assert len(run.lines) == 1 + len(SUITES)
    lines = {line.name: line for line in run.lines}
    bound = lines["integrated-norm-bound"]
    assert not bound.ok and not math.isfinite(bound.residual)
    assoc = lines["convolution-associativity"]
    assert not assoc.ok and not math.isfinite(assoc.residual)
    assert not run.ok
