"""Smoke test of the benchmark itself, at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that
the verdict check trips on known-bad documents and counts them as failed
operations, and that the bisection-table allocation of union 5 fails as one
operation under the benchmark's memory cap while the run goes on.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "transitive-ladder": lambda seed, trials: workloads.transitive_ladder(
        seed, trials, names=["pair4", "z32"]),
    "mixed-small": lambda seed, trials: workloads.mixed_small(seed, trials, unions=[2, 3]),
    "pair36-layers": lambda seed, trials: workloads.pair_layers(seed, trials, n=5,
                                                               law_trials=1),
}


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_workloads_match_the_benchmark_file():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(workloads.WORKLOADS) == list(workloads.WARMUPS) == list(TINY)


def test_every_declared_metric_is_emitted_with_its_unit():
    bench = _benchmark()
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for name, make in TINY.items():
        values, untraced, _, _ = run.measure(make(3, 2), seconds=0.01, trace=False)
        assert set(values) | {"setup_s"} == end_to_end, name
        assert untraced[0].failures == [], untraced[0].failures
        values, untraced, traced, _ = run.measure(make(3, 2), seconds=0.01, trace=True)
        block = run.metric_block(values, "per_layer")  # KeyError if one is missing
        assert {m: v["unit"] for m, v in block.items()} == per_layer, name
        assert all(math.isfinite(v["value"]) for v in block.values()), name
        assert [f for p in untraced + traced for f in p.failures] == []


def test_command_line_prints_the_result_last():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "transitive-ladder",
         "--seed", "5", "--seconds", "0.01", "--trace", "0", "--trials", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert ({m: v["unit"] for m, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in _benchmark()["end_to_end"]})
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_reference_seconds_scale_only_interpreter_gaps():
    sampler = hostspeed.Sampler()
    period, ref = hostspeed.PERIOD_S, hostspeed.REFERENCE_KERNEL_S
    # Two samples at half the reference speed; the second ends a gap that
    # held a 1 s call into compiled code.
    sampler.start = [period, 2 * period + 1.0]
    sampler.end = [period + 0.001, 2 * period + 1.001]
    sampler.kernel_s = [2 * ref, 2 * ref]
    got = sampler.reference_seconds(0.0, 2 * period + 1.001 + period)
    assert math.isclose(got, period / 2 + (period / 2 + 0.999) + period / 2)
    with hostspeed.Sampler() as live:
        begin = time.perf_counter()
        hostspeed.kernel()
        while time.perf_counter() - begin < 0.2:
            hostspeed.kernel()
        end = time.perf_counter()
    assert len(live.kernel_s) >= 3
    assert 0 < live.reference_seconds(begin, end) < 10 * (end - begin)


def _battery(label: str, doc: dict, expected) -> workloads.Op:
    return workloads.battery_op(label, inputs.document_text(doc), 1, 2, expected)


def test_broken_compose_entry_is_a_failed_operation():
    reference = workloads.load_reference()["mixed-small"]["union02"]
    good = inputs.union_arrows_doc(workloads.UNIONS[2], random.Random(1))
    bad = json.loads(json.dumps(good))
    first, second, _ = bad["compose"][1]
    bad["compose"][1] = [first, second, first]  # g o h = g with h not a unit
    res = run.run_pass([_battery("good", good, reference), _battery("bad", bad, reference)])
    assert res.attempted == 2
    assert len(res.failures) == 1 and res.failures[0].startswith("battery:bad: ")


def test_huge_haar_weights_are_a_failed_operation():
    reference = workloads.load_reference()["transitive-ladder"]["pair4"]
    doc = inputs.pair_relation_doc(4, random.Random(1))
    doc["haar"]["weights"] = {a: w * 1e160 for a, w in doc["haar"]["weights"].items()}
    res = run.run_pass([_battery("pair4-1e160", doc, reference)])
    assert res.attempted == 1 and len(res.failures) == 1


def test_non_finite_residual_fails_even_when_the_suite_passes():
    line = SimpleNamespace(name="convolution-associativity", ok=True,
                           detail="20 random triples", residual=float("nan"))
    verdict = workloads.compare_suites(SimpleNamespace(lines=[line]),
                                       [["convolution-associativity", "PASS"]])
    assert verdict is not None and "non-finite" in verdict


def test_bisection_table_of_union_5_fails_one_operation_under_the_cap():
    script = (
        "import json, sys\n"
        f"sys.path[:0] = [{HERE!r}]\n"
        "import run\n"
        "run.pin_blas_threads(); run.apply_memory_cap(); run.import_groupalg()\n"
        "import workloads\n"
        "ops = workloads.mixed_small(1, 2, unions=[5, 2], check_all=False)\n"
        "res = run.run_pass(ops)\n"
        "print(json.dumps({'attempted': res.attempted, 'failures': res.failures}))\n"
    )
    out = subprocess.run([sys.executable, "-c", script], cwd=ROOT, capture_output=True,
                         text=True, timeout=170, check=True)
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["attempted"] == 2
    assert len(res["failures"]) == 1
    assert res["failures"][0].startswith("battery:union05: ")
    assert "MemoryError" in res["failures"][0]
