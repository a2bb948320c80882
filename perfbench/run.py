"""Benchmark for groupalg: time to verdict end to end, self time per module.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
One process runs one workload.  Its set-up imports the package, builds the
seeded documents and runs a small warm-up pass.  ``setup_s`` is the median
of five such cold set-ups: this process's own and four in fresh
interpreters.  The timed phase then repeats the workload's pass, every
operation's output checked, until ``--seconds`` are used; ``wall_ref_s`` is
the median pass.  Both are in reference-speed seconds: the host's speed is
sampled while they run and taken out (``hostspeed.py``); the raw wall times
are printed too.  With ``--trace 1`` each operation runs untraced and then
traced, and the per-layer self times, counts and the tracing overhead are
reported instead.

The last line of standard output is the result as one JSON object; the lines
before it, prefixed with ``#``, record the environment, the median time of
every operation and any failure.  The metric names and units are those of
BENCHMARK.json.  The process runs under an address-space cap (RLIMIT_AS), so
a runaway allocation fails one operation as a MemoryError instead of taking
the machine down.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MEMORY_CAP_BYTES = 3 << 30
BLAS_THREADS = "1"
SETUP_SAMPLES = 5
DEFAULT_TRIALS = 20
TRACE_DIR = os.path.join(ROOT, ".bench_traces")


def benchmark_file() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def apply_memory_cap() -> int:
    """Lower this process's address-space limit to ``MEMORY_CAP_BYTES``
    (never above the hard limit); returns the limit now in force."""
    cap = MEMORY_CAP_BYTES
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    return cap


def pin_blas_threads() -> None:
    """Pin BLAS to one thread; must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS


def import_groupalg():
    """Import ``groupalg`` from this checkout's ``src/`` and nowhere else."""
    sys.path[:0] = [HERE, SRC]
    import groupalg
    where = os.path.dirname(os.path.abspath(groupalg.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"groupalg imported from {where}, not from {SRC}")
    return groupalg


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "trials": args.trials,
        "run_seconds": args.seconds,
        "commit": git_commit(),
        "memory_cap_bytes": resource.getrlimit(resource.RLIMIT_AS)[0],
    }


class PassResult:
    def __init__(self):
        self.wall = 0.0
        self.ref = 0.0
        self.cpu = 0.0
        self.op_times: dict[str, float] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run_op(self, op, ctx: dict) -> None:
        """Run one operation and add its time to the pass.  An exception or a
        wrong output fails that operation; the pass goes on."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            problem = op.run(ctx)
        except Exception as exc:  # the run must outlive a failing operation
            problem = f"{type(exc).__name__}: {exc}"
        self.op_times[op.label] = time.perf_counter() - t0
        self.wall += self.op_times[op.label]
        self.cpu += time.process_time() - c0
        if problem is not None:
            self.failures.append(f"{op.label}: {problem}")


def run_pass(ops, sampler: hostspeed.Sampler | None = None) -> PassResult:
    """Run every operation once, in order, on a fresh context.  With a
    running ``sampler`` the pass's reference seconds are taken too."""
    out, ctx = PassResult(), {}
    begin = time.perf_counter()
    for op in ops:
        out.run_op(op, ctx)
    if sampler is not None:
        out.ref = sampler.reference_seconds(begin, time.perf_counter())
    return out


def paired_pass(ops, tracer) -> tuple[PassResult, PassResult]:
    """An untraced and a traced pass, each on its own context, interleaved
    operation by operation so that both sides of a pair see the same host
    speed.  The tracer is installed only for the traced side."""
    tracer.calibrate()
    untraced, traced = PassResult(), PassResult()
    plain_ctx: dict = {}
    traced_ctx: dict = {}
    for op in ops:
        untraced.run_op(op, plain_ctx)
        tracer.install()
        try:
            traced.run_op(op, traced_ctx)
        finally:
            tracer.uninstall()
    return untraced, traced


def timed_passes(run_one, seconds: float) -> list:
    """Call ``run_one`` while another call still fits in ``seconds``, judged
    by the median call so far; at least once."""
    results, times = [], []
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(run_one())
        times.append(time.perf_counter() - t0)
        if time.perf_counter() - begin + statistics.median(times) > seconds:
            return results


def cold_setup(workload: str, seed: int, trials: int, sampler: hostspeed.Sampler):
    """Everything a run does before its timed phase, in a process that has
    not imported the package yet: import it, build the seeded documents and
    run the warm-up pass, under a running ``sampler``.  Returns the reference
    seconds and the raw seconds taken, the operations and the warm-up pass."""
    t0 = time.perf_counter()
    pin_blas_threads()
    apply_memory_cap()
    import_groupalg()
    import workloads

    ops = workloads.WORKLOADS[workload](seed, trials)
    warm = run_pass(workloads.WARMUPS[workload](seed, trials))
    t1 = time.perf_counter()
    return sampler.reference_seconds(t0, t1), t1 - t0, ops, warm


def cold_setup_elsewhere(workload: str, seed: int, trials: int) -> tuple[float, float]:
    """``cold_setup`` in a fresh interpreter; returns its reference and raw
    seconds."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import hostspeed, run\n"
            "with hostspeed.Sampler() as sampler:\n"
            f"    ref, raw, _, _ = run.cold_setup({workload!r}, {seed}, {trials}, sampler)\n"
            "print(ref, raw)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                         text=True, check=True, timeout=120)
    ref, raw = out.stdout.split()[-2:]
    return float(ref), float(raw)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_layer_values(tracer, untraced: list[PassResult],
                     traced: list[PassResult]) -> dict[str, float]:
    """Per-pass means of the traced totals, and the tracing overhead."""
    values = {key: total / len(traced) for key, total in tracer.totals().items()}
    # Useful share of the transitive check's convolutions: one per composable
    # pair of arrows is needed, the check makes one per pair of arrows.
    made = tracer.child_calls("representations.transitive_isomorphism_check", "haar.convolve")
    values["representations.transitive_isomorphism_check.composable_share"] = (
        values["composable_pairs"] * len(traced) / made if made else 1.0)
    values["trace.call_cost_s"] = tracer.call_cost
    values["trace.overhead_s"] = statistics.median(t.wall - u.wall
                                                   for u, t in zip(untraced, traced))
    values["trace.overhead_share"] = (values["trace.overhead_s"]
                                      / statistics.median(u.wall for u in untraced))
    return values


def metric_block(values: dict[str, float], kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, with its units."""
    return {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
            for m in benchmark_file()[kind]}


def measure(ops, seconds: float, trace: bool):
    """Run the timed phase.  Returns the metric values (end-to-end but for
    ``setup_s``, or per-layer when ``trace``), the untraced passes, the traced
    passes and the tracer."""
    if not trace:
        with hostspeed.Sampler() as sampler:
            passes = timed_passes(lambda: run_pass(ops, sampler), seconds)
        values = {"wall_ref_s": statistics.median(p.ref for p in passes),
                  "peak_rss_mb": peak_rss_mb()}
        return values, passes, [], None
    import tracing

    tracer = tracing.Tracer()
    pairs = timed_passes(lambda: paired_pass(ops, tracer), seconds)
    untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
    return per_layer_values(tracer, untraced, traced), untraced, traced, tracer


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    args = p.parse_args(argv)

    names = [w["name"] for w in benchmark_file()["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {', '.join(names)}",
              file=sys.stderr)
        return 2
    try:
        with hostspeed.Sampler() as sampler:
            setup_ref, setup_raw, ops, warm = cold_setup(args.workload, args.seed,
                                                         args.trials, sampler)
    except ImportError as exc:
        print(f"cannot import groupalg from this checkout: {exc}", file=sys.stderr)
        return 2
    setups = [(setup_ref, setup_raw)]
    values, untraced, traced, tracer = measure(ops, args.seconds, bool(args.trace))
    if tracer is None:
        setups += [cold_setup_elsewhere(args.workload, args.seed, args.trials)
                   for _ in range(SETUP_SAMPLES - 1)]
        values["setup_s"] = statistics.median(ref for ref, _ in setups)
    else:
        tracer.write(os.path.join(TRACE_DIR, f"{args.workload}.npz"))
    metrics = metric_block(values, "per_layer" if tracer else "end_to_end")

    checked = [warm] + untraced + traced
    attempted = sum(p.attempted for p in checked)
    failures = [f for p in checked for f in p.failures]
    op_medians = {label: statistics.median(p.op_times[label] for p in untraced)
                  for label in untraced[0].op_times}
    print("# env " + json.dumps(environment(args)))
    print("# passes " + json.dumps({"untraced_ref_s": [p.ref for p in untraced],
                                   "untraced_wall_s": [p.wall for p in untraced],
                                   "untraced_cpu_s": [p.cpu for p in untraced],
                                   "traced_wall_s": [p.wall for p in traced],
                                   "setup_ref_s": [ref for ref, _ in setups],
                                   "setup_wall_s": [raw for _, raw in setups],
                                   "peak_rss_mb": peak_rss_mb()}))
    print("# op_median_s " + json.dumps(op_medians))
    print("# fail_ratio " + json.dumps({"failed": len(failures), "attempted": attempted,
                                       "ratio": len(failures) / attempted}))
    for failure in failures:
        print("# failure " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
