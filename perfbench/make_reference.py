"""Regenerate reference.json: the suite verdicts of every battery document
and the exit code of ``groupalg check all``, as the program reports them.

Run from the repository root:  python3 perfbench/make_reference.py
Read the diff before committing it: a FAIL in the reference is a defect of
the program, not a verdict to keep.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import workloads  # noqa: E402


def main() -> int:
    out = {}
    for name, make in (("transitive-ladder", workloads.transitive_ladder),
                       ("mixed-small", workloads.mixed_small)):
        ctx: dict = {}
        for op in make(seed=1, trials=20, reference={}):
            op.run(ctx)
        out[name] = {label: workloads.suite_verdicts(run)
                     for label, run in ctx["batteries"].items()}
        if "check_all_code" in ctx:
            out[name]["check-all"] = ctx["check_all_code"]
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
