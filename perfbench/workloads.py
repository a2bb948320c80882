"""The benchmark workloads: seeded documents in, checked verdicts out.

A workload function makes its documents from the seed and returns a list of
operations.  One pass runs every operation in order; an operation is one
battery, one ``groupalg check all`` call or one layer call, and it returns
``None`` when its output is correct or a message saying what was wrong.
Every call into ``groupalg`` goes through a module attribute, so the tracer
can rebind it.
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from groupalg import battery, cli, groupoid, haar, representations, tolerances
from groupalg import io as gio

import inputs

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# transitive-ladder: relation documents, then explicit-arrows documents.
# pair(10) is left out: its 3-5 s battery alone would cut a 30 s run to
# three or four passes, too few for a steady median on a noisy host.
LADDER = [("pair4", 4, None), ("pair5", 5, None), ("pair6", 6, None), ("pair8", 8, None),
          ("pair3xs3", 3, "s3"), ("pair4xklein", 4, "klein"), ("z32", 1, "z32")]

# Union shapes (components pair(n) x H) of the first random_groupoid draws,
# max_arrows=64, from SplitMix64(7), each draw followed by its random weights
# and random nu from the same stream.  Union 5 has 972 full bisections; the
# battery's k^3 bisection table needs 6.8 GiB for it, so it fails under any
# desk-size memory cap.  It is kept out of the timed workload (whose
# operations must all succeed) and run by the smoke test under the cap.
UNIONS = [
    [(3, "s3")],
    [(2, "z2"), (3, "z2"), (3, "klein")],
    [(1, "z3")],
    [(2, "1")],
    [(1, "s3"), (3, "z2")],
    [(1, "1"), (1, "s3"), (3, "z3")],
    [(4, "z3")],
    [(4, "z2"), (1, "z4"), (1, "z3")],
    [(3, "s3"), (2, "z2"), (1, "z2")],
    [(1, "1")],
    [(3, "z4"), (1, "z3"), (1, "z3")],
    [(2, "s3"), (1, "klein")],
]
BISECTION_OOM_UNION = 5
MIXED_UNIONS = [i for i in range(len(UNIONS)) if i != BISECTION_OOM_UNION]

# pair(36), 1296 arrows: at pair(48) one pass takes about 20 s, so a 30 s
# run holds a single sample.  The layers and their order of cost are the same.
PAIR_LAYERS_N = 36
PAIR_LAYERS_LAW_TRIALS = 5


@dataclass
class Op:
    label: str
    run: Callable[[dict], "str | None"]


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def suite_verdicts(run) -> list[list[str]]:
    """(name, PASS | FAIL | skipped) for every line of a battery run."""
    out = []
    for line in run.lines:
        if line.detail.startswith("skipped:"):
            out.append([line.name, "skipped"])
        else:
            out.append([line.name, "PASS" if line.ok else "FAIL"])
    return out


def compare_suites(run, expected: list[list[str]] | None) -> str | None:
    """Every reference suite must report its reference status.  Suites the
    reference does not know may be added, but must not fail.  A non-finite
    residual is wrong whatever the status says."""
    if expected is None:
        return "no reference verdicts for this document"
    for line in run.lines:
        if line.residual is not None and not math.isfinite(line.residual):
            return f"{line.name}: non-finite residual {line.residual!r}"
    got = dict((name, status) for name, status in suite_verdicts(run))
    for name, status in expected:
        if got.get(name) != status:
            return f"{name}: {got.get(name, 'missing')}, reference {status}"
    known = {name for name, _ in expected}
    extra = [name for name, status in got.items() if name not in known and status == "FAIL"]
    if extra:
        return f"{extra[0]}: FAIL (suite not in the reference)"
    return None


def battery_op(label: str, text: str, seed: int, trials: int,
               expected: list[list[str]] | None) -> Op:
    def run(ctx):
        gdoc = gio.parse_groupoid_document(json.loads(text), where=label)
        result = battery.run_battery(gdoc, seed=seed, trials=trials)
        ctx.setdefault("batteries", {})[label] = result
        return compare_suites(result, expected)
    return Op(f"battery:{label}", run)


def check_all_op(seed: int, trials: int, expected_code: int | None) -> Op:
    def run(ctx):
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["check", "all", "--seed", str(seed), "--trials", str(trials)])
        ctx["check_all_code"] = code
        for line in out.getvalue().splitlines():
            if "max residual" in line:
                value = float(line.rsplit("max residual", 1)[1])
                if not math.isfinite(value):
                    return f"non-finite residual: {line.strip()}"
        if code != expected_code:
            return f"exit code {code}, reference {expected_code}"
        return None
    return Op("check-all", run)


def transitive_ladder(seed: int, trials: int, names: list[str] | None = None,
                      reference: dict | None = None) -> list[Op]:
    if reference is None:
        reference = load_reference()["transitive-ladder"]
    rng = random.Random(seed)
    ops = []
    for label, n, group in LADDER:
        if names is not None and label not in names:
            continue
        doc = (inputs.pair_relation_doc(n, rng) if group is None
               else inputs.union_arrows_doc([(n, group)], rng))
        ops.append(battery_op(label, inputs.document_text(doc), seed, trials,
                              reference.get(label)))
    return ops


def mixed_small(seed: int, trials: int, unions: list[int] | None = None,
                check_all: bool = True, reference: dict | None = None) -> list[Op]:
    if reference is None:
        reference = load_reference()["mixed-small"]
    rng = random.Random(seed)
    ops = []
    for i in (MIXED_UNIONS if unions is None else unions):
        label = f"union{i:02d}"
        doc = inputs.union_arrows_doc(UNIONS[i], rng)
        ops.append(battery_op(label, inputs.document_text(doc), seed, trials,
                              reference.get(label)))
    if check_all:
        ops.append(check_all_op(seed, trials, reference.get("check-all")))
    return ops


def _random_function(n: int, rng: random.Random) -> np.ndarray:
    return np.array([complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)])


def pair_layers(seed: int, trials: int, n: int = PAIR_LAYERS_N,
                law_trials: int = PAIR_LAYERS_LAW_TRIALS) -> list[Op]:
    """Layer by layer on one large relation document, pair(n)."""
    rng = random.Random(seed)
    text = inputs.document_text(inputs.pair_relation_doc(n, rng))
    fs = [_random_function(n * n, rng) for _ in range(3 * law_trials + 1)]
    exact, accum = tolerances.exact_tol(), tolerances.accum_tol()

    def parse(ctx):
        gdoc = gio.parse_groupoid_document(json.loads(text), where=f"pair{n}")
        ctx.update(gdoc=gdoc, G=gdoc.groupoid, mu=gdoc.haar(), nu=gdoc.nu())
        if ctx["G"].n_arrows != n * n:
            return f"{ctx['G'].n_arrows} arrows, want {n * n}"
        return None

    def report_op(fn):
        def run(ctx):
            rep = fn(ctx)
            return None if rep.ok else f"{rep.title}: {rep.errors[0]}"
        return run

    def laws(ctx):
        G, mu = ctx["G"], ctx["mu"]
        worst_assoc = worst_anti = worst_subm = 0.0
        for k in range(law_trials):
            f, g, h = fs[3 * k:3 * k + 3]
            lhs = haar.convolve(G, mu, haar.convolve(G, mu, f, g), h)
            rhs = haar.convolve(G, mu, f, haar.convolve(G, mu, g, h))
            worst_assoc = max(worst_assoc, float(np.abs(lhs - rhs).max()))
            anti = (haar.involute(G, haar.convolve(G, mu, f, g))
                    - haar.convolve(G, mu, haar.involute(G, g), haar.involute(G, f)))
            worst_anti = max(worst_anti, float(np.abs(anti).max()))
            over = (haar.i_norm(G, mu, haar.convolve(G, mu, f, g))
                    - haar.i_norm(G, mu, f) * haar.i_norm(G, mu, g))
            worst_subm = max(worst_subm, over)
        for name, value, tol in (("associativity", worst_assoc, accum),
                                 ("anti-homomorphism", worst_anti, exact),
                                 ("I-norm submultiplicativity", worst_subm, accum)):
            if not value <= tol:  # also false for NaN
                return f"{name}: residual {value!r} above {tol}"
        return None

    def left_regular(ctx):
        ctx["lrep"] = representations.left_regular_rep(ctx["G"], ctx["mu"])
        if len(ctx["lrep"].ops) != n * n:
            return "left-regular rep has the wrong number of operators"
        return None

    def integrate(ctx):
        ctx["pf"] = representations.integrate_rep(ctx["G"], ctx["mu"], ctx["nu"],
                                                  ctx["lrep"], fs[-1])
        if not np.all(np.isfinite(ctx["pf"])):
            return "integrated operator is not finite"
        return None

    def norm(ctx):
        value = representations.operator_norm(ctx["pf"], ctx["lrep"].bundle, ctx["nu"])
        bound = haar.i_norm(ctx["G"], ctx["mu"], fs[-1])
        if not 0 < value <= bound + accum:
            return f"operator norm {value!r} outside (0, I-norm {bound!r}]"
        return None

    return [
        Op("parse", parse),
        Op("validate", report_op(lambda ctx: groupoid.validate(ctx["G"]))),
        Op("left-invariance",
           report_op(lambda ctx: haar.check_left_invariance(ctx["G"], ctx["mu"]))),
        Op("convolution-laws", laws),
        Op("left-regular-rep", left_regular),
        Op("check-representation",
           report_op(lambda ctx: representations.check_representation(ctx["G"],
                                                                      ctx["lrep"]))),
        Op("integrate-rep", integrate),
        Op("operator-norm", norm),
    ]


WORKLOADS = {
    "transitive-ladder": transitive_ladder,
    "mixed-small": mixed_small,
    "pair36-layers": pair_layers,
}

# The warm-up pass of each workload's set-up: the same code paths on
# documents small enough to cost little.
WARMUPS = {
    "transitive-ladder": lambda seed, trials: transitive_ladder(seed, trials, names=["pair4"]),
    "mixed-small": lambda seed, trials: mixed_small(seed, trials, unions=[2, 3]),
    "pair36-layers": lambda seed, trials: pair_layers(seed, trials, n=4, law_trials=1),
}
