"""Command-line front end.

Exit codes: 0 all checks pass, 1 a mathematical invariant is violated (the
witnesses are printed), 2 the input file cannot be parsed (line/column
diagnostics for JSON syntax, member names for schema problems), a setting
such as GROUPALG_TOL is malformed, or a command-line label (--object,
--arrow) names nothing in the file.  Numeric output is printed with 17
significant digits; GROUPALG_TOL overrides the default tolerances (see the
tolerances module).
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

import numpy as np

from . import io
from .battery import run_battery
from .errors import FileFormatError, GroupalgError, UnknownLabel, UsageError
from .groupoid import multipliers, validate
from .haar import convolve, i_norm, involute
from .inductive import check_system, limit
from .partial_algebra import (check_star_compatibility, extract_relation,
                              ideal_closure_check, multiplier_subspace)
from .report import Report
from .representations import (check_representation, decompose_transitive,
                              integrate_rep, left_regular, left_regular_rep,
                              transitive_isomorphism_check, trivial_rep)


def _load(path: str) -> io.GroupoidDocument:
    return io.load_groupoid(path)


def _print_report(rep: Report) -> int:
    print(rep)
    return 0 if rep.ok else 1


def cmd_validate(args) -> int:
    rep = Report("file-invariants")
    for suite in _load(args.file).check():
        rep.merge(suite.report)
    return _print_report(rep)


def _fixture_paths() -> list[str]:
    base = resources.files("groupalg") / "fixtures"
    return sorted(str(p) for p in base.iterdir() if p.name.endswith(".json"))


def cmd_check(args) -> int:
    if args.file == "all":
        import os.path
        names = [(p, os.path.basename(p)) for p in _fixture_paths()]
        files = [p for p, n in names
                 if not n.endswith("manifest.json")
                 and not n.startswith(("fn-", "st-"))]
        manifests = [p for p, n in names if n.endswith("manifest.json")]
        tables = [p for p, n in names if n.startswith("st-")]
    else:
        files, manifests, tables = [args.file], [], []
    code = 0
    for path in files:
        print(f"== {path}")
        run = run_battery(_load(path), seed=args.seed, trials=args.trials)
        print(run.render())
        code = max(code, 0 if run.ok else 1)
    for path in tables:
        print(f"== {path}")
        T = io.load_structure_table(path)
        rep = Report("structure-table")
        rep.merge(check_star_compatibility(T))
        rep.merge(ideal_closure_check(T))
        print(rep)
        code = max(code, 0 if rep.ok else 1)
    for path in manifests:
        print(f"== {path}")
        sys_ = io.load_manifest(path)
        rep = check_system(sys_)
        print(rep)
        if rep.ok:
            res = limit(sys_)
            ok = validate(res.groupoid).ok
            print(f"{'PASS' if ok else 'FAIL'}  inductive-limit"
                  f"{'':<21}{res.groupoid.n_objects} objects, "
                  f"{res.groupoid.n_arrows} arrows")
            code = max(code, 0 if ok else 1)
        else:
            code = 1
    return code


def cmd_fibers(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    x = G.object_index(args.object)
    tf = [G.arrow_ids[a] for a in G.target_fiber(x)]
    sf = [G.arrow_ids[a] for a in G.source_fiber(x)]
    print(f"target fiber of {args.object}: {' '.join(tf) if tf else '(empty)'}")
    print(f"source fiber of {args.object}: {' '.join(sf) if sf else '(empty)'}")
    return 0


def cmd_multipliers(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    ms = multipliers(G)
    print("left:", " ".join(G.objects[x] for x in ms.left) or "(none)")
    print("right:", " ".join(G.objects[x] for x in ms.right) or "(none)")
    print("ideal:", " ".join(G.objects[x] for x in ms.ideal) or "(none)")
    return _print_report(ms.certificate)


def cmd_convolve(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    f = io.load_function(args.f, G, sparse=args.sparse)
    g = io.load_function(args.g, G, sparse=args.sparse)
    out = convolve(G, gdoc.measures()[0], f, g)
    if args.out:
        io.save_function(args.out, G, out)
    else:
        for a in range(G.n_arrows):
            print(f"{G.arrow_ids[a]} {io.fmt_complex(complex(out[a]))}")
    return 0


def cmd_involute(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    f = io.load_function(args.f, G, sparse=args.sparse)
    out = involute(G, f)
    if args.out:
        io.save_function(args.out, G, out)
    else:
        for a in range(G.n_arrows):
            print(f"{G.arrow_ids[a]} {io.fmt_complex(complex(out[a]))}")
    return 0


def cmd_inorm(args) -> int:
    gdoc = _load(args.file)
    f = io.load_function(args.f, gdoc.groupoid, sparse=args.sparse)
    print(io.fmt(i_norm(gdoc.groupoid, gdoc.measures()[0], f)))
    return 0


def cmd_rep(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    mu, _ = gdoc.measures()
    if args.arrow is not None:
        a = G.arrow_index(args.arrow)
        if args.kind == "trivial":
            M = np.ones((1, 1), dtype=complex)
            rows = cols = ["1"]
        else:
            M = left_regular(G, mu, a)
            rows = [G.arrow_ids[k] for k in G.target_fiber(G.tgt[a])]
            cols = [G.arrow_ids[k] for k in G.target_fiber(G.src[a])]
        if args.out:
            io.save_json(args.out, io.matrix_document(M, rows, cols))
        else:
            print(io.render_matrix(M))
        return 0
    rep = trivial_rep(G) if args.kind == "trivial" else left_regular_rep(G, mu)
    return _print_report(check_representation(G, rep))


def cmd_integrate(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    mu, nu = gdoc.measures()
    f = io.load_function(args.f, G, sparse=args.sparse)
    rep = trivial_rep(G) if args.rep == "trivial" else left_regular_rep(G, mu)
    op = integrate_rep(G, mu, nu, rep, f)
    labels = []
    for x in range(G.n_objects):
        labels.extend(f"{G.objects[x]}[{k}]" for k in range(rep.bundle.dims[x]))
    if args.out:
        doc = io.matrix_document(op, labels, labels)
        doc["objects"] = list(G.objects)
        doc["dims"] = list(rep.bundle.dims)
        doc["offsets"] = [int(v) for v in rep.bundle.offsets]
        io.save_json(args.out, doc)
    else:
        print(io.render_matrix(op))
    return 0


def cmd_equiv(args) -> int:
    gdoc = _load(args.file)
    G = gdoc.groupoid
    mu, _ = gdoc.measures()
    dec = decompose_transitive(G)
    print(f"base object: {G.objects[dec.base]}")
    print(f"isotropy order: {dec.iso.order}")
    print("trivializing arrows:",
          " ".join(G.arrow_ids[t] for t in dec.taus))
    return _print_report(transitive_isomorphism_check(G, mu))


def cmd_limit(args) -> int:
    sys_ = io.load_manifest(args.manifest)
    rep = check_system(sys_)
    print(rep)
    if not rep.ok:
        return 1
    res = limit(sys_)
    G = res.groupoid
    print(f"limit: {G.n_objects} objects, {G.n_arrows} arrows")
    for lab in sys_.labels:
        inj = res.injections[lab]
        pairs = " ".join(f"{sys_.pieces[lab].objects[x]}->{G.objects[inj.object_map[x]]}"
                         for x in range(sys_.pieces[lab].n_objects))
        print(f"injection {lab}: {pairs}")
    ok = validate(G).ok
    if not ok:
        print("FAIL: limit does not validate")
        return 1
    if args.out:
        io.save_groupoid(args.out, io.GroupoidDocument(G, None, None, "strict"))
    return 0


def cmd_algebra(args) -> int:
    T = io.load_structure_table(args.file)
    rep = Report("structure-table")
    rep.merge(check_star_compatibility(T))
    rep.merge(ideal_closure_check(T))
    left = multiplier_subspace(T, "left")
    right = multiplier_subspace(T, "right")
    print(f"left multiplier rank: {left.rank}")
    print(f"right multiplier rank: {right.rank}")
    labels, pairs = extract_relation(T)
    print(f"relation: {len(labels)} objects, {len(pairs)} pairs")
    return _print_report(rep)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="groupalg",
                                description="finite groupoid convolution algebras")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("validate", cmd_validate, help="check every file invariant")
    sp.add_argument("file")

    sp = add("check", cmd_check, help="run the invariant battery ('all' = fixtures)")
    sp.add_argument("file")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--trials", type=int, default=20)

    sp = add("fibers", cmd_fibers, help="target/source fiber of an object")
    sp.add_argument("file")
    sp.add_argument("--object", required=True)

    sp = add("multipliers", cmd_multipliers, help="multiplier objects and ideal")
    sp.add_argument("file")

    sp = add("convolve", cmd_convolve, help="convolution product of two functions")
    sp.add_argument("file")
    sp.add_argument("f")
    sp.add_argument("g")
    sp.add_argument("--out")
    sp.add_argument("--sparse", action="store_true")

    sp = add("involute", cmd_involute, help="involution of a function")
    sp.add_argument("file")
    sp.add_argument("f")
    sp.add_argument("--out")
    sp.add_argument("--sparse", action="store_true")

    sp = add("inorm", cmd_inorm, help="I-norm of a function")
    sp.add_argument("file")
    sp.add_argument("f")
    sp.add_argument("--sparse", action="store_true")

    sp = add("rep", cmd_rep, help="representation matrices or axiom report")
    sp.add_argument("file")
    sp.add_argument("kind", choices=["trivial", "left-regular"])
    sp.add_argument("--arrow")
    sp.add_argument("--out")

    sp = add("integrate", cmd_integrate, help="integrated representation of a function")
    sp.add_argument("file")
    sp.add_argument("f")
    sp.add_argument("--rep", choices=["trivial", "left-regular"], default="left-regular")
    sp.add_argument("--out")
    sp.add_argument("--sparse", action="store_true")

    sp = add("equiv", cmd_equiv, help="transitive decomposition and isomorphism check")
    sp.add_argument("file")

    sp = add("limit", cmd_limit, help="check an inductive system and build its limit")
    sp.add_argument("manifest")
    sp.add_argument("--out")

    sp = add("algebra", cmd_algebra, help="check a structure-table file")
    sp.add_argument("file")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except json.JSONDecodeError as exc:
        print(f"parse error: line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except FileFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return 2
    except (UsageError, UnknownLabel) as exc:  # file labels arrive as FileFormatError
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (GroupalgError, ValueError) as exc:
        print(f"invariant violated: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
