"""File formats: groupoid files, function files, structure tables, manifests.

All files are JSON.  A groupoid file carries "objects" and exactly one of
"relation" (list of [tgt, src] label pairs, the declared products) or
"arrows" (records {id, src, tgt} with explicit "compose" triples
[first, second, composite] and "inverse" pairs), plus optional "haar"
({"type": "counting"} or {"weights": {arrow-id: positive}}) and "nu"
(object label to positive weight, summing to 1 within 1e-9).  Relation
files may set "closure_policy" to "strict" (default) or "complete".

A function file is a flat map arrow-id -> [real, imag]; every arrow must
appear unless sparse loading is requested.  Floats are serialized with
Python's shortest round-trip repr, so write-then-read is value-exact.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import FileFormatError, UnknownLabel
from .groupoid import FiniteGroupoid, GroupoidMorphism, build_from_relation, validate
from .haar import HaarSystem, check_haar_positivity, check_left_invariance
from .inductive import InductiveSystem
from .partial_algebra import StructureTable
from .report import Report, SuiteReport
from .representations import QuasiInvariantMeasure, check_nu, uniform_measure


def fmt(x: float) -> str:
    """17-significant-digit rendering used for all printed numbers."""
    return format(float(x), ".17g")


def fmt_complex(z: complex) -> str:
    return f"[{fmt(z.real)}, {fmt(z.imag)}]"


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)  # json.JSONDecodeError carries line/column


def save_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _require(doc: dict, key: str, kind, where: str):
    if key not in doc:
        raise FileFormatError(f"{where}: missing member {key!r}")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise FileFormatError(f"{where}: member {key!r} has the wrong type")
    return val


@dataclass
class GroupoidDocument:
    """Parsed groupoid file: the groupoid plus optional Haar weights and nu.

    ``haar_raw``/``nu_raw`` keep the unvalidated numbers so that
    :meth:`check` can report violations instead of failing to load.
    """

    groupoid: FiniteGroupoid
    haar_raw: np.ndarray | None
    nu_raw: np.ndarray | None
    policy: str

    def haar(self) -> HaarSystem:
        if self.haar_raw is None:
            return HaarSystem(np.ones(self.groupoid.n_arrows))
        return HaarSystem(self.haar_raw)

    def nu(self) -> QuasiInvariantMeasure:
        if self.nu_raw is None:
            return uniform_measure(self.groupoid)
        return QuasiInvariantMeasure(self.nu_raw)

    def measures(self) -> tuple[HaarSystem, QuasiInvariantMeasure]:
        """The Haar system and nu; a ValueError carrying the witness of the
        first that is invalid."""
        return self.haar(), self.nu()

    def check(self) -> list[SuiteReport]:
        """The file's own invariants, as the battery's first four suites:
        groupoid-axioms, haar-positivity, haar-left-invariance (only when the
        weights are positive) and nu-normalization."""
        G = self.groupoid
        positive = (Report("haar-positivity") if self.haar_raw is None
                    else check_haar_positivity(self.haar_raw))
        suites = [SuiteReport("groupoid-axioms", validate(G)),
                  SuiteReport("haar-positivity", positive, "weights strictly positive")]
        if positive.ok:
            suites.append(SuiteReport("haar-left-invariance",
                                      check_left_invariance(G, self.haar())))
        if self.nu_raw is None:
            return [*suites, SuiteReport("nu-normalization", Report("nu-normalization"),
                                         "defaulting to the uniform measure")]
        nu, off = check_nu(self.nu_raw)
        return [*suites, SuiteReport("nu-normalization", nu, "positive, total mass 1", off)]


def _groupoid_from_arrows(doc: dict, where: str) -> FiniteGroupoid:
    objects = [str(o) for o in _require(doc, "objects", list, where)]
    label_index = {lab: i for i, lab in enumerate(objects)}
    arrows = _require(doc, "arrows", list, where)
    ids, src, tgt = [], [], []
    for rec in arrows:
        if not isinstance(rec, dict):
            raise FileFormatError(f"{where}: arrow records must be objects")
        ids.append(str(_require(rec, "id", None, where)))
        for key, out in (("src", src), ("tgt", tgt)):
            lab = str(_require(rec, key, None, where))
            if lab not in label_index:
                raise FileFormatError(f"{where}: arrow references unknown object {lab!r}")
            out.append(label_index[lab])
    if len(set(ids)) != len(ids):
        raise FileFormatError(f"{where}: duplicate arrow ids")
    arrow_index = {aid: i for i, aid in enumerate(ids)}

    def aidx(aid) -> int:
        aid = str(aid)
        if aid not in arrow_index:
            raise FileFormatError(f"{where}: unknown arrow id {aid!r}")
        return arrow_index[aid]

    rows = []
    for triple in _require(doc, "compose", list, where):
        if not isinstance(triple, list) or len(triple) != 3:
            raise FileFormatError(f"{where}: compose entries must be id triples")
        rows.append([aidx(t) for t in triple])
    inverse = [0] * len(ids)
    seen = set()
    for pair in _require(doc, "inverse", list, where):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FileFormatError(f"{where}: inverse entries must be id pairs")
        a = aidx(pair[0])
        inverse[a] = aidx(pair[1])
        seen.add(a)
    if len(seen) != len(ids):
        raise FileFormatError(f"{where}: inverse must cover every arrow exactly once")

    # the unit at x is the first loop u with a o u = a for every arrow a out
    # of x and u o a = a for every arrow a into x
    G = FiniteGroupoid(objects, src, tgt, rows, inverse, [None] * len(objects),
                       arrow_ids=ids)
    unit_of: list[int | None] = []
    for x in range(len(objects)):
        outgoing = np.array(G.source_fiber(x), dtype=np.intp)
        incoming = np.array(G.target_fiber(x), dtype=np.intp)
        unit_of.append(next(
            (u for u in G.target_fiber(x) if src[u] == x
             and np.array_equal(G.composites(outgoing, u), outgoing)
             and np.array_equal(G.composites(u, incoming), incoming)), None))
    return FiniteGroupoid(objects, src, tgt, G.compose_table, inverse, unit_of,
                          arrow_ids=ids)


def _finite_number(val, what: str) -> float:
    """A JSON number as a finite float; Python's json also reads the
    non-standard ``Infinity`` and ``NaN``, and ``1e400`` overflows to inf."""
    if not isinstance(val, (int, float)):
        raise FileFormatError(f"{what} is not a number")
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise FileFormatError(f"{what} is not finite")
    return out


def parse_groupoid_document(doc: dict, where: str = "groupoid file") -> GroupoidDocument:
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: top level must be an object")
    has_rel, has_arr = "relation" in doc, "arrows" in doc
    if has_rel == has_arr:
        raise FileFormatError(f"{where}: need exactly one of 'relation' or 'arrows'")
    policy = str(doc.get("closure_policy", "strict"))
    if policy not in ("strict", "complete"):
        raise FileFormatError(f"{where}: closure_policy must be strict or complete")
    if has_rel:
        objects = [str(o) for o in _require(doc, "objects", list, where)]
        pairs = []
        for p in doc["relation"]:
            if not isinstance(p, list) or len(p) != 2:
                raise FileFormatError(f"{where}: relation entries must be label pairs")
            pairs.append((str(p[0]), str(p[1])))
        try:
            G = build_from_relation(objects, pairs, policy)
        except UnknownLabel as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
    else:
        G = _groupoid_from_arrows(doc, where)

    haar_raw = None
    if "haar" in doc:
        entry = _require(doc, "haar", dict, where)
        if entry.get("type") == "counting":
            haar_raw = np.ones(G.n_arrows)
        elif "weights" in entry:
            w = np.zeros(G.n_arrows)
            table = entry["weights"]
            if not isinstance(table, dict):
                raise FileFormatError(f"{where}: haar weights must be a map")
            for aid, val in table.items():
                val = _finite_number(val, f"{where}: haar weight for {aid!r}")
                try:
                    w[G.arrow_index(str(aid))] = val
                except UnknownLabel as exc:
                    raise FileFormatError(f"{where}: {exc}") from exc
            if len(table) != G.n_arrows:
                raise FileFormatError(f"{where}: haar weights must cover every arrow")
            haar_raw = w
        else:
            raise FileFormatError(f"{where}: haar needs type counting or a weights map")
    nu_raw = None
    if "nu" in doc:
        table = _require(doc, "nu", dict, where)
        v = np.zeros(G.n_objects)
        for lab, val in table.items():
            val = _finite_number(val, f"{where}: nu value for {lab!r}")
            try:
                v[G.object_index(str(lab))] = val
            except UnknownLabel as exc:
                raise FileFormatError(f"{where}: {exc}") from exc
        if len(table) != G.n_objects:
            raise FileFormatError(f"{where}: nu must cover every object")
        nu_raw = v
    return GroupoidDocument(G, haar_raw, nu_raw, policy)


def load_groupoid(path: str) -> GroupoidDocument:
    return parse_groupoid_document(load_json(path), where=os.path.basename(path))


def save_groupoid(path: str, gdoc: GroupoidDocument) -> None:
    """Write the explicit-arrows form; value-exact round trip."""
    G = gdoc.groupoid
    ids = G.arrow_ids
    doc: dict = {
        "objects": list(G.objects),
        "arrows": [{"id": ids[a], "src": G.objects[G.src[a]],
                    "tgt": G.objects[G.tgt[a]]} for a in range(G.n_arrows)],
        "compose": [[ids[a], ids[b], ids[c]] for a, b, c in sorted(G.compose_table.tolist())],
        "inverse": [[ids[a], ids[G.inverse[a]]] for a in range(G.n_arrows)],
    }
    if gdoc.haar_raw is not None:
        doc["haar"] = {"weights": {G.arrow_ids[a]: float(gdoc.haar_raw[a])
                                   for a in range(G.n_arrows)}}
    if gdoc.nu_raw is not None:
        doc["nu"] = {G.objects[x]: float(gdoc.nu_raw[x]) for x in range(G.n_objects)}
    save_json(path, doc)


def load_function(path: str, G: FiniteGroupoid, sparse: bool = False) -> np.ndarray:
    doc = load_json(path)
    where = os.path.basename(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: function file must be a map")
    out = np.zeros(G.n_arrows, dtype=complex)
    seen = set()
    for aid, val in doc.items():
        try:
            a = G.arrow_index(str(aid))
        except UnknownLabel as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
        if not (isinstance(val, list) and len(val) == 2
                and all(isinstance(v, (int, float)) for v in val)):
            raise FileFormatError(f"{where}: value for {aid!r} must be [real, imag]")
        if a in seen:
            raise FileFormatError(f"{where}: duplicate entry for {aid!r}")
        seen.add(a)
        out[a] = complex(float(val[0]), float(val[1]))
    if not sparse and len(seen) != G.n_arrows:
        missing = next(G.arrow_ids[a] for a in range(G.n_arrows) if a not in seen)
        raise FileFormatError(
            f"{where}: arrow {missing!r} missing (use sparse loading for defaults)")
    return out


def save_function(path: str, G: FiniteGroupoid, f) -> None:
    f = np.asarray(f, dtype=complex)
    doc = {G.arrow_ids[a]: [float(f[a].real), float(f[a].imag)]
           for a in range(G.n_arrows)}
    save_json(path, doc)


def matrix_document(M: np.ndarray, row_labels: list[str], col_labels: list[str]) -> dict:
    """Row-major [real, imag] pairs, labeled; the CLI's matrix block format."""
    M = np.asarray(M, dtype=complex)
    return {
        "rows": int(M.shape[0]),
        "cols": int(M.shape[1]),
        "row_labels": list(row_labels),
        "col_labels": list(col_labels),
        "data": [[float(z.real), float(z.imag)] for z in M.reshape(-1)],
    }


def render_matrix(M: np.ndarray) -> str:
    M = np.asarray(M, dtype=complex)
    lines = []
    for row in M:
        lines.append("  ".join(fmt_complex(z) for z in row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# structure tables

def load_structure_table(path: str) -> StructureTable:
    """Structure-table file: dim, declared products with coefficient vectors,
    and the star map.  Basis indices are 1-based in files."""
    doc = load_json(path)
    where = os.path.basename(path)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: top level must be an object")
    dim = _require(doc, "dim", int, where)
    coeff = {}
    for rec in _require(doc, "products", list, where):
        if not isinstance(rec, dict):
            raise FileFormatError(f"{where}: product records must be objects")
        i = int(_require(rec, "left", int, where)) - 1
        j = int(_require(rec, "right", int, where)) - 1
        vec = _require(rec, "coeffs", list, where)
        if len(vec) != dim:
            raise FileFormatError(f"{where}: coeffs must have length {dim}")
        try:
            coeff[(i, j)] = [complex(float(p[0]), float(p[1])) for p in vec]
        except (TypeError, IndexError) as exc:
            raise FileFormatError(f"{where}: coeffs must be [real, imag] pairs") from exc
    star = []
    for rec in _require(doc, "star", list, where):
        k = int(_require(rec, "index", int, where)) - 1
        phase = rec.get("phase", [1.0, 0.0])
        star.append((k, complex(float(phase[0]), float(phase[1]))))
    try:
        return StructureTable(dim, coeff, star)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# inductive-system manifests

def load_manifest(path: str) -> InductiveSystem:
    """Manifest: named piece files plus explicit embedding maps.

    Piece paths are resolved relative to the manifest.  The order relation
    is exactly the set of (from, to) pairs carrying embeddings.
    """
    doc = load_json(path)
    where = os.path.basename(path)
    base = os.path.dirname(os.path.abspath(path))
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: top level must be an object")
    labels, pieces = [], {}
    for rec in _require(doc, "pieces", list, where):
        name = str(_require(rec, "name", None, where))
        file = str(_require(rec, "file", None, where))
        if name in pieces:
            raise FileFormatError(f"{where}: duplicate piece name {name!r}")
        labels.append(name)
        pieces[name] = load_groupoid(os.path.join(base, file)).groupoid

    def parse_map(rec: dict, src_name: str, dst: FiniteGroupoid) -> GroupoidMorphism:
        P = pieces[src_name]
        objects = _require(rec, "objects", dict, where)
        arrows = _require(rec, "arrows", dict, where)
        try:
            om = [dst.object_index(str(objects[P.objects[x]]))
                  for x in range(P.n_objects)]
            am = [dst.arrow_index(str(arrows[P.arrow_ids[a]]))
                  for a in range(P.n_arrows)]
        except KeyError as exc:
            raise FileFormatError(f"{where}: embedding from {src_name!r} misses {exc}") from exc
        except UnknownLabel as exc:
            raise FileFormatError(f"{where}: {exc}") from exc
        return GroupoidMorphism(tuple(om), tuple(am))

    leq: set[tuple[str, str]] = set()
    embeddings = {}
    for rec in _require(doc, "embeddings", list, where):
        a = str(_require(rec, "from", None, where))
        b = str(_require(rec, "to", None, where))
        if a not in pieces or b not in pieces:
            raise FileFormatError(f"{where}: embedding references unknown piece")
        if a == b:
            continue  # identity embeddings are implicit
        leq.add((a, b))
        embeddings[(a, b)] = parse_map(rec, a, pieces[b])

    top = None
    if "top" in doc:
        trec = _require(doc, "top", dict, where)
        top_g = load_groupoid(os.path.join(base, str(_require(trec, "file", None, where)))).groupoid
        top_maps = {}
        for rec in _require(trec, "embeddings", list, where):
            a = str(_require(rec, "from", None, where))
            if a not in pieces:
                raise FileFormatError(f"{where}: top embedding references unknown piece")
            top_maps[a] = parse_map(rec, a, top_g)
        top = (top_g, top_maps)
    return InductiveSystem(labels, leq, pieces, embeddings, top)
