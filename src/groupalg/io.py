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

import itertools
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


def _require(doc, key: str, kind, where: str):
    """Member ``key`` of the record ``doc``, of type ``kind`` when one is
    given; a JSON boolean is not an int, although Python's bool is one."""
    if not isinstance(doc, dict):
        raise FileFormatError(f"{where}: a record holding {key!r} must be an object")
    if key not in doc:
        raise FileFormatError(f"{where}: missing member {key!r}")
    val = doc[key]
    if kind is not None and (not isinstance(val, kind) or (kind is int and isinstance(val, bool))):
        raise FileFormatError(f"{where}: member {key!r} has the wrong type")
    return val


def _finite_number(val, what: str) -> float:
    """A JSON number (not a boolean) as a finite float; Python's json also
    reads the non-standard ``Infinity`` and ``NaN``, and ``1e400`` overflows
    to inf."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise FileFormatError(f"{what} is not a number")
    try:
        out = float(val)
    except OverflowError:  # an integer literal beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise FileFormatError(f"{what} is not finite")
    return out


def _pair(val, what: str) -> complex:
    """A ``[real, imag]`` pair of finite numbers."""
    if not (isinstance(val, list) and len(val) == 2):
        raise FileFormatError(f"{what} must be [real, imag]")
    return complex(_finite_number(val[0], what), _finite_number(val[1], what))


def _label_map(table, index_of, what: str, where: str) -> list[tuple[int, object]]:
    """(index, value) pairs of a JSON map keyed by labels, in file order;
    ``index_of`` resolves a label.  JSON object keys are distinct strings,
    so the indices are too."""
    if not isinstance(table, dict):
        raise FileFormatError(f"{where}: {what} must be a map")
    try:
        return [(index_of(str(key)), val) for key, val in table.items()]
    except UnknownLabel as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


def _haar_weights(table, G: FiniteGroupoid, where: str) -> np.ndarray:
    """A haar weights map as an (A,) float vector, arrow by index.

    One pass resolves the ids and one array conversion reads the values,
    when every id is an arrow's, every arrow has one, and every value is an
    exact int or float (so no boolean) with a finite float.  Otherwise the
    map is read again weight by weight, so the first error, its message and
    the order of the checks are the loop's: ids, then values in file order,
    then coverage."""
    if isinstance(table, dict):
        try:
            at = np.fromiter(map(G._arrow_index.__getitem__, table), np.intp, len(table))
            values = list(table.values())
            if len(at) == G.n_arrows and set(map(type, values)) <= {int, float}:
                out = np.zeros(G.n_arrows)
                out[at] = np.array(values, dtype=float)
                if np.isfinite(out).all():
                    return out
        except (KeyError, OverflowError):  # an unknown id; an int past the float range
            pass
    out = np.zeros(G.n_arrows)
    weights = _label_map(table, G.arrow_index, "haar weights", where)
    for a, val in weights:
        out[a] = _finite_number(val, f"{where}: haar weight for {G.arrow_ids[a]!r}")
    if len(weights) != G.n_arrows:
        raise FileFormatError(f"{where}: haar weights must cover every arrow")
    return out


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


def _resolved(entries: list, width: int, arrow_index: dict):
    """The arrows named by ``entries``, each a list of ``width`` ids, up to
    the first entry that is not: an (m, width) int array, -1 for an unknown
    id, and m.  An id is read as ``str(id)``; the string ids take one dict
    lookup each, in one pass over all of them."""
    m = len(entries)
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {width}):
        m = next((i for i, e in enumerate(entries)
                  if not (isinstance(e, list) and len(e) == width)), m)
    try:
        rows = np.fromiter(map(arrow_index.get, itertools.chain.from_iterable(entries[:m]),
                               itertools.repeat(-1)), dtype=np.intp, count=m * width)
    except TypeError:  # an unhashable id, read by str() below
        rows = np.full(m * width, -1, dtype=np.intp)
    for pos in np.flatnonzero(rows < 0).tolist():  # ids that are not strings, or unknown
        rows[pos] = arrow_index.get(_id_at(entries, width, pos), -1)
    return rows.reshape(m, width), m


def _id_at(entries: list, width: int, pos: int) -> str:
    return str(entries[pos // width][pos % width])


def _units(n_objects: int, src: np.ndarray, tgt: np.ndarray, rows: np.ndarray) -> list:
    """The unit at each object x: the first loop u at x with a o u = a for
    every arrow a out of x and u o a = a for every arrow a into x, read from
    the rows as a groupoid keeps them (the last row of a repeated pair
    wins); None where no loop is one."""
    A = len(src)
    keys = rows[:, 0] * A + rows[:, 1]
    order = np.argsort(keys, kind="stable")
    last = np.ones(len(keys), dtype=bool)
    last[:-1] = keys[order[1:]] != keys[order[:-1]]
    a, b, c = rows[order[last]].T
    loop, meets = src == tgt, src[a] == tgt[b]
    right = np.bincount(b[meets & loop[b] & (c == a)], minlength=A)  # a o u = a
    left = np.bincount(a[meets & loop[a] & (c == b)], minlength=A)  # u o a = a
    unit = loop & (right == np.bincount(src, minlength=n_objects)[src]) \
        & (left == np.bincount(tgt, minlength=n_objects)[tgt])
    first = np.full(n_objects, A)
    np.minimum.at(first, src[unit], np.flatnonzero(unit))
    return [None if u == A else u for u in first.tolist()]


def _groupoid_from_arrows(doc: dict, where: str) -> FiniteGroupoid:
    objects = [str(o) for o in _require(doc, "objects", list, where)]
    label_index = {lab: i for i, lab in enumerate(objects)}
    arrows = _require(doc, "arrows", list, where)
    ids, src, tgt = [], [], []
    for rec in arrows:
        ids.append(str(_require(rec, "id", None, where)))
        for key, out in (("src", src), ("tgt", tgt)):
            lab = str(_require(rec, key, None, where))
            if lab not in label_index:
                raise FileFormatError(f"{where}: arrow references unknown object {lab!r}")
            out.append(label_index[lab])
    if len(set(ids)) != len(ids):
        raise FileFormatError(f"{where}: duplicate arrow ids")
    arrow_index = {aid: i for i, aid in enumerate(ids)}

    # each entry is read in file order: the first malformed entry or unknown
    # id before it is the error
    compose = _require(doc, "compose", list, where)
    rows, m = _resolved(compose, 3, arrow_index)
    if len(unknown := np.flatnonzero(rows.ravel() < 0)):
        raise FileFormatError(f"{where}: unknown arrow id {_id_at(compose, 3, unknown[0])!r}")
    if m < len(compose):
        raise FileFormatError(f"{where}: compose entries must be id triples")
    pairs = _require(doc, "inverse", list, where)
    inverse_rows, m = _resolved(pairs, 2, arrow_index)
    a, b = inverse_rows.T
    # per pair: its first id unknown, given in an earlier pair, its second unknown
    order = np.argsort(a, kind="stable")
    again = np.zeros(m, dtype=bool)
    again[order[1:]] = a[order[1:]] == a[order[:-1]]
    fails = np.stack([a < 0, again, b < 0], axis=1).ravel()
    if fails.any():
        i, check = divmod(int(np.argmax(fails)), 3)
        if check == 1:
            raise FileFormatError(f"{where}: inverse of arrow {ids[a[i]]!r} given twice")
        unknown = _id_at(pairs, 2, 2 * i + check // 2)
        raise FileFormatError(f"{where}: unknown arrow id {unknown!r}")
    if m < len(pairs):
        raise FileFormatError(f"{where}: inverse entries must be id pairs")
    inverse = np.full(len(ids), -1, dtype=np.intp)
    inverse[a] = b
    if (inverse < 0).any():
        raise FileFormatError(f"{where}: inverse must cover every arrow exactly once")
    src, tgt = np.array(src, dtype=np.intp), np.array(tgt, dtype=np.intp)
    return FiniteGroupoid(objects, src, tgt, rows, inverse,
                          _units(len(objects), src, tgt, rows), arrow_ids=ids)


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
        objects = _require(doc, "objects", list, where)
        pairs = _require(doc, "relation", list, where)
        if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
            raise FileFormatError(f"{where}: relation entries must be label pairs")
        try:  # build_from_relation reads each label as a string, once
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
            haar_raw = _haar_weights(entry["weights"], G, where)
        else:
            raise FileFormatError(f"{where}: haar needs type counting or a weights map")
    nu_raw = None
    if "nu" in doc:
        nu_raw = np.zeros(G.n_objects)
        values = _label_map(doc["nu"], G.object_index, "nu", where)
        for x, val in values:
            nu_raw[x] = _finite_number(val, f"{where}: nu value for {G.objects[x]!r}")
        if len(values) != G.n_objects:
            raise FileFormatError(f"{where}: nu must cover every object")
    return GroupoidDocument(G, haar_raw, nu_raw, policy)


def load_groupoid(path: str) -> GroupoidDocument:
    return parse_groupoid_document(load_json(path), where=os.path.basename(path))


def save_groupoid(path: str, gdoc: GroupoidDocument) -> None:
    """Write the explicit-arrows form; value-exact round trip."""
    G = gdoc.groupoid
    ids = G.arrow_ids
    doc: dict = {
        "objects": list(G.objects),
        "arrows": [{"id": aid, "src": G.objects[s], "tgt": G.objects[t]}
                   for aid, s, t in zip(ids, G.src.tolist(), G.tgt.tolist())],
        "compose": [[ids[a], ids[b], ids[c]] for a, b, c in G.compose_table.tolist()],
        "inverse": [[aid, ids[i]] for aid, i in zip(ids, G.inverse.tolist())],
    }
    if gdoc.haar_raw is not None:
        doc["haar"] = {"weights": {G.arrow_ids[a]: float(gdoc.haar_raw[a])
                                   for a in range(G.n_arrows)}}
    if gdoc.nu_raw is not None:
        doc["nu"] = {G.objects[x]: float(gdoc.nu_raw[x]) for x in range(G.n_objects)}
    save_json(path, doc)


def load_function(path: str, G: FiniteGroupoid, sparse: bool = False) -> np.ndarray:
    where = os.path.basename(path)
    values = _label_map(load_json(path), G.arrow_index, "function file", where)
    out = np.zeros(G.n_arrows, dtype=complex)
    for a, val in values:
        out[a] = _pair(val, f"{where}: value for {G.arrow_ids[a]!r}")
    if not sparse and len(values) != G.n_arrows:
        seen = {a for a, _ in values}
        missing = next(aid for a, aid in enumerate(G.arrow_ids) if a not in seen)
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
    and the star map.  Basis indices are 1-based in files; a (left, right)
    pair may carry one product record only."""
    doc = load_json(path)
    where = os.path.basename(path)
    dim = _require(doc, "dim", int, where)
    coeff = {}
    for rec in _require(doc, "products", list, where):
        i = _require(rec, "left", int, where) - 1
        j = _require(rec, "right", int, where) - 1
        vec = _require(rec, "coeffs", list, where)
        if len(vec) != dim:
            raise FileFormatError(f"{where}: coeffs must have length {dim}")
        if (i, j) in coeff:
            raise FileFormatError(f"{where}: two product records for ({i + 1}, {j + 1})")
        coeff[(i, j)] = [_pair(p, f"{where}: a coefficient of product ({i + 1}, {j + 1})")
                         for p in vec]
    star = []
    for rec in _require(doc, "star", list, where):
        k = _require(rec, "index", int, where) - 1
        star.append((k, _pair(rec.get("phase", [1.0, 0.0]),
                              f"{where}: the phase of star entry {k + 1}")))
    try:
        return StructureTable(dim, coeff, star)
    except ValueError as exc:
        raise FileFormatError(f"{where}: {exc}") from exc


# ---------------------------------------------------------------------------
# inductive-system manifests

def load_manifest(path: str) -> InductiveSystem:
    """Manifest: named piece files plus explicit embedding maps.

    Piece paths are resolved relative to the manifest.  The order relation
    is exactly the set of (from, to) pairs carrying embeddings; two pieces
    carry at most one embedding, and a piece at most one into the top.
    """
    doc = load_json(path)
    where = os.path.basename(path)
    base = os.path.dirname(os.path.abspath(path))
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
        if a == b:  # identity embeddings are implicit, but must still parse
            parse_map(rec, a, pieces[b])
            continue
        if (a, b) in leq:
            raise FileFormatError(f"{where}: two embeddings from {a!r} to {b!r}")
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
            if a in top_maps:
                raise FileFormatError(f"{where}: two top embeddings from {a!r}")
            top_maps[a] = parse_map(rec, a, top_g)
        top = (top_g, top_maps)
    return InductiveSystem(labels, leq, pieces, embeddings, top)
