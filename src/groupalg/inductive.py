"""Directed systems of groupoids with coherent embeddings, and their colimit.

A system is a finite directed index set, one groupoid per index, and an
injective structure-preserving embedding for every comparable pair, subject
to the cocycle condition: embedding along alpha <= beta <= gamma in one hop
equals the two-hop composite.  The limit glues the disjoint union of the
pieces along the identifications the embeddings generate; composition of
two glued arrows is computed inside a common upper piece, which exists by
directedness and is consistent by the cocycle condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SystemInvalid
from .groupoid import FiniteGroupoid, GroupoidMorphism, UnionFind, morphism_report
from .report import Report


@dataclass
class InductiveSystem:
    """Pieces indexed by labels; ``leq`` holds the strict comparable pairs.

    ``embeddings`` must cover every pair in ``leq``.  ``top`` optionally
    carries a target groupoid with one embedding per index, used only for
    the compatibility check of the one-hop maps.
    """

    labels: list[str]
    leq: set[tuple[str, str]]
    pieces: dict[str, FiniteGroupoid]
    embeddings: dict[tuple[str, str], GroupoidMorphism]
    top: tuple[FiniteGroupoid, dict[str, GroupoidMorphism]] | None = None


def _compose_morphisms(first: GroupoidMorphism, second: GroupoidMorphism) -> GroupoidMorphism:
    """Apply ``first`` then ``second``."""
    return GroupoidMorphism(
        tuple(second.object_map[x] for x in first.object_map),
        tuple(second.arrow_map[a] for a in first.arrow_map),
    )


def check_system(sys: InductiveSystem) -> Report:
    """Directedness, injective structure-preserving embeddings, cocycle.

    Index pairs must be transitively closed so that every two-hop chain has
    its one-hop embedding to compare against.  Repeated object sets between
    distinct indices are reported as warnings, not errors: inclusion chains
    with equal objects and growing arrow sets are coherent.
    """
    rep = Report("inductive-system")
    labels = sys.labels
    for a, b in sorted(sys.leq):
        if a not in labels or b not in labels:
            rep.add("index", f"order pair ({a}, {b}) references an unknown index")
            return rep
        if (a, b) not in sys.embeddings:
            rep.add("embedding-missing", f"no embedding for {a} <= {b}")
    for a, b in sorted(sys.leq):
        for b2, c in sorted(sys.leq):
            if b == b2 and (a, c) not in sys.leq and a != c:
                rep.add("order-transitivity",
                        f"{a} <= {b} <= {c} but ({a}, {c}) is not in the order")
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            up = [c for c in labels
                  if (a == c or (a, c) in sys.leq) and (b == c or (b, c) in sys.leq)]
            if not up:
                rep.add("directedness", f"indices {a} and {b} have no upper bound")
    for a, b in sorted(sys.leq):
        if (a, b) not in sys.embeddings:
            continue
        sub = morphism_report(sys.pieces[a], sys.pieces[b], sys.embeddings[(a, b)],
                              require_injective=True, title=f"embedding {a} -> {b}")
        for e in sub.entries:
            rep.add(f"embedding({a}<={b})::{e.check}", e.witness, e.severity, e.residual)
    for a, b in sorted(sys.leq):
        for b2, c in sorted(sys.leq):
            if b != b2 or (a, c) not in sys.embeddings:
                continue
            if (a, b) not in sys.embeddings or (b, c) not in sys.embeddings:
                continue
            two_hop = _compose_morphisms(sys.embeddings[(a, b)], sys.embeddings[(b, c)])
            if two_hop != sys.embeddings[(a, c)]:
                rep.add("cocycle",
                        f"embedding {a} -> {c} differs from the composite via {b} "
                        f"(witness chain ({a}, {b}, {c}))")
    if sys.top is not None:
        top_g, top_maps = sys.top
        for a in labels:
            if a not in top_maps:
                rep.add("top-missing", f"no top-level embedding for {a}")
                continue
            sub = morphism_report(sys.pieces[a], top_g, top_maps[a],
                                  require_injective=True, title=f"top embedding {a}")
            for e in sub.entries:
                rep.add(f"top({a})::{e.check}", e.witness, e.severity, e.residual)
        for a, b in sorted(sys.leq):
            if a in top_maps and b in top_maps and (a, b) in sys.embeddings:
                via_b = _compose_morphisms(sys.embeddings[(a, b)], top_maps[b])
                if via_b != top_maps[a]:
                    rep.add("top-compatibility",
                            f"top embedding of {a} differs from the route via {b}")
    for i, a in enumerate(labels):
        for b in labels[i + 1:]:
            if sorted(sys.pieces[a].objects) == sorted(sys.pieces[b].objects):
                rep.add("object-sets",
                        f"indices {a} and {b} carry the same object set",
                        severity="warning")
    return rep


@dataclass
class LimitResult:
    groupoid: FiniteGroupoid
    injections: dict[str, GroupoidMorphism] = field(default_factory=dict)


def limit(sys: InductiveSystem) -> LimitResult:
    """Colimit groupoid with one injection per piece.

    Tags every object/arrow with its piece, unions tags along all
    embeddings, and canonically labels classes by their smallest tag.
    Raises SystemInvalid unless :func:`check_system` passes.
    """
    chk = check_system(sys)
    if not chk.ok:
        raise SystemInvalid(f"system fails coherence checks:\n{chk}")
    labels = sys.labels
    obj_off: dict[str, int] = {}
    arr_off: dict[str, int] = {}
    total_obj = total_arr = 0
    for lab in labels:
        obj_off[lab] = total_obj
        arr_off[lab] = total_arr
        total_obj += sys.pieces[lab].n_objects
        total_arr += sys.pieces[lab].n_arrows

    uf_obj = UnionFind(total_obj)
    uf_arr = UnionFind(total_arr)
    for (a, b), phi in sys.embeddings.items():
        Pa = sys.pieces[a]
        for x in range(Pa.n_objects):
            uf_obj.union(obj_off[a] + x, obj_off[b] + phi.object_map[x])
        for r in range(Pa.n_arrows):
            uf_arr.union(arr_off[a] + r, arr_off[b] + phi.arrow_map[r])

    def piece_of(tag: int, offsets: dict[str, int]) -> tuple[str, int]:
        lab = next(lab for lab in reversed(labels) if tag >= offsets[lab])
        return lab, tag - offsets[lab]

    obj_roots = sorted({uf_obj.find(t) for t in range(total_obj)})
    arr_roots = sorted({uf_arr.find(t) for t in range(total_arr)})
    obj_class = {root: i for i, root in enumerate(obj_roots)}
    arr_class = {root: i for i, root in enumerate(arr_roots)}
    # each class is represented by its smallest tag: (piece, index in the piece)
    obj_reps = [piece_of(root, obj_off) for root in obj_roots]
    arr_reps = [piece_of(root, arr_off) for root in arr_roots]

    raw_labels = [sys.pieces[lab].objects[x] for lab, x in obj_reps]
    out_labels = [raw if raw_labels.count(raw) == 1 else f"{lab}.{raw}"
                  for (lab, _), raw in zip(obj_reps, raw_labels)]

    def obj_of(lab: str, x: int) -> int:
        return obj_class[uf_obj.find(obj_off[lab] + x)]

    def arr_of(lab: str, r: int) -> int:
        return arr_class[uf_arr.find(arr_off[lab] + r)]

    src = [obj_of(lab, sys.pieces[lab].src[r]) for lab, r in arr_reps]
    tgt = [obj_of(lab, sys.pieces[lab].tgt[r]) for lab, r in arr_reps]
    inverse = [arr_of(lab, sys.pieces[lab].inverse[r]) for lab, r in arr_reps]
    unit_of = [None if sys.pieces[lab].unit_of[x] is None
               else arr_of(lab, sys.pieces[lab].unit_of[x]) for lab, x in obj_reps]

    def upper_bound(a: str, b: str) -> str:
        for c in labels:
            if (a == c or (a, c) in sys.leq) and (b == c or (b, c) in sys.leq):
                return c
        raise AssertionError("directedness was already checked")

    def image_in(lab: str, r: int, target: str) -> int:
        if lab == target:
            return r
        return sys.embeddings[(lab, target)].arrow_map[r]

    compose_rows = []
    for ca, (la, ra) in enumerate(arr_reps):
        for cb, (lb, rb) in enumerate(arr_reps):
            if src[ca] != tgt[cb]:
                continue
            up = upper_bound(la, lb)
            try:
                comp = sys.pieces[up].compose(image_in(la, ra, up), image_in(lb, rb, up))
            except ValueError:
                raise SystemInvalid(
                    "identified arrows fail to compose in their upper piece") from None
            compose_rows.append((ca, cb, arr_of(up, comp)))

    G = FiniteGroupoid(out_labels, src, tgt, compose_rows, inverse, unit_of)
    injections = {}
    for lab in labels:
        P = sys.pieces[lab]
        injections[lab] = GroupoidMorphism(
            tuple(obj_of(lab, x) for x in range(P.n_objects)),
            tuple(arr_of(lab, r) for r in range(P.n_arrows)),
        )
    return LimitResult(G, injections)
