"""Directed systems of groupoids with coherent embeddings, and their colimit.

A system is a finite directed index set, one groupoid per index, and an
injective structure-preserving embedding for every comparable pair, subject
to the cocycle condition: embedding along alpha <= beta <= gamma in one hop
equals the two-hop composite.  The limit glues the disjoint union of the
pieces along the identifications the embeddings generate, and its
composition is the union of the pieces' compositions: the embeddings are
injective and preserve composition, so two composable glued arrows have
preimages in a common upper piece (directedness), where they compose, and
the cocycle condition makes the result independent of the piece.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SystemInvalid
from .groupoid import FiniteGroupoid, GroupoidMorphism, components, morphism_report
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

    Tags every object/arrow with its piece, labels each tag with the
    smallest tag the embeddings connect it to (:func:`components`), and
    numbers the classes in the order of their smallest tag.  The table is
    the union of the pieces' tables mapped to classes; a defect of a piece
    carries into the limit, where :func:`validate` reports it.
    Raises SystemInvalid unless :func:`check_system` passes.
    """
    chk = check_system(sys)
    if not chk.ok:
        raise SystemInvalid(f"system fails coherence checks:\n{chk}")
    labels = sys.labels
    index = {lab: k for k, lab in enumerate(labels)}
    pieces = [sys.pieces[lab] for lab in labels]
    obj_off = np.cumsum([0] + [P.n_objects for P in pieces])
    arr_off = np.cumsum([0] + [P.n_arrows for P in pieces])

    def classes(off, image):
        """Smallest tag of every class, ascending, and the class of every
        tag; ``image(phi)`` is an embedding's map on objects or on arrows."""
        i, j = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
        for (a, b), phi in sys.embeddings.items():
            i.append(off[index[a]] + np.arange(len(image(phi))))
            j.append(off[index[b]] + np.asarray(image(phi), dtype=np.intp))
        label = components(int(off[-1]), np.concatenate(i), np.concatenate(j))
        return np.unique(label, return_inverse=True)

    def stacked(off, column) -> np.ndarray:
        """``column(piece)`` of every piece, shifted to tags and concatenated."""
        return np.concatenate([np.zeros(0, dtype=np.intp)] + [
            off[k] + np.asarray(column(P), dtype=np.intp).ravel()
            for k, P in enumerate(pieces)])

    obj_root, obj_class = classes(obj_off, lambda phi: phi.object_map)
    arr_root, arr_class = classes(arr_off, lambda phi: phi.arrow_map)
    # each class is represented by its smallest tag
    src = obj_class[stacked(obj_off, lambda P: P.src)[arr_root]]
    tgt = obj_class[stacked(obj_off, lambda P: P.tgt)[arr_root]]
    inverse = arr_class[stacked(arr_off, lambda P: P.inverse)[arr_root]]
    table = arr_class[stacked(arr_off, lambda P: P.compose_table)].reshape(-1, 3)

    obj_tags = [(k, x) for k, P in enumerate(pieces) for x in range(P.n_objects)]
    obj_reps = [obj_tags[t] for t in obj_root.tolist()]
    unit_of = [None if pieces[k].unit_of[x] is None
               else int(arr_class[arr_off[k] + pieces[k].unit_of[x]]) for k, x in obj_reps]
    raw_labels = [pieces[k].objects[x] for k, x in obj_reps]
    out_labels = [raw if raw_labels.count(raw) == 1 else f"{labels[k]}.{raw}"
                  for (k, _), raw in zip(obj_reps, raw_labels)]

    G = FiniteGroupoid(out_labels, src, tgt, table, inverse, unit_of)
    injections = {lab: GroupoidMorphism(tuple(obj_class[obj_off[k]:obj_off[k + 1]].tolist()),
                                        tuple(arr_class[arr_off[k]:arr_off[k + 1]].tolist()))
                  for k, lab in enumerate(labels)}
    return LimitResult(G, injections)
