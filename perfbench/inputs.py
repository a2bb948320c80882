"""Seeded input documents for the benchmark workloads.

The generator is plain Python and never imports ``groupalg``: the program
under test only ever sees the JSON text produced here.  The shapes of the
documents are fixed per workload; the seed draws the Haar weights, the
object measure nu and the battery seed, so every seed costs the same work.
"""

from __future__ import annotations

import itertools
import json
import random


def group_table(name: str) -> list[list[int]]:
    """Multiplication table of a small group; element 0 is the identity."""
    if name == "1":
        return [[0]]
    if name.startswith("z"):
        m = int(name[1:])
        return [[(i + j) % m for j in range(m)] for i in range(m)]
    if name == "klein":
        return [[i ^ j for j in range(4)] for i in range(4)]
    if name == "s3":
        perms = sorted(itertools.permutations(range(3)))
        index = {p: i for i, p in enumerate(perms)}
        return [[index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms]
    raise ValueError(f"unknown group {name!r}")


def _nu(labels: list[str], rng: random.Random) -> dict[str, float]:
    raw = [rng.uniform(0.2, 1.0) for _ in labels]
    total = sum(raw)
    return {lab: v / total for lab, v in zip(labels, raw)}


def pair_relation_doc(n: int, rng: random.Random) -> dict:
    """Relation document of the pair groupoid on n objects.

    Left-invariant weights depend only on the source object.  Arrow ids
    follow the documented relation scheme: ``a<k>`` in target-major order.
    """
    labels = [f"o{i}" for i in range(n)]
    width = max(2, len(str(n * n - 1)))
    per_object = [rng.uniform(0.5, 2.0) for _ in range(n)]
    weights = {f"a{t * n + s:0{width}d}": per_object[s]
               for t in range(n) for s in range(n)}
    return {
        "objects": labels,
        "relation": [[labels[t], labels[s]] for t in range(n) for s in range(n)],
        "haar": {"weights": weights},
        "nu": _nu(labels, rng),
    }


def union_arrows_doc(components: list[tuple[int, str]], rng: random.Random) -> dict:
    """Explicit-arrows document of a disjoint union of pair(n) x H components.

    The arrow (t, s, g) of a component runs s -> t with isotropy part g, and
    (t, s, g) o (s, u, h) = (t, u, gh).
    """
    objects, arrows, compose, inverse, weights = [], [], [], [], {}
    for c, (n, gname) in enumerate(components):
        table = group_table(gname)
        m = len(table)
        inv = [table[g].index(0) for g in range(m)]
        labels = [f"c{c}x{i}" for i in range(n)]
        objects.extend(labels)
        per_object = [rng.uniform(0.5, 2.0) for _ in range(n)]

        def aid(t, s, g, c=c):
            return f"c{c}:{t}.{s}.{g}"

        for t, s, g in itertools.product(range(n), range(n), range(m)):
            arrows.append({"id": aid(t, s, g), "src": labels[s], "tgt": labels[t]})
            inverse.append([aid(t, s, g), aid(s, t, inv[g])])
            weights[aid(t, s, g)] = per_object[s]
        for t, s, u in itertools.product(range(n), repeat=3):
            for g, h in itertools.product(range(m), repeat=2):
                compose.append([aid(t, s, g), aid(s, u, h), aid(t, u, table[g][h])])
    return {
        "objects": objects,
        "arrows": arrows,
        "compose": compose,
        "inverse": inverse,
        "haar": {"weights": weights},
        "nu": _nu(objects, rng),
    }


def document_text(doc: dict) -> str:
    return json.dumps(doc, separators=(",", ":"))
