"""Stock groupoids: pair groupoids, one-object groups, products, unions."""

from __future__ import annotations

import itertools

import numpy as np

from .groupoid import FiniteGroupoid


def pair_groupoid(labels) -> FiniteGroupoid:
    """The full pair groupoid on ``labels``: one arrow per ordered pair.

    Arrows are ordered target-major, so arrow t*n + s runs s -> t.
    """
    labels = [str(x) for x in labels]
    n = len(labels)
    tgt, src = np.indices((n, n)).reshape(2, -1)
    t1, s1, s2 = np.indices((n, n, n)).reshape(3, -1)
    compose_table = np.stack([t1 * n + s1, s1 * n + s2, t1 * n + s2], axis=1)
    unit_of = [x * n + x for x in range(n)]
    return FiniteGroupoid(labels, src, tgt, compose_table, src * n + tgt, unit_of)


def group_groupoid(elements, table) -> FiniteGroupoid:
    """A finite group as a one-object groupoid; ``table[i][j]`` indexes e_i e_j."""
    elements = [str(e) for e in elements]
    n = len(elements)
    table = np.asarray(table, dtype=np.intp).reshape(n, n)
    ids = np.arange(n)
    units = np.flatnonzero((table == ids).all(axis=1) & (table == ids[:, None]).all(axis=0))
    if not len(units):
        raise ValueError("multiplication table has no identity element")
    unit = int(units[0])
    inverts = (table == unit) & (table.T == unit)  # e_i e_j = e_j e_i = unit
    bad = np.flatnonzero(inverts.sum(axis=1) != 1)
    if len(bad):
        raise ValueError(f"element {elements[bad[0]]} has no unique inverse")
    compose_table = np.stack([*np.indices((n, n)).reshape(2, -1), table.ravel()], axis=1)
    return FiniteGroupoid(["*"], [0] * n, [0] * n, compose_table,
                          inverts.argmax(axis=1), [unit], arrow_ids=elements)


def cyclic_table(n: int) -> tuple[list[str], np.ndarray]:
    """Z_n: the elements g0..g(n-1) and the (n, n) int table, ``table[i][j]``
    the index of g(i + j mod n)."""
    elements = [f"g{k}" for k in range(n)]
    i = np.arange(n)
    return elements, (i[:, None] + i) % n


def klein_table() -> tuple[list[str], list[list[int]]]:
    elements = ["e", "a", "b", "ab"]
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return elements, table


def symmetric_table(n: int) -> tuple[list[str], list[list[int]]]:
    """The symmetric group on n letters; composition applies the right factor first."""
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    elements = ["".join(map(str, p)) for p in perms]
    table = [[index[tuple(p[q[k]] for k in range(n))] for q in perms] for p in perms]
    return elements, table


def product(G: FiniteGroupoid, H: FiniteGroupoid) -> FiniteGroupoid:
    """Direct product groupoid: everything componentwise.

    Object labels are "g|h", except that a one-object factor keeps the other
    factor's labels unchanged.
    """
    if H.n_objects == 1:
        labels = list(G.objects)
    elif G.n_objects == 1:
        labels = list(H.objects)
    else:
        labels = [f"{g}|{h}" for g in G.objects for h in H.objects]
    no_h, na_h = H.n_objects, H.n_arrows

    def obj(gx, hx):
        return gx * no_h + hx

    def arr(ga, ha):
        return ga * na_h + ha

    src = obj(G.src[:, None], H.src).ravel()
    tgt = obj(G.tgt[:, None], H.tgt).ravel()
    # every pair of rows, one from each table, composes componentwise
    compose_table = arr(G.compose_table[:, None, :],
                        H.compose_table[None, :, :]).reshape(-1, 3)
    inverse = arr(G.inverse[:, None], H.inverse).ravel()
    unit_of = [None if gu is None or hu is None else arr(gu, hu)
               for gu in G.unit_of for hu in H.unit_of]
    return FiniteGroupoid(labels, src, tgt, compose_table, inverse, unit_of)


def disjoint_union(*pieces: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union; clashing object labels get a piece-index prefix."""
    all_labels = [lab for P in pieces for lab in P.objects]
    clash = len(set(all_labels)) != len(all_labels)
    labels, src, tgt, inverse, unit_of = [], [], [], [], []
    tables = [np.empty((0, 3), dtype=np.intp)]
    obj_off = arr_off = 0
    for k, P in enumerate(pieces):
        labels.extend(f"{k}:{lab}" if clash else lab for lab in P.objects)
        src.extend((P.src + obj_off).tolist())
        tgt.extend((P.tgt + obj_off).tolist())
        inverse.extend((P.inverse + arr_off).tolist())
        unit_of.extend(None if u is None else u + arr_off for u in P.unit_of)
        tables.append(P.compose_table + arr_off)
        obj_off += P.n_objects
        arr_off += P.n_arrows
    return FiniteGroupoid(labels, src, tgt, np.concatenate(tables), inverse, unit_of)
