"""Finite groupoids as explicit composition tables.

A finite groupoid is a small category in which every arrow is invertible:
a list of objects, a list of arrows with source and target, a composition
defined exactly on endpoint-matching pairs, a unit arrow per object, and an
inversion.  Composition is function-like: ``compose(g, h)`` is defined when
``src(g) == tgt(h)`` and runs ``h`` first.

Relation-derived groupoids model a partially defined multiplication on a
set: the ordered pair ``(x, y)`` is an arrow with target ``x`` and source
``y`` exactly when the product ``x*y`` is declared.  Then composition is
``(x, y) o (y, z) = (x, z)``, inversion swaps the slots, and the unit at
``x`` is ``(x, x)``.  Such groupoids carry at most one arrow per ordered
pair of objects; general groupoids may have isotropy (parallel loops).

Composition is stored once, as int (first, second, composite) rows in
(composite, first) order; lookups use indexes derived from them.  Every
enumeration follows the stored object/arrow order, so reports are
reproducible.  Instances are treated as immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotClosed, NotRelationGroupoid, UnknownLabel, UnknownObject
from .report import Report

_TRIPLE_BATCH = 1 << 18  # composable triples per associativity batch in validate


def _auto_ids(n: int) -> list[str]:
    width = max(2, len(str(max(n - 1, 0))))
    return [f"a{i:0{width}d}" for i in range(n)]


def components(n: int, i, j) -> np.ndarray:
    """Label each vertex 0..n-1 with the smallest vertex of its connected
    component in the undirected graph with the edges (i[k], j[k]).

    The smallest label spreads one edge further, both ways, each round
    until nothing changes, so the rounds are one more than the longest
    distance from a vertex to the smallest of its component.
    """
    i = np.asarray(i, dtype=np.intp)
    j = np.asarray(j, dtype=np.intp)
    label = np.arange(n)
    while True:
        low = np.minimum(label[i], label[j])
        new = label.copy()
        np.minimum.at(new, i, low)
        np.minimum.at(new, j, low)
        if np.array_equal(new, label):
            return label
        label = new


def _ranges(starts, counts) -> np.ndarray:
    """Concatenation of ``arange(s, s + k)`` over the pairs (s, k)."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _fibers(tgt, n_objects: int):
    """Arrows sorted by target, with the start and size of each target fiber."""
    tgt = np.asarray(tgt, dtype=np.intp)
    size = np.bincount(tgt, minlength=n_objects)
    return np.argsort(tgt, kind="stable"), np.cumsum(size) - size, size


def _composable(src, tgt, n_objects: int):
    """Arrays (a, b) of all pairs with src[a] == tgt[b], in object-then-arrow order."""
    src = np.asarray(src, dtype=np.intp)
    into, start, size = _fibers(tgt, n_objects)
    firsts = np.argsort(src, kind="stable")
    counts = size[src[firsts]]
    return np.repeat(firsts, counts), into[_ranges(start[src[firsts]], counts)]


class FiniteGroupoid:
    """Explicit-table groupoid; construction checks shapes, not axioms.

    ``compose_table`` holds (first, second, composite) rows; when a pair
    repeats, the last row wins.  The constructor only verifies that indices
    are in range, so deliberately corrupted tables (off-domain, missing or
    wrong products) can be built and then diagnosed with :func:`validate`.
    ``unit_of`` entries may be ``None`` for objects whose unit is missing.
    """

    def __init__(self, objects, src, tgt, compose_table, inverse, unit_of,
                 arrow_ids=None):
        self.objects: list[str] = [str(o) for o in objects]
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object labels must be distinct")
        self.src: list[int] = [int(s) for s in src]
        self.tgt: list[int] = [int(t) for t in tgt]
        if len(self.src) != len(self.tgt):
            raise ValueError("src and tgt lists differ in length")
        n_obj, n_arr = len(self.objects), len(self.src)
        for v in self.src + self.tgt:
            if not 0 <= v < n_obj:
                raise ValueError(f"object index {v} out of range")
        table = np.asarray(compose_table, dtype=np.intp).reshape(-1, 3)
        bad = np.flatnonzero(((table < 0) | (table >= n_arr)).any(axis=1))
        if len(bad):
            a, b, c = table[bad[0]].tolist()
            raise ValueError(f"compose entry ({a},{b})->{c} out of range")
        _, last = np.unique(table[::-1, 0] * n_arr + table[::-1, 1], return_index=True)
        table = table[len(table) - 1 - last]
        table = table[np.lexsort((table[:, 1], table[:, 0], table[:, 2]))]
        # stored column-major, so each column is one contiguous array
        self.compose_table: np.ndarray = np.ascontiguousarray(table.T).T
        self.compose_table.flags.writeable = False
        self.inverse: list[int] = [int(i) for i in inverse]
        if len(self.inverse) != n_arr or any(not 0 <= i < n_arr for i in self.inverse):
            raise ValueError("inverse table malformed")
        self.unit_of: list[int | None] = [None if u is None else int(u) for u in unit_of]
        if len(self.unit_of) != n_obj:
            raise ValueError("unit table must have one entry per object")
        for u in self.unit_of:
            if u is not None and not 0 <= u < n_arr:
                raise ValueError(f"unit index {u} out of range")
        self.arrow_ids: list[str] = list(arrow_ids) if arrow_ids else _auto_ids(n_arr)
        if len(self.arrow_ids) != n_arr or len(set(self.arrow_ids)) != n_arr:
            raise ValueError("arrow ids must be unique, one per arrow")
        self._object_index = {lab: i for i, lab in enumerate(self.objects)}
        self._arrow_index = {aid: i for i, aid in enumerate(self.arrow_ids)}
        tf: list[list[int]] = [[] for _ in range(n_obj)]
        sf: list[list[int]] = [[] for _ in range(n_obj)]
        self._fiber_pos: list[int] = []  # position of each arrow in its target fiber
        for a in range(n_arr):
            self._fiber_pos.append(len(tf[self.tgt[a]]))
            tf[self.tgt[a]].append(a)
            sf[self.src[a]].append(a)
        self._target_fibers = [tuple(v) for v in tf]
        self._source_fibers = [tuple(v) for v in sf]
        self._by_endpoints: dict[tuple[int, int], int] | None = None
        self._pair_index: tuple[np.ndarray, np.ndarray] | None = None
        self._rows: list[list[int]] | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def n_objects(self) -> int:
        return len(self.objects)

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def object_index(self, label: str) -> int:
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownLabel(f"unknown object label {label!r}") from None

    def arrow_index(self, arrow_id: str) -> int:
        try:
            return self._arrow_index[arrow_id]
        except KeyError:
            raise UnknownLabel(f"unknown arrow id {arrow_id!r}") from None

    def _check_object(self, x: int) -> None:
        if not 0 <= x < self.n_objects:
            raise UnknownObject(f"object index {x} out of range")

    def target_fiber(self, x: int) -> tuple[int, ...]:
        """All arrows into ``x`` (tgt == x)."""
        self._check_object(x)
        return self._target_fibers[x]

    def source_fiber(self, y: int) -> tuple[int, ...]:
        """All arrows out of ``y`` (src == y)."""
        self._check_object(y)
        return self._source_fibers[y]

    def compose(self, a: int, b: int) -> int:
        """Composite ``a o b`` (b first); raises unless (a, b) composes."""
        if self._rows is None:
            # rows[x][i] is x o (i-th arrow into src x), or -1
            first, _, composite = self._pair_products()
            rows: list[list[int]] = [[] for _ in range(self.n_arrows)]
            for x, c in zip(first.tolist(), composite.tolist()):
                rows[x].append(c)
            self._rows = rows  # published whole: readers on other threads never see it partial
        if self.src[a] == self.tgt[b]:
            c = self._rows[a][self._fiber_pos[b]]
            if c >= 0:
                return c
        raise ValueError(
            f"arrows {self.arrow_ids[a]} and {self.arrow_ids[b]} do not compose")

    def composites(self, a, b) -> np.ndarray:
        """Vectorized lookup: the table's composite of each pair (a[i], b[i]),
        or -1 where it defines none (negative indices count as undefined)."""
        if self._pair_index is None:
            first, second, composite = self.compose_table.T
            order = np.lexsort((second, first))
            # a sentinel key above every real pair keeps searchsorted in range
            keys = np.append(first[order] * self.n_arrows + second[order], self.n_arrows ** 2)
            self._pair_index = (keys, np.append(composite[order], -1))
        keys, values = self._pair_index
        b = np.asarray(b, dtype=np.intp)
        query = np.asarray(a, dtype=np.intp) * self.n_arrows + b
        pos = np.searchsorted(keys, query)
        return np.where((b >= 0) & (keys[pos] == query), values[pos], -1)

    def _pair_products(self):
        """Arrays (a, b, a o b) over all composable pairs, in
        :meth:`composable_pairs` order; a o b is -1 where undefined."""
        a, b = _composable(self.src, self.tgt, self.n_objects)
        return a, b, self.composites(a, b)

    def products(self):
        """(first, second, composite) arrays of the products the table defines
        on composable pairs, in :meth:`composable_pairs` order."""
        a, b, c = self._pair_products()
        return a[c >= 0], b[c >= 0], c[c >= 0]

    def composable_pairs(self) -> list[tuple[int, int]]:
        """All (a, b) with src(a) == tgt(b), in object-then-arrow order."""
        a, b = _composable(self.src, self.tgt, self.n_objects)
        return list(zip(a.tolist(), b.tolist()))

    def is_unit(self, a: int) -> bool:
        x = self.tgt[a]
        return self.src[a] == x and self.unit_of[x] == a

    # -- relation view -----------------------------------------------------

    def is_relation_groupoid(self) -> bool:
        """True when every loop is a unit and endpoints identify arrows."""
        seen: set[tuple[int, int]] = set()
        for a in range(self.n_arrows):
            if self.tgt[a] == self.src[a] and not self.is_unit(a):
                return False
            key = (self.tgt[a], self.src[a])
            if key in seen:
                return False
            seen.add(key)
        return True

    def arrow_by_endpoints(self, tgt: int, src: int) -> int | None:
        """The unique arrow tgt<-src, for relation-derived groupoids."""
        if self._by_endpoints is None:
            table: dict[tuple[int, int], int] = {}
            for a in range(self.n_arrows):
                key = (self.tgt[a], self.src[a])
                if key in table:
                    raise NotRelationGroupoid(
                        "groupoid has parallel arrows; endpoints are ambiguous")
                table[key] = a
            self._by_endpoints = table
        return self._by_endpoints.get((tgt, src))

    def relation_pairs(self) -> list[tuple[str, str]]:
        """Label pairs (tgt, src) of all arrows, i.e. the declared products."""
        if not self.is_relation_groupoid():
            raise NotRelationGroupoid("groupoid has isotropy beyond units")
        return [(self.objects[self.tgt[a]], self.objects[self.src[a]])
                for a in range(self.n_arrows)]

    # -- reachability ------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        """Partition of the objects by arrow reachability: blocks in the
        order of their least object, each ascending."""
        blocks: dict[int, list[int]] = {}
        for x, root in enumerate(components(self.n_objects, self.tgt, self.src).tolist()):
            blocks.setdefault(root, []).append(x)
        return list(blocks.values())

    def is_transitive(self) -> bool:
        return len(self.orbits()) <= 1

    # -- convolution support -----------------------------------------------

    def convolution_plan(self):
        """Triples (out, left, right) with out = left o right: the table's
        composite, first and second columns, as three parallel int arrays.

        The table's (composite, first) order fixes the summation order of
        the convolution kernels.  On a groupoid that fails :func:`validate`
        the plan is as wrong as the table.
        """
        first, second, composite = self.compose_table.T
        return composite, first, second

    def __repr__(self) -> str:
        return f"FiniteGroupoid({self.n_objects} objects, {self.n_arrows} arrows)"


# ---------------------------------------------------------------------------
# construction from a relation

def _closure(support: list[str], pairs: list[tuple[str, str]]) -> list[tuple[str, str]]:
    """Reflexive-symmetric-transitive closure on the support: every pair of
    labels in one connected component of the relation's graph."""
    idx = {lab: i for i, lab in enumerate(support)}
    ends = np.array([(idx[x], idx[y]) for x, y in pairs], dtype=np.intp).reshape(-1, 2)
    label = components(len(support), ends[:, 0], ends[:, 1]).tolist()
    return [(x, y) for x, lx in zip(support, label) for y, ly in zip(support, label)
            if lx == ly]


def build_from_relation(objects, pairs, closure_policy: str = "strict") -> FiniteGroupoid:
    """Groupoid of a relation: one arrow per declared ordered pair.

    The pair ``(x, y)`` declares the product ``x*y`` and becomes the arrow
    with target ``x`` and source ``y``.  ``strict`` rejects (NotClosed) any
    relation that is not reflexive-on-support, symmetric and transitive;
    ``complete`` closes the relation first.  Either way the groupoid lives
    on the objects touched by the pairs, in the order given by ``objects``.
    """
    objects = [str(o) for o in objects]
    if len(set(objects)) != len(objects):
        raise ValueError("object labels must be distinct")
    known = set(objects)
    pairs = [(str(x), str(y)) for x, y in pairs]
    for x, y in pairs:
        if x not in known or y not in known:
            bad = x if x not in known else y
            raise UnknownLabel(f"pair ({x}, {y}) references unknown label {bad!r}")
    if closure_policy not in ("strict", "complete"):
        raise ValueError(f"unknown closure_policy {closure_policy!r}")

    touched = {lab for p in pairs for lab in p}
    support = [o for o in objects if o in touched]
    if closure_policy == "strict":
        # (x, y) and its inverse (y, x) compose to (x, x), so units need no check
        pair_set = set(pairs)
        successors: dict[str, list[str]] = {}
        for u, z in pairs:
            successors.setdefault(u, []).append(z)
        for x, y in pairs:
            for z in successors.get(y, ()):
                if (x, z) not in pair_set:
                    raise NotClosed(f"missing composite pair ({x}, {z})", (x, z))
        for x, y in pairs:
            if (y, x) not in pair_set:
                raise NotClosed(f"missing inverse pair ({y}, {x})", (y, x))
        closed = list(pair_set)
    else:
        closed = _closure(support, pairs)

    idx = {lab: i for i, lab in enumerate(support)}
    closed.sort(key=lambda p: (idx[p[0]], idx[p[1]]))
    n = len(support)
    tgt = np.array([idx[x] for x, _ in closed], dtype=np.intp)
    src = np.array([idx[y] for _, y in closed], dtype=np.intp)
    by_pair = np.full((n, n), -1, dtype=np.intp)
    by_pair[tgt, src] = np.arange(len(closed))
    first, second = _composable(src, tgt, n)
    table = np.stack([first, second, by_pair[tgt[first], src[second]]], axis=1)
    return FiniteGroupoid(support, src.tolist(), tgt.tolist(), table,
                          by_pair[src, tgt].tolist(), by_pair.diagonal().tolist())


# ---------------------------------------------------------------------------
# axiom validation

def validate(G: FiniteGroupoid) -> Report:
    """Exhaustively check the groupoid axioms; violations become entries.

    Checks: composition defined exactly on endpoint-matching pairs with the
    right endpoints, associativity on all composable triples, unit laws, and
    inverse laws.  Each entry carries a minimal witness in arrow/object ids.
    """
    rep = Report("groupoid-axioms")
    aid = G.arrow_ids
    src = np.asarray(G.src, dtype=np.intp)
    tgt = np.asarray(G.tgt, dtype=np.intp)
    arrows = np.arange(G.n_arrows)

    first, second, _ = G.compose_table.T
    a, b, c = G.compose_table[np.lexsort((second, first))].T
    off = src[a] != tgt[b]
    wrong = (tgt[c] != tgt[a]) | (src[c] != src[b])
    for i in np.flatnonzero(off | wrong).tolist():
        if off[i]:
            rep.add("compose-domain",
                    f"table defines {aid[a[i]]} o {aid[b[i]]} but src/tgt do not match")
        else:
            rep.add("compose-endpoints",
                    f"{aid[a[i]]} o {aid[b[i]]} = {aid[c[i]]} has wrong endpoints")
    a, b, ab = G._pair_products()
    for i in np.flatnonzero(ab < 0).tolist():
        rep.add("compose-missing", f"{aid[a[i]]} o {aid[b[i]]} undefined")

    # every triple (x, y, z) with (x, y) defined and z into src(y), in batches
    defined = ab >= 0
    a, b, ab = a[defined], b[defined], ab[defined]
    into, start, size = _fibers(tgt, G.n_objects)
    width = size[src[b]]
    step = max(1, _TRIPLE_BATCH // max(int(width.max(initial=0)), 1))
    for lo in range(0, len(a), step):
        k = width[lo:lo + step]
        x, y, xy = (np.repeat(v[lo:lo + step], k) for v in (a, b, ab))
        z = into[_ranges(start[src[b[lo:lo + step]]], k)]
        xy_z = G.composites(xy, z)
        x_yz = G.composites(x, G.composites(y, z))
        for i in np.flatnonzero((xy_z >= 0) & (x_yz >= 0) & (xy_z != x_yz)).tolist():
            rep.add("associativity",
                    f"({aid[x[i]]} o {aid[y[i]]}) o {aid[z[i]]} = {aid[xy_z[i]]} "
                    f"!= {aid[x_yz[i]]} = {aid[x[i]]} o ({aid[y[i]]} o {aid[z[i]]})")

    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            rep.add("unit-missing", f"object {G.objects[x]} has no unit arrow")
            continue
        if G.tgt[u] != x or G.src[u] != x:
            rep.add("unit-endpoints", f"unit of {G.objects[x]} is {aid[u]}, not a loop at it")
    unit = np.array([-1 if u is None else u for u in G.unit_of], dtype=np.intp)
    us, ut, inv = unit[src].tolist(), unit[tgt].tolist(), G.inverse
    a_us, ut_a, a_inv, inv_a = (G.composites(p, q).tolist() for p, q in
                                ((arrows, us), (ut, arrows), (arrows, inv), (inv, arrows)))
    for a in range(G.n_arrows):
        if a_us[a] not in (-1, a):
            rep.add("unit-law", f"{aid[a]} o unit({G.objects[G.src[a]]}) != {aid[a]}")
        if ut_a[a] not in (-1, a):
            rep.add("unit-law", f"unit({G.objects[G.tgt[a]]}) o {aid[a]} != {aid[a]}")

    for a in range(G.n_arrows):
        i = inv[a]
        if G.tgt[i] != G.src[a] or G.src[i] != G.tgt[a]:
            rep.add("inverse-endpoints", f"inverse({aid[a]}) = {aid[i]} does not swap endpoints")
            continue
        if inv[i] != a:
            rep.add("inverse-involution", f"inverse(inverse({aid[a]})) = {aid[inv[i]]}")
        if ut[a] >= 0 and a_inv[a] not in (-1, ut[a]):
            rep.add("inverse-law", f"{aid[a]} o {aid[i]} != unit({G.objects[G.tgt[a]]})")
        if us[a] >= 0 and inv_a[a] not in (-1, us[a]):
            rep.add("inverse-law", f"{aid[i]} o {aid[a]} != unit({G.objects[G.src[a]]})")
    return rep


# ---------------------------------------------------------------------------
# multipliers of a relation groupoid

@dataclass(frozen=True)
class MultiplierSets:
    """Left/right multiplier objects of a relation groupoid and their intersection."""

    left: tuple[int, ...]
    right: tuple[int, ...]
    ideal: tuple[int, ...]
    certificate: Report


def multipliers(G: FiniteGroupoid) -> MultiplierSets:
    """Objects that multiply everything on one side, plus the two-sided ideal.

    ``left`` is every object x with (x, u) declared for all u, i.e. whose
    target fiber reaches every object; ``right`` mirrors it on sources.  The
    certificate re-checks closure from scratch: composing any arrow incident
    to an ideal object with any endpoint-compatible arrow must land on a
    declared pair again.
    """
    if not G.is_relation_groupoid():
        raise NotRelationGroupoid("multipliers need a relation-derived groupoid")
    n = G.n_objects
    everything = set(range(n))
    left = tuple(x for x in range(n)
                 if {G.src[a] for a in G.target_fiber(x)} == everything)
    right = tuple(y for y in range(n)
                  if {G.tgt[a] for a in G.source_fiber(y)} == everything)
    ideal = tuple(sorted(set(left) & set(right)))

    cert = Report("multiplier-ideal-closure")
    declared = {(G.tgt[a], G.src[a]) for a in range(G.n_arrows)}
    for x in ideal:
        incident = sorted(set(G.target_fiber(x)) | set(G.source_fiber(x)))
        for a in incident:
            for b in G.source_fiber(G.tgt[a]):
                if (G.tgt[b], G.src[a]) not in declared:
                    cert.add("ideal-closure",
                             f"pair ({G.objects[G.tgt[b]]}, {G.objects[G.src[a]]}) "
                             f"missing for ideal object {G.objects[x]}")
            for b in G.target_fiber(G.src[a]):
                if (G.tgt[a], G.src[b]) not in declared:
                    cert.add("ideal-closure",
                             f"pair ({G.objects[G.tgt[a]]}, {G.objects[G.src[b]]}) "
                             f"missing for ideal object {G.objects[x]}")
    return MultiplierSets(left, right, ideal, cert)


# ---------------------------------------------------------------------------
# isotropy

class IsotropyGroup:
    """The group of loops at one object, with an index-level Cayley table."""

    def __init__(self, G: FiniteGroupoid, x: int):
        G._check_object(x)
        self.groupoid = G
        self.object = x
        self.arrows: tuple[int, ...] = tuple(
            a for a in G.target_fiber(x) if G.src[a] == x)
        index = {a: i for i, a in enumerate(self.arrows)}
        u = G.unit_of[x]
        if u is None or u not in index:
            raise ValueError(f"object {G.objects[x]} has no unit loop")
        self.unit_index = index[u]
        table = np.array([[index.get(G.compose(a, b), -1) for b in self.arrows]
                          for a in self.arrows], dtype=np.intp).reshape(-1, self.order)
        inverse = np.array([index.get(G.inverse[a], -1) for a in self.arrows], dtype=np.intp)
        aid, here = G.arrow_ids, G.objects[x]
        if (table < 0).any():
            a, b = (self.arrows[k] for k in np.argwhere(table < 0)[0])
            raise ValueError(f"{aid[a]} o {aid[b]} = {aid[G.compose(a, b)]} "
                             f"is not a loop at {here}")
        if (inverse < 0).any():
            a = self.arrows[np.flatnonzero(inverse < 0)[0]]
            raise ValueError(f"inverse({aid[a]}) = {aid[G.inverse[a]]} is not a loop at {here}")
        self.table = table.tolist()
        self.inverse_table = inverse.tolist()
        # left_div[i, g] = mult(inv(i), g), the g1-th row of the group algebra product
        self.left_div = table[inverse]
        self.left_div.flags.writeable = False

    @property
    def order(self) -> int:
        return len(self.arrows)

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inv(self, i: int) -> int:
        return self.inverse_table[i]


def isotropy(G: FiniteGroupoid, x: int) -> IsotropyGroup:
    """The isotropy group at object ``x``: arrows x -> x under composition."""
    return IsotropyGroup(G, x)


def isotropy_bundle(G: FiniteGroupoid) -> FiniteGroupoid:
    """The disjoint union of all isotropy groups, as a groupoid on the same objects."""
    loops = [a for a in range(G.n_arrows) if G.tgt[a] == G.src[a]]
    new_index = np.full(G.n_arrows, -1, dtype=np.intp)
    new_index[loops] = np.arange(len(loops))
    table = new_index[np.stack(G.products(), axis=1)]
    table = table[(table[:, :2] >= 0).all(axis=1)]  # products of two loops
    ends = [G.src[a] for a in loops]
    inverse = new_index[[G.inverse[a] for a in loops]].tolist()
    unit_of = [None if u is None or new_index[u] < 0 else int(new_index[u])
               for u in G.unit_of]
    return FiniteGroupoid(G.objects, ends, ends, table, inverse, unit_of)


# ---------------------------------------------------------------------------
# structure-preserving maps

@dataclass(frozen=True)
class GroupoidMorphism:
    """Object and arrow maps from one groupoid into another."""

    object_map: tuple[int, ...]
    arrow_map: tuple[int, ...]


def morphism_report(A: FiniteGroupoid, B: FiniteGroupoid, phi: GroupoidMorphism,
                    require_injective: bool = False, title: str = "morphism") -> Report:
    """Check that ``phi`` preserves src, tgt, units, composition and inverses."""
    rep = Report(title)
    om, am = phi.object_map, phi.arrow_map
    if len(om) != A.n_objects or len(am) != A.n_arrows:
        rep.add("shape", "object/arrow map lengths do not match the domain groupoid")
        return rep
    if any(not 0 <= x < B.n_objects for x in om) or \
       any(not 0 <= a < B.n_arrows for a in am):
        rep.add("shape", "map hits an index outside the codomain groupoid")
        return rep
    if require_injective:
        if len(set(om)) != len(om):
            rep.add("injectivity", "object map identifies two objects")
        if len(set(am)) != len(am):
            rep.add("injectivity", "arrow map identifies two arrows")
    for a in range(A.n_arrows):
        if B.src[am[a]] != om[A.src[a]] or B.tgt[am[a]] != om[A.tgt[a]]:
            rep.add("endpoints", f"arrow {A.arrow_ids[a]} maps with wrong src/tgt")
        if B.inverse[am[a]] != am[A.inverse[a]]:
            rep.add("inverse", f"arrow {A.arrow_ids[a]}: inverse not preserved")
    for x in range(A.n_objects):
        ua, ub = A.unit_of[x], B.unit_of[om[x]]
        if ua is not None and (ub is None or am[ua] != ub):
            rep.add("units", f"unit of {A.objects[x]} not sent to a unit")
    first, second, _ = A.compose_table.T
    a, b, c = A.compose_table[np.lexsort((second, first))].T
    image = np.asarray(am, dtype=np.intp)
    for i in np.flatnonzero(B.composites(image[a], image[b]) != image[c]).tolist():
        rep.add("composition",
                f"{A.arrow_ids[a[i]]} o {A.arrow_ids[b[i]]}: image composite disagrees")
    return rep


def relation_isomorphism(G: FiniteGroupoid, H: FiniteGroupoid) -> GroupoidMorphism | None:
    """Explicit isomorphism between two relation groupoids, if one exists.

    Orbits of a relation groupoid are complete blocks, so the groupoids are
    isomorphic exactly when their orbit-size multisets agree; the returned
    map pairs blocks by (size, smallest label) and objects label-sorted
    within each block.  Returns None when the size multisets differ.
    """
    if not (G.is_relation_groupoid() and H.is_relation_groupoid()):
        raise NotRelationGroupoid("relation_isomorphism needs relation groupoids")

    def keyed_blocks(K: FiniteGroupoid):
        blocks = K.orbits()
        return sorted(blocks, key=lambda b: (len(b), min(K.objects[x] for x in b)))

    bg, bh = keyed_blocks(G), keyed_blocks(H)
    if [len(b) for b in bg] != [len(b) for b in bh]:
        return None
    if G.n_arrows != H.n_arrows:
        return None
    obj_map = [0] * G.n_objects
    for blk_g, blk_h in zip(bg, bh):
        gs = sorted(blk_g, key=lambda x: G.objects[x])
        hs = sorted(blk_h, key=lambda x: H.objects[x])
        for x, y in zip(gs, hs):
            obj_map[x] = y
    arrow_map = []
    for a in range(G.n_arrows):
        b = H.arrow_by_endpoints(obj_map[G.tgt[a]], obj_map[G.src[a]])
        if b is None:
            return None
        arrow_map.append(b)
    phi = GroupoidMorphism(tuple(obj_map), tuple(arrow_map))
    if not morphism_report(G, H, phi, require_injective=True).ok:
        return None
    return phi
