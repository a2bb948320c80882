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

The structure maps (source, target, inversion) are read-only int arrays.
Composition is stored once, as int (first, second, composite) rows in
(first, second) order; that order is also the lookup index.
Every enumeration follows the stored object/arrow order, so reports are
reproducible.  Instances are treated as immutable after construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

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


class Fibers(NamedTuple):
    """The indices 0..m-1 grouped by a key in 0..n-1, stably sorted by it in
    ``order``: the fiber of x, ``order[start[x]:start[x] + size[x]]``, ascends."""
    order: np.ndarray
    start: np.ndarray
    size: np.ndarray

    def of(self, x) -> np.ndarray:
        return self.order[self.start[x]:self.start[x] + self.size[x]]


def _fibers(key, n: int) -> Fibers:
    size = np.bincount(key, minlength=n)
    return Fibers(np.argsort(key, kind="stable"), np.cumsum(size) - size, size)


def _joined(left, right, src, tgt, n_objects: int):
    """Arrays (a, b) of all pairs with a from ``left``, b from ``right`` and
    src[a] == tgt[b]: a ordered by src(a), then as in ``left``; for each a,
    b as in ``right``."""
    into, start, size = _fibers(tgt[right], n_objects)
    firsts = left[np.argsort(src[left], kind="stable")]
    counts = size[src[firsts]]
    return np.repeat(firsts, counts), right[into[_ranges(start[src[firsts]], counts)]]


def _composable(src, tgt, n_objects: int):
    """Arrays (a, b) of all pairs with src[a] == tgt[b], in object-then-arrow order."""
    arrows = np.arange(len(src))
    return _joined(arrows, arrows, src, tgt, n_objects)


def _triples(fibers: Fibers, ends):
    """Batches (rows, z) over i and the members z of the fiber of ends[i]:
    each i repeated over that fiber in ``rows``, in i-then-fiber order,
    about ``_TRIPLE_BATCH`` pairs a batch."""
    order, start, size = fibers
    width = size[ends]
    step = max(1, _TRIPLE_BATCH // max(int(width.max(initial=0)), 1))
    for lo in range(0, len(ends), step):
        k = width[lo:lo + step]
        yield (np.repeat(np.arange(lo, lo + len(k)), k),
               order[_ranges(start[ends[lo:lo + step]], k)])


class FiniteGroupoid:
    """Explicit-table groupoid; construction checks shapes, not axioms.

    ``src``, ``tgt`` and ``inverse`` are read-only int arrays indexed by
    arrow, and ``target_fibers`` and ``source_fibers`` (:class:`Fibers`, of
    read-only arrays) group the arrows by target and by source.
    ``orbit_index`` (:class:`OrbitIndex`, of read-only arrays) holds the
    orbits and each arrow's factorization through its orbit's base, the one
    decomposition that every orbit-wise reader takes.
    The composable pairs and their composites, which :func:`validate`, the
    generator certificate and :func:`haar.check_left_invariance` all read,
    are looked up once, on first use, and kept as read-only arrays, as the
    certificate is kept.
    ``compose_table`` holds (first, second, composite) rows sorted by pair;
    when a pair repeats, the last row wins.  Rows given strictly ascending
    by pair, as :func:`build_from_relation` gives them, are kept in their
    order without a sort.  The constructor only
    verifies that indices are in range, so deliberately corrupted tables
    (off-domain, missing or wrong products) can be built and then diagnosed
    with :func:`validate`.
    ``unit_of`` entries may be ``None`` for objects whose unit is missing.
    """

    def __init__(self, objects, src, tgt, compose_table, inverse, unit_of,
                 arrow_ids=None):
        self.objects: list[str] = [str(o) for o in objects]
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("object labels must be distinct")
        self.src: np.ndarray = np.array(src, dtype=np.intp)
        self.tgt: np.ndarray = np.array(tgt, dtype=np.intp)
        if len(self.src) != len(self.tgt):
            raise ValueError("src and tgt lists differ in length")
        n_obj, n_arr = len(self.objects), len(self.src)
        ends = np.concatenate([self.src, self.tgt])
        bad = ends[(ends < 0) | (ends >= n_obj)]
        if len(bad):
            raise ValueError(f"object index {bad[0]} out of range")
        table = np.asarray(compose_table, dtype=np.intp).reshape(-1, 3)
        bad = np.flatnonzero(((table < 0) | (table >= n_arr)).any(axis=1))
        if len(bad):
            a, b, c = table[bad[0]].tolist()
            raise ValueError(f"compose entry ({a},{b})->{c} out of range")
        keys = table[:, 0] * n_arr + table[:, 1]
        if not (keys[1:] > keys[:-1]).all():
            # unique over the reversed rows keeps the last row of each pair; its keys index them
            keys, last = np.unique(keys[::-1], return_index=True)
            table = table[len(table) - 1 - last]
        # a copy stored column-major, so each column is one contiguous array
        self.compose_table: np.ndarray = np.array(table.T, order="C").T
        self.target_fibers = _fibers(self.tgt, n_obj)
        self.source_fibers = _fibers(self.src, n_obj)
        # in a complete table the row of (a, b) is the first row of a plus
        # the place of b in its target fiber (index A, where composites
        # clips a large index, starts at the first sentinel)
        into, first, size = self.target_fibers
        self._place = np.zeros(n_arr + 1, dtype=np.intp)
        self._place[into] = np.arange(n_arr) - np.repeat(first, size)
        self._start = np.append(keys.searchsorted(np.arange(n_arr) * n_arr), len(keys))
        # A + 1 sentinel keys above every real pair, answering -1, keep both
        # searchsorted and every row by position in range
        self._keys = np.append(keys, np.full(n_arr + 1, n_arr ** 2))
        self._values = np.append(self.compose_table[:, 2], np.full(n_arr + 1, -1))
        self.inverse: np.ndarray = np.array(inverse, dtype=np.intp)
        if len(self.inverse) != n_arr or ((self.inverse < 0) | (self.inverse >= n_arr)).any():
            raise ValueError("inverse table malformed")
        for v in (self.src, self.tgt, self.compose_table, self.inverse,
                  *self.target_fibers, *self.source_fibers):
            v.flags.writeable = False
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
        # (tgt, src) -> arrow; with parallel arrows the last one wins, and
        # the map has fewer entries than arrows
        self._by_endpoints = dict(zip(zip(self.tgt.tolist(), self.src.tolist()), range(n_arr)))
        self.orbit_index = _orbit_index(self)
        self._certificate: GeneratorCertificate | None = None
        self._pair_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._orbit_matrices = None  # orbits.orbit_matrices keeps its result here

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
        """All arrows into ``x`` (tgt == x), ascending."""
        self._check_object(x)
        return tuple(self.target_fibers.of(x).tolist())

    def source_fiber(self, y: int) -> tuple[int, ...]:
        """All arrows out of ``y`` (src == y), ascending."""
        self._check_object(y)
        return tuple(self.source_fibers.of(y).tolist())

    def compose(self, a: int, b: int) -> int:
        """Composite ``a o b`` (b first), the scalar form of :meth:`composites`;
        raises unless (a, b) composes."""
        n = self.n_arrows
        if not (0 <= a < n and 0 <= b < n):
            raise ValueError(f"arrows {a} and {b} do not compose: indices run over 0..{n - 1}")
        if self.src[a] == self.tgt[b] and (c := int(self.composites(a, b))) >= 0:
            return c
        raise ValueError(f"arrows {self.arrow_ids[a]} and {self.arrow_ids[b]} do not compose")

    def composites(self, a, b) -> np.ndarray:
        """The composition lookup, vectorized: the table's composite of each
        pair (a[i], b[i]), or -1 where it defines none (indices outside
        0..A-1 count as undefined).  Rows are read as written, so a
        corrupted table answers on pairs whose endpoints do not match.
        Each row is read by its position in a complete table and confirmed
        by its key; a binary search over the keys finds the rest."""
        a, b, n = np.asarray(a, dtype=np.intp), np.asarray(b, dtype=np.intp), self.n_arrows
        # a pair out of range (as unsigned, negatives too) asks for a sentinel
        inside = np.maximum(a.view(np.uintp), b.view(np.uintp)) < n
        query = np.where(inside, a * n + b, n * n)
        # the row by position; only the rows whose key differs (a corrupted
        # table, no such pair, or an index out of range, clipped) are searched
        row = self._start.take(a, mode="clip") + self._place.take(b, mode="clip")
        hit = self._keys[row] == query
        if not hit.all():
            row, miss = np.asarray(row), ~hit  # a 0-d row is a scalar until here
            missed = query[miss]
            pos = self._keys.searchsorted(missed)
            row[miss] = np.where(self._keys[pos] == missed, pos, len(self._keys) - 1)
        return np.asarray(self._values[row])

    def _pair_products(self):
        """Arrays (a, b, a o b) over all composable pairs, in
        :meth:`composable_pairs` order; a o b is -1 where undefined.
        Computed once and kept read-only, like :meth:`certificate`."""
        if self._pair_arrays is None:
            a, b = _composable(self.src, self.tgt, self.n_objects)
            self._pair_arrays = (a, b, self.composites(a, b))
            for v in self._pair_arrays:
                v.flags.writeable = False
        return self._pair_arrays

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
        return bool(self.src[a] == x and self.unit_of[x] == a)

    # -- relation view -----------------------------------------------------

    def is_relation_groupoid(self) -> bool:
        """True when every loop is a unit and endpoints identify arrows."""
        return (len(self._by_endpoints) == self.n_arrows
                and all(self.is_unit(a) for (t, s), a in self._by_endpoints.items() if t == s))

    def arrow_by_endpoints(self, tgt: int, src: int) -> int | None:
        """The unique arrow tgt<-src, for relation-derived groupoids."""
        if len(self._by_endpoints) < self.n_arrows:
            raise NotRelationGroupoid("groupoid has parallel arrows; endpoints are ambiguous")
        return self._by_endpoints.get((tgt, src))

    def relation_pairs(self) -> list[tuple[str, str]]:
        """Label pairs (tgt, src) of all arrows, i.e. the declared products."""
        if not self.is_relation_groupoid():
            raise NotRelationGroupoid("groupoid has isotropy beyond units")
        return [(self.objects[t], self.objects[s])
                for t, s in zip(self.tgt.tolist(), self.src.tolist())]

    # -- reachability ------------------------------------------------------

    def orbits(self) -> list[list[int]]:
        """Partition of the objects by arrow reachability: blocks in the
        order of their least object, each ascending."""
        blocks = self.orbit_index.members
        return [blocks.of(root).tolist() for root in np.flatnonzero(blocks.size).tolist()]

    def is_transitive(self) -> bool:
        """One orbit or none: every object's base is object 0."""
        return not self.orbit_index.label.any()

    def certificate(self) -> GeneratorCertificate:
        """The generating set of the arrows and what it proves, computed once."""
        if self._certificate is None:
            self._certificate = _certify(self)
        return self._certificate

    # -- convolution support -----------------------------------------------

    def convolution_plan(self):
        """Triples (out, left, right) with out = left o right: the table's
        composite, first and second columns, as three parallel int arrays.

        These are the terms of the table sum, :func:`haar.table_convolve`,
        the convolution's definition on any table, which adds each output's
        terms in ascending ``first``, target-fibre order.  On a groupoid that
        fails :func:`validate` the plan is as wrong as the table.
        :func:`haar.convolve` sums this way only the rows that
        :func:`orbits.orbit_matrices` leaves to the table (its ``rest``).
        """
        first, second, composite = self.compose_table.T
        return composite, first, second

    def __repr__(self) -> str:
        return f"FiniteGroupoid({self.n_objects} objects, {self.n_arrows} arrows)"


# ---------------------------------------------------------------------------
# orbits

class OrbitIndex(NamedTuple):
    """Each orbit factored once through its base, its least object.

    ``label[x]`` is the base of x's orbit, ``members`` groups the objects by
    it, ``tau[x]`` is the first arrow base -> x (A if none) and ``loops[x]``
    counts the loops at x if x is a base (0 otherwise).  An arrow a: y -> x
    is tau_x o g o tau_y^-1 for the loop g numbered ``g[a]`` among the loops
    at its base, in arrow order; ``g[a]`` is -1 where the table gives no
    such loop or a tau is missing.
    """
    label: np.ndarray
    members: Fibers
    tau: np.ndarray
    loops: np.ndarray
    g: np.ndarray


def _orbit_index(G: FiniteGroupoid) -> OrbitIndex:
    n, A = G.n_objects, G.n_arrows
    src, tgt, arrows = G.src, G.tgt, np.arange(A)
    label = components(n, tgt, src)
    leaves = src == label[src]
    tau = np.full(n, A)
    np.minimum.at(tau, tgt[leaves], arrows[leaves])
    loops = np.flatnonzero(leaves & (src == tgt))
    at = _fibers(src[loops], n)
    number = np.full(A + 1, -1, dtype=np.intp)  # the last slot answers an undefined -1
    number[loops[at.order]] = np.arange(len(loops)) - np.repeat(at.start, at.size)
    known = (tau[tgt] < A) & (tau[src] < A)
    into, out = np.where(known, tau[tgt], 0), np.where(known, tau[src], 0)
    g = np.where(known, number[G.composites(G.composites(G.inverse[into], arrows), out)], -1)
    index = OrbitIndex(label, _fibers(label, n), tau, at.size, g)
    for v in (label, *index.members, tau, at.size, g):
        v.flags.writeable = False
    return index


# ---------------------------------------------------------------------------
# construction from a relation

def build_from_relation(objects, pairs, closure_policy: str = "strict") -> FiniteGroupoid:
    """Groupoid of a relation: one arrow per declared ordered pair.

    The pair ``(x, y)`` declares the product ``x*y`` and becomes the arrow
    with target ``x`` and source ``y``.  ``strict`` rejects (NotClosed) any
    relation that is not reflexive-on-support, symmetric and transitive;
    ``complete`` closes the relation first.  Either way the groupoid lives
    on the objects touched by the pairs, in the order given by ``objects``.
    The arrows are the sorted keys tgt * n + src over that support.  The
    table comes out in (first, second) order, as the constructor stores it,
    with every composite and inverse found by one binary search over the
    keys, which is also the strict closure check; so the cost follows the
    pairs, not n^2.  Only a relation that fails the check is scanned again,
    in pair order, to name its first missing pair.
    """
    objects = [str(o) for o in objects]
    index = {lab: i for i, lab in enumerate(objects)}
    if len(index) != len(objects):
        raise ValueError("object labels must be distinct")
    # each label read once; -1 marks an unknown one, named in a second pass
    ends = np.array([(index.get(str(x), -1), index.get(str(y), -1)) for x, y in pairs],
                    dtype=np.intp).reshape(-1, 2)
    if (ends < 0).any():
        row = int(np.argmax((ends < 0).any(axis=1)))
        x, y = (str(p) for p in pairs[row])
        bad = x if ends[row, 0] < 0 else y
        raise UnknownLabel(f"pair ({x}, {y}) references unknown label {bad!r}")
    if closure_policy not in ("strict", "complete"):
        raise ValueError(f"unknown closure_policy {closure_policy!r}")

    # the support, renumbered in object order, and each pair (t, s) on it
    touched = np.zeros(len(objects), dtype=bool)
    touched[ends] = True
    support = [objects[i] for i in np.flatnonzero(touched).tolist()]
    n = len(support)
    t, s = (np.cumsum(touched) - 1)[ends].T
    if closure_policy == "strict":
        keys = np.sort(t * n + s)
        keys = keys[np.diff(keys, prepend=-1) != 0]
    else:
        # every pair in a class of the relation's graph, already in key order
        label = components(n, t, s)
        order, start, size = _fibers(label, n)
        width = size[label]
        keys = np.repeat(np.arange(n) * n, width) + order[_ranges(start[label], width)]

    # the composable pairs in (first, second) order: each arrow a, then the
    # arrows into src(a), one run of the keys; one search finds every
    # composite and inverse, and a strict relation must hold them all
    tgt, src = np.divmod(keys, max(n, 1))
    size = np.bincount(tgt, minlength=n)
    width = size[src]
    first = np.repeat(np.arange(len(keys)), width)
    second = _ranges((np.cumsum(size) - size)[src], width)
    probe = np.append(keys, n * n)  # a sentinel above every pair
    want = np.concatenate([tgt[first] * n + src[second], src * n + tgt])
    found = probe.searchsorted(want)
    if (probe[found] != want).any():
        _name_missing(support, t, s, probe)
    return FiniteGroupoid(support, src, tgt, np.stack([first, second, found[:len(first)]]).T,
                          found[len(first):], keys.searchsorted(np.arange(n) * (n + 1)))


def _name_missing(support: list[str], t, s, probe) -> None:
    """Raise NotClosed for the first pair that the relation (t, s) lacks:
    for each pair (x, y) in the given order, its composite with each (y, z),
    in that order, then each inverse (y, x), which composes with (x, y) to
    the unit (x, x)."""
    n = len(support)
    needed = ((t[rows], s[later], "composite") for rows, later in _triples(_fibers(t, n), s))
    for left, right, kind in itertools.chain(needed, [(s, t, "inverse")]):
        want = left * n + right
        if len(miss := np.flatnonzero(probe[probe.searchsorted(want)] != want)):
            x, z = support[left[miss[0]]], support[right[miss[0]]]
            raise NotClosed(f"missing {kind} pair ({x}, {z})", (x, z))


# ---------------------------------------------------------------------------
# generator certificate

@dataclass(frozen=True)
class GeneratorCertificate:
    """A generating set S of the arrows, and whether it proves the table
    associative.

    ``generators`` is S, ascending.  ``associative`` holds when the table
    defines every composable pair with the right endpoints, S reaches every
    arrow by right-nested words ``s1 o (s2 o (... o sk))``, and every orbit
    associates.  On an orbit that :func:`orbits.orbit_matrices` keeps, the
    table is (x, g, y) o (y, h, z) = (x, gh, z), so the orbit associates
    exactly when its base's loops do: Light's test ``(x s) y == x (s y)``
    runs on their |H| x |H| table, over the base's generators and the loops
    its star makes.  On every other orbit it runs on the whole table, for
    every s in S and composable x, y.  The elements that pass the test for
    every x, y are closed under the product (Clifford & Preston, *Algebraic
    Theory of Semigroups* I, §1.2), so then every composable triple
    associates.
    """

    generators: np.ndarray
    associative: bool


def _subgroup(table: np.ndarray, have: np.ndarray) -> np.ndarray:
    """Close the mask ``have`` under the local product table."""
    while True:
        members = np.flatnonzero(have)
        new = have.copy()
        new[table[np.ix_(members, members)]] = True
        if np.array_equal(new, have):
            return have
        have = new


def _cayley(G: FiniteGroupoid, loops: np.ndarray):
    """The position of every arrow among ``loops`` (-1 off them, and in a
    last slot that catches the -1 of an undefined product), and the h x h
    composites of the loops, row-major."""
    position = np.full(G.n_arrows + 1, -1, dtype=np.intp)
    position[loops] = np.arange(len(loops))
    h = len(loops)
    return position, G.composites(np.repeat(loops, h), np.tile(loops, h)).reshape(h, h)


def _isotropy_generators(table: np.ndarray, made: np.ndarray) -> list[int]:
    """Greedy generators of the group with the product ``table``, the loops
    at one base object by position: the first loop not yet generated, with
    its powers g^2, g^4, ..., so every element is a short word.  Generation
    starts from the loops marked in ``made``, which it overwrites."""
    have = _subgroup(table, made)
    gens: list[int] = []
    for g in range(len(table)):
        if have[g]:
            continue
        while not have[g]:
            gens.append(g)
            have[g] = True
            g = table[g, g]
        have = _subgroup(table, have)
    return gens


def _light(table: np.ndarray, gens) -> bool:
    """Light's test on a product table: (x s) y == x (s y) for every s in
    ``gens`` and all x, y."""
    return all(np.array_equal(table[table[:, s]], table[:, table[s]]) for s in gens)


def _light_on_the_table(G: FiniteGroupoid, gens: np.ndarray) -> bool:
    """Light's test on the whole table: (x o s) o y == x o (s o y) for s in
    ``gens`` and every composable x, y."""
    x, s = _joined(np.arange(G.n_arrows), gens, G.src, G.tgt, G.n_objects)
    xs = G.composites(x, s)
    return not any((G.composites(xs[rows], y)
                    != G.composites(x[rows], G.composites(s[rows], y))).any()
                   for rows, y in _triples(G.target_fibers, G.src[s]))


def _certify(G: FiniteGroupoid) -> GeneratorCertificate:
    from .orbits import orbit_matrices  # orbits imports this module

    src, tgt = G.src, G.tgt
    n, arrows = G.n_objects, np.arange(G.n_arrows)
    a, b, ab = G._pair_products()
    if (ab < 0).any() or (tgt[ab] != tgt[a]).any() or (src[ab] != src[b]).any():
        return GeneratorCertificate(np.zeros(0, dtype=np.intp), False)

    # the star of each orbit: tau_x off the base, and the first arrow
    # x -> base in the source fibre of x
    base, _, tau, count, _ = G.orbit_index
    out_of_base = np.where(base == np.arange(n), G.n_arrows, tau)
    into_base = np.full(n, G.n_arrows)
    leg = src != tgt
    to_base = leg & (tgt == base[tgt])
    np.minimum.at(into_base, src[to_base], arrows[to_base])
    star = np.concatenate([out_of_base, into_base])
    star = star[star < G.n_arrows]
    chosen = np.zeros(G.n_arrows, dtype=bool)
    chosen[star] = True
    # the loops at each base the star already makes, (x -> base) o (base -> x),
    # then greedy generators of what the base's group still lacks; each
    # base's loop table is kept with the loops that generate it
    both = (out_of_base < G.n_arrows) & (into_base < G.n_arrows)
    made = np.zeros(G.n_arrows, dtype=bool)
    made[G.composites(into_base[both], out_of_base[both])] = True
    loops = arrows[~leg & (src == base[src])]
    alone = loops[count[src[loops]] == 1]
    chosen[alone[~made[alone]]] = True
    tables = {}
    for x in np.flatnonzero(count > 1).tolist():
        at_x = loops[src[loops] == x]
        position, products = _cayley(G, at_x)
        table = position[products]
        gens = _isotropy_generators(table, made[at_x])
        chosen[at_x[gens]] = True
        tables[x] = table, [*np.flatnonzero(made[at_x]).tolist(), *gens]
    gens = np.flatnonzero(chosen)

    # right-nested closure: the words of length k + 1 are S o (those of
    # length k), less what is reached
    reached = chosen.copy()
    frontier = gens
    while True:
        s, f = _joined(gens, frontier, src, tgt, n)
        new = np.zeros(G.n_arrows, dtype=bool)
        new[G.composites(s, f)] = True
        new &= ~reached
        if not new.any():
            break
        reached |= new
        frontier = np.flatnonzero(new)
    if not reached.all():
        return GeneratorCertificate(gens, False)

    # Light's test on the loop table of each kept orbit (one loop alone
    # associates), on the whole table for the generators of the others
    kept = np.zeros(n, dtype=bool)
    for right in orbit_matrices(G).right:
        kept[tgt[right[:, 0, 0]]] = True  # [o, 0, 0] is a loop at the base of orbit o
    rest = gens[~kept[base[tgt[gens]]]]
    associative = (all(_light(*tables[x]) for x in tables if kept[x])
                   and (not len(rest) or _light_on_the_table(G, rest)))
    return GeneratorCertificate(gens, associative)


# ---------------------------------------------------------------------------
# axiom validation

def validate(G: FiniteGroupoid) -> Report:
    """Exhaustively check the groupoid axioms; violations become entries.

    Checks: composition defined exactly on endpoint-matching pairs with the
    right endpoints, associativity on all composable triples, unit laws, and
    inverse laws.  Each entry carries a minimal witness in arrow/object ids.
    Associativity is proved by the generator certificate when it applies
    (:meth:`FiniteGroupoid.certificate`); otherwise every triple is scanned.
    """
    rep = Report("groupoid-axioms")
    aid = G.arrow_ids
    src, tgt = G.src, G.tgt
    arrows = np.arange(G.n_arrows)

    a, b, c = G.compose_table.T
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

    # the certificate proves every composable triple associative; failing
    # that, scan every triple (x, y, z) with (x, y) defined and z into src(y)
    if not G.certificate().associative:
        defined = ab >= 0
        a, b, ab = a[defined], b[defined], ab[defined]
        for rows, z in _triples(G.target_fibers, src[b]):
            x, y, xy = a[rows], b[rows], ab[rows]
            xy_z = G.composites(xy, z)
            x_yz = G.composites(x, G.composites(y, z))
            for i in np.flatnonzero((xy_z >= 0) & (x_yz >= 0) & (xy_z != x_yz)).tolist():
                rep.add("associativity",
                        f"({aid[x[i]]} o {aid[y[i]]}) o {aid[z[i]]} = {aid[xy_z[i]]} "
                        f"!= {aid[x_yz[i]]} = {aid[x[i]]} o ({aid[y[i]]} o {aid[z[i]]})")

    # the unit and inverse laws as masks; only the flagged objects and
    # arrows are walked, in order, to word their entries
    unit = np.array([-1 if u is None else u for u in G.unit_of], dtype=np.intp)
    us, ut, inv = unit[src], unit[tgt], G.inverse
    a_us, ut_a, a_inv, inv_a = (G.composites(p, q) for p, q in
                                ((arrows, us), (ut, arrows), (arrows, inv), (inv, arrows)))
    # the object each unit loops at; -1 for a missing unit or one not a loop
    at = np.append(np.where(src == tgt, tgt, -1), -1)[unit]
    for x in np.flatnonzero(at != np.arange(G.n_objects)).tolist():
        u = G.unit_of[x]
        if u is None:
            rep.add("unit-missing", f"object {G.objects[x]} has no unit arrow")
        else:
            rep.add("unit-endpoints", f"unit of {G.objects[x]} is {aid[u]}, not a loop at it")
    right = (a_us >= 0) & (a_us != arrows)
    left = (ut_a >= 0) & (ut_a != arrows)
    for a in np.flatnonzero(right | left).tolist():
        if right[a]:
            rep.add("unit-law", f"{aid[a]} o unit({G.objects[src[a]]}) != {aid[a]}")
        if left[a]:
            rep.add("unit-law", f"unit({G.objects[tgt[a]]}) o {aid[a]} != {aid[a]}")

    swapped = (tgt[inv] == src) & (src[inv] == tgt)
    involution = inv[inv] != arrows
    right = (ut >= 0) & (a_inv >= 0) & (a_inv != ut)
    left = (us >= 0) & (inv_a >= 0) & (inv_a != us)
    for a in np.flatnonzero(~swapped | involution | right | left).tolist():
        i = inv[a]
        if not swapped[a]:
            rep.add("inverse-endpoints", f"inverse({aid[a]}) = {aid[i]} does not swap endpoints")
            continue
        if involution[a]:
            rep.add("inverse-involution", f"inverse(inverse({aid[a]})) = {aid[inv[i]]}")
        if right[a]:
            rep.add("inverse-law", f"{aid[a]} o {aid[i]} != unit({G.objects[tgt[a]]})")
        if left[a]:
            rep.add("inverse-law", f"{aid[i]} o {aid[a]} != unit({G.objects[src[a]]})")
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
    # one arrow per (tgt, src) pair, so a fiber reaches every object when it has n arrows
    left = tuple(np.flatnonzero(np.bincount(G.tgt, minlength=n) == n).tolist())
    right = tuple(np.flatnonzero(np.bincount(G.src, minlength=n) == n).tolist())
    ideal = tuple(sorted(set(left) & set(right)))

    cert = Report("multiplier-ideal-closure")
    keys = np.append(np.sort(G.tgt * n + G.src), n * n)  # a sentinel above every pair
    # each arrow a into or out of an ideal object meets each b out of tgt(a) in (tgt b,
    # src a), then each b into src(a) in (tgt a, src b); source fibers keyed src + n
    x = np.array(ideal, dtype=np.intp)
    owner, a = np.nonzero((G.tgt == x[:, None]) | (G.src == x[:, None]))
    both = _fibers(np.concatenate([G.src + n, G.tgt]), 2 * n)
    for rows, b in _triples(both, np.stack([G.tgt[a] + n, G.src[a]], axis=1).ravel()):
        into, b = np.divmod(b, G.n_arrows)
        first = a[rows // 2]
        want = G.tgt[np.where(into, first, b)] * n + G.src[np.where(into, b, first)]
        for i in np.flatnonzero(keys[keys.searchsorted(want)] != want).tolist():
            t, s = divmod(int(want[i]), n)
            cert.add("ideal-closure", f"pair ({G.objects[t]}, {G.objects[s]}) missing "
                     f"for ideal object {G.objects[x[owner[rows[i] // 2]]]}")
    return MultiplierSets(left, right, ideal, cert)


# ---------------------------------------------------------------------------
# isotropy

class IsotropyGroup:
    """The group of loops at one object, with an index-level Cayley table.

    ``position`` maps every arrow to its index among the loops, -1 off
    them, and has one more slot, -1, so that reading it at the -1 of an
    undefined product gives -1.
    """

    def __init__(self, G: FiniteGroupoid, x: int):
        G._check_object(x)
        self.groupoid = G
        self.object = x
        loops = G.target_fibers.of(x)
        loops = loops[G.src[loops] == x]
        self.arrows: tuple[int, ...] = tuple(loops.tolist())
        u = G.unit_of[x]
        if u is None or u not in self.arrows:
            raise ValueError(f"object {G.objects[x]} has no unit loop")
        self.unit_index = self.arrows.index(u)
        self.position, products = _cayley(G, loops)
        self.position.flags.writeable = False
        if (products < 0).any():  # compose raises on the first undefined product
            G.compose(*loops[np.argwhere(products < 0)[0]])
        table = self.position[products]
        inverse = self.position[G.inverse[loops]]
        aid, here = G.arrow_ids, G.objects[x]
        if (table < 0).any():
            i, j = np.argwhere(table < 0)[0]
            raise ValueError(f"{aid[loops[i]]} o {aid[loops[j]]} = {aid[products[i, j]]} "
                             f"is not a loop at {here}")
        if (inverse < 0).any():
            a = loops[np.flatnonzero(inverse < 0)[0]]
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
    loops = np.flatnonzero(G.tgt == G.src)
    new_index = np.full(G.n_arrows, -1, dtype=np.intp)
    new_index[loops] = np.arange(len(loops))
    table = new_index[np.stack(G.products(), axis=1)]
    table = table[(table[:, :2] >= 0).all(axis=1)]  # products of two loops
    ends = G.src[loops]
    inverse = new_index[G.inverse[loops]]
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
    image, omap = np.asarray(am, dtype=np.intp), np.asarray(om, dtype=np.intp)
    ends = (B.src[image] != omap[A.src]) | (B.tgt[image] != omap[A.tgt])
    inverse = B.inverse[image] != image[A.inverse]
    for a in np.flatnonzero(ends | inverse).tolist():
        if ends[a]:
            rep.add("endpoints", f"arrow {A.arrow_ids[a]} maps with wrong src/tgt")
        if inverse[a]:
            rep.add("inverse", f"arrow {A.arrow_ids[a]}: inverse not preserved")
    for x in range(A.n_objects):
        ua, ub = A.unit_of[x], B.unit_of[om[x]]
        if ua is not None and (ub is None or am[ua] != ub):
            rep.add("units", f"unit of {A.objects[x]} not sent to a unit")
    a, b, c = A.compose_table.T
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
    for t, s in zip(G.tgt.tolist(), G.src.tolist()):
        b = H.arrow_by_endpoints(obj_map[t], obj_map[s])
        if b is None:
            return None
        arrow_map.append(b)
    phi = GroupoidMorphism(tuple(obj_map), tuple(arrow_map))
    if not morphism_report(G, H, phi, require_injective=True).ok:
        return None
    return phi
