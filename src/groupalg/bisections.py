"""Bisections: one arrow per object, sourced there, with injective targets.

A full bisection picks an arrow out of every object so that the targets form
a permutation of the objects.  Full bisections form a group under the star
product, and taking targets is a homomorphism into object permutations; a
bisection also acts on arrows by left translation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainMismatch
from .groupoid import FiniteGroupoid, _subgroup

# entries in one block of the star table's products and Light's test
_BLOCK = 1 << 18


@dataclass(frozen=True)
class Bisection:
    """``arrows[i]`` is the picked arrow sourced at ``domain[i]``."""

    domain: tuple[int, ...]
    arrows: tuple[int, ...]

    def pick(self) -> dict[int, int]:
        return dict(zip(self.domain, self.arrows))


def make_bisection(G: FiniteGroupoid, pick: dict[int, int]) -> Bisection:
    domain = tuple(sorted(pick))
    arrows = tuple(pick[x] for x in domain)
    for x, a in zip(domain, arrows):
        if G.src[a] != x:
            raise ValueError(f"arrow {G.arrow_ids[a]} is not sourced at {G.objects[x]}")
    if len(set(G.tgt[list(arrows)].tolist())) != len(arrows):
        raise ValueError("targets of a bisection must be injective")
    return Bisection(domain, arrows)


def unit_bisection(G: FiniteGroupoid) -> Bisection:
    pick = {}
    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            raise ValueError(f"object {G.objects[x]} has no unit arrow")
        pick[x] = u
    return make_bisection(G, pick)


def target_map(G: FiniteGroupoid, sigma: Bisection) -> dict[int, int]:
    """The injection x -> tgt(sigma(x)); a permutation for full bisections."""
    return dict(zip(sigma.domain, G.tgt[list(sigma.arrows)].tolist()))


def enumerate_bisections(G: FiniteGroupoid) -> list[Bisection]:
    """All full bisections, by backtracking in object/arrow order."""
    n, tgt = G.n_objects, G.tgt.tolist()
    fibers = [G.source_fibers.of(x).tolist() for x in range(n)]
    out: list[Bisection] = []
    chosen: list[int] = []
    used: set[int] = set()

    def extend(x: int) -> None:
        if x == n:
            out.append(Bisection(tuple(range(n)), tuple(chosen)))
            return
        for a in fibers[x]:
            t = tgt[a]
            if t in used:
                continue
            used.add(t)
            chosen.append(a)
            extend(x + 1)
            chosen.pop()
            used.remove(t)

    extend(0)
    return out


def bisection_compose(G: FiniteGroupoid, sigma: Bisection, tau: Bisection) -> Bisection:
    """Star product: (sigma * tau)(x) = sigma(tgt(tau(x))) o tau(x).

    Needs the target image of ``tau`` inside the domain of ``sigma``; the
    result lives on the domain of ``tau``, and its target map is the
    composite of the two target maps.
    """
    tau_arrows = np.array(tau.arrows, dtype=np.intp)
    t = G.tgt[tau_arrows]
    pick = np.full(G.n_objects, -1, dtype=np.intp)  # sigma by object, -1 off its domain
    pick[np.array(sigma.domain, dtype=np.intp)] = sigma.arrows
    first = pick[t]
    arrows = G.composites(first, tau_arrows)
    bad = (first < 0) | (arrows < 0) | (G.src[first] != t)
    if bad.any():  # the first failing object of tau's domain raises
        x = int(np.argmax(bad))
        if first[x] < 0:
            raise DomainMismatch(
                f"target {G.objects[t[x]]} of tau is outside the domain of sigma")
        G.compose(int(first[x]), int(tau_arrows[x]))  # raises: the product is undefined
    return Bisection(tau.domain, tuple(arrows.tolist()))


def arrow_array(G: FiniteGroupoid, sigmas: list[Bisection]) -> np.ndarray:
    """The full bisections as one k x n int array, ``S[i, x] = sigma_i(x)``."""
    return np.array([s.arrows for s in sigmas], dtype=np.intp).reshape(len(sigmas), G.n_objects)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d int array as one big-endian bytes key, equal to
    another row's key exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _distinct_rows(rows: np.ndarray):
    """The distinct rows of a 2-d int array, in key order, and the index of
    each row among them."""
    keys = _row_keys(rows)
    order = np.argsort(keys, kind="stable")
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return rows[order[new]], inverse


def _orbit_factors(G: FiniteGroupoid, S: np.ndarray):
    """The factors of ``S`` as a product over orbits, as pairs (objects,
    distinct rows of ``S`` on them), or None unless there are two or more
    and ``S`` is exactly their Cartesian product, with every entry sourced
    at its column.  Orbits with one row are joined into one factor."""
    k, n = S.shape
    members = G.orbit_index.members
    roots = np.flatnonzero(members.size)
    if len(roots) < 2 or k == 0 or S.min() < 0 or not (G.src[S] == np.arange(n)).all():
        return None
    factors, fixed, code, size = [], [], np.zeros(k, dtype=np.intp), 1
    for r in roots.tolist():
        objs = members.of(r)
        rows, inverse = _distinct_rows(S[:, objs])
        if len(rows) == 1:
            fixed.append(objs)
            continue
        size *= len(rows)
        if size > k:
            return None
        code = code * len(rows) + inverse  # below size: one code per point of the product
        factors.append((objs, rows))
    if size != k or np.bincount(code, minlength=k).max() > 1:
        return None
    if fixed:
        objs = np.concatenate(fixed)
        factors.append((objs, S[:1, objs]))
    return factors


def _star_table(G: FiniteGroupoid, S: np.ndarray, T: np.ndarray):
    """The k x k star table of the rows of ``S``, ``T`` their targets as
    column indices of ``S``: entry [i, j] is the index of the row
    ``S[i, T[j, x]] o S[j, x]``, among the sorted row keys of ``S``.  None
    when a product is not a row (a missing composite reads -1); else the
    table, whether targets follow it (``T[table] == T o T``) and the row
    lookup, which answers -1 for a row outside ``S``."""
    k, n = S.shape
    keys = _row_keys(S)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # one spare slot past the end answers "not found" for every key
    padded, at = np.append(ordered, np.zeros(1, keys.dtype)), np.append(order, -1)

    def index_of(rows):
        query = _row_keys(rows)
        pos = np.searchsorted(ordered, query)
        return np.where(padded[pos] == query, at[pos], -1)

    step = max(_BLOCK // max(k * n, 1), 1)
    table = np.empty((k, k), dtype=np.intp)
    hom = True
    for lo in range(0, k, step):
        rows = slice(lo, lo + step)
        products = G.composites(S[rows][:, T], S)  # [i, j, x] = (sigma_i * sigma_j)(x), or -1
        block = index_of(products.reshape(-1, n)).reshape(-1, k)
        if (block < 0).any():
            return None
        table[rows] = block
        hom = hom and np.array_equal(T[block], T[rows][:, T])  # T_ij(x) = T_i(T_j(x))
    return table, hom, index_of


def _is_group(table: np.ndarray, e: int, step: int) -> bool:
    """Whether the star table is a group with unit e (-1: no unit row):
    the unit law, two-sided inverses, and Light's test over greedy
    generators, ``step`` rows of the table at a time."""
    k = len(table)
    every = np.arange(k)
    if e < 0 or not (np.array_equal(table[e], every) and np.array_equal(table[:, e], every)):
        return False
    if not ((table == e) & (table.T == e)).any(axis=1).all():
        return False
    # Light's test, generator by generator: the unit passes by the unit law
    have = np.zeros(k, dtype=bool)
    have[e] = True
    while not have.all():
        s = int(np.argmin(have))
        for lo in range(0, k, step):
            rows = slice(lo, lo + step)
            if not np.array_equal(table[table[rows, s]], table[rows][:, table[s]]):
                return False
        have[s] = True
        have = _subgroup(table, have)
    return True


def forms_group(G: FiniteGroupoid, sigmas: list[Bisection]) -> bool:
    """True when the full bisections ``sigmas`` form a group under the star
    product and taking targets is a homomorphism into object permutations.

    The bisections are the k x n array ``S[i, x] = sigma_i(x)``.  Column x
    of a star product reads only the columns of its factors on the orbit of
    x, so when ``S`` is the Cartesian product of its distinct rows S_c on
    each orbit c (its rows distinct, k = prod |S_c|, every entry sourced at
    its column), ``S`` is a group with the target homomorphism exactly when
    every S_c is one: each law holds componentwise.  Then each factor is
    checked on its own columns, sum k_c^2 n_c products in place of k^2 n;
    otherwise, with one orbit or a set that is not such a product, the
    whole set is the one factor.

    Per factor, the star products ``S[i, tgt(S[j, x])] o S[j, x]`` come from
    one composite lookup per block of rows i, about ``_BLOCK`` entries each,
    and each product row is found among the sorted row keys of the factor;
    a product with a missing composite (-1), or a product outside it, makes
    the answer False.  Only when every product of every factor is found is
    the groupoid's unit bisection built (which raises ValueError for an
    object without a unit) and looked up in each factor.  The unit, the
    inverses and the homomorphism into the target maps are table
    comparisons.  Associativity is Light's test over greedy generators (see
    :class:`~groupalg.groupoid.GeneratorCertificate`): the s with
    ``(x s) y == x (s y)`` for all x, y are closed under the product, so
    when they generate the table every one of the k^3 triples associates.
    A group on g generators costs O(g k^2), never more than k^3.
    """
    k, n = len(sigmas), G.n_objects
    if n == 0:  # the empty bisection is the only one
        return k == 1
    S = arrow_array(G, sigmas)
    local = np.empty(n, dtype=np.intp)  # each object's column in its factor
    stars = []
    for objs, rows in _orbit_factors(G, S) or [(np.arange(n), S)]:
        local[objs] = np.arange(len(objs))
        star = _star_table(G, rows, local[G.tgt[rows]])
        if star is None:
            return False
        stars.append((objs, *star))
    unit = arrow_array(G, [unit_bisection(G)])[0]
    return all(hom and _is_group(table, int(index_of(unit[None, objs])[0]),
                                 max(_BLOCK // max(len(table) * len(objs), 1), 1))
               for objs, table, hom, index_of in stars)


def bisection_inverse(G: FiniteGroupoid, sigma: Bisection) -> Bisection:
    """Inverse bisection on the target image: sends tgt(sigma(x)) to sigma(x)^-1."""
    arrows = list(sigma.arrows)
    return make_bisection(G, dict(zip(G.tgt[arrows].tolist(), G.inverse[arrows].tolist())))


def left_translate(G: FiniteGroupoid, sigma: Bisection, arrow: int) -> int:
    """L_sigma(arrow) = sigma(tgt(arrow)) o arrow; preserves the source."""
    spick = sigma.pick()
    t = G.tgt[arrow]
    if t not in spick:
        raise DomainMismatch(
            f"target {G.objects[t]} of {G.arrow_ids[arrow]} is outside the domain")
    return G.compose(spick[t], arrow)
