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


def _check_index(i, count: int, what: str) -> None:
    if not 0 <= i < count:
        raise ValueError(f"{what} index {i} out of range: indices run over 0..{count - 1}")


def _check_indices(G: FiniteGroupoid, sigma: Bisection) -> None:
    """ValueError when ``sigma`` has not one arrow per object of its
    domain, naming both lengths, or naming the first object or arrow index
    outside G, which numpy would read from the end or not at all."""
    if len(sigma.domain) != len(sigma.arrows):
        raise ValueError(f"a bisection needs one arrow per object: {len(sigma.domain)} "
                         f"objects, {len(sigma.arrows)} arrows")
    for x, a in zip(sigma.domain, sigma.arrows):
        _check_index(x, G.n_objects, "object")
        _check_index(a, G.n_arrows, "arrow")


def make_bisection(G: FiniteGroupoid, pick: dict[int, int]) -> Bisection:
    """The bisection picking ``pick[x]`` at each object x of its keys;
    ValueError for an object or arrow index out of range, an arrow not
    sourced at its object, or targets that repeat."""
    domain = tuple(sorted(pick))
    arrows = tuple(pick[x] for x in domain)
    _check_indices(G, Bisection(domain, arrows))
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
    """The injection x -> tgt(sigma(x)); a permutation for full bisections.
    ValueError for an object or arrow index out of range, or domain and
    arrows of different lengths."""
    _check_indices(G, sigma)
    return dict(zip(sigma.domain, G.tgt[list(sigma.arrows)].tolist()))


def _bisection_rows(G: FiniteGroupoid, objects) -> np.ndarray:
    """The full bisections on ``objects`` (a union of orbits) as rows,
    ``R[i, j] = sigma_i(objects[j])``, in backtracking order: object by
    object, every partial row is extended by each arrow of the object's
    source fiber, ascending, whose target no earlier column holds."""
    rows = np.zeros((1, 0), dtype=np.intp)
    used = np.zeros((1, G.n_objects), dtype=bool)  # the targets each row holds
    for x in objects:
        fiber = G.source_fibers.of(x)
        t = G.tgt[fiber]
        i, j = np.nonzero(~used[:, t])  # by row, then by arrow
        rows = np.column_stack([rows[i], fiber[j]])
        used = used[i]
        used[np.arange(len(i)), t[j]] = True
    return rows


def orbit_bisections(G: FiniteGroupoid) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each orbit's objects, ascending, and its full bisections as rows
    over them, orbits in the order of their least object.  Arrows never
    leave their orbit, so the full bisections of G are the Cartesian
    product of these (Mackenzie, *General Theory of Lie Groupoids and Lie
    Algebroids*, §1.4)."""
    members = G.orbit_index.members
    return [(objs, _bisection_rows(G, objs))
            for objs in map(members.of, np.flatnonzero(members.size).tolist())]


def enumerate_bisections(G: FiniteGroupoid) -> list[Bisection]:
    """All full bisections, in backtracking order over objects and arrows."""
    domain = tuple(range(G.n_objects))
    return [Bisection(domain, tuple(row)) for row in _bisection_rows(G, domain).tolist()]


def bisection_compose(G: FiniteGroupoid, sigma: Bisection, tau: Bisection) -> Bisection:
    """Star product: (sigma * tau)(x) = sigma(tgt(tau(x))) o tau(x).

    Needs the target image of ``tau`` inside the domain of ``sigma``; the
    result lives on the domain of ``tau``, and its target map is the
    composite of the two target maps.  ValueError for an object or arrow
    index out of range in either, or domain and arrows of different lengths.
    """
    _check_indices(G, sigma)
    _check_indices(G, tau)
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


def factors_form_group(G: FiniteGroupoid, factors) -> bool:
    """True when the product of ``factors`` forms a group under the star
    product and taking targets is a homomorphism into object permutations.

    A factor is a pair (objects, rows): the rows ``S[i, j]`` pick an arrow
    at each ``objects[j]``, and the objects hold the targets of their
    arrows, as an orbit or a union of orbits does.  Column x of a star
    product reads only the columns of its factors on the orbit of x, so the
    product is a group with the target homomorphism exactly when every
    factor is one: each law holds componentwise, at sum k_c^2 n_c products
    in place of k^2 n.

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
    local = np.empty(G.n_objects, dtype=np.intp)  # each object's column in its factor
    stars = []
    for objs, rows in factors:
        local[objs] = np.arange(len(objs))
        star = _star_table(G, rows, local[G.tgt[rows]])
        if star is None:
            return False
        stars.append((objs, *star))
    unit = arrow_array(G, [unit_bisection(G)])[0]
    return all(hom and _is_group(table, int(index_of(unit[None, objs])[0]),
                                 max(_BLOCK // max(len(table) * len(objs), 1), 1))
               for objs, table, hom, index_of in stars)


def forms_group(G: FiniteGroupoid, sigmas: list[Bisection]) -> bool:
    """True when the full bisections ``sigmas`` form a group under the star
    product and taking targets is a homomorphism into object permutations:
    :func:`factors_form_group` on the k x n array ``S[i, x] = sigma_i(x)``
    as one factor."""
    n = G.n_objects
    if n == 0:  # the empty bisection is the only one
        return len(sigmas) == 1
    return factors_form_group(G, [(np.arange(n), arrow_array(G, sigmas))])


def bisection_inverse(G: FiniteGroupoid, sigma: Bisection) -> Bisection:
    """Inverse bisection on the target image: sends tgt(sigma(x)) to sigma(x)^-1.
    ValueError for an object or arrow index out of range, or domain and
    arrows of different lengths."""
    _check_indices(G, sigma)
    arrows = list(sigma.arrows)
    return make_bisection(G, dict(zip(G.tgt[arrows].tolist(), G.inverse[arrows].tolist())))


def left_translate(G: FiniteGroupoid, sigma: Bisection, arrow: int) -> int:
    """L_sigma(arrow) = sigma(tgt(arrow)) o arrow; preserves the source.
    ValueError for an object or arrow index out of range, or a ``sigma``
    whose domain and arrows differ in length."""
    _check_index(arrow, G.n_arrows, "arrow")
    _check_indices(G, sigma)
    spick = sigma.pick()
    t = G.tgt[arrow]
    if t not in spick:
        raise DomainMismatch(
            f"target {G.objects[t]} of {G.arrow_ids[arrow]} is outside the domain")
    return G.compose(spick[t], arrow)
