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
from .groupoid import FiniteGroupoid, components


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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-d int array as one big-endian bytes key, equal to
    another row's key exactly when the rows are equal."""
    rows = np.ascontiguousarray(rows, dtype=">i8")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()


def _group_by_closure(G: FiniteGroupoid, objs: np.ndarray, S: np.ndarray, T: np.ndarray,
                      unit: np.ndarray) -> bool:
    """Whether the rows of ``S`` over ``objs``, ``T`` their targets as
    column indices and ``unit`` the unit bisection's row, form a group under
    the star product with targets a homomorphism, on a table that the
    certificate proves associative (:meth:`FiniteGroupoid.certificate`),
    which also puts every composite's endpoints right.

    The checks: every row picks arrows sourced at its objects; the unit row
    e is a row, with e * sigma = sigma = sigma * e for every row sigma;
    then, while some row lies outside e's component, the first such row s
    is a generator, and sigma_i * s must be a row for every i, each row
    once: right multiplication by s permutes the rows.  The rows are
    labelled by the components of the edges (i, index of sigma_i * s) so far.

    Why that proves the laws: on rows sourced at their objects every star
    product composes composable arrows, so it associates, and each
    composite has the target of its first arrow, which is
    T(sigma * tau) = T(sigma) o T(tau).  The generators reach every row
    from e by right multiplications, so each row is a word w in them, and
    sigma * w = sigma * e * w stays among the rows, one generator at a
    time: the rows are closed.  A generator's permutation has a finite
    order p, so s^p = e and s^(p-1) is its inverse, and every row, a word
    in generators, is invertible.  A repeated row is never hit twice by a
    permutation, so repeated rows fail as a product outside the set does.
    Each generator lies outside the subgroup generated so far, so it at
    least doubles it: at most log2(k) + 1 generators, k products each.
    """
    k = len(S)
    if (G.src[S] != objs).any():
        return False
    keys = _row_keys(S)
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    # one spare slot past the end answers -1, "not a row", for every key
    padded, at = np.append(ordered, np.zeros(1, keys.dtype)), np.append(order, -1)

    def index_of(rows):
        query = _row_keys(rows)
        pos = np.searchsorted(ordered, query)
        return np.where(padded[pos] == query, at[pos], -1)

    e = int(index_of(unit[None])[0])
    if e < 0:
        return False
    # e * sigma_i, then sigma_i * e, for every row i
    both = G.composites(np.concatenate([S[e][T], S]),
                        np.concatenate([S, np.broadcast_to(S[e], S.shape)]))
    if not np.array_equal(both, np.concatenate([S, S])):
        return False
    every = np.arange(k)
    label = every
    while (label != label[e]).any():
        s = int(np.argmax(label != label[e]))
        found = index_of(G.composites(S[:, T[s]], np.broadcast_to(S[s], S.shape)))
        if not np.array_equal(np.sort(found), every):
            return False
        label = components(k, label, label[found])[label]
    return True


def factors_form_group(G: FiniteGroupoid, factors) -> bool:
    """True when the product of ``factors`` forms a group under the star
    product and taking targets is a homomorphism into object permutations.

    A factor is a pair (objects, rows): the rows ``S[i, j]`` pick an arrow
    at each ``objects[j]``, and the objects hold the targets of their
    arrows, as an orbit or a union of orbits does; ValueError naming the
    factor and the row when a target lies outside the factor's objects.
    Column x of a star product reads only the columns of its factors on
    the orbit of x, so the product is a group with the target homomorphism
    exactly when every factor is one: each law holds componentwise.

    False unless :meth:`FiniteGroupoid.certificate` proves the table
    associative.  Then the groupoid's unit bisection is built (ValueError
    for an object without a unit), and each factor is closed under greedy
    generators taken from its own rows (:func:`_group_by_closure`; Holt,
    Eick & O'Brien, *Handbook of Computational Group Theory*, ch. 4): about
    k log2 k star products per factor of k rows, in place of its k x k
    star table, and memory linear in k.
    """
    checked = []
    for f, (objs, rows) in enumerate(factors):
        local = np.full(G.n_objects, -1, dtype=np.intp)  # each object's column in the factor
        local[objs] = np.arange(len(objs))
        T = local[G.tgt[rows]]
        if (outside := (T < 0).any(axis=1)).any():
            i = int(np.argmax(outside))
            raise ValueError(f"row {i} of factor {f} has a target outside the factor's objects "
                             f"{', '.join(G.objects[x] for x in objs)}")
        checked.append((objs, rows, T))
    if not G.certificate().associative:
        return False
    unit = np.array(unit_bisection(G).arrows, dtype=np.intp)
    return all(_group_by_closure(G, objs, rows, T, unit[objs]) for objs, rows, T in checked)


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
