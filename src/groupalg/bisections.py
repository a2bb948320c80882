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
from .groupoid import FiniteGroupoid


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
    targets = []
    for x, a in zip(domain, arrows):
        if G.src[a] != x:
            raise ValueError(f"arrow {G.arrow_ids[a]} is not sourced at {G.objects[x]}")
        targets.append(G.tgt[a])
    if len(set(targets)) != len(targets):
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
    return {x: G.tgt[a] for x, a in zip(sigma.domain, sigma.arrows)}


def enumerate_bisections(G: FiniteGroupoid) -> list[Bisection]:
    """All full bisections, by backtracking in object/arrow order."""
    n = G.n_objects
    out: list[Bisection] = []
    chosen: list[int] = []
    used: set[int] = set()

    def extend(x: int) -> None:
        if x == n:
            out.append(Bisection(tuple(range(n)), tuple(chosen)))
            return
        for a in G.source_fiber(x):
            t = G.tgt[a]
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
    spick = sigma.pick()
    arrows = []
    for x, a in zip(tau.domain, tau.arrows):
        t = G.tgt[a]
        if t not in spick:
            raise DomainMismatch(
                f"target {G.objects[t]} of tau is outside the domain of sigma")
        arrows.append(G.compose(spick[t], a))
    return Bisection(tau.domain, tuple(arrows))


def arrow_array(G: FiniteGroupoid, sigmas: list[Bisection]) -> np.ndarray:
    """The full bisections as one k x n int array, ``S[i, x] = sigma_i(x)``."""
    return np.array([s.arrows for s in sigmas], dtype=np.intp).reshape(len(sigmas), G.n_objects)


def forms_group(G: FiniteGroupoid, sigmas: list[Bisection]) -> bool:
    """True when the full bisections ``sigmas`` form a group under the star
    product and taking targets is a homomorphism into object permutations.

    The bisections are the k x n array ``S[i, x] = sigma_i(x)``.  One
    composite lookup gives all k^2 star products ``S[i, tgt(S[j, x])] o
    S[j, x]``, and a dict on row bytes maps each back to its index; a product
    with a missing composite (-1), or a product or unit bisection outside
    ``sigmas``, makes the answer False.  Associativity compares (ij)m with
    i(jm) one row i at a time, all k^3 triples in k^2 memory; the unit,
    inverses and the homomorphism into the target maps are table comparisons.
    """
    k, n = len(sigmas), G.n_objects
    S = arrow_array(G, sigmas)
    index = {row.tobytes(): i for i, row in enumerate(S)}
    T = np.asarray(G.tgt, dtype=np.intp)[S]
    products = G.composites(S[:, T], S)  # [i, j, x] = (sigma_i * sigma_j)(x), or -1
    found = [index.get(row.tobytes()) for row in products.reshape(k * k, n)]
    if None in found:
        return False
    table = np.array(found, dtype=np.intp).reshape(k, k)
    e = index.get(arrow_array(G, [unit_bisection(G)]).tobytes())
    if e is None:
        return False
    if not all(np.array_equal(table[table[i]], table[i][table]) for i in range(k)):
        return False
    rows = np.arange(k)
    if not (np.all(table[e, :] == rows) and np.all(table[:, e] == rows)):
        return False
    if not ((table == e) & (table.T == e)).any(axis=1).all():
        return False
    composed = T[rows[:, None, None], T[None, :, :]]  # [i, j, x] = T_i(T_j(x))
    return bool(np.array_equal(T[table], composed))


def bisection_inverse(G: FiniteGroupoid, sigma: Bisection) -> Bisection:
    """Inverse bisection on the target image: sends tgt(sigma(x)) to sigma(x)^-1."""
    pick = {}
    for x, a in zip(sigma.domain, sigma.arrows):
        pick[G.tgt[a]] = G.inverse[a]
    return make_bisection(G, pick)


def left_translate(G: FiniteGroupoid, sigma: Bisection, arrow: int) -> int:
    """L_sigma(arrow) = sigma(tgt(arrow)) o arrow; preserves the source."""
    spick = sigma.pick()
    t = G.tgt[arrow]
    if t not in spick:
        raise DomainMismatch(
            f"target {G.objects[t]} of {G.arrow_ids[arrow]} is outside the domain")
    return G.compose(spick[t], arrow)
