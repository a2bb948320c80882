"""Seeded, platform-stable randomness for trials and fixtures.

All randomized checks draw from a splitmix-style 64-bit stream so that a
seed fully determines every trial, independent of Python's hash state or
numpy's generator versions.
"""

from __future__ import annotations

import numpy as np

from . import builders
from .groupoid import FiniteGroupoid

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit stream; float output uses the top 53 bits."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def next_u64s(self, k: int) -> np.ndarray:
        """The next ``k`` values of :meth:`next_u64`, as a uint64 array.

        The stream is counter-based: draw i is mix(state + (i + 1) gamma)
        mod 2^64, so all k draws are one array expression.  Array arithmetic
        wraps modulo 2^64 without a warning, as the masks above do.
        """
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.state = (self.state + k * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    def complex_boxes(self, k: int) -> np.ndarray:
        """``k`` values of :meth:`complex_box`, as a complex array."""
        unit = (self.next_u64s(2 * k) >> 11) * 2.0 ** -53
        return (-1.0 + 2.0 * unit).view(complex)

    def random(self) -> float:
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randint(len(seq))]

    def complex_box(self) -> complex:
        return complex(self.uniform(-1.0, 1.0), self.uniform(-1.0, 1.0))


_GROUP_MENU = [
    ("1", 1), ("z2", 2), ("z3", 3), ("z4", 4), ("klein", 4), ("s3", 6),
]


def _group_table(name: str):
    if name == "1":
        return ["e"], [[0]]
    if name == "z2":
        return builders.cyclic_table(2)
    if name == "z3":
        return builders.cyclic_table(3)
    if name == "z4":
        return builders.cyclic_table(4)
    if name == "klein":
        return builders.klein_table()
    if name == "s3":
        return builders.symmetric_table(3)
    raise ValueError(name)


def random_groupoid(rng: SplitMix64, max_arrows: int = 64) -> FiniteGroupoid:
    """A random disjoint union of transitive components pair(k) x group."""
    pieces = []
    budget = max_arrows
    n_components = 1 + rng.randint(3)
    for _ in range(n_components):
        options = []
        for k in range(1, 5):
            for gname, gorder in _GROUP_MENU:
                if k * k * gorder <= budget:
                    options.append((k, gname, gorder))
        if not options:
            break
        k, gname, gorder = rng.choice(options)
        budget -= k * k * gorder
        base = builders.pair_groupoid([f"c{len(pieces)}x{i}" for i in range(k)])
        if gname == "1":
            pieces.append(base)
        else:
            pieces.append(builders.product(base, builders.group_groupoid(*_group_table(gname))))
    if not pieces:
        pieces = [builders.pair_groupoid(["c0x0"])]
    if len(pieces) == 1:
        return pieces[0]
    return builders.disjoint_union(*pieces)


def random_function(G: FiniteGroupoid, rng: SplitMix64) -> np.ndarray:
    """Complex-valued arrow function with entries in the unit box."""
    return rng.complex_boxes(G.n_arrows)


def random_invariant_weights(G: FiniteGroupoid, rng: SplitMix64) -> np.ndarray:
    """Left-invariant weights: one value in [0.5, 2) per source object."""
    per_object = np.array([rng.uniform(0.5, 2.0) for _ in range(G.n_objects)], dtype=float)
    return per_object[G.src]


def random_probability(n: int, rng: SplitMix64) -> np.ndarray:
    raw = np.array([rng.uniform(0.2, 1.0) for _ in range(n)], dtype=float)
    return raw / raw.sum()


def random_unitary_field(weights: list[np.ndarray], rng: SplitMix64) -> list[np.ndarray]:
    """One unitary per object, unitary w.r.t. the weighted inner product."""
    out = []
    for w in weights:
        d = len(w)
        m = rng.complex_boxes(d * d).reshape(d, d)
        q, r = np.linalg.qr(m + 2 * d * np.eye(d))
        q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        root = np.sqrt(np.asarray(w, dtype=float))
        out.append((q.T / root).T * root)
    return out
