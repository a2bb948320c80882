"""Seeded, platform-stable randomness for trials and fixtures.

All randomized checks draw from a splitmix-style 64-bit stream so that a
seed fully determines every trial, independent of Python's hash state or
numpy's generator versions.
"""

from __future__ import annotations

import numpy as np

from . import builders
from .groupoid import FiniteGroupoid, _ranges

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """Deterministic 64-bit stream; every value is a conversion of a block
    of draws (:func:`units`, :func:`boxes`, :func:`below`)."""

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64s(self, k: int) -> np.ndarray:
        """The next ``k`` draws, as a uint64 array.

        The stream is counter-based: draw i is the splitmix64 mix of
        state + (i + 1) gamma mod 2^64, so k draws are one array expression,
        and one block of k draws is the same as k blocks of one.  Array
        arithmetic wraps modulo 2^64 without a warning.
        """
        z = np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self.state)
        self.state = (self.state + k * _GAMMA) & _MASK
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> 31)

    def complex_boxes(self, k: int) -> np.ndarray:
        """``k`` values of :meth:`complex_box`, as a complex array."""
        return boxes(self.next_u64s(2 * k))

    def random(self) -> float:
        return float(units(self.next_u64s(1))[0])

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        return int(below(self.next_u64s(1), n)[0])

    def complex_box(self) -> complex:
        return complex(self.complex_boxes(1)[0])


def units(u: np.ndarray) -> np.ndarray:
    """Draws as floats in [0, 1): the top 53 bits of each."""
    return (u >> 11) * 2.0 ** -53


def boxes(u: np.ndarray) -> np.ndarray:
    """Pairs of draws (real, imaginary) as points of the unit box."""
    return (-1.0 + 2.0 * units(u)).view(complex)


def below(u: np.ndarray, n: int) -> np.ndarray:
    """Draws as ints in 0..n-1."""
    return (u % np.uint64(n)).astype(np.intp)


_GROUP_MENU = [("1", 1), ("z2", 2), ("z3", 3), ("z4", 4), ("klein", 4), ("s3", 6)]


def _group_table(name: str):
    if name == "1":
        return ["e"], [[0]]
    if name in ("z2", "z3", "z4"):
        return builders.cyclic_table(int(name[1]))
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
        options = [(k, gname, gorder) for k in range(1, 5) for gname, gorder in _GROUP_MENU
                   if k * k * gorder <= budget]
        if not options:
            break
        k, gname, gorder = options[rng.randint(len(options))]
        budget -= k * k * gorder
        base = builders.pair_groupoid([f"c{len(pieces)}x{i}" for i in range(k)])
        pieces.append(base if gname == "1" else
                      builders.product(base, builders.group_groupoid(*_group_table(gname))))
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
    return (0.5 + (2.0 - 0.5) * units(rng.next_u64s(G.n_objects)))[G.src]


def random_probability(n: int, rng: SplitMix64) -> np.ndarray:
    raw = 0.2 + (1.0 - 0.2) * units(rng.next_u64s(n))
    return raw / raw.sum()


def random_unitary_field(weights: list[np.ndarray], rng: SplitMix64) -> list[np.ndarray]:
    """One unitary per object, unitary w.r.t. the weighted inner product.

    Object x's d x d draw is the next d^2 values of one block of sum d^2,
    in object order; each distinct d is one batched QR, whose factors are
    those of one QR per matrix."""
    dims = np.array([len(w) for w in weights], dtype=np.intp)
    draws = rng.complex_boxes(int((dims ** 2).sum()))
    starts = np.cumsum(dims ** 2) - dims ** 2
    out = [None] * len(dims)
    for d in np.flatnonzero(np.bincount(dims)).tolist():
        xs = np.flatnonzero(dims == d)
        m = draws[_ranges(starts[xs], np.full(len(xs), d * d))].reshape(-1, d, d)
        q, r = np.linalg.qr(m + 2 * d * np.eye(d))
        diag = np.diagonal(r, axis1=1, axis2=2)
        root = np.sqrt(np.array([weights[x] for x in xs.tolist()], dtype=float))
        u = q * (diag / np.abs(diag))[:, None, :] / root[:, :, None] * root[:, None, :]
        for x, ux in zip(xs.tolist(), u):
            out[x] = ux
    return out
