"""Operators stored by diagonal blocks.

An operator that is block diagonal after one permutation of the basis is
kept as its blocks: the basis positions of each block and a small dense
matrix per block.  Products, weighted adjoints and spectral norms then work
block by block, and the singular values of the whole matrix are those of
its blocks.  The integrated representations of a groupoid have this shape
(:func:`groupalg.representations.integrated_blocks`), and
:func:`groupalg.representations.operator_norm` splits a dense operator into
the blocks of its nonzero pattern to take its norm here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch
from .groupoid import _ranges


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """The positions 0..n-1 split into blocks, the blocks grouped by size.

    ``groups[g]`` is the (nb, s) array of the positions of the nb blocks of
    size ``sizes[g]`` = s, each block ascending; position p is
    ``groups[group[p]][block[p], place[p]]``.
    """

    groups: tuple[np.ndarray, ...]
    sizes: np.ndarray
    group: np.ndarray
    block: np.ndarray
    place: np.ndarray

    @staticmethod
    def of(label: np.ndarray) -> BlockPartition:
        """One block per value of the non-negative int ``label``, in the
        order of the values; groups by ascending size."""
        order = np.argsort(label, kind="stable")
        size = np.bincount(label)
        size = size[size > 0]  # per block, in the order of the labels
        first = np.cumsum(size) - size
        group, block, place = (np.empty(len(label), dtype=np.intp) for _ in range(3))
        place[order] = np.arange(len(label)) - np.repeat(first, size)
        groups, sizes = [], np.flatnonzero(np.bincount(size))
        for g, s in enumerate(sizes.tolist()):
            which = np.flatnonzero(size == s)
            positions = order[_ranges(first[which], np.full(len(which), s))].reshape(-1, s)
            positions.flags.writeable = False
            group[positions] = g
            block[positions] = np.arange(len(which))[:, None]
            groups.append(positions)
        return BlockPartition(tuple(groups), sizes.astype(np.intp), group, block, place)

    def cells(self, r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The group of each entry (r[i], c[i]), whose two positions share a
        block, and its cell in one operator's data of that group, read as
        a flat (nb, s, s) array."""
        group = self.group[r]
        size = self.sizes[group]
        return group, (self.block[r] * size + self.place[r]) * size + self.place[c]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """k operators on one space with a diagonal inner product, block
    diagonal after one permutation of the positions, stored by blocks.

    ``groups`` holds, per block size s, the (nb, s) positions of the blocks
    (:attr:`BlockPartition.groups`) and their (k, nb, s, s) ``data``:
    ``data[i, b]`` is operator i on the rows and columns ``positions[b]``.
    Every entry outside the blocks is 0.  The inner product is kept as its
    two diagonal factors, ``nu`` (the measure of each position's object)
    and ``weight`` (each position's fibre weight), as
    :func:`~groupalg.representations.bundle_factors` gives them for a
    Hilbert bundle; ``metric`` is their product, the diagonal of the inner
    product.
    """

    nu: np.ndarray
    weight: np.ndarray
    partition: BlockPartition
    data: tuple[np.ndarray, ...]
    k: int

    @cached_property
    def metric(self) -> np.ndarray:
        return self.nu * self.weight

    @property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        return tuple(zip(self.partition.groups, self.data))

    def __len__(self) -> int:
        return self.k

    def _with(self, data, k: int | None = None) -> BlockOperator:
        return BlockOperator(self.nu, self.weight, self.partition, tuple(data),
                             self.k if k is None else k)

    def __getitem__(self, rows: slice) -> BlockOperator:
        """The operators ``rows`` of the stack, on the same blocks."""
        return self._with((d[rows] for d in self.data), len(range(*rows.indices(self.k))))

    def _paired(self, other: BlockOperator):
        if self.partition is not other.partition and (
                len(self.data) != len(other.data) or not all(
                    np.array_equal(p, q) for p, q in zip(self.partition.groups,
                                                         other.partition.groups))):
            raise ShapeMismatch("block operators on different blocks")
        return zip(self.data, other.data)

    def __matmul__(self, other: BlockOperator) -> BlockOperator:
        """The products, operator by operator and block by block."""
        return self._with((np.matmul(d, e) for d, e in self._paired(other)),
                          max(self.k, other.k))

    def adjoint(self) -> BlockOperator:
        """The adjoints for the weighted inner product, M^-1 op^H M, as
        :func:`~groupalg.representations.adjoint_operator` computes them on
        the dense matrix."""
        def adjoined(p, d):
            m = self.metric[p]
            return d.conj().swapaxes(-1, -2) * m[:, None, :] / m[:, :, None]
        return self._with(adjoined(p, d) for p, d in self.groups)

    def gaps(self, other: BlockOperator) -> np.ndarray:
        """``max |self[i] - other[i]|`` per operator i (NaN when an entry is)."""
        out = np.zeros(max(self.k, other.k))
        for d, e in self._paired(other):
            out = np.maximum(out, np.abs(d - e).max(axis=(1, 2, 3)))
        return out

    def norms(self) -> np.ndarray:
        """The spectral norm of each operator in the weighted geometry: the
        largest singular value of its flat similar matrix, exact because the
        blocks' singular values are the matrix's.  Each flat similar block
        is ``d * (sqrt(nu_r) / sqrt(nu_c)) * (sqrt(w_r) / sqrt(w_c))``, its
        ratio matrix formed once per block size.  With Haar weights constant
        on source fibres the weight ratio of a left regular block is exactly
        1, so the blocks of one orbit come out equal entry for entry
        (C*(orbit) = M_n (x) C*(H): Renault, LNM 793; Muhly, Renault and
        Williams 1987).  One batched SVD per block size takes the blocks
        that differ from the block before them in the same operator; a
        block equal to it (``==`` on every entry) reuses its largest
        singular value, exactly, since equal matrices have equal singular
        values.  NaN for an operator with a non-finite entry of the flat
        matrix, and for all of them when the metric has a zero or infinite
        root.  The one weighted norm of the package: a dense operator's
        (:func:`~groupalg.representations.operator_norm`) is taken here
        too."""
        root = np.sqrt(self.metric)
        if not (np.isfinite(root).all() and root.all()):
            return np.full(self.k, math.nan)
        root_nu, root_w = np.sqrt(self.nu), np.sqrt(self.weight)
        out = np.zeros(self.k)
        for p, d in self.groups:
            ratio = root_nu[p][:, :, None] / root_nu[p][:, None, :]
            ratio *= root_w[p][:, :, None] / root_w[p][:, None, :]
            sim = d * ratio
            bad = ~np.isfinite(sim).all(axis=(1, 2, 3))
            sim[bad] = 0.0
            new = np.ones(sim.shape[:2], dtype=bool)  # differs from the block before it
            new[:, 1:] = (sim[:, 1:] != sim[:, :-1]).any(axis=(2, 3))
            top = np.linalg.svd(sim[new], compute_uv=False)[:, 0]
            top = top[np.cumsum(new) - 1].reshape(new.shape).max(axis=1)
            out = np.maximum(out, np.where(bad, math.nan, top))
        return out

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The (k, n, n) stack of dense matrices, or their ``rows`` only."""
        n = len(self.metric)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        part = self.partition
        group, block, place = part.group[rows], part.block[rows], part.place[rows]
        out = np.zeros((self.k, len(rows), n), dtype=complex)
        for g, (p, d) in enumerate(self.groups):
            i = np.flatnonzero(group == g)
            out[:, i[:, None], p[block[i]]] = d[:, block[i], place[i]]
        return out
