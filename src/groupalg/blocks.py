"""Operators stored by diagonal blocks.

An operator that is block diagonal after one permutation of the basis is
kept as its blocks: the basis positions of each block and a small dense
matrix per block.  Products, weighted adjoints and spectral norms then work
block by block, and the singular values of the whole matrix are those of
its blocks.  Blocks that are one matrix in every operator on them, with
their positions renamed, share one data slot, stored and worked on once.

The integrated representations of a groupoid have this shape
(:func:`groupalg.representations.integrated_blocks`).  On an orbit with n
objects and isotropy H the convolution algebra is M_n (x) C[H] (Renault,
LNM 793; Muhly, Renault and Williams 1987), and the n left regular blocks
of the orbit, one per source object, are the one matrix of left
multiplication by F = sum c(a) e_xy (x) g with their positions renamed by
right translation: one slot per orbit, gathered through
:func:`groupalg.orbits.orbit_matrices` where the rep's index data prove it
(:func:`groupalg.orbits.regular_blocks`).  Any other rep keeps one slot per
block, scattered from its ops.  :meth:`BlockOperator.of_dense` splits a
dense operator into the blocks of its nonzero pattern, which is how
:func:`groupalg.representations.operator_norm` takes its norm here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ShapeMismatch
from .groupoid import _ranges, components

_SCAN_CHUNK = 1 << 16  # entries of a dense operator scanned per chunk in of_dense


def factored_ratios(nu: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ratios (nu_c / nu_r) (w_c / w_r) of two diagonal factors over
    their last axis, as (..., s, s) matrices [r, c]: M_c / M_r for the
    metric M = nu w, factored so that a weight constant over the axis gives
    the nu ratios exactly."""
    ratio = nu[..., None, :] / nu[..., :, None]
    ratio *= w[..., None, :] / w[..., :, None]
    return ratio


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """The positions 0..n-1 split into blocks, the blocks grouped by size,
    and the blocks of each group that share one data slot.

    ``groups[g]`` is the (nb, s) array of the positions of the nb blocks of
    size ``sizes[g]`` = s; position p is
    ``groups[group[p]][block[p], place[p]]``.  ``slots[g]`` is the slot of
    each block, non-decreasing from 0: the blocks of one slot are one
    matrix in every operator on the partition, row and column ``place``
    alike.  k operators keep their data as one (k, ``width``) array, group
    g in the columns ``offsets[g]`` to ``offsets[g + 1]`` as (slots, s, s)
    (:meth:`views`).
    """

    groups: tuple[np.ndarray, ...]
    sizes: np.ndarray
    group: np.ndarray
    block: np.ndarray
    place: np.ndarray
    slots: tuple[np.ndarray, ...]

    @staticmethod
    def indexed(n: int, groups, slots) -> BlockPartition:
        """The partition of n positions into the rows of the (nb, s)
        ``groups``, of ascending s, with the ``slots`` of their blocks."""
        group, block, place = (np.empty(n, dtype=np.intp) for _ in range(3))
        for g, p in enumerate(groups):
            p.flags.writeable = False
            group[p] = g
            block[p] = np.arange(len(p))[:, None]
            place[p] = np.arange(p.shape[1])
        sizes = np.array([p.shape[1] for p in groups], dtype=np.intp)
        return BlockPartition(tuple(groups), sizes, group, block, place, tuple(slots))

    @staticmethod
    def of(label: np.ndarray) -> BlockPartition:
        """One block per value of the non-negative int ``label``, in the
        order of the values, each ascending and its own slot; groups by
        ascending size."""
        order = np.argsort(label, kind="stable")
        size = np.bincount(label)
        size = size[size > 0]  # per block, in the order of the labels
        first = np.cumsum(size) - size
        groups = []
        for s in np.flatnonzero(np.bincount(size)).tolist():
            which = np.flatnonzero(size == s)
            groups.append(order[_ranges(first[which], np.full(len(which), s))].reshape(-1, s))
        return BlockPartition.indexed(len(label), groups, [np.arange(len(p)) for p in groups])

    @cached_property
    def leads(self) -> tuple[np.ndarray, ...]:
        """Per group, the (slots, s) positions of the first block of each slot."""
        return tuple(p[np.flatnonzero(np.diff(slot, prepend=-1))]
                     for p, slot in zip(self.groups, self.slots))

    @cached_property
    def offsets(self) -> list[int]:
        """The first column of each group in the data of one operator, and
        ``width``, the number of its columns, last."""
        slab = [len(q) * q.shape[1] ** 2 for q in self.leads]
        return [0, *np.cumsum(slab, dtype=int).tolist()]

    @property
    def width(self) -> int:
        return self.offsets[-1]

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """The (k, slots, s, s) data of each group in the (k, width) ``flat``."""
        lo = self.offsets
        return tuple(flat[:, lo[g]:lo[g + 1]].reshape(len(flat), *q.shape, q.shape[1])
                     for g, q in enumerate(self.leads))

    def cells(self, r: np.ndarray, c: np.ndarray) -> np.ndarray:
        """The column of each entry (r[i], c[i]), whose two positions share a
        block, in the data of one operator, on a partition whose blocks are
        their own slots (:meth:`of`)."""
        size = self.sizes[self.group[r]]
        offsets = np.array(self.offsets[:-1], dtype=np.intp)[self.group[r]]
        return offsets + (self.block[r] * size + self.place[r]) * size + self.place[c]


@dataclass(frozen=True, eq=False)
class BlockOperator:
    """k operators on one space with a diagonal inner product, block
    diagonal after one permutation of the positions, stored by slots.

    ``data[g]`` is the (k, slots, s, s) data of the group of block size s
    (:meth:`BlockPartition.views`): ``data[g][i, slots[g][b]]`` is operator
    i on the rows and columns ``groups[g][b]``.  Every entry outside the
    blocks is 0.  The inner product is kept as its two diagonal factors,
    ``nu`` (the measure of each position's object) and ``weight`` (each
    position's fibre weight), as
    :func:`~groupalg.representations.bundle_factors` gives them for a
    Hilbert bundle; ``metric`` is their product, the diagonal of the inner
    product.  The blocks of one slot have the same ``nu`` at each place and
    a ``weight`` constant on each block, so the factored ratios of
    :meth:`adjoint` and :meth:`norms` are one matrix for the whole slot,
    exactly: a weight ratio w/w is 1.
    """

    nu: np.ndarray
    weight: np.ndarray
    partition: BlockPartition
    data: tuple[np.ndarray, ...]
    k: int

    @staticmethod
    def of_dense(op: np.ndarray, nu: np.ndarray, weight: np.ndarray) -> BlockOperator:
        """One dense n x n operator split into the connected blocks of its
        nonzero pattern, rows and columns one index set, each block its own
        slot, gathered by one flat ``take`` in any layout and dtype.

        The pattern is that of ``op != 0`` in row-major order: the rows are
        scanned in chunks of about ``_SCAN_CHUNK`` entries, each made
        contiguous; a complex chunk is read as its float view, real and
        imaginary parts side by side, and an entry is nonzero when either
        part is, so NaN counts and +-0 does not."""
        n_rows, n = op.shape
        step = max(1, _SCAN_CHUNK // max(n, 1))
        found = [np.zeros(0, dtype=np.intp)]
        for lo in range(0, n_rows, step):
            chunk = np.ascontiguousarray(op[lo:lo + step])
            if chunk.dtype.kind == "c":  # the two parts' flags of an entry read as one
                mask = (chunk.view(chunk.real.dtype) != 0).view(np.uint16).astype(bool)
            else:
                mask = chunk != 0
            found.append(np.flatnonzero(mask) + lo * n)
        part = BlockPartition.of(components(n, *np.divmod(np.concatenate(found), max(n, 1))))
        cells = [np.zeros(0, dtype=np.intp)]
        cells += [(p[:, :, None] * n + p[:, None, :]).ravel() for p in part.groups]
        return BlockOperator(nu, weight, part, part.views(np.take(op, np.concatenate(cells))[None]), 1)

    @cached_property
    def metric(self) -> np.ndarray:
        return self.nu * self.weight

    @property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per group, the (nb, s) positions of its blocks and the (k, nb, s, s)
        data of every block, each slot's written out."""
        return tuple((p, d[:, slot]) for p, slot, d in
                     zip(self.partition.groups, self.partition.slots, self.data))

    def __len__(self) -> int:
        return self.k

    def _with(self, data, k: int | None = None) -> BlockOperator:
        return BlockOperator(self.nu, self.weight, self.partition, tuple(data),
                             self.k if k is None else k)

    def __getitem__(self, rows: slice) -> BlockOperator:
        """The operators ``rows`` of the stack, on the same blocks."""
        return self._with((d[rows] for d in self.data), len(range(*rows.indices(self.k))))

    def _paired(self, other: BlockOperator):
        p, q = self.partition, other.partition
        if p is not q and (len(p.groups) != len(q.groups) or not all(
                np.array_equal(x, y) for x, y in zip(p.groups + p.slots, q.groups + q.slots))):
            raise ShapeMismatch("block operators on different blocks")
        return zip(self.data, other.data)

    def __matmul__(self, other: BlockOperator) -> BlockOperator:
        """The products, operator by operator and slot by slot."""
        with np.errstate(all="ignore"):  # a non-finite entry stays in the data
            return self._with([np.matmul(d, e) for d, e in self._paired(other)],
                              max(self.k, other.k))

    def adjoint(self) -> BlockOperator:
        """The adjoints for the weighted inner product, M^-1 op^H M, with the
        ratios in factored form, as
        :func:`~groupalg.representations.adjoint_operator` computes them on
        the dense matrix."""
        with np.errstate(all="ignore"):
            return self._with([d.conj().swapaxes(-1, -2)
                               * factored_ratios(self.nu[q], self.weight[q])
                               for q, d in zip(self.partition.leads, self.data)])

    def gaps(self, other: BlockOperator) -> np.ndarray:
        """``max |self[i] - other[i]|`` per operator i (NaN when an entry is)."""
        out = np.zeros(max(self.k, other.k))
        with np.errstate(all="ignore"):
            for d, e in self._paired(other):
                out = np.maximum(out, np.abs(d - e).max(axis=(1, 2, 3)))
        return out

    def norms(self) -> np.ndarray:
        """The spectral norm of each operator in the weighted geometry: the
        largest singular value of its flat similar matrix, exact because the
        blocks' singular values are the matrix's.  Each flat similar slot
        is ``d * (sqrt(nu_r) / sqrt(nu_c)) * (sqrt(w_r) / sqrt(w_c))``, its
        ratio matrix formed once per block size.  One batched SVD per block
        size takes the slots that differ from the slot before them in the
        same operator; a slot equal to it (``==`` on every entry) reuses its
        largest singular value, exactly, since equal matrices have equal
        singular values.  NaN for an operator with a non-finite entry of the
        flat matrix, and for all of them when the metric has a zero or
        infinite root.  The one weighted norm of the package: a dense
        operator's (:func:`~groupalg.representations.operator_norm`) is
        taken here too."""
        root = np.sqrt(self.metric)
        if not (np.isfinite(root).all() and root.all()):
            return np.full(self.k, math.nan)
        root_nu, root_w = np.sqrt(self.nu), np.sqrt(self.weight)
        out = np.zeros(self.k)
        for q, d in zip(self.partition.leads, self.data):
            with np.errstate(all="ignore"):
                sim = d * factored_ratios(root_nu[q], root_w[q]).swapaxes(-1, -2)
            bad = ~np.isfinite(sim).all(axis=(1, 2, 3))
            sim[bad] = 0.0
            new = np.ones(sim.shape[:2], dtype=bool)  # differs from the slot before it
            new[:, 1:] = (sim[:, 1:] != sim[:, :-1]).any(axis=(2, 3))
            top = np.linalg.svd(sim[new], compute_uv=False)[:, 0]
            top = top[np.cumsum(new) - 1].reshape(new.shape).max(axis=1)
            out = np.maximum(out, np.where(bad, math.nan, top))
        return out

    def dense(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The (k, n, n) stack of dense matrices, or their ``rows`` only:
        each slot written out at every block of it, by flat index."""
        n = len(self.nu)
        rows = np.arange(n) if rows is None else np.asarray(rows, dtype=np.intp)
        part = self.partition
        group, block, place = part.group[rows], part.block[rows], part.place[rows]
        out = np.zeros((self.k, len(rows) * n), dtype=complex)
        for g, (p, slot, d) in enumerate(zip(part.groups, part.slots, self.data)):
            i = np.flatnonzero(group == g)
            s = p.shape[1]
            at = (i[:, None] * n + p[block[i]]).ravel()
            cells = ((slot[block[i]] * s + place[i])[:, None] * s + np.arange(s)).ravel()
            for o, x in zip(out, d.reshape(self.k, -1)):
                o[at] = x[cells]
        return out.reshape(self.k, len(rows), n)
