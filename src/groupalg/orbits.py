"""Orbits as matrix algebras: convolution as products in M_n tensor C[H].

The convolution algebra of a transitive groupoid with n objects and
isotropy H is M_n tensor C[H] (Renault, *A Groupoid Approach to
C*-Algebras*, LNM 793); a groupoid is the disjoint union of its orbits.
:func:`orbit_matrices` reads, once per groupoid, the gather indices that
turn each orbit's convolution into one matrix product, for every orbit
whose composition table bears the isomorphism out, and leaves the table's
other rows to the table sum.  The generator certificate reads the same
verdict: a kept orbit associates exactly when its labels do, so
:func:`groupoid.validate` builds the matrices that :func:`haar.convolve`
then reuses.  :func:`translates` proves from them, by one int comparison
per op entry, that an index rep is the left regular one, which proves it
multiplicative on an associative table, and :func:`regular_blocks`
gathers from them the left regular blocks of the integrated
representations.  It is a module of its own so
that no module's source grows past the largest: compiling that one sets a
floor under the peak memory of every process that imports the package from
source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blocks import BlockPartition
from .groupoid import FiniteGroupoid


@dataclass(frozen=True)
class OrbitMatrices:
    """The orbits on which convolution is a matrix product in M_n tensor
    C[H], and the table rows left to the table sum.

    On an orbit with n objects, every arrow a: y -> x factors as
    a = tau_x o g o tau_y^-1 with g one of the |H| loops at the base, as
    the groupoid's :class:`~groupalg.groupoid.OrbitIndex` holds it (its
    ``tau`` and ``g``).
    For the m orbits of one shape (n, |H|), ``right[i]`` holds the arrow
    (y, k, z) at [o, y |H| + k, z] and ``left[i]`` the arrow (x, h k^-1, y)
    at [o, x |H| + h, y |H| + k], so that (f * g)[right] is
    (f w)[left] @ g[right].  ``rest`` holds the (composite, first, second)
    columns of the table rows whose first arrow lies in no such orbit.

    An orbit is kept only if the table bears the identity out: the
    factorization is a bijection onto n x |H| x n; the table defines
    exactly the orbit's composable pairs, and the composite of a: y -> x
    and b: z -> y factors as (x, g_a g_b, z) for one product table of the
    labels; and right multiplication by each label permutes the labels,
    so that h k^-1, the g with g k = h, is defined.  Then the matrix
    product adds the terms of the table sum, in another order.
    """

    left: tuple[np.ndarray, ...]
    right: tuple[np.ndarray, ...]
    rest: tuple[np.ndarray, np.ndarray, np.ndarray]


def _build(G: FiniteGroupoid) -> OrbitMatrices:
    n_obj, A = G.n_objects, G.n_arrows
    src, tgt, arrows = G.src, G.tgt, np.arange(A)
    first, second, composite = G.compose_table.T
    base, orbit, _, h, g = G.orbit_index
    place = np.empty(n_obj, dtype=np.intp)  # each object's place in its orbit
    place[orbit.order] = np.arange(n_obj) - np.repeat(orbit.start, orbit.size)
    # n and h by base object (0 at every other object), and each arrow's orbit
    n, r = orbit.size, base[tgt]

    # the factorization, a bijection onto the codes (x |H| + g) n + y of each orbit
    good = (h > 0) & (np.bincount(r, minlength=n_obj) == n * n * h)
    good[r[(g < 0) | (g >= h[r])]] = False
    width = np.where(good, n * n * h, 0)
    offset = np.cumsum(width) - width
    mine = good[r]
    rm = r[mine]
    code = offset[rm] + (place[tgt[mine]] * h[rm] + g[mine]) * n[rm] + place[src[mine]]
    holder = np.repeat(np.arange(n_obj), width)  # the orbit of each code
    good[holder[np.bincount(code, minlength=len(holder)) != 1]] = False
    arrow_at = np.zeros(len(holder), dtype=np.intp)
    arrow_at[code] = arrows[mine]

    # the rows of each orbit: exactly its composable pairs, n^3 h^2 of them,
    # each composite labelled by one product table of the labels (no
    # temporary as large as the table outlives its use; with every orbit
    # kept the rows are read in place); a row whose endpoints fail, as the
    # groupoid keeps them, drops its orbit
    good[r[first[G._endpoint_faults()[0]]]] = False
    rows = np.flatnonzero(good[r][first])
    if len(rows) == len(first):
        rows = slice(None)
    size = np.where(good, h * h, 0)
    corner = np.cumsum(size) - size
    ro = r[first[rows]]
    good[np.bincount(ro, minlength=n_obj) != n ** 3 * h * h] = False
    cell = g[first[rows]]
    cell *= h[ro]
    cell += g[second[rows]]
    cell += corner[ro]
    del ro
    gc = g[composite[rows]]
    table = np.full(size.sum(), -1, dtype=np.intp)
    table[cell] = gc
    gc = table[cell] != gc  # the rows whose composite contradicts the table
    good[r[first[rows][gc]]] = False
    del cell, gc, rows
    # right multiplication by each label k permutes the labels: each column
    # (., k) of an orbit's table holds every label once; its inverse,
    # div[o, k, h] = h k^-1 for each label h, is kept per size of H
    division = {}
    for hh in sorted(set(h[good].tolist())):
        R = np.flatnonzero(good & (h == hh))
        key = table[corner[R][:, None] + np.arange(hh * hh)].reshape(len(R), hh, hh)
        key += (np.arange(len(R))[:, None, None] * hh + np.arange(hh)) * hh  # [o, h, k] at (o, k, h k)
        hit = np.bincount(key.ravel(), minlength=key.size).reshape(len(R), -1)
        good[R[~(hit == 1).all(axis=1)]] = False
        del hit
        div = np.zeros(key.size, dtype=np.intp)
        np.put(div, key, np.repeat(np.arange(hh), hh))
        division[hh] = R, div.reshape(len(R), hh, hh)
        del key, div
    del table

    left, right = [], []
    roots = np.flatnonzero(good)
    for nn, hh in sorted(set(zip(n[roots].tolist(), h[roots].tolist()))):
        R = roots[(n[roots] == nn) & (h[roots] == hh)]
        right.append(arrow_at[offset[R][:, None] + np.arange(nn * nn * hh)]
                     .reshape(len(R), nn * hh, nn))
        ours, div = division[hh]
        if len(R) < len(ours):
            div = div[np.searchsorted(ours, R)]
        div = div.transpose(0, 2, 1)  # [o, h, k]: h k^-1
        x, y = np.arange(nn)[:, None, None, None], np.arange(nn)[None, None, :, None]
        left.append(arrow_at[offset[R][:, None, None, None, None]
                             + (x * hh + div[:, None, :, None, :]) * nn + y]
                    .reshape(len(R), nn * hh, nn * hh))
    rest = np.flatnonzero(~good[r][first])
    return OrbitMatrices(tuple(left), tuple(right),
                         (composite[rest], first[rest], second[rest]))


def orbit_matrices(G: FiniteGroupoid) -> OrbitMatrices:
    """The orbits of G on which convolution is a matrix product, verified
    against its table; computed once and kept on G."""
    if G._orbit_matrices is None:
        G._orbit_matrices = _build(G)
    return G._orbit_matrices


def _kept(G: FiniteGroupoid, rep, name: str, compute):
    """``compute(G, rep)``, kept on the rep under ``name`` for the last
    groupoid object it was asked about."""
    memo = rep.__dict__.get(name)
    if memo is None or memo[0] is not G:
        memo = (G, compute(G, rep))
        object.__setattr__(rep, name, memo)  # the rep is frozen
    return memo[1]


def translates(G: FiniteGroupoid, rep) -> bool:
    """Whether the ops of the index rep ``rep``, which has its shape on G,
    are those of the left regular rep, entry for entry: op(a) takes the
    indicator of h to that of a o h, for every arrow h into src(a), with
    a o h as the table gives it.  Kept per rep and groupoid.

    It holds when the rep's endpoints are G's, its fibers are the target
    fibers, every arrow lies in an orbit that :func:`orbit_matrices` keeps,
    and for every orbit, z, r and c the 1 of op(left[r, c]) in the column of
    right[c, z] sits at the place of right[r, z].  On a kept orbit the
    table gives left[r, c] o right[c, z] = right[r, z], and as (r, c) runs
    over the places of a in ``left`` and z over the objects, right[c, z]
    runs over the arrows into src(a): the comparison visits each entry of
    ``rows`` once, as an int comparison, and reads no weight.
    """
    def proof(G, rep):
        if not (np.array_equal(rep.bundle.dims, G.target_fibers.size)
                and np.array_equal(rep.src, G.src) and np.array_equal(rep.tgt, G.tgt)):
            return False
        om = orbit_matrices(G)
        if sum(r.size for r in om.right) != G.n_arrows:
            return False
        rows, starts, place = rep.rows, rep.starts, G._place
        for left, right in zip(om.left, om.right):
            p = place[right.transpose(0, 2, 1)]  # [o, z, r]: the place of right[r, z]
            if not (rows[starts[left][:, None] + p[:, :, None, :]] == p[..., None]).all():
                return False
        return True
    return _kept(G, rep, "_translation", proof)


def regular_blocks(G: FiniteGroupoid, rep) -> tuple[BlockPartition, np.ndarray] | None:
    """The blocks of the integrated operators of the index rep ``rep``,
    which has its shape on G, as left regular blocks with one data slot per
    orbit, and the arrow whose coefficient fills each column of one
    operator's data (:meth:`BlockPartition.views`); None unless two exact
    conditions hold.

    On an orbit that :func:`orbit_matrices` keeps, column z of ``right``
    holds the arrows from z, (y, k, z) at row y |H| + k, and
    (y, k, z) o (w, l, z)^-1 = (y, k l^-1, w) is the arrow that ``left``
    holds at [y |H| + k, w |H| + l], whatever z is.  So the block of source
    object z, on the positions of the arrows ``right[:, z]`` in that order,
    holds the coefficient of ``left[r, c]`` at (r, c): every block of the
    orbit is one gather, with its positions renamed by right translation
    (C*(orbit) = M_n (x) C*(H): Renault, LNM 793; Muhly, Renault and
    Williams 1987).  The conditions:

    - the rep's ops are those of the left regular rep, entry for entry
      (:func:`translates`, whose kept verdict this reuses), so the ops' one
      term per entry is the gather's;
    - the fiber weights are constant on each block (for the target-fiber
      bundle, the Haar weights on each source fiber), so that the factored
      ratios of a slot are one matrix for all its blocks
      (:class:`~groupalg.blocks.BlockOperator`).
    """
    if not translates(G, rep):
        return None
    A = G.n_arrows
    position = np.empty(A, dtype=np.intp)  # each arrow's position in the bundle
    position[G.target_fibers.order] = np.arange(A)
    weight = np.concatenate([np.zeros(0), *rep.bundle.weights])
    shapes: dict[int, list] = {}
    om = orbit_matrices(G)
    for left, right in zip(om.left, om.right):
        at = right.transpose(0, 2, 1)  # [o, z, r]: the arrow at row r of block (o, z)
        blocks = position[at].reshape(-1, at.shape[2])
        if not (weight[blocks] == weight[blocks[:, :1]]).all():
            return None
        shapes.setdefault(at.shape[2], []).append((blocks, left, at.shape[1]))
    groups, slots, take = [], [], [np.zeros(0, dtype=np.intp)]
    for s in sorted(shapes):  # the orbits of one block size n |H|, one slot each
        blocks, lefts, ns = zip(*shapes[s])
        m = [len(left) for left in lefts]
        groups.append(np.concatenate(blocks))
        slots.append(np.repeat(np.arange(sum(m)), np.repeat(ns, m)))
        take += [left.ravel() for left in lefts]
    return BlockPartition.indexed(A, groups, slots), np.concatenate(take)
