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
then reuses.  It is a module of its own so that no
module's source grows past the largest: compiling that one sets a floor
under the peak memory of every process that imports the package from
source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    # each composite labelled by one product table of the labels
    # (each temporary as large as the table is dropped once read)
    row_orbit = r[first]
    ends = ((src[first] == tgt[second]) & (tgt[composite] == tgt[first])
            & (src[composite] == src[second]))
    good[row_orbit[good[row_orbit] & ~ends]] = False
    del ends
    size = np.where(good, h * h, 0)
    corner = np.cumsum(size) - size
    rows = np.flatnonzero(good[row_orbit])
    ro, gc = row_orbit[rows], g[composite[rows]]
    cell = g[first[rows]]
    cell *= h[ro]
    cell += g[second[rows]]
    cell += corner[ro]
    del rows
    table = np.full(size.sum(), -1, dtype=np.intp)
    table[cell] = gc
    good[ro[table[cell] != gc]] = False
    del cell, gc
    good[np.bincount(ro, minlength=n_obj) != n ** 3 * h * h] = False
    del ro
    owner = np.repeat(np.arange(n_obj), size)  # the orbit of each table cell
    # right multiplication by each label k permutes the labels: each column
    # (., k) of the table holds every label once; its inverse, h k^-1 for
    # each label h, is kept at k |H| + h
    row, k = np.divmod(np.arange(len(owner)) - corner[owner], h[owner])
    use = good[owner]
    column = (corner[owner] + k * h[owner] + table)[use]
    del k, table
    hit = np.bincount(column, minlength=len(owner))
    good[owner[use][hit[column] != 1]] = False
    del hit
    division = np.zeros(len(owner), dtype=np.intp)
    division[column] = row[use]
    del row, column, owner

    left, right = [], []
    roots = np.flatnonzero(good)
    for nn, hh in sorted(set(zip(n[roots].tolist(), h[roots].tolist()))):
        R = roots[(n[roots] == nn) & (h[roots] == hh)]
        right.append(arrow_at[offset[R][:, None] + np.arange(nn * nn * hh)]
                     .reshape(len(R), nn * hh, nn))
        k = np.arange(hh)
        div = division[corner[R][:, None, None] + k * hh + k[:, None]]  # [o, h, k]: h k^-1
        x, y = np.arange(nn)[:, None, None, None], np.arange(nn)[None, None, :, None]
        left.append(arrow_at[offset[R][:, None, None, None, None]
                             + (x * hh + div[:, None, :, None, :]) * nn + y]
                    .reshape(len(R), nn * hh, nn * hh))
    rest = np.flatnonzero(~good[row_orbit])
    return OrbitMatrices(tuple(left), tuple(right),
                         (composite[rest], first[rest], second[rest]))


def orbit_matrices(G: FiniteGroupoid) -> OrbitMatrices:
    """The orbits of G on which convolution is a matrix product, verified
    against its table; computed once and kept on G."""
    if G._orbit_matrices is None:
        G._orbit_matrices = _build(G)
    return G._orbit_matrices
