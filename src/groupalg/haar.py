"""Finite Haar systems and the convolution *-algebra of arrow functions.

A Haar system assigns a strictly positive weight to every arrow; grouped by
target fiber these are fully supported measures.  Left invariance is the
pointwise identity weight(g o h) = weight(h), equivalently: the weight
factors through the source object.  Functions on arrows are dense complex
numpy vectors indexed by arrow id; the convolution product integrates over
the target fiber with the weight of the left factor,

    (f * g)(out) = sum over left in fiber(tgt out) of
                   f(left) g(inverse(left) o out) weight(left),

and the involution is f^*(a) = conj(f(inverse(a))).  The conjugation makes
the integrated representations *-preserving for complex scalars; the weight
factor keeps the product associative for non-counting systems.
:func:`table_convolve` adds the product over the rows of the composition
table, its definition on any table; :func:`convolve` computes each orbit
that the table bears out as matrix products in M_n tensor C[H].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ShapeMismatch
from .groupoid import FiniteGroupoid
from .orbits import orbit_matrices
from .report import Report

_TERM_BATCH = 1 << 16  # convolution terms per chunk of a stacked convolve


@dataclass(frozen=True)
class HaarSystem:
    """Strictly positive weight per arrow; validated at construction."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.ndim != 1:
            raise ValueError("weights must be a flat array")
        bad = check_haar_positivity(w).errors
        if bad:
            raise ValueError(bad[0].witness)


def check_haar_positivity(weights) -> Report:
    """Whether raw arrow weights can be a Haar system: all strictly positive
    and finite."""
    w = np.asarray(weights)
    rep = Report("haar-positivity")
    if not np.all(w > 0):
        rep.add("haar-positivity", "a Haar weight is not strictly positive")
    elif not np.isfinite(w).all():
        rep.add("haar-positivity", "a Haar weight is not finite")
    return rep


def counting_haar(G: FiniteGroupoid) -> HaarSystem:
    """Weight one on every arrow; left-invariant on any groupoid."""
    return HaarSystem(np.ones(G.n_arrows))


def source_haar(G: FiniteGroupoid, per_object) -> HaarSystem:
    """Weights depending only on the source object; always left-invariant."""
    per_object = np.asarray(per_object, dtype=float)
    return HaarSystem(per_object[G.src])


def check_left_invariance(G: FiniteGroupoid, mu: HaarSystem) -> Report:
    """Pointwise invariance weight(g o h) = weight(h), over all composites.

    Checking this identity on every composable pair is the same as checking
    the fiber-integral form on all indicator functions, because translation
    by g is a bijection between the two fibers.
    """
    atol = tolerances.exact_tol()
    rep = Report("haar-left-invariance")
    if len(mu.weights) != G.n_arrows:
        rep.add("shape", "weight vector length differs from the arrow count")
        return rep
    g, h, gh = G.products()
    err = np.abs(mu.weights[gh] - mu.weights[h])
    for i in np.flatnonzero(~(err <= atol)).tolist():  # NaN fails too
        rep.add("left-invariance",
                f"weight({G.arrow_ids[g[i]]} o {G.arrow_ids[h[i]]}) != "
                f"weight({G.arrow_ids[h[i]]})", residual=float(err[i]))
    return rep


def _as_function(G: FiniteGroupoid, f, stack: bool = False) -> np.ndarray:
    """f as a complex (A,) vector, or with ``stack`` also a (k, A) stack of
    functions, one per row."""
    f = np.asarray(f, dtype=complex)
    if f.shape != (G.n_arrows,) and not (stack and f.ndim == 2 and f.shape[1] == G.n_arrows):
        want = f"({G.n_arrows},) or (k, {G.n_arrows})" if stack else f"({G.n_arrows},)"
        raise ShapeMismatch(f"function has shape {f.shape}, expected {want}")
    return f


def delta(G: FiniteGroupoid, arrow: int) -> np.ndarray:
    """The indicator of ``arrow``; raises ValueError outside 0..A-1."""
    if not 0 <= arrow < G.n_arrows:
        raise ValueError(f"arrow index {arrow} out of range: indices run over 0..{G.n_arrows - 1}")
    out = np.zeros(G.n_arrows, dtype=complex)
    out[arrow] = 1.0
    return out


def fiber_integrate(G: FiniteGroupoid, mu: HaarSystem, f) -> np.ndarray:
    """Per-object integral of f over the target fiber."""
    f = _as_function(G, f)
    out = np.zeros(G.n_objects, dtype=complex)
    np.add.at(out, G.tgt, f * mu.weights)
    return out


def _add_rows(out: np.ndarray, index: np.ndarray, values: np.ndarray) -> None:
    """``np.add.at(out, index, values)``, row by row on a contiguous stack."""
    if out.ndim == 1 or len(out) == 1:
        np.add.at(out.reshape(-1), index, values.reshape(-1))
    else:  # row i of the stack at i * width onwards in the flat output
        at = np.arange(len(out))[:, None] * out.shape[1] + index
        np.add.at(out.reshape(-1), at.ravel(), values.ravel())


def _table_sum(out: np.ndarray, plan, weights: np.ndarray, f: np.ndarray,
               g: np.ndarray) -> None:
    """Add the terms f(left) g(right) weight(left) of the rows (out, left,
    right) of ``plan`` into the (k, A) stack ``out``, each output's terms in
    plan order, row by row, in chunks of about ``_TERM_BATCH`` terms."""
    outs, lefts, rights = plan
    step = _TERM_BATCH // max(len(outs), 1)
    if step < 2:  # a chunk of one row: one row at a time gathers and adds faster
        for o, a, b in zip(out, f, g):
            np.add.at(o, outs, a[lefts] * b[rights] * weights[lefts])
        return
    for lo in range(0, len(f), step):
        rows = slice(lo, lo + step)
        terms = np.take(f[rows], lefts, axis=1) * np.take(g[rows], rights, axis=1)
        _add_rows(out[rows], outs, terms * weights[lefts])


def _stacks(G: FiniteGroupoid, f, g):
    """f and g as (k, A) stacks of one shape, and whether both were single."""
    f, g = _as_function(G, f, stack=True), _as_function(G, g, stack=True)
    single = f.ndim == g.ndim == 1
    f, g = np.broadcast_arrays(np.atleast_2d(f), np.atleast_2d(g))
    return f, g, single


def table_convolve(G: FiniteGroupoid, mu: HaarSystem, f, g) -> np.ndarray:
    """f * g as the sum over the rows (a, b, a o b) of the composition table
    of f(a) g(b) weight(a) into a o b, each output's terms in ascending a:
    the definition on any table, corrupted ones included.  For (k, A)
    stacks (one may be a single function) row by row, each row as a single
    call."""
    f, g, single = _stacks(G, f, g)
    out = np.zeros(f.shape, dtype=complex)
    _table_sum(out, G.convolution_plan(), mu.weights, f, g)
    return out[0] if single else out


def convolve(G: FiniteGroupoid, mu: HaarSystem, f, g) -> np.ndarray:
    """f * g; for (k, A) stacks (one may be a single function) row by row,
    each row bit for bit as a single call.

    Each orbit that :func:`orbits.orbit_matrices` verifies against
    the table is one product in M_n tensor C[H]: (f w)[left] @ g[right],
    one batched matrix product per orbit shape, in chunks of about
    ``_TERM_BATCH`` matrix entries.  The rows of any other orbit are summed
    as :func:`table_convolve` sums them.  Both add the same terms, in
    another order, so the results agree to rounding, not bit for bit.
    """
    f, g, single = _stacks(G, f, g)
    blocks = orbit_matrices(G)
    out = np.zeros(f.shape, dtype=complex)
    if len(blocks.rest[0]):
        _table_sum(out, blocks.rest, mu.weights, f, g)
    with np.errstate(over="ignore", invalid="ignore"):  # weights far from 1: inf or NaN
        fw = f * mu.weights
        for left, right in zip(blocks.left, blocks.right):
            step = max(1, _TERM_BATCH // left.size)
            for lo in range(0, len(f), step):
                rows = slice(lo, lo + step)
                out[rows, right] += (np.take(fw[rows], left, axis=1)
                                     @ np.take(g[rows], right, axis=1))
    return out[0] if single else out


def involute(G: FiniteGroupoid, f) -> np.ndarray:
    """f^*; row by row for a (k, A) stack."""
    f = _as_function(G, f, stack=True)
    return np.conj(f[..., G.inverse])


def unit_function(G: FiniteGroupoid, mu: HaarSystem) -> np.ndarray:
    """The convolution unit: inverse unit weight on each unit arrow."""
    out = np.zeros(G.n_arrows, dtype=complex)
    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            raise ValueError(f"object {G.objects[x]} has no unit arrow")
        out[u] = 1.0 / mu.weights[u]
    return out


def i_norm(G: FiniteGroupoid, mu: HaarSystem, f):
    """Max of the two sup-over-objects fiber integrals of |f|; for a (k, A)
    stack one float per row, each as a single call.

    The target form weighs an arrow by its own weight, the source form by
    the weight of its inverse (the image measure under inversion).
    """
    f = _as_function(G, f, stack=True)
    absf, masses = np.abs(f), np.zeros((2,) + f.shape[:-1] + (G.n_objects,))
    with np.errstate(over="ignore"):  # weights far from 1: an inf mass
        _add_rows(masses[0], G.tgt, absf * mu.weights)
        _add_rows(masses[1], G.src, absf * mu.weights[G.inverse])
    out = masses.max(axis=(0, -1), initial=0.0)  # masses are >= 0
    return float(out) if f.ndim == 1 else out


def support_fiber_mass(G: FiniteGroupoid, mu: HaarSystem, support) -> float:
    """Largest fiber mass of an arrow set; Lipschitz constant for the I-norm.

    For any f supported inside the set, ||f||_I <= mass * max|f|.  Raises
    ValueError on an index outside 0..A-1.
    """
    support = np.fromiter(support, dtype=np.intp)
    if len(bad := support[(support < 0) | (support >= G.n_arrows)]):
        raise ValueError(f"arrow index {bad[0]} out of range: "
                         f"indices run over 0..{G.n_arrows - 1}")
    mask = np.zeros(G.n_arrows)
    mask[support] = 1.0
    return i_norm(G, mu, mask)


def half_density_inner(G: FiniteGroupoid, mu: HaarSystem, f, g) -> complex:
    """Weighted sesquilinear pairing sum f(a) conj(g(a)) weight(a).

    The real and imaginary parts are sums of separately rounded real
    products, so <g, f> is conj(<f, g>) and <f, f> is real, exactly."""
    f, g, w = _as_function(G, f), _as_function(G, g), mu.weights
    return complex(np.sum((f.real * g.real + f.imag * g.imag) * w),
                   np.sum((f.imag * g.real - f.real * g.imag) * w))


def function_to_matrix(G: FiniteGroupoid, f) -> np.ndarray:
    """Matrix picture of a function on a relation groupoid: F[t, s] = f(arrow s->t);
    one matrix per row of a (k, A) stack."""
    f = _as_function(G, f, stack=True)
    out = np.zeros(f.shape[:-1] + (G.n_objects, G.n_objects), dtype=complex)
    out[..., G.tgt, G.src] = f
    return out
