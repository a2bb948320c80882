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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances
from .errors import ShapeMismatch
from .groupoid import FiniteGroupoid
from .report import Report


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
    """Whether raw arrow weights can be a Haar system: all strictly positive."""
    rep = Report("haar-positivity")
    if not np.all(np.asarray(weights) > 0):
        rep.add("haar-positivity", "a Haar weight is not strictly positive")
    return rep


def counting_haar(G: FiniteGroupoid) -> HaarSystem:
    """Weight one on every arrow; left-invariant on any groupoid."""
    return HaarSystem(np.ones(G.n_arrows))


def source_haar(G: FiniteGroupoid, per_object) -> HaarSystem:
    """Weights depending only on the source object; always left-invariant."""
    per_object = np.asarray(per_object, dtype=float)
    return HaarSystem(per_object[np.asarray(G.src, dtype=np.intp)])


def check_left_invariance(G: FiniteGroupoid, mu: HaarSystem,
                          atol: float | None = None) -> Report:
    """Pointwise invariance weight(g o h) = weight(h), over all composites.

    Checking this identity on every composable pair is the same as checking
    the fiber-integral form on all indicator functions, because translation
    by g is a bijection between the two fibers.
    """
    atol = tolerances.exact_tol(atol)
    rep = Report("haar-left-invariance")
    if len(mu.weights) != G.n_arrows:
        rep.add("shape", "weight vector length differs from the arrow count")
        return rep
    g, h, gh = G.products()
    err = np.abs(mu.weights[gh] - mu.weights[h])
    for i in np.flatnonzero(err > atol).tolist():
        rep.add("left-invariance",
                f"weight({G.arrow_ids[g[i]]} o {G.arrow_ids[h[i]]}) != "
                f"weight({G.arrow_ids[h[i]]})", residual=float(err[i]))
    return rep


def _as_function(G: FiniteGroupoid, f) -> np.ndarray:
    f = np.asarray(f, dtype=complex)
    if f.shape != (G.n_arrows,):
        raise ShapeMismatch(
            f"function has shape {f.shape}, expected ({G.n_arrows},)")
    return f


def delta(G: FiniteGroupoid, arrow: int) -> np.ndarray:
    out = np.zeros(G.n_arrows, dtype=complex)
    out[arrow] = 1.0
    return out


def fiber_integrate(G: FiniteGroupoid, mu: HaarSystem, f) -> np.ndarray:
    """Per-object integral of f over the target fiber."""
    f = _as_function(G, f)
    out = np.zeros(G.n_objects, dtype=complex)
    np.add.at(out, np.asarray(G.tgt, dtype=np.intp), f * mu.weights)
    return out


def convolve(G: FiniteGroupoid, mu: HaarSystem, f, g) -> np.ndarray:
    f = _as_function(G, f)
    g = _as_function(G, g)
    outs, lefts, rights = G.convolution_plan()
    out = np.zeros(G.n_arrows, dtype=complex)
    np.add.at(out, outs, f[lefts] * g[rights] * mu.weights[lefts])
    return out


def involute(G: FiniteGroupoid, f) -> np.ndarray:
    f = _as_function(G, f)
    return np.conj(f[np.asarray(G.inverse, dtype=np.intp)])


def unit_function(G: FiniteGroupoid, mu: HaarSystem) -> np.ndarray:
    """The convolution unit: inverse unit weight on each unit arrow."""
    out = np.zeros(G.n_arrows, dtype=complex)
    for x in range(G.n_objects):
        u = G.unit_of[x]
        if u is None:
            raise ValueError(f"object {G.objects[x]} has no unit arrow")
        out[u] = 1.0 / mu.weights[u]
    return out


def _fiber_masses(G: FiniteGroupoid, mu: HaarSystem, absf: np.ndarray):
    tmass = np.zeros(G.n_objects)
    smass = np.zeros(G.n_objects)
    inv = np.asarray(G.inverse, dtype=np.intp)
    np.add.at(tmass, np.asarray(G.tgt, dtype=np.intp), absf * mu.weights)
    np.add.at(smass, np.asarray(G.src, dtype=np.intp), absf * mu.weights[inv])
    return tmass, smass


def i_norm(G: FiniteGroupoid, mu: HaarSystem, f) -> float:
    """Max of the two sup-over-objects fiber integrals of |f|.

    The target form weighs an arrow by its own weight, the source form by
    the weight of its inverse (the image measure under inversion).
    """
    f = _as_function(G, f)
    if G.n_arrows == 0:
        return 0.0
    tmass, smass = _fiber_masses(G, mu, np.abs(f))
    return float(max(tmass.max(), smass.max()))


def support_fiber_mass(G: FiniteGroupoid, mu: HaarSystem, support) -> float:
    """Largest fiber mass of an arrow set; Lipschitz constant for the I-norm.

    For any f supported inside the set, ||f||_I <= mass * max|f|.
    """
    mask = np.zeros(G.n_arrows)
    mask[list(support)] = 1.0
    return i_norm(G, mu, mask)


def half_density_inner(G: FiniteGroupoid, mu: HaarSystem, f, g) -> complex:
    """Weighted sesquilinear pairing sum f(a) conj(g(a)) weight(a)."""
    f = _as_function(G, f)
    g = _as_function(G, g)
    return complex(np.sum(f * np.conj(g) * mu.weights))


def function_to_matrix(G: FiniteGroupoid, f) -> np.ndarray:
    """Matrix picture of a function on a relation groupoid: F[t, s] = f(arrow s->t)."""
    f = _as_function(G, f)
    out = np.zeros((G.n_objects, G.n_objects), dtype=complex)
    for a in range(G.n_arrows):
        out[G.tgt[a], G.src[a]] = f[a]
    return out


def matrix_to_function(G: FiniteGroupoid, M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.shape != (G.n_objects, G.n_objects):
        raise ShapeMismatch("matrix shape does not match the object count")
    return M[G.tgt, G.src]
