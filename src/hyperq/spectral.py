"""Tensor spectral machinery for uniform hypergraphs.

The adjacency action is evaluated implicitly: for a weight vector x,

    (A x)_i = sum over edges e containing i of  prod_{v in e, v != i} x_v.

The 1/(r-1)! coefficient in the tensor definition cancels against the
(r-1)! orderings of each edge, so no factorial appears here.  The
signless Laplacian adds the diagonal degree term d(i) * x_i^(r-1).

The spectral radius is found by bracketed power iteration: at each
positive iterate the ratios y_i / x_i^(r-1) enclose the true radius
(Collatz-Wielandt), so the returned [lower, upper] bracket is valid even
before convergence.  Weak irreducibility holds only per connected
component, so disconnected inputs are solved component by component and
the largest radius wins.
"""

import math
import operator
from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    NegativeEntryError,
    NoConvergenceError,
    NotNormalizedError,
)
from .hypergraph import Hypergraph

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless_laplacian"
OPERATORS = (ADJACENCY, SIGNLESS_LAPLACIAN)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN_STEPS = 200  # before _golden_max gives up; they narrow the bracket about 1e42-fold


@dataclass(eq=False)
class SpectralResult:
    """Outcome of a spectral-radius computation.

    ``lower`` and ``upper`` bracket the true radius unconditionally;
    ``rho`` is the Rayleigh estimate at the final iterate, clipped into
    the bracket.  ``eigenvector`` lives in the full vertex space with
    zeros off the winning component.  ``history`` records the winning
    component's (lower, upper) bracket per iteration.
    """

    rho: float
    lower: float
    upper: float
    eigenvector: np.ndarray
    iterations: int
    residual: float
    converged: bool
    history: tuple[tuple[float, float], ...] = field(default=(), repr=False)


def _check_weights(hg: Hypergraph, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (hg.n,):
        raise DimensionMismatchError(f"weight vector has shape {x.shape}, expected ({hg.n},)")
    if not np.all(np.isfinite(x)):
        raise ArgumentRangeError("weight vector has non-finite entries")
    return x


def _adjacency(edges: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """(A x)_i over an explicit (m, r) edge array."""
    out = np.zeros(n)  # a float start: bincount of an empty column counts in int64
    vals = [x[col] for col in edges.T]
    # leave-one-out product at position j: the product of the values before
    # j, taken left to right, times the product of those after j, taken
    # right to left; 1.0 stands for an empty product, as cumprod ones did
    prefix = [1.0, *accumulate(vals[:-1], operator.mul)]
    suffix = [*accumulate(vals[:0:-1], operator.mul)][::-1] + [1.0]
    for col, before, after in zip(list(edges.T), prefix, suffix):
        out += np.bincount(col, weights=before * after, minlength=n)
    return out


def _apply(hg: Hypergraph, x: np.ndarray, operator: str) -> np.ndarray:
    """The operator's action on weights x that _check_weights has passed."""
    y = _adjacency(hg.edge_array, hg.n, x)
    if operator == SIGNLESS_LAPLACIAN:
        y += np.bincount(hg.edge_array.ravel(), minlength=hg.n) * x ** (hg.r - 1)
    return y


def apply_adjacency(hg: Hypergraph, x) -> np.ndarray:
    """Adjacency tensor action on x."""
    return _apply(hg, _check_weights(hg, x), ADJACENCY)


def apply_signless_laplacian(hg: Hypergraph, x) -> np.ndarray:
    """Signless Laplacian action: degree diagonal plus adjacency."""
    return _apply(hg, _check_weights(hg, x), SIGNLESS_LAPLACIAN)


def rayleigh_q(hg: Hypergraph, x) -> float:
    """Edge-sum form of the signless Laplacian Rayleigh quotient.

    Equals sum over edges of (sum_{v in e} x_v^r + r * prod_{v in e} x_v),
    which for unit r-norm x coincides with x . (Q x).  Any such value is a
    lower bound on the signless Laplacian spectral radius.
    """
    x = _check_weights(hg, x)
    if np.any(x < 0):
        raise NegativeEntryError("rayleigh_q requires nonnegative weights")
    total = float(np.sum(np.abs(x) ** hg.r))
    if abs(total - 1.0) > 1e-9:
        raise NotNormalizedError(f"r-norm^r of weights is {total}, expected 1")
    vals = x[hg.edge_array]
    return float(np.sum(vals**hg.r) + hg.r * np.sum(np.prod(vals, axis=1)))


def eigen_residual(hg: Hypergraph, rho: float, x, operator: str = SIGNLESS_LAPLACIAN) -> float:
    """Max-norm defect of the eigenequation T(x) = rho * x^[r-1]."""
    if operator not in OPERATORS:
        raise ArgumentRangeError(f"unknown operator {operator!r}")
    x = _check_weights(hg, x)
    return float(np.max(np.abs(_apply(hg, x, operator) - rho * x ** (hg.r - 1)), initial=0.0))


def _component_iterate(edges, n, r, operator, tol, max_iter) -> SpectralResult:
    """Bracketed power iteration on one connected, edge-bearing piece.

    The adjacency operator is iterated as A + I, whose positive diagonal
    keeps the plain iteration from cycling, and the shift is taken off
    the bracket; the signless Laplacian already has a positive diagonal.
    """
    if operator == ADJACENCY:
        shift, diag = 1.0, np.ones(n)
    else:
        shift, diag = 0.0, np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    x = np.full(n, n ** (-1.0 / r))
    history = []
    for iterations in range(1, max_iter + 1):
        xp = x ** (r - 1)
        y = _adjacency(edges, n, x)
        y += diag * xp
        ratios = y / xp
        lower = float(ratios.min()) - shift
        upper = float(ratios.max()) - shift
        history.append((lower, upper))
        converged = upper - lower <= tol * max(upper, 1.0)
        if converged or iterations == max_iter:
            break  # x stays the iterate that y and the bracket belong to
        x = y ** (1.0 / (r - 1))
        x /= np.sum(x**r) ** (1.0 / r)
    # Rayleigh estimate at the final iterate; x has unit r-norm, so the
    # estimate is a convex combination of the ratios and lies in the bracket
    rho = float(np.clip(float(np.dot(x, y)) - shift, lower, upper))
    residual = float(np.max(np.abs(y - shift * xp - rho * xp)))
    return SpectralResult(rho, lower, upper, x, iterations, residual, converged, tuple(history))


def spectral_radius(
    hg: Hypergraph,
    operator: str = SIGNLESS_LAPLACIAN,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Largest H-eigenvalue of the chosen nonnegative tensor.

    Disconnected inputs are handled per component; the result
    carries the winning component's bracket and eigenvector (embedded in
    the full vertex space), total iterations across components, and
    converged = all components converged.  On hitting max_iter the best
    bracket is returned with converged False rather than raising.
    """
    if operator not in OPERATORS:
        raise ArgumentRangeError(f"unknown operator {operator!r}")
    if not 0 < tol < math.inf:
        raise ArgumentRangeError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ArgumentRangeError(f"max_iter must be >= 1, got {max_iter}")

    if hg.m == 0:
        vec = np.full(hg.n, hg.n ** (-1.0 / hg.r)) if hg.n else np.zeros(0)
        return SpectralResult(0.0, 0.0, 0.0, vec, 0, 0.0, True)

    comps = hg.components()
    if len(comps) == 1:
        # one component holds every vertex: no renumbering needed
        grouped, ends = hg.edge_array, [hg.m]
    else:
        # group the edges by component, keeping their order; rank renumbers each component from 0
        sizes = np.array([len(comp) for comp in comps])
        members = np.concatenate(comps)
        label = np.empty(hg.n, dtype=np.int64)
        label[members] = np.repeat(np.arange(len(comps)), sizes)
        rank = np.empty(hg.n, dtype=np.int64)
        rank[members] = np.arange(hg.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        edge_label = label[hg.edge_array[:, 0]]
        grouped = rank[hg.edge_array[np.argsort(edge_label, kind="stable")]]
        ends = np.cumsum(np.bincount(edge_label, minlength=len(comps))).tolist()

    solved = [
        (comp, _component_iterate(grouped[start:stop], len(comp), hg.r, operator, tol, max_iter))
        for comp, start, stop in zip(comps, [0] + ends, ends)
        if start < stop
    ]
    # max keeps the first of equal radii
    comp, best = max(solved, key=lambda item: item[1].rho)
    vec = np.zeros(hg.n)
    vec[comp] = best.eigenvector
    return replace(
        best,
        eigenvector=vec,
        iterations=sum(res.iterations for _, res in solved),
        converged=all(res.converged for _, res in solved),
    )


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximum of a 1-D concave function on [lo, hi]."""
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(_GOLDEN_STEPS):
        if hi - lo <= 1e-13 * max(abs(lo), abs(hi), 1.0):
            mid = 0.5 * (lo + hi)
            return mid, f(mid)
        if f1 > f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    raise NoConvergenceError(f"golden-section bracket still {hi - lo} wide after {_GOLDEN_STEPS} iterations")


def rayleigh_maximize_bruteforce(
    hg: Hypergraph, restarts: int = 3, steps: int = 60, rng_seed: int = 0
) -> tuple[float, np.ndarray]:
    """Direct maximization of rayleigh_q over the nonnegative unit sphere.

    Multi-start coordinate ascent on the scale-invariant quotient
    F(y) / ||y||_r^r; each coordinate subproblem is solved by golden
    section with an adaptive upper bracket.  Deterministic for a fixed
    seed.  Intended as an independent cross-check of the power iteration
    on small instances (n <= 12 or so); cost grows as restarts * steps *
    n * m * r.
    """
    if restarts < 1:
        raise ArgumentRangeError(f"restarts must be >= 1, got {restarts}")
    if steps < 1:
        raise ArgumentRangeError(f"steps must be >= 1, got {steps}")
    n, r = hg.n, hg.r
    if hg.m == 0:
        vec = np.full(n, n ** (-1.0 / r)) if n else np.zeros(0)
        return 0.0, vec
    edges = hg.edges
    deg = hg.degrees()
    rng = np.random.default_rng(rng_seed)
    best_val = -1.0
    best_y = None
    for start in range(restarts):
        y = [1.0] * n if start == 0 else rng.uniform(0.2, 1.0, size=n).tolist()
        for _ in range(steps):
            moved = 0.0
            for i in range(n):
                # restricted objective: G(t) = (d_i t^r + r s_i t + K) / (t^r + c)
                s_i = 0.0
                big_k = 0.0
                for e in edges:
                    p = 1.0
                    for v in e:
                        if v != i:
                            p *= y[v]
                            big_k += y[v] ** r
                    if i in e:
                        s_i += p
                    else:
                        big_k += r * p
                c = sum(y[v] ** r for v in range(n) if v != i)

                def g(t):
                    denom = t**r + c
                    if denom == 0.0:
                        return 0.0
                    return (deg[i] * t**r + r * s_i * t + big_k) / denom

                hi = max(2.0 * y[i], 1.0)
                while g(2.0 * hi) > g(hi):
                    hi *= 2.0
                t, _ = _golden_max(g, 0.0, hi)
                moved = max(moved, abs(t - y[i]))
                y[i] = t
            nrm = sum(t**r for t in y) ** (1.0 / r)
            y = [t / nrm for t in y]
            if moved < 1e-10:
                break
        f_val = sum(sum(y[v] ** r for v in e) + r * math.prod(y[v] for v in e) for e in edges)
        val = f_val / sum(t**r for t in y)
        if val > best_val:
            best_val = val
            best_y = list(y)
    vec = np.asarray(best_y)
    vec /= np.sum(vec**r) ** (1.0 / r)
    return float(best_val), vec
