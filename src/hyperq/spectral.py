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
from dataclasses import dataclass, field

import numpy as np

from .errors import ArgumentRangeError, DimensionMismatchError, NegativeEntryError, NotNormalizedError
from .hypergraph import Hypergraph

ADJACENCY = "adjacency"
SIGNLESS_LAPLACIAN = "signless_laplacian"
OPERATORS = (ADJACENCY, SIGNLESS_LAPLACIAN)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 100_000


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
    out = np.zeros(n)
    m, r = edges.shape
    if m == 0:
        return out
    vals = x[edges]
    # leave-one-out products per edge position via prefix * suffix
    prefix = np.ones((m, r))
    suffix = np.ones((m, r))
    prefix[:, 1:] = np.cumprod(vals[:, :-1], axis=1)
    suffix[:, -2::-1] = np.cumprod(vals[:, :0:-1], axis=1)
    partial = prefix * suffix
    for j in range(r):
        out += np.bincount(edges[:, j], weights=partial[:, j], minlength=n)
    return out


def apply_adjacency(hg: Hypergraph, x) -> np.ndarray:
    """Adjacency tensor action on x."""
    x = _check_weights(hg, x)
    return _adjacency(hg.edge_array, hg.n, x)


def apply_signless_laplacian(hg: Hypergraph, x) -> np.ndarray:
    """Signless Laplacian action: degree diagonal plus adjacency."""
    x = _check_weights(hg, x)
    deg = np.array(hg.degrees(), dtype=np.float64)
    return deg * x ** (hg.r - 1) + _adjacency(hg.edge_array, hg.n, x)


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
    if hg.m == 0:
        return 0.0
    vals = x[hg.edge_array]
    return float(np.sum(vals**hg.r) + hg.r * np.sum(np.prod(vals, axis=1)))


def eigen_residual(hg: Hypergraph, rho: float, x, operator: str = SIGNLESS_LAPLACIAN) -> float:
    """Max-norm defect of the eigenequation T(x) = rho * x^[r-1]."""
    if operator not in OPERATORS:
        raise ArgumentRangeError(f"unknown operator {operator!r}")
    x = _check_weights(hg, x)
    apply = apply_adjacency if operator == ADJACENCY else apply_signless_laplacian
    return float(np.max(np.abs(apply(hg, x) - rho * x ** (hg.r - 1)))) if hg.n else 0.0


def _component_iterate(edges, n, r, operator, tol, max_iter, shift):
    """Bracketed power iteration on one connected, edge-bearing piece."""
    deg = np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    x = np.full(n, n ** (-1.0 / r))
    history = []
    converged = False
    iterations = 0
    lower = upper = 0.0
    y = x
    for iterations in range(1, max_iter + 1):
        y = _adjacency(edges, n, x)
        if operator == SIGNLESS_LAPLACIAN:
            y += deg * x ** (r - 1)
        if shift:
            y += shift * x ** (r - 1)
        ratios = y / x ** (r - 1)
        lower = float(ratios.min()) - shift
        upper = float(ratios.max()) - shift
        history.append((lower, upper))
        if upper - lower <= tol * max(upper, 1.0):
            converged = True
            break
        if iterations == max_iter:
            break  # keep x consistent with the last y
        x = y ** (1.0 / (r - 1))
        x /= np.sum(x**r) ** (1.0 / r)
    # Rayleigh estimate at the final iterate; x has unit r-norm, so the
    # estimate is a convex combination of the ratios and lies in the bracket
    rho = float(np.clip(float(np.dot(x, y)) - shift, lower, upper))
    residual = float(np.max(np.abs(y - shift * x ** (r - 1) - rho * x ** (r - 1))))
    return rho, lower, upper, x, iterations, residual, converged, tuple(history)


def spectral_radius(
    hg: Hypergraph,
    operator: str = SIGNLESS_LAPLACIAN,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    shift: float | None = None,
) -> SpectralResult:
    """Largest H-eigenvalue of the chosen nonnegative tensor.

    ``shift`` defaults to 1.0 for the adjacency operator (whose zero
    diagonal can make the plain iteration cycle) and 0.0 for the signless
    Laplacian.  Disconnected inputs are handled per component; the result
    carries the winning component's bracket and eigenvector (embedded in
    the full vertex space), total iterations across components, and
    converged = all components converged.  On hitting max_iter the best
    bracket is returned with converged False rather than raising.
    """
    if operator not in OPERATORS:
        raise ArgumentRangeError(f"unknown operator {operator!r}")
    if tol <= 0:
        raise ArgumentRangeError(f"tol must be > 0, got {tol}")
    if max_iter < 1:
        raise ArgumentRangeError(f"max_iter must be >= 1, got {max_iter}")
    if shift is None:
        shift = 1.0 if operator == ADJACENCY else 0.0
    if shift < 0:
        raise ArgumentRangeError(f"shift must be >= 0, got {shift}")

    if hg.m == 0:
        vec = np.full(hg.n, hg.n ** (-1.0 / hg.r)) if hg.n else np.zeros(0)
        return SpectralResult(0.0, 0.0, 0.0, vec, 0, 0.0, True)

    # group the edges by component, keeping their order; rank renumbers each component from 0
    comps = hg.components()
    sizes = np.array([len(comp) for comp in comps])
    members = np.concatenate(comps)
    label = np.empty(hg.n, dtype=np.int64)
    label[members] = np.repeat(np.arange(len(comps)), sizes)
    rank = np.empty(hg.n, dtype=np.int64)
    rank[members] = np.arange(hg.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    edge_label = label[hg.edge_array[:, 0]]
    grouped = rank[hg.edge_array[np.argsort(edge_label, kind="stable")]]
    ends = np.cumsum(np.bincount(edge_label, minlength=len(comps))).tolist()

    best = None  # (rho, component index, per-component result, vertex list)
    total_iterations = 0
    all_converged = True
    for ci, (comp, start, stop) in enumerate(zip(comps, [0] + ends, ends)):
        if start == stop:
            continue
        res = _component_iterate(grouped[start:stop], len(comp), hg.r, operator, tol, max_iter, shift)
        total_iterations += res[4]
        all_converged = all_converged and res[6]
        if best is None or res[0] > best[0]:
            best = (res[0], ci, res, comp)

    rho, lower, upper, x, _, residual, _, history = best[2]
    vec = np.zeros(hg.n)
    vec[best[3]] = x
    return SpectralResult(rho, lower, upper, vec, total_iterations, residual, all_converged, history)


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
    if n == 0 or hg.m == 0:
        vec = np.full(n, n ** (-1.0 / r)) if n else np.zeros(0)
        return 0.0, vec
    edges = hg.edges
    deg = hg.degrees()
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    rng = np.random.default_rng(rng_seed)
    best_val = -1.0
    best_y = None
    for start in range(restarts):
        if start == 0:
            y = [1.0] * n
        else:
            y = [float(t) for t in rng.uniform(0.2, 1.0, size=n)]
        for _ in range(steps):
            moved = 0.0
            for i in range(n):
                # restricted objective: G(t) = (d_i t^r + r s_i t + K) / (t^r + c)
                s_i = 0.0
                big_k = 0.0
                for e in edges:
                    if i in e:
                        p = 1.0
                        for v in e:
                            if v != i:
                                p *= y[v]
                                big_k += y[v] ** r
                        s_i += p
                    else:
                        p = 1.0
                        for v in e:
                            p *= y[v]
                            big_k += y[v] ** r
                        big_k += r * p
                c = sum(y[v] ** r for v in range(n) if v != i)

                def g(t):
                    denom = t**r + c
                    if denom == 0.0:
                        return 0.0
                    return (deg[i] * t**r + r * s_i * t + big_k) / denom

                lo, hi = 0.0, max(2.0 * y[i], 1.0)
                while g(2.0 * hi) > g(hi):
                    hi *= 2.0
                x1 = hi - inv_phi * (hi - lo)
                x2 = lo + inv_phi * (hi - lo)
                f1, f2 = g(x1), g(x2)
                for _ in range(80):
                    if hi - lo < 1e-13 * max(1.0, hi):
                        break
                    if f1 > f2:
                        hi, x2, f2 = x2, x1, f1
                        x1 = hi - inv_phi * (hi - lo)
                        f1 = g(x1)
                    else:
                        lo, x1, f1 = x1, x2, f2
                        x2 = lo + inv_phi * (hi - lo)
                        f2 = g(x2)
                t = 0.5 * (lo + hi)
                moved = max(moved, abs(t - y[i]))
                y[i] = t
            nrm = sum(t**r for t in y) ** (1.0 / r)
            y = [t / nrm for t in y]
            if moved < 1e-10:
                break
        f_val = 0.0
        for e in edges:
            p = 1.0
            se = 0.0
            for v in e:
                p *= y[v]
                se += y[v] ** r
            f_val += se + r * p
        val = f_val / sum(t**r for t in y)
        if val > best_val:
            best_val = val
            best_y = list(y)
    vec = np.asarray(best_y)
    vec /= np.sum(vec**r) ** (1.0 / r)
    return float(best_val), vec
