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
component, so each edge-bearing component is its own block, with its own
bracket, and the largest radius wins.  One batched iteration serves all
blocks, of one host or of many, with one kernel call per step.
"""

import math
import operator
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
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
_WAVE_EDGES = 1 << 12  # edges that _radii hands to one batched iteration


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
    cols = edges.T
    vals = list(x[cols])
    # leave-one-out product at position j: the product of the values before
    # j, taken left to right, times the product of those after j, taken
    # right to left; the end positions have one side only
    before = [*accumulate(vals[:-1], operator.mul)]
    after = [*accumulate(vals[:0:-1], operator.mul)][::-1]
    weights = [after[0], *map(operator.mul, before[:-1], after[1:]), before[-1]]
    # bincount of an empty column counts in int64; edgeless results stay float64
    out = np.bincount(cols[0], weights[0], n).astype(np.float64, copy=False)
    for col, w in zip(cols[1:], weights[1:]):
        out += np.bincount(col, w, n)
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


def _layout(hg: Hypergraph) -> tuple[list[list[int]], np.ndarray]:
    """hg's edge-bearing components, and its edges renumbered so that these are consecutive blocks.

    Component k takes the next len(comp) ids, its vertices in increasing
    order; an edge-bearing component has at least two vertices.  The
    renumbering increases within each component, so the lex-sorted edges,
    stably sorted by their new first vertex, are grouped by block, keep
    their order within it, and stay sorted by first vertex.
    """
    blocks = [comp for comp in hg.components() if len(comp) > 1]
    members = [v for comp in blocks for v in comp]
    edges = hg.edge_array
    if members != list(range(len(members))):
        pos = np.empty(hg.n, dtype=np.int64)
        pos[members] = np.arange(len(members))
        edges = pos[edges[np.argsort(pos[edges[:, 0]], kind="stable")]]
    return blocks, edges


def _edgeless(hg: Hypergraph) -> SpectralResult:
    vec = np.full(hg.n, hg.n ** (-1.0 / hg.r)) if hg.n else np.zeros(0)
    return SpectralResult(0.0, 0.0, 0.0, vec, 0, 0.0, True)


def _radii(hosts: Iterable[Hypergraph], operator: str, tol: float, max_iter: int) -> Iterator[SpectralResult]:
    """spectral_radius of each host, all of one uniformity, one host at a time.

    Consecutive hosts go to _iterate_blocks together, in waves of at most
    _WAVE_EDGES edges (a larger host makes a wave alone).  Hosts are drawn
    from ``hosts`` a wave ahead of their results.  The wave bounds the
    kernel's temporaries, which grow with the edges in one call, and a
    caller that keeps only what it needs of each result holds neither
    every host nor every history at once.
    """
    if operator not in OPERATORS:
        raise ArgumentRangeError(f"unknown operator {operator!r}")
    if not 0 < tol < math.inf:
        raise ArgumentRangeError(f"tol must be finite and > 0, got {tol}")
    if max_iter < 1:
        raise ArgumentRangeError(f"max_iter must be >= 1, got {max_iter}")
    wave, edges = [], 0
    for hg in hosts:
        if wave and edges + hg.m > _WAVE_EDGES:
            yield from _iterate_blocks(wave, operator, tol, max_iter)
            wave, edges = [], 0
        wave.append(hg)
        edges += hg.m
    if wave:
        yield from _iterate_blocks(wave, operator, tol, max_iter)


def _iterate_blocks(hosts: list[Hypergraph], operator: str, tol: float, max_iter: int) -> Iterator[SpectralResult]:
    """The hosts' spectral results by one batched, bracketed power iteration.

    Every edge-bearing component of every host is a block: the blocks lie
    in one vertex range one after another, and each step applies the
    operator to all blocks still running in one kernel call.  The tensor
    is weakly irreducible on each block, so the block's own ratios
    y_i / x_i^(r-1) bracket its radius (Collatz-Wielandt).  A block that
    meets tol, or reaches max_iter, is frozen at that iterate and left
    out of later kernel calls.  Each block's r-norm and final dot product
    are taken on its own slice, so its numbers are those of iterating it
    alone.  Each host then takes its best block.

    The adjacency operator is iterated as A + I, whose positive diagonal
    keeps the plain iteration from cycling, and the shift is taken off
    the bracket; the signless Laplacian already has a positive diagonal.
    """
    laid = [_layout(hg) for hg in hosts]
    size_list = [len(comp) for blocks, _ in laid for comp in blocks]
    if not size_list:
        yield from map(_edgeless, hosts)
        return
    if len(laid) == 1:
        edges = laid[0][1]
    else:
        edges = np.concatenate([host_edges for _, host_edges in laid])
        # shift each host's vertex ids past the blocks of the hosts before it
        offsets = [*accumulate((sum(map(len, blocks)) for blocks, _ in laid), initial=0)]
        edges += np.repeat(offsets[:-1], [len(host_edges) for _, host_edges in laid])[:, None]
    r, n, sizes = hosts[0].r, sum(size_list), np.array(size_list)
    if operator == ADJACENCY:
        shift, diag = 1.0, np.ones(n)
    else:
        shift, diag = 0.0, np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    x = np.array([size ** (-1.0 / r) for size in size_list]).repeat(sizes)
    # per block, once frozen: (rho, converged, iterations, index into finals, start in those slices)
    solved, finals = [None] * len(size_list), []
    ids, lens = np.arange(len(size_list)), sizes  # the running blocks
    ends = lens.cumsum()
    starts = ends - lens
    spans = list(zip(starts.tolist(), ends.tolist()))
    running, lows, ups = [], [], []
    for step in range(1, max_iter + 1):
        xp = x ** (r - 1)
        y = _adjacency(edges, len(x), x)
        y += diag * xp
        # rounding is monotone, so the least shifted ratio is the least ratio, shifted
        ratios = y / xp
        ratios -= shift
        lower = np.minimum.reduceat(ratios, starts)
        upper = np.maximum.reduceat(ratios, starts)
        running.append(ids)
        lows.append(lower)
        ups.append(upper)
        done = upper - lower <= tol * np.maximum(upper, 1.0)
        halt = done.nonzero()[0] if step < max_iter else np.arange(len(ids))
        if len(halt):
            # x stays the iterate that y and the bracket belong to; x has unit
            # r-norm, so the Rayleigh estimate is a convex combination of the
            # ratios and lies in the bracket
            dots = [np.dot(x[a:b], y[a:b]) for a, b in map(spans.__getitem__, halt.tolist())]
            rhos = (np.array(dots) - shift).clip(lower[halt], upper[halt])
            if len(halt) == len(ids):  # the last running blocks stop: keep the arrays whole
                at, kept = starts, (x, y, xp)
            else:
                keep = np.ones(len(ids), dtype=bool)
                keep[halt] = False
                live = keep.repeat(lens)
                # where each halted block starts in the slices kept of the frozen vertices
                at, kept = lens[halt].cumsum() - lens[halt], (x[~live], y[~live], xp[~live])
            for block, rho, ok, start in zip(ids[halt].tolist(), rhos.tolist(), done[halt].tolist(), at.tolist()):
                solved[block] = (rho, ok, step, len(finals), start)
            finals.append(kept)
            if len(halt) == len(ids):
                break
            # drop the frozen blocks; the edges stay grouped by block and sorted by first vertex
            rows = keep.repeat(np.diff(edges[:, 0].searchsorted(ends), prepend=0))
            edges = (live.cumsum() - 1)[edges[rows]]
            ids, lens = ids[keep], lens[keep]
            y, diag = y[live], diag[live]
            ends = lens.cumsum()
            starts = ends - lens
            spans = list(zip(starts.tolist(), ends.tolist()))
        x = y ** (1.0 / (r - 1))
        xr = x**r
        for a, b in spans:
            x[a:b] /= xr[a:b].sum() ** (1.0 / r)

    running, lows, ups = np.concatenate(running), np.concatenate(lows), np.concatenate(ups)
    first = 0
    for hg, (blocks, _) in zip(hosts, laid):
        if not blocks:
            yield _edgeless(hg)
            continue
        own = solved[first : first + len(blocks)]
        best = max(range(len(own)), key=lambda j: own[j][0])  # max keeps the first of equal radii
        rho, _, _, event, at = own[best]
        x, y, xp = (arr[at : at + len(blocks[best])] for arr in finals[event])
        # a block runs in every step until it freezes, so these are its brackets in order
        mine = running == first + best
        history = tuple(zip(lows[mine].tolist(), ups[mine].tolist()))
        vec = np.zeros(hg.n)
        vec[blocks[best]] = x
        residual = float(np.abs(y - shift * xp - rho * xp).max())
        iterations = sum(block[2] for block in own)
        converged = all(block[1] for block in own)
        yield SpectralResult(rho, *history[-1], vec, iterations, residual, converged, history)
        first += len(blocks)


def spectral_radius(
    hg: Hypergraph,
    operator: str = SIGNLESS_LAPLACIAN,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> SpectralResult:
    """Largest H-eigenvalue of the chosen nonnegative tensor.

    Every edge-bearing component is solved as one block of a single
    batched iteration, and the best block wins.  The result carries its
    bracket, history and eigenvector (embedded in the full vertex space,
    zero elsewhere), the iterations summed over components, and
    converged = all components converged.  On hitting max_iter the
    bracket is returned with converged False rather than raising.
    """
    return next(_radii([hg], operator, tol, max_iter))


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
