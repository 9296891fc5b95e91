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
from bisect import bisect_left
from collections import Counter
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
from .hypergraph import Hypergraph, _components

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


def _layout(
    hosts: list[Hypergraph], comps: list[list[int]] | None
) -> tuple[list[list[int]], list[int], list[int], np.ndarray]:
    """The edge-bearing components of the hosts' disjoint union, the cuts
    that give host h the blocks cuts[h] to cuts[h + 1], the hosts' vertex
    offsets, and the union's edges renumbered into consecutive blocks.

    Host h's vertex v is vertex offsets[h] + v of the union, so the union's
    components are the hosts' own, host by host, each host's in its own
    order; ``comps``, when given, are those of the one host.  Component k
    takes the next len(comp) ids, its vertices in increasing order; an
    edge-bearing component has at least two vertices.  The renumbering
    increases within each component, so the lex-sorted edges of each host,
    stably sorted by their new first vertex, are grouped by block, keep
    their order within it, and stay sorted by first vertex.
    """
    offsets = [*accumulate((hg.n for hg in hosts), initial=0)]
    if len(hosts) == 1:
        edges = hosts[0].edge_array
        comps = hosts[0].components() if comps is None else comps
    else:
        edges = np.concatenate([hg.edge_array for hg in hosts])
        edges += np.repeat(offsets[:-1], [hg.m for hg in hosts])[:, None]
        comps = _components(edges, offsets[-1])
    blocks = [comp for comp in comps if len(comp) > 1]
    members = [v for comp in blocks for v in comp]
    if members != list(range(len(members))):
        pos = np.empty(offsets[-1], dtype=np.int64)
        pos[members] = np.arange(len(members))
        edges = pos[edges[np.argsort(pos[edges[:, 0]], kind="stable")]]
    # the blocks are in order of their least vertex, so each host's are consecutive
    cuts = [bisect_left(blocks, offset, key=operator.itemgetter(0)) for offset in offsets]
    return blocks, cuts, offsets, edges


def _size_groups(lens: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int]], list[np.ndarray]]:
    """Starts and ends of consecutive blocks of these lengths, and by length
    the range of each block whose length no other has and, for each length
    L that k > 1 blocks share, the (k, L) array of their vertex ids."""
    ends = lens.cumsum()
    starts = ends - lens
    count = Counter(lens.tolist())
    lone, shared = [], []
    for size in sorted(count):
        firsts = starts[lens == size]
        if count[size] == 1:
            lone.append((int(firsts[0]), int(firsts[0]) + size))
        else:
            shared.append(firsts[:, None] + np.arange(size))
    return starts, ends, lone, shared


def _edgeless(hg: Hypergraph) -> SpectralResult:
    vec = np.full(hg.n, hg.n ** (-1.0 / hg.r)) if hg.n else np.zeros(0)
    return SpectralResult(0.0, 0.0, 0.0, vec, 0, 0.0, True)


def _radii(
    hosts: Iterable[Hypergraph], operator: str, tol: float, max_iter: int, comps: list[list[int]] | None = None
) -> Iterator[SpectralResult]:
    """spectral_radius of each host, all of one uniformity, one host at a time.

    Consecutive hosts go to _iterate_blocks together, in waves of at most
    _WAVE_EDGES edges (a larger host makes a wave alone).  Hosts are drawn
    from ``hosts`` a wave ahead of their results.  The wave bounds the
    kernel's temporaries, which grow with the edges in one call, and a
    caller that keeps only what it needs of each result holds neither
    every host nor every history at once.  A caller that has the
    components of a lone host passes them as ``comps``.
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
            yield from _iterate_blocks(wave, operator, tol, max_iter, comps)
            wave, edges = [], 0
        wave.append(hg)
        edges += hg.m
    if wave:
        yield from _iterate_blocks(wave, operator, tol, max_iter, comps)


def _iterate_blocks(
    hosts: list[Hypergraph], operator: str, tol: float, max_iter: int, comps: list[list[int]] | None = None
) -> Iterator[SpectralResult]:
    """The hosts' spectral results by one batched, bracketed power iteration.

    Every edge-bearing component of every host is a block: the blocks lie
    in one vertex range one after another, and each step applies the
    operator to all blocks still running in one kernel call.  The tensor
    is weakly irreducible on each block, so the block's own ratios
    y_i / x_i^(r-1) bracket its radius (Collatz-Wielandt).  A block that
    meets tol, or reaches max_iter, freezes: its x, y and x^(r-1) go into
    one (3, n) array at its layout ids, where its host reads its best
    block.  Each block's r-norm and final dot product are taken on its own
    vertices, so its numbers are those of iterating it alone; the r-norms
    of the running blocks of one length are summed at once.

    The adjacency operator is iterated as A + I, whose positive diagonal
    keeps the plain iteration from cycling, and the shift is taken off
    the bracket; the signless Laplacian already has a positive diagonal.
    """
    blocks, cuts, offsets, edges = _layout(hosts, comps)
    if not blocks:
        yield from map(_edgeless, hosts)
        return
    size_list = [len(comp) for comp in blocks]
    r, n, sizes = hosts[0].r, sum(size_list), np.array(size_list)
    if operator == ADJACENCY:
        shift, diag = 1.0, np.ones(n)
    else:
        shift, diag = 0.0, np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    x = np.array([size ** (-1.0 / r) for size in size_list]).repeat(sizes)
    solved = [None] * len(blocks)  # per block, once frozen: (rho, converged, iterations)
    final = np.empty((3, n))  # x, y and x^(r-1) of each frozen block, at its layout ids
    ids, lens, verts = np.arange(len(blocks)), sizes, np.arange(n)  # the running blocks, their vertices' layout ids
    starts, ends, lone, shared = _size_groups(lens)
    origins = starts.tolist()
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
            dots = [np.dot(x[a:b], y[a:b]) for a, b in zip(starts[halt].tolist(), ends[halt].tolist())]
            rhos = (np.array(dots) - shift).clip(lower[halt], upper[halt])
            for block, rho, ok in zip(ids[halt].tolist(), rhos.tolist(), done[halt].tolist()):
                solved[block] = (rho, ok, step)
            # every running block is written, which costs less than picking
            # out the halted ones; a block's last write is the one at its freeze
            final[:, verts] = x, y, xp
            if len(halt) == len(ids):
                break
            keep = np.ones(len(ids), dtype=bool)
            keep[halt] = False
            live = keep.repeat(lens)
            # drop the frozen blocks; the edges stay grouped by block and sorted by first vertex
            rows = keep.repeat(np.diff(edges[:, 0].searchsorted(ends), prepend=0))
            edges = (live.cumsum() - 1)[edges[rows]]
            ids, lens, verts, y, diag = ids[keep], lens[keep], verts[live], y[live], diag[live]
            starts, ends, lone, shared = _size_groups(lens)
        x = y ** (1.0 / (r - 1))
        xr = x**r
        # a lone block is a slice, which costs less than a gather; the blocks
        # of a shared length are the rows of one array, and a row sums as its
        # slice does.  The powers stay scalar: an array power may round otherwise.
        for a, b in lone:
            x[a:b] /= xr[a:b].sum() ** (1.0 / r)
        for index in shared:
            norms = [total ** (1.0 / r) for total in xr[index].sum(axis=1).tolist()]
            x[index] /= np.array(norms)[:, None]

    # a block runs in every step until it freezes: sorted stably by block,
    # its brackets are consecutive and in step order
    running = np.concatenate(running)
    order = np.argsort(running, kind="stable")
    lows, ups = np.concatenate(lows)[order], np.concatenate(ups)[order]
    history_ends = np.bincount(running).cumsum().tolist()
    for hg, first, last, offset in zip(hosts, cuts, cuts[1:], offsets):
        if first == last:
            yield _edgeless(hg)
            continue
        own = solved[first:last]
        best = max(range(first, last), key=lambda k: solved[k][0])  # max keeps the first of equal radii
        rho, _, steps = solved[best]
        comp, start = blocks[best], origins[best]
        x, y, xp = final[:, start : start + len(comp)]
        end = history_ends[best]
        history = tuple(zip(lows[end - steps : end].tolist(), ups[end - steps : end].tolist()))
        vec = np.zeros(hg.n)
        vec[np.subtract(comp, offset)] = x
        residual = float(np.abs(y - shift * xp - rho * xp).max())
        iterations = sum(block[2] for block in own)
        converged = all(block[1] for block in own)
        yield SpectralResult(rho, *history[-1], vec, iterations, residual, converged, history)


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
        return 0.0, _edgeless(hg).eigenvector
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
