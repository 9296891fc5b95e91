"""Extremal counts and numeric verification for Fano-free 3-graphs.

Centerpiece formulas: the Fano Turán count

    ex(n) = C(n,3) - C(floor(n/2),3) - C(ceil(n/2),3),

the signless Laplacian radius bounds for the balanced complete two-part
3-graph B_n, and the two-block reduction

    C'(a,b,u,v) = b*C(a,2)*(2u + v + 3 u^(2/3) v^(1/3))
                + a*C(b,2)*(2v + u + 3 u^(1/3) v^(2/3)),   a*u + b*v = 1,

whose constrained maximum equals q of the complete two-part 3-graph with
part sizes (a, b): both parts are orbits of the automorphism group, so
the positive eigenvector is constant on each part and the Rayleigh
maximization collapses to one variable.  The checks below evaluate these
quantities and compare them at user-chosen sizes; they are desk-scale
evidence, not proofs of the asymptotic statements.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ArgumentRangeError, DisconnectedError, NoConvergenceError, TooSmallError
from .hypergraph import Hypergraph, build_bn, build_two_part_complete, delete_vertex
from .spectral import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    SIGNLESS_LAPLACIAN,
    SpectralResult,
    _golden_max,
    _radii,
    spectral_radius,
)

def fano_turan_number(n: int) -> int:
    """Extremal edge count C(n,3) - C(floor(n/2),3) - C(ceil(n/2),3).

    Evaluated for every n >= 0; the count is known to be the true
    Fano-free maximum only for large n.
    """
    if n < 0:
        raise ArgumentRangeError(f"n must be >= 0, got {n}")
    return math.comb(n, 3) - math.comb(n // 2, 3) - math.comb((n + 1) // 2, 3)


def bn_q_bounds(n: int) -> tuple[float, float]:
    """Enclosure for the signless Laplacian radius q(B_n).

    Even n: exactly (3/4)n^2 - (3/2)n.  Odd n: the value lies in
    [(3/4)n^2 - (3/2)n - 3/4 + 3/(2n), (3/4)n^2 - (3/2)n - 1/4].
    """
    if n < 4:
        raise ArgumentRangeError(f"bounds need n >= 4, got {n}")
    base = 0.75 * n * n - 1.5 * n
    if n % 2 == 0:
        return base, base
    return base - 0.75 + 1.5 / n, base - 0.25


@dataclass(frozen=True)
class SplitProfile:
    """Optimum of the two-block reduction for part sizes (a, b).

    u and v are the per-part cube weights (u = x^3, v = y^3) subject to
    a*u + b*v = 1; q_value is the maximized objective.
    """

    n: int
    a: int
    b: int
    u: float
    v: float
    q_value: float
    x: float
    y: float

    def __post_init__(self):
        if not self.u > 0 or not self.v > 0:
            raise ArgumentRangeError(f"block weights must be positive, got u={self.u}, v={self.v}")
        if abs(self.a * self.u + self.b * self.v - 1.0) > 1e-10:
            raise ArgumentRangeError("block weights violate a*u + b*v = 1")
        cap = 0.75 * self.n * self.n - 1.5 * self.n - (self.a - self.n / 2.0) ** 2
        if self.q_value > cap + 1e-6:
            raise ArgumentRangeError(f"q_value {self.q_value} exceeds the split cap {cap}")


class CriterionRecord(NamedTuple):
    n: int
    slack: float
    passed: bool


@dataclass(frozen=True)
class CriterionParams:
    """Inputs for the two numeric growth conditions.

    pi is the Turán density of the forbidden family (must exceed 1/2),
    r the uniformity, sigma the slack budget, and n_range an inclusive
    (low, high) interval of sizes to check.
    """

    pi: float
    r: int
    sigma: float
    n_range: tuple[int, int]

    def __post_init__(self):
        if not 0.5 < self.pi < 1.0:
            raise ArgumentRangeError(f"density must lie in (1/2, 1), got {self.pi}")
        if self.r < 2:
            raise ArgumentRangeError(f"uniformity must be >= 2, got {self.r}")
        if not 0 < self.sigma < math.inf:
            raise ArgumentRangeError(f"sigma must be finite and > 0, got {self.sigma}")
        lo, hi = self.n_range
        if lo < 2 or hi < lo:
            raise ArgumentRangeError(f"need 2 <= low <= high, got {self.n_range}")


@dataclass(frozen=True)
class DeletionCheck:
    lhs: float
    rhs: float
    passed: bool
    w: int


@dataclass(frozen=True)
class CompetitorRecord:
    kind: str
    detail: str
    q: float
    margin: float
    strict: bool


@dataclass(frozen=True)
class ExtremalityReport:
    n: int
    samples: int
    q_reference: float
    competitors: tuple[CompetitorRecord, ...]
    max_q: float
    margin: float
    passed: bool


def two_block_q(a: int, b: int) -> SplitProfile:
    """Maximize the two-block objective for part sizes (a, b).

    Eliminating v through the constraint leaves a concave 1-D objective
    in u (linear terms plus weighted geometric means), so golden-section
    search over u in (0, 1/a) finds the global maximum.  The result
    equals q of the complete two-part 3-graph with these part sizes.
    """
    if a < 1 or b < 1 or a + b < 3:
        raise ArgumentRangeError(f"parts must satisfy a, b >= 1 and a + b >= 3, got ({a}, {b})")
    n = a + b
    ca = b * math.comb(a, 2)
    cb = a * math.comb(b, 2)

    def objective(u: float) -> float:
        v = (1.0 - a * u) / b
        return ca * (2.0 * u + v + 3.0 * u ** (2.0 / 3.0) * v ** (1.0 / 3.0)) + cb * (
            2.0 * v + u + 3.0 * u ** (1.0 / 3.0) * v ** (2.0 / 3.0)
        )

    delta = 1e-12
    u, q = _golden_max(objective, delta, 1.0 / a - delta)
    v = (1.0 - a * u) / b
    return SplitProfile(n, a, b, u, v, q, u ** (1.0 / 3.0), v ** (1.0 / 3.0))


def scan_splits(n: int) -> tuple[list[SplitProfile], int]:
    """Two-block optimum for every split a + b = n; returns the winner.

    Ties go to the a nearest ceil(n/2), the smaller one at equal distance.
    Whether the winner is balanced, as the structural prediction for these
    objectives says, is left to callers.
    """
    if n < 4:
        raise ArgumentRangeError(f"scan needs n >= 4, got {n}")
    target = (n + 1) // 2
    profiles = [two_block_q(a, n - a) for a in range(1, n)]
    # max keeps the first of equal keys: the smaller a at equal distance
    return profiles, max(profiles, key=lambda p: (p.q_value, -abs(p.a - target))).a


def bn_scan_q(n: int) -> float:
    """q(B_n) evaluated through the split scan (best two-block value)."""
    profiles, best_a = scan_splits(n)
    return profiles[best_a - 1].q_value


def check_condition1(
    params: CriterionParams, ex_fn: Callable[[int], int]
) -> list[CriterionRecord]:
    """First growth condition: one-step differences of the extremal count.

    For each n, slack = |ex(n) - ex(n-1) - pi/(r-1)! * n^(r-1)|; the
    record passes when slack <= sigma * n^(r-1).
    """
    lo, hi = params.n_range
    coeff = params.pi / math.factorial(params.r - 1)
    out = []
    for n in range(lo, hi + 1):
        slack = abs(ex_fn(n) - ex_fn(n - 1) - coeff * n ** (params.r - 1))
        out.append(CriterionRecord(n, slack, slack <= params.sigma * n ** (params.r - 1)))
    return out


def check_condition2(
    params: CriterionParams,
    q_fn: Callable[[int], float],
    ex_fn: Callable[[int], int],
) -> list[CriterionRecord]:
    """Second growth condition: spectral value against the edge-count ratio.

    For each n, slack = |q(n) - 2r * ex(n) / n|; passes when
    slack <= sigma * n^(r-2).
    """
    lo, hi = params.n_range
    out = []
    for n in range(lo, hi + 1):
        slack = abs(q_fn(n) - 2.0 * params.r * ex_fn(n) / n)
        out.append(CriterionRecord(n, slack, slack <= params.sigma * n ** (params.r - 2)))
    return out


def _converged(res: SpectralResult, n: int, m: int) -> SpectralResult:
    """res, the spectral result of a host with n vertices and m edges;
    raises NoConvergenceError rather than pass on an unconverged value."""
    if not res.converged:
        raise NoConvergenceError(
            f"spectral iteration on n={n}, m={m} did not converge in {res.iterations} iterations"
        )
    return res


def _converged_radius(hg: Hypergraph, tol: float, max_iter: int) -> SpectralResult:
    """spectral_radius(hg); raises NoConvergenceError rather than return an unconverged value."""
    return _converged(spectral_radius(hg, tol=tol, max_iter=max_iter), hg.n, hg.m)


def check_deletion_lemma(
    hg: Hypergraph, slack: float = 1e-8, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> DeletionCheck:
    """Vertex-deletion inequality at the eigenvector's smallest entry.

    With q = q(H), x its positive unit eigenvector, w = argmin x_w and
    t = x_w^r, the claim is

        q(H - w) >= (1 - r t)/(1 - t) * q - n^(r-2)/(r-2)! * (1 - (n-1) t)/(1 - t).

    Returns both sides and whether lhs >= rhs - slack.  ``tol`` and
    ``max_iter`` go to both spectral iterations; raises NoConvergenceError
    if either does not converge.
    """
    if hg.r < 3:
        raise ArgumentRangeError(f"deletion check needs r >= 3, got r={hg.r}")
    if hg.m < 2:
        raise TooSmallError(f"deletion check needs at least 2 edges, got {hg.m}")
    comps = hg.components()
    if len(comps) != 1:
        raise DisconnectedError("deletion check needs a connected hypergraph")
    # the solve takes the components found here rather than find them again
    res = _converged(next(_radii([hg], SIGNLESS_LAPLACIAN, tol, max_iter, comps)), hg.n, hg.m)
    x = res.eigenvector
    w = int(np.argmin(x))
    t = float(x[w]) ** hg.r
    n, r = hg.n, hg.r
    rhs = (1.0 - r * t) / (1.0 - t) * res.rho - (
        n ** (r - 2) / math.factorial(r - 2) * (1.0 - (n - 1) * t) / (1.0 - t)
    )
    lhs = _converged_radius(delete_vertex(hg, w), tol, max_iter).rho
    return DeletionCheck(lhs, rhs, lhs >= rhs - slack, w)


def _random_colorable(rng: random.Random, n: int, splits: dict[int, np.ndarray]) -> Hypergraph:
    """A random sub-hypergraph of some complete two-part 3-graph, never B_n.

    ``splits`` maps a part size a to the edge array of the complete
    two-part 3-graph with parts (a, n - a); a split missing from it is
    built and added, so each is built once for all draws that share it.
    """
    a = rng.randint(1, n - 1)
    if a not in splits:
        splits[a] = build_two_part_complete(a, n - a)[0].edge_array
    full = splits[a]
    keep = rng.uniform(0.6, 0.95)
    edges = full[np.array([rng.random() for _ in range(len(full))]) < keep]
    edges = edges if len(edges) else full[:1]
    # a balanced split with nothing dropped would be B_n itself (or its
    # mirror labeling, which has the same q): force a strict competitor
    if len(edges) == len(full) and abs(2 * a - n) <= 1:
        edges = np.delete(edges, rng.randrange(len(edges)), axis=0)
    return Hypergraph(3, n, edges)


def verify_extremality(
    n: int, samples: int = 20, rng_seed: int = 0, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> ExtremalityReport:
    """Sampled check that B_n beats its Fano-free competitors on q.

    Competitors: every unbalanced complete split, `samples` random edge
    deletions from B_n, and `samples` random sub-hypergraphs of complete
    two-part 3-graphs.  Each must stay below q(B_n) by more than 1e-8.
    Desk-scale evidence for the extremal statement, not a proof.  B_n and
    the sampled hosts are solved together in one batched spectral
    iteration, each with the numbers spectral_radius gives it alone.
    ``tol`` and ``max_iter`` go to that iteration; raises
    NoConvergenceError for the first host that does not converge, B_n
    first and then the samples in the order they were drawn.
    """
    if n < 7:
        raise ArgumentRangeError(f"extremality check needs n >= 7, got {n}")
    if samples < 1:
        raise ArgumentRangeError(f"samples must be >= 1, got {samples}")
    rng = random.Random(rng_seed)
    base, _ = build_bn(n)
    drawn = []  # (kind, detail, m) of each competitor host, in draw order
    splits = {}  # the complete two-part edge arrays that _random_colorable draws from

    def hosts():
        yield base
        for _ in range(samples):
            k = rng.randint(1, 3)
            hg = Hypergraph(3, n, np.delete(base.edge_array, rng.sample(range(base.m), k), axis=0))
            drawn.append(("edge-deletion", f"dropped={k}", hg.m))
            yield hg
        for _ in range(samples):
            hg = _random_colorable(rng, n, splits)
            drawn.append(("random-colorable", f"m={hg.m}", hg.m))
            yield hg

    # _radii draws the hosts a wave at a time, ahead of their results
    solved = _radii(hosts(), SIGNLESS_LAPLACIAN, tol, max_iter)
    q_ref = _converged(next(solved), n, base.m).rho

    competitors = []

    def add(kind, detail, q):
        margin = q_ref - q
        competitors.append(CompetitorRecord(kind, detail, q, margin, margin > 1e-8))

    for a in range(1, n):
        if abs(2 * a - n) > 1:
            add("unbalanced-split", f"a={a} b={n - a}", two_block_q(a, n - a).q_value)
    for res, (kind, detail, m) in zip(solved, drawn):  # each result is drawn before its entry is read
        add(kind, detail, _converged(res, n, m).rho)

    max_q = max(c.q for c in competitors)
    return ExtremalityReport(
        n=n,
        samples=samples,
        q_reference=q_ref,
        competitors=tuple(competitors),
        max_q=max_q,
        margin=q_ref - max_q,
        passed=all(c.strict for c in competitors),
    )
