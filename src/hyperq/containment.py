"""Subhypergraph containment, Fano-freeness, and 2-colorability.

Containment means plain subgraph containment: an injective vertex map
sending every pattern edge onto some host edge.  Induced containment and
embedding counts are out of scope.
"""

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UniformityMismatchError
from .hypergraph import Hypergraph, TwoColoring, build_fano


@dataclass(frozen=True)
class Embedding:
    """Injective map pattern vertex i -> host vertex mapping[i]."""

    mapping: tuple[int, ...]

    def is_valid_for(self, host: Hypergraph, pattern: Hypergraph) -> bool:
        if len(self.mapping) != pattern.n or host.r != pattern.r:
            return False
        if len(set(self.mapping)) != pattern.n:
            return False
        if any(not 0 <= h < host.n for h in self.mapping):
            return False
        images = np.sort(np.array(self.mapping)[pattern.edge_array], axis=1)
        return all((host.edge_array == f).all(axis=1).any() for f in images)


def contains_subgraph(host: Hypergraph, pattern: Hypergraph) -> Embedding | None:
    """Exhaustive embedding search; returns a witness or None.

    Backtracks over pattern vertices in a static order (descending pattern
    degree, ties by id).  Candidates at each level must extend every
    pattern edge completed there to a host edge; they are read off a
    completion index mapping each (r-1)-subset of a host edge to the
    vertices completing it, which enforces the edge-closure check while
    generating candidates.  Host-degree pruning is applied on top.

    Symmetry breaking (Grochow & Kellis, RECOMB 2007) makes the search
    visit each orbit of embeddings under Aut(pattern) once: the witness is
    the first assignment in search order that satisfies the pattern's
    conditions phi(a) < phi(b) (see `_symmetry_conditions`).  The witness
    is still deterministic, and when the identity map is an embedding the
    conditions admit it.
    """
    if host.r != pattern.r:
        raise UniformityMismatchError(f"host is {host.r}-uniform, pattern {pattern.r}-uniform")
    if pattern.n > host.n or pattern.m > host.m:
        return None
    mapping = next(_embeddings(host, pattern, _symmetry_conditions(pattern)), None)
    return None if mapping is None else Embedding(mapping)


@lru_cache(maxsize=64)
def _symmetry_conditions(pattern: Hypergraph) -> tuple[tuple[int, int], ...]:
    """Pairs (a, b) such that every orbit of embeddings under Aut(pattern)
    holds exactly one embedding phi with phi(a) < phi(b) for all pairs.

    Walks the stabiliser chain of the vertices in id order: with the
    vertices below v fixed, every u > v in the orbit of v gives the pair
    (v, u).  A vertex whose orbit is trivial adds nothing.  The orbit test
    is one pattern-into-pattern search per pair, stopping at its first
    automorphism, so Aut(pattern) is never enumerated: a pattern with many
    interchangeable vertices costs n(n-1)/2 searches, not |Aut| leaves.
    All pairs have a < b, so the identity satisfies them.
    """
    conditions = []
    for v in range(pattern.n):
        fixed = {w: w for w in range(v)}
        for u in range(v + 1, pattern.n):
            if next(_embeddings(pattern, pattern, (), {**fixed, v: u}), None) is not None:
                conditions.append((v, u))
    return tuple(conditions)


def _embeddings(
    host: Hypergraph,
    pattern: Hypergraph,
    conditions: Iterable[tuple[int, int]],
    pinned: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every embedding of pattern into host, as mapping tuples, in search order.

    Each condition (a, b) demands phi(a) < phi(b); it bounds the candidates
    at the level where the later of a and b is placed.  ``pinned`` fixes
    the images of some pattern vertices, which are placed first.
    """
    pinned = pinned or {}
    completions: dict[tuple[int, ...], list[int]] = {}
    cols = host.edge_array.T.tolist()
    for i, col in enumerate(cols):
        for others, v in zip(zip(*cols[:i], *cols[i + 1 :]), col):
            completions.setdefault(others, []).append(v)

    pat_deg = pattern.degrees()
    host_deg = host.degrees()
    order = sorted(range(pattern.n), key=lambda v: (v not in pinned, -pat_deg[v], v))
    level = {v: k for k, v in enumerate(order)}
    # pattern edges grouped by the level at which their last vertex is placed
    finishing: list[list[tuple[int, ...]]] = [[] for _ in range(pattern.n)]
    for f in pattern.edges:
        k = max(level[v] for v in f)
        finishing[k].append(tuple(v for v in f if v != order[k]))
    # per level, the earlier-placed vertices whose images bound it below / above
    below: list[list[int]] = [[] for _ in range(pattern.n)]
    above: list[list[int]] = [[] for _ in range(pattern.n)]
    for a, b in conditions:
        if level[a] < level[b]:
            below[level[b]].append(a)
        else:
            above[level[a]].append(b)

    assign = [-1] * pattern.n
    used = [False] * host.n

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == pattern.n:
            yield tuple(assign)
            return
        p = order[k]
        lo = max((assign[a] for a in below[k]), default=-1)
        hi = min((assign[b] for b in above[k]), default=host.n)
        if p in pinned:
            lo, hi = max(lo, pinned[p] - 1), min(hi, pinned[p] + 1)
        if finishing[k]:
            cand: set[int] | None = None
            for others in finishing[k]:
                key = tuple(sorted(assign[v] for v in others))
                completers = completions.get(key)
                if not completers:
                    return
                cand = set(completers) if cand is None else cand & set(completers)
                if not cand:
                    return
            candidates = [h for h in sorted(cand) if lo < h < hi]
        else:
            candidates = range(lo + 1, hi)
        need = pat_deg[p]
        for h in candidates:
            if used[h] or host_deg[h] < need:
                continue
            assign[p] = h
            used[h] = True
            yield from extend(k + 1)
            used[h] = False
            assign[p] = -1

    return extend(0)


def is_fano_free(hg: Hypergraph) -> bool:
    """True iff hg contains no copy of the Fano plane."""
    if hg.r != 3:
        raise UniformityMismatchError(f"Fano-freeness needs a 3-uniform hypergraph, got r={hg.r}")
    return contains_subgraph(hg, build_fano()) is None


def two_coloring(hg: Hypergraph) -> TwoColoring | None:
    """A proper 2-coloring of hg, or None when every assignment fails.

    Backtracking over vertices (descending degree) with unit propagation:
    once all but one vertex of an edge carry the same label, the last
    vertex is forced to the other label.  Vertices with no incident edges
    get label 0.  The first decision vertex is fixed to label 0; the
    complement of a proper coloring is proper, so this loses nothing.
    Decisions live on an explicit stack, so the search depth is not
    bounded by the recursion limit.
    """
    n = hg.n
    edges, incidence = hg.edges, hg.incidence
    labels = [-1] * n
    for v in range(n):
        if not incidence[v]:
            labels[v] = 0
    order = [v for v in sorted(range(n), key=lambda v: (-len(incidence[v]), v)) if labels[v] < 0]

    def propagate(v: int, c: int, trail: list[int]) -> bool:
        stack = [(v, c)]
        while stack:
            v, c = stack.pop()
            if labels[v] >= 0:
                if labels[v] != c:
                    return False
                continue
            labels[v] = c
            trail.append(v)
            for idx in incidence[v]:
                edge = edges[idx]
                unassigned = -1
                seen = set()
                for u in edge:
                    if labels[u] < 0:
                        if unassigned >= 0:
                            unassigned = -2  # two or more open, nothing to do
                            break
                        unassigned = u
                    else:
                        seen.add(labels[u])
                if unassigned == -1 and len(seen) == 1:
                    return False  # monochromatic edge
                if unassigned >= 0 and len(seen) == 1:
                    stack.append((unassigned, 1 - seen.pop()))
        return True

    decisions: list[tuple[int, int, list[int]]] = []  # (position in order, label, trail)
    i, c = 0, 0
    while True:
        while i < len(order) and labels[order[i]] >= 0:
            i += 1
        if i == len(order):
            return TwoColoring.from_assignment(labels)
        trail: list[int] = []
        if propagate(order[i], c, trail):
            decisions.append((i, c, trail))
            i, c = i + 1, 0
            continue
        # undo back to a decision that can switch to label 1 (the first one never does)
        while True:
            for u in trail:
                labels[u] = -1
            if c == 0 and decisions:
                c = 1
                break
            if not decisions:
                return None
            i, c, trail = decisions.pop()
