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
    degree, ties by id), trying each level's candidates in ascending host
    id.  A candidate set is a Python int used as a bitmask over host ids:
    one AND of the vertex's domain, the complement of the used images, and
    the interval its symmetry conditions allow.  A domain starts as the
    host vertices whose degree is at least the pattern vertex's.

    Forward checking (Haralick & Elliott, Artif. Intell. 14, 1980): once a
    pattern edge has a single unplaced vertex q, q's domain is cut to the
    host vertices completing the images of the other r-1 vertices to a host
    edge, read off a completion index built once per call.  A placement
    that leaves some such domain without an unused vertex is undone at
    once, so a dead branch is cut where it is made rather than where it
    runs dry; the embeddings found and their order do not change.

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


def _completion_index(host: Hypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For every (r-1)-subset of a host edge, the host vertices completing it
    to an edge, in CSR form: ``(keys, offsets, completers)``.

    ``keys`` holds the distinct subsets in lexicographic order, one row per
    position (shape ``(r-1, u)``, each row contiguous for `searchsorted`);
    the completers of subset j are ``completers[offsets[j]:offsets[j + 1]]``.
    Every temporary is an array of r*m or fewer entries, freed on return.

    The rows are sorted by `np.lexsort` over int64 words, each packing as
    many consecutive id columns as fit in 63 bits; for n^(r-1) < 2^63 that
    is one word, and a stable sort of one packed key is about twice as
    fast as a lexsort over the columns.
    """
    edges, r, m = host.edge_array, host.r, host.m
    bits = max(1, (host.n - 1).bit_length())
    per = 63 // bits
    # row i*m + e is edge e without its i-th vertex, which completes it;
    # word k packs the row's remaining ids per*k .. per*k + per - 1
    words = []
    for s in range(0, r - 1, per):
        words.append(np.zeros(r * m, dtype=np.int64))
        for j in range(s, min(s + per, r - 1)):
            words[-1] <<= bits
            words[-1] |= np.concatenate([edges[:, j + (j >= i)] for i in range(r)])
    order = np.lexsort(words[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for w in words:
        w = w[order]
        new[1:] |= w[1:] != w[:-1]
    del words, w  # free the r*m-entry words before the completers are gathered
    starts = np.flatnonzero(new)
    i, e = np.divmod(order[starts], m)
    j = np.arange(r - 1)[:, None]
    keys = edges[e, j + (j >= i)]
    return keys, np.append(starts, len(order)), edges.T.ravel()[order]


def _embeddings(
    host: Hypergraph,
    pattern: Hypergraph,
    conditions: Iterable[tuple[int, int]],
    pinned: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """Every embedding of pattern into host, as mapping tuples, in search order.

    Each condition (a, b) demands phi(a) < phi(b); it bounds the candidates
    at the level where the later of a and b is placed.  ``pinned`` fixes
    the images of some pattern vertices, which are placed first.  Sets of
    host vertices are bitmasks (see `contains_subgraph`); a completer mask
    is built the first time the search reads its key and kept for this
    call only, since one mask per key would cost up to n/8 bytes each.

    Known limit: a mask's size follows the highest completer id, not the
    number of completers, so on a host whose ids spread over a large n the
    memo costs up to n/8 bytes for every distinct key the search reads.
    """
    pinned = pinned or {}
    pat_deg = pattern.degrees()
    order = sorted(range(pattern.n), key=lambda v: (v not in pinned, -pat_deg[v], v))
    level = {v: k for k, v in enumerate(order)}
    # per level, the pattern edges left with one unplaced vertex q once that
    # level's vertex is placed, as (q, the vertices placed before that level)
    pending: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(pattern.n)]
    for f in pattern.edges:
        *earlier, last, q = sorted(f, key=level.__getitem__)
        pending[level[last]].append((q, tuple(earlier)))
    # per level, the earlier-placed vertices whose images bound it below / above
    below: list[list[int]] = [[] for _ in range(pattern.n)]
    above: list[list[int]] = [[] for _ in range(pattern.n)]
    for a, b in conditions:
        if level[a] < level[b]:
            below[level[b]].append(a)
        else:
            above[level[a]].append(b)

    keys, offsets, completers = _completion_index(host)
    # completer masks by the images of r-1 pattern vertices, in the order the
    # search reads them; every order of one subset shares the int of its
    # sorted order, so a mask is stored once and only a miss pays a sort
    masks: dict[tuple[int, ...], int] = {}

    def completer_mask(images: tuple[int, ...]) -> int:
        subset = tuple(sorted(images))
        mask = masks.get(subset)
        if mask is None:
            lo, hi = 0, len(offsets) - 1
            for col, h in zip(keys, subset):
                part = col[lo:hi]
                lo, hi = lo + int(part.searchsorted(h)), lo + int(part.searchsorted(h, "right"))
            # a key's completers close distinct edges, so they differ and their sum is their OR
            mask = sum(1 << h for h in completers[offsets[lo] : offsets[hi]].tolist())
            masks[subset] = mask
        masks[images] = mask
        return mask

    host_deg = np.bincount(host.edge_array.ravel(), minlength=host.n)
    at_least = {
        d: int.from_bytes(np.packbits(host_deg >= d, bitorder="little").tobytes(), "little") for d in set(pat_deg)
    }
    assign = [-1] * pattern.n

    def extend(k: int, used: int, domains: list[int]) -> Iterator[tuple[int, ...]]:
        if k == pattern.n:
            yield tuple(assign)
            return
        p = order[k]
        lo = max((assign[a] for a in below[k]), default=-1)
        hi = min((assign[b] for b in above[k]), default=host.n)
        if p in pinned:
            lo, hi = max(lo, pinned[p] - 1), min(hi, pinned[p] + 1)
        if hi <= lo + 1:
            return
        cand = domains[p] & ~used & ((1 << hi) - (1 << (lo + 1)))
        fixed = [(q, tuple([assign[v] for v in earlier])) for q, earlier in pending[k]]
        while cand:
            low = cand & -cand
            cand ^= low
            h = assign[p] = low.bit_length() - 1
            placed = used | low
            narrowed = domains.copy() if fixed else domains
            for q, images in fixed:
                key = images + (h,)
                mask = masks.get(key)
                narrowed[q] &= completer_mask(key) if mask is None else mask
                if not narrowed[q] & ~placed:
                    break
            else:
                yield from extend(k + 1, placed, narrowed)

    return extend(0, 0, [at_least[d] for d in pat_deg])


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
    edges, incidence = hg.edges, hg.incidence
    labels = [-1 if inc else 0 for inc in incidence]
    order = [v for v in sorted(range(hg.n), key=lambda v: (-len(incidence[v]), v)) if labels[v] < 0]

    def propagate(v: int, c: int, trail: list[int]) -> bool:
        stack = [(v, c)]
        while stack:
            v, c = stack.pop()
            if labels[v] >= 0:
                continue
            labels[v] = c
            trail.append(v)
            other = 1 - c
            # each edge at v holds c: unless it holds `other`, its one open vertex is forced
            for idx in incidence[v]:
                open_vertex = None
                for u in edges[idx]:
                    label = labels[u]
                    if label == other:
                        break
                    if label < 0:
                        if open_vertex is not None:
                            break  # two open vertices, nothing forced yet
                        open_vertex = u
                else:
                    if open_vertex is None:
                        return False  # monochromatic edge
                    stack.append((open_vertex, other))
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
