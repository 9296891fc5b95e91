"""Subhypergraph containment, Fano-freeness, and 2-colorability.

Containment means plain subgraph containment: an injective vertex map
sending every pattern edge onto some host edge.  Induced containment and
embedding counts are out of scope.

Two exact procedures, each a generator that pauses after a fixed amount
of work: the embedding search behind `contains_subgraph` (`_search`) and
the coloring search behind `two_coloring` (`_colorings`).  The Fano plane
is not 2-colorable, so a proper 2-coloring of a 3-graph proves it
Fano-free, and a Fano copy proves that it has no 2-coloring (Furedi &
Simonovits, Combin. Probab. Comput. 14, 2005).  `is_fano_free` and
`two_coloring` on 3-graphs therefore run both procedures in turns, on a
fixed schedule of doubling budgets counted in search nodes and edge
visits, never in wall time (`_race`), and answer from the first
certificate.  Every answer is the one the deciding procedure gives alone:
the same verdict, the same coloring and the same embedding.
`contains_subgraph` runs the embedding search alone.
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
    """Every embedding of pattern into host, as mapping tuples, in search order
    (see `_search`)."""
    return (mapping for mapping in _search(host, pattern, conditions, pinned) if mapping is not None)


def _search(
    host: Hypergraph,
    pattern: Hypergraph,
    conditions: Iterable[tuple[int, int]],
    pinned: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...] | None]:
    """`_embeddings`' search: every embedding in search order, with a None
    after every _SEARCH_TICK search nodes so that `_race` can take turns.

    Each condition (a, b) demands phi(a) < phi(b); it bounds the candidates
    at the level where the later of a and b is placed.  ``pinned`` fixes
    the images of some pattern vertices, which are placed first.  Sets of
    host vertices are bitmasks (see `contains_subgraph`); a completer mask
    is built the first time the search reads its key and kept until the
    generator ends or is closed, since one mask per key would cost up to
    n/8 bytes each.  The completion index is built on the first `next`.

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
    del host_deg  # n entries: free them before the search starts
    assign = [-1] * pattern.n
    nodes = 0

    def extend(k: int, used: int, domains: list[int]) -> Iterator[tuple[int, ...] | None]:
        nonlocal nodes
        nodes += 1
        if not nodes % _SEARCH_TICK:
            yield None
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

    try:
        yield from extend(0, 0, [at_least[d] for d in pat_deg])
    finally:
        # extend refers to itself through its closure: drop that cycle, which
        # holds the completion index and the masks, without waiting for gc
        del extend


def is_fano_free(hg: Hypergraph) -> bool:
    """True iff hg contains no copy of the Fano plane.

    Settled by whichever exact certificate `_race` finds first: a proper
    2-coloring proves the host free, since the Fano plane is not
    2-colorable, and an embedding proves that it is not.  When the coloring
    search ends first, without a coloring, the embedding search runs on
    alone to its end.
    """
    if hg.r != 3:
        raise UniformityMismatchError(f"Fano-freeness needs a 3-uniform hypergraph, got r={hg.r}")
    return _fano_copy(hg) is None


def _fano_copy(hg: Hypergraph) -> Embedding | None:
    """The Fano embedding `contains_subgraph` returns for the 3-graph hg, or
    None when hg is Fano-free, settled by `_race`."""
    procedure, found = _race(hg, _SEARCH)
    return Embedding(found) if procedure == _SEARCH and found is not None else None


def two_coloring(hg: Hypergraph) -> TwoColoring | None:
    """A proper 2-coloring of hg, or None when every assignment fails.

    The coloring is the first one the coloring search finds (see
    `_colorings`).  On a 3-graph that search races the Fano search (see
    `_race`): a Fano copy proves that no 2-coloring exists, since the Fano
    plane has none, and answers None.  When the Fano search ends first,
    without a copy, the coloring search runs on alone to its end.
    """
    if hg.r == 3:
        procedure, found = _race(hg, _COLORING)
        labels = found if procedure == _COLORING else None
    else:
        labels = next((found for found in _colorings(hg) if found is not None), None)
    return None if labels is None else TwoColoring.from_assignment(labels)


# The race's two procedures, and its schedule in deterministic units of work:
# turn k = 0, 1, 2, ... runs the coloring search for 2**k ticks of
# _COLORING_TICK edge visits, then the Fano search for 2**k ticks of
# _SEARCH_TICK search nodes.  One tick of either costs about the same, a
# fraction of a millisecond.  The coloring goes first: on small 2-colorable
# hosts, and on hosts where propagation alone refutes a coloring, it ends
# within its first tick, before the search has paid for its completion index.
_COLORING, _SEARCH = 0, 1
_COLORING_TICK = 2048
_SEARCH_TICK = 16
_DONE = object()
_FANO = build_fano()  # one instance, so `_symmetry_conditions` finds its cache entry by identity


def _race(hg: Hypergraph, question: int) -> tuple[int, list[int] | tuple[int, ...] | None]:
    """Dovetail the coloring search and the Fano search on the 3-graph hg.

    Returns ``(procedure, found)`` at the first of these events: a procedure
    yields its certificate (the coloring's labels, the first embedding), or
    the procedure named by ``question`` ends without one (found is None).
    The other procedure ending without a certificate settles nothing (a
    host with no 2-coloring may still be Fano-free, and a Fano-free host
    need not be 2-colorable), so the named one then runs on alone.  Both
    generators are closed before returning, which frees the completion
    index and the masks.
    """
    procedures = (_colorings(hg), _search(hg, _FANO, _symmetry_conditions(_FANO)))
    running = [_COLORING, _SEARCH]
    ticks = 1
    try:
        while True:
            for procedure in tuple(running):
                for _ in range(ticks):
                    found = next(procedures[procedure], _DONE)
                    if found is None:
                        continue
                    if found is _DONE:
                        if procedure != question:
                            running.remove(procedure)
                            break
                        found = None
                    return procedure, found
            ticks *= 2
    finally:
        for generator in procedures:
            generator.close()


def _colorings(hg: Hypergraph) -> Iterator[list[int] | None]:
    """`two_coloring`'s search: a None after every _COLORING_TICK edge visits,
    then the labels of the first proper 2-coloring, if hg has one.

    Backtracking over vertices (descending degree, ties by id) with unit
    propagation: once all but one vertex of an edge carry the same label,
    the last vertex is forced to the other label.  The first decision vertex
    is fixed to label 0; the complement of a proper coloring is proper, so
    this loses nothing.  Decisions live on an explicit stack, so the search
    depth is not bounded by the recursion limit.

    Vertices with no incident edges get label 0 and no decision: the search
    runs on the host without them, renumbered in id order, which keeps the
    search order, so it builds nothing per isolated vertex but its label.
    """
    present = np.zeros(hg.n, dtype=bool)
    present[hg.edge_array] = True
    verts = np.flatnonzero(present)
    core = hg if len(verts) == hg.n else Hypergraph(hg.r, len(verts), np.searchsorted(verts, hg.edge_array))
    edges, incidence = core.edges, core.incidence
    labels = [-1] * core.n
    order = sorted(range(core.n), key=lambda v: (-len(incidence[v]), v))
    visits = 0
    decisions: list[tuple[int, int, list[int]]] = []  # (position in order, label, trail)
    i, c = 0, 0
    while True:
        while i < len(order) and labels[order[i]] >= 0:
            i += 1
        if i == len(order):
            break
        # propagate the decision: label order[i] with c, then every vertex this forces
        trail: list[int] = []
        stack = [(order[i], c)]
        monochromatic = False
        while stack and not monochromatic:
            v, label_v = stack.pop()
            if labels[v] >= 0:
                continue
            labels[v] = label_v
            trail.append(v)
            other = 1 - label_v
            # each edge at v holds label_v: unless it holds `other`, its one open vertex is forced
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
                        monochromatic = True
                        break
                    stack.append((open_vertex, other))
            visits += len(incidence[v])
            if visits >= _COLORING_TICK:
                visits = 0
                yield None
        if not monochromatic:
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
                return
            i, c, trail = decisions.pop()
    if core is not hg:
        full = [0] * hg.n
        for v, label in zip(verts.tolist(), labels):
            full[v] = label
        labels = full
    yield labels
