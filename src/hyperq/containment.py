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

The same fact prunes the embedding search of any pattern with no proper
2-coloring: under any 2-coloring of the host, each copy has a monochromatic
host edge.  A search that outlasts its first tick colors the host by a
greedy descent (`_monochromatic_vertices`) and from then on drops every
placement after which no pattern edge can still map onto a monochromatic
edge.  The prune is exact: it cuts only branches without embeddings, so
the embeddings and their order do not change.
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
    one AND of the vertex's domain and the complement of the used images.
    A domain starts as the host vertices whose degree is at least the
    pattern vertex's, and every limit on an image is an AND into it.

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
    conditions phi(a) < phi(b) (see `_symmetry_conditions`).  When the
    earlier-placed vertex of a condition takes its image, the later one's
    domain keeps only the ids on the allowed side, so forward checking also
    cuts the branches that the conditions leave dead.  The witness is still
    deterministic, and when the identity map is an embedding the conditions
    admit it.

    Coloring prune (the argument of Furedi & Simonovits, see the module
    docstring): when the pattern has no proper 2-coloring, each copy holds a
    pattern edge f mapped onto an edge that is monochromatic under any fixed
    2-coloring of the host.  After its first tick, the search takes a near
    2-coloring with few monochromatic edges, and a placement survives only
    while some pattern edge f and color c remain such that c has a
    monochromatic edge and every placed vertex of f lies on one.  On B_n plus
    one in-part edge this leaves the copies through that edge; on a properly
    colored host nothing survives, which proves it free of the pattern.  A
    search that ends inside its first tick pays nothing for the prune.
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


@lru_cache(maxsize=64)
def _colorable(pattern: Hypergraph) -> bool:
    """Whether pattern has a proper 2-coloring, by `_colorings`."""
    return any(found is not None for found in _colorings(pattern))


def _bitmask(flags: np.ndarray) -> int:
    """The host vertices v with flags[v], as a bitmask."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _monochromatic_vertices(host: Hypergraph) -> list[int]:
    """V(M_c) for each color c, 0 then 1, that has a monochromatic host edge
    under a near 2-coloring of host: the bitmask of the vertices on such an
    edge.  An empty list means the coloring is proper.

    The coloring comes from a greedy 1-flip descent: every vertex starts with
    label 0, then the vertex whose flip removes the most monochromatic edges
    is flipped, lowest id first on ties, until no flip removes any.  Each
    flip removes at least one, so there are at most m flips.  A flip of v
    updates only the gains of the vertices on v's edges, read off the CSR
    incidence of the host's k covered vertices (`Hypergraph._covered`, one
    sort per host), so it costs O(r*deg v + k), the k for the argmax.
    """
    (_, edges, offsets, at), r = host._covered, host.r
    labels, slot = np.zeros((2, len(offsets) - 1), dtype=np.int64)  # slot: a vertex's position in one flip
    ones = np.zeros(host.m, dtype=np.int64)  # per edge, its vertices labelled 1

    # share[2c + l]: the gain that an edge with c ones gives a member labelled l,
    # whether the edge is monochromatic (0 or r ones) now less whether it is
    # once that member flips
    c = np.arange(r + 1)
    monochromatic = (c % r == 0).astype(np.int64)
    share = (monochromatic[:, None] - monochromatic[np.clip(c[:, None] + [1, -1], 0, r)]).ravel()

    def shares(ones_e: np.ndarray, members: np.ndarray) -> np.ndarray:
        return share[2 * ones_e[:, None] + labels[members]]

    # with every label 0, each edge at v is monochromatic and stops being so when v flips
    gain = np.diff(offsets)
    # argmax takes the first of equal gains, so the lowest id
    while host.m and gain[v := int(gain.argmax())] > 0:
        e = at[offsets[v] : offsets[v + 1]]
        members = np.take(edges, e, axis=0)
        before = shares(ones[e], members)
        ones[e] += 1 - 2 * labels[v]
        labels[v] ^= 1
        delta = (shares(ones[e], members) - before).ravel()
        # slot[u] ends as one of u's positions in members, whichever write
        # lands last, so the bincount sums u's changes there in O(r*deg v)
        members = members.ravel()
        slot[members] = np.arange(len(members))
        sums = np.bincount(slot[members], delta, minlength=len(members))
        moved = np.flatnonzero(sums)
        gain[members[moved]] += sums[moved].astype(np.int64)
    insides = []
    for color in (ones == 0, ones == r):
        if color.any():
            inside = np.zeros(host.n, dtype=bool)
            inside[host.edge_array[color]] = True
            insides.append(_bitmask(inside))
    return insides


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

    Each condition (a, b) demands phi(a) < phi(b): once the earlier-placed
    of a and b has its image h, the other's domain is cut to the ids above h
    (if it is b) or below h (if it is a).  ``pinned`` fixes the images of
    some pattern vertices, which are placed first: a pinned vertex's domain
    starts as its one id.  Sets of host vertices are bitmasks (see
    `contains_subgraph`); a completer mask
    is built the first time the search reads its key and kept until the
    generator ends or is closed, since one mask per key would cost up to
    n/8 bytes each.  The completion index is built on the first `next`, and
    the coloring prune's masks (see `contains_subgraph`) on the first `next`
    after the first tick, when the pattern has no proper 2-coloring.

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
    # per level, the later-placed vertex of each condition whose earlier vertex
    # is placed there, and whether it must map above that image (else below)
    bounds: list[list[tuple[int, bool]]] = [[] for _ in range(pattern.n)]
    for a, b in conditions:
        if level[a] < level[b]:
            bounds[level[a]].append((b, True))
        else:
            bounds[level[b]].append((a, False))

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
    at_least = {d: _bitmask(host_deg >= d) for d in set(pat_deg)}
    del host_deg  # n entries: free them before the search starts
    assign = [-1] * pattern.n
    nodes = 0
    # the coloring prune, switched on after the first tick (see `contains_subgraph`):
    # V(M_c) for each color c with a monochromatic host edge, and per pattern
    # vertex the bitmask of the pattern edges through it
    insides: list[int] | None = None
    touching = [0] * pattern.n

    def placeable(k: int) -> int:
        """The host vertices that order[k] may take so that some pattern edge
        can still map onto a monochromatic edge: -1 for all of them."""
        keep = 0
        for inside in insides:
            # the pattern edges whose placed vertices all lie on an edge of this color
            alive = (1 << pattern.m) - 1
            for v in order[:k]:
                if not inside >> assign[v] & 1:
                    alive &= ~touching[v]
            if alive & ~touching[order[k]]:
                return -1
            if alive:
                keep |= inside
        return keep

    def extend(k: int, used: int, domains: list[int]) -> Iterator[tuple[int, ...] | None]:
        nonlocal nodes, insides
        nodes += 1
        if not nodes % _SEARCH_TICK:
            yield None
            if nodes == _SEARCH_TICK and not _colorable(pattern):
                insides = _monochromatic_vertices(host)
                for i, f in enumerate(pattern.edges):
                    for v in f:
                        touching[v] |= 1 << i
        if k == pattern.n:
            yield tuple(assign)
            return
        p = order[k]
        cand = domains[p] & ~used
        fixed = [(q, tuple([assign[v] for v in earlier])) for q, earlier in pending[k]]
        pruned = False
        while cand:
            if insides is not None and not pruned:
                # once per level, also at the levels whose loop was running when the prune went on
                pruned = True
                cand &= placeable(k)
                continue
            low = cand & -cand
            cand ^= low
            h = assign[p] = low.bit_length() - 1
            placed = used | low
            narrowed = domains.copy() if fixed or bounds[k] else domains
            for q, up in bounds[k]:
                narrowed[q] &= -(2 << h) if up else (1 << h) - 1
            for q, images in fixed:
                key = images + (h,)
                mask = masks.get(key)
                narrowed[q] &= completer_mask(key) if mask is None else mask
                if not narrowed[q] & ~placed:
                    break
            else:
                yield from extend(k + 1, placed, narrowed)

    domains = [at_least[d] for d in pat_deg]
    for v, h in pinned.items():
        domains[v] &= 1 << h
    try:
        yield from extend(0, 0, domains)
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
    alone to its end.  That search uses the same fact through the coloring
    prune (see `contains_subgraph`), so on a host that a near 2-coloring
    leaves with few monochromatic edges it looks only at copies through them.
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
    without a copy, the coloring search runs on alone to its end.  Vertices
    on no edge get label 0.
    """
    if hg.r == 3:
        procedure, found = _race(hg, _COLORING)
        labels = found if procedure == _COLORING else None
    else:
        labels = next((found for found in _colorings(hg) if found is not None), None)
    if labels is None:
        return None
    assignment = np.zeros(hg.n, dtype=np.int64)
    assignment[hg._covered[0]] = labels
    return TwoColoring.from_assignment(assignment.tolist())


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

    It runs on the host's covered vertices, renumbered in id order, which
    keeps the search order (`Hypergraph._covered`), and yields their labels.
    """
    _, edges, offsets, at = hg._covered
    labels = [-1] * (len(offsets) - 1)
    order = np.argsort(-np.diff(offsets), kind="stable").tolist()
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
            for edge in edges[at[offsets[v] : offsets[v + 1]]].tolist():
                open_vertex = None
                for u in edge:
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
            visits += offsets[v + 1] - offsets[v]
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
    yield labels
