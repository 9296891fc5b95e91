import tracemalloc
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq import containment, hypergraph
from hyperq.containment import (
    Embedding,
    _embeddings,
    _fano_copy,
    _search,
    _symmetry_conditions,
    contains_subgraph,
    is_fano_free,
    two_coloring,
)
from hyperq.errors import UniformityMismatchError
from hyperq.hypergraph import (
    Hypergraph,
    TwoColoring,
    build_bn,
    build_complete,
    build_fano,
    build_two_part_complete,
)

from conftest import hypergraphs


def brute_force_contains(host, pattern):
    """Oracle: try every injective vertex map."""
    host_edges = set(host.edges)
    for image in permutations(range(host.n), pattern.n):
        if all(tuple(sorted(image[v] for v in f)) in host_edges for f in pattern.edges):
            return True
    return False


def brute_force_two_colorable(hg):
    """Oracle: try all 2^n label assignments."""
    for labels in product((0, 1), repeat=hg.n):
        if all(len({labels[v] for v in e}) > 1 for e in hg.edges):
            return True
    return False


def reference_two_coloring(hg: Hypergraph) -> TwoColoring | None:
    """`two_coloring` as it was before its propagation scanned each edge
    once: the reference for the labels it returns."""
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


def reference_embeddings(
    host: Hypergraph,
    pattern: Hypergraph,
    conditions: Iterable[tuple[int, int]],
    pinned: dict[int, int] | None = None,
) -> Iterator[tuple[int, ...]]:
    """The set-intersection search that `_embeddings` replaced, kept verbatim
    as the reference: the bitmask search must yield the same embeddings in
    the same order."""
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


def reference_symmetry_conditions(pattern):
    """`_symmetry_conditions` over the reference search, uncached."""
    conditions = []
    for v in range(pattern.n):
        fixed = {w: w for w in range(v)}
        for u in range(v + 1, pattern.n):
            if next(reference_embeddings(pattern, pattern, (), {**fixed, v: u}), None) is not None:
                conditions.append((v, u))
    return tuple(conditions)


@st.composite
def search_problems(draw, rs=(2, 3, 4, 5), max_host_n=7):
    """(host, pattern, conditions, pinned) for each r in rs, the host drawn
    by `hosts_around`.  The conditions are none, the pattern's symmetry
    conditions or arbitrary pairs (which may contradict each other); pinned
    maps some pattern vertices to host ids, not necessarily injectively."""
    r = draw(st.sampled_from(rs))
    k = draw(st.integers(min_value=r, max_value=6) | st.integers(min_value=0, max_value=r))
    pool = list(combinations(range(k), r))
    pattern = Hypergraph(r, k, set(draw(st.lists(st.sampled_from(pool), max_size=3))) if pool else [])
    host = draw(hosts_around(pattern, max_host_n))
    kind = draw(st.sampled_from(["none", "symmetry", "pairs"]))
    conditions: tuple[tuple[int, int], ...] = ()
    if kind == "symmetry":
        conditions = reference_symmetry_conditions(pattern)
    elif kind == "pairs" and k >= 2:
        pairs = st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)).filter(lambda t: t[0] != t[1])
        conditions = tuple(draw(st.lists(pairs, max_size=4)))
    pinned = draw(st.none() | st.dictionaries(st.integers(0, k - 1), st.integers(0, host.n - 1), max_size=2)) if k else None
    return host, pattern, conditions, pinned


def without_isolated(hg):
    """hg on its non-isolated vertices, renumbered in id order."""
    keep = sorted({v for e in hg.edges for v in e})
    rank = {v: i for i, v in enumerate(keep)}
    return Hypergraph(hg.r, len(keep), [[rank[v] for v in e] for e in hg.edges])


@st.composite
def symmetric_patterns(draw):
    """Edge subsets of K4, K5 or K6 closed under a non-identity permutation,
    which is then an automorphism of the pattern."""
    k = draw(st.integers(min_value=4, max_value=6))
    sigma = draw(st.permutations(range(k)).filter(lambda s: s != list(range(k))))
    pool = list(combinations(range(k), 3))
    edges: set[tuple[int, ...]] = set()
    for e in draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)):
        while e not in edges:
            edges.add(e)
            e = tuple(sorted(sigma[v] for v in e))
    return Hypergraph(3, k, edges)


@st.composite
def hosts_around(draw, pattern, max_n):
    """A host on up to max_n vertices: random edges, with a relabelled copy
    of pattern planted or not."""
    n = draw(st.integers(min_value=max(pattern.n, pattern.r), max_value=max_n))
    pool = list(combinations(range(n), pattern.r))
    edges = set(draw(st.lists(st.sampled_from(pool), max_size=12)))
    if draw(st.booleans()):
        image = draw(st.permutations(range(n)))
        edges |= {tuple(sorted(image[v] for v in f)) for f in pattern.edges}
    return Hypergraph(pattern.r, n, edges)


@st.composite
def coloring_hosts(draw):
    """An r-graph for r = 2..5 on up to 2r+3 vertices, often with isolated
    vertices; half of them hold a copy of the complete r-graph on 2r-1
    vertices, which no 2-coloring makes free of monochromatic edges."""
    r = draw(st.sampled_from((2, 3, 4, 5)))
    return draw(hosts_around(build_complete(2 * r - 1, r), 2 * r + 3))


@st.composite
def bn_subgraphs(draw):
    """A seeded subgraph of B_n for n = 7..9 plus up to three in-part edges;
    an in-part edge and four vertices of the other part span a Fano copy
    when the subgraph keeps the copy's six two-part edges."""
    n = draw(st.integers(min_value=7, max_value=9))
    hg, coloring = build_bn(n)
    rnd = draw(st.randoms(use_true_random=False))
    keep = draw(st.sampled_from((1.0, 0.9, 0.7)))
    in_part = [e for e in combinations(range(n), 3) if len({coloring.assignment[v] for v in e}) == 1]
    edges = {e for e in hg.edges if rnd.random() < keep} | set(rnd.sample(in_part, rnd.randint(0, 3)))
    return Hypergraph(3, n, edges)


def with_edges(hg, extra):
    return Hypergraph(hg.r, hg.n, np.vstack([hg.edge_array, np.array(extra, dtype=np.int64).reshape(-1, hg.r)]))


def with_gaps(n):
    """B_n with an isolated vertex before, between and after its two parts."""
    hg, coloring = build_bn(n)
    return Hypergraph(3, n + 3, hg.edge_array + 1 + (hg.edge_array >= coloring.part_sizes[0]))


def insert_isolated(hg, before):
    """hg, hg with one isolated vertex inserted before each vertex id in the
    sorted list before (an id of n appends one), and the order-preserving
    shift from hg's ids to the new host's."""
    shift = [v + bisect_right(before, v) for v in range(hg.n)]
    return hg, Hypergraph(hg.r, hg.n + len(before), np.array(shift, dtype=np.int64)[hg.edge_array]), shift


@st.composite
def with_isolated(draw, hosts):
    """`insert_isolated` on a drawn host, at up to four drawn positions."""
    hg = draw(hosts)
    return insert_isolated(hg, sorted(draw(st.lists(st.integers(0, hg.n), max_size=4))))


def build_defect(n, a):
    """The complete two-part 3-graph on A = {0..a-1} and B = {a..n-1}, plus the
    four triples of K = {a..a+3}, less every triple of two A-vertices from one
    half of A and a K-vertex.  Under (A, B) only the K-triples are
    monochromatic, a Fano copy holds one of them as a line, and the four
    points off that line would need a triangle among the A-pairs that keep
    their triples with K; those pairs cross the halves, so there is none and
    the host is Fano-free."""
    half, k = a // 2, set(range(a, a + 4))
    edges = []
    for t in combinations(range(n), 3):
        in_a = [v for v in t if v < a]
        if len(in_a) == 2 and k & set(t) and (in_a[0] < half) == (in_a[1] < half):
            continue
        if 0 < len(in_a) < 3 or set(t) <= k:
            edges.append(t)
    return Hypergraph(3, n, edges)


@st.composite
def near_two_part_hosts(draw):
    """Hosts that a 2-coloring leaves with few monochromatic edges, where the
    search runs past its first tick: B_n (10 <= n <= 16) plus one or two
    in-part edges, or D_{n,a} (9 <= n <= 12, see `build_defect`)."""
    if draw(st.booleans()):
        n = draw(st.integers(min_value=9, max_value=12))
        return build_defect(n, draw(st.integers(min_value=4, max_value=n - 4)))
    n = draw(st.integers(min_value=10, max_value=16))
    a = (n + 1) // 2
    in_part = list(combinations(range(a), 3)) + list(combinations(range(a, n), 3))
    extra = draw(st.lists(st.sampled_from(in_part), min_size=1, max_size=2, unique=True))
    return with_edges(build_bn(n)[0], extra)


@st.composite
def near_bipartite_graphs(draw):
    """A complete bipartite graph on up to 10 vertices plus one or two edges
    inside its parts, with an odd cycle as the pattern: a graph search that
    runs past its first tick on a pattern with no proper 2-coloring."""
    a = draw(st.integers(min_value=2, max_value=5))
    n = a + draw(st.integers(min_value=2, max_value=5))
    inside = list(combinations(range(a), 2)) + list(combinations(range(a, n), 2))
    extra = set(draw(st.lists(st.sampled_from(inside), min_size=1, max_size=2)))
    host = Hypergraph(2, n, [(u, v) for u in range(a) for v in range(a, n)] + list(extra))
    k = draw(st.sampled_from((3, 5)))
    return host, Hypergraph(2, k, [(i, (i + 1) % k) for i in range(k)])


class TestEmbeddingType:
    def test_valid(self, fano):
        assert Embedding(tuple(range(7))).is_valid_for(build_complete(7, 3), fano)

    def test_not_injective(self, fano):
        host = build_complete(7, 3)
        assert not Embedding((0, 0, 1, 2, 3, 4, 5)).is_valid_for(host, fano)

    def test_short_mapping(self, fano):
        assert not Embedding(tuple(range(6))).is_valid_for(build_complete(7, 3), fano)

    def test_image_out_of_range(self, fano):
        assert not Embedding((0, 1, 2, 3, 4, 5, 7)).is_valid_for(build_complete(7, 3), fano)

    def test_edge_not_preserved(self, fano, k4):
        single = Hypergraph(3, 3, [(0, 1, 2)])
        host = Hypergraph(3, 4, [(0, 1, 2)])
        assert not Embedding((1, 2, 3)).is_valid_for(host, single)
        assert Embedding((2, 1, 0)).is_valid_for(host, single)

    @given(problem=search_problems(), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_comparison_with_every_host_row(self, problem, data):
        host, pattern, _, _ = problem

        def reference(mapping):
            """is_valid_for with each image edge compared to every host row."""
            if len(mapping) != pattern.n or host.r != pattern.r:
                return False
            if len(set(mapping)) != pattern.n:
                return False
            if any(not 0 <= h < host.n for h in mapping):
                return False
            images = np.sort(np.array(mapping)[pattern.edge_array], axis=1)
            return all((host.edge_array == f).all(axis=1).any() for f in images)

        found = contains_subgraph(host, pattern)
        kind = data.draw(st.sampled_from(["found", "injective", "any"]))
        if kind == "found" and found is not None:
            mapping = found.mapping
        elif kind == "injective":
            mapping = tuple(data.draw(st.permutations(range(host.n)))[: pattern.n])
        else:
            mapping = tuple(data.draw(st.lists(st.integers(-1, host.n), max_size=pattern.n + 1)))
        assert Embedding(mapping).is_valid_for(host, pattern) == reference(mapping)
        if found is not None:
            assert found.is_valid_for(host, pattern)


class TestContainsSubgraph:
    def test_fano_in_k7(self, fano):
        emb = contains_subgraph(build_complete(7, 3), fano)
        assert emb is not None
        assert emb.is_valid_for(build_complete(7, 3), fano)
        assert emb.mapping == tuple(range(7))  # identity is found first

    def test_single_edge_in_fano(self, fano):
        emb = contains_subgraph(fano, Hypergraph(3, 3, [(0, 1, 2)]))
        assert emb is not None and emb.is_valid_for(fano, Hypergraph(3, 3, [(0, 1, 2)]))

    def test_fano_not_in_b7(self, fano):
        host, _ = build_bn(7)
        assert contains_subgraph(host, fano) is None

    def test_uniformity_mismatch(self, fano):
        with pytest.raises(UniformityMismatchError):
            contains_subgraph(build_complete(4, 2), fano)

    def test_empty_pattern(self, fano):
        emb = contains_subgraph(fano, Hypergraph(3, 0, []))
        assert emb == Embedding(())

    def test_edgeless_pattern(self, fano):
        emb = contains_subgraph(fano, Hypergraph(3, 4, []))
        assert emb is not None and len(set(emb.mapping)) == 4

    def test_pattern_larger_than_host(self, fano, k4):
        assert contains_subgraph(k4, fano) is None

    def test_fano_automorphisms(self, fano):
        # |Aut(Fano)| = |PGL(3,2)| = 168 = 7 * 6 * 4, the product of the orbit sizes below
        assert sum(1 for _ in _embeddings(fano, fano, ())) == 168
        assert _symmetry_conditions(fano) == (
            *((0, u) for u in range(1, 7)),
            *((1, u) for u in range(2, 7)),
            (3, 4), (3, 5), (3, 6),
        )

    def test_deterministic_witness(self, fano):
        host = build_complete(8, 3)
        a = contains_subgraph(host, fano)
        b = contains_subgraph(host, fano)
        assert a.mapping == b.mapping

    @given(hypergraphs(max_n=6, rs=(3,), max_m=8), hypergraphs(max_n=4, rs=(3,), max_m=3))
    @settings(max_examples=50, deadline=None)
    def test_agrees_with_brute_force(self, host, pattern):
        emb = contains_subgraph(host, pattern)
        assert (emb is not None) == brute_force_contains(host, pattern)
        if emb is not None:
            assert emb.is_valid_for(host, pattern)

    @given(hypergraphs(max_n=7, rs=(3,), max_m=9), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_self_containment_of_subsampled_pattern(self, host, rnd):
        if host.m == 0:
            return
        kept = [e for e in host.edges if rnd.random() < 0.6] or [host.edges[0]]
        pattern = Hypergraph(3, host.n, kept)
        emb = contains_subgraph(host, pattern)
        assert emb is not None
        assert emb.is_valid_for(host, pattern)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_patterns_agree_with_brute_force(self, data):
        pattern = data.draw(symmetric_patterns())
        host = data.draw(hosts_around(pattern, max_n=7))
        emb = contains_subgraph(host, pattern)
        assert (emb is not None) == brute_force_contains(host, pattern)
        if emb is not None:
            assert emb.is_valid_for(host, pattern)


# an edge and a second edge through its first two vertices: the order places
# 0, 1, 2, 3, so 2 comes after both 0 and 1
TWO_EDGES = Hypergraph(3, 4, [(0, 1, 2), (0, 1, 3)])
# vertex counts whose top id n - 1 lies on either side of 255 and of 65535
ID_WIDTH_EDGES = (255, 256, 257, 258, 65535, 65536, 65537, 65538)


class TestSearchAgainstReference:
    @given(search_problems())
    # a pin against a condition: phi(1) = 0 leaves no image below it for 0
    @example((build_complete(6, 3), TWO_EDGES, ((0, 1),), {1: 0}))
    # two pins against a condition, each pin satisfiable alone
    @example((build_complete(6, 3), TWO_EDGES, ((0, 2),), {0: 4, 2: 3}))
    # two conditions bound 2 from both sides: phi(0) < phi(2) < phi(1)
    @example((build_complete(6, 3), TWO_EDGES, ((0, 2), (2, 1)), None))
    @example((build_complete(6, 3), TWO_EDGES, ((0, 2), (2, 1)), {1: 3}))
    @settings(max_examples=200, deadline=None)
    def test_same_embeddings_in_same_order(self, problem):
        host, pattern, conditions, pinned = problem
        assert list(_embeddings(host, pattern, conditions, pinned)) == list(
            reference_embeddings(host, pattern, conditions, pinned)
        )

    @given(search_problems(rs=(5,), max_host_n=8), st.sets(st.integers(0, 2**16 - 1), min_size=8, max_size=8))
    @example(
        (build_complete(7, 5), Hypergraph(5, 6, [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)]), (), None),
        {0, 1, 2, 30_000, 40_000, 65_534, 65_535, 7},
    )
    @settings(max_examples=60, deadline=None)
    def test_host_ids_beyond_packed_keys(self, problem, from_top):
        # n = 2^16 and r = 5 give n^(r-1) = 2^64: a subset of 4 ids packed
        # into one int64 key would overflow.  The reference would scan all
        # 2^16 ids at every level that completes no edge, so it runs on the
        # compact host, and its embeddings are mapped through the increasing
        # relabelling, which keeps search order.
        host, pattern, conditions, pinned = problem
        pattern = without_isolated(pattern)
        conditions = tuple((a, b) for a, b in conditions if max(a, b) < pattern.n)
        pinned = {v: h for v, h in (pinned or {}).items() if v < pattern.n}
        n = 2**16
        assert n ** (host.r - 1) >= 2**63
        # counted down from the top, so small drawn values reach the high ids
        # whose packed key would pass 2^63
        ids = sorted(n - 1 - i for i in from_top)[: host.n]
        spread = Hypergraph(host.r, n, [[ids[v] for v in e] for e in host.edges])
        expected = [tuple(ids[h] for h in emb) for emb in reference_embeddings(host, pattern, conditions, pinned)]
        spread_pins = {v: ids[h] for v, h in pinned.items()}
        assert list(_embeddings(spread, pattern, conditions, spread_pins)) == expected

    @given(search_problems(rs=(2, 3, 4)), st.sampled_from(ID_WIDTH_EDGES), st.data())
    # K_5^r's top vertex 4 becomes n - 1, at the last id of each width and the first past it
    @example((build_complete(5, 3), TWO_EDGES, ((0, 2),), {1: 4}), 256, None)
    @example((build_complete(5, 2), Hypergraph(2, 3, [(0, 1), (1, 2), (0, 2)]), (), None), 257, None)
    @example((build_complete(5, 4), Hypergraph(4, 5, [(0, 1, 2, 3), (1, 2, 3, 4)]), ((0, 4),), None), 65536, None)
    @example((build_complete(5, 3), TWO_EDGES, (), {0: 4}), 65537, None)
    @settings(max_examples=60, deadline=None)
    def test_ids_in_every_index_dtype(self, problem, n, data):
        # the completion index stores ids as uint8 up to n = 256, uint16 up to
        # 2^16 and uint32 up to 2^32.  The host is widened by isolated vertices
        # to n, and the reference runs on the compact host, its embeddings
        # mapped through the increasing shift; a pattern without isolated
        # vertices maps onto covered host vertices only, so they agree
        host, pattern, conditions, pinned = problem
        pattern = without_isolated(pattern)
        conditions = tuple((a, b) for a, b in conditions if max(a, b) < pattern.n)
        pinned = {v: h for v, h in (pinned or {}).items() if v < pattern.n}
        if data is None:
            before = [0] * (n - host.n)
        else:
            at = data.draw(st.lists(st.integers(0, host.n), min_size=1, max_size=3))
            before = sorted(at[k % len(at)] for k in range(n - host.n))
        host, wide, shift = insert_isolated(host, before)
        assert wide.n == n
        expected = [tuple(shift[h] for h in emb) for emb in reference_embeddings(host, pattern, conditions, pinned)]
        wide_pins = {v: shift[h] for v, h in pinned.items()}
        assert list(_embeddings(wide, pattern, conditions, wide_pins)) == expected
        assert wide._completions[2].dtype == np.min_scalar_type(n - 1)

    @pytest.mark.parametrize("pattern", [build_fano(), build_complete(4, 3)], ids=["fano", "k4"])
    def test_symmetry_conditions(self, pattern):
        assert _symmetry_conditions(pattern) == reference_symmetry_conditions(pattern)

    @given(symmetric_patterns())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_conditions_of_symmetric_patterns(self, pattern):
        assert _symmetry_conditions(pattern) == reference_symmetry_conditions(pattern)

    def test_conditions_cut_dead_branches_where_made(self, fano):
        # a condition narrows the later vertex's domain once the earlier one is
        # placed, so forward checking cuts a branch it leaves dead where the
        # branch is made; a bound read only at the later vertex's own level
        # gives 17 ticks here
        host = build_complete(7, 3)
        conditions = _symmetry_conditions(fano)
        found = list(_search(host, fano, conditions))
        assert found.count(None) == 12
        assert [f for f in found if f is not None] == list(reference_embeddings(host, fano, conditions))

    def test_witnesses_unchanged(self, fano):
        # witnesses of the set-intersection search, which the bitmask search keeps
        for n, edge, witness in [
            (20, (7, 8, 9), (0, 7, 10, 8, 11, 9, 12)),
            (80, (0, 1, 9), (0, 1, 9, 2, 40, 41, 42)),
            (80, (40, 41, 42), (0, 1, 40, 2, 3, 41, 42)),
        ]:
            host = Hypergraph(3, n, np.vstack([build_bn(n)[0].edge_array, [edge]]))
            assert contains_subgraph(host, fano).mapping == witness
        assert is_fano_free(build_bn(16)[0]) is True


def reference_monochromatic_vertices(hg):
    """`_monochromatic_vertices` with every gain counted afresh before each
    flip: the largest positive gain is flipped, lowest id first on ties."""
    labels = [0] * hg.n

    def monochromatic(e):
        return len({labels[v] for v in e}) == 1

    def at(v):
        return sum(monochromatic(e) for e in hg.edges if v in e)

    while True:
        gains = []
        for v in range(hg.n):
            before = at(v)
            labels[v] ^= 1
            gains.append(before - at(v))
            labels[v] ^= 1
        best = max(range(hg.n), key=lambda v: (gains[v], -v), default=None)
        if best is None or gains[best] <= 0:
            break
        labels[best] ^= 1
    masks = []
    for c in (0, 1):
        inside = {v for e in hg.edges if monochromatic(e) and labels[e[0]] == c for v in e}
        if inside:
            masks.append(sum(1 << v for v in inside))
    return masks


class TestColoringPrune:
    """The prune by a near 2-coloring of the host, which a search of a pattern
    with no proper 2-coloring switches on after its first tick, keeps every
    embedding and their order; it never fires for 2-colorable patterns."""

    @given(hypergraphs(max_n=9, rs=(2, 3, 4), max_m=30) | bn_subgraphs())
    # many equal gains, which the descent breaks by the lowest id
    @example(build_complete(7, 3))
    @example(build_complete(8, 3))
    @example(build_complete(9, 3))
    @example(build_complete(10, 3))
    @example(build_complete(11, 3))
    @example(build_complete(12, 3))
    @example(with_gaps(7))
    @example(with_gaps(8))
    @example(with_gaps(9))
    @settings(max_examples=50, deadline=None)
    def test_descent_matches_reference(self, hg):
        assert containment._monochromatic_vertices(hg) == reference_monochromatic_vertices(hg)

    @given(near_two_part_hosts())
    @settings(max_examples=15, deadline=None)
    def test_same_fano_embeddings_in_same_order(self, fano, host):
        conditions = _symmetry_conditions(fano)
        assert list(_embeddings(host, fano, conditions)) == list(reference_embeddings(host, fano, conditions))

    @pytest.mark.parametrize("a", [4, 5])
    def test_defect_hosts_are_fano_free(self, fano, a):
        # a Fano-free host on 9 vertices costs the oracle about a second
        host = build_defect(9, a)
        assert is_fano_free(host) is True and not brute_force_contains(host, fano)
        assert two_coloring(host) is None

    @given(near_bipartite_graphs())
    @settings(max_examples=40, deadline=None)
    def test_same_odd_cycle_embeddings_in_same_order(self, problem):
        host, cycle = problem
        conditions = _symmetry_conditions(cycle)
        assert list(_embeddings(host, cycle, conditions)) == list(reference_embeddings(host, cycle, conditions))

    @given(bn_subgraphs(), st.sampled_from(["k4", "loose path"]))
    @settings(max_examples=30, deadline=None)
    def test_colorable_patterns_are_not_pruned(self, host, kind):
        # hosts with few monochromatic edges, where a prune wrongly switched
        # on would cut the embeddings that use no in-part edge
        pattern = build_complete(4, 3) if kind == "k4" else Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4)])
        conditions = _symmetry_conditions(pattern)
        assert list(_embeddings(host, pattern, conditions)) == list(reference_embeddings(host, pattern, conditions))
        assert (contains_subgraph(host, pattern) is not None) == brute_force_contains(host, pattern)

    @pytest.mark.parametrize("n, edge", [(20, (7, 8, 9)), (30, (11, 12, 14))])
    def test_witness_within_two_ticks(self, fano, n, edge):
        # without the prune the search pays 296 and 1,674 ticks before its witness
        host = with_edges(build_bn(n)[0], [edge])
        search = _search(host, fano, _symmetry_conditions(fano))
        ticks = 0
        while (found := next(search)) is None:
            ticks += 1
        assert ticks <= 2 and found == contains_subgraph(host, fano).mapping

    def test_no_coloring_within_the_first_tick(self, fano, monkeypatch):
        calls = []
        descent = containment._monochromatic_vertices
        monkeypatch.setattr(containment, "_monochromatic_vertices", lambda host: calls.append(host) or descent(host))
        for n, edges in [(68, [(0, 1, 5), (34, 35, 37)]), (80, [(0, 1, 9), (40, 41, 42)])]:
            base = build_bn(n)[0]
            for edge in edges:
                host = with_edges(base, [edge])
                assert is_fano_free(host) is False and two_coloring(host) is None
                assert contains_subgraph(host, fano) is not None
        for n in (9, 10, 11):
            host = build_bn(n)[0]
            assert is_fano_free(host) is True and two_coloring(host) is not None
        assert calls == []
        # and it runs once for a search that goes on past its first tick
        assert contains_subgraph(with_edges(build_bn(20)[0], [(7, 8, 9)]), fano) is not None
        assert len(calls) == 1

    def test_proper_coloring_ends_the_search(self, fano):
        # the descent 2-colors B_n properly, so no pattern edge can be
        # monochromatic and the search ends at its first tick
        host = build_bn(40)[0]
        assert containment._monochromatic_vertices(host) == []
        assert sum(found is None for found in _search(host, fano, _symmetry_conditions(fano))) <= 2


class TestFanoFree:
    @pytest.mark.parametrize("n", range(7, 13))
    def test_balanced_two_part_is_free(self, n):
        hg, _ = build_bn(n)
        assert is_fano_free(hg)

    def test_k7_not_free(self):
        assert not is_fano_free(build_complete(7, 3))

    def test_fano_itself(self, fano):
        assert not is_fano_free(fano)

    def test_requires_3_uniform(self):
        with pytest.raises(UniformityMismatchError):
            is_fano_free(build_complete(4, 2))

    @given(hypergraphs(max_n=6, rs=(3,), max_m=12))
    @settings(max_examples=40, deadline=None)
    def test_small_hosts_always_free(self, hg):
        # a 7-vertex pattern cannot fit in 6 vertices
        assert is_fano_free(hg)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_coloring_certifies_freeness(self, fano, data):
        # the Fano plane is not 2-colorable, so a proper coloring proves the host free
        host = data.draw(hosts_around(fano, max_n=8))
        coloring = two_coloring(host)
        if coloring is not None:
            assert coloring.is_proper_for(host)
            assert is_fano_free(host)
        if not is_fano_free(host):
            assert contains_subgraph(host, fano).is_valid_for(host, fano)

    def test_adding_edges_preserves_containment(self, fano):
        # monotone: once the pattern is present, more edges cannot remove it
        edges = list(fano.edges)
        assert not is_fano_free(Hypergraph(3, 9, edges))
        extra = [(0, 7, 8), (1, 7, 8), (5, 6, 7)]
        assert not is_fano_free(Hypergraph(3, 9, edges + extra))


class TestTwoColoring:
    def test_two_part_construction(self):
        hg, _ = build_two_part_complete(4, 4)
        coloring = two_coloring(hg)
        assert coloring is not None
        assert coloring.is_proper_for(hg)

    def test_fano_has_none(self, fano):
        assert two_coloring(fano) is None
        assert not brute_force_two_colorable(fano)  # independent confirmation

    def test_single_edge(self):
        coloring = two_coloring(Hypergraph(3, 3, [(0, 1, 2)]))
        assert coloring.assignment == (0, 0, 1)

    def test_isolated_vertices_get_zero(self):
        coloring = two_coloring(Hypergraph(3, 5, [(1, 2, 4)]))
        assert coloring.assignment[0] == 0 and coloring.assignment[3] == 0

    def test_edgeless(self):
        coloring = two_coloring(Hypergraph(3, 4, []))
        assert coloring.assignment == (0, 0, 0, 0)

    def test_empty(self):
        assert two_coloring(Hypergraph(3, 0, [])).assignment == ()

    def test_graph_case_odd_cycle(self):
        cycle = Hypergraph(2, 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
        assert two_coloring(cycle) is None
        square = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert two_coloring(square) is not None

    def test_long_loose_path_needs_no_recursion(self):
        # 1500 decision vertices deep: a recursive search exceeds Python's limit
        path = Hypergraph(3, 3001, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(1500)])
        coloring = two_coloring(path)
        assert coloring is not None and coloring.is_proper_for(path)

    @given(hypergraphs(max_n=8, rs=(2, 3), max_m=12))
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_brute_force(self, hg):
        coloring = two_coloring(hg)
        assert (coloring is not None) == brute_force_two_colorable(hg)
        if coloring is not None:
            assert coloring.is_proper_for(hg)

    @given(coloring_hosts() | hypergraphs(max_n=10, rs=(2, 3, 4, 5), max_m=30))
    @example(Hypergraph(3, 9, [(v + 2, w + 2, u + 2) for v, w, u in build_fano().edges]))
    @settings(max_examples=200, deadline=None)
    def test_same_coloring_as_reference(self, hg):
        assert two_coloring(hg) == reference_two_coloring(hg)

    @given(hypergraphs(max_n=8, rs=(3,), max_m=10), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_monotone_under_edge_removal(self, hg, rnd):
        if two_coloring(hg) is None:
            return
        kept = [e for e in hg.edges if rnd.random() < 0.5]
        assert two_coloring(Hypergraph(hg.r, hg.n, kept)) is not None


@given(hypergraphs(max_n=9, rs=(3,), max_m=10))
@settings(max_examples=30, deadline=None)
def test_colorable_implies_fano_free(hg):
    if two_coloring(hg) is not None:
        assert is_fano_free(hg)


class TestRace:
    """`is_fano_free`, `two_coloring` and `_fano_copy` answer from whichever
    exact certificate comes first; the answers are those of the procedures
    run alone."""

    @given(hypergraphs(max_n=9, rs=(2, 3, 4), max_m=40) | bn_subgraphs())
    @settings(max_examples=100, deadline=None)
    def test_same_answers_as_each_procedure_alone(self, fano, hg):
        # no race runs for r = 2 and 4
        assert two_coloring(hg) == reference_two_coloring(hg)
        if hg.r == 3:
            assert _fano_copy(hg) == contains_subgraph(hg, fano)

    @given(hypergraphs(max_n=9, rs=(3,), max_m=40) | bn_subgraphs())
    @settings(max_examples=15, deadline=None)
    def test_is_fano_free_agrees_with_brute_force(self, fano, hg):
        # a Fano-free host on 9 vertices costs the oracle about a second
        assert is_fano_free(hg) == (not brute_force_contains(hg, fano))

    def test_pair_link_host_has_neither_certificate(self, fano):
        # K_7^3 minus the five triples through {0, 1}: every pair of Fano points
        # lies on a line, so the host is Fano-free, and one color holds four
        # vertices, which span an edge.  Neither procedure can stop early.
        host = Hypergraph(3, 7, [e for e in combinations(range(7), 3) if not {0, 1} <= set(e)])
        assert host.m == 30
        assert is_fano_free(host) is True
        assert two_coloring(host) is None
        assert not brute_force_contains(host, fano) and not brute_force_two_colorable(host)

    def test_isolated_vertices_cost_nothing(self):
        hg = Hypergraph(3, 10**6, build_bn(9)[0].edge_array)
        tracemalloc.start()
        try:
            free = is_fano_free(hg)
            free_peak = tracemalloc.get_traced_memory()[1]
            cached = "incidence" in hg.__dict__
            tracemalloc.reset_peak()
            coloring = two_coloring(hg)
            coloring_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert free is True and free_peak <= 16e6 and not cached
        assert coloring_peak <= 40e6
        assert len(coloring.assignment) == 10**6 and coloring.is_proper_for(hg)

    @given(with_isolated(hypergraphs(max_n=9, rs=(3,), max_m=40) | bn_subgraphs()))
    # isolated vertices inside the span of the witness (0, 7, 10, 8, 11, 9, 12)
    @example(insert_isolated(with_edges(build_bn(20)[0], [(7, 8, 9)]), [0, 8, 15, 20]))
    @example(insert_isolated(build_bn(9)[0], [0, 5, 5, 9]))
    @settings(max_examples=60, deadline=None)
    def test_isolated_vertices_change_no_answer(self, fano, drawn):
        hg, wide, shift = drawn
        assert is_fano_free(wide) == is_fano_free(hg)
        for find in (_fano_copy, lambda host: contains_subgraph(host, fano)):
            found = find(hg)
            assert find(wide) == (None if found is None else Embedding(tuple(shift[v] for v in found.mapping)))
        coloring = two_coloring(hg)
        if coloring is None:
            assert two_coloring(wide) is None
        else:
            labels = [0] * wide.n
            for v, label in zip(shift, coloring.assignment):
                labels[v] = label
            assert two_coloring(wide) == TwoColoring.from_assignment(labels)

    def test_wide_host_settled_by_its_coloring(self):
        # the coloring search labels only the 9 covered vertices, and its
        # coloring settles the race, so nothing of 2**59 entries is allocated
        assert is_fano_free(Hypergraph(3, 2**59, build_bn(9)[0].edge_array)) is True

    def test_searches_read_the_covered_view_only(self, fano, monkeypatch):
        host = with_edges(build_bn(20)[0], [(7, 8, 9)])
        assert is_fano_free(host) is False and two_coloring(host) is None
        assert contains_subgraph(host, fano) is not None
        assert "edges" not in host.__dict__ and "incidence" not in host.__dict__
        # one isolated vertex builds no renumbered sub-host
        gapped = Hypergraph(3, 81, with_edges(build_bn(80)[0], [(0, 1, 5)]).edge_array)
        calls = []
        canonical = hypergraph._canonical_edges
        monkeypatch.setattr(hypergraph, "_canonical_edges", lambda *args: calls.append(args) or canonical(*args))
        assert two_coloring(gapped) is None
        assert calls == []


@pytest.fixture
def builds(monkeypatch):
    """The hosts whose completion index is built from now on, in build order."""
    built = []
    build = Hypergraph.__dict__["_completions"].func
    spy = cached_property(lambda hg: built.append(hg) or build(hg))
    spy.__set_name__(Hypergraph, "_completions")
    monkeypatch.setattr(Hypergraph, "_completions", spy)
    return built


class TestCompletionIndex:
    """The completion index is a cached view of the host (`Hypergraph._completions`):
    built by the first search on a host and read by every later one."""

    def test_built_once_per_host(self, fano, builds):
        _symmetry_conditions(containment._FANO)  # the race's pattern, so its index is not counted below
        builds.clear()
        host = with_edges(build_bn(20)[0], [(7, 8, 9)])
        assert is_fano_free(host) is False
        assert len(builds) == 1 and builds[0] is host
        index = host._completions
        assert _fano_copy(host) == contains_subgraph(host, fano) is not None
        assert two_coloring(host) is None
        assert len(builds) == 1 and host._completions is index
        twin = Hypergraph(3, host.n, host.edge_array)
        assert contains_subgraph(twin, fano) == contains_subgraph(host, fano)
        assert len(builds) == 2 and builds[1] is twin and twin._completions is not index

    def test_symmetry_conditions_build_the_pattern_index_once(self, builds):
        # n(n-1)/2 pinned pattern-into-pattern searches share one index
        pattern = build_fano()
        assert _symmetry_conditions.__wrapped__(pattern) == reference_symmetry_conditions(pattern)
        assert len(builds) == 1 and builds[0] is pattern

    def test_later_queries_allocate_little(self, fano):
        host = with_edges(build_bn(80)[0], [(0, 1, 9)])
        witness = contains_subgraph(host, fano)
        assert is_fano_free(host) is False
        keys, offsets, completers = host._completions
        assert keys.dtype == completers.dtype == np.uint8
        assert completers.nbytes == host.r * host.m
        for ask, answer in ((lambda: contains_subgraph(host, fano), witness), (lambda: is_fano_free(host), False)):
            tracemalloc.start()
            try:
                assert ask() == answer
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 2e6
