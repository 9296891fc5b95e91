import tracemalloc
from collections.abc import Iterable, Iterator
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq.containment import (
    Embedding,
    _embeddings,
    _fano_copy,
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


class TestSearchAgainstReference:
    @given(search_problems())
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

    @pytest.mark.parametrize("pattern", [build_fano(), build_complete(4, 3)], ids=["fano", "k4"])
    def test_symmetry_conditions(self, pattern):
        assert _symmetry_conditions(pattern) == reference_symmetry_conditions(pattern)

    @given(symmetric_patterns())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_conditions_of_symmetric_patterns(self, pattern):
        assert _symmetry_conditions(pattern) == reference_symmetry_conditions(pattern)

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
        # lies on a line, so the host is Fano-free, and one colour holds four
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
