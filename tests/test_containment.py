from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq.containment import (
    Embedding,
    _embeddings,
    _symmetry_conditions,
    contains_subgraph,
    is_fano_free,
    two_coloring,
)
from hyperq.errors import UniformityMismatchError
from hyperq.hypergraph import Hypergraph, build_bn, build_complete, build_fano, build_two_part_complete

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
    n = draw(st.integers(min_value=pattern.n, max_value=max_n))
    pool = list(combinations(range(n), 3))
    edges = set(draw(st.lists(st.sampled_from(pool), max_size=12)))
    if draw(st.booleans()):
        image = draw(st.permutations(range(n)))
        edges |= {tuple(sorted(image[v] for v in f)) for f in pattern.edges}
    return Hypergraph(3, n, edges)


class TestEmbeddingType:
    def test_valid(self, fano):
        assert Embedding(tuple(range(7))).is_valid_for(build_complete(7, 3), fano)

    def test_not_injective(self, fano):
        host = build_complete(7, 3)
        assert not Embedding((0, 0, 1, 2, 3, 4, 5)).is_valid_for(host, fano)

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
