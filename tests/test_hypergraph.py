import copy
import math
import pickle
import random
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq import hypergraph
from hyperq.errors import (
    ArgumentRangeError,
    DuplicateEdgeError,
    EdgeArityError,
    EmptyVertexSetError,
    FormatError,
    HyperqError,
    NoConvergenceError,
    VertexOutOfRangeError,
)
from hyperq.hypergraph import (
    Hypergraph,
    TwoColoring,
    build_bn,
    build_complete,
    build_expansion,
    build_fano,
    build_two_part_complete,
    delete_vertex,
    parse,
    random_connected,
    serialize,
)

from conftest import hypergraphs


class TestConstruction:
    def test_single_edge(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        assert hg.m == 1
        assert hg.degrees() == [1, 1, 1]

    def test_edges_sorted_and_canonical(self):
        hg = Hypergraph(3, 5, [(4, 2, 0), (1, 0, 2)])
        assert hg.edges == ((0, 1, 2), (0, 2, 4))

    def test_incidence_consistency(self):
        hg = Hypergraph(3, 5, [(0, 1, 2), (2, 3, 4), (0, 2, 3)])
        for v in range(hg.n):
            for idx in hg.incidence[v]:
                assert v in hg.edges[idx]
        assert sum(hg.degrees()) == hg.r * hg.m

    def test_repeated_vertex_in_edge(self):
        with pytest.raises(EdgeArityError):
            Hypergraph(3, 3, [(0, 1, 1)])

    def test_wrong_arity(self):
        with pytest.raises(EdgeArityError):
            Hypergraph(3, 4, [(0, 1)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            Hypergraph(3, 3, [(0, 1, 3)])
        with pytest.raises(VertexOutOfRangeError):
            Hypergraph(2, 3, [(-1, 0)])

    def test_duplicate_edges_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Hypergraph(3, 4, [(0, 1, 2), (2, 1, 0)])

    def test_bad_parameters(self):
        with pytest.raises(ArgumentRangeError):
            Hypergraph(1, 4, [])
        with pytest.raises(ArgumentRangeError):
            Hypergraph(3, -1, [])

    def test_vertex_count_beyond_float64_arrays(self):
        # an n-element float64 array needs 8n bytes, past numpy's limit from 2**60 on
        with pytest.raises(ArgumentRangeError, match="2\\*\\*60"):
            Hypergraph(3, 2**60, [])
        assert Hypergraph(3, 2**60 - 1, []).n == 2**60 - 1

    def test_immutable(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(AttributeError):
            hg.n = 5

    def test_views_cannot_be_assigned(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        with pytest.raises(AttributeError):
            hg.edges = ()
        with pytest.raises(AttributeError):
            hg.incidence = ()
        assert hg.edges == ((0, 1, 2),)

    def test_views_built_once(self):
        hg = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        assert hg.edges is hg.edges
        assert hg.incidence is hg.incidence

    def test_copies_stay_immutable(self, fano):
        for twin in (pickle.loads(pickle.dumps(fano)), copy.copy(fano), copy.deepcopy(fano)):
            assert twin == fano
            assert not twin.edge_array.flags.writeable

    def test_not_equal_to_other_types(self):
        hg = Hypergraph(3, 3, [(0, 1, 2)])
        assert not hg == 3
        assert hg != 3

    def test_equality_ignores_input_order(self):
        a = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        b = Hypergraph(3, 4, [(3, 2, 1), (2, 1, 0)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3)])


class TestFano:
    def test_counts(self, fano):
        assert (fano.n, fano.m) == (7, 7)

    def test_all_degrees_three(self, fano):
        assert fano.degrees() == [3] * 7

    def test_pairwise_intersections(self, fano):
        # any two of the 21 edge pairs share exactly one vertex
        for e, f in combinations(fano.edges, 2):
            assert len(set(e) & set(f)) == 1


class TestComplete:
    @pytest.mark.parametrize(
        "n,r,m", [(4, 3, 4), (3, 3, 1), (7, 3, 35), (5, 2, 10), (6, 4, 15)]
    )
    def test_edge_count(self, n, r, m):
        hg = build_complete(n, r)
        assert hg.m == m == math.comb(n, r)

    def test_degrees(self):
        hg = build_complete(4, 3)
        assert hg.degrees() == [3, 3, 3, 3]

    def test_r_below_2(self):
        with pytest.raises(ArgumentRangeError):
            build_complete(5, 1)

    def test_n_below_r(self):
        with pytest.raises(ArgumentRangeError):
            build_complete(2, 3)


class TestTwoPartComplete:
    def test_2_2_equals_k4(self, k4):
        hg, coloring = build_two_part_complete(2, 2)
        assert hg == k4
        assert coloring.part_sizes == (2, 2)

    def test_4_4(self):
        hg, _ = build_two_part_complete(4, 4)
        assert hg.m == 48
        assert set(hg.degrees()) == {18}  # C(7,2) - C(3,2)

    def test_1_2_single_edge(self):
        hg, _ = build_two_part_complete(1, 2)
        assert hg.edges == ((0, 1, 2),)

    def test_degree_formula(self):
        a, b = 5, 3
        hg, _ = build_two_part_complete(a, b)
        n = a + b
        for v in range(a):
            assert hg.degree(v) == math.comb(n - 1, 2) - math.comb(a - 1, 2)
        for v in range(a, n):
            assert hg.degree(v) == math.comb(n - 1, 2) - math.comb(b - 1, 2)

    def test_bad_parts(self):
        with pytest.raises(ArgumentRangeError):
            build_two_part_complete(0, 5)
        with pytest.raises(ArgumentRangeError):
            build_two_part_complete(1, 1)

    @given(
        a=st.integers(min_value=1, max_value=8),
        b=st.integers(min_value=1, max_value=8),
    )
    def test_returned_coloring_is_proper(self, a, b):
        if a + b < 3:
            return
        hg, coloring = build_two_part_complete(a, b)
        assert coloring.is_proper_for(hg)
        assert hg.m == math.comb(a + b, 3) - math.comb(a, 3) - math.comb(b, 3)


class TestBalancedTwoPart:
    @pytest.mark.parametrize("n,m", [(8, 48), (9, 70), (4, 4)])
    def test_edge_counts(self, n, m):
        hg, _ = build_bn(n)
        assert hg.m == m

    def test_b4_is_k4(self, k4):
        hg, _ = build_bn(4)
        assert hg == k4

    def test_larger_part_first(self):
        _, coloring = build_bn(9)
        assert coloring.part_sizes == (5, 4)

    def test_count_identity_small_range(self):
        for n in range(3, 41):
            hg, _ = build_bn(n)
            want = math.comb(n, 3) - math.comb((n + 1) // 2, 3) - math.comb(n // 2, 3)
            assert hg.m == want

    @pytest.mark.parametrize("n", [75, 100])
    def test_count_identity_spot(self, n):
        hg, _ = build_bn(n)
        assert hg.m == math.comb(n, 3) - math.comb((n + 1) // 2, 3) - math.comb(n // 2, 3)

    def test_too_small(self):
        with pytest.raises(ArgumentRangeError):
            build_bn(2)


class TestExpansion:
    def test_triangle_to_3_graph(self):
        hg = build_expansion([(0, 1), (1, 2), (0, 2)], 3, 3)
        assert (hg.n, hg.m) == (6, 3)
        for v in range(3):
            assert hg.degree(v) == 2
        for v in range(3, 6):
            assert hg.degree(v) == 1

    def test_r2_is_identity(self):
        base = [(0, 1), (1, 2)]
        hg = build_expansion(base, 3, 2)
        assert hg == Hypergraph(2, 3, base)

    def test_single_pair_r4(self):
        hg = build_expansion([(0, 1)], 2, 4)
        assert (hg.n, hg.m) == (4, 1)
        assert hg.edges == ((0, 1, 2, 3),)

    def test_fresh_vertices_distinct(self):
        hg = build_expansion([(0, 1), (0, 2)], 3, 4)
        fresh = [set(e) - {0, 1, 2} for e in hg.edges]
        assert fresh[0] & fresh[1] == set()

    def test_r_below_2(self):
        with pytest.raises(ArgumentRangeError):
            build_expansion([(0, 1)], 2, 1)

    def test_duplicate_base_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_expansion([(0, 1), (1, 0)], 2, 3)

    def test_base_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            build_expansion([(0, 5)], 3, 3)


class TestComponents:
    def test_fano_connected(self, fano):
        assert fano.components() == [list(range(7))]

    def test_two_blocks(self):
        hg = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        assert hg.components() == [[0, 1, 2], [3, 4, 5]]

    def test_isolated_vertex(self):
        hg = Hypergraph(3, 4, [(0, 1, 2)])
        assert hg.components() == [[0, 1, 2], [3]]

    def test_edgeless(self):
        hg = Hypergraph(3, 3, [])
        assert hg.components() == [[0], [1], [2]]

    def test_no_vertices(self):
        assert Hypergraph(2, 0, []).components() == []

    @given(hypergraphs(max_n=14, rs=(2, 3, 4, 5), max_m=10))
    @settings(max_examples=200)
    def test_matches_bfs(self, hg):
        assert hg.components() == bfs_components(hg)

    def test_long_loose_path(self):
        path = Hypergraph(3, 3001, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(1500)])
        assert path.components() == [list(range(3001))]

    def test_disjoint_triples(self):
        hg = Hypergraph(3, 24000, np.arange(24000).reshape(8000, 3))
        assert hg.components() == [[v, v + 1, v + 2] for v in range(0, 24000, 3)]
        shuffled = Hypergraph(3, 24000, np.random.default_rng(2).permutation(24000)[hg.edge_array])
        assert shuffled.components() == bfs_components(shuffled)

    def test_shuffled_path_takes_few_rounds(self):
        # with ids shuffled, labels that crept one edge per round would need
        # about 2^17 rounds here; halving the trees per round needs about 17
        k = 2**17
        ids = np.random.default_rng(0).permutation(2 * k + 1)
        path = Hypergraph(3, 2 * k + 1, ids[np.arange(k)[:, None] * 2 + np.arange(3)])
        t0 = time.perf_counter()
        assert path.components() == [list(range(2 * k + 1))]
        assert time.perf_counter() - t0 < 5.0

    @given(hypergraphs())
    @settings(max_examples=60)
    def test_partition_property(self, hg):
        comps = hg.components()
        flat = [v for comp in comps for v in comp]
        assert sorted(flat) == list(range(hg.n))
        assert len(flat) == len(set(flat))
        lookup = {v: i for i, comp in enumerate(comps) for v in comp}
        for e in hg.edges:
            assert len({lookup[v] for v in e}) == 1


class TestMinDegree:
    def test_bn8(self, b8):
        hg, _ = b8
        assert hg.min_degree() == 18

    def test_fano(self, fano):
        assert fano.min_degree() == 3

    def test_isolated_vertex_gives_zero(self):
        assert Hypergraph(3, 4, [(0, 1, 2)]).min_degree() == 0

    def test_no_vertices(self):
        with pytest.raises(EmptyVertexSetError):
            Hypergraph(3, 0, []).min_degree()


class TestTwoColoringType:
    def test_label_validation(self):
        with pytest.raises(ArgumentRangeError):
            TwoColoring((0, 2, 1), (1, 2))

    def test_part_size_validation(self):
        with pytest.raises(ArgumentRangeError):
            TwoColoring((0, 0, 1), (1, 2))

    def test_from_assignment(self):
        c = TwoColoring.from_assignment([0, 1, 1, 0])
        assert c.part_sizes == (2, 2)

    def test_improper_detected(self, fano):
        c = TwoColoring.from_assignment([0] * 7)
        assert not c.is_proper_for(fano)

    def test_wrong_length(self, fano):
        assert not TwoColoring.from_assignment([0, 1]).is_proper_for(fano)


class TestTextFormat:
    def test_parse_single_edge(self):
        hg = parse("3 3 1\n0 1 2\n")
        assert hg == Hypergraph(3, 3, [(0, 1, 2)])

    def test_serialize_fano(self, fano):
        text = serialize(fano)
        lines = text.strip().split("\n")
        assert lines[0] == "3 7 7"
        assert len(lines) == 8
        assert parse(text) == fano

    def test_comments_and_blanks_ignored(self):
        text = "# generated\n\n3 4 2\n0 1 2\n\n# tail\n1 2 3\n"
        assert parse(text) == Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])

    def test_wrong_arity_line(self):
        with pytest.raises(FormatError):
            parse("3 3 1\n0 1\n")

    def test_missing_edge_lines(self):
        with pytest.raises(FormatError):
            parse("3 5 2\n0 1 2\n")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse("3 3\n0 1 2\n")
        with pytest.raises(FormatError):
            parse("")
        with pytest.raises(FormatError):
            parse("three 3 1\n0 1 2\n")

    def test_negative_edge_count(self):
        with pytest.raises(FormatError, match="negative edge count -1"):
            parse("3 5 -1\n")

    def test_constructor_errors_propagate(self):
        with pytest.raises(VertexOutOfRangeError):
            parse("3 3 1\n0 1 5\n")
        with pytest.raises(DuplicateEdgeError):
            parse("3 3 2\n0 1 2\n2 1 0\n")

    @given(hypergraphs())
    @settings(max_examples=60)
    def test_round_trip(self, hg):
        again = parse(serialize(hg))
        assert (again.r, again.n, again.edges) == (hg.r, hg.n, hg.edges)


def reference_serialize(hg):
    """The %-format serialize that the byte-buffer one replaced, kept as its reference."""
    line = " ".join(["%d"] * hg.r) + "\n"
    return f"{hg.r} {hg.n} {hg.m}\n" + line * hg.m % tuple(hg.edge_array.ravel().tolist())


# ids on either side of a change in digit count, up to the largest id a
# Hypergraph allows (n < 2**60), which has 19 digits; parse reads ids of up
# to 18 digits as bytes
BOUNDARY_IDS = [9, 10, 99, 100, 10**17, 10**18 - 2, 10**18 - 1, 2**60 - 2]


@st.composite
def wide_hypergraphs(draw):
    """Hypergraphs with r = 2..5 whose ids mix small ones and digit-count
    boundaries, n = 0 and m = 0 included."""
    r = draw(st.integers(min_value=2, max_value=5))
    vertex = st.one_of(st.integers(min_value=0, max_value=120), st.sampled_from(BOUNDARY_IDS))
    rows = st.lists(vertex, min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(rows, max_size=6, unique_by=lambda e: tuple(sorted(e))))
    low = max((max(e) + 1 for e in edges), default=0)
    n = draw(st.sampled_from([low, max(low, 10**18 - 1), 2**60 - 1]))
    return Hypergraph(r, n, edges)


class TestSerializeMatchesReference:
    @given(st.one_of(wide_hypergraphs(), hypergraphs(rs=(2, 3, 4, 5))))
    @settings(max_examples=150)
    def test_drawn_hypergraphs(self, hg):
        assert serialize(hg).encode() == reference_serialize(hg).encode()

    @pytest.mark.parametrize("r", [2, 3, 4, 5])
    @pytest.mark.parametrize("n", [0, 10, 2**60 - 1])
    def test_no_edges(self, r, n):
        hg = Hypergraph(r, n, [])
        assert serialize(hg) == reference_serialize(hg) == f"{r} {n} 0\n"


class TestDeleteVertex:
    def test_reindexing(self):
        hg = Hypergraph(3, 5, [(0, 1, 2), (1, 2, 3), (2, 3, 4)])
        got = delete_vertex(hg, 1)
        assert got == Hypergraph(3, 4, [(1, 2, 3)])

    def test_counts(self, fano):
        got = delete_vertex(fano, 0)
        assert (got.n, got.m) == (6, 4)  # vertex 0 had degree 3

    def test_out_of_range(self, fano):
        with pytest.raises(VertexOutOfRangeError):
            delete_vertex(fano, 7)


@pytest.mark.parametrize("v", [-1, 7])
def test_degree_out_of_range(fano, v):
    # -1 must not read the last vertex's degree
    with pytest.raises(VertexOutOfRangeError, match=rf"vertex {v} outside \[0, 7\)"):
        fano.degree(v)


def test_degree_does_not_build_incidence():
    # incidence would need a 2**59-slot tuple; numpy refuses such sizes without allocating
    hg = Hypergraph(3, 2**59, [(0, 1, 2)])
    assert hg.degree(1) == 1
    assert hg.degree(5) == 0
    assert "incidence" not in hg.__dict__


def test_incidence_built_from_edges():
    hg = build_bn(7)[0]
    assert "edges" not in hg.__dict__
    assert [len(ids) for ids in hg.incidence] == hg.degrees()
    assert "edges" in hg.__dict__


@given(hypergraphs(max_n=12, max_m=20))
# a sparse range: 6 covered vertices among 2**40
@example(Hypergraph(3, 2**40, [(0, 2**16, 2**40 - 1), (5, 2**16, 2**33), (5, 6, 2**16)]))
@settings(max_examples=60, deadline=None)
def test_covered_view(hg):
    vertices, edges, offsets, at = hg._covered
    covered = sorted({v for e in hg.edges for v in e})
    rank = {v: i for i, v in enumerate(covered)}
    assert vertices.tolist() == covered
    assert edges.tolist() == [[rank[v] for v in e] for e in hg.edges]
    incident = [[i for i, e in enumerate(hg.edges) if v in e] for v in covered]
    assert [at[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])] == incident
    assert hg._covered[0] is vertices  # built once


class TestRandomConnected:
    def test_shape_and_connectivity(self):
        hg = random_connected(8, 3, 10, rng=1)
        assert (hg.n, hg.r, hg.m) == (8, 3, 10)
        assert len(hg.components()) == 1

    def test_seed_determinism(self):
        assert random_connected(7, 3, 8, rng=5) == random_connected(7, 3, 8, rng=5)

    def test_infeasible_edge_count(self):
        with pytest.raises(ArgumentRangeError):
            random_connected(9, 3, 2, rng=0)

    def test_n_below_r(self):
        with pytest.raises(ArgumentRangeError):
            random_connected(2, 3, 1)

    def test_more_edges_than_triples(self):
        # C(5, 3) = 10
        with pytest.raises(ArgumentRangeError):
            random_connected(5, 3, 11)

    def test_draws_pinned(self):
        # the fourth draw is the first connected one
        assert random_connected(7, 2, 8, rng=2015).edges == (
            (0, 1), (0, 4), (0, 5), (1, 2), (1, 3), (1, 5), (1, 6), (5, 6)
        )

    @pytest.mark.parametrize("n", range(3, 12))
    def test_matches_draws_from_the_subset_list(self, n):
        # sampling a range picks the indices that sampling the list of all
        # r-subsets picks, so each seeded host is the one drawn from that list
        for r in range(2, min(n, 5) + 1):
            fewest = -(-(n - 1) // (r - 1))  # edges that can connect n vertices
            for seed in range(3):
                m = random.Random(seed).randint(fewest, math.comb(n, r))
                assert random_connected(n, r, m, rng=seed) == reference_random_connected(n, r, m, seed)

    def test_memory_does_not_grow_with_the_subset_count(self):
        # C(150, 3) = 551,300 subsets held as tuples took about 40 MB
        tracemalloc.start()
        try:
            hg = random_connected(150, 3, 500, rng=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (hg.n, hg.m, len(hg.components())) == (150, 500, 1)
        assert peak < 1 << 20

    def test_middle_binomials_beyond_int64(self):
        # C(69, 34) > 2**63 although C(70, 68) = 2,415 is small
        hg = random_connected(70, 68, 2, rng=0)
        assert (hg.m, len(hg.components())) == (2, 1)

    def test_too_many_subsets_to_index(self):
        with pytest.raises(ArgumentRangeError, match="too many to index"):
            random_connected(70, 35, 50)

    def test_attempt_budget(self):
        # 15 triples connect 30 vertices only as a spanning tree: the draws run out
        t0 = time.perf_counter()
        with pytest.raises(NoConvergenceError):
            random_connected(30, 3, 15, rng=0)
        assert time.perf_counter() - t0 < 1.0


def reference_random_connected(n, r, m, seed):
    """random_connected's draws taken from the list of every r-subset."""
    rng, pool = random.Random(seed), list(combinations(range(n), r))
    for _ in range(1000):
        hg = Hypergraph(r, n, rng.sample(pool, m))
        if len(hg.components()) == 1:
            return hg
    return None


@given(hypergraphs())
@settings(max_examples=60)
def test_degree_sum_identity(hg):
    assert sum(hg.degrees()) == hg.r * hg.m
    for v in range(hg.n):
        assert hg.degree(v) == len(hg.incidence[v])


def reference_edges(r, n, edges):
    """Tuple-based reference constructor: the canonical edge tuple, or the
    error for the first faulty edge in input order."""
    canonical, seen = [], set()
    for raw in edges:
        if len(raw) != r or len(set(raw)) != r:
            raise EdgeArityError(f"edge {tuple(raw)} must have exactly {r} distinct vertices")
        if not all(isinstance(v, int) for v in raw):
            raise VertexOutOfRangeError(f"edge {tuple(raw)} has a non-integer vertex id")
        e = tuple(sorted(raw))
        if e[0] < 0 or e[-1] >= n:
            raise VertexOutOfRangeError(f"edge {e} mentions a vertex outside [0, {n})")
        if e in seen:
            raise DuplicateEdgeError(f"duplicate edge {e}")
        seen.add(e)
        canonical.append(e)
    return tuple(sorted(canonical))


@st.composite
def raw_edge_lists(draw):
    """Edge lists on at most 8 vertices: valid edges with permuted rows, plus
    a few faulty ones (repeated vertices, ids -1 or n, non-integer ids, wrong
    lengths, permuted duplicates) at random positions."""
    r = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(min_value=0, max_value=8))
    rows = []
    if n >= r:
        valid = st.sampled_from(list(combinations(range(n), r))).flatmap(st.permutations)
        rows = draw(st.lists(valid, max_size=8))
    vertex = st.one_of(st.integers(min_value=-1, max_value=n), st.sampled_from((0.5, 1.0, "1")))
    bad = st.one_of(st.lists(vertex, min_size=r, max_size=r), st.lists(vertex, max_size=r + 1))
    if rows:
        bad = st.one_of(bad, st.sampled_from(rows).flatmap(st.permutations))
    for e in draw(st.lists(bad, max_size=2)):
        rows.insert(draw(st.integers(min_value=0, max_value=len(rows))), e)
    return r, n, rows


class TestEdgeArray:
    @given(raw_edge_lists(), st.booleans())
    @settings(max_examples=300)
    def test_matches_reference_constructor(self, case, as_iterators):
        r, n, rows = case
        edges = (iter(e) for e in rows) if as_iterators else rows
        try:
            want = reference_edges(r, n, rows)
        except HyperqError as exc:
            with pytest.raises(type(exc)) as info:
                Hypergraph(r, n, edges)
            if not as_iterators:
                assert str(info.value) == str(exc)
            return
        hg = Hypergraph(r, n, edges)
        assert hg.edges == want
        arr = hg.edge_array
        assert arr.dtype == np.int64 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[..., 0] = 0
        assert np.array_equal(arr, np.array(hg.edges, dtype=np.int64).reshape(hg.m, r))
        again = Hypergraph(r, n, [e[::-1] for e in reversed(rows)])
        assert again == hg and hash(again) == hash(hg)

    def test_iterator_input(self):
        assert Hypergraph(3, 5, combinations(range(5), 3)) == build_complete(5, 3)

    def test_ragged_input_is_arity_error(self):
        with pytest.raises(EdgeArityError):
            Hypergraph(3, 5, [(0, 1, 2), (1, 2)])
        # the first faulty edge in input order decides the error
        with pytest.raises(VertexOutOfRangeError):
            Hypergraph(3, 5, [(0, 1, 7), (1, 2)])

    def test_huge_vertex_id_is_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError, match="outside"):
            Hypergraph(3, 5, [(0, 1, 2**70)])
        with pytest.raises(VertexOutOfRangeError, match="outside"):
            Hypergraph(3, 5, np.array([[0, 1, 2**63]], dtype=np.uint64))

    def test_float_id_is_not_truncated(self):
        with pytest.raises(VertexOutOfRangeError, match=r"edge \(0.5, 1, 2\) has a non-integer vertex id"):
            Hypergraph(3, 4, [(0.5, 1, 2)])

    def test_float_id_is_not_sorted_in(self):
        with pytest.raises(VertexOutOfRangeError, match=r"edge \(1.9, 3, 2\) has a non-integer"):
            Hypergraph(3, 4, [(1.9, 3, 2)])

    def test_float_array_is_rejected(self):
        with pytest.raises(VertexOutOfRangeError, match="non-integer"):
            Hypergraph(3, 4, np.array([[0.7, 1, 2]]))

    def test_string_ids_are_rejected(self):
        with pytest.raises(VertexOutOfRangeError, match=r"edge \('1', '2', '3'\) has a non-integer"):
            Hypergraph(3, 4, [("1", "2", "3")])

    def test_narrower_integer_dtypes_are_accepted(self):
        want = Hypergraph(3, 4, [(0, 1, 2), (1, 2, 3)])
        for dtype in (np.int8, np.uint32, np.uint64):
            assert Hypergraph(3, 4, np.array([[2, 1, 0], [1, 2, 3]], dtype=dtype)) == want
        assert Hypergraph(3, 4, [np.array([2, 1, 0], dtype=np.uint64), (1, 2, 3)]) == want

    def test_caller_array_not_aliased(self):
        raw = np.array([[0, 1, 2], [1, 2, 3]])
        hg = Hypergraph(3, 4, raw)
        raw[0, 0] = 3
        assert hg.edges == ((0, 1, 2), (1, 2, 3))

    @pytest.mark.parametrize("n,r", [(3, 3), (6, 2), (7, 3), (8, 5), (6, 6)])
    def test_complete_builder_matches_combinations(self, n, r):
        assert build_complete(n, r).edges == tuple(combinations(range(n), r))

    @pytest.mark.parametrize("a,b", [(1, 2), (2, 1), (3, 4), (5, 5), (6, 2)])
    def test_two_part_builder_matches_reference(self, a, b):
        want = tuple(e for e in combinations(range(a + b), 3) if e[0] < a <= e[2])
        assert build_two_part_complete(a, b)[0].edges == want


def bfs_components(hg):
    """Reference components by breadth-first search over vertex neighbourhoods."""
    neighbours = [set() for _ in range(hg.n)]
    for e in hg.edges:
        for v in e:
            neighbours[v].update(e)
    seen, out = set(), []
    for s in range(hg.n):
        if s in seen:
            continue
        seen.add(s)
        comp, frontier = [], [s]
        while frontier:
            v = frontier.pop()
            comp.append(v)
            fresh = neighbours[v] - seen
            seen |= fresh
            frontier.extend(fresh)
        out.append(sorted(comp))
    return out


def reference_parse(text):
    """The line-by-line parser that parse replaced, kept as its reference."""
    rows = []
    for line in text.splitlines():
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            rows.append(stripped)
    if not rows:
        raise FormatError("empty input: missing header line")
    header = rows[0].split()
    if len(header) != 3:
        raise FormatError(f"header must have 3 fields 'r n m', got {rows[0]!r}")
    try:
        r, n, m = (int(tok) for tok in header)
    except ValueError:
        raise FormatError(f"non-integer field in header {rows[0]!r}") from None
    if m < 0:
        raise FormatError(f"negative edge count {m}")
    body = rows[1:]
    if len(body) != m:
        raise FormatError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for row in body:
        toks = row.split()
        if len(toks) != r:
            raise FormatError(f"edge line {row!r} must have {r} vertex ids")
        try:
            edges.append(tuple(int(tok) for tok in toks))
        except ValueError:
            raise FormatError(f"non-integer vertex id in line {row!r}") from None
    return Hypergraph(r, n, edges)


# str.split whitespace beyond ASCII, and str.splitlines breaks beyond \n
UNICODE_SPACES = ["\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
ODD_TOKENS = ["1_0", "\u0663", "\uff11", "+1", "-0", "+0", "-1", "007", "1.0", "x", "#", "2" * 20, str(2**63), str(-(2**63))]


@st.composite
def hypergraph_texts(draw):
    """Texts in the hypergraph format, mostly well formed, with comments,
    blank lines, unusual whitespace, line breaks and tokens mixed in."""
    r = draw(st.integers(min_value=2, max_value=4))
    n = draw(st.integers(min_value=0, max_value=8))
    m = draw(st.integers(min_value=0, max_value=6))
    vertex = st.one_of(st.integers(min_value=-1, max_value=n).map(str), st.sampled_from(ODD_TOKENS))
    space = st.sampled_from([" ", "  ", "\t", *UNICODE_SPACES])
    declared = m + draw(st.sampled_from([0, 0, 0, 1, -1]))
    lines = [draw(space).join(map(str, (r, n, declared)))]
    for _ in range(m):
        width = r + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
        toks = draw(st.lists(vertex, min_size=width, max_size=width))
        lines.append(draw(space).join(toks))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        filler = draw(st.sampled_from(["", "   ", "# comment", "  # 0 1 2", "\t"]))
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), filler)
    text = ""
    for line in lines:
        text += draw(st.sampled_from(["", " ", *UNICODE_SPACES])) + line + draw(st.sampled_from(LINE_BREAKS))
    return text


# one change each to a text that serialize wrote
PLAIN_MUTATIONS = [
    "an id moved to the line before",  # r + 1 ids next to r - 1, still m * r in all
    "19-digit id",
    "leading zeros",
    "no final newline",
    "double space",
    "leading space",
    "trailing space",
    "crlf",
    "blank line",
    "m off by one",
]


@st.composite
def serialized_texts(draw):
    """serialize's output for a drawn hypergraph with at most one of
    PLAIN_MUTATIONS, and the mutation (None for none)."""
    hg = draw(st.one_of(wide_hypergraphs(), hypergraphs(rs=(2, 3, 4, 5))))
    lines = serialize(hg).split("\n")[:-1]
    mutation = draw(st.sampled_from([None, *PLAIN_MUTATIONS]))
    i = draw(st.integers(min_value=0, max_value=len(lines) - 1))
    toks = lines[i].split(" ")
    j = draw(st.integers(min_value=0, max_value=len(toks) - 1))
    if mutation == "an id moved to the line before" and 0 < i < len(lines) - 1:
        after = lines[i + 1].split(" ")
        lines[i : i + 2] = [f"{lines[i]} {after[0]}", " ".join(after[1:])]
    elif mutation == "19-digit id":
        toks[j] = draw(st.sampled_from([str(10**18), toks[j].zfill(19)]))
    elif mutation == "leading zeros":
        toks[j] = "0" * draw(st.integers(min_value=1, max_value=3)) + toks[j]
    elif mutation == "double space":
        toks.insert(max(j, 1), "")
    elif mutation == "leading space":
        toks[0] = " " + toks[0]
    elif mutation == "trailing space":
        toks[-1] += " "
    elif mutation == "blank line":
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), "")
    elif mutation == "m off by one":
        lines[0] = f"{hg.r} {hg.n} {hg.m + draw(st.sampled_from([1, -1]))}"
    if mutation in ("19-digit id", "leading zeros", "double space", "leading space", "trailing space"):
        lines[i] = " ".join(toks)
    end = "\r\n" if mutation == "crlf" else "\n"
    text = "".join(line + end for line in lines)
    return (text[:-1] if mutation == "no final newline" else text), mutation


class TestParseMatchesReference:
    @staticmethod
    def check(text):
        try:
            want = reference_parse(text)
        except HyperqError as exc:
            with pytest.raises(type(exc)) as info:
                parse(text)
            assert str(info.value) == str(exc)
            return
        got = parse(text)
        assert (got.r, got.n) == (want.r, want.n)
        assert np.array_equal(got.edge_array, want.edge_array)

    @given(hypergraph_texts())
    @settings(max_examples=400)
    def test_drawn_texts(self, text):
        self.check(text)

    @pytest.mark.parametrize(
        "body",
        [
            "0 1 1_0",  # underscores: int() reads them, loadtxt does not
            "0 1 \u0663",  # a non-ASCII digit
            f"0 1 {2**63}",  # beyond int64
            f"0 1 {2**70}",
            "0\x1f1 2",  # whitespace to str.split, not to a C parser
            "0\xa01\u30002",
            "+0 -1 2",
            "0 1 2.0",
            "0 1 2\x00",
            '"0" 1 2',
            "0 1",
            "0 1 2 3",
            "0\t1 2",  # one separator byte that is neither a space nor a newline
            "0,1 2",
            "0#1 2",
            "0\r1 2",
        ],
    )
    def test_named_cases(self, body):
        self.check(f"3 5 2\n{body}\n1 2 3\n")
        self.check(f"3 5 2\n1 2 3\n{body}\n")

    @pytest.mark.parametrize(
        "text",
        [
            "3 5 1\n0 1 2\n7",  # an unterminated id after a whole text
            "3 5 2\n0\n1 2\n1 2 3\n",  # a line broken in two, m * r ids in all
            "3 5 2\n0 1 2 3\n1 2\n",  # r + 1 ids next to r - 1
            "3 5 2\n0 1 2\n0 1 2\n",  # an error of the constructor
            "0 5 0\n",  # r < 2
            "0 5 3\n",
            "1 5 1\n3\n",
        ],
    )
    def test_plain_texts(self, text):
        self.check(text)

    @given(serialized_texts())
    @settings(max_examples=200)
    def test_serialized_texts(self, case):
        text, mutation = case
        self.check(text)
        if mutation is None:
            # every id fits in 18 digits exactly when n does
            header = text.split("\n", 1)[0]
            assert (hypergraph._read_plain(text) is None) == (len(header.split(" ")[1]) > 18)


def test_serialized_text_takes_the_byte_path(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("serialized text left the byte path")

    monkeypatch.setattr(hypergraph.np, "loadtxt", refuse)
    monkeypatch.setattr(hypergraph, "_read_lines", refuse)
    hg = build_bn(20)[0]
    assert parse(serialize(hg)) == hg


def test_parse_memory_peak():
    text = serialize(build_bn(91)[0])
    tracemalloc.start()
    try:
        hg = parse(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (hg.n, hg.m) == (91, 92115)
    # the line reader peaked at 11.0 MiB on this text
    assert peak < 11 * 2**20
