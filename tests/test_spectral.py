import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq.errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    NegativeEntryError,
    NotNormalizedError,
)
from hyperq.hypergraph import Hypergraph, build_bn, build_complete, random_connected
from hyperq.spectral import (
    ADJACENCY,
    SIGNLESS_LAPLACIAN,
    apply_adjacency,
    apply_signless_laplacian,
    eigen_residual,
    rayleigh_q,
    rayleigh_maximize_bruteforce,
    spectral_radius,
)

from conftest import connected_hypergraphs, hypergraphs

SINGLE_EDGE = Hypergraph(3, 3, [(0, 1, 2)])


def uniform_unit(n, r):
    return np.full(n, n ** (-1.0 / r))


def edge_sum(hg, y):
    """Reference evaluation of the Rayleigh numerator, straight off the formula."""
    total = 0.0
    for e in hg.edges:
        p = 1.0
        for v in e:
            total += y[v] ** hg.r
            p *= y[v]
        total += hg.r * p
    return total


class TestApplyAdjacency:
    def test_single_edge_ones(self):
        got = apply_adjacency(SINGLE_EDGE, np.ones(3))
        assert np.allclose(got, 1.0)

    def test_k4_scaling(self, k4):
        t = 1.7
        got = apply_adjacency(k4, np.full(4, t))
        assert np.allclose(got, 3 * t * t)

    def test_fano_ones(self, fano):
        assert np.allclose(apply_adjacency(fano, np.ones(7)), 3.0)

    def test_r2_is_matrix_product(self):
        hg = Hypergraph(2, 4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
        x = np.array([0.3, 1.1, 0.2, 0.9])
        mat = np.zeros((4, 4))
        for i, j in hg.edges:
            mat[i, j] = mat[j, i] = 1.0
        assert np.allclose(apply_adjacency(hg, x), mat @ x)

    def test_dimension_mismatch(self, fano):
        with pytest.raises(DimensionMismatchError):
            apply_adjacency(fano, np.ones(6))

    @given(connected_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_direct_sum(self, hg):
        # per-entry definition, computed the slow way
        rng = np.random.default_rng(7)
        x = rng.uniform(0.1, 1.0, size=hg.n)
        got = apply_adjacency(hg, x)
        for i in range(hg.n):
            want = 0.0
            for idx in hg.incidence[i]:
                p = 1.0
                for v in hg.edges[idx]:
                    if v != i:
                        p *= x[v]
                want += p
            assert got[i] == pytest.approx(want, rel=1e-12)


class TestApplySignlessLaplacian:
    def test_single_edge_ones(self):
        assert np.allclose(apply_signless_laplacian(SINGLE_EDGE, np.ones(3)), 2.0)

    def test_k4_ones(self, k4):
        assert np.allclose(apply_signless_laplacian(k4, np.ones(4)), 6.0)

    def test_isolated_vertex_entry_zero(self):
        hg = Hypergraph(3, 4, [(0, 1, 2)])
        got = apply_signless_laplacian(hg, np.array([0.5, 0.6, 0.7, 0.9]))
        assert got[3] == 0.0

    def test_degree_term(self, fano):
        x = np.linspace(0.2, 1.4, 7)
        got = apply_signless_laplacian(fano, x)
        want = 3 * x**2 + apply_adjacency(fano, x)
        assert np.allclose(got, want)


class TestRayleighQ:
    def test_single_edge_uniform(self):
        assert rayleigh_q(SINGLE_EDGE, uniform_unit(3, 3)) == pytest.approx(2.0)

    def test_k4_uniform(self, k4):
        assert rayleigh_q(k4, uniform_unit(4, 3)) == pytest.approx(6.0)

    def test_b8_uniform(self, b8):
        hg, _ = b8
        assert rayleigh_q(hg, uniform_unit(8, 3)) == pytest.approx(36.0)

    def test_not_normalized(self, k4):
        with pytest.raises(NotNormalizedError):
            rayleigh_q(k4, np.ones(4))

    def test_negative_entry(self, k4):
        x = uniform_unit(4, 3).copy()
        x[0] *= -1
        with pytest.raises(NegativeEntryError):
            rayleigh_q(k4, x)

    @given(connected_hypergraphs())
    @settings(max_examples=40, deadline=None)
    def test_equals_quadratic_form(self, hg):
        rng = np.random.default_rng(11)
        x = rng.uniform(0.05, 1.0, size=hg.n)
        x /= np.sum(x**hg.r) ** (1.0 / hg.r)
        q = rayleigh_q(hg, x)
        assert q == pytest.approx(float(np.dot(x, apply_signless_laplacian(hg, x))), rel=1e-10)
        assert q == pytest.approx(edge_sum(hg, x), rel=1e-12)


class TestSpectralRadius:
    def test_single_edge(self):
        res = spectral_radius(SINGLE_EDGE)
        assert res.converged
        assert res.rho == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("n,want", [(4, 6.0), (5, 12.0), (7, 30.0)])
    def test_complete_signless_laplacian(self, n, want):
        res = spectral_radius(build_complete(n, 3))
        assert res.converged
        assert res.rho == pytest.approx(want, abs=1e-8)
        assert res.residual <= 1e-9

    def test_k4_adjacency(self, k4):
        res = spectral_radius(k4, operator=ADJACENCY)
        assert res.converged
        assert res.rho == pytest.approx(3.0, abs=1e-8)

    def test_b8_exact(self, b8):
        hg, _ = b8
        res = spectral_radius(hg)
        assert res.rho == pytest.approx(36.0, abs=1e-8)

    def test_complete_r4(self):
        hg = build_complete(5, 4)
        assert spectral_radius(hg).rho == pytest.approx(8.0, abs=1e-8)
        assert spectral_radius(hg, operator=ADJACENCY).rho == pytest.approx(4.0, abs=1e-8)

    def test_eigenvector_uniform_on_transitive_inputs(self, k4):
        for hg in (SINGLE_EDGE, k4, build_complete(6, 3)):
            vec = spectral_radius(hg).eigenvector
            assert np.max(np.abs(vec - vec[0])) <= 1e-8

    def test_edgeless(self):
        res = spectral_radius(Hypergraph(3, 5, []))
        assert res.rho == 0.0 and res.converged
        assert np.allclose(res.eigenvector, 5 ** (-1 / 3))

    def test_no_vertices(self):
        res = spectral_radius(Hypergraph(3, 0, []))
        assert res.rho == 0.0 and res.converged

    def test_disconnected_takes_max(self, k4):
        # K4 on {0..3} plus a lone edge on {4..6}
        edges = list(k4.edges) + [(4, 5, 6)]
        res = spectral_radius(Hypergraph(3, 7, edges))
        assert res.rho == pytest.approx(6.0, abs=1e-8)
        assert np.all(res.eigenvector[4:] == 0.0)
        assert np.all(res.eigenvector[:4] > 0)

    def test_tied_components_report_lowest(self):
        res = spectral_radius(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]))
        assert res.rho == pytest.approx(2.0, abs=1e-9)
        assert np.all(res.eigenvector[:3] > 0)
        assert np.all(res.eigenvector[3:] == 0.0)

    def test_iteration_limit_keeps_valid_bracket(self):
        hg, _ = build_bn(9)
        coarse = spectral_radius(hg, max_iter=2)
        full = spectral_radius(hg)
        assert not coarse.converged
        assert full.converged
        assert coarse.lower <= full.rho <= coarse.upper
        assert coarse.lower <= coarse.rho <= coarse.upper

    def test_argument_validation(self, k4):
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, tol=0.0)
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, max_iter=0)
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, shift=-0.5)
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, operator="laplacian")

    def test_bracket_monotone_along_iterations(self, fano):
        for hg in (fano, build_bn(9)[0], random_connected(8, 3, 14, rng=3)):
            res = spectral_radius(hg)
            lows = [lo for lo, _ in res.history]
            ups = [up for _, up in res.history]
            for a, b in zip(lows, lows[1:]):
                assert b >= a - 1e-12
            for a, b in zip(ups, ups[1:]):
                assert b <= a + 1e-12
            for lo, up in res.history:
                assert lo <= up

    @given(connected_hypergraphs())
    @settings(max_examples=30, deadline=None)
    def test_result_invariants(self, hg):
        res = spectral_radius(hg)
        assert res.lower <= res.rho <= res.upper
        assert res.rho >= 0
        assert np.all(res.eigenvector >= 0)
        if res.converged:
            assert res.upper - res.lower <= 1e-10 * max(res.upper, 1.0)
            assert res.residual <= 10 * 1e-10 * max(res.rho, 1.0)
            assert np.all(res.eigenvector > 0)  # Perron positivity on connected input

    def test_variational_bound(self, fano):
        rng = np.random.default_rng(2)
        for hg in (fano, build_bn(9)[0], random_connected(8, 3, 12, rng=9)):
            up = spectral_radius(hg).upper
            for _ in range(100):
                x = rng.uniform(0.0, 1.0, size=hg.n) + 1e-3
                x /= np.sum(x**hg.r) ** (1.0 / hg.r)
                assert rayleigh_q(hg, x) <= up + 1e-8


def dense_power_iteration(mat, steps=20000, tol=1e-13):
    """Classical power iteration on an explicit symmetric nonnegative matrix."""
    x = np.ones(mat.shape[0])
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(steps):
        y = mat @ x
        nxt = float(x @ y)
        y_norm = np.linalg.norm(y)
        if y_norm == 0:
            return 0.0
        x = y / y_norm
        if abs(nxt - rho) <= tol * max(abs(nxt), 1.0):
            return nxt
        rho = nxt
    return rho


class TestGraphCaseOracle:
    # r = 2 reduces to ordinary matrices: check against a dense eigensolve
    @given(connected_hypergraphs(rs=(2,), max_n=12))
    @settings(max_examples=30, deadline=None)
    def test_matches_dense_matrix(self, hg):
        mat = np.zeros((hg.n, hg.n))
        for i, j in hg.edges:
            mat[i, j] = mat[j, i] = 1.0
        mat += np.diag([hg.degree(v) for v in range(hg.n)])
        want = dense_power_iteration(mat)
        got = spectral_radius(hg).rho
        assert got == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 7, 20, 30])
    def test_complete_graph(self, n):
        hg = build_complete(n, 2)
        assert spectral_radius(hg).rho == pytest.approx(2 * n - 2, abs=1e-8)


class TestEigenResidual:
    def test_exact_pair_single_edge(self):
        got = eigen_residual(SINGLE_EDGE, 2.0, uniform_unit(3, 3))
        assert got <= 1e-12

    def test_exact_pair_k4(self, k4):
        assert eigen_residual(k4, 6.0, uniform_unit(4, 3)) <= 1e-12

    def test_off_by_one_rho(self, k4):
        got = eigen_residual(k4, 5.0, uniform_unit(4, 3))
        assert got == pytest.approx(4.0 ** (-2.0 / 3.0), rel=1e-12)

    def test_adjacency_operator(self, k4):
        assert eigen_residual(k4, 3.0, uniform_unit(4, 3), operator=ADJACENCY) <= 1e-12

    def test_unknown_operator(self, k4):
        with pytest.raises(ArgumentRangeError):
            eigen_residual(k4, 3.0, uniform_unit(4, 3), operator="spectral")


class TestRayleighMaximize:
    def test_single_edge(self):
        val, vec = rayleigh_maximize_bruteforce(SINGLE_EDGE)
        assert val == pytest.approx(2.0, abs=1e-9)
        assert np.sum(vec**3) == pytest.approx(1.0)

    def test_k4(self, k4):
        val, _ = rayleigh_maximize_bruteforce(k4)
        assert val == pytest.approx(6.0, abs=1e-9)

    def test_two_disjoint_edges(self):
        hg = Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)])
        val, _ = rayleigh_maximize_bruteforce(hg)
        assert val == pytest.approx(2.0, abs=1e-7)

    def test_seed_determinism(self, fano):
        a = rayleigh_maximize_bruteforce(fano, rng_seed=4)
        b = rayleigh_maximize_bruteforce(fano, rng_seed=4)
        assert a[0] == b[0]
        assert np.array_equal(a[1], b[1])

    def test_argument_validation(self, fano):
        with pytest.raises(ArgumentRangeError):
            rayleigh_maximize_bruteforce(fano, restarts=0)
        with pytest.raises(ArgumentRangeError):
            rayleigh_maximize_bruteforce(fano, steps=0)

    @given(connected_hypergraphs(max_n=7, rs=(3,)))
    @settings(max_examples=15, deadline=None)
    def test_consistent_with_power_iteration(self, hg):
        res = spectral_radius(hg)
        val, vec = rayleigh_maximize_bruteforce(hg, restarts=2, steps=40)
        assert val <= res.rho + 1e-7
        assert val == pytest.approx(res.rho, rel=1e-6)
        assert rayleigh_q(hg, vec) == pytest.approx(val, rel=1e-9)


@given(
    connected_hypergraphs(max_n=7),
    st.floats(min_value=0.1, max_value=5.0),
)
@settings(max_examples=30, deadline=None)
def test_rayleigh_numerator_is_degree_r_homogeneous(hg, c):
    rng = np.random.default_rng(13)
    y = rng.uniform(0.1, 1.0, size=hg.n)
    assert edge_sum(hg, c * y) == pytest.approx(c**hg.r * edge_sum(hg, y), rel=1e-9)


@st.composite
def disjoint_unions(draw):
    """2-4 hypergraphs of one uniformity placed at consecutive vertex offsets."""
    r = draw(st.sampled_from((2, 3, 4)))
    parts = draw(st.lists(hypergraphs(rs=(r,)), min_size=2, max_size=4))
    edges, offset = [], 0
    for part in parts:
        edges.extend(tuple(v + offset for v in e) for e in part.edges)
        offset += part.n
    return Hypergraph(r, offset, edges)


@given(disjoint_unions())
@settings(max_examples=40, deadline=None)
def test_disconnected_result_is_best_component(hg):
    res = spectral_radius(hg)
    best, best_comp, iterations = None, None, 0
    for comp in hg.components():
        local = {v: i for i, v in enumerate(comp)}
        sub = [tuple(local[v] for v in e) for e in hg.edges if e[0] in local]
        if not sub:
            continue
        own = spectral_radius(Hypergraph(hg.r, len(comp), sub))
        iterations += own.iterations
        if best is None or own.rho > best.rho:
            best, best_comp = own, comp
    assert res.iterations == iterations
    if best is None:
        assert res.rho == 0.0
        return
    assert (res.rho, res.lower, res.upper, res.history) == (best.rho, best.lower, best.upper, best.history)
    assert np.array_equal(res.eigenvector[best_comp], best.eigenvector)
    assert np.count_nonzero(res.eigenvector) == np.count_nonzero(best.eigenvector)
