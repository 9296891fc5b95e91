import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperq import spectral
from hyperq.errors import (
    ArgumentRangeError,
    DimensionMismatchError,
    NegativeEntryError,
    NoConvergenceError,
    NotNormalizedError,
)
from hyperq.hypergraph import Hypergraph, build_bn, build_complete, build_fano, random_connected
from hyperq.spectral import (
    ADJACENCY,
    DEFAULT_TOL,
    OPERATORS,
    SIGNLESS_LAPLACIAN,
    SpectralResult,
    apply_adjacency,
    apply_signless_laplacian,
    eigen_residual,
    rayleigh_q,
    rayleigh_maximize_bruteforce,
    spectral_radius,
    _adjacency,
    _golden_max,
    _keep_blocks,
    _layout,
    _radii,
    _runs,
)

from conftest import connected_hypergraphs, hypergraphs, underflow_host

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

    @pytest.mark.parametrize("n", [5, 0])
    @pytest.mark.parametrize("apply", [apply_adjacency, apply_signless_laplacian])
    def test_edgeless_result_is_float64(self, apply, n):
        # int64 and float64 zeros have equal bytes, so only the dtype shows a lost float start
        got = apply(Hypergraph(3, n, []), np.ones(n))
        assert got.dtype == np.float64
        assert got.tolist() == [0.0] * n

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

    def test_nan_weight(self, fano):
        with pytest.raises(ArgumentRangeError):
            apply_adjacency(fano, [1.0, 1.0, 1.0, math.nan, 1.0, 1.0, 1.0])

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

    @given(hypergraphs(max_n=10, rs=(2, 3, 4, 5), max_m=20), st.data())
    @settings(max_examples=150, deadline=None)
    def test_within_rounding_bound_of_exact_sum(self, hg, data):
        value = st.one_of(st.just(0.0), st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False))
        x = np.array(data.draw(st.lists(value, min_size=hg.n, max_size=hg.n)), dtype=np.float64)
        shuffled = hg.edge_array[data.draw(st.permutations(range(hg.m)))]
        exact, scale = exact_adjacency(hg, x)
        # Higham, Accuracy and Stability of Numerical Algorithms, section 3.1:
        # a sum of products in which each term takes at most k roundings is
        # off by at most gamma_k = k u / (1 - k u) times the sum of the terms'
        # magnitudes, u = 2^-53.  Gradual underflow adds at most 2^-1074 per
        # product of a term, carried by its later factors of at most big each.
        big = Fraction(max(1.0, float(np.abs(x).max(initial=0.0))))
        bounds = [
            Fraction(d + hg.r, 2**53 - d - hg.r) * total + Fraction(d * hg.r, 2**1074) * big ** (hg.r - 1)
            for d, total in zip(hg.degrees(), scale)
        ]
        for got in (
            _adjacency(_runs(hg.edge_array), hg.n, x),
            _adjacency(_runs(shuffled), hg.n, x),
            prefix_suffix_adjacency(hg.edge_array, hg.n, x),
        ):
            for value, want, bound in zip(got.tolist(), exact, bounds):
                assert abs(Fraction(value) - want) <= bound


def exact_adjacency(hg, x):
    """A x and A |x| in exact rational arithmetic."""
    exact, scale = [Fraction(0)] * hg.n, [Fraction(0)] * hg.n
    for e in hg.edges:
        for i in e:
            term = math.prod(Fraction(x[v]) for v in e if v != i)
            exact[i] += term
            scale[i] += abs(term)
    return exact, scale


def prefix_suffix_adjacency(edges, n, x):
    """The cumprod prefix/suffix kernel that preceded the run kernel, kept as a reference."""
    out = np.zeros(n)
    m, r = edges.shape
    if m == 0:
        return out
    vals = x[edges]
    prefix = np.ones((m, r))
    suffix = np.ones((m, r))
    prefix[:, 1:] = np.cumprod(vals[:, :-1], axis=1)
    suffix[:, -2::-1] = np.cumprod(vals[:, :0:-1], axis=1)
    partial = prefix * suffix
    for j in range(r):
        out += np.bincount(edges[:, j], weights=partial[:, j], minlength=n)
    return out


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

    def test_edgeless_is_zero(self):
        assert rayleigh_q(Hypergraph(3, 4, []), uniform_unit(4, 3)) == 0.0

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

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tol_rejected(self, k4, tol):
        # a nan tol never converged and an inf one converged after one iteration
        with pytest.raises(ArgumentRangeError, match="finite"):
            spectral_radius(k4, tol=tol, max_iter=50)

    def test_argument_validation(self, k4):
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, tol=0.0)
        with pytest.raises(ArgumentRangeError):
            spectral_radius(k4, max_iter=0)
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


def test_golden_max_gives_up_on_a_wide_bracket():
    # the maximum of -t sits at 0, about 1e313 relative tolerances below 1e300
    with pytest.raises(NoConvergenceError, match="after 200 iterations"):
        _golden_max(lambda t: -t, 0.0, 1e300)


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


# hosts with the seed whose winning start is random for Fano, K_5^3 and the
# 4-graph, and the all-ones start for the 3-graph
BRUTEFORCE_HOSTS = {
    "fano": (build_fano(), 2),
    "k5_3": (build_complete(5, 3), 1),
    "random_8_3_14": (random_connected(8, 3, 14, rng=3), 2),
    "random_7_4_9": (random_connected(7, 4, 9, rng=5), 0),
}
# rayleigh_maximize_bruteforce's value and vector bytes on BRUTEFORCE_HOSTS,
# recorded before its edge scans were merged into one loop
BRUTEFORCE_BYTES = {
    'fano': (6.000000000000001, '7e4baee26ebae03f7dea6fe36ebae03f370cbee66ebae03f96d3fce66ebae03f2cbe2fe66ebae03f1db571e66ebae03fc02259e96ebae03f'),
    'k5_3': (12.0, '038b38ebb5b6e23f5a444eedb5b6e23f642bd2eeb5b6e23fb2fb3fedb5b6e23ffd9338f1b5b6e23f'),
    'random_8_3_14': (11.889958281741574, 'a8fdb58b2a19dc3f9fec197e38a3dc3f1f97f904a8f4e03fbcd4330b4545d83fa9ff3f7ce188dc3f87260b86d384e83f785dc2394e99d83f8c307de49741d33f'),
    'random_7_4_9': (10.711886826159514, 'c3526fc51837e13f1d88dc068355e73fa2c7a47d6214e33ffc6a40e3e3b8e23f4de9f497ee28e53fcba687d7a8b5e23f12a1ddcca21ee13f'),
}


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

    @pytest.mark.parametrize("name", sorted(BRUTEFORCE_BYTES))
    def test_recorded_value_and_vector_bytes(self, name):
        hg, seed = BRUTEFORCE_HOSTS[name]
        val, vec = rayleigh_maximize_bruteforce(hg, rng_seed=seed)
        assert (val, vec.tobytes().hex()) == BRUTEFORCE_BYTES[name]

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
def disjoint_unions(draw, rs=(2, 3, 4)):
    """2-4 hypergraphs of one uniformity placed at consecutive vertex offsets."""
    r = draw(st.sampled_from(rs))
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


@given(connected_hypergraphs() | disjoint_unions(), st.sampled_from((1, 3, 100_000)))
@settings(max_examples=150, deadline=None)
def test_residual_is_eigen_residual_at_result(hg, max_iter):
    res = spectral_radius(hg, max_iter=max_iter)
    assert eigen_residual(hg, res.rho, res.eigenvector) == res.residual


@pytest.mark.parametrize("operator", [SIGNLESS_LAPLACIAN, ADJACENCY])
def test_one_component_matches_grouped_path(operator):
    # the loose 3-path iterates on its edge array as it is; an extra isolated
    # vertex sends the same edges through the per-component renumbering
    edges = [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(1500)]
    alone = spectral_radius(Hypergraph(3, 3001, edges), operator, max_iter=60)
    padded = spectral_radius(Hypergraph(3, 3002, edges), operator, max_iter=60)
    assert not alone.converged and alone.iterations == 60
    fields = ("rho", "lower", "upper", "iterations", "residual", "converged", "history")
    assert [getattr(alone, f) for f in fields] == [getattr(padded, f) for f in fields]
    assert alone.eigenvector.tobytes() == padded.eigenvector[:3001].tobytes()
    assert padded.eigenvector[3001] == 0.0


def test_disjoint_triples():
    hg = Hypergraph(3, 24000, np.arange(24000).reshape(8000, 3))
    one = spectral_radius(SINGLE_EDGE)
    res = spectral_radius(hg)
    assert (res.rho, res.lower, res.upper, res.history) == (one.rho, one.lower, one.upper, one.history)
    assert res.iterations == 8000 * one.iterations and res.converged
    assert res.eigenvector[:3].tobytes() == one.eigenvector.tobytes()
    assert not res.eigenvector[3:].any()


def reference_component_iterate(edges, n, r, operator, tol, max_iter) -> SpectralResult:
    """The one-component iteration that _radii replaced, kept as its reference
    (on the production kernel, so that it checks the batching and freezing)."""
    if operator == ADJACENCY:
        shift, diag = 1.0, np.ones(n)
    else:
        shift, diag = 0.0, np.bincount(edges.ravel(), minlength=n).astype(np.float64)
    x = np.full(n, n ** (-1.0 / r))
    history = []
    for iterations in range(1, max_iter + 1):
        xp = x ** (r - 1)
        y = _adjacency(_runs(edges), n, x)
        y += diag * xp
        ratios = y / xp
        lower = float(ratios.min()) - shift
        upper = float(ratios.max()) - shift
        history.append((lower, upper))
        converged = upper - lower <= tol * max(upper, 1.0)
        if converged or iterations == max_iter:
            break  # x stays the iterate that y and the bracket belong to
        x = y ** (1.0 / (r - 1))
        x /= np.sum(x**r) ** (1.0 / r)
    # Rayleigh estimate at the final iterate; x has unit r-norm, so the
    # estimate is a convex combination of the ratios and lies in the bracket
    rho = float(np.clip(float(np.add.reduceat(x * y, [0])[0]) - shift, lower, upper))
    residual = float(np.max(np.abs(y - shift * xp - rho * xp)))
    return SpectralResult(rho, lower, upper, x, iterations, residual, converged, tuple(history))


def reference_spectral_radius(hg, operator, tol, max_iter) -> SpectralResult:
    """The per-component loop that _radii replaced, kept as its reference."""
    if hg.m == 0:
        vec = np.full(hg.n, hg.n ** (-1.0 / hg.r)) if hg.n else np.zeros(0)
        return SpectralResult(0.0, 0.0, 0.0, vec, 0, 0.0, True)

    comps = hg.components()
    if len(comps) == 1:
        # one component holds every vertex: no renumbering needed
        grouped, ends = hg.edge_array, [hg.m]
    else:
        # group the edges by component, keeping their order; rank renumbers each component from 0
        sizes = np.array([len(comp) for comp in comps])
        members = np.concatenate(comps)
        label = np.empty(hg.n, dtype=np.int64)
        label[members] = np.repeat(np.arange(len(comps)), sizes)
        rank = np.empty(hg.n, dtype=np.int64)
        rank[members] = np.arange(hg.n) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        edge_label = label[hg.edge_array[:, 0]]
        grouped = rank[hg.edge_array[np.argsort(edge_label, kind="stable")]]
        ends = np.cumsum(np.bincount(edge_label, minlength=len(comps))).tolist()

    solved = [
        (comp, reference_component_iterate(grouped[start:stop], len(comp), hg.r, operator, tol, max_iter))
        for comp, start, stop in zip(comps, [0] + ends, ends)
        if start < stop
    ]
    # max keeps the first of equal radii
    comp, best = max(solved, key=lambda item: item[1].rho)
    vec = np.zeros(hg.n)
    vec[comp] = best.eigenvector
    return replace(
        best,
        eigenvector=vec,
        iterations=sum(res.iterations for _, res in solved),
        converged=all(res.converged for _, res in solved),
    )


@st.composite
def host_lists(draw):
    """1-5 hosts of one uniformity: connected, disconnected, edgeless, with isolated vertices."""
    r = draw(st.sampled_from((2, 3, 4, 5)))
    host = st.one_of(hypergraphs(rs=(r,)), connected_hypergraphs(rs=(r,)), disjoint_unions(rs=(r,)))
    return draw(st.lists(host, min_size=1, max_size=5))


def wave_scale_hosts() -> list[Hypergraph]:
    """40 3-graphs that make one wave at the default _WAVE_EDGES.

    Most hosts are disjoint unions of 1-3 connected components of 3 to 9
    vertices, some of them B_n, with isolated vertices before, between and
    after them; edgeless hosts and hosts with no vertices lie in the middle.
    The blocks have several lengths and freeze at different steps.
    """
    rng = random.Random(12)
    hosts = []
    for i in range(40):
        if i in (11, 25):
            hosts.append(Hypergraph(3, 0, []))
            continue
        if i in (12, 30):
            hosts.append(Hypergraph(3, 4, []))
            continue
        edges, offset = [], rng.randint(0, 2)
        for _ in range(rng.randint(1, 3)):
            k = rng.randint(3, 9)
            if k > 3 and rng.random() < 0.3:
                part = build_bn(k)[0]
            else:
                m = rng.randint(k - 2 if k > 3 else 1, min(2 * k, math.comb(k, 3)))
                part = random_connected(k, 3, m, rng=rng.randrange(1000))
            edges += [tuple(v + offset for v in e) for e in part.edges]
            offset += part.n + rng.randint(0, 1)
        hosts.append(Hypergraph(3, offset + rng.randint(0, 2), edges))
    return hosts


WAVE_HOSTS = wave_scale_hosts()
RESULT_FIELDS = ("rho", "lower", "upper", "iterations", "residual", "converged", "history")


@given(host_lists(), st.sampled_from(OPERATORS), st.sampled_from((1, 3, 100_000)))
@example(WAVE_HOSTS, SIGNLESS_LAPLACIAN, 100_000)
@example(WAVE_HOSTS, ADJACENCY, 100_000)
@example(WAVE_HOSTS, SIGNLESS_LAPLACIAN, 3)
@settings(max_examples=200, deadline=None)
def test_batched_hosts_match_per_component_reference(hosts, operator, max_iter):
    got = list(_radii(hosts, operator, DEFAULT_TOL, max_iter))
    assert len(got) == len(hosts)
    for hg, res in zip(hosts, got):
        want = reference_spectral_radius(hg, operator, DEFAULT_TOL, max_iter)
        assert [getattr(res, f) for f in RESULT_FIELDS] == [getattr(want, f) for f in RESULT_FIELDS]
        assert [type(getattr(res, f)) for f in RESULT_FIELDS] == [type(getattr(want, f)) for f in RESULT_FIELDS]
        assert res.eigenvector.tobytes() == want.eigenvector.tobytes()


@pytest.mark.parametrize("wave", [1, 100, spectral._WAVE_EDGES])
@pytest.mark.parametrize("operator", OPERATORS)
def test_blocks_freezing_at_different_steps_match_reference(operator, wave, monkeypatch):
    # B_8 converges at once and B_9 in about 19 steps; the loose 3-path and a
    # random host run on, so every later kernel call leaves frozen blocks out.
    # A small wave splits the hosts over several batched iterations.
    monkeypatch.setattr(spectral, "_WAVE_EDGES", wave)
    path = Hypergraph(3, 41, [(2 * i, 2 * i + 1, 2 * i + 2) for i in range(20)])
    hosts = [build_bn(8)[0], path, random_connected(10, 3, 25, rng=4), build_bn(9)[0], Hypergraph(3, 4, [])]
    for max_iter in (2, 19, 300):
        got = list(_radii(hosts, operator, DEFAULT_TOL, max_iter))
        assert len(got) == len(hosts)
        for hg, res in zip(hosts, got):
            want = reference_spectral_radius(hg, operator, DEFAULT_TOL, max_iter)
            assert [getattr(res, f) for f in RESULT_FIELDS] == [getattr(want, f) for f in RESULT_FIELDS]
            assert res.eigenvector.tobytes() == want.eigenvector.tobytes()


@given(host_lists(), st.integers(min_value=0, max_value=2**32 - 1))
@example(WAVE_HOSTS, 0)
@settings(max_examples=150, deadline=None)
def test_runs_carried_across_a_freeze_match_runs_rebuilt(hosts, seed):
    blocks, _, _, edges = _layout(hosts, None)
    lens = np.array([len(comp) for comp in blocks], dtype=int)
    keep = np.random.default_rng(seed).random(len(blocks)) < 0.5
    ends, live = lens.cumsum(), keep.repeat(lens)
    # the kept blocks' edges, renumbered onto the kept vertices
    rows = keep.repeat(np.diff(edges[:, 0].searchsorted(ends), prepend=0))
    rebuilt = _runs((live.cumsum() - 1)[edges[rows]])
    carried = _keep_blocks(_runs(edges), ends, keep, live)
    for got, want in zip(carried, rebuilt):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("wave,waves", [(1, 39), (100, 12), (spectral._WAVE_EDGES, 1)])
def test_one_components_evaluation_per_wave(wave, waves, components_calls, monkeypatch):
    # a wave of many hosts finds the components of their union once
    iterate, sizes = spectral._iterate_blocks, []

    def counted(hosts, *args):
        sizes.append(len(hosts))
        return iterate(hosts, *args)

    monkeypatch.setattr(spectral, "_iterate_blocks", counted)
    monkeypatch.setattr(spectral, "_WAVE_EDGES", wave)
    results = list(_radii(WAVE_HOSTS, SIGNLESS_LAPLACIAN, DEFAULT_TOL, 100_000))
    assert len(results) == sum(sizes) == len(WAVE_HOSTS)
    assert len(sizes) == waves == len(components_calls)
    assert sum(components_calls) == sum(hg.n for hg in WAVE_HOSTS)


class TestUnderflow:
    """A block whose x^(r-1) underflows to 0 somewhere has no bracket at that
    step; it freezes unconverged at its last positive iterate, exactly as a
    run with max_iter at that step would end."""

    HOST = underflow_host(200)

    def test_freezes_at_last_positive_iterate(self):
        res = spectral_radius(self.HOST, max_iter=300)
        assert not res.converged and res.iterations < 300
        assert all(map(math.isfinite, (res.rho, res.lower, res.upper, res.residual)))
        assert np.all(res.eigenvector > 0) and len(res.history) == res.iterations
        want = spectral_radius(self.HOST, max_iter=res.iterations)
        assert [getattr(res, f) for f in RESULT_FIELDS] == [getattr(want, f) for f in RESULT_FIELDS]
        assert res.eigenvector.tobytes() == want.eigenvector.tobytes()
        # with 50 path edges the iteration converges; adding edges cannot lower q
        short = spectral_radius(underflow_host(50))
        assert short.converged and short.eigenvector.min() > 0
        assert res.lower <= short.lower <= res.upper

    @pytest.mark.parametrize("tol", [1.3e-10, 1.5e-10])
    def test_in_a_batch(self, tol, monkeypatch):
        # in one wave, the companion freezes at the underflow host's last
        # positive step (tol 1.3e-10) or at the step before (1.5e-10), so the
        # rollback reads that iterate from the frozen blocks' array or from
        # the previous step's
        monkeypatch.setattr(spectral, "_WAVE_EDGES", 2 * self.HOST.m)
        companion = random_connected(15, 3, 18, rng=0)
        res, other = _radii([self.HOST, companion], SIGNLESS_LAPLACIAN, tol, 300)
        want = spectral_radius(self.HOST, tol=tol, max_iter=res.iterations)
        assert other.iterations == res.iterations - (tol > 1.4e-10)
        assert [getattr(res, f) for f in RESULT_FIELDS] == [getattr(want, f) for f in RESULT_FIELDS]
        assert res.eigenvector.tobytes() == want.eigenvector.tobytes()
        alone = spectral_radius(companion, tol=tol, max_iter=300)
        assert [getattr(other, f) for f in RESULT_FIELDS] == [getattr(alone, f) for f in RESULT_FIELDS]
