import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperq import turan
from hyperq.errors import ArgumentRangeError, DisconnectedError, NoConvergenceError, TooSmallError
from hyperq.hypergraph import Hypergraph, build_bn, build_complete, build_two_part_complete, random_connected
from hyperq.spectral import spectral_radius
from hyperq.turan import (
    CriterionParams,
    CriterionRecord,
    SplitProfile,
    bn_q_bounds,
    bn_scan_q,
    check_condition1,
    check_condition2,
    check_deletion_lemma,
    fano_turan_number,
    scan_splits,
    two_block_q,
    verify_extremality,
    _random_colorable,
)


class TestFanoTuranNumber:
    @pytest.mark.parametrize("n,want", [(8, 48), (9, 70), (3, 1), (0, 0), (2, 0), (7, 30)])
    def test_values(self, n, want):
        assert fano_turan_number(n) == want

    def test_negative(self):
        with pytest.raises(ArgumentRangeError):
            fano_turan_number(-1)

    @pytest.mark.parametrize("n", list(range(3, 31)) + [55, 100])
    def test_matches_builder_edge_count(self, n):
        hg, _ = build_bn(n)
        assert fano_turan_number(n) == hg.m


class TestBnQBounds:
    def test_even(self):
        assert bn_q_bounds(8) == (36.0, 36.0)

    def test_odd(self):
        lower, upper = bn_q_bounds(9)
        assert lower == pytest.approx(47.25 - 0.75 + 1.0 / 6.0)
        assert upper == pytest.approx(47.0)

    def test_n4_matches_k4(self):
        assert bn_q_bounds(4) == (6.0, 6.0)

    def test_too_small(self):
        with pytest.raises(ArgumentRangeError):
            bn_q_bounds(3)

    @pytest.mark.parametrize("n", range(4, 31))
    def test_encloses_power_iteration(self, n):
        hg, _ = build_bn(n)
        lower, upper = bn_q_bounds(n)
        rho = spectral_radius(hg).rho
        assert lower - 1e-6 <= rho <= upper + 1e-6

    @pytest.mark.parametrize("n", [44, 59, 60])
    def test_encloses_power_iteration_larger(self, n):
        hg, _ = build_bn(n)
        lower, upper = bn_q_bounds(n)
        rho = spectral_radius(hg).rho
        assert lower - 1e-6 <= rho <= upper + 1e-6


class TestTwoBlockQ:
    def test_2_2(self):
        p = two_block_q(2, 2)
        assert p.q_value == pytest.approx(6.0, abs=1e-9)
        assert p.u == pytest.approx(0.25, abs=1e-6)
        assert p.v == pytest.approx(0.25, abs=1e-6)

    def test_4_4(self):
        p = two_block_q(4, 4)
        assert p.q_value == pytest.approx(36.0, abs=1e-9)
        assert p.u == pytest.approx(0.125, abs=1e-6)

    def test_5_4_in_odd_bounds(self):
        p = two_block_q(5, 4)
        lower, upper = bn_q_bounds(9)
        assert lower - 1e-9 <= p.q_value <= upper + 1e-9

    def test_cube_roots_reported(self):
        p = two_block_q(3, 4)
        assert p.x == pytest.approx(p.u ** (1 / 3), rel=1e-12)
        assert p.y == pytest.approx(p.v ** (1 / 3), rel=1e-12)

    def test_bad_parts(self):
        with pytest.raises(ArgumentRangeError):
            two_block_q(0, 4)
        with pytest.raises(ArgumentRangeError):
            two_block_q(1, 1)

    @given(
        a=st.integers(min_value=1, max_value=12),
        b=st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_swap_symmetry(self, a, b):
        if a + b < 3:
            return
        assert two_block_q(a, b).q_value == pytest.approx(two_block_q(b, a).q_value, abs=1e-9)

    @pytest.mark.parametrize("n", range(4, 25))
    def test_matches_power_iteration_all_splits(self, n):
        for a in range(1, n):
            hg, _ = build_two_part_complete(a, n - a)
            rho = spectral_radius(hg).rho
            assert two_block_q(a, n - a).q_value == pytest.approx(rho, rel=1e-6)

    @pytest.mark.parametrize("n", [40, 60])
    def test_matches_power_iteration_sampled_splits(self, n):
        for a in (1, 2, n // 3, n // 2 - 1, n // 2):
            hg, _ = build_two_part_complete(a, n - a)
            rho = spectral_radius(hg).rho
            assert two_block_q(a, n - a).q_value == pytest.approx(rho, rel=1e-6)


def reference_scan_splits(n: int) -> tuple[list[SplitProfile], int]:
    """The split scan as an explicit loop: a strictly larger q wins, and an
    equal q wins only when its a is strictly nearer ceil(n/2)."""
    target = (n + 1) // 2
    profiles = []
    best = None
    for a in range(1, n):
        profile = turan.two_block_q(a, n - a)
        profiles.append(profile)
        if (
            best is None
            or profile.q_value > best.q_value
            or (profile.q_value == best.q_value and abs(a - target) < abs(best.a - target))
        ):
            best = profile
    return profiles, best.a


class TestScanSplits:
    def test_n8(self):
        profiles, best_a = scan_splits(8)
        assert best_a == 4
        assert len(profiles) == 7

    def test_n9_tie(self):
        profiles, best_a = scan_splits(9)
        assert best_a in (4, 5)
        by_a = {p.a: p.q_value for p in profiles}
        assert by_a[4] == pytest.approx(by_a[5], abs=1e-9)

    def test_n4(self):
        _, best_a = scan_splits(4)
        assert best_a == 2

    def test_too_small(self):
        with pytest.raises(ArgumentRangeError):
            scan_splits(3)

    @pytest.mark.parametrize("n", [4, 5, 9, 16, 31, 60])
    def test_matches_reference_loop(self, n):
        assert scan_splits(n) == reference_scan_splits(n)

    @given(n=st.integers(min_value=4, max_value=16), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_ties_match_reference_loop(self, n, data):
        # q values from a three-element set, so most scans hold ties
        qs = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=n - 1, max_size=n - 1))

        def tied_profile(a, b):
            w = 1.0 / (a + b)
            return SplitProfile(a + b, a, b, w, w, qs[a - 1], w ** (1 / 3), w ** (1 / 3))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(turan, "two_block_q", tied_profile)
            profiles, best_a = scan_splits(n)
            assert (profiles, best_a) == reference_scan_splits(n)
            assert bn_scan_q(n) == max(qs)

    @pytest.mark.parametrize("n", [10, 13, 21])
    def test_split_cap(self, n):
        # every profile respects the balanced-split penalty bound
        profiles, _ = scan_splits(n)
        base = 0.75 * n * n - 1.5 * n
        for p in profiles:
            assert p.q_value <= base - (p.a - n / 2.0) ** 2 + 1e-6

    def test_scan_q_agrees_with_bounds(self):
        for n in (10, 11, 16, 17):
            lower, upper = bn_q_bounds(n)
            assert lower - 1e-9 <= bn_scan_q(n) <= upper + 1e-9


class TestSplitProfileType:
    def test_constraint_violation(self):
        with pytest.raises(ArgumentRangeError):
            SplitProfile(8, 4, 4, 0.125, 0.2, 36.0, 0.5, 0.5848)

    def test_nonpositive_weight(self):
        with pytest.raises(ArgumentRangeError):
            SplitProfile(8, 4, 4, 0.25, 0.0, 36.0, 0.62996, 0.0)

    def test_cap_violation(self):
        with pytest.raises(ArgumentRangeError):
            SplitProfile(8, 4, 4, 0.125, 0.125, 37.0, 0.5, 0.5)


class TestCriterionParams:
    def test_density_must_exceed_half(self):
        with pytest.raises(ArgumentRangeError):
            CriterionParams(0.5, 3, 0.01, (50, 60))

    def test_uniformity_at_least_2(self):
        with pytest.raises(ArgumentRangeError):
            CriterionParams(0.75, 1, 0.05, (4, 5))

    def test_sigma_positive(self):
        with pytest.raises(ArgumentRangeError):
            CriterionParams(0.75, 3, 0.0, (50, 60))

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_sigma_finite(self, sigma):
        # a nan sigma failed every record and an inf one passed every record
        with pytest.raises(ArgumentRangeError, match="finite"):
            CriterionParams(0.75, 3, sigma, (50, 60))

    def test_range_sane(self):
        with pytest.raises(ArgumentRangeError):
            CriterionParams(0.75, 3, 0.01, (1, 60))
        with pytest.raises(ArgumentRangeError):
            CriterionParams(0.75, 3, 0.01, (60, 50))


class TestCondition1:
    def test_n100(self):
        params = CriterionParams(0.75, 3, 0.01, (100, 100))
        [rec] = check_condition1(params, fano_turan_number)
        assert rec == CriterionRecord(100, 75.0, True)

    def test_n101(self):
        params = CriterionParams(0.75, 3, 0.01, (101, 101))
        [rec] = check_condition1(params, fano_turan_number)
        # ex(101) - ex(100) = C(100,2) - C(50,2) = 3725; (3/8)*101^2 = 3825.375
        assert rec.slack == pytest.approx(100.375)
        assert rec.passed

    def test_tiny_sigma_fails(self):
        params = CriterionParams(0.75, 3, 1e-9, (100, 100))
        [rec] = check_condition1(params, fano_turan_number)
        assert not rec.passed

    def test_range_sweep(self):
        params = CriterionParams(0.75, 3, 0.05, (50, 120))
        records = check_condition1(params, fano_turan_number)
        assert len(records) == 71
        assert all(rec.passed for rec in records)


class TestCondition2:
    def test_even_slack_vanishes(self):
        params = CriterionParams(0.75, 3, 0.01, (50, 50))
        [rec] = check_condition2(params, bn_scan_q, fano_turan_number)
        assert rec.slack <= 1e-6
        assert rec.passed

    def test_odd_slack_below_three_quarters(self):
        params = CriterionParams(0.75, 3, 0.05, (51, 51))
        [rec] = check_condition2(params, bn_scan_q, fano_turan_number)
        assert rec.slack <= 0.75 + 1e-6
        assert rec.passed

    def test_tiny_sigma_fails(self):
        params = CriterionParams(0.75, 3, 1e-9, (51, 51))
        [rec] = check_condition2(params, bn_scan_q, fano_turan_number)
        assert not rec.passed

    def test_range_sweep(self):
        params = CriterionParams(0.75, 3, 0.05, (50, 80))
        records = check_condition2(params, bn_scan_q, fano_turan_number)
        assert all(rec.passed for rec in records)
        # odd sizes carry the nonzero slack; even ones sit at the formula
        for rec in records:
            if rec.n % 2 == 0:
                assert rec.slack <= 1e-6
            else:
                assert rec.slack <= 0.75 + 1e-6


class TestDeletionLemma:
    def test_k5_frozen_numbers(self):
        check = check_deletion_lemma(build_complete(5, 3))
        assert check.w == 0
        assert check.lhs == pytest.approx(6.0, abs=1e-7)
        assert check.rhs == pytest.approx(4.75, abs=1e-7)
        assert check.passed

    def test_b8(self, b8):
        hg, _ = b8
        assert check_deletion_lemma(hg).passed

    def test_seeded_corpus(self):
        import random

        rng = random.Random(777)
        for seed in range(200):
            n = rng.randint(6, 12)
            m = rng.randint(n, min(2 * n, math.comb(n, 3)))
            hg = random_connected(n, 3, m, rng=seed)
            assert check_deletion_lemma(hg).passed, f"seed={seed} n={n} m={m}"

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            check_deletion_lemma(Hypergraph(3, 6, [(0, 1, 2), (3, 4, 5)]))

    def test_too_few_edges(self):
        with pytest.raises(TooSmallError):
            check_deletion_lemma(Hypergraph(3, 3, [(0, 1, 2)]))

    def test_needs_r3(self):
        with pytest.raises(ArgumentRangeError):
            check_deletion_lemma(build_complete(5, 2))


class TestVerifyExtremality:
    def test_n8(self):
        report = verify_extremality(8, samples=8, rng_seed=0)
        assert report.passed
        assert report.q_reference == pytest.approx(36.0, abs=1e-9)
        assert report.margin > 1e-8
        assert report.max_q < report.q_reference

    def test_unbalanced_split_margin_n9(self):
        report = verify_extremality(9, samples=2, rng_seed=1)
        split_63 = [c for c in report.competitors if c.kind == "unbalanced-split" and "a=6" in c.detail]
        assert split_63 and split_63[0].margin > 1.0

    def test_every_unbalanced_split_listed(self):
        report = verify_extremality(10, samples=1, rng_seed=0)
        splits = {c.detail for c in report.competitors if c.kind == "unbalanced-split"}
        assert splits == {f"a={a} b={10 - a}" for a in range(1, 10) if a != 5}

    def test_single_edge_deletion_strict(self, b8):
        hg, _ = b8
        q_ref = spectral_radius(hg).rho
        edges = list(hg.edges)[1:]
        q = spectral_radius(Hypergraph(3, 8, edges)).rho
        assert q < q_ref - 1e-8

    def test_deterministic(self):
        a = verify_extremality(8, samples=5, rng_seed=3)
        b = verify_extremality(8, samples=5, rng_seed=3)
        assert a == b

    def test_argument_validation(self):
        with pytest.raises(ArgumentRangeError):
            verify_extremality(6)
        with pytest.raises(ArgumentRangeError):
            verify_extremality(8, samples=0)


class _KeepEveryEdge:
    """A stand-in rng under which _random_colorable draws the balanced split
    and keeps all of its edges."""

    def randint(self, lo, hi):
        return (lo + hi + 1) // 2

    def uniform(self, lo, hi):
        return hi

    def random(self):
        return 0.0

    def randrange(self, stop):
        return 0


def test_random_colorable_never_returns_bn():
    bn, _ = build_bn(8)
    hg = _random_colorable(_KeepEveryEdge(), 8, {})
    assert hg.m == bn.m - 1 == 47
    assert hg == Hypergraph(3, 8, bn.edges[1:])


def reference_random_colorable(rng, n):
    """_random_colorable as it was before it kept the splits it builds, kept as
    its reference: it builds the complete two-part host for every draw."""
    a = rng.randint(1, n - 1)
    full, _ = build_two_part_complete(a, n - a)
    keep = rng.uniform(0.6, 0.95)
    edges = full.edge_array[np.array([rng.random() for _ in range(full.m)]) < keep]
    edges = edges if len(edges) else full.edge_array[:1]
    if len(edges) == full.m and abs(2 * a - n) <= 1:
        edges = np.delete(edges, rng.randrange(len(edges)), axis=0)
    return Hypergraph(3, n, edges)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", [7, 8, 9, 12])
def test_random_colorable_matches_reference(n, seed):
    # the same draws from the same rng calls, each split built once
    got, want, splits = random.Random(seed), random.Random(seed), {}
    for _ in range(60):
        assert _random_colorable(got, n, splits) == reference_random_colorable(want, n)
    assert got.getstate() == want.getstate()
    assert sorted(splits) == list(range(1, n))
    for a, edges in splits.items():
        assert np.array_equal(edges, build_two_part_complete(a, n - a)[0].edge_array)


def test_random_colorable_builds_each_split_once(monkeypatch):
    built = []

    def counted(a, b):
        built.append(a)
        return build_two_part_complete(a, b)

    monkeypatch.setattr(turan, "build_two_part_complete", counted)
    verify_extremality(9, samples=40, rng_seed=2)
    assert sorted(built) == sorted(set(built))


def test_deletion_check_finds_components_once_per_host(components_calls):
    hg = random_connected(10, 3, 22, rng=3)
    components_calls.clear()  # random_connected checked its draws
    check_deletion_lemma(hg)
    assert components_calls == [hg.n, hg.n - 1]  # one for hg, one for hg - w


@pytest.mark.parametrize("n", range(7, 13))
def test_single_edge_removal_strictly_decreases_q(n):
    hg, _ = build_bn(n)
    q_ref = spectral_radius(hg).rho
    for i in range(hg.m):
        edges = [e for j, e in enumerate(hg.edges) if j != i]
        q = spectral_radius(Hypergraph(3, n, edges)).rho
        assert q < q_ref - 1e-8, f"edge {i} of B_{n}"


def test_unconverged_deletion_check_raises():
    with pytest.raises(NoConvergenceError):
        check_deletion_lemma(build_bn(9)[0], max_iter=1)


def test_unconverged_extremality_raises():
    # q(B_8) converges at once from the uniform start; its competitors do not
    with pytest.raises(NoConvergenceError):
        verify_extremality(8, samples=2, max_iter=1)


def reference_verify_extremality(n, samples, rng_seed, tol=1e-10, max_iter=100_000):
    """verify_extremality as one spectral_radius call per host, B_n first and
    then the competitors as drawn, kept as the reference of the batched solve."""
    rng = random.Random(rng_seed)
    base, _ = build_bn(n)
    q_ref = turan._converged_radius(base, tol, max_iter).rho

    competitors = []

    def add(kind, detail, q):
        margin = q_ref - q
        competitors.append(turan.CompetitorRecord(kind, detail, q, margin, margin > 1e-8))

    for a in range(1, n):
        if abs(2 * a - n) > 1:
            add("unbalanced-split", f"a={a} b={n - a}", two_block_q(a, n - a).q_value)
    for _ in range(samples):
        k = rng.randint(1, 3)
        edges = np.delete(base.edge_array, rng.sample(range(base.m), k), axis=0)
        add("edge-deletion", f"dropped={k}", turan._converged_radius(Hypergraph(3, n, edges), tol, max_iter).rho)
    for _ in range(samples):
        hg = reference_random_colorable(rng, n)
        add("random-colorable", f"m={hg.m}", turan._converged_radius(hg, tol, max_iter).rho)

    max_q = max(c.q for c in competitors)
    return turan.ExtremalityReport(
        n=n,
        samples=samples,
        q_reference=q_ref,
        competitors=tuple(competitors),
        max_q=max_q,
        margin=q_ref - max_q,
        passed=all(c.strict for c in competitors),
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", range(7, 11))
def test_extremality_report_matches_one_call_per_host(n, seed):
    assert verify_extremality(n, samples=25, rng_seed=seed) == reference_verify_extremality(n, 25, seed)


def _outcome(check, *args, **kwargs):
    try:
        return check(*args, **kwargs)
    except NoConvergenceError as exc:
        return str(exc)


@pytest.mark.parametrize("max_iter", [1, 12, 24, 40])
@pytest.mark.parametrize("n", [8, 9])
def test_unconverged_extremality_names_the_first_host_as_drawn(n, max_iter):
    # some competitors converge within these budgets and some do not
    got = _outcome(verify_extremality, n, samples=15, rng_seed=4, max_iter=max_iter)
    assert got == _outcome(reference_verify_extremality, n, 15, 4, max_iter=max_iter)


@pytest.mark.parametrize(
    "n,host", [(8, "n=8, m=46"), (9, "n=9, m=70"), (10, "n=10, m=98")]
)
def test_unconverged_extremality_message(n, host):
    # q(B_8) converges at once from the uniform start, so its first competitor
    # is named; B_9 and B_10 are not yet converged after one iteration
    with pytest.raises(NoConvergenceError) as err:
        verify_extremality(n, samples=2, max_iter=1)
    assert str(err.value) == f"spectral iteration on {host} did not converge in 1 iterations"
