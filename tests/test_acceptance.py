"""Acceptance gate for the package: eleven numbered end-to-end criteria.

Each test covers one criterion at its stated tolerance and prints a single
``criterion NN ...: PASS/FAIL`` line (run pytest with ``-s`` to stream the
lines as they complete).  Target total runtime is under two minutes.
"""

import functools
import math
import random
import time

import numpy as np

from hyperq.containment import contains_subgraph, is_fano_free, two_coloring
from hyperq.hypergraph import (
    Hypergraph,
    build_bn,
    build_complete,
    build_fano,
    build_two_part_complete,
    random_connected,
)
from hyperq.spectral import (
    ADJACENCY,
    SIGNLESS_LAPLACIAN,
    rayleigh_maximize_bruteforce,
    spectral_radius,
)
from hyperq.turan import (
    CriterionParams,
    bn_q_bounds,
    bn_scan_q,
    check_condition1,
    check_condition2,
    check_deletion_lemma,
    fano_turan_number,
    scan_splits,
    two_block_q,
    verify_extremality,
)


def criterion(num, label):
    """Print one PASS/FAIL line per criterion, whatever the outcome."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                detail = fn()
            except BaseException as exc:
                print(f"criterion {num:2d} ({label}): FAIL  [{exc}]")
                raise
            suffix = f"  [{detail}]" if detail else ""
            print(f"criterion {num:2d} ({label}): PASS{suffix}")

        return wrapper

    return deco


@criterion(1, "closed-form spectral values")
def test_criterion_01():
    cases = [(Hypergraph(3, 3, [(0, 1, 2)]), SIGNLESS_LAPLACIAN, 2.0)]
    for n in (4, 5, 7):
        k = build_complete(n, 3)
        cases.append((k, SIGNLESS_LAPLACIAN, 2.0 * math.comb(n - 1, 2)))
        cases.append((k, ADJACENCY, float(math.comb(n - 1, 2))))
    worst_rel = worst_res = 0.0
    for hg, op, want in cases:
        res = spectral_radius(hg, operator=op)
        assert res.converged
        worst_rel = max(worst_rel, abs(res.rho - want) / want)
        worst_res = max(worst_res, res.residual)
    assert worst_rel <= 1e-8
    assert worst_res <= 1e-8
    return f"max rel err {worst_rel:.1e}, max residual {worst_res:.1e}"


@criterion(2, "exact q(B_n) for even n")
def test_criterion_02():
    worst = 0.0
    for n in (4, 6, 8, 10, 20, 50, 100):
        rho = spectral_radius(build_bn(n)[0]).rho
        want = 0.75 * n * n - 1.5 * n
        worst = max(worst, abs(rho - want) / want)
    assert worst <= 1e-6
    spot8 = spectral_radius(build_bn(8)[0]).rho
    spot100 = 0.75 * 100 * 100 - 1.5 * 100
    assert abs(spot8 - 36.0) <= 36.0 * 1e-6 and spot100 == 7350.0
    return f"max rel err {worst:.1e} over n in 4..100"


@criterion(3, "q(B_n) bracket for odd n")
def test_criterion_03():
    for n in (5, 7, 9, 11, 21, 51):
        low, high = bn_q_bounds(n)
        rho = spectral_radius(build_bn(n)[0]).rho
        assert low <= rho <= high, f"n={n}: {rho} outside [{low}, {high}]"
    return "rho enclosed for n in 5..51"


@criterion(4, "balanced split optimality")
def test_criterion_04():
    for n in range(4, 41):
        profiles, best_a = scan_splits(n)
        assert abs(best_a - n / 2.0) <= 0.5
        best_q = next(p.q_value for p in profiles if p.a == best_a)
        for p in profiles:
            off = abs(p.a - n / 2.0)
            if off >= 1.5:
                margin = best_q - p.q_value
                assert margin > 0.0, f"n={n} a={p.a} not strictly below"
                assert margin >= off * off - 1.0, f"n={n} a={p.a} margin {margin}"
    return "winner balanced and penalty margins hold for n in 4..40"


@criterion(5, "two-block formula vs tensor iteration")
def test_criterion_05():
    worst = 0.0
    for total in range(4, 25):
        for a in range(1, total):
            rho = spectral_radius(build_two_part_complete(a, total - a)[0]).rho
            q = two_block_q(a, total - a).q_value
            worst = max(worst, abs(q - rho) / rho)
    assert worst <= 1e-6
    return f"max rel gap {worst:.1e} over all splits with 4 <= a+b <= 24"


@criterion(6, "Turan formula vs construction size")
def test_criterion_06():
    for n in range(3, 201):
        want = fano_turan_number(n)
        got = build_bn(n)[0].m
        assert want == got, f"n={n}: formula {want} vs construction {got}"
    assert fano_turan_number(8) == 48 and fano_turan_number(9) == 70
    return "edge counts agree for n in 3..200; spots 48 and 70"


@criterion(7, "growth conditions at desk scale")
def test_criterion_07():
    params = CriterionParams(pi=0.75, r=3, sigma=0.05, n_range=(50, 200))
    rec1 = check_condition1(params, fano_turan_number)
    rec2 = check_condition2(params, bn_scan_q, fano_turan_number)
    assert all(r.passed for r in rec1)
    assert all(r.passed for r in rec2)
    for r in rec2:
        cap = 0.75 if r.n % 2 else 1e-6
        assert r.slack <= cap, f"n={r.n}: condition-2 slack {r.slack} > {cap}"
    return "conditions 1 and 2 pass for n in 50..200 with parity slack caps"


@criterion(8, "vertex-deletion inequality")
def test_criterion_08():
    named = [build_complete(5, 3)] + [build_bn(n)[0] for n in range(7, 13)]
    for hg in named:
        assert check_deletion_lemma(hg, slack=1e-6).passed
    rng = random.Random(777)
    for seed in range(200):
        n = rng.randint(6, 12)
        m = rng.randint(n, min(2 * n, math.comb(n, 3)))
        hg = random_connected(n, 3, m, rng=seed)
        assert check_deletion_lemma(hg, slack=1e-6).passed, f"seed={seed} n={n} m={m}"
    return "K5, B_7..B_12 and 200 seeded random connected 3-graphs"


@criterion(9, "Fano containment and 2-colorability")
def test_criterion_09():
    def timed(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0

    fano = build_fano()
    k7 = build_complete(7, 3)
    emb = contains_subgraph(k7, fano)
    assert emb is not None and emb.is_valid_for(k7, fano)
    slowest = 0.0
    free, dt = timed(is_fano_free, k7)
    assert free is False and dt < 1.0
    slowest = max(slowest, dt)
    for n in range(7, 13):
        free, dt = timed(is_fano_free, build_bn(n)[0])
        assert free is True and dt < 1.0, f"n={n}: {free} in {dt:.2f}s"
        slowest = max(slowest, dt)
    coloring, dt = timed(two_coloring, fano)
    assert coloring is None and dt < 1.0
    slowest = max(slowest, dt)
    return f"all verdicts correct, slowest check {slowest:.3f}s"


@criterion(10, "independent oracle agreement")
def test_criterion_10():
    worst3 = 0.0
    for i in range(30):
        n = 5 + i % 4
        hg = random_connected(n, 3, n + i % 3, rng=1000 + i)
        val, _ = rayleigh_maximize_bruteforce(hg)
        rho = spectral_radius(hg).rho
        worst3 = max(worst3, abs(val - rho))
    assert worst3 <= 1e-4

    def dense_power_iteration(mat, steps=20000, tol=1e-13):
        x = np.ones(mat.shape[0])
        x /= np.linalg.norm(x)
        rho = 0.0
        for _ in range(steps):
            y = mat @ x
            nxt = float(x @ y)
            x = y / np.linalg.norm(y)
            if abs(nxt - rho) <= tol * max(abs(nxt), 1.0):
                return nxt
            rho = nxt
        return rho

    worst2 = 0.0
    for i in range(30):
        n = 4 + i % 6
        hg = random_connected(n, 2, n + i % 2, rng=2000 + i)
        mat = np.diag(np.array(hg.degrees(), dtype=float))
        for u, v in hg.edges:
            mat[u, v] += 1.0
            mat[v, u] += 1.0
        worst2 = max(worst2, abs(spectral_radius(hg).rho - dense_power_iteration(mat)))
    assert worst2 <= 1e-8
    return f"r=3 coordinate ascent gap {worst3:.1e}; r=2 dense-matrix gap {worst2:.1e}"


@criterion(11, "extremality evidence for B_8 and B_9")
def test_criterion_11():
    for n in (8, 9):
        rep = verify_extremality(n, samples=200, rng_seed=0)
        assert rep.passed
        assert len(rep.competitors) >= 400
        for c in rep.competitors:
            assert c.strict and c.margin >= 1e-6, f"n={n} {c.kind} {c.detail}: margin {c.margin}"
        a = (n + 1) // 2
        gap = abs(rep.q_reference - two_block_q(a, n - a).q_value)
        assert gap <= 1e-9, f"n={n}: reference off by {gap}"
    return "406 competitors per n all below reference; reference at equality"
