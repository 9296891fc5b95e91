import math
from itertools import combinations

import pytest
from hypothesis import strategies as st

from hyperq import hypergraph, spectral
from hyperq.hypergraph import Hypergraph, build_bn, build_fano


@pytest.fixture(scope="session")
def fano():
    return build_fano()


@pytest.fixture(scope="session")
def k4():
    from hyperq.hypergraph import build_complete

    return build_complete(4, 3)


@pytest.fixture(scope="session")
def b8():
    hg, coloring = build_bn(8)
    return hg, coloring


@pytest.fixture
def components_calls(monkeypatch):
    """The vertex count of every components evaluation made while the test runs."""
    calls = []
    evaluate = hypergraph._components

    def counted(edges, n):
        calls.append(n)
        return evaluate(edges, n)

    monkeypatch.setattr(hypergraph, "_components", counted)
    monkeypatch.setattr(spectral, "_components", counted)
    return calls


@st.composite
def hypergraphs(draw, min_n=0, max_n=9, rs=(2, 3, 4), max_m=12):
    """Arbitrary valid hypergraphs, isolated vertices and empty edge sets included."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(min_value=max(min_n, 0), max_value=max_n))
    if n < r:
        return Hypergraph(r, n, [])
    pool = list(combinations(range(n), r))
    m = draw(st.integers(min_value=0, max_value=min(max_m, len(pool))))
    idx = draw(st.permutations(range(len(pool))))
    return Hypergraph(r, n, [pool[i] for i in idx[:m]])


@st.composite
def connected_hypergraphs(draw, max_n=8, rs=(2, 3), max_extra=4):
    """Connected hypergraphs with at least one edge, grown edge by edge."""
    r = draw(st.sampled_from(rs))
    n = draw(st.integers(min_value=r, max_value=max_n))
    pool = list(combinations(range(n), r))
    order = draw(st.permutations(range(len(pool))))
    chosen: list[tuple[int, ...]] = []
    covered: set[int] = set()
    while len(covered) < n:
        for i in order:
            e = pool[i]
            if not chosen or (set(e) & covered and not set(e) <= covered):
                chosen.append(e)
                covered |= set(e)
                break
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    for i in order:
        if extra == 0:
            break
        if pool[i] not in chosen:
            chosen.append(pool[i])
            extra -= 1
    hg = Hypergraph(r, n, chosen)
    assert len(hg.components()) == 1
    return hg


def comb(n, k):
    return math.comb(n, k)


def underflow_host(path_edges):
    """K_30^3 with a loose path of path_edges triples hung off vertex 29:
    (29, 30, 31), (31, 32, 33), ...  The iterates decay along the path, and
    with 200 path edges their far end falls below the smallest double
    within 150 steps."""
    path = [(29 + 2 * i, 30 + 2 * i, 31 + 2 * i) for i in range(path_edges)]
    return Hypergraph(3, 30 + 2 * path_edges, list(combinations(range(30), 3)) + path)
