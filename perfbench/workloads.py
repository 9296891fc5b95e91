"""The benchmark's three workloads: seeded inputs, queries and output oracles.

A workload is a fixed list of queries that the timed loop replays round
after round.  Each query is one user-level call: one in-process CLI
invocation or one public library call.  Its ``check`` runs outside the timed
region, raises ``Wrong`` when the output fails the oracle, and otherwise
returns the canonical output text whose digest must repeat in every round.
"""

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import hyperq
import hyperq.cli


class Wrong(Exception):
    """A query's output failed its oracle."""


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str]


@dataclass
class Workload:
    queries: list[Query]
    warmup: list[Query]
    # digest of every generated input: equal seeds must give equal inputs
    input_digest: str
    # the workload's distinct hosts, for the traced run's kernel probe
    probe_hosts: Callable[[], list]
    # computed size of the largest host's (m, r) int64 edge array
    edge_array_bytes: int
    # whole rounds the timed loop always runs, whatever --seconds says
    min_rounds: int


def _sha(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise Wrong(reason)


def _edge_bytes(hosts) -> int:
    return max(hg.m * hg.r * 8 for hg in hosts)


# ---------------------------------------------------------------------------
# bn-cli: gen + spectral through the command line, in process
# ---------------------------------------------------------------------------

BN_SIZES = (60, 61, 90, 91)


def _invoke(args: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        # looked up at call time, so the traced run sees its wrapper
        code = hyperq.cli.main.main(args=args, prog_name="hyperq", standalone_mode=False)
    return code or 0, out.getvalue()


def _bn_edges(n: int) -> int:
    return math.comb(n, 3) - math.comb((n + 1) // 2, 3) - math.comb(n // 2, 3)


def _bn_references(n: int) -> dict[str, tuple[float, float]]:
    """Closed-form enclosures of q(B_n) and the adjacency radius of B_n."""
    m = _bn_edges(n)
    if n % 2 == 0:
        q = 0.75 * n * n - 1.5 * n
        a = 3.0 * m / n  # B_n is regular for even n
        return {"q": (q, q), "a": (a, a)}
    # odd n: average degree <= rho_A <= max degree, where the max degree is
    # that of a vertex in the smaller part
    max_deg = math.comb(n - 1, 2) - math.comb(n // 2 - 1, 2)
    return {"q": hyperq.bn_q_bounds(n), "a": (3.0 * m / n, float(max_deg))}


def _gen_query(n: int, path: Path) -> Query:
    m = _bn_edges(n)
    args = ["gen", "bn", str(n), "--out", str(path)]

    def check(result):
        code, text = result
        _require(code == 0, f"exit code {code}")
        _require(text == f"r=3 n={n} m={m} -> {path}\n", f"unexpected summary {text!r}")
        data = path.read_bytes()
        _require(data.startswith(f"3 {n} {m}\n".encode()), "header does not match the Turan count")
        return text + _sha(data)

    return Query(f"gen bn {n}", lambda: _invoke(args), check)


def _spectral_query(n: int, path: Path, op: str) -> Query:
    lo, hi = _bn_references(n)[op]
    operator = hyperq.SIGNLESS_LAPLACIAN if op == "q" else hyperq.ADJACENCY
    args = ["spectral", str(path), "--format", "json", "-o", op]

    def check(result):
        code, text = result
        _require(code == 0, f"exit code {code}")
        rep = json.loads(text)
        _require(rep["operator"] == operator, f"operator {rep['operator']}")
        _require(rep["converged"] is True, "not converged")
        _require(rep["lower"] <= rep["rho"] <= rep["upper"], "rho outside its own bracket")
        slack = 1e-9 * hi
        _require(rep["lower"] <= hi + slack and rep["upper"] >= lo - slack, "bracket misses the reference")
        _require(lo - slack <= rep["rho"] <= hi + slack, "rho outside the reference")
        return text

    return Query(f"spectral B_{n} -o {op}", lambda: _invoke(args), check)


def _bn_queries(sizes, workdir: Path) -> list[Query]:
    queries = []
    for n in sizes:
        path = workdir / f"b{n}.txt"
        queries += [_gen_query(n, path), _spectral_query(n, path, "q"), _spectral_query(n, path, "a")]
    return queries


def bn_cli(seed: int, workdir: Path) -> Workload:
    # The sizes are fixed by design, so the seed changes nothing here.  Their
    # order stays fixed too: it sets the heap state each large query starts
    # from, which moved the largest queries' times by 20 % between orders.
    for n in BN_SIZES:
        _require(hyperq.fano_turan_number(n) == _bn_edges(n), f"fano_turan_number({n})")
    return Workload(
        queries=_bn_queries(BN_SIZES, workdir),
        warmup=_bn_queries((8, 9), workdir),
        input_digest=_sha(repr(BN_SIZES)),
        probe_hosts=lambda: [hyperq.build_bn(n)[0] for n in BN_SIZES],
        edge_array_bytes=max(_bn_edges(n) for n in BN_SIZES) * 3 * 8,
        min_rounds=5,
    )


# ---------------------------------------------------------------------------
# fano-search: is_fano_free, contains_subgraph and two_coloring
# ---------------------------------------------------------------------------

FREE_SIZES = (9, 10, 11)
CONTAINING_SIZES = (20, 32, 44, 56, 68, 80)
#: seed-independent host whose in-part edge sits at the top of part one, where
#: the plain search explores far more nodes before its witness (about 0.8 s)
HARD_HOST = (20, (7, 8, 9))


def _with_edge(n: int, edge: tuple[int, int, int]):
    base, _ = hyperq.build_bn(n)
    return hyperq.Hypergraph(3, n, list(base.edges) + [edge])


def _planted(n: int, edge: tuple[int, int, int]) -> hyperq.Embedding:
    """A Fano copy through the in-part edge, as an independent oracle.

    The line (0, 1, 2) goes onto the in-part edge and points 3..6 onto four
    vertices of the other part: every other Fano line meets (0, 1, 2) in
    exactly one point, so its image meets both parts and is an edge of B_n.
    """
    a = (n + 1) // 2
    other = range(a, a + 4) if edge[0] < a else range(4)
    return hyperq.Embedding(tuple(edge) + tuple(other))


def _fano_free_queries(n: int) -> list[Query]:
    hg, coloring = hyperq.build_bn(n)
    # B_n is 2-colorable and the Fano plane is not, so B_n is Fano-free
    _require(coloring.is_proper_for(hg), f"build_bn coloring of B_{n}")

    def check_free(verdict):
        _require(verdict is True, "Fano-free host reported as containing")
        return "free"

    def check_coloring(col):
        _require(col is not None and col.is_proper_for(hg), "no proper coloring of a 2-colorable host")
        return repr(col.assignment)

    return [
        Query(f"is_fano_free B_{n}", lambda: hyperq.is_fano_free(hg), check_free),
        Query(f"two_coloring B_{n}", lambda: hyperq.two_coloring(hg), check_coloring),
    ]


def _containing_queries(n: int, edge, fano) -> list[Query]:
    hg = _with_edge(n, edge)
    _require(_planted(n, edge).is_valid_for(hg, fano), f"planted Fano copy in B_{n}+{edge}")
    name = f"B_{n}+{edge}"

    def check_verdict(verdict):
        _require(verdict is False, "host with a planted Fano copy reported free")
        return "contains"

    def check_witness(emb):
        _require(emb is not None and emb.is_valid_for(hg, fano), "invalid or missing Fano witness")
        return repr(emb.mapping)

    def check_coloring(col):
        # a host containing the Fano plane has no proper 2-coloring
        _require(col is None, "coloring returned for a host containing the Fano plane")
        return "none"

    return [
        Query(f"is_fano_free {name}", lambda: hyperq.is_fano_free(hg), check_verdict),
        Query(f"contains_subgraph {name}", lambda: hyperq.contains_subgraph(hg, fano), check_witness),
        Query(f"two_coloring {name}", lambda: hyperq.two_coloring(hg), check_coloring),
    ]


def _in_part_edges(n: int, rng: random.Random) -> list[tuple[int, int, int]]:
    """One edge per part: its two lowest ids plus a seeded third vertex.

    With the part's two lowest ids in the edge the witness is found almost
    at once, whatever the third vertex, and the cost is the completion
    index.  Other placements cost up to seconds (see HARD_HOST).
    """
    return [(p, p + 1, p + rng.randint(2, 9)) for p in (0, (n + 1) // 2)]


def fano_search(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    fano = hyperq.build_fano()
    edges = [(n, e) for n in CONTAINING_SIZES for e in _in_part_edges(n, rng)]
    queries = []
    for n in FREE_SIZES:
        queries += _fano_free_queries(n)
    for n, edge in edges:
        queries += _containing_queries(n, edge, fano)
    queries += _containing_queries(*HARD_HOST, fano)
    warmup = _fano_free_queries(7) + _containing_queries(8, (0, 1, 2), fano)
    return Workload(
        queries=queries,
        warmup=warmup,
        input_digest=_sha(repr(edges)),
        probe_hosts=lambda: [],
        edge_array_bytes=(_bn_edges(max(CONTAINING_SIZES)) + 1) * 3 * 8,
        min_rounds=4,
    )


# ---------------------------------------------------------------------------
# extremality-sweep: hundreds of small spectral_radius calls
# ---------------------------------------------------------------------------

EXTREMAL_SIZES = (8, 9, 10, 11)
DELETION_HOSTS = 50
SPLIT_SIZES = range(4, 41)


def _extremality_query(n: int, rng_seed: int) -> Query:
    lo, hi = hyperq.bn_q_bounds(n)
    splits = sum(1 for a in range(1, n) if abs(2 * a - n) > 1)

    def check(rep):
        _require(rep.passed, f"B_{n} did not beat its competitors, margin {rep.margin!r}")
        _require(len(rep.competitors) == splits + 2 * 100, "competitor count")
        _require(lo - 1e-9 * hi <= rep.q_reference <= hi + 1e-9 * hi, "q(B_n) outside bn_q_bounds")
        return repr((rep.q_reference, rep.max_q, rep.margin))

    return Query(f"verify_extremality {n}", lambda: hyperq.verify_extremality(n, samples=100, rng_seed=rng_seed), check)


def _deletion_query(hg) -> Query:
    def check(chk):
        _require(chk.passed, f"deletion inequality failed: {chk.lhs!r} < {chk.rhs!r}")
        return repr((chk.lhs, chk.rhs, chk.w))

    return Query(f"check_deletion_lemma n={hg.n} m={hg.m}", lambda: hyperq.check_deletion_lemma(hg), check)


def _split_query(n: int) -> Query:
    lo, hi = hyperq.bn_q_bounds(n)

    def check(result):
        profiles, best_a = result
        _require(len(profiles) == n - 1, "profile count")
        _require(abs(best_a - n / 2.0) <= 0.5, f"unbalanced winner a={best_a}")
        q = next(p.q_value for p in profiles if p.a == best_a)
        _require(lo - 1e-7 * hi <= q <= hi + 1e-7 * hi, "balanced split value outside bn_q_bounds")
        return repr((best_a, q))

    return Query(f"scan_splits {n}", lambda: hyperq.scan_splits(n), check)


def _random_hosts(rng: random.Random, count: int) -> list:
    hosts = []
    for _ in range(count):
        n = rng.randint(6, 12)
        hi = min(4 * n, math.comb(n, 3) - 1)
        m = rng.randint(min(2 * n, hi), hi)
        hosts.append(hyperq.random_connected(n, 3, m, rng.randrange(2**32)))
    return hosts


def extremality_sweep(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    seeds = [rng.randrange(2**31) for _ in EXTREMAL_SIZES]
    hosts = _random_hosts(rng, DELETION_HOSTS)
    queries = [_extremality_query(n, s) for n, s in zip(EXTREMAL_SIZES, seeds)]
    queries += [_deletion_query(hg) for hg in hosts]
    queries += [_split_query(n) for n in SPLIT_SIZES]
    warm_hosts = _random_hosts(random.Random(seed), 2)
    warmup = [_deletion_query(hg) for hg in warm_hosts] + [_split_query(6)]
    return Workload(
        queries=queries,
        warmup=warmup,
        input_digest=_sha(repr((seeds, [hg.edges for hg in hosts]))),
        probe_hosts=lambda: [hyperq.build_bn(n)[0] for n in EXTREMAL_SIZES] + hosts,
        edge_array_bytes=_edge_bytes([hyperq.build_bn(max(EXTREMAL_SIZES))[0]] + hosts),
        min_rounds=3,
    )


WORKLOADS = {
    "bn-cli": bn_cli,
    "fano-search": fano_search,
    "extremality-sweep": extremality_sweep,
}
