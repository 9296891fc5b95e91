"""Span recorder for the traced benchmark run.

The recorder wraps hyperq's public functions where the calling module looks
them up (``hyperq.cli.parse``, ``hyperq.turan.spectral_radius``,
``Hypergraph.components``, ...), so no line of the package changes.  Each
call becomes one span: name, start, end, parent span and query id.  Spans
stay in memory; per-layer metrics and self times are derived from them
after the run.
"""

import functools
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import hyperq
import hyperq.cli
import hyperq.containment
import hyperq.hypergraph
import hyperq.turan


@dataclass
class Span:
    name: str
    start: float
    parent: int
    query: tuple[int, int]  # (round, position in the round's query list)
    end: float = 0.0
    # time the recorder spent in result hooks nested inside this span; it is
    # bookkeeping, not work of the layer, so it is left out of the duration
    excluded: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start - self.excluded


def _two_part(hg) -> bool:
    """True iff hg is a complete two-part 3-graph with parts {0..a-1}, {a..n-1}.

    Any 3-graph whose edges all meet both parts and whose edge count equals
    the complete count for that split is the complete two-part graph.
    """
    if hg.r != 3:
        return False
    n, m = hg.n, hg.m
    for a in range(1, n):
        if m == math.comb(n, 3) - math.comb(a, 3) - math.comb(n - a, 3):
            if not any(e[2] < a or e[0] >= a for e in hg.edges):
                return True
    return False


def _radius_hook(span, args, result):
    hg = args[0]
    span.info.update(
        iterations=result.iterations,
        converged=result.converged,
        kernel_ops=result.iterations * hg.m * hg.r,
        two_part=_two_part(hg),
    )


def _components_hook(span, args, result):
    span.info["components"] = len(result)


def _parse_hook(span, args, result):
    span.info["edges"] = result.m


def _fano_hook(span, args, result):
    # is_fano_free answers True when free; contains_subgraph answers None
    span.info["free"] = result is True or result is None


def _patch_table():
    """(owner, attribute, span name, result hook) for every wrapped call."""
    hg_cls = hyperq.hypergraph.Hypergraph
    return [
        # calls the benchmark makes: each is one query's outermost span
        (hyperq.cli.main, "main", "cli.invoke", None),
        (hyperq, "spectral_radius", "spectral.radius", _radius_hook),
        (hyperq, "is_fano_free", "containment.fano", _fano_hook),
        (hyperq, "contains_subgraph", "containment.fano", _fano_hook),
        (hyperq, "two_coloring", "containment.two_coloring", None),
        (hyperq, "verify_extremality", "turan.extremality", None),
        (hyperq, "check_deletion_lemma", "turan.deletion", None),
        (hyperq, "scan_splits", "turan.scan_splits", None),
        # calls between layers, patched in the calling module
        (hyperq.cli, "parse", "hypergraph.parse", _parse_hook),
        (hyperq.cli, "serialize", "hypergraph.serialize", None),
        (hyperq.cli, "build_bn", "hypergraph.build", None),
        (hyperq.cli, "spectral_radius", "spectral.radius", _radius_hook),
        (hyperq.cli, "contains_subgraph", "containment.fano", _fano_hook),
        (hyperq.cli, "two_coloring", "containment.two_coloring", None),
        (hyperq.turan, "spectral_radius", "spectral.radius", _radius_hook),
        (hyperq.turan, "build_bn", "hypergraph.build", None),
        (hyperq.turan, "build_two_part_complete", "hypergraph.build", None),
        (hyperq.turan, "delete_vertex", "hypergraph.build", None),
        (hyperq.turan, "Hypergraph", "hypergraph.build", None),
        (hyperq.containment, "build_fano", "hypergraph.build", None),
        (hg_cls, "components", "hypergraph.components", _components_hook),
    ]


class Recorder:
    """Collects spans while installed; a no-op on the program when not."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query: tuple[int, int] = (-1, -1)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for owner, attr, name, hook in _patch_table():
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, hook))
            self._originals.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, hook):
        rec = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(rec.spans)
            parent = rec._stack[-1] if rec._stack else -1
            span = Span(name, time.perf_counter(), parent, rec.query)
            rec.spans.append(span)
            rec._stack.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if hook is not None:
                t0 = time.perf_counter()
                hook(span, args, result)
                spent = time.perf_counter() - t0
                for ancestor in rec._stack:
                    rec.spans[ancestor].excluded += spent
            return result

        return traced

    # -- derived metrics -----------------------------------------------------

    def _children(self) -> dict[int, list[int]]:
        kids: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent >= 0:
                kids.setdefault(span.parent, []).append(i)
        return kids

    def _outermost(self, prefix: str) -> list[int]:
        """Spans whose name starts with prefix and that have no such ancestor."""
        out = []
        for i, span in enumerate(self.spans):
            if not span.name.startswith(prefix):
                continue
            p = span.parent
            while p >= 0 and not self.spans[p].name.startswith(prefix):
                p = self.spans[p].parent
            if p < 0:
                out.append(i)
        return out

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        kids = self._children()
        return [
            span.duration - sum(self.spans[k].duration for k in kids.get(i, ()))
            for i, span in enumerate(self.spans)
        ]

    def exact_counts(self) -> dict[int, tuple]:
        """Per round: the counts that must repeat exactly when inputs repeat."""
        tallies: dict[int, dict[str, int]] = {}
        for i in self._outermost("spectral.radius"):
            span = self.spans[i]
            t = tallies.setdefault(span.query[0], {})
            t["spectral.calls"] = t.get("spectral.calls", 0) + 1
            for key in ("iterations", "kernel_ops"):
                t[key] = t.get(key, 0) + span.info[key]
        for i, span in enumerate(self.spans):
            t = tallies.setdefault(span.query[0], {})
            if span.name == "hypergraph.parse":
                t["edges_parsed"] = t.get("edges_parsed", 0) + span.info["edges"]
            elif span.name == "hypergraph.components":
                t["components_calls"] = t.get("components_calls", 0) + 1
        for prefix in ("containment.fano", "containment.two_coloring"):
            for i in self._outermost(prefix):
                span = self.spans[i]
                t = tallies.setdefault(span.query[0], {})
                t[prefix + ".calls"] = t.get(prefix + ".calls", 0) + 1
                if "free" in span.info:
                    t["fano_free"] = t.get("fano_free", 0) + span.info["free"]
        return {rnd: tuple(sorted(t.items())) for rnd, t in tallies.items()}

    def layer_metrics(self, rounds: int, apply_s: float, overhead_share: float) -> dict[str, float]:
        """Per-layer metrics, per round of the workload's query list."""
        selfs = self.self_times()

        def total(prefix, selfish=False):
            idx = self._outermost(prefix)
            return sum(selfs[i] if selfish else self.spans[i].duration for i in idx) / rounds

        radius = [self.spans[i] for i in self._outermost("spectral.radius")]
        kids = self._children()
        single = 0
        for i in self._outermost("spectral.radius"):
            comps = [self.spans[k].info.get("components") for k in kids.get(i, ())]
            single += comps == [1]
        fano = [self.spans[i] for i in self._outermost("containment.fano")]
        coloring = self._outermost("containment.two_coloring")
        turan = self._outermost("turan.")

        def share(part, whole):
            return part / whole if whole else 0.0

        return {
            "hypergraph.build_s": total("hypergraph.build"),
            "hypergraph.serialize_s": total("hypergraph.serialize"),
            "hypergraph.parse_s": total("hypergraph.parse"),
            "hypergraph.components_s": total("hypergraph.components"),
            "hypergraph.components_calls": sum(s.name == "hypergraph.components" for s in self.spans) / rounds,
            "hypergraph.edges_parsed": sum(s.info.get("edges", 0) for s in self.spans if s.name == "hypergraph.parse") / rounds,
            "spectral.calls": len(radius) / rounds,
            "spectral.radius_s": total("spectral.radius"),
            "spectral.radius_self_s": total("spectral.radius", selfish=True),
            "spectral.iterations": sum(s.info["iterations"] for s in radius) / rounds,
            "spectral.apply_s": apply_s,
            "spectral.kernel_ops_computed": sum(s.info["kernel_ops"] for s in radius) / rounds,
            "spectral.unconverged": sum(not s.info["converged"] for s in radius) / rounds,
            "spectral.single_component_share": share(single, len(radius)),
            "spectral.two_part_share": share(sum(s.info["two_part"] for s in radius), len(radius)),
            "containment.fano_s": total("containment.fano"),
            "containment.fano_calls": len(fano) / rounds,
            "containment.fano_free_share": share(sum(s.info["free"] for s in fano), len(fano)),
            "containment.two_coloring_s": total("containment.two_coloring"),
            "containment.two_coloring_calls": len(coloring) / rounds,
            "turan.extremality_s": total("turan.extremality"),
            "turan.deletion_s": total("turan.deletion"),
            "turan.scan_splits_s": total("turan.scan_splits"),
            "turan.self_s": sum(selfs[i] for i in turan) / rounds,
            "cli.self_s": total("cli.invoke", selfish=True),
            "trace.overhead_share": overhead_share,
        }

    def dump(self) -> list[list]:
        """Spans as rows: name, start, end, parent, round, query, self time."""
        selfs = self.self_times()
        return [
            [s.name, s.start, s.end, s.parent, s.query[0], s.query[1], selfs[i]]
            for i, s in enumerate(self.spans)
        ]


def median_apply_time(hosts) -> float:
    """Median over distinct hosts of one public apply_adjacency call."""
    times = []
    for hg in hosts:
        x = np.full(hg.n, hg.n ** (-1.0 / hg.r))
        t0 = time.perf_counter()
        hyperq.apply_adjacency(hg, x)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) if times else 0.0
