"""hyperq benchmark: one closed-loop client, one process, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hyperq is imported from its ``src``.  The
seed generates the workload's inputs, set-up runs several times, and the
timed loop replays the workload's query list round after round until S
seconds have passed and the workload's minimum round count is reached.  Every query's
output is checked by an oracle and must repeat byte for byte in every round.

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 rounds alternate between untraced and traced, and
the JSON object carries the per-layer metrics derived from the spans, which
are written to .bench_build/perfbench/.  See perfbench/README.md.
"""

import argparse
import gc
import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread: keep OpenBLAS from starting a pool that competes for the two
# cores with the client itself
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 3
IMPORTS = "import hyperq, hyperq.cli, spans, workloads"
# stop after this, whatever the minimum round count, so that the process
# ends within 180 s
HARD_STOP_S = 120.0


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_query(query, outcome_log, first_digest=None):
    """Time one query, check it, and return (seconds, ok, digest)."""
    t0 = time.perf_counter()
    try:
        result = query.call()
    except Exception:  # a raising query is a counted failure, not an abort
        elapsed = time.perf_counter() - t0
        outcome_log.append(f"{query.label}: raised\n{traceback.format_exc(limit=3)}")
        return elapsed, False, None
    elapsed = time.perf_counter() - t0
    try:
        digest = query.check(result)
    except Exception as exc:  # Wrong from the oracle, or a malformed output
        outcome_log.append(f"{query.label}: {type(exc).__name__}: {exc}")
        return elapsed, False, None
    if first_digest is not None and digest != first_digest:
        outcome_log.append(f"{query.label}: output differs from the first round")
        return elapsed, False, digest
    return elapsed, True, digest


def _typical(times: list[float]) -> float:
    """A query's upper-quartile wall time over the run's rounds.

    On a shared host a query runs at one of two speeds, up to 2x apart, for
    seconds at a time, depending on what the other tenants do.  The upper
    quartile stays in the slower, more common state whether the faster one
    covers a twentieth or half of the run; the minimum and the median jump
    between the two states from run to run.
    """
    return statistics.quantiles(times, n=4, method="inclusive")[2] if len(times) > 1 else times[0]


def _end_to_end(samples: list[list[float]], good_share: float, min_rounds: int):
    """Throughput and latency figures from each query's typical wall time.

    Every query of the list ran once per round, the last round perhaps cut
    short, and its samples are replaced by their upper quartile (_typical),
    so the query mix stays the same.  Each query counts min_rounds times, so
    the tail, taken at the highest whole percentile with at least ten
    samples beyond it, is fixed by the workload and does not move when a run
    fits more rounds.
    """
    typical = [_typical(s) for s in samples]
    weighted = sorted(t for t in typical for _ in range(min_rounds))
    p = max(50, math.floor(100.0 * (1.0 - 10.0 / len(weighted))))
    rank = math.ceil(p / 100.0 * len(weighted))
    return {
        "throughput_ops_s": good_share * len(typical) / sum(typical),
        "latency_p50_s": statistics.median(typical),
        "latency_tail_s": weighted[rank - 1],
    }, p, len(weighted) - rank


def _import_time(src: Path) -> float:
    """Time to import hyperq and the benchmark modules in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); {IMPORTS}; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def _versions():
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    src = ROOT / "src"
    if not (src / "hyperq" / "__init__.py").is_file():
        print(f"perfbench: no hyperq sources under {src}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    t_import = time.perf_counter()
    import hyperq
    import spans
    import workloads

    # one in-process sample plus fresh interpreters, so that import time is
    # a median like the rest of set-up
    import_s = statistics.median([time.perf_counter() - t_import] + [_import_time(src) for _ in range(SETUP_REPEATS - 1)])
    if Path(hyperq.__file__).resolve().parent != src / "hyperq":
        print(f"perfbench: hyperq imported from {hyperq.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workdir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _bench(args, workloads, spans, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workloads, spans, import_s, workdir) -> int:
    log: list[str] = []

    # set-up: input generation plus warm-up, repeated; the median counts
    setup_times, digests = [], set()
    warm_failed = 0
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        for q in wl.warmup:
            warm_failed += not _run_query(q, log)[1]
        setup_times.append(time.perf_counter() - t0)
        digests.add(wl.input_digest)
    if len(digests) != 1:
        log.append("set-up: the same seed generated different inputs")

    recorder = spans.Recorder() if args.trace else None
    first_digest: dict[int, str] = {}
    samples: list[list[float]] = [[] for _ in wl.queries]
    round_times = {False: [], True: []}
    attempted = failed = 0
    rounds = 0
    need = wl.min_rounds if not args.trace else 4
    t_start = time.perf_counter()
    done = False
    while not done:
        traced = bool(args.trace) and rounds % 2 == 1
        # every round starts from a collected heap
        gc.collect()
        if traced:
            recorder.install()
        round_s = 0.0
        try:
            for i, q in enumerate(wl.queries):
                if traced:
                    recorder.query = (rounds, i)
                elapsed, ok, digest = _run_query(q, log, first_digest.get(i))
                if digest is not None:
                    first_digest.setdefault(i, digest)
                attempted += 1
                failed += not ok
                round_s += elapsed
                if not traced:
                    samples[i].append(elapsed)
                wall = time.perf_counter() - t_start
                completed = rounds + (i + 1 == len(wl.queries))
                done = (completed >= need and wall >= args.seconds) or wall >= HARD_STOP_S
                # the untraced run stops on time, mid-round if need be, once
                # every query has a sample; the traced run compares whole
                # rounds, so it finishes its round
                if done and not args.trace and rounds:
                    break
        finally:
            if traced:
                recorder.uninstall()
        rounds += 1
        # only the traced run reads round times, and its rounds are whole
        round_times[traced].append(round_s)

    repeat_ok = True
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "queries": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "warmup_failed": warm_failed,
        **_versions(),
        "edge_array_bytes_max": wl.edge_array_bytes,
    }
    if args.trace:
        counts = recorder.exact_counts()
        if len(set(counts.values())) > 1:
            repeat_ok = False
            log.append(f"exact counts differ between rounds: {counts}")
        traced_rounds = len(round_times[True])
        overhead = statistics.median(round_times[True]) / statistics.median(round_times[False]) - 1.0
        apply_s = spans.median_apply_time(wl.probe_hosts())
        metrics = recorder.layer_metrics(traced_rounds, apply_s, overhead)
        summary["traced_rounds"] = traced_rounds
        result_metrics = {
            k: {"value": v, "unit": "s" if k.endswith("_s") else "ratio" if k.endswith("_share") else "count"}
            for k, v in metrics.items()
        }
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"summary": summary, "metrics": metrics, "exact_counts": {str(k): v for k, v in counts.items()}, "spans": recorder.dump()})
        )
        summary["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        figures, pct, beyond = _end_to_end(samples, (attempted - failed) / attempted, wl.min_rounds)
        figures["setup_s"] = import_s + statistics.median(setup_times)
        figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {"throughput_ops_s": "1/s", "peak_rss_mb": "MB"}
        result_metrics = {k: {"value": v, "unit": units.get(k, "s")} for k, v in figures.items()}
        summary.update(latency_tail_percentile=pct, latency_tail_beyond=beyond, latency_samples=sum(map(len, samples)))

    for line in log[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in summary.items()))
    print(" ".join(f"{k}={m['value']!r} {m['unit']}" for k, m in result_metrics.items()))
    correct = failed == 0 and warm_failed == 0 and len(digests) == 1 and repeat_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics}))
    return 0 if repeat_ok else 1


if __name__ == "__main__":
    sys.exit(main())
