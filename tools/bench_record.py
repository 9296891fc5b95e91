"""Record alternating parent/change benchmark runs in one JSON file.

    python3 tools/bench_record.py --parent DIR --change DIR --out BENCH_<n>.json

DIR is a checkout.  Every workload that the change's BENCHMARK.json lists
gets 10 pairs of runs, enough to tell whether the change wins nine in ten.
Pair i of a workload runs seed i + 1 on both sides, the parent first on even
i and the change first on odd i; each run is
`python3 perfbench/run.py` from that checkout, unchanged, for the
`run_seconds` that BENCHMARK.json sets, and its exit code and last JSON line
are kept.  A pair in which either run exited non-zero, was not correct or
failed a query is left out of the summary and counted as excluded.  For each
end-to-end metric the summary gives `worse_by`, the change's median move in
the metric's worse direction as a share of the parent's median, and
`past_bound`, whether that exceeds the metric's bound.  Then one
`--trace 1` run per side and workload, and three tier-1 `pytest -q` runs per
side, the parent first in the first and third round, each timed from outside,
with each acceptance criterion's call time read off pytest's `--durations`
table.  Every tier-1 run is kept, and each side's medians summarise them.
The file is rewritten after every run, so an interrupted recording keeps
what it measured.  Stdlib only.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
TIER1_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", "--durations=0", "--durations-min=0"]
# a call line of pytest's durations table for one acceptance criterion
_CRITERION = re.compile(r"^([0-9.]+)s call\s+tests/test_acceptance\.py::(test_criterion_\d+)$", re.MULTILINE)


def _run(cwd: Path, argv: list[str]) -> tuple[float, int, str, str]:
    """Wall time, exit code, stdout, and the last stdout line (or stderr's tail)."""
    t0 = time.perf_counter()
    done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr[-500:]
    return time.perf_counter() - t0, done.returncode, done.stdout, last


def criteria_times(pytest_stdout: str) -> dict[str, float]:
    """Call time in seconds of each acceptance criterion in a `--durations` table."""
    return {name: float(secs) for secs, name in _CRITERION.findall(pytest_stdout)}


def tier1_summary(runs: list[dict]) -> dict:
    """A side's tier-1 runs with the median wall time and each criterion's
    median call time over the runs that timed it."""
    names = sorted({name for run in runs for name in run["criteria_s"]})
    return {
        "runs": runs,
        "wall_s": statistics.median(run["wall_s"] for run in runs),
        "criteria_s": {
            name: statistics.median(run["criteria_s"][name] for run in runs if name in run["criteria_s"])
            for name in names
        },
    }


def _bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    _, code, _, last = _run(cwd, argv + ["--trace", str(trace)])
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        result = {"correct": False, "error": last}
    return {"returncode": code, "result": result}


def _sound(run: dict) -> bool:
    result = run["result"]
    return run["returncode"] == 0 and result.get("correct") is True and result.get("failed") == 0


def _quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "n": len(values)}


def _summary(runs: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric of BENCHMARK.json: each side's
    quartiles over the whole sound pairs, the pairs the change won, the
    median gap over the parent's IQR, how much worse the change's median is
    than the parent's as a share of the parent's (negative when better), and
    whether that exceeds the metric's bound; pairs with an unsound run are
    only counted."""
    out: dict = {}
    for wl in sorted({r["workload"] for r in runs}):
        pairs: dict[int, dict] = {}
        for r in runs:
            if r["workload"] == wl:
                pairs.setdefault(r["seed"], {})[r["side"]] = r
        whole = [p for p in pairs.values() if len(p) == 2]
        sound = [{side: r["result"]["metrics"] for side, r in p.items()} for p in whole if all(map(_sound, p.values()))]
        out[wl] = {"excluded_pairs": len(whole) - len(sound)}
        for spec in metrics if sound else ():
            metric, sign = spec["name"], spec["better"]
            parent = [p["parent"][metric]["value"] for p in sound]
            change = [p["change"][metric]["value"] for p in sound]
            wins = sum((c > q) if sign == "higher" else (c < q) for q, c in zip(parent, change))
            pq, cq = _quartiles(parent), _quartiles(change)
            iqr = pq["q3"] - pq["q1"]
            rise = (cq["median"] - pq["median"]) / pq["median"] if pq["median"] else None
            worse_by = None if rise is None else rise if sign == "lower" else -rise
            out[wl][metric] = {
                "parent": pq,
                "change": cq,
                "change_wins": f"{wins}/{len(sound)}",
                "median_gap_over_parent_iqr": abs(cq["median"] - pq["median"]) / iqr if iqr else None,
                "worse_by": worse_by,
                "past_bound": worse_by is not None and worse_by > spec["bound"],
            }
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    host = {"nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine()}
    seconds = spec["run_seconds"]
    record: dict = {"host": host, "seconds": seconds, "runs": [], "traces": [], "tier1": {}, "summary": {}}

    def save():
        record["summary"] = _summary(record["runs"], spec["end_to_end"])
        args.out.write_text(json.dumps(record, indent=1) + "\n")

    for workload in (w["name"] for w in spec["workloads"]):
        for i in range(PAIRS):
            seed = i + 1
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for side in order:
                run = _bench(sides[side], workload, seed, seconds, 0)
                record["runs"].append({"workload": workload, "seed": seed, "side": side, "first": order[0], **run})
                save()
        for side in ("parent", "change"):
            run = _bench(sides[side], workload, 1, seconds, 1)
            record["traces"].append({"workload": workload, "seed": 1, "side": side, **run})
            save()
    tier1: dict[str, list[dict]] = {side: [] for side in sides}
    for i in range(TIER1_RUNS):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            wall, code, out, last = _run(sides[side], [sys.executable, *TIER1])
            tier1[side].append(
                {"first": order[0], "wall_s": wall, "returncode": code, "last_line": last, "criteria_s": criteria_times(out)}
            )
            record["tier1"][side] = tier1_summary(tier1[side])
            save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
