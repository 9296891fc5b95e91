"""The benchmark recorder's summary counts only sound pairs of runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


THROUGHPUT = [{"name": "throughput_ops_s", "better": "higher", "bound": 0.25}]


def _run(seed, side, ops, correct=True, failed=0, returncode=0, setup_s=0.15):
    metrics = {"throughput_ops_s": {"value": ops, "unit": "1/s"}, "setup_s": {"value": setup_s, "unit": "s"}}
    result = {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}
    return {"workload": "w", "seed": seed, "side": side, "returncode": returncode, "result": result}


def test_unsound_pairs_are_excluded():
    runs = [
        _run(1, "parent", 10.0),
        _run(1, "change", 20.0),
        _run(2, "parent", 10.0),
        _run(2, "change", 30.0, correct=False),
        _run(3, "parent", 10.0),
        _run(3, "change", 30.0, failed=1),
        _run(4, "parent", 12.0, returncode=1),
        _run(4, "change", 30.0),
        _run(5, "parent", 11.0),  # its change run has not happened yet
    ]
    summary = bench_record._summary(runs, THROUGHPUT)["w"]
    assert summary["excluded_pairs"] == 3
    assert summary["throughput_ops_s"]["change_wins"] == "1/1"
    assert summary["throughput_ops_s"]["change"]["median"] == 20.0


def test_no_sound_pair_gives_no_metrics():
    runs = [_run(1, "parent", 10.0), _run(1, "change", 20.0, correct=False)]
    assert bench_record._summary(runs, THROUGHPUT) == {"w": {"excluded_pairs": 1}}


def test_worse_by_and_past_bound():
    # a throughput gain next to a set-up time 27 % worse than the parent's
    runs = [
        *(_run(seed, "parent", 28.6, setup_s=0.126) for seed in (1, 2, 3)),
        *(_run(seed, "change", 44.4, setup_s=0.160) for seed in (1, 2, 3)),
    ]
    metrics = THROUGHPUT + [{"name": "setup_s", "better": "lower", "bound": 0.25}]
    summary = bench_record._summary(runs, metrics)["w"]
    assert summary["throughput_ops_s"]["worse_by"] == pytest.approx((28.6 - 44.4) / 28.6)
    assert summary["throughput_ops_s"]["past_bound"] is False
    assert summary["setup_s"]["worse_by"] == pytest.approx(0.034 / 0.126)
    assert summary["setup_s"]["past_bound"] is True


@pytest.mark.parametrize("better,change,past", [("lower", 1.28, True), ("lower", 1.2, False), ("higher", 0.72, True), ("higher", 0.8, False)])
def test_past_bound_in_the_worse_direction(better, change, past):
    runs = [_run(1, "parent", 1.0), _run(1, "change", change)]
    metric = {"name": "throughput_ops_s", "better": better, "bound": 0.25}
    assert bench_record._summary(runs, [metric])["w"]["throughput_ops_s"]["past_bound"] is past


def test_criteria_times_read_from_durations_table():
    out = (
        "........ [100%]\n"
        "============================== slowest durations ===============================\n"
        "2.60s call     tests/test_acceptance.py::test_criterion_06\n"
        "0.85s call     tests/test_acceptance.py::test_criterion_10\n"
        "0.40s call     tests/test_spectral.py::test_disjoint_triples\n"
        "0.01s setup    tests/test_acceptance.py::test_criterion_01\n"
        "0.00s call     tests/test_acceptance.py::test_criterion_01\n"
        "441 passed in 30.74s\n"
    )
    assert bench_record.criteria_times(out) == {
        "test_criterion_06": 2.60,
        "test_criterion_10": 0.85,
        "test_criterion_01": 0.0,
    }


def test_tier1_run_asks_for_every_duration():
    assert {"--durations=0", "--durations-min=0"} <= set(bench_record.TIER1)


def _durations(criterion_10_s, criterion_06_s=None):
    lines = ["........ [100%]", "=== slowest durations ==="]
    if criterion_06_s is not None:
        lines.append(f"{criterion_06_s:.2f}s call     tests/test_acceptance.py::test_criterion_06")
    lines += [f"{criterion_10_s:.2f}s call     tests/test_acceptance.py::test_criterion_10", "469 passed in 30.00s"]
    return "\n".join(lines) + "\n"


def test_tier1_summary_takes_medians_over_runs():
    outs = [_durations(1.96, 2.60), _durations(2.82), _durations(2.10, 3.40)]
    runs = [{"wall_s": wall, "criteria_s": bench_record.criteria_times(out)} for wall, out in zip([31.0, 29.0, 40.0], outs)]
    summary = bench_record.tier1_summary(runs)
    assert summary["runs"] == runs
    assert summary["wall_s"] == 31.0
    # a criterion missing from one run's table is the median of the runs that timed it
    assert summary["criteria_s"] == {"test_criterion_06": 3.0, "test_criterion_10": 2.10}


def test_tier1_runs_alternate_which_side_goes_first(tmp_path, monkeypatch):
    sides = {side: tmp_path / side for side in ("parent", "change")}
    for path in sides.values():
        path.mkdir()
    spec = '{"run_seconds": 1, "workloads": [], "end_to_end": []}'
    (sides["change"] / "BENCHMARK.json").write_text(spec)
    calls = []

    def fake_run(cwd, argv):
        calls.append(cwd.name)
        return float(len(calls)), 0, _durations(len(calls) / 10), "469 passed"

    monkeypatch.setattr(bench_record, "_run", fake_run)
    out = tmp_path / "bench.json"
    bench_record.main(["--parent", str(sides["parent"]), "--change", str(sides["change"]), "--out", str(out)])
    assert calls == ["parent", "change", "change", "parent", "parent", "change"]
    tier1 = json.loads(out.read_text())["tier1"]
    assert [run["first"] for run in tier1["parent"]["runs"]] == ["parent", "change", "parent"]
    assert tier1["parent"]["wall_s"] == 4.0  # the parent ran as calls 1, 4 and 5
    assert tier1["change"]["criteria_s"] == {"test_criterion_10": 0.3}  # calls 2, 3 and 6
