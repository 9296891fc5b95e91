"""The benchmark recorder's summary counts only sound pairs of runs."""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def _run(seed, side, ops, correct=True, failed=0, returncode=0):
    metrics = {"throughput_ops_s": {"value": ops, "unit": "1/s"}}
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
    summary = bench_record._summary(runs, {"throughput_ops_s": "higher"})["w"]
    assert summary["excluded_pairs"] == 3
    assert summary["throughput_ops_s"]["change_wins"] == "1/1"
    assert summary["throughput_ops_s"]["change"]["median"] == 20.0


def test_no_sound_pair_gives_no_metrics():
    runs = [_run(1, "parent", 10.0), _run(1, "change", 20.0, correct=False)]
    assert bench_record._summary(runs, {"throughput_ops_s": "higher"}) == {"w": {"excluded_pairs": 1}}
