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
