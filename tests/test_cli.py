import json

import pytest
from click.testing import CliRunner

from hyperq.cli import main
from hyperq.containment import Embedding
from hyperq.hypergraph import build_fano, parse
from hyperq.reporting import CSV_HEADER


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


class TestGen:
    def test_fano_stdout(self, runner):
        res = invoke(runner, "gen", "fano")
        assert res.exit_code == 0
        hg = parse(res.stdout)
        assert hg == build_fano()
        assert res.stdout.splitlines()[0] == "3 7 7"
        assert "r=3 n=7 m=7" in res.stderr

    def test_bn_to_file(self, runner, tmp_path):
        out = tmp_path / "b8.txt"
        res = invoke(runner, "gen", "bn", "8", "--out", str(out))
        assert res.exit_code == 0
        assert "r=3 n=8 m=48" in res.output
        assert out.read_text().splitlines()[0] == "3 8 48"

    def test_complete(self, runner):
        res = invoke(runner, "gen", "complete", "4", "3")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "3 4 4"

    def test_two_part(self, runner):
        res = invoke(runner, "gen", "two-part", "4", "5")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "3 9 70"

    def test_expansion(self, runner, tmp_path):
        base = tmp_path / "triangle.txt"
        base.write_text("2 3 3\n0 1\n0 2\n1 2\n")
        res = invoke(runner, "gen", "expansion", str(base), "3")
        assert res.exit_code == 0
        assert res.stdout.splitlines()[0] == "3 6 3"

    def test_expansion_rejects_non_2_graph(self, runner, tmp_path):
        base = tmp_path / "tri.txt"
        base.write_text("3 3 1\n0 1 2\n")
        res = invoke(runner, "gen", "expansion", str(base), "4")
        assert res.exit_code == 3

    def test_bad_argument(self, runner):
        res = invoke(runner, "gen", "bn", "2")
        assert res.exit_code == 2


class TestSpectral:
    def test_b8_text(self, runner, tmp_path):
        out = tmp_path / "b8.txt"
        invoke(runner, "gen", "bn", "8", "--out", str(out))
        res = invoke(runner, "spectral", str(out))
        assert res.exit_code == 0
        assert "rho = 36.0" in res.output
        assert "converged = true" in res.output

    def test_json_round_trip(self, runner, tmp_path):
        out = tmp_path / "b9.txt"
        invoke(runner, "gen", "bn", "9", "--out", str(out))
        res = invoke(runner, "spectral", str(out), "--format", "json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        assert payload["converged"] is True
        assert 46.66 < payload["rho"] < 47.0
        assert payload["lower"] <= payload["rho"] <= payload["upper"]
        # repr-based floats parse back exactly
        res2 = invoke(runner, "spectral", str(out), "--format", "json")
        assert json.loads(res2.output)["rho"] == payload["rho"]

    def test_single_edge(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        res = invoke(runner, "spectral", str(path))
        assert res.exit_code == 0
        assert "rho = 2.0" in res.output

    def test_edgeless(self, runner, tmp_path):
        path = tmp_path / "none.txt"
        path.write_text("3 4 0\n")
        res = invoke(runner, "spectral", str(path))
        assert res.exit_code == 0
        assert "rho = 0.0" in res.output

    def test_adjacency_alias(self, runner, tmp_path):
        path = tmp_path / "k4.txt"
        invoke(runner, "gen", "complete", "4", "3", "--out", str(path))
        res = invoke(runner, "spectral", str(path), "-o", "a", "--format", "json")
        assert json.loads(res.output)["rho"] == pytest.approx(3.0, abs=1e-8)
        assert json.loads(res.output)["operator"] == "adjacency"

    def test_iteration_limit_exit_4(self, runner, tmp_path):
        path = tmp_path / "b9.txt"
        invoke(runner, "gen", "bn", "9", "--out", str(path))
        res = invoke(runner, "spectral", str(path), "--max-iter", "1", "--format", "json")
        assert res.exit_code == 4
        assert json.loads(res.output)["converged"] is False

    def test_eigenvector_flag(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        res = invoke(runner, "spectral", str(path), "--eigenvector", "--format", "json")
        vec = json.loads(res.output)["eigenvector"]
        assert len(vec) == 3
        assert vec[0] == pytest.approx(3 ** (-1 / 3))

    def test_missing_file_exit_3(self, runner):
        res = invoke(runner, "spectral", "/definitely/not/here.txt")
        assert res.exit_code == 3

    def test_malformed_file_exit_3(self, runner, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3 1\n0 1\n")
        res = invoke(runner, "spectral", str(path))
        assert res.exit_code == 3

    def test_bad_operator_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "-o", "laplacian").exit_code == 2

    def test_bad_tol_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "--tol", "0").exit_code == 2

    def test_bad_max_iter_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "--max-iter", "0").exit_code == 2
        assert invoke(runner, "verify", "bounds", "4", "--max-iter", "0").exit_code == 2
        assert invoke(runner, "verify", "bounds", "4", "--tol", "-1").exit_code == 2


class TestCheck:
    def test_k7_contains_fano(self, runner, tmp_path):
        path = tmp_path / "k7.txt"
        invoke(runner, "gen", "complete", "7", "3", "--out", str(path))
        res = invoke(runner, "check", "fano", str(path), "--format", "json")
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["verdict"] == "contains"
        emb = Embedding(tuple(payload["embedding"]))
        assert emb.is_valid_for(parse(path.read_text()), build_fano())

    def test_b9_fano_free(self, runner, tmp_path):
        path = tmp_path / "b9.txt"
        invoke(runner, "gen", "bn", "9", "--out", str(path))
        res = invoke(runner, "check", "fano", str(path))
        assert res.exit_code == 0
        assert "fano-free" in res.output

    def test_fano_not_colorable(self, runner, tmp_path):
        path = tmp_path / "fano.txt"
        invoke(runner, "gen", "fano", "--out", str(path))
        res = invoke(runner, "check", "two-color", str(path))
        assert res.exit_code == 1
        assert "not 2-colorable" in res.output

    def test_b8_colorable_witness(self, runner, tmp_path):
        path = tmp_path / "b8.txt"
        invoke(runner, "gen", "bn", "8", "--out", str(path))
        res = invoke(runner, "check", "two-color", str(path), "--format", "json")
        assert res.exit_code == 0
        payload = json.loads(res.output)
        labels = payload["coloring"]
        hg = parse(path.read_text())
        assert all(len({labels[v] for v in e}) > 1 for e in hg.edges)

    def test_fano_check_needs_3_graph(self, runner, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("2 3 1\n0 1\n")
        assert invoke(runner, "check", "fano", str(path)).exit_code == 3


class TestVerify:
    def test_bounds_pass(self, runner):
        res = invoke(runner, "verify", "bounds", "4:12")
        assert res.exit_code == 0
        assert res.output.count("true") == 9

    def test_splits_balanced(self, runner):
        res = invoke(runner, "verify", "splits", "8:12", "--format", "json")
        assert res.exit_code == 0
        for rec in json.loads(res.output):
            assert rec["pass"] is True

    def test_criterion_pass_and_fail(self, runner):
        assert invoke(runner, "verify", "criterion", "50:60", "--sigma", "0.05").exit_code == 0
        assert invoke(runner, "verify", "criterion", "100", "--sigma", "1e-9").exit_code == 5

    def test_deletion(self, runner):
        res = invoke(runner, "verify", "deletion", "7:9", "--format", "csv")
        assert res.exit_code == 0
        lines = res.output.strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4

    def test_extremal(self, runner):
        res = invoke(runner, "verify", "extremal", "8", "--samples", "3", "--format", "json")
        assert res.exit_code == 0
        [rec] = json.loads(res.output)
        assert rec["pass"] is True
        assert rec["value"] < rec["bound"]

    def test_deterministic_bytes(self, runner):
        a = invoke(runner, "verify", "extremal", "8", "--samples", "3", "--seed", "5", "--format", "json")
        b = invoke(runner, "verify", "extremal", "8", "--samples", "3", "--seed", "5", "--format", "json")
        assert a.output == b.output

    def test_json_round_trip_exact(self, runner):
        res = invoke(runner, "verify", "bounds", "9", "--format", "json")
        [rec] = json.loads(res.output)
        res2 = invoke(runner, "verify", "bounds", "9", "--format", "json")
        assert json.loads(res2.output)[0]["value"] == rec["value"]

    def test_bad_range(self, runner):
        assert invoke(runner, "verify", "bounds", "9:4").exit_code == 2
        assert invoke(runner, "verify", "bounds", "abc").exit_code == 2
        assert invoke(runner, "verify", "bounds", "1:2:3").exit_code == 2

    def test_domain_error_is_usage(self, runner):
        assert invoke(runner, "verify", "bounds", "2:3").exit_code == 2
        assert invoke(runner, "verify", "extremal", "5").exit_code == 2

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "report.csv"
        res = invoke(runner, "verify", "splits", "8:10", "--format", "csv", "--out", str(out))
        assert res.exit_code == 0
        assert out.read_text().splitlines()[0] == CSV_HEADER


def test_usage_without_args(runner):
    assert invoke(runner).exit_code in (0, 2)  # help screen

def test_unknown_subcommand(runner):
    assert invoke(runner, "frobnicate").exit_code == 2
