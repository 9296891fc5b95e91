import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from hyperq.cli import main
from hyperq.containment import Embedding, contains_subgraph
from hyperq.hypergraph import Hypergraph, build_bn, build_fano, parse, serialize
from hyperq.reporting import CSV_HEADER

from cli_golden import CHECK, VERIFY
from spectral_golden import SPECTRAL_B61


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

    def test_out_into_missing_directory(self, runner, tmp_path):
        res = invoke(runner, "gen", "fano", "--out", str(tmp_path / "missing" / "fano.txt"))
        assert res.exit_code == 3
        assert "cannot write" in res.output

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

    def test_huge_vertex_count_exit_3(self, runner, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("3 4611686018427387904 0\n")
        res = invoke(runner, "spectral", str(path))
        assert res.exit_code == 3
        assert res.stderr.count("\n") == 1 and "vertex count" in res.stderr

    def test_bad_operator_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "-o", "laplacian").exit_code == 2

    def test_bad_tol_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "--tol", "0").exit_code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exit_2(self, runner, tmp_path, tol):
        # nan ran to --max-iter and exited 4; inf reported convergence after one iteration
        path = tmp_path / "b9.txt"
        invoke(runner, "gen", "bn", "9", "--out", str(path))
        res = invoke(runner, "spectral", str(path), "--tol", tol, "--max-iter", "50")
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"tol must be finite and > 0, got {tol}" in res.stderr
        assert invoke(runner, "verify", "bounds", "9", "--tol", tol, "--max-iter", "50").exit_code == 2

    def test_bad_max_iter_exit_2(self, runner, tmp_path):
        path = tmp_path / "edge.txt"
        path.write_text("3 3 1\n0 1 2\n")
        assert invoke(runner, "spectral", str(path), "--max-iter", "0").exit_code == 2
        assert invoke(runner, "verify", "bounds", "4", "--max-iter", "0").exit_code == 2
        assert invoke(runner, "verify", "bounds", "4", "--tol", "-1").exit_code == 2


@pytest.fixture(scope="module")
def b61_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "b61.txt"
    assert invoke(CliRunner(), "gen", "bn", "61", "--out", str(path)).exit_code == 0
    return path


@pytest.mark.parametrize("key", sorted(SPECTRAL_B61))
def test_spectral_report_bytes(runner, b61_file, key):
    op, fmt, with_vector = key
    args = ["spectral", str(b61_file), "-o", op, "--format", fmt] + ["--eigenvector"] * with_vector
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert res.stdout_bytes == SPECTRAL_B61[key].encode()


@pytest.fixture(scope="module")
def golden_hosts(tmp_path_factory):
    root = tmp_path_factory.mktemp("hosts")
    builds = {"k7": ["complete", "7", "3"], "b9": ["bn", "9"], "fano": ["fano"], "b8": ["bn", "8"]}
    for name, args in builds.items():
        assert invoke(CliRunner(), "gen", *args, "--out", str(root / f"{name}.txt")).exit_code == 0
    return root


@pytest.mark.parametrize("key", sorted(CHECK))
def test_check_report_bytes(runner, golden_hosts, key):
    what, host, fmt = key
    res = invoke(runner, "check", what, str(golden_hosts / f"{host}.txt"), "--format", fmt)
    code, stdout = CHECK[key]
    assert res.exit_code == code
    assert res.stdout_bytes == stdout.encode()


@pytest.mark.parametrize("key", sorted(VERIFY))
def test_verify_report_bytes(runner, key):
    args, fmt = key
    res = invoke(runner, "verify", *args.split(), "--format", fmt)
    code, stdout = VERIFY[key]
    assert res.exit_code == code
    assert res.stdout_bytes == stdout.encode()


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

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_b91_fano_free(self, runner, tmp_path, fmt):
        # the embedding search alone does not finish on B_91; its 2-coloring settles the check
        path = tmp_path / "b91.txt"
        assert invoke(runner, "gen", "bn", "91", "--out", str(path)).exit_code == 0
        res = invoke(runner, "check", "fano", str(path), "--format", fmt)
        code, stdout = CHECK[("fano", "b9", fmt)]
        assert res.exit_code == code == 0
        assert res.stdout_bytes == stdout.encode()

    def test_b91_with_in_part_edge_contains(self, runner, tmp_path):
        host = Hypergraph(3, 91, [*build_bn(91)[0].edges, (0, 1, 9)])
        path = tmp_path / "b91e.txt"
        path.write_text(serialize(host))
        res = invoke(runner, "check", "fano", str(path), "--format", "json")
        assert res.exit_code == 1
        payload = json.loads(res.output)
        assert payload["verdict"] == "contains"
        emb = Embedding(tuple(payload["embedding"]))
        assert emb.is_valid_for(host, build_fano())
        assert emb == contains_subgraph(host, build_fano())

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

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_non_finite_sigma_exit_2(self, runner, sigma):
        # nan failed every record (exit 5) and inf passed every record (exit 0)
        res = invoke(runner, "verify", "criterion", "50", "--sigma", sigma)
        assert res.exit_code == 2
        assert res.stdout == ""
        assert f"sigma must be finite and > 0, got {sigma}" in res.stderr

    def test_deletion_on_one_edge_is_usage_error(self, runner):
        # B_3 has one edge; the deletion check's TooSmallError was a traceback (exit 1)
        res = invoke(runner, "verify", "deletion", "3")
        assert res.exit_code == 2
        assert "deletion check needs at least 2 edges, got 1" in res.stderr

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

    @pytest.mark.parametrize("what", ["deletion", "extremal"])
    def test_unconverged_exit_4(self, runner, what):
        # both commands ignored --max-iter (and --tol) before it was threaded through
        n_range = {"deletion": "7:8", "extremal": "8"}[what]
        res = invoke(runner, "verify", what, n_range, "--samples", "3", "--max-iter", "1")
        assert res.exit_code == 4
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert "did not converge" in line

    def test_extremal_unconverged_names_first_unconverged_host(self, runner):
        # B_8 converges in one iteration, so the first edge-deletion competitor is named
        res = invoke(runner, "verify", "extremal", "8", "--max-iter", "1")
        assert res.exit_code == 4
        assert res.stdout == ""
        assert res.stderr.splitlines() == ["Error: spectral iteration on n=8, m=46 did not converge in 1 iterations"]

    def test_bounds_unconverged_exit_4(self, runner):
        res = invoke(runner, "verify", "bounds", "9", "--max-iter", "1")
        assert res.exit_code == 4
        assert res.stdout == ""
        [line] = res.stderr.splitlines()
        assert "did not converge" in line
        # B_9 needs about 19 iterations at the default --tol, and fewer at a coarse one
        assert invoke(runner, "verify", "bounds", "9", "--max-iter", "30").exit_code == 0
        assert invoke(runner, "verify", "bounds", "9", "--max-iter", "5", "--tol", "1e-2").exit_code == 0

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


def test_version_from_the_package(runner):
    res = invoke(runner, "--version")
    assert res.exit_code == 0
    assert res.output == "hyperq, version 0.1.0\n"


def test_pyproject_reads_the_package_version():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        config = tomllib.load(fh)
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "hyperq.__version__"}


def test_usage_without_args(runner):
    assert invoke(runner).exit_code in (0, 2)  # help screen

def test_unknown_subcommand(runner):
    assert invoke(runner, "frobnicate").exit_code == 2
