"""Command-line front end.

Subcommands: gen (write constructions as hypergraph files), spectral
(tensor spectral radius of a file), check (Fano containment and
2-colorability verdicts), verify (numeric verification harness).

Exit codes: 0 ok, 1 negative verdict from check, 2 usage error, 3 I/O
or input-data error, 4 spectral iteration did not converge, 5 at least
one verification record failed.
"""

from pathlib import Path

import click

from . import __version__

# contains_subgraph is no longer called here, but perfbench/spans.py traces
# calls through hyperq.cli.contains_subgraph, so the name stays importable
from .containment import _fano_copy, contains_subgraph, two_coloring  # noqa: F401
from .errors import ArgumentRangeError, HyperqError, NoConvergenceError, TooSmallError
from .hypergraph import (
    Hypergraph,
    build_bn,
    build_complete,
    build_expansion,
    build_fano,
    build_two_part_complete,
    parse,
    serialize,
)
from .reporting import FORMATS, Record, render, to_verdict
from .spectral import ADJACENCY, DEFAULT_MAX_ITER, DEFAULT_TOL, SIGNLESS_LAPLACIAN, spectral_radius
from .turan import (
    CriterionParams,
    _converged_radius,
    bn_q_bounds,
    bn_scan_q,
    check_condition1,
    check_condition2,
    check_deletion_lemma,
    fano_turan_number,
    scan_splits,
    verify_extremality,
)

_OPERATORS = {
    "q": SIGNLESS_LAPLACIAN,
    "signless_laplacian": SIGNLESS_LAPLACIAN,
    "signless-laplacian": SIGNLESS_LAPLACIAN,
    "a": ADJACENCY,
    "adjacency": ADJACENCY,
}


class _Fail(click.ClickException):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _read_hypergraph(path: str) -> Hypergraph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise _Fail(f"cannot read {path}: {exc}", 3) from None
    try:
        return parse(text)
    except HyperqError as exc:
        raise _Fail(f"{path}: {exc}", 3) from None


def _too_large(path: str, hg: Hypergraph) -> _Fail:
    """The input-data error for a file whose per-vertex arrays numpy cannot allocate."""
    return _Fail(f"{path}: not enough memory for the arrays of n={hg.n} vertices", 3)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        raise _Fail(f"cannot write {out}: {exc}", 3) from None


def _parse_range(text: str) -> tuple[int, int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise click.UsageError(f"range must be N or LO:HI, got {text!r}") from None
    if lo > hi:
        raise click.UsageError(f"empty range {text!r}")
    return lo, hi


@click.group()
@click.version_option(version=__version__, prog_name="hyperq")
def main():
    """Spectral and extremal toolkit for uniform hypergraphs."""


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------


@main.group()
def gen():
    """Write one of the built-in constructions as a hypergraph file."""


def _emit(build, out: str | None) -> None:
    """Write the hypergraph that build() returns; its ArgumentRangeError is a usage error."""
    try:
        hg = build()
    except ArgumentRangeError as exc:
        raise click.UsageError(str(exc)) from None
    summary = f"r={hg.r} n={hg.n} m={hg.m}"
    if out is None:
        click.echo(serialize(hg), nl=False)
        click.echo(summary, err=True)
    else:
        _write_text(serialize(hg), out)
        click.echo(f"{summary} -> {out}")


_OUT_OPT = click.option("--out", metavar="FILE", default=None, help="Write here instead of stdout.")
_TOL_OPT = click.option("--tol", type=click.FloatRange(min=0, min_open=True), default=DEFAULT_TOL, show_default=True)
_MAX_ITER_OPT = click.option("--max-iter", type=click.IntRange(min=1), default=DEFAULT_MAX_ITER, show_default=True)


@gen.command("fano")
@_OUT_OPT
def gen_fano(out):
    """The 7-point projective plane as a 3-graph."""
    _emit(build_fano, out)


@gen.command("bn")
@click.argument("n", type=int)
@_OUT_OPT
def gen_bn(n, out):
    """Balanced complete two-part 3-graph on N vertices."""
    _emit(lambda: build_bn(n)[0], out)


@gen.command("two-part")
@click.argument("a", type=int)
@click.argument("b", type=int)
@_OUT_OPT
def gen_two_part(a, b, out):
    """Complete two-part 3-graph with part sizes A and B."""
    _emit(lambda: build_two_part_complete(a, b)[0], out)


@gen.command("complete")
@click.argument("n", type=int)
@click.argument("r", type=int)
@_OUT_OPT
def gen_complete(n, r, out):
    """Complete R-graph on N vertices."""
    _emit(lambda: build_complete(n, r), out)


@gen.command("expansion")
@click.argument("base_file", metavar="FILE")
@click.argument("r", type=int)
@_OUT_OPT
def gen_expansion(base_file, r, out):
    """Expand the 2-graph in FILE to an R-graph with fresh vertices."""
    base = _read_hypergraph(base_file)
    if base.r != 2:
        raise _Fail(f"{base_file}: expansion needs a 2-graph, got r={base.r}", 3)
    _emit(lambda: build_expansion(base.edge_array, base.n, r), out)


# ---------------------------------------------------------------------------
# spectral
# ---------------------------------------------------------------------------


@main.command("spectral")
@click.argument("input_path", metavar="FILE")
@click.option("--operator", "-o", type=click.Choice(list(_OPERATORS)), default="q", show_default=True)
@_TOL_OPT
@_MAX_ITER_OPT
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
@click.option("--eigenvector", "with_vector", is_flag=True, help="Include the eigenvector in the report.")
@_OUT_OPT
@click.pass_context
def cmd_spectral(ctx, input_path, operator, tol, max_iter, fmt, with_vector, out):
    """Tensor spectral radius of the hypergraph in FILE."""
    hg = _read_hypergraph(input_path)
    try:
        res = spectral_radius(hg, _OPERATORS[operator], tol=tol, max_iter=max_iter)
    except ArgumentRangeError as exc:
        raise click.UsageError(str(exc)) from None
    except MemoryError:
        raise _too_large(input_path, hg) from None
    report = {
        "operator": _OPERATORS[operator],
        "rho": res.rho,
        "lower": res.lower,
        "upper": res.upper,
        "iterations": res.iterations,
        "residual": res.residual,
        "converged": res.converged,
    }
    csv_row = dict(report)
    if with_vector:
        report["eigenvector"] = [float(v) for v in res.eigenvector]
    _write_text(render(csv_row if fmt == "csv" else report, fmt), out)
    if not res.converged:
        ctx.exit(4)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


@main.command("check")
@click.argument("what", type=click.Choice(["fano", "two-color"]))
@click.argument("input_path", metavar="FILE")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
@_OUT_OPT
@click.pass_context
def cmd_check(ctx, what, input_path, fmt, out):
    """Fano-freeness or 2-colorability of the hypergraph in FILE.

    Exit 0 when the input is fano-free / 2-colorable, 1 otherwise.
    """
    hg = _read_hypergraph(input_path)
    if what == "fano" and hg.r != 3:
        raise _Fail(f"{input_path}: fano check needs a 3-graph, got r={hg.r}", 3)
    try:
        found = _fano_copy(hg) if what == "fano" else two_coloring(hg)
    except MemoryError:
        raise _too_large(input_path, hg) from None
    if what == "fano":
        ok = found is None
        verdict = "fano-free" if ok else "contains"
        witness = None if ok else list(found.mapping)
        witness_name = "embedding"
    else:
        ok = found is not None
        verdict = "2-colorable" if ok else "not 2-colorable"
        witness = list(found.assignment) if ok else None
        witness_name = "coloring"

    report = {"check": what, "verdict": verdict, "ok": ok, witness_name: witness}
    csv_row = {k: v for k, v in report.items() if k != "ok"}
    if fmt == "text":
        text = to_verdict(verdict, witness_name, witness)
    else:
        text = render(csv_row if fmt == "csv" else report, fmt)
    _write_text(text, out)
    ctx.exit(0 if ok else 1)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


@main.command("verify")
@click.argument("what", type=click.Choice(["bounds", "splits", "criterion", "deletion", "extremal"]))
@click.argument("n_range", metavar="RANGE")
@click.option("--sigma", default=0.05, show_default=True, help="Slack budget for the criterion conditions.")
@click.option("--samples", default=20, show_default=True, help="Sample count per size for extremal.")
@click.option("--seed", default=0, show_default=True)
@_TOL_OPT
@_MAX_ITER_OPT
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="text", show_default=True)
@_OUT_OPT
@click.pass_context
def cmd_verify(ctx, what, n_range, sigma, samples, seed, tol, max_iter, fmt, out):
    """Run one family of numeric checks over RANGE (N or LO:HI).

    Emits one record per check and size; exit 5 if any record fails.
    """
    lo, hi = _parse_range(n_range)
    records: list[Record] = []
    try:
        if what == "bounds":
            for n in range(lo, hi + 1):
                low, up = bn_q_bounds(n)
                hg, _ = build_bn(n)
                res = _converged_radius(hg, tol, max_iter)
                ok = low - 1e-6 <= res.rho <= up + 1e-6
                records.append(Record("bounds", n, "operator=signless_laplacian", res.rho, f"{low!r}..{up!r}", ok))
        elif what == "splits":
            for n in range(lo, hi + 1):
                profiles, best_a = scan_splits(n)
                best_q = profiles[best_a - 1].q_value
                ok = abs(best_a - n / 2.0) <= 0.5
                records.append(Record("splits", n, f"a=1..{n - 1}", best_q, f"best_a={best_a}", ok))
        elif what == "criterion":
            params = CriterionParams(0.75, 3, sigma, (lo, hi))
            inputs = f"pi=0.75 r=3 sigma={sigma!r}"
            for rec in check_condition1(params, fano_turan_number):
                records.append(Record("condition1", rec.n, inputs, rec.slack, sigma * rec.n**2, rec.passed))
            for rec in check_condition2(params, bn_scan_q, fano_turan_number):
                records.append(Record("condition2", rec.n, inputs, rec.slack, sigma * rec.n, rec.passed))
        elif what == "deletion":
            for n in range(lo, hi + 1):
                hg, _ = build_bn(n)
                chk = check_deletion_lemma(hg, tol=tol, max_iter=max_iter)
                records.append(Record("deletion", n, f"B_{n} w={chk.w}", chk.lhs, chk.rhs, chk.passed))
        else:
            for n in range(lo, hi + 1):
                rep = verify_extremality(n, samples=samples, rng_seed=seed, tol=tol, max_iter=max_iter)
                records.append(
                    Record("extremal", n, f"samples={samples} seed={seed}", rep.max_q, rep.q_reference, rep.passed)
                )
    except (ArgumentRangeError, TooSmallError) as exc:
        raise click.UsageError(str(exc)) from None
    except NoConvergenceError as exc:
        raise _Fail(str(exc), 4) from None
    _write_text(render(records, fmt), out)
    if not all(rec.passed for rec in records):
        ctx.exit(5)


if __name__ == "__main__":
    main()
