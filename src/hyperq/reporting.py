"""Report rendering for every subcommand: text / json / csv.

A report is either one dict of named fields (``spectral``, ``check``) or
a flat list of records with the same six fields (``verify``).  Numbers
are written with repr, which round-trips float64 exactly; output carries
no timestamps or environment data, so identical runs give identical bytes.
"""

import json
from dataclasses import asdict, dataclass

from .errors import ArgumentRangeError

FORMATS = ("text", "json", "csv")
CSV_HEADER = "op,n,inputs,value,bound,pass"


@dataclass(frozen=True)
class Record:
    op: str
    n: int | None
    inputs: str
    value: float | int | str | None
    bound: float | str | None
    passed: bool | None

    def as_dict(self) -> dict:
        record = asdict(self)
        record["pass"] = record.pop("passed")
        return record


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return " ".join(_cell(v) for v in value)
    return str(value)


def _rows(report: dict | list[Record]) -> tuple[list[str], list[list[str]]]:
    """Column names and cells: a dict is one row, a record list one row per record."""
    dicts = [report] if isinstance(report, dict) else [rec.as_dict() for rec in report]
    names = list(dicts[0]) if dicts else CSV_HEADER.split(",")
    return names, [[_cell(v) for v in d.values()] for d in dicts]


def to_json(report: dict | list[Record]) -> str:
    return json.dumps(report, indent=2, default=Record.as_dict) + "\n"


def to_csv(report: dict | list[Record]) -> str:
    names, rows = _rows(report)
    return "".join(",".join(row) + "\n" for row in [names, *rows])


def to_text(report: dict | list[Record]) -> str:
    """A dict as ``key = value`` lines; a record list as an aligned table."""
    if isinstance(report, dict):
        return "".join(f"{k} = {_cell(v)}\n" for k, v in report.items())
    names, rows = _rows(report)
    widths = [max(len(c) for c in col) for col in zip(names, *rows)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in [names, *rows])


def to_verdict(verdict: str, witness_name: str, witness: list | None) -> str:
    """``check``'s text: the verdict, then the witness line when there is one."""
    return verdict + "\n" + ("" if witness is None else f"{witness_name}: {_cell(witness)}\n")


def render(report: dict | list[Record], fmt: str) -> str:
    if fmt == "json":
        return to_json(report)
    if fmt == "csv":
        return to_csv(report)
    if fmt == "text":
        return to_text(report)
    raise ArgumentRangeError(f"unknown format {fmt!r}")
