"""The traced benchmark's span recorder finds every function it wraps.

`perfbench/spans.py` looks up each (owner, attribute) of its patch table
when a `--trace 1` run starts, so a name that the package drops or renames
breaks every traced run.
"""

import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "spans", Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def _name(owner, attr):
    return f"{getattr(owner, '__qualname__', getattr(owner, '__name__', owner))}.{attr}"


def test_every_patched_attribute_resolves():
    missing = [_name(owner, attr) for owner, attr, _, _ in spans._patch_table() if not hasattr(owner, attr)]
    assert missing == []


def test_install_then_uninstall_restores_every_attribute():
    table = spans._patch_table()
    before = [getattr(owner, attr) for owner, attr, _, _ in table]
    recorder = spans.Recorder()
    try:
        recorder.install()
        assert all(getattr(owner, attr) != was for (owner, attr, _, _), was in zip(table, before))
    finally:
        recorder.uninstall()
    assert all(getattr(owner, attr) == was for (owner, attr, _, _), was in zip(table, before))
