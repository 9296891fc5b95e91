import pytest

from hyperq.errors import ArgumentRangeError
from hyperq.reporting import CSV_HEADER, Record, render


def test_record_keys_in_column_order():
    rec = Record("ex", 8, "n=8", 48, 48, True)
    assert list(rec.as_dict()) == CSV_HEADER.split(",") == ["op", "n", "inputs", "value", "bound", "pass"]
    assert rec.as_dict() == {"op": "ex", "n": 8, "inputs": "n=8", "value": 48, "bound": 48, "pass": True}


def test_unknown_format():
    with pytest.raises(ArgumentRangeError):
        render({"a": 1}, "xml")
