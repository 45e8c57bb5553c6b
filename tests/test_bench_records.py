"""The benchmark records (``BENCH_*.json`` at the repository root) keep one
schema, so that a before/after row of one change reads as the row of any
other: the same keys at every level."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))

_RECORD_KEYS = {"change", "parent", "claim", "method", "host", "rows", "work_gates",
                "rows_note", "earlier_rows"}
_CLAIM_KEYS = {"workload", "metric", "better"}
_ROW_KEYS = {"workload", "metric", "unit", "parent_median", "parent_q1", "parent_q3",
             "change_median", "change_vs_parent_pct", "pairs", "pairs_change_higher", "seeds",
             "runs_correct", "ops_failed"}
_SIDES = {"parent", "change"}
_GATE_KEYS = {"test", "what", "parent", "change"}


def test_there_is_a_record():
    assert RECORDS, "no BENCH_*.json at the repository root"


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_every_bench_record_has_the_same_keys(path):
    """Every record, each of its rows (measured and earlier) and each work
    gate has exactly the keys of the first record, ``BENCH_36.json``."""
    rec = json.loads(path.read_text())
    assert set(rec) == _RECORD_KEYS
    assert set(rec["claim"]) == _CLAIM_KEYS
    for row in rec["rows"] + rec["earlier_rows"]:
        assert set(row) == _ROW_KEYS, row.get("metric")
        assert set(row["runs_correct"]) == set(row["ops_failed"]) == _SIDES
        assert len(row["seeds"]) == row["pairs"]
    assert set(rec["work_gates"]) == {"unit", "rows"}
    for gate in rec["work_gates"]["rows"]:
        assert set(gate) == _GATE_KEYS, gate.get("test")
        assert set(gate["parent"]) == set(gate["change"])
