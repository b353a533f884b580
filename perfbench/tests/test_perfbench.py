"""Tiny-scale checks of the benchmark itself: every named metric is
emitted, the oracles catch an injected wrong result, one seed gives one
op stream, the known-defect probes report each defect, and a run
refuses the environment switches that change the program."""

from __future__ import annotations

import json
import os

import pytest

from perfbench import run
from perfbench.analytics import SqlAnalytics
from perfbench.common import GcClock, Outcome, run_phase
from perfbench.defects import probe_known_defects
from perfbench.layers import TracedRun
from perfbench.oltp import SqlOltp
from perfbench.report import WORKLOADS, run_workload
from perfbench.sheet import SheetInteractive

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
TINY = {
    "sheet_interactive": dict(rows=300, block=40, ledger=40),
    "sql_oltp": dict(rows=600),
    "sql_analytics": dict(rows=600, customers=100),
}


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    for name in ("REPRO_SANITIZE", "REPRO_BG_MAINT"):
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_named_metric_is_emitted(workload, trace, tmp_path):
    lines, result = run_workload(workload, 5, 0.3, trace, str(tmp_path / "w"), **TINY[workload])
    expected = declared("per_layer" if trace else "end_to_end")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, lines
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) or isinstance(m["value"], int)
               for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert any(line.startswith("ops_attempted=") for line in lines)
    probes = sum(line.startswith("known defect ") for line in lines)
    assert probes == (3 if workload == "sheet_interactive" else 0)
    assert not os.path.exists(tmp_path / "w")
    assert not os.path.exists(tmp_path / "w-defects")


def _tampered(workload, corrupt):
    """Let the program answer, then damage the first answer ``corrupt``
    accepts — the oracle must notice."""
    apply = workload.apply
    state = {"done": False}

    def wrapped(op):
        output, seconds = apply(op)
        if not state["done"] and corrupt(op, output):
            state["done"] = True
        return output, seconds

    workload.apply = wrapped
    return state


def _measure(workload, seconds=0.3):
    outcome = Outcome()
    with GcClock() as gc_clock:
        run_phase(workload, seconds, outcome, gc_clock)
    return outcome


def test_dict_model_catches_a_wrong_row(tmp_path):
    workload = SqlOltp(7, str(tmp_path / "w"), rows=600)
    try:
        workload.prepare()
        assert workload.setup() == []

        def corrupt(op, output):
            if op[0] == "sel_pk" and output.rows:
                row = output.rows[0]
                output.rows[0] = (row[0], row[1], row[2] + 1.0, row[3])
                return True
            return False

        state = _tampered(workload, corrupt)
        outcome = _measure(workload)
    finally:
        workload.close()
    assert state["done"]
    assert outcome.failed == 1 and outcome.errors["WrongResult"] == 1
    assert "sel_pk" in outcome.mismatches[0]


def test_sqlite_reference_catches_a_wrong_row(tmp_path):
    workload = SqlAnalytics(7, str(tmp_path / "w"), rows=600, customers=100)
    try:
        workload.prepare()
        assert workload.setup() == []

        def corrupt(op, output):
            if op[0] == "range" and output.rows:
                output.rows.pop()
                return True
            return False

        state = _tampered(workload, corrupt)
        outcome = _measure(workload)
    finally:
        workload.close()
    assert state["done"]
    assert outcome.failed >= 1 and outcome.mismatches


def test_recompute_oracle_catches_a_wrong_formula_value(tmp_path):
    workload = SheetInteractive(7, str(tmp_path / "w"), rows=300, block=40, ledger=40)
    try:
        workload.prepare()
        workload.setup()
        assert workload._region_problems() == []
        sheet = workload.service.workbook.sheet("Sheet1")
        assert not any("Sheet1" in problem for problem in workload.final_checks())
        sheet.set_value("C5", -12345)  # a wrong value under C5's live formula
        problems = workload.final_checks()
    finally:
        workload.close()
    assert any(problem.startswith("Sheet1: 1 of") for problem in problems)


def test_spans_nest_within_one_op_and_wrappers_come_off(tmp_path):
    from repro.server.service import WorkbookService

    original = WorkbookService.apply
    workload = SqlOltp(7, str(tmp_path / "w"), rows=600)
    try:
        workload.prepare()
        workload.setup()
        outcome = Outcome()
        with GcClock() as gc_clock:
            tracing = TracedRun(workload, gc_clock)
            try:
                run_phase(workload, 2.5, outcome, gc_clock, tracing)
            finally:
                tracing.finish()
    finally:
        workload.close()
    spans = tracing.log.spans
    assert WorkbookService.apply is original
    assert tracing.traced_ops > 0 and spans
    names = {span[0] for span in spans}
    assert {"server.apply", "server.wal", "engine.statement", "engine.parse"} <= names
    for name, start, end, parent, op_id in spans:
        assert start <= end
        if parent >= 0:
            outer = spans[parent]
            assert outer[4] == op_id and outer[1] <= start and end <= outer[2]
    roots = [span for span in spans if span[3] < 0]
    assert {span[0] for span in roots} == {"server.apply"}
    assert sum(end - start for _, start, end, _, _ in roots) <= tracing.traced_s


def test_known_defect_probes_report_each_defect(tmp_path):
    lines = probe_known_defects(3, str(tmp_path / "d"), ledger_rows=40)
    assert [line.split(" (")[0] for line in lines] == [
        "known defect 1", "known defect 2", "known defect 3"
    ]
    assert all(") reproduced: " in line or ") not reproduced: " in line for line in lines)
    assert not os.path.exists(tmp_path / "d")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_one_op_stream(workload, tmp_path):
    def digest(seed):
        stream = WORKLOADS[workload](seed, str(tmp_path / "w"), **TINY[workload]).stream
        ops = [stream.next() for _ in range(400)]
        return stream.digest(), ops

    first, second, other = digest(11), digest(11), digest(12)
    assert first == second
    assert first[0] != other[0]


def test_refuses_to_measure_a_changed_program(monkeypatch, capsys):
    monkeypatch.setenv("PYTHONHASHSEED", "0")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    code = run.main(["--workload", "sql_oltp", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert "REPRO_SANITIZE" in capsys.readouterr().err
