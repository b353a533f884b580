"""One run of one workload: set-up, the measured phase, the oracles, the
crash-and-reopen, and the metrics it prints."""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple

from perfbench.analytics import SqlAnalytics
from perfbench.common import (
    REFERENCE_KERNEL_S,
    GcClock,
    Outcome,
    SpeedProbe,
    StageClock,
    class_report,
    environment_lines,
    peak_rss_mb,
    percentile,
    run_phase,
)
from perfbench.layers import TracedRun
from perfbench.oltp import SqlOltp
from perfbench.sheet import SheetInteractive

WORKLOADS = {
    "sheet_interactive": SheetInteractive,
    "sql_oltp": SqlOltp,
    "sql_analytics": SqlAnalytics,
}


def end_to_end(setup_s: float, recovery_s: float, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """The gated metrics; every time is at the reference speed."""
    latencies = outcome.latencies
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (outcome.succeeded / outcome.scaled_s, "op/s"),
        "p50_ms": (percentile(latencies, 50) * 1000.0, "ms"),
        "p90_ms": (percentile(latencies, 90) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "recovery_s": (recovery_s, "s"),
    }


def as_measured(setup: StageClock, reopen_s: List[float], outcome: Outcome) -> str:
    """The same times before scaling, for the report."""
    raw = outcome.raw_latencies
    reopen = statistics.median(reopen_s) if reopen_s else 0.0
    return (
        f"as measured: setup_s={setup.raw_s:.4f} ops_per_s={outcome.succeeded / outcome.measured_s:.4f} "
        f"p50_ms={percentile(raw, 50) * 1000.0:.4f} p90_ms={percentile(raw, 90) * 1000.0:.4f} "
        f"recovery_s={reopen:.4f}"
    )


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, workdir: str, **scale: Any
) -> Tuple[List[str], Dict[str, Any]]:
    """Returns the report lines and the result object."""
    workload = WORKLOADS[name](seed, workdir, **scale)
    outcome = Outcome()
    probe = SpeedProbe()
    problems: List[str] = []
    try:
        workload.prepare()
        with GcClock() as gc_clock:
            workload.clock = setup = StageClock(probe)
            problems += workload.setup()
            setup.mark()
            workload.clock = None
            setup_s = setup.scaled_s
            warm_ops = workload.stream.count
            tracing = TracedRun(workload, gc_clock) if trace else None
            try:
                run_phase(workload, seconds, outcome, gc_clock, tracing, probe)
            finally:
                if tracing is not None:
                    tracing.finish()
            problems += workload.final_checks()
            if tracing is not None:
                recovery_s, recovered, totals = tracing.traced_recovery(probe)
            else:
                recovery_s, recovered = workload.crash_and_recover(probe)
            problems += recovered
    finally:
        workload.close()
    defects = workload.known_defects()
    problems = outcome.mismatches + problems
    if trace:
        metrics = tracing.metrics(totals)
    else:
        metrics = end_to_end(setup_s, recovery_s, outcome)
    lines = [
        f"workload={name} seed={seed} seconds={seconds:g} trace={int(trace)} "
        f"op_stream={workload.stream.digest()} ops_drawn={workload.stream.count} "
        f"warm_ops={warm_ops}",
        *environment_lines(),
        f"ops_attempted={outcome.attempted} ops_failed={outcome.failed} "
        f"errors={dict(sorted(outcome.errors.items()))}",
    ]
    if workload.untimed_errors:
        lines.append(f"errors outside the measured phase={workload.untimed_errors}")
    if trace:
        lines.append(f"spans_recorded={len(tracing.log.spans)} traced_ops={tracing.traced_ops}")
    else:
        lines += class_report(outcome, workload.class_metrics)
        lines.append(f"times at the reference speed (speed kernel {REFERENCE_KERNEL_S * 1000:g} ms; "
                     f"median here {statistics.median(probe.samples) * 1000:.3f} ms "
                     f"over {len(probe.samples)} samples):")
    lines += [f"{key}={value:.6g} {unit}" for key, (value, unit) in metrics.items()]
    if not trace:
        lines.append(as_measured(setup, workload.reopen_s, outcome))
    if workload.reopen_s:
        lines.append(f"reopens_s={[round(s, 4) for s in workload.reopen_s]} (as measured)")
    lines += [f"oracle mismatch: {problem}" for problem in problems]
    lines += defects
    result = {
        "correct": not problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    return lines, result
