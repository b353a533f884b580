"""The measured loop shared by every workload, and the run report.

A workload object provides:

* ``stream`` — an :class:`OpStream` of plain-data ops generated from
  the seed (the program never sees the seed);
* ``prepare()`` — generate the seeded data (benchmark work, untimed);
* ``setup()`` — seeding, index build, region install, a warm pass over
  every op template and a forced snapshot (all of it timed as
  ``setup_s``, with ``mark()`` between its stages); it returns the warm
  pass's mismatches;
* ``op_class(op)`` and ``apply(op) -> (output, class_seconds)`` — one
  user-visible operation through the public API; ``class_seconds``
  overrides the latency recorded for the op's class (a transaction
  records its COMMIT), ``None`` keeps the op's own latency;
* ``check(op, output)`` and ``final_checks()`` — the output oracles,
  always run outside the timed span; they return mismatch descriptions;
* ``crash_and_recover(probe) -> (seconds, mismatches)`` —
  ``close(drain=False)``, the timed reopens, and the live-versus-recovered
  comparison;
* ``counters()`` — a flat dict of the program's public counters;
* ``close()``.

Every time metric is reported at a fixed reference speed of the machine
(see :class:`SpeedProbe`): the shared hosts this benchmark runs on
change speed by up to 2x in spells of a second or two, which no
amount of repetition averages out of a run of seconds.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from collections import Counter
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: The service's default flush policy, which every workload runs with.
FLUSH_POLICY = {"fsync": True, "sync_every": 32, "compact_every": 256}

#: Environment switches that change the program being measured.
REFUSED_ENV = ("REPRO_SANITIZE", "REPRO_BG_MAINT")

#: Fewest samples one run needs before a percentile of a class is named.
MIN_SAMPLES = {50: 50, 90: 100, 95: 200}

#: Seconds the speed kernel takes at the reference speed (about its
#: median on the 2-vCPU machine this benchmark was written on).
REFERENCE_KERNEL_S = 0.004

#: Rows the speed kernel groups and sorts.
KERNEL_ROWS = 6_000

#: Fewest wall seconds between two speed samples in the measured phase.
SPEED_SAMPLE_EVERY_S = 0.25

#: Half-period of the traced run's alternation between traced and
#: untraced slices of the measured phase (seconds of measured time).
TRACE_SLICE_S = 1.0


def refused_environment() -> List[str]:
    return [name for name in REFUSED_ENV if os.environ.get(name, "") not in ("", "0")]


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in 0..100); 0.0 when
    no op succeeded."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


class OpStream:
    """A workload's op stream: plain data drawn from a seeded generator,
    hashed as it is consumed, so one seed always shows one digest for the
    same number of ops."""

    def __init__(self, ops: Iterator[Any]) -> None:
        self._ops = ops
        self._hash = hashlib.sha256()
        self.count = 0

    def next(self) -> Any:
        op = next(self._ops)
        self._hash.update(json.dumps(op, separators=(",", ":")).encode() + b"\n")
        self.count += 1
        return op

    def digest(self) -> str:
        return self._hash.hexdigest()[:16]


def warm_then_mix(rng: Any, mix: Any) -> Iterator[str]:
    """Op kinds: one of every kind first (the set-up's warm pass), then
    shuffled blocks holding each kind exactly ``count`` times, so every
    run sees the mix in the same proportions whatever the seed."""
    yield from (kind for kind, _ in mix)
    block = [kind for kind, count in mix for _ in range(count)]
    while True:
        rng.shuffle(block)
        yield from block


def service_counters(service: Any) -> Dict[str, float]:
    """The public counters every traced run reads (``stats_summary``,
    ``io_stats`` and the WAL statistics)."""
    summary = service.stats_summary()
    snap = summary["metrics"]
    wal = summary["wal"]
    io = service.workbook.database.io_stats
    return {
        "statements": snap.get("db_statements_total", 0),
        "wal_appends": wal.appends,
        "wal_syncs": wal.syncs,
        "wal_bytes": wal.bytes_written,
        "snapshots": summary["snapshots_written"],
        "deltas_delivered": summary["broadcast"]["delivered"],
        "deltas_suppressed": summary["broadcast"]["suppressed"],
        "pages_read": io.reads,
        "pages_skipped": snap.get("db_pages_skipped", 0),
        "pool_hits": snap.get("buffer_hits", 0),
        "pool_misses": snap.get("buffer_misses", 0),
        "bytes_decoded": snap.get("db_bytes_decoded", 0),
        "index_lookups": snap.get("db_index_lookups", 0),
        "regions_refreshed": snap.get("sync_regions_refreshed", 0),
        "evaluations": snap.get("compute_evaluations", 0),
        "reparses": snap.get("compute_reparses", 0),
    }


def same_rows(ours: Any, expected: Any) -> bool:
    """Row lists equal up to float rounding (aggregates sum in another
    order than the reference)."""
    if len(ours) != len(expected):
        return False
    for row, other in zip(ours, expected):
        if len(row) != len(other):
            return False
        for a, b in zip(row, other):
            if isinstance(a, float) or isinstance(b, float):
                if not isinstance(a, (int, float)) or not isinstance(b, (int, float)):
                    return False
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


def peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class GcClock:
    """Wall time spent in the cyclic garbage collector while ``armed``."""

    def __init__(self) -> None:
        self.armed = False
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        elif self.armed:
            self.seconds += time.perf_counter() - self._started

    def __enter__(self) -> "GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self)


class SpeedProbe:
    """The machine's current speed, sampled with a fixed pure-Python
    kernel: grouping and sorting tuples, the kind of work the program
    does.  A span timed between two samples is scaled by
    ``REFERENCE_KERNEL_S`` over the mean of the two, which reports it as
    if the machine ran at the reference speed.  Interleaved this way the
    kernel follows the host's slow and fast spells closely: over 90 s of
    one GROUP BY query run back to back, the query's time moved by 45%
    (interquartile range over median of 10-query medians) and its ratio
    to the kernel by 4%.  The kernel is the benchmark's own code, so a
    change to the program leaves it alone."""

    def __init__(self) -> None:
        rng = random.Random(0)
        self._rows = [
            (rng.random(), rng.randrange(64), f"k{rng.randrange(40)}") for _ in range(KERNEL_ROWS)
        ]
        self.samples: List[float] = []

    def _kernel(self) -> int:
        groups: Dict[str, float] = {}
        for value, count, key in self._rows:
            groups[key] = groups.get(key, 0.0) + value * count
        return len(sorted(self._rows)) + len(groups)

    def sample(self) -> float:
        """Kernel seconds now: the median of three runs."""
        times = []
        for _ in range(3):
            started = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - started)
        self.samples.append(statistics.median(times))
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """The factor that brings a span timed between two samples to the
        reference speed."""
        return REFERENCE_KERNEL_S / ((before + after) / 2.0)

    def timed(self, fn: Any) -> Tuple[Any, float, float]:
        """``fn()`` between two samples: (result, raw seconds, scaled seconds)."""
        before = self.sample()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        return result, raw, raw * self.scale(before, self.sample())


class StageClock:
    """Times a phase of several stages (the set-up) at the reference
    speed: ``mark()`` between two stages takes a speed sample, which
    scales the stage just ended; ``paused()`` leaves benchmark work
    (oracle checks) out."""

    def __init__(self, probe: SpeedProbe) -> None:
        self.probe = probe
        self.raw_s = 0.0
        self.scaled_s = 0.0
        self._before = probe.sample()
        self._paused_s = 0.0
        self._started = time.perf_counter()

    def mark(self) -> None:
        elapsed = time.perf_counter() - self._started - self._paused_s
        after = self.probe.sample()
        self.raw_s += elapsed
        self.scaled_s += elapsed * self.probe.scale(self._before, after)
        self._before = after
        self._paused_s = 0.0
        self._started = time.perf_counter()

    @contextlib.contextmanager
    def paused(self) -> Iterator[None]:
        started = time.perf_counter()
        try:
            yield
        finally:
            self._paused_s += time.perf_counter() - started


class Outcome:
    """What the measured phase observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.succeeded = 0
        self.failed = 0
        self.errors: Counter = Counter()
        self.mismatches: List[str] = []
        #: every successful op, at the reference speed
        self.latencies: List[float] = []
        #: the same, as measured
        self.raw_latencies: List[float] = []
        self.by_class: Dict[str, List[float]] = {}
        self.failed_by_class: Counter = Counter()
        self.attempted_by_class: Counter = Counter()
        #: time inside ops, as measured and at the reference speed
        self.measured_s = 0.0
        self.scaled_s = 0.0

    def mismatch(self, problems: List[str]) -> None:
        room = 20 - len(self.mismatches)
        if room > 0:
            self.mismatches.extend(problems[:room])


def run_phase(
    workload: Any,
    seconds: float,
    outcome: Outcome,
    gc_clock: GcClock,
    tracing: Optional[Any] = None,
    probe: Optional[SpeedProbe] = None,
) -> None:
    """Drive ops from the workload's stream until ``seconds`` of op time
    at the reference speed have been measured (so a run does about the
    same ops whether the machine is in a fast or a slow spell).

    Only the time inside ``apply`` counts (a closed loop with no think
    time); the oracle checks and the speed samples between ops are not
    timed.  A speed sample is taken at least every
    ``SPEED_SAMPLE_EVERY_S`` of wall time; the ops between two samples
    are scaled to the reference speed with them (the ops since the last
    sample count at its speed until the next one).  With ``tracing`` (a
    :class:`perfbench.layers.TracedRun`) the phase alternates traced and
    untraced slices."""
    probe = probe or SpeedProbe()
    quiet = tracing.paused if tracing is not None else contextlib.nullcontext
    # (class, op seconds, class seconds or None), since the last sample
    pending: List[Tuple[str, float, Optional[float]]] = []
    unsettled_s = 0.0

    def settle() -> None:
        nonlocal unsettled_s
        before = probe.samples[-1]
        with quiet():
            factor = probe.scale(before, probe.sample())
        outcome.scaled_s += unsettled_s * factor
        for cls, elapsed, class_seconds in pending:
            outcome.latencies.append(elapsed * factor)
            outcome.raw_latencies.append(elapsed)
            outcome.by_class.setdefault(cls, []).append(
                (elapsed if class_seconds is None else class_seconds) * factor
            )
        pending.clear()
        unsettled_s = 0.0

    with quiet():
        probe.sample()
    sampled_at = time.perf_counter()
    while outcome.scaled_s + unsettled_s * probe.scale(probe.samples[-1], probe.samples[-1]) < seconds:
        if time.perf_counter() - sampled_at >= SPEED_SAMPLE_EVERY_S:
            settle()
            sampled_at = time.perf_counter()
        op = workload.stream.next()
        cls = workload.op_class(op)
        if tracing is not None:
            tracing.before_op(outcome.measured_s)
        gc_clock.armed = True
        started = time.perf_counter()
        try:
            output, class_seconds = workload.apply(op)
            failure = None
        except Exception as error:  # the benchmark boundary: count, go on
            failure = type(error).__name__
        elapsed = time.perf_counter() - started
        gc_clock.armed = False
        outcome.measured_s += elapsed
        unsettled_s += elapsed
        outcome.attempted += 1
        outcome.attempted_by_class[cls] += 1
        if tracing is not None:
            tracing.after_op(elapsed, ok=failure is None)
        if failure is None:
            with quiet():
                problems = workload.check(op, output)
            if problems:
                failure = "WrongResult"
                outcome.mismatch(problems)
        if failure is not None:
            outcome.failed += 1
            outcome.failed_by_class[cls] += 1
            outcome.errors[failure] += 1
            continue
        outcome.succeeded += 1
        pending.append((cls, elapsed, class_seconds))
    settle()


def class_report(outcome: Outcome, class_metrics: Dict[str, List[int]]) -> List[str]:
    """Human-readable per-class lines: every percentile the workload
    names, or why it is withheld (too few samples in this run)."""
    lines = []
    for cls, quantiles in class_metrics.items():
        samples = outcome.by_class.get(cls, [])
        parts = []
        for q in quantiles:
            name = f"{cls}_p{q}_ms"
            if len(samples) >= MIN_SAMPLES[q]:
                parts.append(f"{name}={percentile(samples, q) * 1000:.3f} ms")
            else:
                parts.append(f"{name}=withheld (n={len(samples)} < {MIN_SAMPLES[q]})")
        parts.append(
            f"attempted={outcome.attempted_by_class.get(cls, 0)} "
            f"failed={outcome.failed_by_class.get(cls, 0)}"
        )
        lines.append("  ".join(parts))
    return lines


def environment_lines() -> List[str]:
    return [
        f"python={sys.version.split()[0]} nproc={len(os.sched_getaffinity(0))} "
        f"flush_policy={json.dumps(FLUSH_POLICY, sort_keys=True)} "
        "background_maintenance=off"
    ]
