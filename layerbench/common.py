"""Helpers shared by the harness and the library driver.

Nothing here imports :mod:`repro`, so the driver can load it before the
program it drives, and the statistics rules live in exactly one place.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: A latency sample smaller than this makes the run invalid: the tail rule
#: below needs at least ten points beyond the reported percentile, and with
#: fewer than eleven points it would fall back to the minimum.
MIN_SAMPLES = 11

#: Points that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


class InvalidRun(Exception):
    """The run cannot produce a valid measurement (too few samples, ...)."""


def median(values) -> float:
    values = list(values)
    if not values:
        raise InvalidRun("median of an empty sample")
    return statistics.median(values)


def tail(values, pct: float) -> float:
    """The ``pct`` percentile (nearest rank) of ``values``.

    Each workload fixes its tail percentile as the highest one that keeps
    at least :data:`TAIL_BEYOND` samples beyond it at the sample counts a
    run produces, so runs report the same percentile; a run with fewer
    samples beyond it is invalid rather than reporting a lower one.
    """
    ordered = sorted(values)
    if len(ordered) < MIN_SAMPLES:
        raise InvalidRun(
            f"latency sample has {len(ordered)} points; at least {MIN_SAMPLES} needed"
        )
    rank = math.ceil(pct / 100.0 * len(ordered))
    if len(ordered) - rank < TAIL_BEYOND:
        raise InvalidRun(
            f"p{pct:g} of {len(ordered)} samples has fewer than {TAIL_BEYOND} beyond it"
        )
    return ordered[rank - 1]


def latency_summary(values_s, tail_pct: float) -> dict:
    """p50 and tail of a latency sample given in seconds, reported in ms."""
    ms = [v * 1000.0 for v in values_s]
    return {"p50_ms": median(ms), "tail_ms": tail(ms, tail_pct), "n": len(ms)}


def outcome_digest(outcome) -> str:
    """Order-insensitive digest of everything ``assert_matches`` compares.

    Cliques with exact probabilities, the effective α, the stop reason and
    the search counters; labels and floats go through ``repr`` so the
    digest is exact.
    """
    records = sorted(
        (repr(sorted(record.vertices)), repr(record.probability))
        for record in outcome.records
    )
    stats = outcome.statistics
    payload = json.dumps(
        [
            records,
            repr(outcome.alpha),
            outcome.stop_reason,
            [
                stats.recursive_calls,
                stats.candidates_examined,
                stats.probability_multiplications,
                stats.maximality_checks,
                stats.pruned_branches,
            ],
        ]
    )
    return hashlib.sha256(payload.encode()).hexdigest()


# --------------------------------------------------------------------- #
# Host markers and process accounting (Linux /proc)
# --------------------------------------------------------------------- #
def host_ms() -> float:
    """Time a fixed pure-Python loop; drift between runs blames the host."""
    start = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - start) * 1000.0


def steal_ticks() -> int:
    """Cumulative CPU steal ticks of the host (0 where /proc is absent)."""
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 else 0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise InvalidRun(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process."""
    raw = Path(f"/proc/{pid}/stat").read_text()
    fields = raw[raw.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #
class Tracer:
    """In-memory spans written at the end as Chrome trace-event JSON.

    A span records its name, start, end, parent span and the operation it
    belongs to; every span of one operation shares the operation id.  A
    disabled tracer records nothing, so untraced runs pay one branch.  The
    benchmark keeps its own spans rather than the program's tracer, so a
    change to the program's tracing cannot change what is measured.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op: str):
        if not self.enabled:
            yield
            return
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "parent": parent,
                "name": name,
                "op": op,
                "start": start,
                "end": end,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
            }
            with self._lock:
                self.spans.append(record)

    def write_chrome(self, path: Path) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        events = [
            {
                "name": s["name"],
                "cat": s["name"].split(".")[0],
                "ph": "X",
                "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {"op": s["op"], "id": s["id"], "parent": s["parent"]},
            }
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))
