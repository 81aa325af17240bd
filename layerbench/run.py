"""Run one workload of the benchmark and print its metrics.

Usage, from the root of a checkout::

    python3 layerbench/run.py --workload paper-sweep --seed 1 --seconds 45 --trace 0
    python3 layerbench/run.py --self-test

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of ``catalog.END_TO_END``; with ``--trace 1`` it
carries every per-layer metric of ``catalog.PER_LAYER`` instead, and a
Chrome trace of the run is written under ``.bench_out/traces/``.  The line
before it holds the run's details: seed, nproc, commit, sample counts,
host markers and the workload-specific metrics.  Any wrong answer or
counter mismatch makes ``correct`` false and the exit code 1; a run that
cannot measure (too few samples, the program missing) exits non-zero
without a result line.

Untraced runs split the measured time into segments, each on a freshly
started program process, so the cold starts that give ``setup_s`` are
spread through the run rather than back to back.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, PER_LAYER, WORKLOAD_SPECIFIC  # noqa: E402
from common import (  # noqa: E402
    InvalidRun,
    Tracer,
    host_ms,
    latency_summary,
    median,
    steal_ticks,
)
from ladder import run_ladder  # noqa: E402
from programs import counter, delta  # noqa: E402
from workloads import WORKLOADS, Phase  # noqa: E402

#: Cold starts (and measured segments) per untraced run.
SEGMENTS = 5


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _measure_segment(workload, program, seconds: float, phase: Phase, traced: bool) -> dict:
    """One measured phase with counter deltas, CPU and the cross-check."""
    before = workload.snapshot(program)
    cpu = program.cpu_seconds()
    ops = phase.ops
    workload.measure(program, seconds, phase, traced)
    cpu = program.cpu_seconds() - cpu
    after = workload.snapshot(program)
    counters = delta(before, after)
    workload.check_counters(counters, phase, phase.ops - ops)
    return {"counters": counters, "cpu_s": cpu, "ops": phase.ops - ops}


def untraced(workload, seconds: float) -> tuple[dict, dict, Phase]:
    phase = Phase()
    setups, rss = [], []
    for _ in range(SEGMENTS):
        program = workload.start(phase)
        try:
            setups.append(program.setup_s)
            _measure_segment(workload, program, seconds / SEGMENTS, phase, traced=False)
            rss.append(program.peak_rss_mb())
        finally:
            program.stop()
    latency = latency_summary(phase.latency, workload.TAIL_PCT)
    metrics = {
        "setup_s": median(setups),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "ttfr_p50_ms": median(phase.ttfr) * 1000.0,
        "peak_rss_mb": median(rss),
    }
    detail = {
        "latency_samples": latency["n"],
        "latency_tail_percentile": workload.TAIL_PCT,
        "ttfr_samples": len(phase.ttfr),
        "late_p50_ms": median(phase.late) * 1000.0,
        "late_max_ms": max(phase.late) * 1000.0,
        "setup_samples_s": setups,
        "peak_rss_samples_mb": rss,
        "workload_specific": {
            name: {"value": value, "unit": WORKLOAD_SPECIFIC[name]["unit"]}
            for name, value in workload.specific_metrics(phase).items()
        },
    }
    return metrics, detail, phase


def traced(workload, seconds: float, tracer: Tracer) -> tuple[dict, dict, Phase]:
    """Half the time traced, between two untraced quarters, then the ladder."""
    plain, phase = Phase(), Phase()
    program = workload.start(plain)
    ladder_server = None
    try:
        workload.measure(program, seconds / 4, plain, traced=False)
        tracer.enabled = True
        segment = _measure_segment(workload, program, seconds / 2, phase, traced=True)
        tracer.enabled = False
        workload.measure(program, seconds / 4, plain, traced=False)
        tracer.enabled = True
        ladder_server = workload.ladder_server()
        url = (ladder_server or program).url
        ladder = run_ladder(workload, tracer, url)
    finally:
        program.stop()
        if ladder_server is not None:
            ladder_server.stop()
    tracer.spans.extend(getattr(workload, "driver_spans", []))
    counters, ops = segment["counters"], segment["ops"]
    lookups = counter(counters, "cache_lookups_total")
    requests = counter(counters, "http_requests_total") - counter(
        counters, "http_requests_total", endpoint="/v1/metrics"
    )
    parks = counters["histograms"].get("jobs_backpressure_park_seconds", {"count": 0})["count"]
    p50_ms = median(phase.latency) * 1000.0
    metrics = dict(ladder)
    metrics.update(
        {
            "api.cache_hit_ratio": counter(counters, "cache_lookups_total", outcome="hit") / lookups,
            "api.compiles_per_op": counter(counters, "cache_lookups_total", outcome="compile") / ops,
            "sched.single_flight_waits": counter(counters, "sched_single_flight_waits_total"),
            "jobs.parks_per_op": parks / ops,
            "http.requests_per_op": requests / ops,
            "server.cpu_ms_per_op": segment["cpu_s"] * 1000.0 / ops,
            "harness.late_p50_ms": median(phase.late) * 1000.0,
            "harness.trace_overhead": p50_ms / (median(plain.latency) * 1000.0),
        }
    )
    kernel = ladder["engine.kernel_ms"]
    detail = {
        "traced_ops": ops,
        "untraced_ops": len(plain.latency),
        "traced_latency_p50_ms": p50_ms,
        # The shares that confirm each workload's purpose.
        "purpose": {
            "engine_share": (ladder["engine.compile_ms"] + kernel) / p50_ms,
            "above_kernel_share": 1.0 - kernel / p50_ms,
            "kernel_share": kernel / p50_ms,
        },
    }
    phase.attempted += plain.attempted
    phase.failed += plain.failed
    phase.errors += plain.errors
    return metrics, detail, phase


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    out = ROOT / ".bench_out" / f"{name}-{seed}-{int(trace)}-{os.getpid()}"
    tracer = Tracer(enabled=False)
    workload = WORKLOADS[name](out, seed, tracer)
    host_start, steal_start = host_ms(), steal_ticks()
    try:
        workload.prepare()
        if trace:
            metrics, detail, phase = traced(workload, seconds, tracer)
        else:
            metrics, detail, phase = untraced(workload, seconds)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    host_end = host_ms()
    steal = steal_ticks() - steal_start
    if trace:
        metrics["harness.host_ms"] = (host_start + host_end) / 2.0
        metrics["harness.steal_ticks"] = steal
        trace_path = ROOT / ".bench_out" / "traces" / f"{name}-{seed}.json"
        tracer.write_chrome(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    catalog = PER_LAYER if trace else END_TO_END
    detail.update(
        {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "nproc": os.cpu_count(),
            "commit": _commit(),
            "attempted": phase.attempted,
            "failed": phase.failed,
            "errors": phase.errors,
            "host_ms": [host_start, host_end],
            "steal_ticks": steal,
        }
    )
    result = {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {
            key: {"value": metrics[key], "unit": spec["unit"]} for key, spec in catalog.items()
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run every workload briefly, traced and untraced, and check the output")
    args = parser.parse_args(argv)
    # A terminated run still stops the programs it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.self_test:
        from selftest import self_test

        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except InvalidRun as exc:
        print(f"invalid run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
