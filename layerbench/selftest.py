"""Self-test: every workload briefly, traced and untraced, output checked.

Runs ``run.py`` for every workload, gated or not, as the benchmark's
caller would, and checks that

* ``BENCHMARK.json`` and ``catalog.py`` name the same workloads and
  metrics with the same units and directions;
* every metric of ``BENCHMARK.json`` is emitted with its unit, and the
  details carry the seed, nproc, commit, sample counts and attempted and
  failed counts;
* the engine's frame and clique counts are identical across two seeds
  (the seed relabels and reorders inputs but never changes the work);
* the trace has spans for every layer, and the ladder confirms each
  workload's purpose.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from catalog import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Untraced runs take the benchmark's own run length, which each
#: workload's tail percentile is chosen for; traced runs only need medians.
SECONDS = {"0": str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]), "1": "4"}
SEEDS = (11, 12)
LAYERS = ("engine", "api", "sched", "jobs", "codec", "http")

#: The ladder shares that confirm why each workload exists (see the
#: workload docstrings): share, bound, and which side of it the share lies.
PURPOSE = {
    "paper-sweep": ("engine_share", 0.5, "above"),
    "bulk-stream": ("above_kernel_share", 0.5, "above"),
    "churn-open": ("kernel_share", 0.25, "below"),
}


def _run(workload: str, seed: int, trace: str) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS[trace], "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def _check_result(result: dict, catalog: dict, where: str) -> None:
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        raise AssertionError(f"{where}: not correct: {result}")
    for name, spec in catalog.items():
        metric = result["metrics"].get(name)
        if metric is None or metric.get("unit") != spec["unit"]:
            raise AssertionError(f"{where}: metric {name} missing or without unit {spec['unit']}")
        if not isinstance(metric["value"], (int, float)):
            raise AssertionError(f"{where}: metric {name} is not a number")


def _check_benchmark_json() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    unknown = [w["name"] for w in bench["workloads"] if w["name"] not in WORKLOADS]
    if unknown:
        raise AssertionError(f"BENCHMARK.json names unknown workloads {unknown}")
    for key, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in bench[key]}
        expected = {name: (spec["unit"], spec["better"]) for name, spec in catalog.items()}
        if listed != expected:
            raise AssertionError(f"BENCHMARK.json {key} differs from catalog.py")


def self_test() -> int:
    try:
        _self_test()
    except AssertionError as exc:
        print(f"self-test FAILED: {exc}")
        return 1
    print("self-test: ok")
    return 0


def _self_test() -> None:
    _check_benchmark_json()
    for workload in WORKLOADS:
        detail, result = _run(workload, SEEDS[0], "0")
        _check_result(result, END_TO_END, f"{workload} untraced")
        for key in ("seed", "nproc", "commit", "latency_samples", "attempted", "failed"):
            if key not in detail:
                raise AssertionError(f"{workload}: detail lacks {key}")
        counts = []
        for seed in SEEDS:
            detail, result = _run(workload, seed, "1")
            _check_result(result, PER_LAYER, f"{workload} traced seed {seed}")
            metrics = result["metrics"]
            counts.append((metrics["engine.frames"]["value"], metrics["engine.cliques"]["value"]))
            trace = json.loads((ROOT / detail["trace_file"]).read_text())
            layers = {event["cat"] for event in trace["traceEvents"]}
            missing = [layer for layer in LAYERS if layer not in layers]
            if missing:
                raise AssertionError(f"{workload}: trace lacks spans of {missing}")
            share, bound, side = PURPOSE[workload]
            value = detail["purpose"][share]
            if (value <= bound) if side == "above" else (value >= bound):
                raise AssertionError(f"{workload}: {share} = {value:.3f}, expected {side} {bound}")
        if counts[0] != counts[1]:
            raise AssertionError(f"{workload}: engine counts moved with the seed: {counts}")
        print(f"self-test {workload}: ok (frames, cliques = {counts[0]})", flush=True)
