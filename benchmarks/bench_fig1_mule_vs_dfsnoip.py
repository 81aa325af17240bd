"""Figure 1 — MULE vs DFS-NOIP runtime comparison.

The paper's Figure 1 compares the two enumerators on four graphs
(wiki-vote, BA5000, ca-GrQc, PPI) at four thresholds
(α ∈ {0.9, 0.8, 0.0005, 0.0001}) and finds MULE faster everywhere, with the
gap widening sharply for small α (e.g. 25 s vs 4 400 s on ca-GrQc at
α = 0.0001).

This benchmark reruns exactly that grid on the scaled analogs.  Both
algorithms must produce identical outputs; the recorded rows contain the
runtimes, their ratio, and the (deterministic) probability-multiplication
counts, which show the same effect independent of machine noise.

``bench_fig1_kernel_backends`` reruns the same grid once more, MULE only,
timing the python kernel against the vectorised kernel backend
(:mod:`repro.core.engine.backends`) on identical compiled graphs.  It
asserts bit-identical outputs per cell and writes a machine-readable
summary to ``BENCH_kernel.json`` at the repository root: per-cell wall
times and speedups, the time-weighted overall speedup, the per-cell
geometric-mean speedup, dataset scale/seed, and the host core count.  On
hosts with at least 4 cores, setting ``REPRO_BENCH_ASSERT_KERNEL_SPEEDUP``
turns the geometric-mean speedup into a hard assertion (bar: 2.0, or
``REPRO_BENCH_KERNEL_SPEEDUP_MIN``) — what the CI kernel-parity job runs.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path

import pytest

from repro.core.dfs_noip import dfs_noip
from repro.core.engine import compile_graph
from repro.core.engine.backends import run_vector_search
from repro.core.engine.kernel import run_search
from repro.core.engine.strategies import MuleStrategy
from repro.core.mule import mule
from repro.core.result import SearchStatistics

#: The four panels of Figure 1.
FIGURE1_ALPHAS = [0.9, 0.8, 0.0005, 0.0001]

#: The four graphs on the x-axis of each panel.
FIGURE1_GRAPHS = ["wiki-vote", "ba5000", "ca-grqc", "ppi"]


@pytest.mark.parametrize("graph_name", FIGURE1_GRAPHS)
@pytest.mark.parametrize("alpha", FIGURE1_ALPHAS)
def bench_fig1_mule(graph_name, alpha, dataset, run_once, record_rows, bench_controls):
    """Time MULE on one (graph, α) cell of Figure 1."""
    graph = dataset(graph_name)
    result = run_once(mule, graph, alpha, controls=bench_controls)
    record_rows(
        "Figure 1",
        "MULE vs DFS-NOIP runtime (seconds) per graph and alpha",
        [
            {
                "graph": graph_name,
                "alpha": alpha,
                "algorithm": "mule",
                "num_cliques": result.num_cliques,
                "seconds": round(result.elapsed_seconds, 4),
                "prob_multiplications": result.statistics.probability_multiplications,
            }
        ],
        columns=[
            "graph",
            "alpha",
            "algorithm",
            "num_cliques",
            "seconds",
            "prob_multiplications",
        ],
    )
    assert result.num_cliques > 0


@pytest.mark.parametrize("graph_name", FIGURE1_GRAPHS)
@pytest.mark.parametrize("alpha", FIGURE1_ALPHAS)
def bench_fig1_dfs_noip(graph_name, alpha, dataset, run_once, record_rows, bench_controls):
    """Time DFS-NOIP on one (graph, α) cell of Figure 1 and check agreement."""
    graph = dataset(graph_name)
    result = run_once(dfs_noip, graph, alpha, controls=bench_controls)
    reference = mule(graph, alpha, controls=bench_controls)
    if not (result.truncated or reference.truncated):
        assert result.vertex_sets() == reference.vertex_sets()
    record_rows(
        "Figure 1",
        "MULE vs DFS-NOIP runtime (seconds) per graph and alpha",
        [
            {
                "graph": graph_name,
                "alpha": alpha,
                "algorithm": "dfs-noip",
                "num_cliques": result.num_cliques,
                "seconds": round(result.elapsed_seconds, 4),
                "prob_multiplications": result.statistics.probability_multiplications,
            }
        ],
    )
    # The paper's headline shape: DFS-NOIP does much more probability work,
    # with the gap widening as α decreases.  At large α both algorithms do
    # little work on the scaled-down analogs and the (approximate) counters
    # are within noise of each other, so the assertion targets the small-α
    # cells where the paper's effect is strongest.
    if alpha < 0.5 and not (result.truncated or reference.truncated):
        assert (
            result.statistics.probability_multiplications
            > reference.statistics.probability_multiplications
        )


def _host_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        return os.cpu_count() or 1


def _best_of(kernel_run, reps: int) -> tuple[float, list, SearchStatistics]:
    """Minimum wall time over ``reps`` runs, plus one run's output/counters."""
    best = math.inf
    pairs: list = []
    statistics = SearchStatistics()
    for _ in range(reps):
        stats = SearchStatistics()
        start = time.perf_counter()
        out = list(kernel_run(stats))
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best, pairs, statistics = elapsed, out, stats
    return best, pairs, statistics


def bench_fig1_kernel_backends(
    dataset, run_once, record_rows, bench_scale, bench_seed
):
    """Python kernel vs vector kernel over the Figure 1 MULE grid.

    Each cell compiles once and runs both kernels on the same artifact, so
    the measurement isolates the kernel hot loop.  Wall times are best-of-N
    (``REPRO_BENCH_KERNEL_REPS``, default 3) — enumeration is deterministic,
    so the minimum is the least-noisy estimator.  Outputs must be
    bit-identical per cell: emission order, probabilities and all search
    counters.
    """
    reps = int(os.environ.get("REPRO_BENCH_KERNEL_REPS", "3"))
    cells = []

    def run_grid():
        for graph_name in FIGURE1_GRAPHS:
            graph = dataset(graph_name)
            for alpha in FIGURE1_ALPHAS:
                compiled = compile_graph(graph, alpha=alpha)
                py_s, py_pairs, py_stats = _best_of(
                    lambda stats: run_search(
                        compiled, alpha, MuleStrategy(), statistics=stats
                    ),
                    reps,
                )
                vec_s, vec_pairs, vec_stats = _best_of(
                    lambda stats: run_vector_search(
                        compiled, alpha, MuleStrategy(), statistics=stats
                    ),
                    reps,
                )
                assert vec_pairs == py_pairs, (graph_name, alpha)
                assert vec_stats == py_stats, (graph_name, alpha)
                cells.append(
                    {
                        "graph": graph_name,
                        "alpha": alpha,
                        "num_cliques": len(py_pairs),
                        "python_seconds": py_s,
                        "vector_seconds": vec_s,
                        "speedup": py_s / max(vec_s, 1e-12),
                    }
                )

    run_once(run_grid)

    python_total = sum(c["python_seconds"] for c in cells)
    vector_total = sum(c["vector_seconds"] for c in cells)
    overall = python_total / max(vector_total, 1e-12)
    geomean = math.exp(
        sum(math.log(c["speedup"]) for c in cells) / len(cells)
    )
    summary = {
        "benchmark": "fig1-kernel-backends",
        "datasets": FIGURE1_GRAPHS,
        "alphas": FIGURE1_ALPHAS,
        "scale": bench_scale,
        "seed": bench_seed,
        "reps": reps,
        "host_cores": _host_cores(),
        "cells": [
            {**c, "python_seconds": round(c["python_seconds"], 6),
             "vector_seconds": round(c["vector_seconds"], 6),
             "speedup": round(c["speedup"], 3)}
            for c in cells
        ],
        "python_total_seconds": round(python_total, 6),
        "vector_total_seconds": round(vector_total, 6),
        "overall_speedup": round(overall, 3),
        "geomean_speedup": round(geomean, 3),
        "parity": True,
    }
    output = Path(__file__).resolve().parent.parent / "BENCH_kernel.json"
    output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")

    record_rows(
        "Kernel backends",
        "python vs vector kernel wall time (seconds) per Figure 1 cell",
        [
            {
                "graph": c["graph"],
                "alpha": c["alpha"],
                "python_s": round(c["python_seconds"], 4),
                "vector_s": round(c["vector_seconds"], 4),
                "speedup": round(c["speedup"], 2),
            }
            for c in cells
        ],
        columns=["graph", "alpha", "python_s", "vector_s", "speedup"],
    )

    # The speedup bar only binds where it is meaningful: an explicitly
    # opted-in run (the CI kernel job) on a host with real cores.  Loaded
    # single-core runners measure scheduler noise, not the kernel.
    if os.environ.get("REPRO_BENCH_ASSERT_KERNEL_SPEEDUP") and _host_cores() >= 4:
        bar = float(os.environ.get("REPRO_BENCH_KERNEL_SPEEDUP_MIN", "2.0"))
        assert geomean >= bar, (
            f"vector kernel geomean speedup {geomean:.2f}x is below the "
            f"{bar:.1f}x bar (cells: "
            + ", ".join(
                f"{c['graph']}/{c['alpha']}={c['speedup']:.2f}x" for c in cells
            )
            + ")"
        )
