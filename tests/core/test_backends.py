"""The kernel backend layer: resolution, vector form, dispatch, parity.

The vector backend's contract is *bit-identical observability*: for every
algorithm it supports, ``run_vector_search`` must emit the same cliques in
the same order with the same float probabilities, the same
:class:`SearchStatistics` counters and the same :class:`RunReport` as the
reference python kernel.  These tests pin that on fixed graphs (the
property suite covers random ones), plus the plumbing around it: kernel
resolution, the scan lists the fused walk reads and the shard inheritance
of the cached vector form.
"""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

import repro

from repro.core.engine import (
    KERNELS,
    LargeCliqueStrategy,
    MuleStrategy,
    NoIncrementalStrategy,
    RunControls,
    RunReport,
    TopKStrategy,
    compile_graph,
    resolve_kernel,
    run_kernel_search,
    run_search,
    run_vector_search,
)
from repro.core.engine.backends.vector_form import vector_form
from repro.core.result import SearchStatistics
from repro.errors import ParameterError
from repro.uncertain.graph import UncertainGraph


@pytest.fixture
def medium_graph() -> UncertainGraph:
    """A 70-vertex pseudo-random graph (masks wider than one machine word)."""
    import random

    rng = random.Random(20150413)
    graph = UncertainGraph(vertices=range(70))
    for u in range(70):
        for v in range(u + 1, 70):
            if rng.random() < 0.12:
                graph.add_edge(u, v, round(rng.uniform(0.05, 1.0), 6))
    return graph


#: Every stock strategy the vector kernel runs, for the run-control cases.
FAMILY = pytest.mark.parametrize(
    "strategy_factory",
    [
        MuleStrategy,
        partial(TopKStrategy, min_size=2),
        partial(TopKStrategy, min_size=3),
        partial(LargeCliqueStrategy, 2),
        partial(LargeCliqueStrategy, 3),
        partial(LargeCliqueStrategy, 4),
    ],
    ids=["mule", "topk2", "topk3", "large2", "large3", "large4"],
)


def _observed(kernel_run):
    """Full observable behaviour of one run: emissions, stats, report."""
    stats = SearchStatistics()
    report = RunReport()
    pairs = list(kernel_run(stats, report))
    return pairs, stats, report


def _assert_bit_identical(compiled, alpha, strategy_factory, controls=None):
    py = _observed(
        lambda s, r: run_search(
            compiled, alpha, strategy_factory(),
            statistics=s, controls=controls, report=r,
        )
    )
    vec = _observed(
        lambda s, r: run_vector_search(
            compiled, alpha, strategy_factory(),
            statistics=s, controls=controls, report=r,
        )
    )
    assert vec[0] == py[0]  # same cliques, same order, same exact floats
    assert vec[1] == py[1]
    assert vec[2].stop_reason == py[2].stop_reason
    assert vec[2].cliques_emitted == py[2].cliques_emitted
    assert vec[2].frames_expanded == py[2].frames_expanded
    return py


class TestResolution:
    def test_known_kernels_constant(self):
        assert KERNELS == ("auto", "python", "vector")

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError, match="unknown kernel"):
            resolve_kernel("simd", MuleStrategy())

    @pytest.mark.parametrize(
        "strategy",
        [MuleStrategy(), TopKStrategy(min_size=2), LargeCliqueStrategy(3)],
    )
    def test_auto_prefers_vector_for_supported(self, strategy):
        assert resolve_kernel("auto", strategy) == "vector"
        assert resolve_kernel("vector", strategy) == "vector"
        assert resolve_kernel("python", strategy) == "python"

    def test_auto_falls_back_for_baseline(self):
        assert resolve_kernel("auto", NoIncrementalStrategy()) == "python"

    def test_vector_rejected_for_baseline(self):
        with pytest.raises(ParameterError, match="dfs-noip"):
            resolve_kernel("vector", NoIncrementalStrategy())

    def test_strategy_subclasses_are_not_assumed_supported(self):
        # The walk bakes in the exact semantics of the stock strategies;
        # a subclass may override any hook, so only exact types vectorise.
        class Sneaky(MuleStrategy):
            pass

        assert resolve_kernel("auto", Sneaky()) == "python"
        with pytest.raises(ParameterError):
            resolve_kernel("vector", Sneaky())

    def test_run_vector_search_rejects_unsupported(self, triangle):
        compiled = compile_graph(triangle, alpha=0.5)
        with pytest.raises(ParameterError):
            list(run_vector_search(compiled, 0.5, NoIncrementalStrategy()))


class TestVectorForm:
    def test_scan_lists_mirror_adjacency(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        form = vector_form(compiled)
        assert form.n == compiled.n
        for u in range(compiled.n):
            items = sorted(compiled.adjacency_probability[u].items())
            assert form.items[u] == items
            assert form.items_higher[u] == [(w, p) for w, p in items if w > u]

    def test_form_is_cached_on_compiled(self, triangle):
        compiled = compile_graph(triangle, alpha=0.5)
        assert compiled.vector_form is None  # built lazily, on first use
        assert vector_form(compiled) is vector_form(compiled)
        assert compiled.vector_form is vector_form(compiled)

    def test_shards_inherit_form(self, medium_graph):
        compiled = compile_graph(medium_graph, alpha=0.1)
        form = vector_form(compiled)
        shard = compiled.restrict_roots(0b1111)
        assert shard.vector_form is form

    def test_root_plan_cache_is_bounded(self, triangle):
        compiled = compile_graph(triangle, alpha=0.01)
        form = vector_form(compiled)
        for k in range(1, 20):
            form.root_plan(k / 40.0)
        assert len(form._root_plans) <= 8

    @pytest.mark.parametrize("alpha", [0.9, 0.5, 0.1])
    def test_root_plan_matches_scan_lists(self, medium_graph, alpha):
        # Without the compile-time edge filter the plan applies p(e) >= alpha.
        compiled = compile_graph(medium_graph, alpha=None)
        form = vector_form(compiled)
        plan = form.root_plan(alpha)
        for u in range(compiled.n):
            kept = [(w, p) for w, p in form.items[u] if p >= alpha]
            higher = [(w, p) for w, p in kept if w > u]
            lower = {w: p for w, p in kept if w < u}
            assert plan.cand[u] == [w for w, _ in higher]
            assert plan.factors[u] == [p for _, p in higher]
            assert plan.cand_mask[u] == sum(1 << w for w, _ in higher)
            assert plan.x_factor[u] == lower
            assert plan.x_mask[u] == sum(1 << w for w in lower)

    def test_backends_package_does_not_shadow_submodule(self):
        import repro.core.engine.backends as backends

        assert inspect.ismodule(backends.vector_form)

    def test_sweep_imports_no_third_party_array_library(self):
        # A fresh interpreter running a vector-kernel sweep never imports numpy.
        script = (
            "import sys\n"
            "from repro import MiningSession\n"
            "from repro.uncertain.graph import UncertainGraph\n"
            "g = UncertainGraph()\n"
            "g.add_edge(0, 1, 0.9); g.add_edge(1, 2, 0.8); g.add_edge(0, 2, 0.7)\n"
            "outcomes = MiningSession(g).sweep([0.1, 0.5], kernel='vector')\n"
            "assert all(o.num_cliques for o in outcomes)\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


class TestParity:
    ALPHAS = [0.9, 0.5, 0.1, 0.01]

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mule_bit_identical(self, medium_graph, alpha):
        compiled = compile_graph(medium_graph, alpha=alpha)
        pairs, _, _ = _assert_bit_identical(compiled, alpha, MuleStrategy)
        assert pairs  # the cell must exercise real work

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_mule_bit_identical_without_edge_pruning(self, medium_graph, alpha):
        compiled = compile_graph(medium_graph, alpha=None)
        _assert_bit_identical(compiled, alpha, MuleStrategy)

    @pytest.mark.parametrize("threshold", [2, 3, 4])
    def test_large_bit_identical(self, medium_graph, threshold):
        compiled = compile_graph(medium_graph, alpha=0.1)
        _assert_bit_identical(
            compiled, 0.1, lambda: LargeCliqueStrategy(threshold)
        )

    @pytest.mark.parametrize("min_size", [1, 2, 3])
    def test_top_k_bit_identical(self, medium_graph, min_size):
        compiled = compile_graph(medium_graph, alpha=0.1)
        _assert_bit_identical(
            compiled, 0.1, lambda: TopKStrategy(min_size=min_size)
        )

    @FAMILY
    @pytest.mark.parametrize("max_cliques", [1, 7, 50])
    def test_max_cliques_bit_identical(
        self, medium_graph, max_cliques, strategy_factory
    ):
        compiled = compile_graph(medium_graph, alpha=0.05)
        _assert_bit_identical(
            compiled,
            0.05,
            strategy_factory,
            controls=RunControls(max_cliques=max_cliques),
        )

    @FAMILY
    @pytest.mark.parametrize("check_every", [1, 3, 64])
    def test_expired_time_budget_bit_identical(
        self, medium_graph, check_every, strategy_factory
    ):
        # A zero budget makes the deadline path deterministic: both kernels
        # must stop at exactly the same frame for every check cadence.
        compiled = compile_graph(medium_graph, alpha=0.05)
        _assert_bit_identical(
            compiled,
            0.05,
            strategy_factory,
            controls=RunControls(
                time_budget_seconds=0.0, check_every_frames=check_every
            ),
        )

    @FAMILY
    def test_sharded_roots_bit_identical(self, medium_graph, strategy_factory):
        compiled = compile_graph(medium_graph, alpha=0.1)
        full_mask = compiled.all_mask
        shard_masks = [full_mask & 0x3FF, full_mask & ~0x3FF]
        merged = []
        for mask in shard_masks:
            shard = compiled.restrict_roots(mask)
            pairs, _, _ = _assert_bit_identical(shard, 0.1, strategy_factory)
            merged.extend(pairs)
        reference = list(run_search(compiled, 0.1, strategy_factory()))
        assert sorted(
            (tuple(sorted(c, key=repr)), p) for c, p in merged
        ) == sorted((tuple(sorted(c, key=repr)), p) for c, p in reference)

    def test_empty_graph(self):
        compiled = compile_graph(UncertainGraph(), alpha=0.5)
        stats = SearchStatistics()
        assert list(
            run_vector_search(compiled, 0.5, MuleStrategy(), statistics=stats)
        ) == []
        assert stats == SearchStatistics()


class TestFrontDoor:
    def test_run_kernel_search_dispatches(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        runs = {
            kernel: list(
                run_kernel_search(compiled, 0.5, MuleStrategy(), kernel=kernel)
            )
            for kernel in KERNELS
        }
        assert runs["auto"] == runs["python"] == runs["vector"]
        assert runs["auto"]

    def test_front_door_propagates_resolution_errors(self, two_cliques):
        compiled = compile_graph(two_cliques, alpha=0.5)
        with pytest.raises(ParameterError):
            run_kernel_search(
                compiled, 0.5, NoIncrementalStrategy(), kernel="vector"
            )
