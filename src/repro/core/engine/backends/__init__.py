"""Engine kernel backends: the python reference kernel and the vector kernel.

The engine has two interchangeable implementations of the enumeration
hot path:

``python``
    The reference: :func:`~repro.core.engine.kernel.run_search` driving a
    pluggable :class:`~repro.core.engine.strategies.EnumerationStrategy`.
    Supports every strategy, including user-defined ones.
``vector``
    The fused walk of :mod:`~repro.core.engine.backends.vector_kernel`
    over the compiled big-int adjacency masks, the sorted scan lists and
    the per-α root plans of
    :mod:`~repro.core.engine.backends.vector_form`.  Supports exactly the
    MULE family (:class:`MuleStrategy`, :class:`TopKStrategy`,
    :class:`LargeCliqueStrategy`; the table
    :data:`~repro.core.engine.backends.vector_kernel.VECTOR_STRATEGIES`)
    and is bit-identical to the python kernel on them — cliques,
    probabilities, stop reasons and statistics.

The kernel axis is deliberately independent of the parallel *execution*
backend (``process``/``inline`` in :mod:`repro.parallel`): one picks how
each shard's inner loop runs, the other picks where shards run, and the
two compose freely.

Selection (:func:`resolve_kernel`) depends on the strategy alone: ``auto``
picks the vector kernel whenever the strategy is supported and quietly
stays on python otherwise (DFS-NOIP is *defined* by its from-scratch
recomputation, so the baseline always runs on the python kernel).  Both
kernels are pure python and always available.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Any

from ....errors import ParameterError
from ...result import SearchStatistics
from ..compiled import CompiledGraph
from ..controls import CancellationToken, RunControls, RunReport
from ..kernel import run_search
from ..strategies import EnumerationStrategy
from .vector_kernel import VECTOR_STRATEGIES, run_vector_search

__all__ = [
    "KERNELS",
    "resolve_kernel",
    "run_kernel_search",
    "run_vector_search",
]

#: Valid values of every ``kernel`` parameter in the stack (requests,
#: CLI flags, wire schema v2, scheduler defaults).
KERNELS = ("auto", "python", "vector")


def resolve_kernel(kernel: str, strategy: EnumerationStrategy) -> str:
    """Resolve a requested kernel name against a strategy's capabilities.

    Returns ``"python"`` or ``"vector"``.  ``auto`` prefers the vector
    kernel when the strategy is one the fused walk implements and falls
    back to python otherwise; an *explicit* ``vector`` request for an
    unsupported strategy is a :class:`~repro.errors.ParameterError` —
    silently ignoring it would misreport what was measured.
    """
    if kernel not in KERNELS:
        raise ParameterError(
            f"unknown kernel {kernel!r}; expected one of {', '.join(KERNELS)}"
        )
    supported = type(strategy) in VECTOR_STRATEGIES
    if kernel == "python":
        return "python"
    if kernel == "vector":
        if not supported:
            raise ParameterError(
                f"the vector kernel does not support strategy "
                f"{type(strategy).__name__!r} (algorithm "
                f"{strategy.algorithm!r}); use kernel='python' or 'auto'"
            )
        return "vector"
    return "vector" if supported else "python"


def run_kernel_search(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    kernel: str = "auto",
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[frozenset[Any], float]]:
    """Run one enumeration on the resolved kernel backend.

    The single front door of kernel selection: same contract as
    :func:`~repro.core.engine.kernel.run_search` plus the ``kernel``
    parameter (one of :data:`KERNELS`).  Both backends yield identical
    streams, so callers never need to know which one ran.
    """
    if resolve_kernel(kernel, strategy) == "vector":
        return run_vector_search(
            compiled,
            alpha,
            strategy,
            statistics=statistics,
            controls=controls,
            report=report,
            cancel=cancel,
        )
    return run_search(
        compiled,
        alpha,
        strategy,
        statistics=statistics,
        controls=controls,
        report=report,
        cancel=cancel,
    )
