"""The vector kernel: one fused walk over scan lists and root plans.

:func:`run_vector_search` is a drop-in replacement for
:func:`repro.core.engine.kernel.run_search` for the MULE strategy family
(:class:`MuleStrategy`, :class:`TopKStrategy`,
:class:`LargeCliqueStrategy`).  Instead of dispatching through the
strategy protocol once per node, the walk fuses the kernel loop and the
strategy bookkeeping into a single loop over the compiled graph's
big-int adjacency masks and the scan lists and root plans of
:class:`~repro.core.engine.backends.vector_form.VectorForm`.  The three
strategies differ only in two settings of that one walk (see
:data:`VECTOR_STRATEGIES`): ``emit_min``, the smallest clique emitted
(top-k's size floor, LARGE-MULE's threshold), and ``prune``, which
turns on LARGE-MULE's size-bound cut (Algorithm 6, line 8).  The walk:

* **root plans** — every depth-1 frame (candidate lists, factors, masks,
  exclusion survivors) is precompiled per (graph, α) pair, so root
  descents charge their counters and jump straight into the subtree;
* **side-choosing candidate scans** — per node the walk picks the
  cheapest of three ``GenerateI`` realisations: a scan of the (sorted)
  higher-neighbor list, a scan of the remaining candidate tail, or
  extraction from the big-int intersection of the candidate mask with
  the vertex's adjacency mask, switching on which side is smaller
  (``_SCAN_CUTOFF``);
* **size-bound cuts** — with ``prune`` on, a branch whose clique plus
  every surviving candidate stays below ``emit_min`` is cut right after
  ``GenerateI``, before the exclusion side is charged or built;
* **lazy exclusion sets** — ``GenerateX`` materialises the exclusion
  dictionary only for nodes that are descended into; childless nodes run
  an existence-only survivor probe (the O(1) maximality test needs just
  emptiness);
* **flat frames** — node state lives in locals, pushed as tuples only
  when a child actually has candidates.

Parity is the contract, not an aspiration: emitted cliques,
probabilities, stop reasons and **every** statistics counter are
bit-identical to the python backend at every yield point — counter
deltas are flushed immediately before each emission, so streaming
observers cannot tell the backends apart either.  The scan code stays
inline rather than in helpers: one extra function call per node would
cost more than the sharing saves (see
``tests/property/test_property_kernel_parity.py`` for the suite that
enforces the contract).

:class:`NoIncrementalStrategy` is intentionally not implemented here:
DFS-NOIP is the paper's *baseline*, defined by its from-scratch
recomputation — accelerating it would change the experiment.  Requests
resolve it to the python backend (see
:func:`repro.core.engine.backends.resolve_kernel`).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from typing import Any
from time import perf_counter

from ....errors import ParameterError
from ...result import SearchStatistics
from ..compiled import CompiledGraph
from ..controls import CancellationToken, RunControls, RunReport, StopReason
from ..strategies import (
    EnumerationStrategy,
    LargeCliqueStrategy,
    MuleStrategy,
    TopKStrategy,
)
from .vector_form import vector_form

__all__ = ["VECTOR_STRATEGIES", "run_vector_search"]

_UNLIMITED = RunControls()

#: The strategies the walk implements, by *exact* type, each mapped to
#: its ``(emit_min, prune)`` setting.  Subclasses are excluded on purpose:
#: they may override hooks the walk never calls.
VECTOR_STRATEGIES: dict[
    type[EnumerationStrategy], Callable[[Any], tuple[int, bool]]
] = {
    MuleStrategy: lambda strategy: (0, False),
    TopKStrategy: lambda strategy: (strategy.min_size, False),
    LargeCliqueStrategy: lambda strategy: (strategy.size_threshold, True),
}

#: Crossover between list scans and bitmask extraction in the candidate
#: generation step.  Below this many elements a plain scan of the shorter
#: side beats building the mask intersection; tuned on the Figure 1 grid.
_SCAN_CUTOFF = 24


def run_vector_search(
    compiled: CompiledGraph,
    alpha: float,
    strategy: EnumerationStrategy,
    *,
    statistics: SearchStatistics | None = None,
    controls: RunControls | None = None,
    report: RunReport | None = None,
    cancel: CancellationToken | None = None,
) -> Iterator[tuple[frozenset[Any], float]]:
    """Run one enumeration on the vector backend; same contract as ``run_search``.

    Only the strategies of :data:`VECTOR_STRATEGIES` are supported; pass
    anything else (or an instance of a subclass the walk was not written
    for) and a :class:`~repro.errors.ParameterError` is raised eagerly, at
    call time.  Dispatch is on the *exact* strategy type — a user subclass
    may override hooks the fused walk never calls, so this function
    refuses it and :func:`resolve_kernel`'s ``auto`` mode routes it to the
    python kernel instead of silently mis-driving it.
    """
    settings = VECTOR_STRATEGIES.get(type(strategy))
    if settings is None:
        raise ParameterError(
            f"the vector kernel does not support strategy "
            f"{type(strategy).__name__!r}; supported: "
            f"{', '.join(kind.__name__ for kind in VECTOR_STRATEGIES)} "
            f"(use kernel='python')"
        )
    statistics = statistics if statistics is not None else SearchStatistics()
    report = report if report is not None else RunReport()
    controls = controls if controls is not None else _UNLIMITED
    strategy.bind(compiled, alpha, statistics)
    emit_min, prune = settings(strategy)
    return _drive(
        compiled, alpha, emit_min, prune, statistics, controls, report, cancel
    )


def _drive(
    compiled: CompiledGraph,
    alpha: float,
    emit_min: int,
    prune: bool,
    statistics: SearchStatistics,
    controls: RunControls,
    report: RunReport,
    cancel: CancellationToken | None,
) -> Iterator[tuple[frozenset[Any], float]]:
    """The fused walk: emits cliques of ``emit_min``+ vertices (0 = all).

    ``prune`` adds LARGE-MULE's size bound (Algorithms 5–6): a branch
    that cannot reach ``emit_min`` vertices is cut and counted in
    ``pruned_branches``.
    """
    report.stop_reason = StopReason.COMPLETED
    report.cliques_emitted = 0
    report.frames_expanded = 0
    n = compiled.n
    if n == 0:
        return

    form = vector_form(compiled)
    plan = form.root_plan(alpha)
    plan_cand = plan.cand
    plan_factors = plan.factors
    plan_cand_dict = plan.cand_dict
    plan_cand_mask = plan.cand_mask
    plan_x_factor = plan.x_factor
    plan_x_mask = plan.x_mask
    adj_hi = form.items_higher

    adj_prob = compiled.adjacency_probability
    adj_mask = compiled.adjacency_mask
    higher = compiled.higher_masks
    decode = compiled.decode
    root_mask = compiled.root_mask
    root_restricted = root_mask != compiled.all_mask
    max_cliques = controls.max_cliques
    deadline = (
        perf_counter() + controls.time_budget_seconds
        if controls.time_budget_seconds is not None
        else None
    )
    check_every = controls.check_every_frames
    check_limits = deadline is not None or cancel is not None

    # Counter deltas live in locals and are flushed immediately before
    # every yield (and on any exit), so callers observing ``statistics``
    # or ``report`` mid-stream see exactly the totals the python backend
    # exposes at the same point.  rc/frames start at 1: the root expand.
    rc = 1
    ce = 0
    pm = 0
    mx = 0
    pb = 0
    frames_expanded = 1
    cliques_emitted = 0
    frames_since_check = 0

    def flush() -> None:
        statistics.recursive_calls += rc
        statistics.candidates_examined += ce
        statistics.probability_multiplications += pm
        statistics.maximality_checks += mx
        statistics.pruned_branches += pb
        report.frames_expanded = frames_expanded
        report.cliques_emitted = cliques_emitted

    try:
        clique: list[int] = []
        cappend = clique.append
        cpop = clique.pop
        stack: list[tuple[Any, ...]] = []
        push = stack.append
        pop = stack.pop

        for root in range(n):
            # Shard-skipped roots charge no counters (the python kernel
            # never calls the strategy for them) but do advance the
            # time-budget window; their retirement is already encoded in
            # the plan's exclusion sets.
            if root_restricted and not (root_mask >> root) & 1:
                if check_limits:
                    frames_since_check += 1
                    if frames_since_check >= check_every:
                        frames_since_check = 0
                        if cancel is not None and cancel.cancelled:
                            report.stop_reason = StopReason.CANCELLED
                            return
                        if deadline is not None and perf_counter() >= deadline:
                            report.stop_reason = StopReason.TIME_BUDGET
                            return
                continue

            # Root descend.  The root candidate mask is all_mask (retire
            # never clears candidate bits) and exactly ``root`` vertices
            # are retired so far, so the Lemma 10 charge is 1 + n + root
            # without touching a mask.  A size-bound cut comes before
            # GenerateX, so it charges only the 1 + n candidate side.
            ce += 1
            candidates = plan_cand[root]
            ncand = len(candidates)
            if prune and 1 + ncand < emit_min:
                # Algorithm 6, line 8 at the root: even taking every
                # surviving candidate cannot reach emit_min vertices.
                pb += 1
                pm += 1 + n
                if check_limits:
                    frames_since_check += 1
                    if frames_since_check >= check_every:
                        frames_since_check = 0
                        if cancel is not None and cancel.cancelled:
                            report.stop_reason = StopReason.CANCELLED
                            return
                        if deadline is not None and perf_counter() >= deadline:
                            report.stop_reason = StopReason.TIME_BUDGET
                            return
                continue
            pm += 1 + n + root
            if check_limits:
                frames_since_check += 1
                if frames_since_check >= check_every:
                    frames_since_check = 0
                    if cancel is not None and cancel.cancelled:
                        report.stop_reason = StopReason.CANCELLED
                        return
                    if deadline is not None and perf_counter() >= deadline:
                        report.stop_reason = StopReason.TIME_BUDGET
                        return

            excl_mask = plan_x_mask[root]
            rc += 1
            frames_expanded += 1
            if not ncand:
                # Childless root branch: α-maximal iff the exclusion side
                # is empty too; a singleton always has probability 1.
                if not excl_mask:
                    mx += 1
                    if emit_min <= 1:
                        cappend(root)
                        flush()
                        rc = ce = pm = mx = pb = 0
                        yield decode(clique), 1.0
                        cliques_emitted += 1
                        if (
                            max_cliques is not None
                            and cliques_emitted >= max_cliques
                        ):
                            report.stop_reason = StopReason.MAX_CLIQUES
                            return
                        cpop()
                continue

            cappend(root)
            q0 = 1.0
            factors = plan_factors[root]
            cand_dict = plan_cand_dict[root]
            cand_mask = plan_cand_mask[root]
            # The exclusion dictionary is mutated by retirements below;
            # the plan's copy must stay pristine for the next run.
            excl_factor = plan_x_factor[root].copy()
            index = 0

            while True:
                if index < ncand:
                    u = candidates[index]
                    ce += 1
                    q = q0 * factors[index]

                    # GenerateI, three ways: scan the higher-neighbor
                    # list, scan the candidate tail, or extract from the
                    # bitmask intersection — whichever side is smaller.
                    child_candidates: list[int] = []
                    new_factors: list[float] = []
                    tail = ncand - index - 1
                    hi = adj_hi[u]
                    nhi = len(hi)
                    if tail and nhi:
                        if nhi <= tail and nhi <= _SCAN_CUTOFF:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    # Depth-1 frames are the plan's: keep
                                    # the lookup table for future runs.
                                    plan_cand_dict[root] = cand_dict
                            get = cand_dict.get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for w, p in hi:
                                f = get(w)
                                if f is not None:
                                    factor = f * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        elif tail <= _SCAN_CUTOFF:
                            get = adj_prob[u].get
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            for j in range(index + 1, ncand):
                                w = candidates[j]
                                p = get(w)
                                if p is not None:
                                    factor = factors[j] * p
                                    if q * factor >= alpha:
                                        cc_append(w)
                                        nf_append(factor)
                        else:
                            if cand_dict is None:
                                cand_dict = dict(zip(candidates, factors))
                                if not stack:
                                    plan_cand_dict[root] = cand_dict
                            aprob = adj_prob[u]
                            cc_append = child_candidates.append
                            nf_append = new_factors.append
                            if cand_mask is None:
                                # Candidate masks are built lazily: most
                                # frames never reach this path, so paying
                                # one |= per survivor at every push would
                                # mostly be wasted (the mask equals the
                                # candidate list either way).
                                cand_mask = 0
                                for w in candidates:
                                    cand_mask |= 1 << w
                            m = cand_mask & adj_mask[u] & higher[u]
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = cand_dict[w] * aprob[w]
                                if q * factor >= alpha:
                                    cc_append(w)
                                    nf_append(factor)
                    if (
                        prune
                        and len(clique) + 1 + len(child_candidates) < emit_min
                    ):
                        # Algorithm 6, line 8: the branch is cut before
                        # the exclusion side is charged or built.
                        pb += 1
                        pm += 1 + ncand
                        if check_limits:
                            frames_since_check += 1
                            if frames_since_check >= check_every:
                                frames_since_check = 0
                                if cancel is not None and cancel.cancelled:
                                    report.stop_reason = StopReason.CANCELLED
                                    return
                                if deadline is not None and perf_counter() >= deadline:
                                    report.stop_reason = StopReason.TIME_BUDGET
                                    return
                        excl_factor[u] = factors[index]
                        excl_mask |= 1 << u
                        index += 1
                        continue
                    pm += 1 + ncand + len(excl_factor)
                    if check_limits:
                        frames_since_check += 1
                        if frames_since_check >= check_every:
                            frames_since_check = 0
                            if cancel is not None and cancel.cancelled:
                                report.stop_reason = StopReason.CANCELLED
                                return
                            if deadline is not None and perf_counter() >= deadline:
                                report.stop_reason = StopReason.TIME_BUDGET
                                return
                    xmask = excl_mask & adj_mask[u]
                    if child_candidates:
                        # GenerateX in full: the child is descended into,
                        # so its exclusion survivors are really needed.
                        new_excl_factor: dict[int, float] = {}
                        new_excl_mask = 0
                        if xmask:
                            aprob = adj_prob[u]
                            m = xmask
                            while m:
                                low = m & -m
                                m ^= low
                                w = low.bit_length() - 1
                                factor = excl_factor[w] * aprob[w]
                                if q * factor >= alpha:
                                    new_excl_factor[w] = factor
                                    new_excl_mask |= low
                        rc += 1
                        frames_expanded += 1
                        cappend(u)
                        push(
                            (
                                q0,
                                candidates,
                                factors,
                                cand_dict,
                                cand_mask,
                                excl_factor,
                                excl_mask,
                                ncand,
                                index,
                            )
                        )
                        q0 = q
                        candidates = child_candidates
                        factors = new_factors
                        cand_dict = None
                        cand_mask = None
                        excl_factor = new_excl_factor
                        excl_mask = new_excl_mask
                        ncand = len(child_candidates)
                        index = 0
                        continue
                    # Childless node: maximality only needs X-emptiness,
                    # so probe for one surviving exclusion and stop.
                    rc += 1
                    frames_expanded += 1
                    x_alive = False
                    if xmask:
                        aprob = adj_prob[u]
                        m = xmask
                        while m:
                            low = m & -m
                            m ^= low
                            w = low.bit_length() - 1
                            if q * (excl_factor[w] * aprob[w]) >= alpha:
                                x_alive = True
                                break
                    if not x_alive:
                        mx += 1
                        if len(clique) + 1 >= emit_min:
                            cappend(u)
                            flush()
                            rc = ce = pm = mx = pb = 0
                            yield decode(clique), q
                            cliques_emitted += 1
                            if (
                                max_cliques is not None
                                and cliques_emitted >= max_cliques
                            ):
                                report.stop_reason = StopReason.MAX_CLIQUES
                                return
                            cpop()
                    excl_factor[u] = factors[index]
                    excl_mask |= 1 << u
                    index += 1
                    continue
                if not stack:
                    cpop()
                    break
                (
                    q0,
                    candidates,
                    factors,
                    cand_dict,
                    cand_mask,
                    excl_factor,
                    excl_mask,
                    ncand,
                    index,
                ) = pop()
                u = candidates[index]
                excl_factor[u] = factors[index]
                excl_mask |= 1 << u
                index += 1
                cpop()
    finally:
        flush()
