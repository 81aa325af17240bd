"""The scan-list and root-plan stage of the vector kernel backend.

:class:`VectorForm` derives, from one :class:`~repro.core.engine.compiled.
CompiledGraph`, the structures the fused walk of
:mod:`repro.core.engine.backends.vector_kernel` reads besides the compiled
big-int adjacency masks themselves:

* **scan lists** — per-vertex ``(neighbor, probability)`` pairs in
  ascending index order, plus the higher-index suffix ``GenerateI``
  walks, so the walk can choose the cheaper of mask intersection and
  list scan per node.
* **root plans** (:meth:`VectorForm.root_plan`) — per-α precompiled
  depth-1 frames.  After the Observation 3 edge filter every root-level
  survivor test ``q · f · p(e) ≥ α`` is just ``p(e) ≥ α`` (``q = f = 1``
  at the root), so the candidate lists, factor lists, candidate masks and
  exclusion dictionaries of **every** first branch are fully determined
  by the scan lists: the walk enters depth 1 without scanning at all.
  Plans are cached per α on the form, so sweeps and repeated runs pay
  the build once.

One form is built per compiled artifact and cached on
``CompiledGraph.vector_form``; :meth:`CompiledGraph.restrict_roots`
copies that slot, so parallel shards inherit the scan lists and root
plans instead of rebuilding them per shard.
"""

from __future__ import annotations

from typing import Any

from ..compiled import CompiledGraph

__all__ = ["VectorForm", "RootPlan", "vector_form"]

#: Bound on cached per-α root plans per form (sweeps touch a handful of
#: thresholds; an unbounded cache would pin one plan per α of a 500-point
#: sweep).
_MAX_ROOT_PLANS = 8


class RootPlan:
    """Precompiled depth-1 frames of one (form, α) pair.

    For every root branch ``u`` the plan holds the child node the python
    backend would build with ``GenerateI``/``GenerateX``: ``cand[u]`` /
    ``factors[u]`` are the surviving higher candidates with their factors
    (shared, never mutated), ``cand_mask[u]`` the matching bitmask,
    ``x_factor[u]`` / ``x_mask[u]`` the surviving exclusion side (the
    dictionary is copied per visit — retirements mutate it), and
    ``cand_dict[u]`` a lazily memoised candidate→factor lookup table.
    """

    __slots__ = ("cand", "factors", "cand_mask", "cand_dict", "x_factor", "x_mask")

    def __init__(
        self,
        cand: list[Any],
        factors: list[Any],
        cand_mask: list[int],
        x_factor: list[Any],
        x_mask: list[int],
    ) -> None:
        self.cand = cand
        self.factors = factors
        self.cand_mask = cand_mask
        self.cand_dict: list[Any] = [None] * len(cand)
        self.x_factor = x_factor
        self.x_mask = x_mask


class VectorForm:
    """Scan lists and per-α root plans compiled from one :class:`CompiledGraph`.

    Attributes
    ----------
    n:
        Vertex count.
    items, items_higher:
        Per-vertex ``(neighbor, probability)`` scan lists in ascending
        order; ``items_higher[u]`` keeps only neighbors ``> u``.
    """

    __slots__ = ("n", "items", "items_higher", "_root_plans")

    def __init__(self, compiled: CompiledGraph) -> None:
        self.n = compiled.n
        self.items = [
            sorted(row.items()) for row in compiled.adjacency_probability
        ]
        self.items_higher = [
            [(w, p) for w, p in pairs if w > u]
            for u, pairs in enumerate(self.items)
        ]
        self._root_plans: dict[float, RootPlan] = {}

    def root_plan(self, alpha: float) -> RootPlan:
        """Return the depth-1 frame plan for threshold ``alpha``, cached.

        At the root ``q = 1`` and every candidate factor is ``1``, so the
        ``GenerateI``/``GenerateX`` survivor test collapses to
        ``p(e) ≥ α`` (bit-exactly: multiplying by 1.0 is the identity on
        floats).  With the Observation 3 compile-time filter active every
        edge passes; without it (``prune_edges=False``) the plan applies
        the same filter the python backend would.
        """
        plan = self._root_plans.get(alpha)
        if plan is None:
            if len(self._root_plans) >= _MAX_ROOT_PLANS:
                self._root_plans.clear()
            cand: list[list[int]] = []
            factors: list[list[float]] = []
            cand_mask: list[int] = []
            x_factor: list[dict[int, float]] = []
            x_mask: list[int] = []
            for u, pairs in enumerate(self.items):
                cc: list[int] = []
                nf: list[float] = []
                cm = 0
                xf: dict[int, float] = {}
                xm = 0
                for w, p in pairs:
                    if p < alpha:
                        continue
                    if w > u:
                        cc.append(w)
                        nf.append(p)
                        cm |= 1 << w
                    else:
                        xf[w] = p
                        xm |= 1 << w
                cand.append(cc)
                factors.append(nf)
                cand_mask.append(cm)
                x_factor.append(xf)
                x_mask.append(xm)
            plan = RootPlan(cand, factors, cand_mask, x_factor, x_mask)
            self._root_plans[alpha] = plan
        return plan


def vector_form(compiled: CompiledGraph) -> VectorForm:
    """Return the (cached) vector form of a compiled graph.

    The form is stored on ``compiled.vector_form``:
    :meth:`CompiledGraph.restrict_roots` copies the slot, so every shard
    view of one artifact shares one set of scan lists and root plans.
    """
    form = compiled.vector_form
    if form is None:
        form = VectorForm(compiled)
        compiled.vector_form = form
    return form
