"""The compiled graph stage of the enumeration engine.

Every enumerator used to repeat the same preprocessing pipeline —
validate α, drop edges with ``p(e) < α`` (Observation 3), optionally apply
Shared Neighborhood Filtering (LARGE-MULE), relabel vertices to integers —
and :mod:`repro.core.fast_mule` privately built bitmask adjacency on top.
:class:`CompiledGraph` makes that representation a first-class, shared
artifact:

* vertices are relabelled to ``0..n-1`` in sorted label order (``repr``
  order for non-orderable labels), so the lexicographic exploration order of
  Algorithm 2 becomes plain ascending-integer order;
* each neighborhood is an **integer bitmask**, so the "candidates adjacent
  to the new vertex ``m`` and larger than ``m``" filter of ``GenerateI``
  is two bitwise ANDs;
* edge probabilities live in flat per-vertex dictionaries keyed by the
  integer index, preserving the O(1) lookup the paper's Lemma 10 assumes.

A compiled graph is immutable by convention: strategies read it, never
write it, so one compilation can back many searches (and, later, many
parallel shards).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

from ...uncertain.graph import UncertainGraph
from ...uncertain.operations import prune_edges_below_alpha
from ..pruning import PruningReport, shared_neighborhood_filter

__all__ = ["CompiledGraph", "compile_graph"]

Vertex = Hashable


class CompiledGraph:
    """A search-ready, integer-indexed snapshot of an uncertain graph.

    Attributes
    ----------
    n:
        Number of vertices.
    labels:
        ``labels[i]`` is the original label of vertex index ``i``; indices
        are assigned in sorted label order.
    index_of:
        Inverse mapping original label → index.
    adjacency_mask:
        ``adjacency_mask[i]`` is an integer whose bit ``j`` is set when
        ``{i, j}`` is a possible edge.
    adjacency_probability:
        ``adjacency_probability[i][j]`` is ``p({i, j})`` for every possible
        edge; both directions are stored.
    all_mask:
        ``(1 << n) - 1`` — the bitmask of all vertices.
    higher_masks:
        ``higher_masks[i]`` has exactly the bits of indices strictly greater
        than ``i`` set; used for the ``u > max(C)`` filter of ``GenerateI``.
    root_mask:
        Bitmask of the vertices the search may branch on at the **root** of
        the depth-first tree (``all_mask`` by default).  Restricting it via
        :meth:`restrict_roots` confines a search to the subtrees rooted at a
        subset of first-branch vertices — the sharding primitive of the
        parallel runner (:mod:`repro.parallel`).  Vertices outside the mask
        are still *retired* into the exclusion set as the root frame
        advances, so maximality tests inside the shard remain global and
        every emitted clique is genuinely α-maximal.
    """

    __slots__ = (
        "n",
        "labels",
        "index_of",
        "adjacency_mask",
        "adjacency_probability",
        "all_mask",
        "higher_masks",
        "root_mask",
        "vector_form",
    )

    def __init__(
        self,
        labels: list[Vertex],
        adjacency_mask: list[int],
        adjacency_probability: list[dict[int, float]],
    ) -> None:
        self.n = len(labels)
        self.labels = labels
        self.index_of = {v: i for i, v in enumerate(labels)}
        self.adjacency_mask = adjacency_mask
        self.adjacency_probability = adjacency_probability
        self.all_mask = (1 << self.n) - 1
        self.higher_masks = [
            self.all_mask ^ ((1 << (i + 1)) - 1) for i in range(self.n)
        ]
        self.root_mask = self.all_mask
        # Lazily-built scan lists and root plans of this artifact for the
        # vector kernel (see repro.core.engine.backends.vector_form).
        # restrict_roots copies the slot, so shard views inherit them;
        # derived artifacts (restrict_probability) start from None and build
        # their own.
        self.vector_form = None

    @classmethod
    def from_graph(
        cls, graph: UncertainGraph, *, min_probability: float | None = None
    ) -> "CompiledGraph":
        """Compile ``graph`` into the bitmask representation.

        When ``min_probability`` is given, edges with ``p(e)`` below it are
        dropped during compilation — the Observation 3 preprocessing fused
        into the single compile pass (vertices are always kept, so singleton
        α-maximal cliques survive).

        >>> g = UncertainGraph(edges=[(2, 1, 0.5)])
        >>> cg = CompiledGraph.from_graph(g)
        >>> cg.labels, cg.adjacency_mask
        ([1, 2], [2, 1])
        """
        try:
            ordered = sorted(graph.vertices())
        except TypeError:
            ordered = sorted(
                graph.vertices(), key=lambda v: (type(v).__name__, repr(v))
            )
        index_of = {v: i for i, v in enumerate(ordered)}
        n = len(ordered)
        adjacency_mask = [0] * n
        adjacency_probability: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, p in graph.edges():
            if min_probability is not None and p < min_probability:
                continue
            iu, iv = index_of[u], index_of[v]
            adjacency_mask[iu] |= 1 << iv
            adjacency_mask[iv] |= 1 << iu
            adjacency_probability[iu][iv] = p
            adjacency_probability[iv][iu] = p
        return cls(ordered, adjacency_mask, adjacency_probability)

    def restrict_probability(self, min_probability: float) -> "CompiledGraph":
        """Return a new compiled graph without edges below ``min_probability``.

        Produces exactly the artifact ``compile_graph(graph, alpha=p)``
        would — same labels, same indexing, same floats — but derives it
        from the already-compiled arrays: no vertex re-sort, no traversal of
        the original ``UncertainGraph``.  This is the cheap path that lets
        one base compilation back a whole α sweep
        (:meth:`repro.api.MiningSession.sweep`): searches over the derived
        artifact are bit-identical — counters included — to searches over a
        fresh compilation at that α.

        Only restriction is supported: ``min_probability`` must be at least
        as large as the threshold the base was compiled with (dropped edges
        cannot be recovered); callers are responsible for honouring that.

        >>> g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.4)])
        >>> base = CompiledGraph.from_graph(g)
        >>> base.restrict_probability(0.5).adjacency_mask
        [2, 1, 0]
        """
        masks: list[int] = []
        probabilities: list[dict[int, float]] = []
        for row in self.adjacency_probability:
            kept = {j: p for j, p in row.items() if p >= min_probability}
            mask = 0
            for j in kept:
                mask |= 1 << j
            masks.append(mask)
            probabilities.append(kept)
        return CompiledGraph(self.labels, masks, probabilities)

    def restrict_roots(self, root_mask: int) -> "CompiledGraph":
        """Return a shallow shard view confined to ``root_mask`` first branches.

        The view shares every array with ``self`` (compilation is never
        repeated), differing only in :attr:`root_mask`.  The search kernel
        descends only into root-level branches whose bit is set (strategies
        never see the others); all other root candidates are still retired
        for exclusion-set bookkeeping.  The union of searches
        over a partition of ``all_mask`` therefore emits exactly the cliques
        of the unrestricted search, each exactly once (a clique is emitted
        under the root branch of its smallest vertex).

        >>> g = UncertainGraph(edges=[(1, 2, 0.9)])
        >>> compiled = CompiledGraph.from_graph(g)
        >>> shard = compiled.restrict_roots(0b01)
        >>> shard.root_mask, shard.adjacency_mask is compiled.adjacency_mask
        (1, True)
        """
        view = object.__new__(CompiledGraph)
        for slot in CompiledGraph.__slots__:
            setattr(view, slot, getattr(self, slot))
        view.root_mask = root_mask & self.all_mask
        return view

    # ------------------------------------------------------------------ #
    # Queries used by strategies and tests
    # ------------------------------------------------------------------ #
    def decode(self, indices: Iterable[int]) -> frozenset[Any]:
        """Translate vertex indices back to a frozenset of original labels.

        This sits on the kernel's per-emission path, so it avoids the
        generator-expression frame a naive ``frozenset(labels[i] for i in
        indices)`` would allocate per call (``benchmarks/
        bench_emission_decode.py`` measures the difference).
        """
        return frozenset(map(self.labels.__getitem__, indices))

    def probability(self, i: int, j: int) -> float:
        """Return ``p({i, j})`` for vertex indices, or ``0.0`` when absent."""
        return self.adjacency_probability[i].get(j, 0.0)

    def subset_probability(self, indices: list[int]) -> float:
        """Recompute the clique probability of an index set from scratch.

        Returns ``0.0`` when any required edge is missing.  This is the
        non-incremental primitive used by :class:`NoIncrementalStrategy`;
        the incremental strategies never call it.
        """
        probability = 1.0
        adjacency_probability = self.adjacency_probability
        for pos, u in enumerate(indices):
            row = adjacency_probability[u]
            for v in indices[pos + 1 :]:
                p = row.get(v)
                if p is None:
                    return 0.0
                probability *= p
        return probability

    def __repr__(self) -> str:
        edges = sum(mask.bit_count() for mask in self.adjacency_mask) // 2
        return f"CompiledGraph(n={self.n}, m={edges})"


def compile_graph(
    graph: UncertainGraph,
    *,
    alpha: float | None = None,
    size_threshold: int | None = None,
    pruning_report: PruningReport | None = None,
) -> CompiledGraph:
    """Run the shared preprocessing pipeline and compile the result.

    Parameters
    ----------
    graph:
        The input uncertain graph (never modified).
    alpha:
        When given, apply the Observation 3 preprocessing first: edges with
        ``p(e) < α`` cannot appear in any α-clique of size ≥ 2 and are
        dropped.  Pass ``None`` to skip (the ablation configuration).
    size_threshold:
        When given, additionally apply the Modani–Dey Shared Neighborhood
        Filtering for cliques of at least this many vertices (LARGE-MULE's
        pre-filter).
    pruning_report:
        Optional :class:`~repro.core.pruning.PruningReport` updated in place
        when ``size_threshold`` is given.
    """
    if size_threshold is not None:
        # The Modani–Dey filter works on an actual UncertainGraph, so the
        # edge pruning materialises an intermediate copy on this path.
        working = graph
        if alpha is not None:
            working = prune_edges_below_alpha(working, alpha)
        working = shared_neighborhood_filter(
            working, size_threshold, report=pruning_report
        )
        return CompiledGraph.from_graph(working)
    # Plain path: fuse the Observation 3 edge filter into the compile pass.
    return CompiledGraph.from_graph(graph, min_probability=alpha)
