"""Result containers for α-maximal clique enumeration.

Every enumerator in :mod:`repro.core` returns an
:class:`EnumerationResult`, which records the emitted cliques together with
search-effort counters (recursive calls, candidate extensions examined) and
wall-clock time.  The counters make the Figure 1 / Figure 4 style analyses
("runtime is proportional to output size", "MULE explores far fewer states
than DFS-NOIP") reproducible without relying solely on noisy timings.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Hashable, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property

from ..uncertain.graph import UncertainGraph

__all__ = [
    "CliqueRecord",
    "EnumerationResult",
    "SearchStatistics",
    "Stopwatch",
    "rank_by_probability",
]

Vertex = Hashable
Clique = frozenset


@dataclass(frozen=True, eq=False)
class CliqueRecord:
    """One emitted α-maximal clique with its exact clique probability.

    A record's identity is ``(size, repr-sorted members)``: equality,
    hashing and ordering use :attr:`sort_key` and ignore the probability,
    so result listings are stable.  The key is built on first use and
    cached, so records that are only streamed or encoded never sort.
    """

    vertices: Clique
    probability: float

    @cached_property
    def sort_key(self) -> tuple:
        """``(size, members sorted by repr)`` — the record's identity."""
        members = tuple(sorted(self.vertices, key=repr))
        return (len(members), members)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key == other.sort_key  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((self.sort_key,))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key < other.sort_key  # type: ignore[attr-defined]

    def __le__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key <= other.sort_key  # type: ignore[attr-defined]

    def __gt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key > other.sort_key  # type: ignore[attr-defined]

    def __ge__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key >= other.sort_key  # type: ignore[attr-defined]

    def __getstate__(self) -> dict:
        # Always carry the key, so a record's pickled state does not depend
        # on whether anything compared it first.
        self.sort_key
        return self.__dict__

    @property
    def size(self) -> int:
        """Number of vertices in the clique."""
        return len(self.vertices)

    def as_tuple(self) -> tuple:
        """Return the sorted vertex tuple (useful for deterministic output)."""
        try:
            return tuple(sorted(self.vertices))
        except TypeError:
            return tuple(sorted(self.vertices, key=repr))


def rank_by_probability(records: Iterable[CliqueRecord], k: int) -> list[CliqueRecord]:
    """Return the ``k`` records of highest clique probability.

    Ties break by larger size, then lexicographically by vertex tuple, so
    the ranking is deterministic.  This is the one ranking used everywhere
    top-k order matters (:meth:`EnumerationResult.top_k_by_probability` and
    the session API's ``top_k`` dispatch), keeping their outputs identical
    by construction.
    """
    ranked = sorted(records, key=lambda r: (-r.probability, -r.size, r.as_tuple()))
    return ranked[:k]


@dataclass
class SearchStatistics:
    """Counters describing the work performed by an enumeration run."""

    recursive_calls: int = 0
    candidates_examined: int = 0
    probability_multiplications: int = 0
    maximality_checks: int = 0
    pruned_branches: int = 0

    def merge(self, other: "SearchStatistics") -> "SearchStatistics":
        """Return a new statistics object with component-wise sums."""
        return SearchStatistics(
            recursive_calls=self.recursive_calls + other.recursive_calls,
            candidates_examined=self.candidates_examined + other.candidates_examined,
            probability_multiplications=(
                self.probability_multiplications + other.probability_multiplications
            ),
            maximality_checks=self.maximality_checks + other.maximality_checks,
            pruned_branches=self.pruned_branches + other.pruned_branches,
        )


class Stopwatch:
    """A tiny context manager measuring elapsed wall-clock seconds."""

    def __init__(self) -> None:
        self.elapsed = 0.0
        self._start = 0.0

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = time.perf_counter() - self._start


class EnumerationResult:
    """The outcome of an α-maximal clique enumeration run.

    Attributes
    ----------
    algorithm:
        Name of the enumerator that produced the result (``"mule"``,
        ``"dfs-noip"``, ``"large-mule"``, ``"brute-force"``, ...).
    alpha:
        The probability threshold used.
    cliques:
        The emitted cliques as :class:`CliqueRecord` objects (sorted).
    statistics:
        Search-effort counters.
    elapsed_seconds:
        Wall-clock enumeration time.
    stop_reason:
        ``"completed"`` for a full enumeration, or the
        :class:`~repro.core.engine.controls.StopReason` that truncated the
        run (``"max-cliques"``, ``"time-budget"``).
    """

    def __init__(
        self,
        algorithm: str,
        alpha: float,
        cliques: Iterable[CliqueRecord],
        statistics: SearchStatistics | None = None,
        elapsed_seconds: float = 0.0,
        stop_reason: str = "completed",
    ) -> None:
        self.algorithm = algorithm
        self.alpha = alpha
        self.cliques: list[CliqueRecord] = sorted(cliques)
        self.statistics = statistics or SearchStatistics()
        self.elapsed_seconds = elapsed_seconds
        self.stop_reason = stop_reason

    @property
    def truncated(self) -> bool:
        """True when run controls stopped the enumeration before completion."""
        return self.stop_reason != "completed"

    # ------------------------------------------------------------------ #
    # Container protocol
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self) -> Iterator[CliqueRecord]:
        return iter(self.cliques)

    def __contains__(self, vertices: Iterable[Vertex]) -> bool:
        target = frozenset(vertices)
        return any(record.vertices == target for record in self.cliques)

    # ------------------------------------------------------------------ #
    # Views
    # ------------------------------------------------------------------ #
    @property
    def num_cliques(self) -> int:
        """Number of α-maximal cliques found (the paper's "output size")."""
        return len(self.cliques)

    def vertex_sets(self) -> set[Clique]:
        """Return the emitted cliques as a set of frozensets."""
        return {record.vertices for record in self.cliques}

    def size_histogram(self) -> dict[int, int]:
        """Return a mapping clique size → number of cliques of that size."""
        counts = Counter(record.size for record in self.cliques)
        return dict(sorted(counts.items()))

    def largest(self) -> CliqueRecord | None:
        """Return a largest clique record, or ``None`` when no cliques exist."""
        return max(self.cliques, key=lambda r: r.size, default=None)

    def filter_minimum_size(self, size: int) -> "EnumerationResult":
        """Return a new result containing only cliques with at least ``size`` vertices."""
        return EnumerationResult(
            algorithm=self.algorithm,
            alpha=self.alpha,
            cliques=[r for r in self.cliques if r.size >= size],
            statistics=self.statistics,
            elapsed_seconds=self.elapsed_seconds,
            stop_reason=self.stop_reason,
        )

    def top_k_by_probability(self, k: int) -> list[CliqueRecord]:
        """Return the ``k`` cliques of highest clique probability (ties by size)."""
        return rank_by_probability(self.cliques, k)

    # ------------------------------------------------------------------ #
    # Verification
    # ------------------------------------------------------------------ #
    def verify(self, graph: UncertainGraph) -> None:
        """Raise ``AssertionError`` unless every emitted clique is α-maximal.

        The check recomputes every clique probability from scratch and tests
        extension by all outside vertices; it is O(output · n · |C|) and is
        intended for tests and sanity checks, not production use.
        """
        emitted = self.vertex_sets()
        assert len(emitted) == len(self.cliques), "duplicate cliques in output"
        for record in self.cliques:
            probability = graph.clique_probability(record.vertices)
            assert probability >= self.alpha, (
                f"{set(record.vertices)} has probability {probability} < α={self.alpha}"
            )
            assert abs(probability - record.probability) <= 1e-9 * max(1.0, probability), (
                f"recorded probability {record.probability} differs from exact {probability}"
            )
            for v in graph.vertices():
                if v in record.vertices:
                    continue
                extended = graph.clique_probability(set(record.vertices) | {v})
                assert extended < self.alpha, (
                    f"{set(record.vertices)} is not maximal: adding {v!r} keeps "
                    f"probability {extended} ≥ α={self.alpha}"
                )

    def summary(self) -> dict[str, object]:
        """Return a small dict suitable for tabular reporting in the benches."""
        return {
            "algorithm": self.algorithm,
            "alpha": self.alpha,
            "num_cliques": self.num_cliques,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "recursive_calls": self.statistics.recursive_calls,
            "candidates_examined": self.statistics.candidates_examined,
        }

    def __repr__(self) -> str:
        return (
            f"EnumerationResult(algorithm={self.algorithm!r}, alpha={self.alpha}, "
            f"num_cliques={self.num_cliques}, elapsed={self.elapsed_seconds:.4f}s)"
        )
