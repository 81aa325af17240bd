"""Unit tests for result containers and search statistics."""

from __future__ import annotations

import copy
import dataclasses
import operator
import pickle

import pytest

from repro.core.result import CliqueRecord, EnumerationResult, SearchStatistics, Stopwatch
from repro.uncertain.graph import UncertainGraph


def make_result() -> EnumerationResult:
    records = [
        CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.5),
        CliqueRecord(vertices=frozenset({4, 5}), probability=0.9),
        CliqueRecord(vertices=frozenset({6}), probability=1.0),
    ]
    return EnumerationResult(algorithm="mule", alpha=0.4, cliques=records)


class TestCliqueRecord:
    def test_size(self):
        record = CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.5)
        assert record.size == 3

    def test_as_tuple_sorted(self):
        record = CliqueRecord(vertices=frozenset({3, 1, 2}), probability=0.5)
        assert record.as_tuple() == (1, 2, 3)

    def test_ordering_by_size_then_members(self):
        small = CliqueRecord(vertices=frozenset({9}), probability=1.0)
        large = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        assert small < large

    def test_records_hashable_equality(self):
        a = CliqueRecord(vertices=frozenset({1, 2}), probability=0.5)
        b = CliqueRecord(vertices=frozenset({2, 1}), probability=0.5)
        assert a == b


def repr_key(vertices) -> tuple:
    """The record identity, computed independently of the class."""
    members = tuple(sorted(vertices, key=repr))
    return (len(members), members)


#: Mixed int/float/str labels, including the repr-order corner cases:
#: strings sort before numbers, "-0.0" sorts before "-1", and ``1`` and
#: ``1.0`` are equal members with different reprs.
MIXED = [
    frozenset({"b", 2, 1.5}),
    frozenset({"a", 10, 9.0}),
    frozenset({0, -1}),
    frozenset({-0.0, -1}),
    frozenset({1}),
    frozenset({1.0}),
    frozenset({"x"}),
    frozenset({3, 2, "c", 0.25}),
]


class TestCliqueRecordContract:
    """Equality, hashing, ordering, repr and pickling of a record.

    A record's identity is ``(size, repr-sorted members)``; the
    probability never takes part.  These pins hold whether or not the
    key has been computed before the operation under test.
    """

    @staticmethod
    def records(probability: float = 0.5) -> list[CliqueRecord]:
        return [CliqueRecord(vertices=v, probability=probability) for v in MIXED]

    def test_equality_follows_the_repr_key_and_ignores_probability(self):
        for left in self.records(0.25):
            for right in self.records(0.75):
                expected = repr_key(left.vertices) == repr_key(right.vertices)
                assert (left == right) is expected
                assert (left != right) is (not expected)

    def test_repr_order_corner_cases(self):
        ints = CliqueRecord(vertices=frozenset({0, -1}), probability=0.5)
        floats = CliqueRecord(vertices=frozenset({-0.0, -1}), probability=0.5)
        # Equal sets, but "-0.0" < "-1" reorders the members: not equal.
        assert ints.vertices == floats.vertices
        assert ints != floats
        assert CliqueRecord(frozenset({1}), 0.5) == CliqueRecord(frozenset({1.0}), 0.5)

    def test_hash_is_the_hash_of_the_wrapped_key(self):
        for record in self.records():
            assert hash(record) == hash((repr_key(record.vertices),))
        assert len(set(self.records(0.1)) | set(self.records(0.9))) == len(
            {repr_key(v) for v in MIXED}
        )

    def test_sort_key_attribute(self):
        for record in self.records():
            assert record.sort_key == repr_key(record.vertices)

    def test_sorted_matches_the_key(self):
        # {"x"} is left out: its key does not compare with (1,) (below).
        records = [r for r in self.records() if r.vertices != {"x"}]
        expected = sorted(records, key=lambda r: repr_key(r.vertices))
        assert [r.vertices for r in sorted(records)] == [
            r.vertices for r in expected
        ]

    @pytest.mark.parametrize("op", ["lt", "le", "gt", "ge"])
    def test_rich_comparisons_match_the_key(self, op):
        compare = getattr(operator, op)
        for left in self.records():
            for right in self.records():
                lk, rk = repr_key(left.vertices), repr_key(right.vertices)
                try:
                    expected = compare(lk, rk)
                except TypeError:
                    # Same-size keys with unorderable members (1 vs "x")
                    # raise, for the records as for their keys.
                    with pytest.raises(TypeError):
                        compare(left, right)
                    continue
                assert compare(left, right) is expected

    def test_comparisons_with_other_types(self):
        record = CliqueRecord(vertices=frozenset({1}), probability=0.5)
        assert record != (1, (1,))
        assert not record == frozenset({1})
        with pytest.raises(TypeError):
            record < (1, (1,))  # noqa: B015

    def test_repr_shows_vertices_and_probability_only(self):
        for record in self.records(0.1):
            assert repr(record) == (
                f"CliqueRecord(vertices={record.vertices!r}, probability=0.1)"
            )
            hash(record)  # computing the key must not change the repr
            assert "sort_key" not in repr(record)

    def test_records_are_frozen(self):
        record = CliqueRecord(vertices=frozenset({1}), probability=0.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.probability = 0.25
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.vertices = frozenset({2})

    @pytest.mark.parametrize("touch_key", [False, True], ids=["lazy", "computed"])
    def test_pickle_round_trip(self, touch_key):
        for record in self.records(5e-324):
            if touch_key:
                hash(record)
            clone = pickle.loads(pickle.dumps(record))
            assert clone == record and hash(clone) == hash(record)
            assert clone.vertices == record.vertices
            assert clone.probability == record.probability
            # Equal frozensets need not iterate alike after pickling, so
            # the repr is checked field by field, not against repr(record).
            assert repr(clone) == (
                f"CliqueRecord(vertices={clone.vertices!r}, "
                f"probability={record.probability!r})"
            )
            assert clone.sort_key == record.sort_key
            assert copy.copy(record) == record
            assert copy.deepcopy(record) == record

    def test_pickled_state_carries_the_key(self):
        record = CliqueRecord(vertices=frozenset({"a", 2}), probability=0.5)
        state = record.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2]
        assert state == {
            "vertices": frozenset({"a", 2}),
            "probability": 0.5,
            "sort_key": (2, ("a", 2)),
        }


class TestSearchStatistics:
    def test_defaults_are_zero(self):
        stats = SearchStatistics()
        assert stats.recursive_calls == 0
        assert stats.pruned_branches == 0

    def test_merge_sums_fields(self):
        merged = SearchStatistics(recursive_calls=2, candidates_examined=5).merge(
            SearchStatistics(recursive_calls=3, maximality_checks=1)
        )
        assert merged.recursive_calls == 5
        assert merged.candidates_examined == 5
        assert merged.maximality_checks == 1


class TestStopwatch:
    def test_measures_positive_time(self):
        with Stopwatch() as timer:
            sum(range(1000))
        assert timer.elapsed >= 0.0


class TestEnumerationResult:
    def test_len_iter_contains(self):
        result = make_result()
        assert len(result) == 3
        assert {1, 2, 3} in result
        assert {1, 2} not in result
        assert len(list(iter(result))) == 3

    def test_cliques_sorted_by_size(self):
        result = make_result()
        assert [record.size for record in result.cliques] == [1, 2, 3]

    def test_vertex_sets(self):
        assert frozenset({4, 5}) in make_result().vertex_sets()

    def test_size_histogram(self):
        assert make_result().size_histogram() == {1: 1, 2: 1, 3: 1}

    def test_largest(self):
        assert make_result().largest().vertices == frozenset({1, 2, 3})

    def test_largest_of_empty_result(self):
        empty = EnumerationResult("mule", 0.5, [])
        assert empty.largest() is None
        assert empty.num_cliques == 0

    def test_filter_minimum_size(self):
        filtered = make_result().filter_minimum_size(2)
        assert filtered.num_cliques == 2
        assert all(record.size >= 2 for record in filtered)

    def test_top_k_by_probability(self):
        top = make_result().top_k_by_probability(2)
        assert [record.probability for record in top] == [1.0, 0.9]

    def test_top_k_larger_than_output(self):
        assert len(make_result().top_k_by_probability(10)) == 3

    def test_summary_keys(self):
        summary = make_result().summary()
        assert summary["algorithm"] == "mule"
        assert summary["num_cliques"] == 3

    def test_repr(self):
        assert "mule" in repr(make_result())


class TestVerify:
    def test_verify_accepts_correct_output(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9), (3, 4, 0.4)])
        result = EnumerationResult(
            "manual",
            0.5,
            [
                CliqueRecord(vertices=frozenset({1, 2, 3}), probability=0.9**3),
                CliqueRecord(vertices=frozenset({4}), probability=1.0),
            ],
        )
        result.verify(g)  # should not raise

    def test_verify_rejects_non_maximal_clique(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9)])
        result = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2}), probability=0.9)],
        )
        with pytest.raises(AssertionError):
            result.verify(g)

    def test_verify_rejects_below_threshold(self):
        g = UncertainGraph(edges=[(1, 2, 0.3)])
        result = EnumerationResult(
            "manual",
            0.5,
            [CliqueRecord(vertices=frozenset({1, 2}), probability=0.3)],
        )
        with pytest.raises(AssertionError):
            result.verify(g)
