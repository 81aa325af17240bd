"""The conformance corpus — golden wire-format fixtures.

Every ``fixtures/*.json`` file is a canonically-encoded payload produced by
``make_fixtures.py``.  The tests assert two independent things:

* **byte-stable encoding** — decoding a fixture and re-encoding it through
  the codec reproduces the exact bytes on disk.  Any change to envelope
  shape, key names, canonical formatting or float rendering fails here and
  must come with a deliberate fixture regeneration (i.e. a reviewable
  diff) and, for semantic changes, a schema-version bump;
* **decode equality** — fixtures decode to exactly the objects they were
  built from, pinning the semantics, not just the spelling.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.api import EnumerationRequest
from repro.core.engine import RunControls, StopReason
from repro.errors import ParameterError
from repro.service import codec

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_PATHS = sorted(FIXTURES.glob("*.json"))


def roundtrip(raw: bytes) -> bytes:
    """Decode fixture bytes to an object and re-encode them canonically."""
    payload = codec.decode(raw)
    kind = payload.get("kind")
    if kind == "sweep-request":
        request, alphas = codec.sweep_from_wire(payload)
        return codec.encode(codec.sweep_to_wire(request, alphas))
    if kind == "graph-ref-request":
        ref, request = codec.ref_request_from_wire(payload)
        return codec.encode(codec.ref_request_to_wire(request, graph=ref))
    if kind == "graph-ref-sweep":
        ref, request, alphas = codec.ref_sweep_from_wire(payload)
        return codec.encode(codec.ref_sweep_to_wire(request, alphas, graph=ref))
    if kind == "job-request":
        ref, request, page_size = codec.job_request_from_wire(payload)
        return codec.encode(
            codec.job_request_to_wire(request, graph=ref, page_size=page_size)
        )
    if kind == "job-result-chunk":
        chunk = codec.job_chunk_from_wire(payload)
        return codec.encode(codec.job_chunk_to_wire(chunk))
    if kind == "job-result-page":
        chunk = codec.job_page_from_wire(payload)
        return codec.encode(codec.job_page_to_wire(chunk))
    if kind == "metrics":
        # A metrics snapshot decodes to a plain dict, which the generic
        # to_wire dispatcher (rightly) refuses to guess a kind for.
        return codec.encode(codec.metrics_to_wire(codec.metrics_from_wire(payload)))
    obj = codec.from_wire(payload)
    if kind == "error":
        return codec.encode(codec.error_to_wire(obj))
    return codec.encode(codec.to_wire(obj))


def test_corpus_is_present():
    """The corpus must never silently vanish (glob returning [] passes
    parametrized tests vacuously)."""
    assert len(FIXTURE_PATHS) >= 20


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_byte_stable_roundtrip(path):
    raw = path.read_bytes()
    assert roundtrip(raw) == raw, (
        f"{path.name} no longer round-trips byte-for-byte; if the schema "
        f"changed deliberately, bump SCHEMA_VERSION and regenerate with "
        f"make_fixtures.py"
    )


@pytest.mark.parametrize("path", FIXTURE_PATHS, ids=lambda p: p.stem)
def test_fixture_envelopes_are_versioned(path):
    payload = codec.decode(path.read_bytes())
    assert payload["schema"] in codec.SUPPORTED_SCHEMA_VERSIONS
    assert isinstance(payload["kind"], str)


def _restamp(payload, version):
    """Recursively rewrite every nested envelope's schema version."""
    if isinstance(payload, dict):
        restamped = {k: _restamp(v, version) for k, v in payload.items()}
        if "schema" in restamped and "kind" in restamped:
            restamped["schema"] = version
        return restamped
    if isinstance(payload, list):
        return [_restamp(item, version) for item in payload]
    return payload


@pytest.mark.parametrize(
    "path",
    [p for p in FIXTURE_PATHS if not p.stem.startswith(("graph", "job"))],
    ids=lambda p: p.stem,
)
def test_v1_corpus_decodes_identically_under_v2(path):
    """The v1→v2 compatibility contract: every v1 envelope decodes to the
    same object whether stamped schema 1 (an old client) or schema 2 (a new
    one) — v2 is strictly additive over the v1 kinds."""
    original = codec.decode(path.read_bytes())
    restamped = _restamp(original, codec.SCHEMA_VERSION_V2)

    def load(payload):
        kind = payload.get("kind")
        if kind == "sweep-request":
            return codec.sweep_from_wire(payload)
        obj = codec.from_wire(payload)
        if kind == "error":
            # Exceptions compare by identity; their decoded meaning is
            # (reconstructed type, message).
            return type(obj), str(obj)
        return obj

    assert load(restamped) == load(original)


class TestDecodeEquality:
    """Fixtures decode to exactly the objects they encode."""

    def load(self, name: str):
        return codec.decode((FIXTURES / f"{name}.json").read_bytes())

    def test_request_mule_default(self):
        request = codec.from_wire(self.load("request_mule_default"))
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_request_large_with_controls(self):
        request = codec.from_wire(self.load("request_large_with_controls"))
        assert request == EnumerationRequest(
            algorithm="large",
            alpha=0.25,
            size_threshold=3,
            controls=RunControls(
                max_cliques=100, time_budget_seconds=1.5, check_every_frames=64
            ),
        )

    def test_request_parallel_sharded(self):
        request = codec.from_wire(self.load("request_parallel_sharded"))
        assert request == EnumerationRequest(
            algorithm="fast",
            alpha=0.5,
            workers=4,
            num_shards=8,
            backend="inline",
            execution="parallel",
        )
        assert request.parallel

    def test_request_top_k_threshold_search(self):
        request = codec.from_wire(self.load("request_top_k_threshold_search"))
        assert request == EnumerationRequest(
            algorithm="top_k", k=5, min_size=3, prune_edges=False
        )
        assert request.alpha is None

    def test_outcome_mule_triangle(self):
        outcome = codec.from_wire(self.load("outcome_mule_triangle"))
        assert outcome.algorithm == "mule"
        assert outcome.alpha == 0.5
        assert outcome.records_by_vertices() == {
            frozenset({1, 2, 3}): pytest.approx(0.729, abs=1e-12),
            frozenset({4}): 1.0,
        }
        assert outcome.stop_reason == StopReason.COMPLETED
        assert outcome.statistics.recursive_calls == 9
        assert outcome.report.frames_expanded == 9
        assert outcome.request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_outcome_top_k_ranked(self):
        outcome = codec.from_wire(self.load("outcome_top_k_ranked"))
        assert outcome.algorithm == "top-k"
        assert [sorted(r.vertices) for r in outcome.records] == [[1, 2, 3]]
        assert outcome.request.k == 2

    def test_sweep_request_five_alphas(self):
        request, alphas = codec.sweep_from_wire(
            self.load("sweep_request_five_alphas")
        )
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert alphas == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_records_string_labels(self):
        records = codec.from_wire(self.load("records_string_labels"))
        assert [r.vertices for r in records] == [
            frozenset({"ana", "bob", "cal"}),
            frozenset({"dee"}),
        ]

    def test_error_parameter(self):
        error = codec.from_wire(self.load("error_parameter"))
        assert isinstance(error, ParameterError)
        assert "requires k" in str(error)

    def test_graph_mixed_labels(self):
        from repro.uncertain.graph import UncertainGraph

        graph = codec.from_wire(self.load("graph_mixed_labels"))
        assert graph == UncertainGraph(
            vertices=["isolated"],
            edges=[(1, 2, 0.9), (2, "gene", 1 / 3), (2.5, "gene", 0.0625)],
        )
        # Exact float round-trip of a non-terminating binary fraction.
        assert graph.probability(2, "gene") == 1 / 3

    def test_graph_upload(self):
        upload = codec.from_wire(self.load("graph_upload"))
        assert upload == codec.GraphUpload(
            dataset="ppi", scale=0.05, seed=2015, name="ppi"
        )

    def test_graph_upload_literal(self):
        from tests.service.make_fixtures import fixture_graph

        upload = codec.from_wire(self.load("graph_upload_literal"))
        assert upload.graph == fixture_graph()
        assert upload.dataset is None
        assert upload.name == "triangle"

    def test_graph_ref_request(self):
        ref, request = codec.ref_request_from_wire(self.load("graph_ref_request"))
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)

    def test_graph_ref_sweep(self):
        ref, request, alphas = codec.ref_sweep_from_wire(
            self.load("graph_ref_sweep")
        )
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert alphas == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_graph_info_ppi(self):
        info = codec.from_wire(self.load("graph_info_ppi"))
        assert info.name == "ppi"
        assert info.num_vertices == 3751
        assert info.pinned and info.default

    def test_job_request_paged(self):
        ref, request, page_size = codec.job_request_from_wire(
            self.load("job_request_paged")
        )
        assert ref == "ppi"
        assert request == EnumerationRequest(algorithm="mule", alpha=0.5)
        assert page_size == 128

    def test_job_status_running(self):
        status = codec.from_wire(self.load("job_status_running"))
        assert status == codec.JobStatus(
            id="job-000001",
            state="running",
            cliques_emitted=12,
            frames_expanded=40,
            elapsed_seconds=0.03125,
            records=12,
        )

    def test_job_status_failed(self):
        status = codec.from_wire(self.load("job_status_failed"))
        assert status.state == "failed"
        assert isinstance(status.error, ParameterError)
        assert "requires k" in str(status.error)

    def test_job_result_chunk_page(self):
        chunk = codec.from_wire(self.load("job_result_chunk_page"))
        assert chunk.job == "job-000002"
        assert chunk.seq == 0
        assert not chunk.final
        assert chunk.summary is None and chunk.error is None
        assert {r.vertices for r in chunk.records} == {
            frozenset({1, 2, 3}),
            frozenset({4}),
        }

    def test_job_result_chunk_final(self):
        chunk = codec.from_wire(self.load("job_result_chunk_final"))
        assert chunk.final
        assert chunk.error is None
        assert chunk.records == ()
        summary = chunk.summary
        assert summary.algorithm == "mule"
        assert summary.records == []
        assert summary.report.stop_reason == StopReason.COMPLETED
        assert summary.request == EnumerationRequest(algorithm="mule", alpha=0.5)

    @pytest.mark.parametrize("which", ["page", "final"])
    def test_job_result_page_matches_its_chunk_twin(self, which):
        # Same keys, same decoded chunk; only the record spelling differs.
        page = codec.from_wire(self.load(f"job_result_page_{which}"))
        chunk = codec.from_wire(self.load(f"job_result_chunk_{which}"))
        assert page._replace(summary=None) == chunk._replace(summary=None)
        assert [(r.vertices, r.probability) for r in page.records] == [
            (r.vertices, r.probability) for r in chunk.records
        ]
        if which == "final":
            page.summary.assert_matches(chunk.summary)
        raw = self.load(f"job_result_page_{which}")
        assert set(raw) == set(self.load(f"job_result_chunk_{which}"))
        assert all(
            isinstance(r, list) and len(r) == 2 for r in raw["records"]
        )

    def test_job_list_mixed(self):
        statuses = codec.from_wire(self.load("job_list_mixed"))
        assert [s.id for s in statuses] == ["job-000001", "job-000002"]
        assert [s.state for s in statuses] == ["running", "done"]

    def test_metrics_snapshot(self):
        from tests.service.make_fixtures import metrics_snapshot

        snapshot = codec.metrics_from_wire(self.load("metrics_snapshot"))
        assert snapshot == metrics_snapshot()
        series = snapshot["histograms"][
            "http_request_seconds{endpoint=/v1/stats}"
        ]
        # Exact binary fractions: the fixture builder observed 1/32, 1/8
        # and 1/2 into buckets (1/16, 1/4, 1).
        assert series["counts"] == [1, 1, 1, 0]
        assert series["sum"] == 0.65625
