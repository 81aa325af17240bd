"""The async job endpoints end to end — submit, poll, stream, cancel.

These run a real :class:`MiningServer` on an ephemeral port.  The
headline assertions:

* a job streamed over NDJSON reassembles **bit-identically**
  (``assert_matches``) to a local synchronous run — including under
  mid-stream cancellation, where backpressure makes the truncation point
  deterministic;
* status polls are monotonic in the progress counters;
* ``RemoteJob.iter_results`` survives dropped connections without losing
  or duplicating records (cursor resume), and gives up cleanly on a
  stream that stalls;
* control-plane calls (health, stats, status polls, cancel) use the
  short :data:`DEFAULT_CONTROL_TIMEOUT_SECONDS`, never the 300 s
  data-plane default;
* a draining server answers every new submission with a 503
  ``ServiceError`` envelope while read-only endpoints keep working;
* packed ``job-result-page`` streams (asked for with an ``Accept``
  header) and enveloped ``job-result-chunk`` streams reassemble to the
  same outcome, and a client without the header still gets the
  enveloped lines.
"""

from __future__ import annotations

import json
import random
import time
import urllib.request

import pytest

from repro.api import EnumerationRequest, MiningSession
from repro.core.engine import RunControls, StopReason
from repro.core.result import CliqueRecord
from repro.errors import (
    FormatError,
    JobError,
    JobNotFoundError,
    ServiceError,
)
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteJob, RemoteSession, codec
from repro.service import client as client_module
from repro.service import server as server_module
from repro.service.client import (
    DEFAULT_CONTROL_TIMEOUT_SECONDS,
    DEFAULT_TIMEOUT_SECONDS,
)
from repro.service.jobs import JobState
from repro.uncertain.graph import UncertainGraph

# 85 records at alpha=0.2 — more than one page buffer (64 pages of one
# record each), so an unconsumed page_size=1 job deterministically parks
# its producer mid-run.
REQUEST = EnumerationRequest(algorithm="mule", alpha=0.2)
PAGE_BUFFER = 64  # DEFAULT_MAX_PENDING_PAGES, the submit-path bound
DEADLINE = 10.0


@pytest.fixture(scope="module")
def graph():
    return random_uncertain_graph(20, 0.5, rng=random.Random(7))


@pytest.fixture(scope="module")
def serial_outcome(graph):
    return MiningSession(graph).enumerate(REQUEST)


@pytest.fixture()
def server(graph):
    with MiningServer(graph, port=0) as srv:
        yield srv


@pytest.fixture()
def remote(server):
    return RemoteSession(server.url)


def poll_until(job: RemoteJob, state: str) -> codec.JobStatus:
    deadline = time.monotonic() + DEADLINE
    while True:
        status = job.status()
        if status.state == state:
            return status
        if time.monotonic() > deadline:
            pytest.fail(f"job {job.id} stuck in {status.state!r}")
        time.sleep(0.005)


class TestSubmitAndStream:
    def test_wait_matches_local_run(self, remote, serial_outcome):
        job = remote.submit(REQUEST)
        outcome = job.wait()
        outcome.assert_matches(serial_outcome)

    def test_streamed_chunks_reassemble_bit_identically(
        self, remote, serial_outcome
    ):
        job = remote.submit(REQUEST, page_size=7)
        streamed = list(job.iter_results())
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_status_reflects_completion(self, remote, serial_outcome):
        job = remote.submit(REQUEST)
        status = poll_until(job, JobState.DONE)
        assert status.id == job.id
        assert status.records == len(serial_outcome.records)
        assert status.cliques_emitted == len(serial_outcome.records)
        assert status.error is None

    def test_progress_polls_are_monotonic(self, remote):
        job = remote.submit(REQUEST)
        statuses = [job.status()]
        while statuses[-1].state not in JobState.TERMINAL:
            statuses.append(job.status())
        emitted = [s.records for s in statuses]
        frames = [s.frames_expanded for s in statuses]
        assert emitted == sorted(emitted)
        assert frames == sorted(frames)
        assert all(s.state in codec.JOB_STATES for s in statuses)

    def test_jobs_listing(self, remote):
        first = remote.submit(REQUEST)
        first.wait()
        second = remote.submit(REQUEST)
        second.wait()
        listed = remote.jobs()
        assert [s.id for s in listed] == [first.id, second.id]
        assert all(s.state == JobState.DONE for s in listed)

    def test_stats_exposes_job_counts(self, remote):
        job = remote.submit(REQUEST)
        job.wait()
        jobs = remote.stats()["jobs"]
        assert jobs["done"] == 1
        assert set(jobs) == set(codec.JOB_STATES)


class TestCancellation:
    def test_mid_run_cancel_truncates_deterministically(
        self, remote, serial_outcome
    ):
        """Backpressure parks the unconsumed producer at exactly
        ``PAGE_BUFFER`` records; cancelling there yields a bit-exact
        prefix with ``cancelled`` provenance."""
        job = remote.submit(
            EnumerationRequest(
                algorithm="mule",
                alpha=0.2,
                controls=RunControls(check_every_frames=1),
            ),
            page_size=1,
        )
        deadline = time.monotonic() + DEADLINE
        while job.status().records < PAGE_BUFFER:
            assert time.monotonic() < deadline, "producer never filled buffer"
            time.sleep(0.005)
        assert job.status().state == JobState.RUNNING

        # DELETE acknowledges the request; the cooperative producer may
        # need one more wake-up to settle, so poll for the guarantee.
        status = job.cancel()
        assert status.state in (JobState.RUNNING, JobState.CANCELLED)
        poll_until(job, JobState.CANCELLED)

        streamed = list(job.iter_results())
        assert len(streamed) == PAGE_BUFFER
        outcome = job.outcome()
        assert outcome.stop_reason == StopReason.CANCELLED
        assert outcome.report.cliques_emitted == PAGE_BUFFER
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability)
            for r in serial_outcome.records[:PAGE_BUFFER]
        ]

    def test_cancel_done_job_leaves_it_done(self, remote):
        job = remote.submit(REQUEST)
        job.wait()
        status = job.cancel()
        assert status.state == JobState.DONE

    def test_delete_unknown_job_is_404(self, remote):
        with pytest.raises(JobNotFoundError):
            remote.job("job-999999").cancel()

    def test_status_unknown_job_is_404(self, remote):
        with pytest.raises(JobNotFoundError):
            remote.job("job-999999").status()


class TestCursors:
    def test_cursor_skips_acknowledged_pages(self, remote, serial_outcome):
        job = remote.submit(REQUEST, page_size=7)
        poll_until(job, JobState.DONE)
        job._cursor = 5  # re-attach mid-stream: pages 0–4 already consumed
        tail = list(job.iter_results())
        assert [(r.vertices, r.probability) for r in tail] == [
            (r.vertices, r.probability)
            for r in serial_outcome.records[5 * 7 :]
        ]

    def test_released_cursor_rejected_through_the_wire(self, remote):
        job = remote.submit(REQUEST, page_size=7)
        list(job.iter_results())
        fresh = remote.job(job.id)
        with pytest.raises(JobError, match="released"):
            list(fresh.iter_results())

    def test_malformed_cursor_is_a_format_error(self, server, remote):
        job = remote.submit(REQUEST)
        job.wait()
        with pytest.raises(FormatError):
            remote._open_stream(f"/v2/jobs/{job.id}/results?cursor=abc")
        with pytest.raises(FormatError):
            remote._open_stream(f"/v2/jobs/{job.id}/results?page=3")


class _CannedStreams:
    """A fake ``_HttpClient`` serving canned NDJSON connections.

    Each connection is a list of encoded chunk lines; a ``drop`` marker
    raises mid-iteration like a severed socket.  Connections are handed
    out in order; the cursor of every open is recorded so tests can pin
    the resume sequence.
    """

    DROP = object()

    def __init__(self, connections, states=()):
        self._connections = list(connections)
        self._states = list(states)  # answers to status polls, in order
        self.opened_at = []
        self.status_polls = 0

    def _open_stream(self, path: str, *, timeout: float | None = None):
        self.opened_at.append(int(path.rsplit("cursor=", 1)[1]))
        if not self._connections:
            raise AssertionError("no more canned connections")
        return _CannedResponse(self._connections.pop(0))

    def _get(self, path: str, *, timeout: float | None = None):
        # A status poll; state defaults to running once the canned
        # sequence is exhausted.
        self.status_polls += 1
        state = self._states.pop(0) if self._states else JobState.RUNNING
        return codec.job_status_to_wire(
            codec.JobStatus(
                id=path.rsplit("/", 1)[1],
                state=state,
                cliques_emitted=0,
                frames_expanded=0,
                elapsed_seconds=0.0,
                records=0,
            )
        )


class _CannedResponse:
    def __init__(self, lines):
        self._lines = lines

    def __iter__(self):
        for line in self._lines:
            if line is _CannedStreams.DROP:
                raise OSError("connection dropped")
            yield line

    def close(self):
        pass


def chunk_lines(
    job_id: str, outcome, page_size: int, *, packed: bool = False
) -> list[bytes]:
    """Encode an outcome as the NDJSON lines a server would stream."""
    to_wire = codec.job_page_to_wire if packed else codec.job_chunk_to_wire
    records = outcome.records
    pages = [
        records[i : i + page_size] for i in range(0, len(records), page_size)
    ]
    summary = codec.job_summary_from_wire(codec.job_summary_to_wire(outcome))
    lines = [
        codec.encode(
            to_wire(
                codec.JobChunk(
                    job=job_id, seq=seq, records=tuple(page), final=False
                )
            )
        )
        for seq, page in enumerate(pages)
    ]
    lines.append(
        codec.encode(
            to_wire(
                codec.JobChunk(
                    job=job_id,
                    seq=len(pages),
                    records=(),
                    final=True,
                    summary=summary,
                )
            )
        )
    )
    return lines


class TestClientReconnect:
    """RemoteJob's resume logic against deterministic fake connections."""

    def test_drop_mid_stream_resumes_without_loss(self, serial_outcome):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        fake = _CannedStreams(
            [
                lines[:3] + [_CannedStreams.DROP],  # dies after 3 chunks
                lines[3:],  # resumed connection serves the rest
            ]
        )
        job = RemoteJob(fake, "job-000042")
        streamed = list(job.iter_results())
        assert fake.opened_at == [0, 3]
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_drop_mid_line_does_not_advance_the_cursor(self, serial_outcome):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        truncated = lines[1][: len(lines[1]) // 2]
        fake = _CannedStreams(
            [
                [lines[0], truncated],  # chunk 1 cut off mid-bytes
                lines[1:],
            ]
        )
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="malformed"):
            list(job.iter_results())

    def test_stalled_stream_gives_up(self, serial_outcome, monkeypatch):
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        fake = _CannedStreams([[_CannedStreams.DROP]] * 10)
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        assert len(fake.opened_at) == 5

    def test_queued_job_slow_start_is_not_stalled(
        self, serial_outcome, monkeypatch
    ):
        """A job parked in the submit queue must not burn the stall budget.

        Regression test: the stream of a queued job legitimately closes
        with nothing to deliver — reconnecting used to count each of
        those empty streams as a stall (with zero delay between them), so
        any job queued behind a few seconds of work died with a spurious
        ``stalled`` error before it ever started.
        """
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        lines = chunk_lines("job-000042", serial_outcome, page_size=7)
        empty_streams = 2 * client_module._MAX_STALLED_RECONNECTS
        fake = _CannedStreams(
            [[]] * empty_streams + [lines],
            states=[JobState.QUEUED] * empty_streams,
        )
        job = RemoteJob(fake, "job-000042")
        streamed = list(job.iter_results())
        assert fake.status_polls == empty_streams
        assert len(fake.opened_at) == empty_streams + 1
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_stall_budget_starts_once_running_observed(
        self, serial_outcome, monkeypatch
    ):
        """Queued polls are free; the budget starts at the first running."""
        monkeypatch.setattr(client_module, "_RECONNECT_BACKOFF_SECONDS", 1e-6)
        queued = 4
        fake = _CannedStreams(
            [[]] * 20,
            states=[JobState.QUEUED] * queued,  # then running forever
        )
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        # 4 free reconnects while queued + the full stall budget after.
        assert len(fake.opened_at) == queued + client_module._MAX_STALLED_RECONNECTS
        # Once running was observed the client stops polling status.
        assert fake.status_polls == queued + 1

    def test_idle_reconnects_back_off_exponentially(
        self, serial_outcome, monkeypatch
    ):
        delays: list[float] = []
        monkeypatch.setattr(client_module.time, "sleep", delays.append)
        fake = _CannedStreams([[_CannedStreams.DROP]] * 10)
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="stalled"):
            list(job.iter_results())
        base = client_module._RECONNECT_BACKOFF_SECONDS
        assert delays == [base, base * 2, base * 4, base * 8]

    def test_foreign_chunk_is_rejected(self, serial_outcome):
        lines = chunk_lines("job-000099", serial_outcome, page_size=7)
        fake = _CannedStreams([lines])
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="job-000099"):
            list(job.iter_results())


class TestTimeouts:
    """Control-plane calls must not inherit the 300 s data-plane default."""

    def test_per_call_timeout_routing(self, server, remote, monkeypatch):
        captured = []
        real = urllib.request.urlopen

        def spy(request, timeout=None):
            captured.append(timeout)
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", spy)

        remote.health()
        remote.stats()
        job = remote.submit(REQUEST)
        job.status()
        job.wait()
        job.cancel()
        remote.jobs()
        remote.enumerate(REQUEST)

        control, data = DEFAULT_CONTROL_TIMEOUT_SECONDS, DEFAULT_TIMEOUT_SECONDS
        # health, stats, submit, status, cancel, jobs — everything except
        # the result stream and the synchronous enumerate.
        assert captured.count(control) == 6
        assert captured.count(data) == 2
        assert captured[-1] == data

    def test_explicit_timeout_wins(self, server, remote, monkeypatch):
        captured = []
        real = urllib.request.urlopen

        def spy(request, timeout=None):
            captured.append(timeout)
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", spy)
        remote.health(timeout=1.5)
        remote.stats(timeout=2.5)
        assert captured == [1.5, 2.5]


class TestDrain:
    def test_draining_server_rejects_submissions_with_503(
        self, server, remote
    ):
        done = remote.submit(REQUEST)
        done.wait()
        server.drain()
        assert server.draining

        with pytest.raises(ServiceError, match="draining"):
            remote.submit(REQUEST)
        with pytest.raises(ServiceError, match="draining"):
            remote.enumerate(REQUEST)

        # Read-only endpoints keep answering while the server drains.
        assert remote.health()["status"] == "ok"
        assert done.status().state == JobState.DONE

    def test_close_unparks_blocked_producers(self, graph):
        server = MiningServer(graph, port=0).start()
        remote = RemoteSession(server.url)
        parked = remote.submit(REQUEST, page_size=1)  # parks at the buffer
        deadline = time.monotonic() + DEADLINE
        while parked.status().records < PAGE_BUFFER:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        # close() drains: the parked producer is woken to fail, so this
        # returns instead of deadlocking on scheduler shutdown.
        server.close()
        assert parked.id in repr(parked)
        with pytest.raises(ServiceError):
            remote.health(timeout=2.0)  # the socket really is gone


def mixed_label_graph() -> UncertainGraph:
    """The module graph relabeled to int/float/str vertices, plus a
    triangle whose cliques carry the extreme probabilities 5e-324, 0.1
    and 1.0."""
    base = random_uncertain_graph(20, 0.5, rng=random.Random(7))

    def label(v):
        return (v, v + 0.5, f"v{v}")[v % 3]

    edges = [(label(u), label(v), p) for u, v, p in base.edges()]
    edges += [(100, "x", 5e-324), ("x", 2.5, 0.1), (2.5, 100, 1.0)]
    return UncertainGraph(edges=edges)


#: α low enough that the 5e-324 edge is an α-clique of its own.
MIXED_REQUEST = EnumerationRequest(algorithm="mule", alpha=5e-324)


def read_stream(url: str, job_id: str, accept: str | None = None):
    """GET a job's results; return (Content-Type, raw NDJSON lines)."""
    headers = {} if accept is None else {"Accept": accept}
    request = urllib.request.Request(
        f"{url}/v2/jobs/{job_id}/results", headers=headers
    )
    with urllib.request.urlopen(request, timeout=DEADLINE) as response:
        lines = [line for line in response if line.strip()]
        return response.headers["Content-Type"], lines


def reassemble(lines: list[bytes]):
    """Rebuild an outcome from one complete stream's lines."""
    chunks = [codec.job_stream_line_from_wire(codec.decode(line)) for line in lines]
    assert [c.seq for c in chunks] == list(range(len(chunks)))
    assert chunks[-1].final and not any(c.final for c in chunks[:-1])
    outcome = chunks[-1].summary
    outcome.records = [r for c in chunks[:-1] for r in c.records]
    return outcome


class TestPackedPages:
    """Negotiated ``job-result-page`` streams against enveloped ones."""

    @pytest.fixture()
    def mixed(self):
        graph = mixed_label_graph()
        with MiningServer(graph, port=0) as srv:
            yield srv, MiningSession(graph).enumerate(MIXED_REQUEST)

    def test_packed_and_enveloped_streams_reassemble_identically(self, mixed):
        server, serial = mixed
        probabilities = {r.probability for r in serial.records}
        assert {5e-324, 0.1, 1.0} <= probabilities
        remote = RemoteSession(server.url)
        enveloped = remote.submit(MIXED_REQUEST, page_size=7)
        packed = remote.submit(MIXED_REQUEST, page_size=7)
        kind, old_lines = read_stream(server.url, enveloped.id)
        packed_kind, new_lines = read_stream(
            server.url, packed.id, codec.PACKED_RECORDS_MEDIA_TYPE
        )
        assert kind == "application/x-ndjson"
        assert packed_kind == codec.PACKED_RECORDS_MEDIA_TYPE
        assert {json.loads(line)["kind"] for line in old_lines} == {
            "job-result-chunk"
        }
        assert {json.loads(line)["kind"] for line in new_lines} == {
            "job-result-page"
        }
        from_old, from_new = reassemble(old_lines), reassemble(new_lines)
        from_old.assert_matches(serial)
        from_new.assert_matches(serial)
        from_new.assert_matches(from_old)
        assert [(r.vertices, r.probability) for r in from_new.records] == [
            (r.vertices, r.probability) for r in serial.records
        ]
        assert sum(map(len, new_lines)) < sum(map(len, old_lines))

    def test_remote_job_streams_packed_pages(self, mixed, monkeypatch):
        server, serial = mixed
        accepts = []
        real = urllib.request.urlopen

        def spy(request, timeout=None):
            accepts.append(request.get_header("Accept"))
            return real(request, timeout=timeout)

        monkeypatch.setattr(urllib.request, "urlopen", spy)
        job = RemoteSession(server.url).submit(MIXED_REQUEST, page_size=7)
        job.wait().assert_matches(serial)
        # submit, then one results stream asking for packed pages.
        assert accepts == [None, codec.PACKED_RECORDS_MEDIA_TYPE]

    def test_request_without_header_gets_byte_identical_chunk_lines(self, mixed):
        server, serial = mixed
        job = RemoteSession(server.url).submit(MIXED_REQUEST, page_size=7)
        _, lines = read_stream(server.url, job.id)
        # Every line is exactly what the enveloped encoder produces.
        for line in lines:
            chunk = codec.job_chunk_from_wire(codec.decode(line))
            assert codec.encode(codec.job_chunk_to_wire(chunk)) == line
        reassemble(lines).assert_matches(serial)

    @pytest.mark.parametrize(
        "accept, packed",
        [
            ("application/x-ndjson; records=packed", True),
            ("application/x-ndjson;records=packed", True),
            ("application/json, Application/X-NDJSON; Records=Packed", True),
            ("application/x-ndjson; q=0.9; records=packed", True),
            ("application/x-ndjson", False),
            ("application/json; records=packed", False),
            ("*/*", False),
            ("", False),
        ],
    )
    def test_accept_negotiation(self, accept, packed):
        assert server_module._wants_packed_records(accept) is packed

    def test_drop_mid_stream_resumes_in_packed_mode(self, serial_outcome):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7, packed=True)
        fake = _CannedStreams(
            [
                lines[:3] + [_CannedStreams.DROP],  # dies after 3 pages
                lines[3:],  # resumed connection serves the rest
            ]
        )
        job = RemoteJob(fake, "job-000042")
        streamed = list(job.iter_results())
        assert fake.opened_at == [0, 3]
        assert [(r.vertices, r.probability) for r in streamed] == [
            (r.vertices, r.probability) for r in serial_outcome.records
        ]
        job.outcome().assert_matches(serial_outcome)

    def test_mixed_kinds_on_one_stream_decode(self, serial_outcome):
        # A resumed connection may reach a different server generation.
        old = chunk_lines("job-000042", serial_outcome, page_size=7)
        new = chunk_lines("job-000042", serial_outcome, page_size=7, packed=True)
        fake = _CannedStreams([old[:2] + [_CannedStreams.DROP], new[2:]])
        job = RemoteJob(fake, "job-000042")
        list(job.iter_results())
        job.outcome().assert_matches(serial_outcome)


class TestSequenceGaps:
    """A chunk away from the cursor fails the stream (no silent loss)."""

    @pytest.mark.parametrize("packed", [False, True], ids=["chunk", "page"])
    @pytest.mark.parametrize(
        "order",
        [[0, 2, 3], [0, 1, 1, 2], [1, 2]],
        ids=["skip", "repeat", "late-start"],
    )
    def test_gap_raises(self, serial_outcome, packed, order):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7, packed=packed)
        job = RemoteJob(_CannedStreams([]), "job-000042")
        with pytest.raises(ServiceError, match="skipped or repeated"):
            list(job._consume(_CannedResponse([lines[i] for i in order])))

    @pytest.mark.parametrize("packed", [False, True], ids=["chunk", "page"])
    def test_final_chunk_past_the_cursor_raises(self, serial_outcome, packed):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7, packed=packed)
        job = RemoteJob(_CannedStreams([]), "job-000042")
        with pytest.raises(ServiceError, match="skipped or repeated"):
            list(job._consume(_CannedResponse(lines[:2] + lines[-1:])))
        assert job._summary is None

    @pytest.mark.parametrize("packed", [False, True], ids=["chunk", "page"])
    def test_gap_is_not_retried_as_a_drop(self, serial_outcome, packed):
        lines = chunk_lines("job-000042", serial_outcome, page_size=7, packed=packed)
        fake = _CannedStreams([[lines[0], lines[2]]])
        job = RemoteJob(fake, "job-000042")
        with pytest.raises(ServiceError, match="skipped or repeated"):
            list(job.iter_results())
        assert fake.opened_at == [0]


class TestPackedDecoderStrictness:
    """The packed decoder keeps every check of the enveloped one."""

    @staticmethod
    def page(records, **extra) -> dict:
        payload = {
            "schema": 2,
            "kind": "job-result-page",
            "job": "job-000001",
            "seq": 0,
            "records": records,
            "final": False,
            "summary": None,
            "error": None,
        }
        payload.update(extra)
        return payload

    def test_valid_page_decodes(self):
        chunk = codec.job_page_from_wire(
            self.page([[[1, 2.5, "a"], 0.5], [[3], 1]])
        )
        assert [(r.vertices, r.probability) for r in chunk.records] == [
            (frozenset({1, 2.5, "a"}), 0.5),
            (frozenset({3}), 1.0),
        ]
        assert type(chunk.records[1].probability) is float

    @pytest.mark.parametrize(
        "record",
        [
            [[True, 2], 0.5],  # bool vertex
            [[1, None], 0.5],  # null vertex
            [[1, [2]], 0.5],  # nested vertex
            [[1, 2], True],  # bool probability
            [[1, 2], None],  # null probability
            [[1, 2], "0.5"],  # string probability
            [[1, 1], 0.5],  # duplicate vertex
            [[1, 1.0], 0.5],  # duplicate vertex across types
            [[1, 2]],  # pair arity: too short
            [[1, 2], 0.5, 0.5],  # pair arity: too long
            [],  # pair arity: empty
            {"vertices": [1, 2], "probability": 0.5},  # not a pair
            [{"1": 2}, 0.5],  # vertices not a list
        ],
        ids=[
            "bool-vertex",
            "null-vertex",
            "list-vertex",
            "bool-probability",
            "null-probability",
            "str-probability",
            "duplicate-vertex",
            "duplicate-int-float",
            "short-pair",
            "long-pair",
            "empty-pair",
            "dict-record",
            "dict-vertices",
        ],
    )
    def test_bad_record_is_rejected(self, record):
        with pytest.raises(FormatError):
            codec.job_page_from_wire(self.page([record]))

    @pytest.mark.parametrize(
        "vertices, probability",
        [([True, 2], 0.5), ([1, 2], True), ([1, 1], 0.5), ([1, None], 0.5)],
    )
    def test_enveloped_decoder_rejects_the_same(self, vertices, probability):
        record = {
            "schema": 1,
            "kind": "clique-record",
            "vertices": vertices,
            "probability": probability,
        }
        with pytest.raises(FormatError):
            codec.job_chunk_from_wire(
                dict(self.page([record]), kind="job-result-chunk")
            )

    def test_unknown_and_missing_keys_are_rejected(self):
        with pytest.raises(FormatError, match="unknown keys"):
            codec.job_page_from_wire(self.page([], extra=1))
        payload = self.page([])
        del payload["error"]
        with pytest.raises(FormatError, match="missing keys"):
            codec.job_page_from_wire(payload)

    def test_v1_stamp_and_bad_records_container_are_rejected(self):
        with pytest.raises(FormatError, match="schema"):
            codec.job_page_from_wire(self.page([], schema=1))
        with pytest.raises(FormatError):
            codec.job_page_from_wire(self.page({"a": 1}))

    @pytest.mark.parametrize(
        "vertices",
        [{3, 1, 2}, {"b", "a"}, {2.5, 1, "x"}, {0, -0.5, "-1"}],
        ids=["ints", "strs", "mixed", "mixed-negative"],
    )
    def test_vertices_travel_in_as_tuple_order(self, vertices):
        record = CliqueRecord(vertices=frozenset(vertices), probability=0.5)
        chunk = codec.JobChunk(job="job-1", seq=0, records=(record,), final=False)
        canonical = list(record.as_tuple())
        assert codec.job_page_to_wire(chunk)["records"] == [[canonical, 0.5]]
        assert codec.job_chunk_to_wire(chunk)["records"][0]["vertices"] == canonical

    def test_unencodable_vertex_is_refused_at_encode(self):
        record = CliqueRecord(vertices=frozenset({1, (2, 3)}), probability=0.5)
        chunk = codec.JobChunk(job="job-1", seq=0, records=(record,), final=False)
        with pytest.raises(FormatError, match="not wire-encodable"):
            codec.job_page_to_wire(chunk)
        with pytest.raises(FormatError, match="not wire-encodable"):
            codec.job_chunk_to_wire(chunk)

    def test_malformed_page_fails_the_stream(self):
        line = codec.encode(self.page([[[1, 1], 0.5]], job="job-000042"))
        job = RemoteJob(_CannedStreams([[line]]), "job-000042")
        with pytest.raises(ServiceError, match="malformed result chunk"):
            list(job.iter_results())
