"""Job streaming — time-to-first-record and memory, streamed vs buffered.

Not a figure from the paper: this benchmark smoke-tests the async job
pipeline (``POST /v2/jobs`` + NDJSON result streaming, see
``docs/service.md``) the way ``bench_service_throughput`` covers the
synchronous path.  A real HTTP server runs in-process on an ephemeral
port and one enumeration with a few thousand result cliques is fetched
two ways:

* **buffered** — synchronous ``RemoteSession.enumerate()``: the server
  materialises the full outcome, encodes one JSON body, the client parses
  it whole.  First record and last record arrive together.
* **streamed** — ``submit()`` + ``RemoteJob.iter_results()``: pages flow
  as the kernel emits them, so the first record lands while the server is
  still enumerating.

Asserted invariants:

* the streamed reassembly is clique- and counter-identical to a local
  session run (``assert_matches`` — parity is never traded for latency);
* **bounded TTFR**: time-to-first-record of the streamed path beats the
  buffered path's *total* wall clock (guarded against sub-50 ms runs,
  where scheduling noise dominates and the comparison is meaningless);
* **packed pages are smaller**: the same answer streamed as packed
  ``job-result-page`` lines (the ``Accept`` header ``RemoteJob`` sends)
  takes fewer bytes per clique than as enveloped ``job-result-chunk``
  lines (no header).  Both sizes are byte counts, not timings, so the
  comparison is deterministic.

Peak RSS (``ru_maxrss``) is sampled around each phase and recorded in the
summary table.  It is reported, not asserted: the high-water mark is
process-wide and monotone, and with the server in-process both phases
share one address space, so an inequality between the two deltas would
pin allocator behaviour rather than the pipeline's buffering bound.
"""

from __future__ import annotations

import random
import resource
import urllib.request
from time import perf_counter

from repro.api import EnumerationRequest, MiningSession
from repro.generators.erdos_renyi import random_uncertain_graph
from repro.service import MiningServer, RemoteSession, codec

#: Low threshold → thousands of result cliques, so transfer cost (the
#: thing streaming pipelines) dominates the measured path.
ALPHA = 0.4

DEFAULT_SCALE = 0.05
BASE_VERTICES = 400
EDGE_DENSITY = 0.12

#: Records per streamed chunk — small enough that many pages flow, large
#: enough that framing overhead stays off the critical path.
PAGE_SIZE = 64

#: Below this buffered wall clock the TTFR comparison is scheduling noise.
MIN_MEANINGFUL_SECONDS = 0.05


def _workload(bench_scale: float):
    n = max(60, round(BASE_VERTICES * (bench_scale / DEFAULT_SCALE) ** 0.5))
    return random_uncertain_graph(n, EDGE_DENSITY, rng=random.Random(2015))


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _stream_bytes(url: str, job_id: str, accept: "str | None") -> tuple[int, set]:
    """Total NDJSON bytes of one job's result stream, and its line kinds."""
    headers = {} if accept is None else {"Accept": accept}
    request = urllib.request.Request(
        f"{url}/v2/jobs/{job_id}/results", headers=headers
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        lines = [line for line in response if line.strip()]
    return sum(map(len, lines)), {codec.decode(line)["kind"] for line in lines}


def bench_job_streaming_ttfr(bench_scale, run_once, record_rows):
    """First-record latency and peak RSS, streamed vs buffered transport."""
    graph = _workload(bench_scale)
    request = EnumerationRequest(algorithm="mule", alpha=ALPHA)
    reference = MiningSession(graph).enumerate(request)

    def measure():
        with MiningServer(graph, port=0) as server:
            remote = RemoteSession(server.url)
            remote.enumerate(request)  # warm-up: compilation + codec paths

            rss_start = _peak_rss_kb()
            job = remote.submit(request, page_size=PAGE_SIZE)
            streamed_started = perf_counter()
            ttfr = None
            count = 0
            for _ in job.iter_results():
                if ttfr is None:
                    ttfr = perf_counter() - streamed_started
                count += 1
            streamed_total = perf_counter() - streamed_started
            streamed_outcome = job.outcome()
            rss_after_stream = _peak_rss_kb()

            buffered_started = perf_counter()
            buffered_outcome = remote.enumerate(request)
            buffered_total = perf_counter() - buffered_started
            rss_after_buffered = _peak_rss_kb()

            wire = {}
            for name, accept in (
                ("chunk", None),
                ("page", codec.PACKED_RECORDS_MEDIA_TYPE),
            ):
                job = remote.submit(request, page_size=PAGE_SIZE)
                wire[name] = _stream_bytes(server.url, job.id, accept)

        return {
            "ttfr": ttfr,
            "count": count,
            "streamed_total": streamed_total,
            "streamed_outcome": streamed_outcome,
            "buffered_total": buffered_total,
            "buffered_outcome": buffered_outcome,
            "streamed_rss_kb": rss_after_stream - rss_start,
            "buffered_rss_kb": rss_after_buffered - rss_after_stream,
            "wire": wire,
        }

    result = run_once(measure)

    result["streamed_outcome"].assert_matches(reference)
    result["buffered_outcome"].assert_matches(reference)
    assert result["count"] == len(reference.records)
    cliques = len(reference.records)
    (chunk_bytes, chunk_kinds), (page_bytes, page_kinds) = (
        result["wire"]["chunk"],
        result["wire"]["page"],
    )
    assert chunk_kinds == {"job-result-chunk"}
    assert page_kinds == {"job-result-page"}

    record_rows(
        "Job streaming",
        "time-to-first-record, streamed NDJSON vs buffered enumerate",
        [
            {
                "graph": f"er-{graph.num_vertices}",
                "alpha": ALPHA,
                "cliques": len(reference.records),
                "page_size": PAGE_SIZE,
                "ttfr_s": round(result["ttfr"], 4),
                "streamed_s": round(result["streamed_total"], 4),
                "buffered_s": round(result["buffered_total"], 4),
                "streamed_rss_kb": result["streamed_rss_kb"],
                "buffered_rss_kb": result["buffered_rss_kb"],
                "chunk_bytes_per_clique": round(chunk_bytes / max(1, cliques), 1),
                "page_bytes_per_clique": round(page_bytes / max(1, cliques), 1),
            }
        ],
        columns=[
            "graph",
            "alpha",
            "cliques",
            "page_size",
            "ttfr_s",
            "streamed_s",
            "buffered_s",
            "streamed_rss_kb",
            "buffered_rss_kb",
            "chunk_bytes_per_clique",
            "page_bytes_per_clique",
        ],
    )

    assert page_bytes < chunk_bytes, (
        f"packed pages are not smaller: {page_bytes} bytes vs {chunk_bytes} "
        f"enveloped for {cliques} cliques"
    )

    if result["buffered_total"] >= MIN_MEANINGFUL_SECONDS:
        assert result["ttfr"] < result["buffered_total"], (
            f"streaming lost its latency edge: first record took "
            f"{result['ttfr']:.4f}s, the whole buffered call "
            f"{result['buffered_total']:.4f}s"
        )
