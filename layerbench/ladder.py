"""The traced ladder: each layer's public entry point, timed on its own.

For every cell (graph, request) of a workload the ladder calls one public
entry point per rung, a few times, under a span, and keeps the median.
A layer's self time is its rung minus the rung below it:

    engine.kernel   run_kernel_search, fully consumed
    api.session     MiningSession.enumerate, warm          (- engine.kernel)
    sched.run       EnumerationScheduler.run, warm         (- api.session)

plus the rungs beside that stack: cold ``compile_graph``, a derivation
``MiningSession.compiled(alpha=...)``, ``GraphStore.add``, the codec's
outcome encode/decode and graph decode, and, against a server process,
the sync HTTP enumerate and the job stream (server-side times come from
``/v1/metrics`` deltas around each call).  Per-operation values add the
cells up (an operation runs all of them) or average them (it runs one).
"""

from __future__ import annotations

import statistics
import time
import urllib.request

from repro.api import GraphStore, MiningSession
from repro.core.engine import MuleStrategy, RunReport, TopKStrategy, compile_graph, run_kernel_search
from repro.core.result import SearchStatistics
from repro.service import EnumerationScheduler, codec, connect

from common import Tracer
from programs import settled_metrics

REPS = 5


def _strategy(request):
    if request.algorithm == "top_k":
        return TopKStrategy(min_size=request.min_size)
    return MuleStrategy()


def _timed(tracer: Tracer, name: str, op: str, call, before=None) -> tuple[float, object]:
    """Median seconds of :data:`REPS` calls of ``call`` and its last result.

    ``before``, when given, runs untimed ahead of each call and its result
    is passed to ``call``.
    """
    times = []
    result = None
    for rep in range(REPS):
        prepared = before() if before is not None else None
        with tracer.span(name, f"{op}/{rep}"):
            start = time.perf_counter()
            result = call(prepared) if before is not None else call()
            times.append(time.perf_counter() - start)
    return statistics.median(times), result


def _server_seconds(client, call, metric: str) -> tuple[float, float, object]:
    """``(client s, server s, result)`` of one call, the server side from
    the histogram ``metric``'s sum delta."""
    before = settled_metrics(client)["histograms"].get(metric, {"sum": 0.0})["sum"]
    start = time.perf_counter()
    result = call()
    elapsed = time.perf_counter() - start
    after = settled_metrics(client)["histograms"][metric]["sum"]
    return elapsed, after - before, result


def _cell(cell, index: int, tracer: Tracer, url: str) -> dict:
    op = f"ladder-{index}"
    graph, request = cell.graph, cell.request
    alpha = request.compile_alpha()
    out: dict = {}
    with tracer.span("ladder.cell", op):
        out["compile"], compiled = _timed(
            tracer, "engine.compile", op, lambda: compile_graph(graph, alpha=alpha)
        )

        # The kernel runs on the artifact as the operation finds it: warm
        # (cached, word arrays built) or freshly compiled or derived.
        def kernel_run(artifact):
            report = RunReport()
            for _ in run_kernel_search(
                artifact,
                request.alpha,
                _strategy(request),
                statistics=SearchStatistics(),
                controls=request.controls,
                report=report,
            ):
                pass
            return report

        kernel_run(compiled)
        out["kernel"], report = _timed(
            tracer, "engine.kernel", op, kernel_run,
            before=lambda: compiled if cell.warm else compile_graph(graph, alpha=alpha),
        )
        out["frames"] = report.frames_expanded
        out["cliques"] = report.cliques_emitted

        def derive():
            session = MiningSession(graph)
            session.compiled(alpha=None)
            start = time.perf_counter()
            session.compiled(alpha=alpha)
            return time.perf_counter() - start

        with tracer.span("api.derive", op):
            out["derive"] = statistics.median(derive() for _ in range(REPS))

        out["store_add"], _ = _timed(tracer, "api.store_add", op, lambda: GraphStore().add(graph))

        # The session and scheduler rungs share one store, so the
        # scheduler's self time is not skewed by a different cache; a cold
        # cell starts each call from a freshly compiled artifact, as the
        # kernel rung does.
        store = GraphStore()
        fingerprint = store.add(graph).fingerprint
        session = store.session(fingerprint)
        session.enumerate(request)

        def prime():
            if not cell.warm:
                store.cache.clear()
                session.compiled(alpha=alpha)

        out["session"], outcome = _timed(
            tracer, "api.session", op, lambda _: session.enumerate(request), before=prime
        )
        with EnumerationScheduler(store, max_workers=1) as scheduler:
            scheduler.run(request, ref=fingerprint)
            out["sched"], _ = _timed(
                tracer, "sched.run", op, lambda _: scheduler.run(request, ref=fingerprint),
                before=prime,
            )

        out["encode"], body = _timed(
            tracer, "codec.encode", op, lambda: codec.encode(codec.to_wire(outcome))
        )
        out["bytes"] = len(body)
        out["records"] = outcome.num_cliques
        out["decode"], _ = _timed(
            tracer, "codec.decode", op, lambda: codec.from_wire(codec.decode(body))
        )
        upload = codec.encode(codec.upload_to_wire(codec.GraphUpload(graph=graph)))
        out["graph_decode"], _ = _timed(
            tracer, "codec.graph_decode", op, lambda: codec.from_wire(codec.decode(upload))
        )

        client = connect(url)
        remote = client.session(cell.ref)
        remote.enumerate(request)
        sync = []
        for rep in range(REPS):
            with tracer.span("http.sync", f"{op}/{rep}"):
                sync.append(
                    _server_seconds(
                        client,
                        lambda: remote.enumerate(request),
                        "http_request_seconds{endpoint=/v2/graphs/{ref}/enumerate}",
                    )
                )
        out["http_server"] = statistics.median(s[1] for s in sync)
        out["http_transport"] = statistics.median(s[0] - s[1] for s in sync)

        def stream():
            job = remote.submit(request)
            with urllib.request.urlopen(f"{url}/v2/jobs/{job.id}/results", timeout=60) as body:
                chunks = [codec.job_chunk_from_wire(codec.decode(line)) for line in body if line.strip()]
            return sum(not chunk.final for chunk in chunks)

        jobs = []
        for rep in range(REPS):
            with tracer.span("jobs.stream", f"{op}/{rep}"):
                jobs.append(
                    _server_seconds(client, stream, "jobs_time_to_first_result_seconds")
                )
        out["jobs_ttfr"] = statistics.median(s[1] for s in jobs)
        out["pages"] = jobs[-1][2]
    return out


def run_ladder(workload, tracer: Tracer, url: str) -> dict:
    """Per-operation rung values of ``workload``'s cells, in ms or counts."""
    cells = workload.ladder_cells()
    rows = [_cell(cell, i, tracer, url) for i, cell in enumerate(cells)]
    mean = workload.aggregate == "mean"

    def per_op(key, selector=lambda cell: True, scale=1000.0):
        chosen = [row[key] for cell, row in zip(cells, rows) if selector(cell)]
        total = sum(chosen) * scale
        return total / len(chosen) if mean else total

    # One cell per distinct graph, for the rungs that take a graph alone.
    last_cell = {id(cell.graph): cell for cell in cells}
    graph_rows = [row for cell, row in zip(cells, rows) if last_cell[id(cell.graph)] is cell]

    def per_graph(key):
        total = sum(row[key] for row in graph_rows) * 1000.0
        return total / len(graph_rows) if mean else total

    kernel = per_op("kernel")
    session = per_op("session")
    return {
        "engine.compile_ms": per_op("compile", lambda c: c.compile),
        "engine.kernel_ms": kernel,
        "engine.frames": sum(row["frames"] for row in rows),
        "engine.cliques": sum(row["cliques"] for row in rows),
        "api.derive_ms": per_op("derive", lambda c: c.derive),
        "api.session_self_ms": session - kernel,
        "api.store_add_ms": per_graph("store_add"),
        "sched.run_self_ms": per_op("sched") - session,
        "jobs.ttfr_ms": per_op("jobs_ttfr"),
        "jobs.pages_per_op": per_op("pages", scale=1.0),
        "codec.encode_ms": per_op("encode"),
        "codec.decode_ms": per_op("decode"),
        "codec.bytes_per_clique": sum(r["bytes"] for r in rows) / max(1, sum(r["records"] for r in rows)),
        "codec.graph_decode_ms": per_graph("graph_decode"),
        "http.server_ms": per_op("http_server"),
        "http.transport_ms": per_op("http_transport"),
    }
