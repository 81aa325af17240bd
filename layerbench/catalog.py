"""Every metric the benchmark emits: unit, direction, and what it is for.

``BENCHMARK.json`` lists the same names, units and directions (the
self-test checks that they agree).  For a per-layer metric, ``moves`` names
the end-to-end metric it should move and ``on`` the workloads where it
should move it; ``source`` says where the number comes from:

* ``ladder``: the traced ladder (``ladder.py``), a layer's public entry
  point timed on the workload's own cells;
* ``counters``: the program process's metrics registry (``/v1/metrics``
  of the server, or the driver's registry), deltas over the traced phase;
* ``harness``: the harness itself.
"""

END_TO_END = {
    "setup_s": dict(unit="s", better="lower",
                    what="program process spawn -> first correct answer; median of cold starts spread through the run"),
    "latency_p50_ms": dict(unit="ms", better="lower",
                           what="median operation time: a grid pass; submit -> last record; a read from its due time"),
    "latency_tail_ms": dict(unit="ms", better="lower",
                            what="highest percentile with >= 10 samples beyond it"),
    "ttfr_p50_ms": dict(unit="ms", better="lower",
                        what="median time to first result: a pass's first graph answered; submit -> first record; "
                             "an upload's due time -> the new graph's first read answered"),
    "peak_rss_mb": dict(unit="MB", better="lower",
                        what="median VmHWM of the program processes (driver or server)"),
}

#: Printed with the run's details but not gated: each is meaningful on one
#: kind of workload only, and elsewhere would be pinned or a copy.
WORKLOAD_SPECIFIC = {
    "cliques_per_s": dict(unit="cliques/s", on="paper-sweep, bulk-stream",
                          what="verified cliques per wall second of the measured phase"),
    "upload_p50_ms": dict(unit="ms", on="churn-open", what="upload timed from its due time"),
    "slo_met_ratio": dict(unit="ratio", on="churn-open",
                          what="requests answered correctly within the per-kind limit; failures count as misses"),
}

PER_LAYER = {
    "engine.compile_ms": dict(unit="ms", better="lower", source="ladder", moves="setup_s, latency_p50_ms, ttfr_p50_ms",
                              on="paper-sweep; churn-open (ttfr_p50_ms, latency_tail_ms); not bulk-stream"),
    "engine.kernel_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms",
                             on="paper-sweep (most), bulk-stream (about a fifth)"),
    "engine.frames": dict(unit="count", better="lower", source="ladder", moves="none; identical across seeds",
                          on="all"),
    "engine.cliques": dict(unit="count", better="higher", source="ladder", moves="none; identical across seeds",
                           on="all"),
    "api.derive_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms", on="paper-sweep"),
    "api.session_self_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms",
                                on="paper-sweep, bulk-stream"),
    "api.store_add_ms": dict(unit="ms", better="lower", source="ladder", moves="ttfr_p50_ms", on="churn-open"),
    "api.cache_hit_ratio": dict(unit="ratio", better="higher", source="counters", moves="latency_tail_ms",
                                on="churn-open (1.0 on bulk-stream)"),
    "api.compiles_per_op": dict(unit="count", better="lower", source="counters",
                                moves="latency_tail_ms, ttfr_p50_ms", on="churn-open"),
    "sched.run_self_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms", on="churn-open"),
    "sched.single_flight_waits": dict(unit="count", better="lower", source="counters", moves="latency_tail_ms",
                                      on="churn-open"),
    "jobs.ttfr_ms": dict(unit="ms", better="lower", source="ladder", moves="ttfr_p50_ms", on="bulk-stream"),
    "jobs.parks_per_op": dict(unit="count", better="lower", source="counters", moves="latency_p50_ms",
                              on="bulk-stream"),
    "jobs.pages_per_op": dict(unit="count", better="lower", source="ladder", moves="ttfr_p50_ms", on="bulk-stream"),
    "codec.encode_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms",
                            on="bulk-stream (little on churn-open)"),
    "codec.decode_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms",
                            on="bulk-stream (little on churn-open)"),
    "codec.bytes_per_clique": dict(unit="bytes", better="lower", source="ladder", moves="latency_p50_ms",
                                   on="bulk-stream"),
    "codec.graph_decode_ms": dict(unit="ms", better="lower", source="ladder", moves="ttfr_p50_ms", on="churn-open"),
    "http.server_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms",
                           on="bulk-stream, churn-open"),
    "http.transport_ms": dict(unit="ms", better="lower", source="ladder", moves="latency_p50_ms", on="churn-open"),
    "http.requests_per_op": dict(unit="count", better="lower", source="counters", moves="latency_p50_ms",
                                 on="bulk-stream, churn-open"),
    "server.cpu_ms_per_op": dict(unit="ms", better="lower", source="counters", moves="latency_p50_ms",
                                 on="bulk-stream, churn-open (the driver's CPU on paper-sweep)"),
    "harness.late_p50_ms": dict(unit="ms", better="lower", source="harness", moves="none; run validity",
                                on="churn-open (the gap between operations on closed loops)"),
    "harness.trace_overhead": dict(unit="ratio", better="lower", source="harness",
                                   moves="none; traced / untraced latency_p50_ms", on="all"),
    "harness.host_ms": dict(unit="ms", better="lower", source="harness",
                            moves="none; host drift marker (fixed pure-Python loop)", on="all"),
    "harness.steal_ticks": dict(unit="count", better="lower", source="harness",
                                moves="none; host drift marker (CPU steal over the run)", on="all"),
}
