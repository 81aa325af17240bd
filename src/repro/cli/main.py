"""Command-line interface for the MULE reproduction.

The ``repro-mule`` command exposes the library's main workflows without
writing Python:

* ``repro-mule enumerate`` — run MULE (or DFS-NOIP / LARGE-MULE) on an
  uncertain graph file and print or save the α-maximal cliques;
* ``repro-mule stats`` — print a Table 1 style summary of a graph file or a
  named dataset;
* ``repro-mule generate`` — build one of the named dataset analogs and write
  it to an edge-list file;
* ``repro-mule bound`` — print the Theorem 1 / Moon–Moser bounds for a given
  number of vertices;
* ``repro-mule compare`` — run MULE and DFS-NOIP side by side on the same
  input (a one-command Figure 1 cell);
* ``repro-mule core`` — compute the (k, η)-core decomposition extension;
* ``repro-mule datasets`` — list the registered dataset analogs;
* ``repro-mule serve`` — host a catalog of graphs over HTTP (the wire API
  of ``docs/service.md``): repeat ``--dataset name[:scale]`` and
  ``--graph file`` to serve many graphs from one process; pair it with
  :class:`repro.RemoteStore` / :class:`repro.RemoteSession`;
* ``repro-mule jobs`` — list, inspect, follow or cancel the asynchronous
  jobs of a running server;
* ``repro-mule fleet`` — probe a fleet of ``serve`` workers and print
  their health, with fleet-wide metric counters summed across workers;
* ``repro-mule metrics`` — print a running server's metrics registry
  (JSON snapshot or Prometheus text).

``enumerate`` and ``compare`` also run against a remote server instead of
a local file: ``--remote URL`` targets its default graph and ``--remote
URL --graph NAME`` any graph it hosts by name or fingerprint.  With
``--remote``, ``enumerate --async`` submits without waiting (returning a
job id for ``repro-mule jobs``) and ``enumerate --follow`` streams the
cliques live as the server finds them.

``enumerate`` can also fan a *local* graph out across many servers:
repeat ``--workers-url URL`` once per worker and the command runs the
distributed coordinator of ``docs/architecture.md`` ("Distributed
enumeration") — the output is bit-identical to a serial run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ..analysis.statistics import clique_statistics
from ..api import EnumerationRequest, GraphStore, MiningSession
from ..api.store import GRAPH_NAME_PATTERN
from ..core.bounds import moon_moser_bound, uncertain_clique_bound
from ..core.engine import RunControls
from ..datasets.registry import (
    DATASETS,
    available_datasets,
    load_dataset,
    resolve_dataset_name,
)
from ..distributed import DistributedSession, WorkerPool, WorkerState
from ..extensions.uncertain_core import uncertain_core_decomposition
from ..errors import DatasetError, ReproError
from ..service.client import connect
from ..service.server import DEFAULT_PORT, MiningServer
from ..tools.check import cli as check_cli
from ..uncertain.graph import UncertainGraph
from ..uncertain.io import read_edge_list, write_edge_list
from ..uncertain.statistics import summarize

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-mule`` command."""
    parser = argparse.ArgumentParser(
        prog="repro-mule",
        description="Mine alpha-maximal cliques from uncertain graphs (MULE reproduction).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    enumerate_parser = subparsers.add_parser(
        "enumerate", help="enumerate alpha-maximal cliques from a graph file or dataset"
    )
    _add_input_arguments(enumerate_parser, required=False)
    _add_remote_arguments(enumerate_parser)
    enumerate_parser.add_argument(
        "--alpha", type=float, required=True, help="probability threshold in (0, 1]"
    )
    enumerate_parser.add_argument(
        "--algorithm",
        choices=["mule", "fast-mule", "dfs-noip", "large-mule"],
        default="mule",
        help="enumeration algorithm (default: mule)",
    )
    enumerate_parser.add_argument(
        "--min-size",
        type=int,
        default=None,
        help="size threshold t for large-mule (required when --algorithm=large-mule)",
    )
    enumerate_parser.add_argument(
        "--output", type=Path, default=None, help="write cliques as JSON to this file"
    )
    enumerate_parser.add_argument(
        "--quiet", action="store_true", help="suppress the per-clique listing"
    )
    async_group = enumerate_parser.add_mutually_exclusive_group()
    async_group.add_argument(
        "--async",
        dest="async_submit",
        action="store_true",
        help=(
            "with --remote: submit as an asynchronous job and exit "
            "immediately, printing the job id"
        ),
    )
    async_group.add_argument(
        "--follow",
        action="store_true",
        help=(
            "with --remote: submit as an asynchronous job and stream the "
            "cliques live as the server finds them"
        ),
    )
    enumerate_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "enumerate with this many parallel worker processes "
            "(mule/fast-mule only; default: 1 = serial)"
        ),
    )
    enumerate_parser.add_argument(
        "--workers-url",
        dest="workers_url",
        action="append",
        default=[],
        metavar="URL",
        help=(
            "fan the enumeration out across this repro-mule serve worker "
            "(repeatable, one flag per worker; mule/fast-mule only; the "
            "merged output is bit-identical to a serial run)"
        ),
    )
    enumerate_parser.add_argument(
        "--num-shards",
        type=int,
        default=None,
        help=(
            "with --workers-url: number of root shards to plan "
            "(default: 2 per worker)"
        ),
    )
    _add_kernel_argument(enumerate_parser)
    _add_run_control_arguments(enumerate_parser)

    stats_parser = subparsers.add_parser(
        "stats", help="print summary statistics of a graph file or dataset"
    )
    _add_input_arguments(stats_parser)

    generate_parser = subparsers.add_parser(
        "generate", help="generate a named dataset analog and write it to a file"
    )
    generate_parser.add_argument("--dataset", required=True, choices=available_datasets())
    generate_parser.add_argument("--scale", type=float, default=1.0)
    generate_parser.add_argument("--seed", type=int, default=2015)
    generate_parser.add_argument("--output", type=Path, required=True)

    bound_parser = subparsers.add_parser(
        "bound", help="print the maximum possible number of (alpha-)maximal cliques"
    )
    bound_parser.add_argument("--vertices", type=int, required=True)

    compare_parser = subparsers.add_parser(
        "compare", help="run MULE and DFS-NOIP side by side (a Figure 1 cell)"
    )
    _add_input_arguments(compare_parser, required=False)
    _add_remote_arguments(compare_parser)
    compare_parser.add_argument("--alpha", type=float, required=True)
    _add_kernel_argument(compare_parser)
    _add_run_control_arguments(compare_parser)

    jobs_parser = subparsers.add_parser(
        "jobs", help="list, inspect, follow or cancel async jobs on a server"
    )
    jobs_parser.add_argument(
        "--remote",
        metavar="URL",
        required=True,
        help="base URL of the repro-mule serve process to talk to",
    )
    jobs_action = jobs_parser.add_mutually_exclusive_group()
    jobs_action.add_argument(
        "--job", metavar="ID", help="show one job's status instead of the listing"
    )
    jobs_action.add_argument(
        "--follow", metavar="ID", help="stream one job's results to completion"
    )
    jobs_action.add_argument(
        "--cancel", metavar="ID", help="cancel a job and print its final status"
    )

    fleet_parser = subparsers.add_parser(
        "fleet", help="probe a fleet of serve workers and print their health"
    )
    fleet_parser.add_argument(
        "--workers-url",
        dest="workers_url",
        action="append",
        required=True,
        metavar="URL",
        help="base URL of a repro-mule serve worker (repeatable)",
    )

    metrics_parser = subparsers.add_parser(
        "metrics", help="print a running server's metrics registry"
    )
    metrics_parser.add_argument(
        "url", metavar="URL", help="base URL of the repro-mule serve process"
    )
    metrics_parser.add_argument(
        "--format",
        choices=["json", "prometheus"],
        default="json",
        help="output format (default: json)",
    )

    core_parser = subparsers.add_parser(
        "core", help="compute the (k, eta)-core decomposition of an uncertain graph"
    )
    _add_input_arguments(core_parser)
    core_parser.add_argument(
        "--eta", type=float, required=True, help="degree-probability threshold in (0, 1]"
    )
    core_parser.add_argument(
        "--top", type=int, default=10, help="show the vertices with the highest core numbers"
    )

    subparsers.add_parser("datasets", help="list registered dataset analogs")

    check_parser = subparsers.add_parser(
        "check",
        help="run the repo's static-analysis rules (see docs/dev.md)",
    )
    check_cli.add_arguments(check_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="host one or many graphs over HTTP (see docs/service.md)",
    )
    serve_parser.add_argument(
        "--dataset",
        action="append",
        default=[],
        metavar="NAME[:SCALE]",
        help=(
            "serve this named dataset analog (repeatable; an optional "
            ":SCALE overrides --scale for that dataset)"
        ),
    )
    serve_parser.add_argument(
        "--graph",
        action="append",
        default=[],
        type=Path,
        metavar="FILE",
        help="serve this probabilistic edge-list file (repeatable)",
    )
    serve_parser.add_argument(
        "--input",
        type=Path,
        default=None,
        help="alias of --graph for single-graph deployments",
    )
    serve_parser.add_argument(
        "--scale", type=float, default=0.05, help="default dataset scale factor"
    )
    serve_parser.add_argument(
        "--seed", type=int, default=2015, help="dataset generation seed"
    )
    serve_parser.add_argument(
        "--max-graphs",
        type=int,
        default=64,
        help=(
            "bound on resident graphs; uploads beyond it evict the least "
            "recently used unpinned graph (default: 64; 0 = unbounded)"
        ),
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"TCP port; 0 picks a free one (default: {DEFAULT_PORT})",
    )
    serve_parser.add_argument(
        "--max-workers",
        type=int,
        default=None,
        help="enumeration worker threads (default: 4)",
    )
    serve_parser.add_argument(
        "--kernel",
        choices=["auto", "python", "vector"],
        default="auto",
        help=(
            "default engine kernel for requests that leave kernel=auto "
            "(explicit per-request kernels always win)"
        ),
    )
    serve_parser.add_argument(
        "--quiet", action="store_true", help="suppress per-request access logs"
    )
    serve_parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help=(
            "write one Chrome trace-event JSON file per HTTP request into "
            "this directory (load in chrome://tracing or Perfetto)"
        ),
    )

    return parser


def _add_input_arguments(
    parser: argparse.ArgumentParser, *, required: bool = True
) -> None:
    group = parser.add_mutually_exclusive_group(required=required)
    group.add_argument("--input", type=Path, help="probabilistic edge-list file (u v p)")
    group.add_argument("--dataset", choices=available_datasets(), help="named dataset analog")
    parser.add_argument("--scale", type=float, default=0.05, help="dataset scale factor")
    parser.add_argument("--seed", type=int, default=2015, help="dataset generation seed")


def _add_remote_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--remote",
        metavar="URL",
        default=None,
        help="run against a repro-mule serve process instead of a local graph",
    )
    parser.add_argument(
        "--graph",
        metavar="NAME",
        default=None,
        help=(
            "with --remote: the served graph to target, by registered name "
            "or fingerprint (default: the server's default graph)"
        ),
    )


def _add_kernel_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernel",
        choices=["auto", "python", "vector"],
        default="auto",
        help=(
            "engine kernel backend: vector (fused MULE-family kernel), "
            "python (reference kernel), or auto (vector where supported; "
            "default).  Results are bit-identical either way."
        ),
    )


def _add_run_control_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--max-cliques",
        type=int,
        default=None,
        help="stop after emitting this many cliques (default: unlimited)",
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stop the search after this much wall-clock time (default: unlimited)",
    )


def _run_controls(args: argparse.Namespace) -> RunControls | None:
    if args.max_cliques is None and args.time_budget is None:
        return None
    return RunControls(
        max_cliques=args.max_cliques, time_budget_seconds=args.time_budget
    )


def _load_graph(args: argparse.Namespace) -> UncertainGraph:
    if args.input is not None:
        return read_edge_list(args.input, vertex_type=str)
    return load_dataset(args.dataset, scale=args.scale, seed=args.seed)


def _resolve_session(args: argparse.Namespace):
    """Resolve ``--input``/``--dataset``/``--remote`` to a session.

    Returns ``(session, num_vertices, num_edges)`` — the session is a
    local :class:`MiningSession` or a remote one; the call sites are
    identical either way.  Returns ``None`` (after printing a usage error)
    when the flags contradict each other.
    """
    if args.remote is not None:
        if args.input is not None or args.dataset is not None:
            print(
                "error: --remote cannot be combined with --input/--dataset",
                file=sys.stderr,
            )
            return None
        session = connect(args.remote).session(args.graph)
        info = session.graph_info()
        return session, info.num_vertices, info.num_edges
    if args.graph is not None:
        print("error: --graph NAME requires --remote URL", file=sys.stderr)
        return None
    if args.input is None and args.dataset is None:
        print(
            "error: one of --input, --dataset or --remote is required",
            file=sys.stderr,
        )
        return None
    graph = _load_graph(args)
    return MiningSession(graph), graph.num_vertices, graph.num_edges


def _command_enumerate(args: argparse.Namespace) -> int:
    # Flag validation comes before the (possibly huge) input parse.
    if args.workers < 1:
        print("error: --workers must be positive", file=sys.stderr)
        return 2
    if args.workers > 1 and args.algorithm not in ("mule", "fast-mule"):
        print(
            f"error: --workers is only supported with --algorithm=mule/fast-mule "
            f"(got {args.algorithm})",
            file=sys.stderr,
        )
        return 2
    if args.algorithm == "large-mule" and args.min_size is None:
        print("error: --min-size is required with --algorithm=large-mule", file=sys.stderr)
        return 2
    if args.kernel == "vector" and args.algorithm == "dfs-noip":
        print(
            "error: --kernel=vector is not supported with --algorithm=dfs-noip "
            "(the baseline always runs on the python kernel)",
            file=sys.stderr,
        )
        return 2
    if (args.async_submit or args.follow) and args.remote is None:
        print("error: --async/--follow require --remote URL", file=sys.stderr)
        return 2
    if args.num_shards is not None and not args.workers_url:
        print("error: --num-shards requires --workers-url", file=sys.stderr)
        return 2
    if args.workers_url:
        return _enumerate_distributed(args)
    resolved = _resolve_session(args)
    if resolved is None:
        return 2
    session, num_vertices, num_edges = resolved
    controls = _run_controls(args)
    # One session per invocation: the request dataclass names the algorithm
    # (aliases like "dfs-noip" are normalised) and the worker count selects
    # serial vs sharded-parallel execution — local and remote alike (a
    # remote request with workers>1 fans out on the server).
    request = EnumerationRequest(
        algorithm=args.algorithm,
        alpha=args.alpha,
        size_threshold=args.min_size if args.algorithm == "large-mule" else None,
        controls=controls,
        workers=args.workers,
        kernel=args.kernel,
    )
    if args.async_submit or args.follow:
        job = session.submit(request)
        if args.async_submit:
            print(f"submitted {job.id}")
            print(
                f"follow with: repro-mule jobs --remote {args.remote} "
                f"--follow {job.id}"
            )
            return 0
        return _follow_job(job, quiet=args.quiet)
    result = session.enumerate(request).to_result()
    return _print_enumeration_result(args, result, num_vertices, num_edges)


def _print_enumeration_result(
    args: argparse.Namespace, result, num_vertices: int, num_edges: int
) -> int:
    """The shared output tail of local, remote and distributed runs."""
    stats = clique_statistics(result)
    print(
        f"{result.algorithm}: {result.num_cliques} alpha-maximal cliques "
        f"(alpha={args.alpha}) in {result.elapsed_seconds:.3f}s "
        f"on graph with n={num_vertices}, m={num_edges}"
    )
    if result.truncated:
        prefix_kind = (
            "a sorted subset"
            if result.algorithm in ("parallel-mule", "distributed-mule")
            else "a depth-first prefix"
        )
        print(
            f"note: enumeration truncated ({result.stop_reason}); "
            f"the listed cliques are {prefix_kind} of the full output"
        )
    print(f"clique sizes: {stats.size_histogram}")
    if not args.quiet:
        for record in result.cliques:
            members = ",".join(str(v) for v in record.as_tuple())
            print(f"  [{members}]  p={record.probability:.6g}")
    if args.output is not None:
        payload = {
            "algorithm": result.algorithm,
            "alpha": args.alpha,
            "num_cliques": result.num_cliques,
            "elapsed_seconds": result.elapsed_seconds,
            "stop_reason": result.stop_reason,
            "cliques": [
                {"vertices": list(record.as_tuple()), "probability": record.probability}
                for record in result.cliques
            ],
        }
        args.output.write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"wrote {result.num_cliques} cliques to {args.output}")
    return 0


def _enumerate_distributed(args: argparse.Namespace) -> int:
    """``enumerate --workers-url …`` — fan a local graph out over a fleet."""
    if args.remote is not None or args.graph is not None:
        print(
            "error: --workers-url cannot be combined with --remote/--graph "
            "(the coordinator ships a local graph to the fleet)",
            file=sys.stderr,
        )
        return 2
    if args.workers > 1:
        print(
            "error: --workers and --workers-url are mutually exclusive "
            "(the fleet fan-out is the parallelism)",
            file=sys.stderr,
        )
        return 2
    if args.algorithm not in ("mule", "fast-mule"):
        print(
            f"error: --workers-url is only supported with "
            f"--algorithm=mule/fast-mule (got {args.algorithm})",
            file=sys.stderr,
        )
        return 2
    if args.input is None and args.dataset is None:
        print(
            "error: --workers-url requires a local --input or --dataset",
            file=sys.stderr,
        )
        return 2
    graph = _load_graph(args)
    request = EnumerationRequest(
        algorithm=args.algorithm,
        alpha=args.alpha,
        controls=_run_controls(args),
        kernel=args.kernel,
    )
    with DistributedSession(
        graph, tuple(args.workers_url), num_shards=args.num_shards
    ) as session:
        result = session.enumerate(request).to_result()
    return _print_enumeration_result(
        args, result, graph.num_vertices, graph.num_edges
    )


def _command_fleet(args: argparse.Namespace) -> int:
    """Probe each worker once and print the fleet's health.

    A one-shot probe has no failure history to average over, so the pool
    runs with ``failure_threshold=1``: a worker that fails its single
    probe is reported *dead*, not merely suspect.
    """
    pool = WorkerPool(args.workers_url, failure_threshold=1)
    pool.probe()
    statuses = pool.workers()
    usable = 0
    fleet_counters: dict[str, float] = {}
    for status in statuses:
        line = f"{status.url}  {status.state:8s}"
        if status.state == WorkerState.HEALTHY:
            usable += 1
            store = connect(status.url)
            try:
                stats = store.stats()
            except ReproError:
                stats = None
            if stats is not None:
                jobs = stats.get("jobs", {})
                line += (
                    f"  graphs={len(stats.get('graphs', {}))}"
                    f"  jobs={sum(jobs.values())}"
                )
            try:
                metrics = store.metrics()
            except ReproError:
                metrics = None
            if metrics is not None:
                for name, value in metrics["counters"].items():
                    fleet_counters[name] = fleet_counters.get(name, 0.0) + value
        elif status.last_error:
            line += f"  error: {status.last_error}"
        print(line)
    print(f"{usable}/{len(statuses)} worker(s) usable")
    if fleet_counters:
        # Counters sum meaningfully across processes (gauges and latency
        # histograms do not) — the fleet-wide view of throughput and churn.
        print("fleet counters (summed across usable workers):")
        for name in sorted(fleet_counters):
            print(f"  {name} = {fleet_counters[name]:g}")
    return 0 if usable else 1


def _command_stats(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    summary = summarize(graph)
    print(f"vertices:           {summary.num_vertices}")
    print(f"edges:              {summary.num_edges}")
    print(f"density:            {summary.density:.6g}")
    print(f"degree (min/mean/max): {summary.min_degree}/{summary.mean_degree:.2f}/{summary.max_degree}")
    print(
        "edge probability (min/mean/max): "
        f"{summary.min_probability:.4g}/{summary.mean_probability:.4g}/{summary.max_probability:.4g}"
    )
    print(f"expected edges:     {summary.expected_edges:.2f}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    graph = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    write_edge_list(graph, args.output)
    print(
        f"wrote {args.dataset} (scale={args.scale}, seed={args.seed}) to {args.output}: "
        f"n={graph.num_vertices}, m={graph.num_edges}"
    )
    return 0


def _command_bound(args: argparse.Namespace) -> int:
    n = args.vertices
    print(f"n = {n}")
    print(f"Moon-Moser bound (deterministic, alpha = 1): {moon_moser_bound(n)}")
    print(f"Theorem 1 bound (uncertain, 0 < alpha < 1):  {uncertain_clique_bound(n, 0.5)}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    resolved = _resolve_session(args)
    if resolved is None:
        return 2
    session, num_vertices, num_edges = resolved
    controls = _run_controls(args)
    # Both algorithms run in one session, so the graph is compiled once and
    # the DFS-NOIP pass reuses MULE's cached artifact (server-side when
    # --remote is given — the shared scheduler cache plays the same role).
    # --kernel only steers the MULE side: DFS-NOIP is the from-scratch
    # baseline and always runs on the python kernel.
    fast = session.enumerate(
        EnumerationRequest(
            algorithm="mule", alpha=args.alpha, controls=controls, kernel=args.kernel
        )
    ).to_result()
    slow = session.enumerate(
        EnumerationRequest(algorithm="dfs-noip", alpha=args.alpha, controls=controls)
    ).to_result()
    print(
        f"graph: n={num_vertices}, m={num_edges}, alpha={args.alpha}"
    )
    print(
        f"MULE:     {fast.num_cliques:>8} cliques in {fast.elapsed_seconds:8.3f}s "
        f"({fast.statistics.probability_multiplications} probability multiplications)"
    )
    print(
        f"DFS-NOIP: {slow.num_cliques:>8} cliques in {slow.elapsed_seconds:8.3f}s "
        f"({slow.statistics.probability_multiplications} probability multiplications)"
    )
    speedup = slow.elapsed_seconds / max(fast.elapsed_seconds, 1e-9)
    if fast.truncated or slow.truncated:
        # Truncated runs may stop at different points of the search, so
        # differing outputs say nothing about algorithm correctness.
        print(
            f"speed-up: {speedup:.1f}x, outputs not compared "
            f"(truncated: mule={fast.stop_reason}, dfs-noip={slow.stop_reason})"
        )
        return 0
    agree = fast.vertex_sets() == slow.vertex_sets()
    print(f"speed-up: {speedup:.1f}x, outputs {'agree' if agree else 'DISAGREE'}")
    return 0 if agree else 1


def _follow_job(job, *, quiet: bool) -> int:
    """Stream a job's records live and print the terminal summary."""
    for record in job.iter_results():
        if not quiet:
            members = ",".join(str(v) for v in record.as_tuple())
            print(f"  [{members}]  p={record.probability:.6g}", flush=True)
    result = job.outcome().to_result()
    print(
        f"{result.algorithm}: {result.num_cliques} alpha-maximal cliques "
        f"({result.stop_reason}) in {result.elapsed_seconds:.3f}s "
        f"[job {job.id}]"
    )
    return 0


def _print_job_status(status) -> None:
    line = (
        f"{status.id}  {status.state:9s}  {status.records:>8d} records  "
        f"{status.elapsed_seconds:8.3f}s"
    )
    if status.error is not None:
        line += f"  error: {status.error}"
    print(line)


def _command_jobs(args: argparse.Namespace) -> int:
    store = connect(args.remote)
    if args.cancel is not None:
        _print_job_status(store.job(args.cancel).cancel())
        return 0
    if args.follow is not None:
        return _follow_job(store.job(args.follow), quiet=False)
    if args.job is not None:
        _print_job_status(store.job(args.job).status())
        return 0
    statuses = store.jobs()
    if not statuses:
        print("no jobs registered")
        return 0
    for status in statuses:
        _print_job_status(status)
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    """``repro-mule metrics URL`` — dump a server's metrics registry."""
    store = connect(args.url)
    if args.format == "prometheus":
        sys.stdout.write(store.metrics_text())
        return 0
    print(json.dumps(store.metrics(), indent=2, sort_keys=True))
    return 0


def _command_core(args: argparse.Namespace) -> int:
    graph = _load_graph(args)
    cores = uncertain_core_decomposition(graph, args.eta)
    if not cores:
        print("graph has no vertices")
        return 0
    max_core = max(cores.values())
    histogram: dict[int, int] = {}
    for value in cores.values():
        histogram[value] = histogram.get(value, 0) + 1
    print(
        f"(k, eta)-core decomposition: n={graph.num_vertices}, eta={args.eta}, "
        f"max core number={max_core}"
    )
    for k in sorted(histogram):
        print(f"  core number {k}: {histogram[k]} vertices")
    top = sorted(cores.items(), key=lambda kv: (-kv[1], str(kv[0])))[: args.top]
    print(f"top {len(top)} vertices by core number:")
    for vertex, value in top:
        print(f"  {vertex}: {value}")
    return 0


def _parse_dataset_spec(spec: str, default_scale: float) -> tuple[str, float]:
    """Split a ``name[:scale]`` serve flag into (canonical name, scale)."""
    name, sep, scale_token = spec.partition(":")
    scale = default_scale
    if sep:
        try:
            scale = float(scale_token)
        except ValueError as exc:
            raise DatasetError(
                f"invalid dataset scale in {spec!r} (expected name[:scale])"
            ) from exc
    return resolve_dataset_name(name), scale


def _build_serving_store(args: argparse.Namespace) -> GraphStore:
    """Assemble the serving catalog from the repeated --dataset/--graph flags.

    Catalog graphs are pinned (the LRU budget only evicts client uploads);
    the first graph registered becomes the v1 default.
    """
    store = GraphStore(max_graphs=args.max_graphs if args.max_graphs > 0 else None)
    for spec in args.dataset:
        name, scale = _parse_dataset_spec(spec, args.scale)
        info = store.add_dataset(name, scale=scale, seed=args.seed)
        print(
            f"loaded dataset {info.name} (scale={scale:g}): "
            f"n={info.num_vertices}, m={info.num_edges}"
        )
    paths = list(args.graph)
    if args.input is not None:
        paths.append(args.input)
    for path in paths:
        graph = read_edge_list(path, vertex_type=str)
        # The store's own name rule decides whether the stem is usable.
        name = path.stem if GRAPH_NAME_PATTERN.match(path.stem) else None
        info = store.add(graph, name=name, pin=True)
        print(
            f"loaded {path} as {info.name or info.fingerprint[:12]}: "
            f"n={info.num_vertices}, m={info.num_edges}"
        )
    return store


def _command_serve(args: argparse.Namespace) -> int:
    if args.max_workers is not None and args.max_workers < 1:
        print("error: --max-workers must be positive", file=sys.stderr)
        return 2
    if not args.dataset and not args.graph and args.input is None:
        print(
            "error: nothing to serve; give at least one --dataset or --graph",
            file=sys.stderr,
        )
        return 2
    store = _build_serving_store(args)
    server = MiningServer(
        store,
        host=args.host,
        port=args.port,
        max_workers=args.max_workers,
        default_kernel=args.kernel,
        quiet=args.quiet,
        trace_dir=args.trace_dir,
    )
    names = [info.name or info.fingerprint[:12] for info in store.list()]
    print(f"serving {len(names)} graph(s) at {server.url}: {', '.join(names)}")
    print(f"default graph (v1 surface): {names[0]}")
    print(
        "endpoints: POST /v1/enumerate|sweep  GET /v1/health|stats  "
        "POST|GET /v2/graphs  GET|DELETE /v2/graphs/{ref}  "
        "POST /v2/graphs/{ref}/enumerate|sweep  POST|GET /v2/jobs  "
        "GET|DELETE /v2/jobs/{id}  GET /v2/jobs/{id}/results  "
        "(Ctrl-C to stop)"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _command_datasets(_: argparse.Namespace) -> int:
    for name in available_datasets():
        spec = DATASETS[name]
        print(
            f"{name:16s}  {spec.paper_vertices:>8d} vertices  {spec.paper_edges:>9d} edges  "
            f"{spec.category}"
        )
    return 0


def _command_check(args: argparse.Namespace) -> int:
    return check_cli.run(args)


_COMMANDS = {
    "check": _command_check,
    "enumerate": _command_enumerate,
    "stats": _command_stats,
    "generate": _command_generate,
    "bound": _command_bound,
    "compare": _command_compare,
    "core": _command_core,
    "datasets": _command_datasets,
    "serve": _command_serve,
    "jobs": _command_jobs,
    "fleet": _command_fleet,
    "metrics": _command_metrics,
}


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``repro-mule`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (e.g. ``repro-mule metrics ... | head``);
        # exit quietly with the conventional SIGPIPE status.  Detach stdout
        # first so interpreter shutdown does not raise on the final flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
