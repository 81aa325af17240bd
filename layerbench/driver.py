"""The paper-sweep program: a paper-reproduction script over the library.

``run.py`` starts this file as its own process, so the library is driven
from outside the harness and each start is a real cold start.  It reads
the grid (edge-list files plus their α lists) named in the JSON spec given
as the only argument, answers the first grid graph's sweep at once (the
set-up answer), then serves commands, one JSON object per line on stdin:

``{"cmd": "pass", "op": ID, "trace": BOOL}``
    Run one grid pass: a fresh ``MiningSession(g).sweep(alphas)`` per grid
    graph, timed in-process; the reply carries the pass time, the time to
    the first graph's answers and a digest of every outcome, computed
    after the clock stops.
``{"cmd": "retained"}``
    The first pass's outcomes, pickled, for ``assert_matches``.
``{"cmd": "metrics"}``
    The process metrics registry snapshot and the recorded spans.
``{"cmd": "exit"}``
    Stop.
"""

from __future__ import annotations

import base64
import json
import pickle
import sys
import time
from pathlib import Path

from common import Tracer, outcome_digest


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    from repro.api import MiningSession
    from repro.obs import registry
    from repro.uncertain.io import read_edge_list

    grid = [
        (read_edge_list(cell["path"], vertex_type=int), cell["alphas"])
        for cell in spec["grid"]
    ]
    graph, alphas = grid[0]
    first = MiningSession(graph).sweep(alphas)
    _reply({"ready": True, "digests": [outcome_digest(o) for o in first]})

    tracer = Tracer(enabled=False)
    retained = None
    for line in sys.stdin:
        command = json.loads(line)
        kind = command["cmd"]
        if kind == "pass":
            tracer.enabled = bool(command.get("trace"))
            op = command["op"]
            outcomes = []
            with tracer.span("op", op):
                start = time.perf_counter()
                first_answer = None
                for graph, alphas in grid:
                    with tracer.span("api.sweep", op):
                        outcomes.extend(MiningSession(graph).sweep(alphas))
                    if first_answer is None:
                        first_answer = time.perf_counter()
                end = time.perf_counter()
            if retained is None:
                retained = outcomes
            _reply(
                {
                    "latency": end - start,
                    "ttfr": first_answer - start,
                    "digests": [outcome_digest(o) for o in outcomes],
                    "cliques": sum(o.num_cliques for o in outcomes),
                }
            )
        elif kind == "retained":
            _reply({"outcomes": base64.b64encode(pickle.dumps(retained)).decode()})
        elif kind == "metrics":
            _reply({"snapshot": registry().snapshot(), "spans": tracer.spans})
        elif kind == "exit":
            break
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
