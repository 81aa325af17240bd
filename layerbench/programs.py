"""Program processes the harness starts, talks to and stops.

Two kinds: a ``repro-mule serve`` server (HTTP workloads and the HTTP
rungs of the traced ladder) and the paper-sweep library driver.  Every
process is started from the checkout's own ``src``, timed from spawn, and
stopped and reaped before the harness moves on.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

from common import InvalidRun, cpu_seconds, peak_rss_mb

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A program that has not answered its first request by then is hung.
START_TIMEOUT_S = 60.0

_SERVE = "import sys; from repro.cli.main import main; sys.exit(main(sys.argv[1:]))"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Program:
    """One spawned program process with line-oriented stdout."""

    def __init__(self, argv: list[str], log: Path, *, stdin: bool = False) -> None:
        log.parent.mkdir(parents=True, exist_ok=True)
        self._log = open(log, "ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        # A hung start must not hang the run: kill after the timeout.
        self._watchdog = threading.Timer(START_TIMEOUT_S, self.proc.kill)
        self._watchdog.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def started(self) -> None:
        """The first answer arrived: cancel the start watchdog."""
        self._watchdog.cancel()

    def readline(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise InvalidRun(f"program {self.proc.args[:3]} exited early; see {self._log.name}")
        return line

    def cpu_seconds(self) -> float:
        return cpu_seconds(self.pid)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def stop(self) -> None:
        self._watchdog.cancel()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        self._log.close()


class Server(Program):
    """``repro-mule serve`` over edge-list files, on a free port."""

    def __init__(self, graphs: list[Path], log: Path, *, max_graphs: int) -> None:
        argv = [sys.executable, "-u", "-c", _SERVE, "serve", "--quiet", "--port", "0"]
        argv += ["--max-workers", "2", "--max-graphs", str(max_graphs)]
        for path in graphs:
            argv += ["--graph", str(path)]
        super().__init__(argv, log)
        try:
            line = self.readline()
            while not line.startswith("serving "):
                line = self.readline()
        except BaseException:
            self.stop()
            raise
        # "serving N graph(s) at http://host:port: name, ..."
        self.url = line.split(" at ", 1)[1].split(": ", 1)[0].strip()


class Driver(Program):
    """The paper-sweep library driver (``driver.py``)."""

    def __init__(self, spec: Path, log: Path) -> None:
        super().__init__([sys.executable, "-u", str(HERE / "driver.py"), str(spec)], log, stdin=True)

    def reply(self) -> dict:
        return json.loads(self.readline())

    def request(self, command: dict) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"cmd": "exit"}\n')
                self.proc.stdin.flush()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                pass
        super().stop()


# --------------------------------------------------------------------- #
# Metrics snapshots
# --------------------------------------------------------------------- #
def _work_counters(snapshot: dict) -> dict:
    return {k: v for k, v in snapshot["counters"].items() if "endpoint=/v1/metrics" not in k}


def settled_metrics(client) -> dict:
    """A server metrics snapshot taken once the last request is accounted.

    The server counts a request after its response is written, so a
    snapshot taken right after an answer can miss it; take snapshots until
    two in a row agree (scrapes of ``/v1/metrics`` itself aside).
    """
    previous = client.metrics()
    for _ in range(100):
        time.sleep(0.002)
        current = client.metrics()
        if _work_counters(current) == _work_counters(previous):
            return current
        previous = current
    raise InvalidRun("server metrics did not settle")


def counter(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of every series of counter ``name`` whose labels include ``labels``."""
    total = 0.0
    for key, value in snapshot["counters"].items():
        base, _, inner = key.partition("{")
        if base != name:
            continue
        pairs = dict(p.split("=", 1) for p in inner.rstrip("}").split(",") if p)
        if all(pairs.get(k) == v for k, v in labels.items()):
            total += value
    return total


def delta(before: dict, after: dict) -> dict:
    """Counter and histogram (sum, count) deltas between two snapshots."""
    counters = {
        key: value - before["counters"].get(key, 0.0)
        for key, value in after["counters"].items()
    }
    histograms = {}
    for key, data in after["histograms"].items():
        old = before["histograms"].get(key, {"sum": 0.0, "count": 0})
        histograms[key] = {"sum": data["sum"] - old["sum"], "count": data["count"] - old["count"]}
    return {"counters": counters, "histograms": histograms}
