"""Stand-in HTTP score service for the remote workload.

Run as its own process: ``python3 score_service.py`` reads one JSON line
from stdin describing the composite scorer's groups, binds an OS-chosen
loopback port, prints ``{"port": N}`` and serves until stdin closes.
Each POST of ``{"sample": [...], ...}`` is answered with the composite
score of the sample. The server is single-threaded and speaks HTTP/1.1,
so a client that keeps its connection alive is served on it; one that
opens a fresh connection per request shows up in the connection count.

While serving, a ``stats`` line on stdin prints the counters as one JSON
line; end of stdin, also when the parent dies, stops the service with
exit code 0.
The service imports nothing from the program under test, so its cost
stays fixed across program changes.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import subprocess
import sys
from dataclasses import asdict, astuple, dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer


def expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def composite_score(sample, groups) -> float:
    """prod_j logistic(k_j (r_j - ||x_Sj - t_j||)), the composite scorer."""
    score = 1.0
    for g in groups:
        gap = math.sqrt(sum((sample[i] - t) ** 2 for i, t in zip(g["indices"], g["target"])))
        score *= expit(g["sharpness"] * (g["radius"] - gap))
    return score


@dataclass
class ServiceCounters:
    """What the service saw: accepted connections, score requests, and
    requests it could not answer with a score."""

    connections: int = 0
    requests: int = 0
    errors: int = 0

    def minus(self, earlier: "ServiceCounters") -> "ServiceCounters":
        return ServiceCounters(*(a - b for a, b in zip(astuple(self), astuple(earlier))))


class ScoreServer(HTTPServer):
    def __init__(self, groups, counters: ServiceCounters):
        self.groups = groups
        self.counters = counters
        super().__init__(("127.0.0.1", 0), ScoreHandler)

    def process_request(self, request, client_address):
        self.counters.connections += 1
        super().process_request(request, client_address)


class ScoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # An idle keep-alive connection holds the only thread; drop it after
    # this many seconds so the next connection and the control line are
    # served.
    timeout = 2.0

    def do_POST(self):
        counters = self.server.counters
        counters.requests += 1
        try:
            body = json.loads(self.rfile.read(int(self.headers.get("Content-Length", 0))))
            sample = [float(x) for x in body["sample"]]
            payload = json.dumps({"score": composite_score(sample, self.server.groups)})
            status = 200
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            counters.errors += 1
            payload = json.dumps({"error": str(exc)})
            status = 400
        data = payload.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


def serve(groups, stdin) -> None:
    """Serve on loopback until ``stdin``, an unbuffered binary stream, reaches
    end of file. Reading it unbuffered keeps select() and readline() in step."""
    counters = ServiceCounters()
    server = ScoreServer(groups, counters)

    def emit(obj):
        sys.stdout.write(json.dumps(obj) + "\n")
        sys.stdout.flush()

    emit({"port": server.server_address[1]})
    with server, selectors.DefaultSelector() as sel:
        sel.register(server, selectors.EVENT_READ, "accept")
        sel.register(stdin, selectors.EVENT_READ, "control")
        while True:
            for key, _ in sel.select():
                if key.data == "accept":
                    server.handle_request()
                    continue
                line = stdin.readline()
                if not line:
                    return
                if line.strip() == b"stats":
                    emit(asdict(counters))


class ScoreService:
    """Client-side handle: starts the service process, reads counters,
    and stops it. Call ``close`` when done so the process always ends."""

    def __init__(self, groups):
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self._proc.stdin.write(json.dumps(groups) + "\n")
            self._proc.stdin.flush()
            line = self._proc.stdout.readline()
            self.port = int(json.loads(line)["port"])
        except (OSError, ValueError, KeyError) as exc:
            self.close()
            raise RuntimeError(f"score service did not start: {exc}") from exc

    @property
    def endpoint(self) -> str:
        return f"http://127.0.0.1:{self.port}/score"

    def counters(self) -> ServiceCounters:
        self._proc.stdin.write("stats\n")
        self._proc.stdin.flush()
        return ServiceCounters(**json.loads(self._proc.stdout.readline()))

    def close(self) -> None:
        """Stop the service and wait until it has ended."""
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    control = sys.stdin.buffer.raw
    serve(json.loads(control.readline()), control)
