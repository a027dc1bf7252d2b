import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer

import numpy as np
import pytest

from noisediff.benchmarks import platform_fingerprint


class MockScoreService:
    """In-process HTTP score service with fault injection.

    ``protocol`` is the HTTP version it answers in: "HTTP/1.0" closes each
    connection after its reply, "HTTP/1.1" keeps it open for the next
    request. ``threaded=False`` serves one connection at a time and
    ``idle_timeout`` (seconds) drops a kept-alive connection left idle
    that long, as perfbench's stand-in does. Every reply goes out in two
    sends, the headers and then the body.

    ``behavior`` switches the response mode:
      constant     -> {"score": value}
      out-of-range -> {"score": 1.3}
      slow         -> sleeps ``delay`` seconds before answering
      slow-first   -> the first request sleeps ``delay`` seconds and then
                      answers {"score": 0.0}; later ones answer ``value``
      malformed    -> non-JSON body
      raw          -> ``value`` itself, bytes, as the body
      function     -> {"score": value(sample)}, ``value`` a function of
                      the request's sample
      http-error   -> status 500
    Requests received are recorded (payload dicts) for wire-format checks,
    and each one's path, headers and raw body in ``raw``; ``connections``
    counts the connections accepted.
    """

    def __init__(self, protocol="HTTP/1.0", threaded=True, idle_timeout=None):
        self.behavior = "constant"
        self.value = 0.7
        self.delay = 0.0
        self.requests = []
        self.raw = []
        self.connections = 0
        lock = threading.Lock()

        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = protocol
            timeout = idle_timeout

            def setup(self):
                with lock:
                    service.connections += 1
                super().setup()

            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = self.rfile.read(length)
                service.raw.append((self.path, dict(self.headers), body))
                try:
                    service.requests.append(json.loads(body))
                except json.JSONDecodeError:
                    service.requests.append(None)
                first = len(service.requests) == 1
                if service.behavior == "slow" or (service.behavior == "slow-first" and first):
                    time.sleep(service.delay)
                try:
                    if service.behavior == "http-error":
                        self.send_response(500)
                        self.send_header("Content-Length", "0")
                        self.end_headers()
                        return
                    if service.behavior == "malformed":
                        payload = b"not json"
                    elif service.behavior == "raw":
                        payload = service.value
                    elif service.behavior == "function":
                        sample = service.requests[-1]["sample"]
                        payload = json.dumps({"score": service.value(sample)}).encode()
                    elif service.behavior == "out-of-range":
                        payload = json.dumps({"score": 1.3}).encode()
                    elif service.behavior == "slow-first" and first:
                        payload = json.dumps({"score": 0.0}).encode()
                    else:
                        payload = json.dumps({"score": service.value}).encode()
                    self.send_response(200)
                    self.send_header("Content-Type", "application/json")
                    self.send_header("Content-Length", str(len(payload)))
                    self.end_headers()
                    self.wfile.write(payload)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # client gave up during injected latency

            def handle_one_request(self):
                try:
                    super().handle_one_request()
                except (BrokenPipeError, ConnectionResetError):
                    self.close_connection = True

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer if threaded else HTTPServer
        self._server = server(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._server.server_address
        return f"http://{host}:{port}/score"

    def reset(self, behavior="constant", value=0.7, delay=0.0):
        self.behavior = behavior
        self.value = value
        self.delay = delay
        self.requests.clear()
        self.raw.clear()
        self.connections = 0

    def close(self):
        self._server.shutdown()
        self._server.server_close()


class RawReplyService:
    """Loopback service that answers requests with scripted raw bytes.

    ``replies`` holds one entry per request, in order: the reply's bytes,
    or a ``(bytes, True)`` pair to close the connection after sending
    them, or a ``(bytes, close, delay)`` triple that first waits ``delay``
    seconds. It serves one connection at a time and reads each request by
    its Content-Length; bytes past one request are kept for the next
    request on the connection, so pipelined requests are read one by one.
    Every request's bytes are recorded in ``requests``, and in
    ``first_recvs`` the bytes the service held when it began that request
    (after a first ``recv`` if it held none); ``connections`` counts the
    connections accepted. Use it as a context manager.
    """

    def __init__(self, replies):
        self.replies = [reply if isinstance(reply, tuple) else (reply, False)
                        for reply in replies]
        self.requests = []
        self.first_recvs = []
        self.connections = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.endpoint = f"http://127.0.0.1:{self._listener.getsockname()[1]}/score"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while self.replies:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return  # closed
            self.connections += 1
            with conn:
                try:
                    self._serve_connection(conn)
                except OSError:
                    pass  # the client gave up on a reply

    def _serve_connection(self, conn):
        data = b""
        while self.replies:
            data = first = data or conn.recv(1 << 16)
            while True:
                head, sep, _ = data.partition(b"\r\n\r\n")
                if sep:
                    end = len(head) + len(sep) + int(re.search(rb"Content-Length: (\d+)", head)[1])
                    if len(data) >= end:
                        break
                more = conn.recv(1 << 16)
                if not more:
                    return  # the client closed the connection
                data += more
            self.first_recvs.append(first)
            self.requests.append(data[:end])
            data = data[end:]
            reply, close, *delay = self.replies.pop(0)
            if delay:
                time.sleep(delay[0])
            conn.sendall(reply)
            if close:
                return

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes a blocked accept
        self._listener.close()
        self._thread.join(timeout=10)
        assert not self._thread.is_alive()


@pytest.fixture(scope="session")
def score_service():
    service = MockScoreService()
    yield service
    service.close()


@pytest.fixture(scope="session")
def keepalive_service():
    """The mock service answering in HTTP/1.1, so connections stay open."""
    service = MockScoreService(protocol="HTTP/1.1")
    yield service
    service.close()


class CountingPipeline:
    """Stands in for a Pipeline and counts its forward passes
    (``forwards``) and the latents passed through them (``latents``: a
    batch counts its rows)."""

    def __init__(self, pipeline):
        self.pipeline = pipeline
        self.forwards = 0
        self.latents = 0

    def __getattr__(self, name):
        return getattr(self.pipeline, name)

    def forward(self, z_T):
        self.forwards += 1
        self.latents += len(z_T) if np.ndim(z_T) > 1 else 1
        return self.pipeline.forward(z_T)


@pytest.fixture
def counting_pipeline():
    return CountingPipeline


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "pinned_on(platform): the test compares outputs with literals taken on "
        "``platform``, a platform_fingerprint; a failure reports both platforms"
    )


@pytest.hookimpl(wrapper=True)
def pytest_runtest_makereport(item, call):
    report = yield
    marker = item.get_closest_marker("pinned_on")
    if marker and report.when == "call" and report.failed:
        pinned, here = marker.args[0], platform_fingerprint()
        verdict = (
            "same platform, so a mismatch with the literals is a regression"
            if here == pinned
            else "other platform: its kernels may give other bits from correct code"
        )
        report.sections.append(("pinned platform", f"literals pinned on: {pinned}\n"
                                f"this host:         {here}\n{verdict}"))
    return report
