import http.client
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import noisediff
from noisediff import scoring
from noisediff.benchmarks import composite_benchmark
from noisediff.config import ExperimentConfig
from noisediff.errors import NonFiniteError, ScorerContractError, ScorerUnavailableError
from noisediff.experiment import run_experiment
from noisediff.scoring import (
    RemoteScorer,
    Scorer,
    format_vqa_question,
    grad_latent_fd,
    parse_endpoint,
    remote_score,
)

from conftest import MockScoreService, RawReplyService


def test_constant_mock_roundtrip(score_service):
    score_service.reset(behavior="constant", value=0.7)
    s = remote_score(score_service.endpoint, [0.1, 0.2], "a lion and a monkey", timeout=2.0)
    assert s == 0.7


def test_wire_format(score_service):
    score_service.reset(behavior="constant", value=0.4)
    remote_score(score_service.endpoint, [1.0, -1.0, 0.5], "a cat", timeout=2.0)
    payload = score_service.requests[-1]
    assert payload["sample"] == [1.0, -1.0, 0.5]
    assert payload["prompt"] == "a cat"
    assert payload["question"] == format_vqa_question("a cat")


def test_wire_bytes(score_service):
    score_service.reset(behavior="constant", value=0.4)
    remote_score(score_service.endpoint, [1.0, -1.0, 0.5], "a cat", timeout=2.0)
    payload = score_service.requests[-1]
    # json.dumps with its default separators, as UTF-8
    path, headers, body = score_service.raw[-1]
    assert path == "/score"
    assert body == json.dumps(payload).encode("utf-8")
    assert headers["Content-Type"] == "application/json"
    assert "Connection" not in headers  # HTTP/1.1 keeps the connection open
    assert int(headers["Content-Length"]) == len(body)


def test_endpoint_with_query_string(score_service):
    score_service.reset(behavior="constant", value=0.6)
    endpoint = score_service.endpoint + "?model=vqa&v=1"
    assert remote_score(endpoint, [0.0], "a cat", timeout=2.0) == 0.6
    assert score_service.raw[-1][0] == "/score?model=vqa&v=1"


@pytest.mark.parametrize("service", ["score_service", "keepalive_service"])
def test_retry_after_timeout_returns_its_own_answer(request, service):
    # the first attempt times out; its late answer (0.0) must not be read
    service = request.getfixturevalue(service)
    service.reset(behavior="slow-first", value=0.35, delay=0.6)
    scorer = RemoteScorer(service.endpoint, "a cat", timeout=0.2, retries=1)
    try:
        assert scorer.score([0.0]) == 0.35
    finally:
        scorer.close()
    assert len(service.requests) == 2
    assert service.connections == 2


@pytest.mark.parametrize("service, connections", [("score_service", 5), ("keepalive_service", 1)])
def test_connections_per_scorer(request, service, connections):
    # HTTP/1.0 closes every connection; over HTTP/1.1 one scorer keeps one
    service = request.getfixturevalue(service)
    service.reset(behavior="constant", value=0.25)
    scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0)
    try:
        assert [scorer.score([float(i)]) for i in range(5)] == [0.25] * 5
        assert service.connections == connections
        scorer.close()
        assert scorer.score([0.0]) == 0.25  # a closed scorer opens a new connection
        assert service.connections == connections + 1
    finally:
        scorer.close()
    assert [p["sample"] for p in service.requests] == [[0.0], [1.0], [2.0], [3.0], [4.0], [0.0]]


def test_dropped_idle_connection_is_resent():
    service = MockScoreService(protocol="HTTP/1.1", idle_timeout=0.1)
    scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0, retries=0)
    try:
        service.reset(behavior="constant", value=0.6)
        assert scorer.score([0.0]) == 0.6
        time.sleep(0.5)  # the service drops the idle connection
        assert scorer.score([1.0]) == 0.6  # resent on a fresh one, not a retry
        assert service.connections == 2
        assert len(service.requests) == 2
    finally:
        scorer.close()
        service.close()


def test_timeout_on_kept_connection_is_not_resent(keepalive_service):
    keepalive_service.reset(behavior="constant", value=0.6)
    scorer = RemoteScorer(keepalive_service.endpoint, "a cat", timeout=0.2, retries=0)
    try:
        assert scorer.score([0.0]) == 0.6
        keepalive_service.behavior, keepalive_service.delay = "slow", 0.6
        with pytest.raises(ScorerUnavailableError):
            scorer.score([0.0])
    finally:
        scorer.close()
    assert len(keepalive_service.requests) == 2


@pytest.mark.parametrize(
    "timeout, retries",
    [(float("nan"), 1), (-1.0, 1), (float("inf"), 1), (0, 1), (True, 1), ("1", 1),
     (1.0, -3), (1.0, 1.5), (1.0, True)],
)
def test_bad_limits_rejected(timeout, retries):
    with pytest.raises(ValueError):
        RemoteScorer("http://127.0.0.1:9/score", "a cat", timeout=timeout, retries=retries)
    with pytest.raises(ValueError):
        remote_score("http://127.0.0.1:9/score", [0.0], "a cat", timeout, retries)


def test_runs_do_not_stall_each_other(tmp_path):
    """Against a service like perfbench's stand-in, a run's connection is
    closed when it ends, and a kept-alive reply is not held back ~40 ms by
    a delayed ACK; either fault takes this past the idle timeout."""
    service = MockScoreService(protocol="HTTP/1.1", threaded=False, idle_timeout=2.0)
    try:
        service.reset(behavior="constant", value=0.5)
        configs = [ExperimentConfig.from_text(
            "method = random-sampling\ndim = 8\nepochs = 10\nseeds = 0,1\ntimesteps = 5\n"
            f"output = {tmp_path / f'run{k}'}\nscorer.type = remote\n"
            f"scorer.remote.endpoint = {service.endpoint}\n"
        ) for k in range(2)]
        assert service.connections == 0  # building a config opens none
        start = time.perf_counter()
        for cfg in configs:
            assert run_experiment(cfg).exit_code == 0
        scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0)
        try:
            for i in range(20):
                assert scorer.score([float(i)]) == 0.5
        finally:
            scorer.close()
        elapsed = time.perf_counter() - start
        assert len(service.requests) > 60
        assert elapsed < 1.5, f"{len(service.requests)} requests took {elapsed:.2f} s"
    finally:
        service.close()


@pytest.mark.parametrize(
    "endpoint",
    ["localhost:8000/score", "ftp://127.0.0.1/score", "http:///score", "http://h:99999/s",
     "http://h/a b", ""],
)
def test_bad_endpoint_rejected(endpoint):
    with pytest.raises(ValueError):
        parse_endpoint(endpoint)
    with pytest.raises(ValueError):
        RemoteScorer(endpoint, "a cat")


def test_endpoint_parts():
    ep = parse_endpoint("https://[::1]/score?x=%20é")
    assert (ep.https, ep.host, ep.port, ep.target) == (True, "::1", 443, "/score?x=%20%C3%A9")
    assert parse_endpoint(ep) is ep
    assert parse_endpoint("http://Example.org:8080").target == "/"


def test_import_loads_no_http_library():
    src = os.path.dirname(os.path.dirname(noisediff.__file__))
    code = (
        "import sys, noisediff, noisediff.cli; "
        "print(sorted(m for m in ('requests', 'urllib3') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def test_out_of_range_is_contract_violation(score_service):
    score_service.reset(behavior="out-of-range")
    with pytest.raises(ScorerContractError):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=1)
    assert len(score_service.requests) == 1  # deterministic: surfaced without a retry


@pytest.mark.parametrize("value", [True, False, "0.5", None, [0.5]])
def test_score_that_is_no_number_is_malformed(score_service, value):
    # a yes/no service answering true must not read as a perfect score
    score_service.reset(behavior="constant", value=value)
    with pytest.raises(ScorerUnavailableError, match="malformed score response"):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=1)
    assert len(score_service.requests) == 2  # retried like any malformed reply


def test_integer_beyond_float_range_is_out_of_range(score_service):
    score_service.reset(behavior="constant", value=10**400)
    with pytest.raises(ScorerContractError, match=r"remote score 1000.*0000 outside \[0, 1\]"):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=1)
    assert len(score_service.requests) == 1


@pytest.mark.parametrize("digits", ["1" * 4301, "-" + "9" * 5000], ids=["positive", "negative"])
def test_integer_beyond_the_digit_limit_is_out_of_range(score_service, digits):
    # json.loads alone refuses more than 4300 digits, as if the reply were malformed
    score_service.reset(behavior="raw", value=f'{{"score": {digits}}}'.encode())
    with pytest.raises(ScorerContractError, match=r"remote score -?inf outside \[0, 1\]"):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=1)
    assert len(score_service.requests) == 1


@pytest.mark.parametrize("value", [0, 1, 0.0, 1.0])
def test_integer_and_float_ends_are_scores(score_service, value):
    score_service.reset(behavior="constant", value=value)
    got = remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0)
    assert type(got) is float and got == value


def test_negative_integer_zero_reads_as_zero(score_service):
    score_service.reset(behavior="raw", value=b'{"score": -0}')
    got = remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0)
    assert type(got) is float and got == 0.0 and math.copysign(1.0, got) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_is_named_before_any_request(score_service, bad):
    score_service.reset()
    with pytest.raises(NonFiniteError, match="sample"):
        remote_score(score_service.endpoint, [0.0, bad], "a cat", timeout=2.0, retries=1)
    assert score_service.requests == [] and score_service.connections == 0


def test_timeout_after_retries(score_service):
    score_service.reset(behavior="slow", delay=1.5)
    with pytest.raises(ScorerUnavailableError):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=0.2, retries=1)


def test_malformed_body_unavailable(score_service):
    score_service.reset(behavior="malformed")
    with pytest.raises(ScorerUnavailableError):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=0)


def test_http_error_unavailable(score_service):
    score_service.reset(behavior="http-error")
    with pytest.raises(ScorerUnavailableError):
        remote_score(score_service.endpoint, [0.0], "a cat", timeout=2.0, retries=0)


def test_unreachable_endpoint():
    with pytest.raises(ScorerUnavailableError):
        remote_score("http://127.0.0.1:9/score", [0.0], "a cat", timeout=0.2, retries=0)


def test_remote_scorer_interface(score_service):
    score_service.reset(behavior="constant", value=0.25)
    sc = RemoteScorer(score_service.endpoint, "a dog", timeout=2.0)
    assert sc.score(np.array([0.5, 0.5])) == 0.25
    assert sc.gradient(np.array([0.5, 0.5])) is None


class TestRemoteViaCli:
    """Score-only methods must run end-to-end against a live service and
    fail with exit 3 when the service misbehaves."""

    def _config(self, tmp_path, endpoint, timeout_ms=2000):
        text = (
            "method = random-sampling\n"
            "dim = 8\n"
            "epochs = 3\n"
            "seeds = 0\n"
            f"output = {tmp_path / 'out'}\n"
            "timesteps = 5\n"
            "scorer.type = remote\n"
            f"scorer.remote.endpoint = {endpoint}\n"
            f"scorer.remote.timeout_ms = {timeout_ms}\n"
            "scorer.remote.retries = 1\n"
            "scorer.prompt = a lion and a monkey\n"
        )
        path = tmp_path / "remote.txt"
        path.write_text(text)
        return path

    def test_end_to_end_ok(self, tmp_path, score_service):
        from noisediff.cli import main

        score_service.reset(behavior="constant", value=0.7)
        cfg = self._config(tmp_path, score_service.endpoint)
        assert main(["run", str(cfg)]) == 0
        summary = (tmp_path / "out" / "summary.csv").read_text().splitlines()
        assert summary[1].split(",")[1] == "0.7"

    def test_timeout_exit_3_with_partial_artifacts(self, tmp_path, score_service):
        from noisediff.cli import main

        score_service.reset(behavior="slow", delay=1.0)
        cfg = self._config(tmp_path, score_service.endpoint, timeout_ms=100)
        assert main(["run", str(cfg)]) == 3
        status = (tmp_path / "out" / "status.txt").read_text()
        assert status.startswith("incomplete")
        assert "ScorerUnavailableError" in status
        assert (tmp_path / "out" / "trajectory_seed0.csv").exists()

    def test_endpoint_without_scheme_exit_2(self, tmp_path, capsys):
        from noisediff.cli import main

        cfg = self._config(tmp_path, "localhost:8000/score")
        assert main(["run", str(cfg)]) == 2
        assert "line 8: scorer.remote.endpoint:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_https_at_plain_service_exit_3(self, tmp_path, score_service):
        from noisediff.cli import main

        score_service.reset()
        endpoint = score_service.endpoint.replace("http://", "https://")
        cfg = self._config(tmp_path, endpoint, timeout_ms=300)
        assert main(["run", str(cfg)]) == 3
        assert "ScorerUnavailableError" in (tmp_path / "out" / "status.txt").read_text()

    def test_out_of_range_exit_3(self, tmp_path, score_service):
        from noisediff.cli import main

        score_service.reset(behavior="out-of-range")
        cfg = self._config(tmp_path, score_service.endpoint)
        assert main(["run", str(cfg)]) == 3
        assert "ScorerContractError" in (tmp_path / "out" / "status.txt").read_text()


def _reply(body=b'{"score": 0.5}', head=b"HTTP/1.1 200 OK\r\n"):
    return head + b"Content-Length: %d\r\n\r\n" % len(body) + body


def _http_client_sends(ep, body):
    """What http.client sends for a JSON POST of ``body`` to ``ep``,
    captured instead of sent."""
    cls = http.client.HTTPSConnection if ep.https else http.client.HTTPConnection
    conn = cls(ep.host, ep.port)
    sent = []
    conn.send = sent.append
    conn.request("POST", ep.target, body=body, headers={"Content-Type": "application/json"})
    return sent


def test_request_goes_out_in_one_send():
    # the head http.client writes, with the body, in the service's first recv
    with RawReplyService([_reply(), _reply()]) as service:
        scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0)
        try:
            assert [scorer.score([0.0]), scorer.score([1.0])] == [0.5, 0.5]
        finally:
            scorer.close()
    assert service.first_recvs == service.requests
    body = service.requests[0].partition(b"\r\n\r\n")[2]
    assert json.loads(body)["sample"] == [0.0]
    head = service.requests[0][: -len(body)]
    assert _http_client_sends(parse_endpoint(service.endpoint), body) == [head, body]


@pytest.mark.parametrize(
    "url",
    ["http://127.0.0.1:8000/score", "http://[::1]:8000/score", "http://[fe80::1%25eth0]:8000/",
     "http://example.org/score", "https://example.org/score", "https://example.org:80/score",
     "http://bücher.example:8080/score", "https://bücher.example/"],
)
def test_host_header_is_http_clients(url):
    ep = parse_endpoint(url)
    head = _http_client_sends(ep, b"{}")[0]
    assert f"Host: {ep.host_header}".encode() in head.split(b"\r\n")


def test_host_without_idna_form_rejected():
    with pytest.raises(ValueError):
        parse_endpoint("http://" + "é" * 64 + ".example/score")


@pytest.mark.parametrize("service, connections", [("score_service", 5), ("keepalive_service", 1)])
def test_session_counts_requests_and_connections(request, service, connections):
    service = request.getfixturevalue(service)
    service.reset(behavior="constant", value=0.25)
    scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0)
    session = scorer.session
    try:
        for i in range(5):
            scorer.score([float(i)])
        assert (session.requests, session.connections, session.resends) == (5, connections, 0)
        scorer.close()
        scorer.score([0.0])  # a closed scorer opens a new connection
        assert (session.requests, session.connections) == (6, connections + 1)
    finally:
        scorer.close()


def test_session_counts_a_resend():
    # the service closes after its first reply, which keeps the connection
    with RawReplyService([(_reply(), True), _reply()]) as service:
        scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0, retries=0)
        try:
            assert [scorer.score([0.0]), scorer.score([1.0])] == [0.5, 0.5]
        finally:
            scorer.close()
    session = scorer.session
    assert (session.requests, session.connections, session.resends) == (3, 2, 1)
    assert service.connections == 2 and len(service.requests) == 2


CHUNKED = (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
           b"5\r\n{\"sco\r\n9;x=y\r\nre\": 0.5}\r\n0\r\nX-Trailer: 1\r\n\r\n")


@pytest.mark.parametrize(
    "first, connections",
    [(CHUNKED, 1),
     (_reply(head=b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n"), 1),
     (_reply(head=b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n"), 1),
     ((b'HTTP/1.0 200 OK\r\n\r\n{"score": 0.5}', True), 2),
     ((_reply(head=b"HTTP/1.1 200 OK\r\nConnection: close\r\n"), True), 2),
     (_reply(head=b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (65536 - 9) + b"\r\n"), 1),
     (_reply(head=b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 98), 1)],
    ids=["chunked", "interim-100", "http10-keep-alive", "http10-read-to-close",
         "connection-close", "65536-byte-line", "99-headers"],
)
def test_reply_framing_keeps_the_score(first, connections):
    # the second reply is read on the first's connection unless that one closed
    with RawReplyService([first, _reply()]) as service:
        scorer = RemoteScorer(service.endpoint, "a cat", timeout=2.0, retries=0)
        try:
            assert [scorer.score([0.0]), scorer.score([1.0])] == [0.5, 0.5]
        finally:
            scorer.close()
    assert service.connections == scorer.session.connections == connections


@pytest.mark.parametrize(
    "bad",
    [(b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"score": 0.5}', True),
     b"garbage\r\n\r\n",
     b"HTTP/2 200\r\nContent-Length: 0\r\n\r\n",
     _reply(head=b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * (65537 - 9) + b"\r\n"),
     _reply(head=b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 99),
     _reply(head=b"HTTP/1.1 200 OK\r\n" + b"X-H: 1\r\n" * 100),
     _reply(b"", head=b"HTTP/1.1 302 Found\r\nLocation: /elsewhere\r\n"),
     b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
     b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n"],
    ids=["cut-short", "garbage-status", "http2-status", "65537-byte-line", "100-headers",
         "101-headers", "302", "bad-chunk-size", "negative-length"],
)
def test_bad_reply_is_unavailable_and_retried_on_a_new_connection(bad):
    with RawReplyService([bad]) as service:
        with pytest.raises(ScorerUnavailableError):
            remote_score(service.endpoint, [0.0], "a cat", timeout=2.0, retries=0)
    with RawReplyService([bad, _reply()]) as service:
        assert remote_score(service.endpoint, [0.0], "a cat", timeout=2.0, retries=1) == 0.5
    assert service.connections == 2


def test_https_at_plain_service_is_unavailable(score_service):
    score_service.reset()
    endpoint = score_service.endpoint.replace("http://", "https://")
    with pytest.raises(ScorerUnavailableError):
        remote_score(endpoint, [0.0], "a cat", timeout=0.3, retries=0)


def test_import_loads_no_http_client_or_ssl():
    src = os.path.dirname(os.path.dirname(noisediff.__file__))
    code = (
        "import sys, noisediff, noisediff.cli; "
        "print(sorted(m for m in ('http.client', 'ssl') if m in sys.modules))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


def _score_reply(value, head=b"HTTP/1.1 200 OK\r\n"):
    return _reply(json.dumps({"score": value}).encode(), head=head)


def _samples_of(requests):
    return [json.loads(r.partition(b"\r\n\r\n")[2])["sample"] for r in requests]


class SequentialRemoteScorer(RemoteScorer):
    """The reference: the default batch, one ``remote_score`` per row."""

    score_batch = Scorer.score_batch


SAMPLES = [[0.0], [1.0], [2.0], [3.0]]


def _score_batch(service, samples=SAMPLES, scorer_class=RemoteScorer, timeout=2.0, retries=1):
    """The scores of ``samples`` from a new scorer of ``service``, and its
    session, closed."""
    scorer = scorer_class(service.endpoint, "a cat", timeout=timeout, retries=retries)
    try:
        return scorer.score_batch(samples), scorer.session
    finally:
        scorer.close()


def test_batch_pipelines_once_the_connection_kept_alive():
    replies = [_score_reply(v) for v in (0.1, 0.2, 0.3, 0.4)]
    with RawReplyService(replies) as service:
        scores, session = _score_batch(service)
    assert scores == [0.1, 0.2, 0.3, 0.4]
    # a fresh connection sends one request alone, then the rest in one send
    assert service.first_recvs[0] == service.requests[0]
    assert service.first_recvs[1] == b"".join(service.requests[1:])
    assert _samples_of(service.requests) == SAMPLES
    assert (session.requests, session.connections, session.resends) == (4, 1, 0)


@pytest.mark.parametrize(
    "bad",
    [(b'HTTP/1.1 200 OK\r\nContent-Length: 40\r\n\r\n{"score": 0.5}', True),
     (_reply(b"", head=b"HTTP/1.1 500 Internal Server Error\r\n"), True),
     (_reply(b"not json"), True)],
    ids=["cut-short", "http-500", "malformed"],
)
def test_batch_failure_uses_one_attempt_and_resends_the_rest(bad):
    # the second score fails once: the first is kept, the second retried,
    # the two sent after it resent on the fresh connection
    replies = [_score_reply(0.1), bad] + [_score_reply(v) for v in (0.2, 0.3, 0.4)]
    with RawReplyService(replies) as service:
        scores, session = _score_batch(service, retries=1)
    assert scores == [0.1, 0.2, 0.3, 0.4]
    assert (session.requests, session.connections, session.resends) == (7, 2, 2)
    assert _samples_of(service.requests) == [[0.0], [1.0], [1.0], [2.0], [3.0]]
    with RawReplyService([_score_reply(0.1), bad]) as service:
        with pytest.raises(ScorerUnavailableError):
            _score_batch(service, retries=0)


def test_batch_connection_close_mid_batch_resends_the_rest():
    close = (_score_reply(0.2, head=b"HTTP/1.1 200 OK\r\nConnection: close\r\n"), True)
    replies = [_score_reply(0.1), close, _score_reply(0.3), _score_reply(0.4)]
    with RawReplyService(replies) as service:
        scores, session = _score_batch(service, retries=0)
    assert scores == [0.1, 0.2, 0.3, 0.4]
    # the service sees each request once, as from sequential scores
    assert _samples_of(service.requests) == SAMPLES
    assert (session.requests, session.connections, session.resends) == (6, 2, 2)
    # the fresh connection starts alone again
    assert service.first_recvs[2] == service.requests[2]


def test_batch_after_a_dropped_connection_sends_one_request_at_a_time():
    # the service closes after every reply without saying so: the pipelined
    # rest is lost once, and from then on each request goes alone
    replies = [(_score_reply(v), True) for v in (0.1, 0.2, 0.3, 0.4)]
    with RawReplyService(replies) as service:
        scores, session = _score_batch(service, retries=0)
    assert scores == [0.1, 0.2, 0.3, 0.4]
    assert _samples_of(service.requests) == SAMPLES
    assert service.first_recvs == service.requests
    assert (session.requests, session.connections, session.resends) == (9, 4, 5)


@pytest.mark.parametrize(
    "head, connections",
    [(b"HTTP/1.0 200 OK\r\n", 4), (b"HTTP/1.0 200 OK\r\nConnection: keep-alive\r\n", 1)],
    ids=["http10", "http10-keep-alive"],
)
def test_batch_to_http10_service_sends_the_sequential_requests(head, connections):
    sent = {}
    for scorer_class in (SequentialRemoteScorer, RemoteScorer):
        replies = [(_score_reply(v, head=head), connections > 1) for v in (0.1, 0.2, 0.3, 0.4)]
        with RawReplyService(replies) as service:
            scores, session = _score_batch(service, scorer_class=scorer_class, retries=0)
        assert scores == [0.1, 0.2, 0.3, 0.4]
        assert (session.requests, session.connections, session.resends) == (4, connections, 0)
        assert service.first_recvs == service.requests  # every request alone
        host = parse_endpoint(service.endpoint).host_header.encode()
        sent[scorer_class] = [r.replace(host, b"HOST") for r in service.requests]
    assert sent[RemoteScorer] == sent[SequentialRemoteScorer]


def test_batch_timeout_uses_one_attempt_of_that_score_only():
    # the third and fourth scores each time out once; with one retry each
    # both still arrive. A late reply comes after the client gave up on it.
    late = (_score_reply(0.0), True, 0.7)
    replies = [_score_reply(0.1), _score_reply(0.2), late, _score_reply(0.3), late,
               _score_reply(0.4)]
    with RawReplyService(replies) as service:
        scores, session = _score_batch(service, timeout=0.5, retries=1)
    assert scores == [0.1, 0.2, 0.3, 0.4]
    assert (session.requests, session.connections, session.resends) == (7, 3, 1)
    assert _samples_of(service.requests) == [[0.0], [1.0], [2.0], [2.0], [3.0], [3.0]]


def test_batch_out_of_range_score_is_contract_violation_in_order():
    replies = [_score_reply(v) for v in (0.1, 0.2, 1.3, 0.4)]
    for scorer_class in (SequentialRemoteScorer, RemoteScorer):
        with RawReplyService(replies) as service:
            with pytest.raises(ScorerContractError, match=r"remote score 1\.3 outside"):
                _score_batch(service, scorer_class=scorer_class, retries=1)
        # surfaced on the first answer, without a retry
        assert _samples_of(service.requests)[:3] == SAMPLES[:3]
        assert _samples_of(service.requests).count([2.0]) == 1


def test_batch_without_quickack_sends_the_sequential_requests(keepalive_service, monkeypatch):
    # without TCP_QUICKACK the session closes after every reply, so it never pipelines
    monkeypatch.setattr(scoring, "_QUICKACK", None)
    keepalive_service.reset(behavior="function", value=lambda sample: sample[0] / 8.0)
    samples = [[float(i)] for i in range(5)]
    scores, session = _score_batch(keepalive_service, samples)
    assert scores == [i / 8.0 for i in range(5)]
    assert keepalive_service.connections == session.connections == 5
    assert [p["sample"] for p in keepalive_service.requests] == samples


def test_batch_deeper_than_one_send(keepalive_service):
    keepalive_service.reset(behavior="function", value=lambda sample: sample[0] / 200.0)
    samples = [[float(i)] for i in range(150)]
    scores, session = _score_batch(keepalive_service, samples)
    assert scores == [i / 200.0 for i in range(150)]
    assert [p["sample"] for p in keepalive_service.requests] == samples
    assert (session.requests, session.connections, session.resends) == (150, 1, 0)


@pytest.mark.parametrize("service", ["score_service", "keepalive_service"])
def test_fd_gradient_pipelined_equals_sequential(request, service):
    """Pipelined probe scores give the gradient bits of the sequential
    loop, and of the local scorer the service runs, and the service sees
    the same request bodies in the same order."""
    service = request.getfixturevalue(service)
    pipeline, local = composite_benchmark(timesteps=5)
    z = np.random.default_rng(3).standard_normal(pipeline.dim)
    expected = grad_latent_fd(z, pipeline, local, coords=[0, 5, 9, 15])
    bodies = {}
    for scorer_class in (SequentialRemoteScorer, RemoteScorer):
        service.reset(behavior="function", value=lambda s: float(local.score(np.array(s))))
        remote = scorer_class(service.endpoint, "a cat", timeout=2.0)
        try:
            got = grad_latent_fd(z, pipeline, remote, coords=[0, 5, 9, 15])
        finally:
            remote.close()
        assert got.tobytes() == expected.tobytes()
        bodies[scorer_class] = [body for _, _, body in service.raw]
    assert len(bodies[RemoteScorer]) == 8
    assert bodies[RemoteScorer] == bodies[SequentialRemoteScorer]
