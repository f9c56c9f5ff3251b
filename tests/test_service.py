"""Tests for the serving tier: protocol, coalescer, service, HTTP, client.

The load-bearing contract is **byte-identity**: a response served through the
coalesced batched path must carry exactly the record the per-request survey
reference (:func:`repro.survey.runner.evaluate_scenario`) produces for the
same scenario — ``elapsed_seconds`` timing aside, the repo-wide convention.
"""

import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.runtime import ConstructionCache
from repro.service import (
    CoalescerClosed,
    ProtocolError,
    ReproService,
    RequestCoalescer,
    ServiceClient,
    ServiceError,
    ServiceHTTPServer,
    ServiceRequest,
    parse_graph_spec,
    serve,
)
from repro.service.coalescer import next_tick
from repro.service.server import _quantile
from repro.survey.runner import SurveyOptions, evaluate_scenario

pytestmark = pytest.mark.smoke


def strip(record_dict):
    return {
        key: value for key, value in record_dict.items() if key != "elapsed_seconds"
    }


def reference_record(request: ServiceRequest):
    options = SurveyOptions(workers=1, with_congestion=request.congestion)
    return evaluate_scenario(request.scenario(), options)


class TestProtocol:
    def test_parse_graph_spec_kinds_and_conveniences(self):
        assert parse_graph_spec("torus:4,6") == ("torus", (4, 6))
        assert parse_graph_spec("mesh: 2,2,3") == ("mesh", (2, 2, 3))
        assert parse_graph_spec("ring:12") == ("torus", (12,))
        assert parse_graph_spec("line:7") == ("mesh", (7,))
        assert parse_graph_spec("hypercube:3") == ("torus", (2, 2, 2))

    @pytest.mark.parametrize(
        "bad", ["blob", "cube:2,2", "torus:", "torus:0,4", "torus:a,b"]
    )
    def test_parse_graph_spec_rejects(self, bad):
        with pytest.raises(ProtocolError):
            parse_graph_spec(bad)

    def test_request_validation(self):
        with pytest.raises(ProtocolError, match="unknown op"):
            ServiceRequest(op="teleport", guest="torus:4,6", host="mesh:4,6")
        with pytest.raises(ProtocolError, match="could not parse"):
            ServiceRequest(op="embed", guest="blob", host="mesh:4,6")
        with pytest.raises(ProtocolError, match="boolean"):
            ServiceRequest(
                op="embed", guest="torus:4,6", host="mesh:4,6", congestion="yes"
            )

    @pytest.mark.parametrize("field", ["strategy", "traffic"])
    @pytest.mark.parametrize("value", [["x"], {"x": 1}, 3], ids=["list", "dict", "int"])
    def test_strategy_and_traffic_must_be_strings(self, field, value):
        # An unhashable value used to reach the shard evaluator and fail
        # every request of its batch.
        payload = {"op": "simulate", "guest": "torus:4,6", "host": "mesh:2,2,2,3"}
        with pytest.raises(ProtocolError, match=f"{field} must be a string"):
            ServiceRequest.from_dict({**payload, field: value})

    def test_from_dict_rejects_stray_and_missing_fields(self):
        with pytest.raises(ProtocolError, match="unknown request field"):
            ServiceRequest.from_dict(
                {"op": "embed", "guest": "torus:4,6", "host": "mesh:4,6", "spin": 1}
            )
        with pytest.raises(ProtocolError, match="missing required"):
            ServiceRequest.from_dict({"op": "embed", "guest": "torus:4,6"})
        with pytest.raises(ProtocolError, match="JSON object"):
            ServiceRequest.from_dict(["embed"])

    def test_scenario_conversion(self):
        embed = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
        scenario = embed.scenario()
        assert scenario.scenario_id == "torus:4,6->mesh:2,2,2,3"
        assert not scenario.traffic
        simulate = ServiceRequest(
            op="simulate",
            guest="torus:4,4",
            host="mesh:2,2,2,2",
            strategy="bfs",
            traffic="transpose",
        )
        assert (
            simulate.scenario().scenario_id == "torus:4,4->mesh:2,2,2,2|bfs|transpose"
        )

    def test_signature_is_the_batch_grouping_key(self):
        a = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
        b = ServiceRequest(
            op="simulate", guest="torus:4,6", host="mesh:2,2,2,3", traffic="transpose"
        )
        assert a.signature == b.signature

    def test_round_trip_dict(self):
        request = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:4,6")
        assert ServiceRequest.from_dict(request.as_dict()) == request


def test_parsing_a_graph_spec_leaves_the_service_stack_unloaded():
    # The spec grammar lives in repro.service.protocol.  Importing it must
    # not load the HTTP server or client: every API call and CLI command
    # that takes a spec string would pay for them.
    import os
    import subprocess
    import sys

    import repro

    script = (
        "import sys\n"
        "import repro.api, repro.cli\n"
        "repro.api.embed('torus:4,4', 'mesh:4,4')\n"
        "repro.cli.parse_graph('torus:4,4')\n"
        "heavy = ('http.server', 'http.client', 'ssl', 'repro.service.server')\n"
        "print(sorted(name for name in heavy if name in sys.modules))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["[]"]


class TestCoalescer:
    def test_concurrent_submissions_coalesce_into_one_batch(self):
        seen = []

        def evaluate(batch):
            seen.append(len(batch))
            return [item * 10 for item in batch]

        with RequestCoalescer(evaluate, window=0.25, max_batch=64) as coalescer:
            with ThreadPoolExecutor(8) as pool:
                futures = list(pool.map(coalescer.submit, range(8)))
            results = sorted(future.result(timeout=10) for future in futures)
        assert results == [0, 10, 20, 30, 40, 50, 60, 70]
        assert max(seen) > 1  # the window really grouped concurrent requests
        stats = coalescer.batch_stats()
        assert stats["coalesced_batches"] >= 1
        assert stats["max_batch_size"] == max(seen)

    def test_max_batch_caps_a_batch(self):
        sizes = []
        release = threading.Event()

        def evaluate(batch):
            release.wait(5)
            sizes.append(len(batch))
            return list(batch)

        with RequestCoalescer(evaluate, window=5.0, max_batch=3) as coalescer:
            futures = [coalescer.submit(index) for index in range(3)]
            release.set()
            for future in futures:
                future.result(timeout=10)
        assert sizes[0] == 3  # dispatched at the cap, not after the window

    def test_requests_queued_while_evaluating_form_one_batch(self):
        sizes = []
        busy, release = threading.Event(), threading.Event()

        def evaluate(batch):
            sizes.append(len(batch))
            busy.set()
            release.wait(10)
            return list(batch)

        with RequestCoalescer(evaluate, window=0.0) as coalescer:
            futures = [coalescer.submit(0)]
            assert busy.wait(10)
            futures += [coalescer.submit(index) for index in range(1, 6)]
            release.set()
            results = [future.result(timeout=10) for future in futures]
        assert results == [0, 1, 2, 3, 4, 5]
        assert sizes == [1, 5]  # no wait when idle, then all that queued

    def test_window_defaults_to_a_10ms_clock(self):
        with RequestCoalescer(lambda batch: list(batch)) as coalescer:
            assert coalescer.window == 0.01
        with ReproService(watchdog_interval=0) as service:
            assert service.coalescer.window == 0.01
        assert build_parser().parse_args(["serve"]).window == 10.0

    def test_batches_leave_on_the_window_clock(self):
        # A request just before a tick leaves alone at that tick; one just
        # after it waits for the next (a window timed from the first request
        # would have taken both).
        window, sizes = 0.4, []

        def evaluate(batch):
            sizes.append(len(batch))
            return list(batch)

        with RequestCoalescer(evaluate, window=window) as coalescer:
            tick = next_tick(time.monotonic() + window / 2, window)
            time.sleep(max(0.0, tick - window / 4 - time.monotonic()))
            first = coalescer.submit(0)
            time.sleep(max(0.0, tick + window / 4 - time.monotonic()))
            second = coalescer.submit(1)
            assert [first.result(timeout=10), second.result(timeout=10)] == [0, 1]
        assert sizes == [1, 1]

    def test_a_request_whose_tick_passed_leaves_when_the_evaluator_frees(self):
        window, started = 0.3, []
        busy, release = threading.Event(), threading.Event()

        def evaluate(batch):
            started.append(time.monotonic())
            busy.set()
            release.wait(10)
            return list(batch)

        with RequestCoalescer(evaluate, window=window) as coalescer:
            first = coalescer.submit(0)
            assert busy.wait(10)
            queued_at = time.monotonic()
            second = coalescer.submit(1)
            time.sleep(max(0.0, next_tick(queued_at, window) - time.monotonic()))
            released_at = time.monotonic()
            release.set()
            assert [first.result(timeout=10), second.result(timeout=10)] == [0, 1]
        assert started[1] - released_at < window / 2  # no second wait

    @pytest.mark.parametrize(
        "moment, window, expected",
        [(0.25, 0.1, 0.3), (0.3, 0.1, 0.3), (1.0, 0.5, 1.0), (7.5, 0.0, 7.5)],
    )
    def test_next_tick(self, moment, window, expected):
        assert next_tick(moment, window) == pytest.approx(expected)

    def test_evaluator_exception_fails_the_batch_futures(self):
        def evaluate(batch):
            raise RuntimeError("kernel exploded")

        with RequestCoalescer(evaluate, window=0.01) as coalescer:
            future = coalescer.submit("request")
            with pytest.raises(RuntimeError, match="kernel exploded"):
                future.result(timeout=10)

    def test_result_count_mismatch_fails_the_batch(self):
        with RequestCoalescer(lambda batch: [], window=0.01) as coalescer:
            future = coalescer.submit("request")
            with pytest.raises(RuntimeError, match="0 results"):
                future.result(timeout=10)

    @pytest.mark.parametrize("window", [-0.01, float("nan"), float("inf")])
    def test_window_must_be_finite_and_non_negative(self, window):
        with pytest.raises(ValueError, match="window must be finite"):
            RequestCoalescer(lambda batch: list(batch), window=window)

    def test_a_window_past_the_longest_thread_wait_still_serves(self):
        with RequestCoalescer(
            lambda batch: list(batch), window=threading.TIMEOUT_MAX * 2, max_batch=2
        ) as coalescer:
            futures = [coalescer.submit(index) for index in range(2)]
            assert [future.result(timeout=10) for future in futures] == [0, 1]

    def test_submit_after_close_raises(self):
        coalescer = RequestCoalescer(lambda batch: list(batch), window=0.01)
        coalescer.close()
        with pytest.raises(CoalescerClosed):
            coalescer.submit("late")
        coalescer.close()  # idempotent


EMBED = ServiceRequest(op="embed", guest="torus:4,6", host="mesh:2,2,2,3")
EMBED_CONGESTION = ServiceRequest(
    op="embed", guest="torus:4,6", host="mesh:2,2,2,3", congestion=True
)
SIMULATE = ServiceRequest(
    op="simulate", guest="torus:4,4", host="mesh:2,2,2,2", traffic="transpose"
)
UNSUPPORTED = ServiceRequest(op="embed", guest="mesh:4,6", host="mesh:3,8")


class TestServiceDifferential:
    @pytest.mark.parametrize(
        "request_", [EMBED, EMBED_CONGESTION, SIMULATE, UNSUPPORTED], ids=str
    )
    def test_response_byte_identical_to_reference_path(self, request_):
        with ReproService(window=0.001) as service:
            record, batch_size = service.handle(request_)
        assert batch_size >= 1
        assert strip(record.as_dict()) == strip(reference_record(request_).as_dict())

    def test_coalesced_batch_byte_identical_to_reference(self):
        requests = [EMBED, SIMULATE, EMBED_CONGESTION, UNSUPPORTED] * 4
        with ReproService(window=0.25, max_batch=64) as service:
            with ThreadPoolExecutor(8) as pool:
                futures = [pool.submit(service.handle, req) for req in requests]
                outcomes = [future.result(timeout=30) for future in futures]
        assert service.coalescer.batch_stats()["max_batch_size"] > 1
        for request_, (record, _) in zip(requests, outcomes):
            assert strip(record.as_dict()) == strip(
                reference_record(request_).as_dict()
            )

    def test_resident_cache_warms_across_requests(self):
        with ReproService(window=0.001) as service:
            service.handle(EMBED)
            service.handle(EMBED)
            cache = service.context.cache
            assert cache is not None and cache.hits > 0


class TestCacheSnapshots:
    def test_periodic_snapshot_and_warm_restart(self, tmp_path):
        path = tmp_path / "service-cache.pkl"
        with ReproService(
            window=0.001, cache_path=str(path), snapshot_interval=0.0
        ) as service:
            service.handle(EMBED)
            deadline = time.monotonic() + 10
            while not path.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        assert path.exists()
        warm = ConstructionCache.load(path)
        assert warm.construction_count >= 1
        with ReproService(window=0.001, cache_path=str(path)) as restarted:
            restarted.handle(EMBED)
            cache = restarted.context.cache
            assert cache is not None and cache.hits > 0  # warm from the snapshot

    def test_close_takes_a_final_snapshot(self, tmp_path):
        path = tmp_path / "final.pkl"
        service = ReproService(
            window=0.001, cache_path=str(path), snapshot_interval=3600
        )
        service.handle(EMBED)
        assert not path.exists()  # interval far away: no periodic snapshot yet
        service.close()
        assert ConstructionCache.load(path).construction_count >= 1


@pytest.mark.parametrize(
    "values, q, expected",
    [
        ([1, 2, 3, 4], 0.50, 2),
        (list(range(1, 101)), 0.99, 99),
        (list(range(1, 11)), 0.90, 9),
        (list(range(1, 11)), 0.95, 10),
        ([1, 2, 3], 0.50, 2),
        ([7], 0.99, 7),
        ([], 0.50, 0.0),
    ],
)
def test_quantile_is_nearest_rank(values, q, expected):
    assert _quantile(values, q) == expected


@pytest.fixture(scope="class")
def http_service():
    service = ReproService(window=0.02)
    server = serve(service, "127.0.0.1", 0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    client = ServiceClient(f"http://{host}:{port}", timeout=30.0)
    client.wait_until_ready()
    try:
        yield service, client, f"http://{host}:{port}"
    finally:
        client.close()
        server.shutdown()
        server.server_close()
        service.close()


class TestHTTPEndToEnd:
    def test_embed_round_trip(self, http_service):
        _, client, _ = http_service
        response = client.embed("torus:4,6", "mesh:2,2,2,3")
        assert response["ok"] and response["record"]["dilation"] == 1
        assert strip(response["record"]) == strip(reference_record(EMBED).as_dict())

    def test_simulate_round_trip(self, http_service):
        _, client, _ = http_service
        response = client.simulate("torus:4,4", "mesh:2,2,2,2", traffic="transpose")
        assert response["record"]["status"] == "ok"
        assert response["record"]["makespan"] is not None

    def test_invoke_with_explicit_op(self, http_service):
        _, client, _ = http_service
        response = client.invoke(
            {"op": "embed", "guest": "ring:12", "host": "mesh:3,4"}
        )
        assert response["record"]["status"] == "ok"

    def test_concurrent_http_requests_coalesce(self, http_service):
        service, _, url = http_service

        def fire(_):
            with ServiceClient(url, timeout=30.0) as client:
                return client.embed("torus:4,6", "mesh:2,2,2,3")

        with ThreadPoolExecutor(8) as pool:
            responses = list(pool.map(fire, range(12)))
        assert all(response["record"]["dilation"] == 1 for response in responses)
        assert any(response["meta"]["coalesced"] for response in responses)
        assert service.coalescer.batch_stats()["max_batch_size"] > 1

    def test_stats_document(self, http_service):
        _, client, _ = http_service
        client.embed("torus:4,6", "mesh:2,2,2,3")
        stats = client.stats()
        assert stats["requests"] >= 1
        assert stats["latency_ms"]["p50"] >= 0
        assert stats["latency_ms"]["p99"] >= stats["latency_ms"]["p50"]
        assert stats["coalescer"]["batches"] >= 1
        assert stats["cache"]["constructions"] >= 1
        assert stats["backend"] in ("array", "loop")

    def test_health(self, http_service):
        _, client, _ = http_service
        assert client.health()["ok"] is True

    def test_unknown_path_is_404(self, http_service):
        _, client, _ = http_service
        with pytest.raises(ServiceError) as excinfo:
            client._request("GET", "/nope")
        assert excinfo.value.status == 404

    def test_malformed_request_is_400(self, http_service):
        _, client, _ = http_service
        with pytest.raises(ServiceError) as excinfo:
            client.invoke({"op": "embed", "guest": "blob", "host": "mesh:4,6"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.invoke({"op": "embed", "guest": "torus:4,6"})
        assert excinfo.value.status == 400
        with pytest.raises(ServiceError) as excinfo:
            client.simulate("torus:4,6", "mesh:2,2,2,3", traffic=["x"])
        assert excinfo.value.status == 400

    def test_client_unreachable_server(self):
        client = ServiceClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(OSError):
            client.embed("torus:4,6", "mesh:4,6")


class _RecordingSocket(socket.socket):
    """An accepted connection that records each send/sendall call."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.writes = []

    def send(self, data, *flags):
        self.writes.append(bytes(data))
        return super().send(data, *flags)

    def sendall(self, data, *flags):
        self.writes.append(bytes(data))
        return super().sendall(data, *flags)


class _RecordingServer(ServiceHTTPServer):
    def __init__(self, address, service):
        super().__init__(address, service)
        self.accepted = []

    def get_request(self):
        connection, address = super().get_request()
        recording = _RecordingSocket(
            connection.family,
            connection.type,
            connection.proto,
            fileno=connection.detach(),
        )
        self.accepted.append(recording)
        return recording, address


EMBED_BODY = b'{"guest": "torus:4,6", "host": "mesh:2,2,2,3"}'


def _post(path, length, body=EMBED_BODY, extra=b""):
    head = b"POST %s HTTP/1.1\r\nHost: test\r\nContent-Length: %s\r\n%s\r\n"
    return head % (path, length, extra) + body


def _read_response(sock, data=b""):
    """One response off a raw socket: (status, headers, body, bytes after)."""
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(4096)
        assert chunk, f"EOF inside a response head: {data!r}"
        data += chunk
    head, _, rest = data.partition(b"\r\n\r\n")
    status, *lines = head.decode("latin-1").split("\r\n")
    headers = {
        name.strip().lower(): value.strip()
        for name, value in (line.split(":", 1) for line in lines)
    }
    length = int(headers.get("content-length", 0))
    while len(rest) < length:
        chunk = sock.recv(4096)
        assert chunk, "EOF inside a response body"
        rest += chunk
    return status, headers, rest[:length], rest[length:]


def _read_to_eof(sock, data=b""):
    while True:
        chunk = sock.recv(4096)
        if not chunk:
            return data
        data += chunk


class TestHTTPTransport:
    """Wire-level behaviour of the front end, on raw sockets (no timing)."""

    def test_response_leaves_in_one_send_on_a_nodelay_socket(self):
        with ReproService(watchdog_interval=0) as service:
            server = _RecordingServer(("127.0.0.1", 0), service)
            threading.Thread(target=server.serve_forever, daemon=True).start()
            connection = http.client.HTTPConnection(
                *server.server_address[:2], timeout=30
            )
            try:
                connection.request("POST", "/embed", body=EMBED_BODY)
                response = connection.getresponse()
                body = response.read()
                assert response.status == 200 and json.loads(body)["ok"]
                (accepted,) = server.accepted
                assert accepted.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
                assert len(accepted.writes) == 1  # headers and body together
                assert accepted.writes[0].startswith(b"HTTP/1.1 200")
                assert accepted.writes[0].endswith(body)
            finally:
                connection.close()
                server.shutdown()
                server.server_close()

    @pytest.mark.parametrize("length", [b"-1", b"abc"])
    def test_invalid_content_length_is_one_400_then_eof(self, http_service, length):
        _, client, _ = http_service
        with socket.create_connection((client.host, client.port), timeout=2) as sock:
            sock.sendall(_post(b"/embed", length))
            status, headers, body, rest = _read_response(sock)
            rest = _read_to_eof(sock, rest)
        assert status.startswith("HTTP/1.1 400")
        assert headers["connection"] == "close"
        assert "Content-Length" in json.loads(body)["error"]
        assert rest == b""  # one response, then the server closed

    def test_unknown_post_path_reads_its_body(self, http_service):
        _, client, _ = http_service
        with socket.create_connection((client.host, client.port), timeout=2) as sock:
            sock.sendall(_post(b"/nope", b"%d" % len(EMBED_BODY)))
            status, _, _, rest = _read_response(sock)
            assert status.startswith("HTTP/1.1 404")
            sock.sendall(b"GET /health HTTP/1.1\r\nHost: test\r\n\r\n")
            status, _, body, _ = _read_response(sock, rest)
        assert status.startswith("HTTP/1.1 200") and json.loads(body)["ok"]

    def test_expect_100_continue_is_answered_before_the_body(self, http_service):
        _, client, _ = http_service
        with socket.create_connection((client.host, client.port), timeout=2) as sock:
            expect = b"Expect: 100-continue\r\n"
            sock.sendall(_post(b"/embed", b"%d" % len(EMBED_BODY), b"", expect))
            status, _, _, rest = _read_response(sock)
            assert status.startswith("HTTP/1.1 100")
            sock.sendall(EMBED_BODY)
            status, _, body, _ = _read_response(sock, rest)
        assert status.startswith("HTTP/1.1 200")
        assert json.loads(body)["record"]["dilation"] == 1


class TestServeDaemon:
    def test_sigterm_shuts_down_cleanly_with_final_snapshot(self, tmp_path):
        import os
        import signal
        import subprocess
        import sys

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (
                str(Path(repro.__file__).resolve().parents[1]),
                env.get("PYTHONPATH"),
            )
            if part
        )
        cache = tmp_path / "serve-cache.pkl"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--port",
                "0",
                "--cache",
                str(cache),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            banner = process.stdout.readline()
            assert "listening on http://" in banner
            url = banner.split()[4]
            with ServiceClient(url, timeout=30.0) as client:
                client.wait_until_ready(timeout=30.0)
                assert client.embed("torus:4,6", "mesh:2,2,2,3")["ok"]
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()
        output = process.stdout.read()
        assert "draining" in output
        assert "shutdown complete" in output
        assert ConstructionCache.load(cache).construction_count >= 1


class TestInvokeCLI:
    def test_invoke_against_live_server(self, http_service, capsys):
        from repro.cli import main

        _, _, url = http_service
        assert (
            main(
                [
                    "invoke",
                    "embed",
                    "--url",
                    url,
                    "--guest",
                    "torus:4,6",
                    "--host",
                    "mesh:2,2,2,3",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "dilation" in out and "batch of" in out
        assert main(["invoke", "stats", "--url", url]) == 0
        assert "coalescer" in capsys.readouterr().out

    def test_invoke_requires_guest_and_host(self, capsys):
        from repro.cli import main

        assert main(["invoke", "embed", "--url", "http://127.0.0.1:1"]) == 2
        assert "requires --guest" in capsys.readouterr().err

    def test_invoke_unreachable_server_fails_cleanly(self, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "invoke",
                    "embed",
                    "--url",
                    "http://127.0.0.1:1",
                    "--timeout",
                    "0.5",
                    "--guest",
                    "torus:4,6",
                    "--host",
                    "mesh:4,6",
                ]
            )
            == 1
        )
        assert "could not reach" in capsys.readouterr().err
