"""Tests for the HTTP/JSON front-end: endpoints, status mapping,
load shedding over HTTP, and the metrics exposition."""

import http.client
import json
import socket
import socketserver
import struct
import sys
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.obs.metrics import parse_prometheus_text
from repro.serving import HTTPFrontend, ShardManager, WorkerSpec

from tests.serving.conftest import SUPPORTED, UNSUPPORTED


@pytest.fixture(scope="module")
def frontend(thread_manager):
    front = HTTPFrontend(thread_manager)
    yield front
    front.close()


def _request(front, path, body=None, method=None):
    """One HTTP exchange; returns (status, headers, parsed body)."""
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(
        front.address + path,
        data=data,
        headers={"Content-Type": "application/json"} if data else {},
        method=method,
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            raw = response.read()
            status, headers = response.status, dict(response.headers)
    except urllib.error.HTTPError as err:
        raw = err.read()
        status, headers = err.code, dict(err.headers)
    content_type = headers.get("Content-Type", "")
    parsed = (
        json.loads(raw) if content_type.startswith("application/json")
        else raw.decode("utf-8")
    )
    return status, headers, parsed


class TestTranslate:
    def test_ok(self, frontend):
        status, _, body = _request(
            frontend, "/translate", {"question": SUPPORTED[0]}
        )
        assert status == 200
        assert body["ok"]
        assert body["query"].startswith("SELECT VARIABLES")
        assert body["shard"] in (0, 1)

    def test_unsupported_is_422_with_tips(self, frontend):
        status, _, body = _request(
            frontend, "/translate", {"question": UNSUPPORTED}
        )
        assert status == 422
        assert body["error"]["type"] == "VerificationError"
        assert body["error"]["tips"]

    def test_missing_question_is_400(self, frontend):
        status, _, body = _request(frontend, "/translate", {"nope": 1})
        assert status == 400
        assert body["error"]["type"] == "BadRequest"

    def test_empty_body_is_400(self, frontend):
        status, _, body = _request(
            frontend, "/translate", method="POST"
        )
        assert status == 400

    def test_invalid_json_is_400(self, frontend):
        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_non_object_body_is_400(self, frontend):
        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b'["a list"]',
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_oversized_body_is_refused(self, frontend):
        """The server refuses the body without draining it: the client
        sees the 413, or a broken pipe if its send was still in
        flight — either way the oversized request never reaches a
        worker."""
        from repro.serving.frontend import MAX_BODY_BYTES

        request = urllib.request.Request(
            frontend.address + "/translate",
            data=b"x" * (MAX_BODY_BYTES + 1),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.URLError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        if isinstance(excinfo.value, urllib.error.HTTPError):
            assert excinfo.value.code == 413

    def test_negative_content_length_is_400_and_closes(self, frontend):
        """Regression: a negative Content-Length used to flow into
        ``rfile.read()``, where ``read(-5)`` means read-to-EOF — on a
        keep-alive connection the stream position becomes unknowable.
        It must be refused up front and the connection closed."""
        parts = urlsplit(frontend.address)
        raw = (
            "POST /translate HTTP/1.1\r\n"
            f"Host: {parts.netloc}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: -5\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=30
        ) as sock:
            sock.sendall(raw)
            sock.settimeout(10)
            data = b""
            closed = False
            try:
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        closed = True
                        break
                    data += chunk
            except socket.timeout:
                closed = False
        status_line = data.split(b"\r\n", 1)[0]
        assert b" 400 " in status_line, status_line
        assert b"non-negative" in data
        assert closed, "a desynced connection must be closed, not reused"

    def test_non_numeric_content_length_is_400(self, frontend):
        parts = urlsplit(frontend.address)
        raw = (
            "POST /translate HTTP/1.1\r\n"
            f"Host: {parts.netloc}\r\n"
            "Content-Type: application/json\r\n"
            "Content-Length: banana\r\n"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        with socket.create_connection(
            (parts.hostname, parts.port), timeout=30
        ) as sock:
            sock.sendall(raw)
            sock.settimeout(10)
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                data += chunk
        assert b" 400 " in data.split(b"\r\n", 1)[0]

    def test_get_is_405(self, frontend):
        status, _, _ = _request(frontend, "/translate")
        assert status == 405


class TestBatch:
    def test_mixed_batch_is_200_with_summary(self, frontend):
        status, _, body = _request(
            frontend, "/batch",
            {"questions": SUPPORTED + [UNSUPPORTED]},
        )
        assert status == 200
        assert body["questions"] == 4
        assert body["ok"] == 3
        assert body["failed"] == 1
        assert body["shed"] == 0
        assert [item["question"] for item in body["items"]] == (
            SUPPORTED + [UNSUPPORTED]
        )

    def test_empty_batch_is_400(self, frontend):
        status, _, _ = _request(frontend, "/batch", {"questions": []})
        assert status == 400

    def test_non_string_question_is_400(self, frontend):
        status, _, _ = _request(
            frontend, "/batch", {"questions": ["ok", 7]}
        )
        assert status == 400


class TestLint:
    def test_lint_question(self, frontend):
        status, _, body = _request(
            frontend, "/lint", {"question": SUPPORTED[0]}
        )
        assert status == 200
        assert body["ok"]
        assert body["exit_code"] == 0
        assert "id" not in body

    def test_lint_query(self, frontend):
        status, _, body = _request(
            frontend, "/lint",
            {"query": "SELECT VARIABLES\nWHERE\n{$x instanceOf Place}"},
        )
        assert status == 200
        assert "diagnostics" in body

    def test_lint_without_input_is_400(self, frontend):
        status, _, _ = _request(frontend, "/lint", {"other": True})
        assert status == 400


class TestStatsAndHealth:
    def test_stats_identity_holds(self, frontend):
        _request(frontend, "/translate", {"question": SUPPORTED[0]})
        status, _, body = _request(frontend, "/stats")
        assert status == 200
        assert body["identity_holds"] is True
        assert body["requests"] == body["accounted"]
        assert len(body["shards"]) == 2

    def test_stats_panel_render(self, frontend):
        status, headers, body = _request(
            frontend, "/stats?format=panel"
        )
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert "== sharded serving ==" in body
        assert "identity: holds" in body

    def test_healthz_ok(self, frontend):
        status, _, body = _request(frontend, "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert set(body["shards"]) == {"0", "1"}

    def test_post_to_stats_is_405(self, frontend):
        status, _, _ = _request(frontend, "/stats", {"x": 1})
        assert status == 405

    def test_unknown_path_is_404(self, frontend):
        status, _, body = _request(frontend, "/nope")
        assert status == 404
        assert body["error"]["type"] == "NotFound"


class TestMetrics:
    def test_exposition_parses_and_has_serving_series(self, frontend):
        _request(frontend, "/translate", {"question": SUPPORTED[0]})
        status, headers, body = _request(frontend, "/metrics")
        assert status == 200
        assert "version=0.0.4" in headers["Content-Type"]
        metrics = parse_prometheus_text(body)
        assert metrics["serving_shed_total"]["type"] == "counter"
        assert metrics["serving_http_requests_total"]["type"] == "counter"
        assert metrics["serving_pending"]["type"] == "gauge"
        assert metrics["serving_workers_alive"]["samples"]

    def test_worker_series_are_federated_with_a_shard_label(
        self, frontend
    ):
        _request(frontend, "/translate", {"question": SUPPORTED[0]})
        # A scrape renders what the last /stats probe saw.
        _, _, stats = _request(frontend, "/stats")
        _, _, body = _request(frontend, "/metrics")
        metrics = parse_prometheus_text(body)

        def shards(name):
            return {
                dict(labels)["shard"]
                for _, labels in metrics[name]["samples"]
            }

        for name in (
            "nl2cm_requests_total", "nl2cm_cache_lookups_total",
            "nl2cm_kb_lint_diagnostics", "planner_plan_cache_total",
        ):
            assert shards(name) == {"0", "1"}, name
        # Stage series exist on the shards that translated something.
        assert shards("nl2cm_stage_seconds") in (
            {"0"}, {"1"}, {"0", "1"}
        )
        assert metrics["nl2cm_stage_seconds"]["type"] == "histogram"
        requests = metrics["nl2cm_requests_total"]["samples"].values()
        assert sum(requests) == stats["total"]["requests"] >= 1

    def test_scrape_does_not_probe_a_busy_worker(self):
        """A stalled worker does not delay /metrics: the scrape sends
        no probe of its own, it renders the last probed series."""
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
        )
        front = HTTPFrontend(manager)
        try:
            manager.submit(SUPPORTED[0])
            manager.stats()
            stall = threading.Thread(
                target=manager.debug_stall, args=(0, 2.0)
            )
            stall.start()
            time.sleep(0.2)
            started = time.monotonic()
            status, _, body = _request(front, "/metrics")
            elapsed = time.monotonic() - started
            stall.join(15.0)
        finally:
            front.close()
            manager.close()
        assert status == 200
        assert elapsed < 1.0
        samples = parse_prometheus_text(body)["nl2cm_requests_total"]
        assert samples["samples"] == {
            ("nl2cm_requests_total", (("shard", "0"),)): 1
        }

    def test_http_counters_label_endpoint_and_status(self, frontend):
        _request(frontend, "/translate", {"question": UNSUPPORTED})
        _, _, body = _request(frontend, "/metrics")
        metrics = parse_prometheus_text(body)
        samples = metrics["serving_http_requests_total"]["samples"]
        key = (
            "serving_http_requests_total",
            (("endpoint", "/translate"), ("status", "422")),
        )
        assert samples.get(key, 0) >= 1


def _keep_alive_exchange(conn, method, path, body=None):
    """One request on a reused ``http.client`` connection."""
    data = json.dumps(body) if body is not None else None
    conn.request(
        method, path, body=data,
        headers={"Content-Type": "application/json"} if data else {},
    )
    response = conn.getresponse()
    return response.status, response.read()


class TestKeepAlive:
    """A reused connection must not wait on the client's delayed ACK:
    a response that leaves as head then body lets Nagle's algorithm
    hold the body ~40 ms, so each response is one socket write."""

    def test_every_response_is_one_socket_write(
        self, frontend, monkeypatch
    ):
        writes = []
        write = socketserver._SocketWriter.write

        def counting_write(self, data):
            writes.append(len(data))  # before sending: the client waits
            return write(self, data)

        monkeypatch.setattr(socketserver._SocketWriter, "write",
                            counting_write)
        conn = http.client.HTTPConnection(
            frontend.host, frontend.port, timeout=30
        )
        try:
            # /stats first so /metrics carries the shards' series.
            _keep_alive_exchange(conn, "GET", "/stats")
            for method, path, body in (
                ("POST", "/translate", {"question": SUPPORTED[0]}),
                ("GET", "/healthz", None),
                ("GET", "/metrics", None),
            ):
                writes.clear()
                status, raw = _keep_alive_exchange(conn, method, path, body)
                assert status == 200, path
                assert len(writes) == 1, (path, writes)
            assert len(raw) > 8192  # larger than a BufferedWriter buffer
        finally:
            conn.close()

    def test_back_to_back_requests_on_one_connection_do_not_stall(
        self, frontend
    ):
        conn = http.client.HTTPConnection(
            frontend.host, frontend.port, timeout=30
        )
        try:
            body = {"question": SUPPORTED[0]}
            status, _ = _keep_alive_exchange(conn, "POST", "/translate", body)
            assert status == 200  # translated once; the rest are hits
            started = time.monotonic()
            for _ in range(20):
                status, _ = _keep_alive_exchange(
                    conn, "POST", "/translate", body
                )
                assert status == 200
            elapsed = time.monotonic() - started
        finally:
            conn.close()
        assert elapsed < 0.4, f"20 keep-alive requests took {elapsed:.2f} s"

    def test_http09_request_gets_the_body_alone(self, frontend):
        with socket.create_connection(
            (frontend.host, frontend.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz\r\n\r\n")
            data = b""
            while chunk := sock.recv(4096):
                data += chunk
        assert json.loads(data)["status"] == "ok"


class TestClientErrors:
    def test_client_reset_is_counted_not_printed(self, frontend, capfd):
        counter = frontend.manager.registry.get("serving_http_requests_total")

        def resets():
            return counter.value(endpoint="other", status="499")

        before = resets()
        capfd.readouterr()
        sock = socket.create_connection(
            (frontend.host, frontend.port), timeout=30
        )
        sock.sendall(b"POST /translate HTTP/1.1\r\nHost: x\r\n")
        time.sleep(0.1)  # the handler is now reading headers
        sock.setsockopt(
            socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
        )
        sock.close()  # RST, not FIN
        deadline = time.monotonic() + 5.0
        while resets() == before and time.monotonic() < deadline:
            time.sleep(0.02)
        assert resets() == before + 1
        assert capfd.readouterr().err == ""

    def test_other_handler_errors_are_still_reported(self, frontend, capfd):
        capfd.readouterr()
        try:
            raise ValueError("handler bug")
        except ValueError:
            frontend._server.handle_error(None, ("127.0.0.1", 0))
        assert "ValueError: handler bug" in capfd.readouterr().err


def _raw_exchange(front, head: str, body: bytes = b"") -> bytes:
    """Send one raw request and read until the server hangs up."""
    with socket.create_connection((front.host, front.port), timeout=30) as sock:
        sock.sendall(head.encode("latin-1") + body)
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    return data


def _status(data: bytes) -> int:
    return int(data.split(b" ", 2)[1])


class TestRequestHead:
    """HTTP/1.0 and HTTP/1.1 request heads are read without the
    ``email`` package; these pin what that reader accepts."""

    def _post(self, front, fields: str, version: str = "HTTP/1.1"):
        body = json.dumps({"question": SUPPORTED[0]}).encode("utf-8")
        fields = fields.replace("{n}", str(len(body)))
        return _raw_exchange(
            front, f"POST /translate {version}\r\n{fields}\r\n", body
        )

    def test_field_names_are_case_insensitive(self, frontend):
        data = self._post(
            frontend, "content-LENGTH: {n}\r\nCONNECTION: close\r\n"
        )
        assert _status(data) == 200
        assert json.loads(data.split(b"\r\n\r\n", 1)[1])["ok"]

    def test_repeated_equal_content_length_is_accepted(self, frontend):
        data = self._post(
            frontend,
            "Content-Length: {n}\r\nContent-Length: {n}\r\n"
            "Connection: close\r\n",
        )
        assert _status(data) == 200

    @pytest.mark.parametrize("fields", [
        "Content-Length: {n}\r\nContent-Length: 2\r\n",  # ambiguous end
        "Content-Length: {n}\r\nX-Folded: a\r\n b\r\n",  # obsolete fold
        "Content-Length: {n}\r\nno colon here\r\n",
        "Content-Length : {n}\r\n",  # whitespace before the colon
    ])
    def test_malformed_heads_are_400_and_close(self, frontend, fields):
        data = self._post(frontend, fields)  # returns once the server closes
        assert _status(data) == 400

    def test_line_count_limit(self, frontend):
        """As in ``http.client``: 100 lines, the closing blank one
        included, so 99 fields."""
        many = "".join(f"X-F{i}: v\r\n" for i in range(97))
        ok = self._post(
            frontend, many + "Content-Length: {n}\r\nConnection: close\r\n"
        )
        assert _status(ok) == 200
        too_many = self._post(
            frontend, many + "X-F97: v\r\nContent-Length: {n}\r\n"
            "Connection: close\r\n",
        )
        assert _status(too_many) == 431

    def test_overlong_field_line_is_431(self, frontend):
        data = self._post(
            frontend, "X-Long: " + "a" * 70000 + "\r\nContent-Length: {n}\r\n"
        )
        assert _status(data) == 431

    def test_http10_closes_unless_asked_to_keep_alive(self, frontend):
        data = self._post(frontend, "Content-Length: {n}\r\n", "HTTP/1.0")
        assert _status(data) == 200  # read to EOF: the server closed
        with socket.create_connection(
            (frontend.host, frontend.port), timeout=30
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.0\r\n"
                         b"Connection: keep-alive\r\n\r\n")
            first = http.client.HTTPResponse(sock)
            first.begin()
            first.read()
            sock.sendall(b"GET /healthz HTTP/1.0\r\n\r\n")
            second = b""
            while chunk := sock.recv(65536):
                second += chunk
        assert first.status == 200
        assert _status(second) == 200

    def test_expect_100_continue(self, frontend):
        body = json.dumps({"question": SUPPORTED[0]}).encode("utf-8")
        with socket.create_connection(
            (frontend.host, frontend.port), timeout=30
        ) as sock:
            sock.sendall(
                f"POST /translate HTTP/1.1\r\nContent-Length: {len(body)}"
                "\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n"
                .encode("ascii")
            )
            interim = sock.recv(65536)
            sock.sendall(body)
            final = b""
            while chunk := sock.recv(65536):
                final += chunk
        assert interim.startswith(b"HTTP/1.1 100 ")
        data = interim.split(b"\r\n\r\n", 1)[1] + final
        assert _status(data) == 200


class TestLoadShedding:
    def test_saturation_returns_429_with_retry_after(self):
        """The acceptance scenario: saturate a 1-shard tier and require
        HTTP 429 + Retry-After, with the sheds visible in
        serving_shed_total."""
        manager = ShardManager(
            shards=1,
            spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
            max_pending=1,
            retry_after=3.0,
        )
        front = HTTPFrontend(manager)
        try:
            stall = threading.Thread(
                target=manager.debug_stall, args=(0, 1.0)
            )
            stall.start()
            time.sleep(0.1)
            filler = threading.Thread(
                target=_request, args=(
                    front, "/translate", {"question": SUPPORTED[0]}
                ),
            )
            filler.start()
            time.sleep(0.15)
            status, headers, body = _request(
                front, "/translate", {"question": SUPPORTED[1]}
            )
            assert status == 429
            assert headers["Retry-After"] == "3"
            assert body["error"]["type"] == "AdmissionRejected"
            assert body["error"]["reason"] == "queue_full"
            stall.join(15.0)
            filler.join(15.0)
            _, _, exposition = _request(front, "/metrics")
            metrics = parse_prometheus_text(exposition)
            shed = metrics["serving_shed_total"]["samples"].get(
                ("serving_shed_total", (("reason", "queue_full"),)), 0
            )
            assert shed >= 1
            _, _, stats = _request(front, "/stats")
            assert stats["identity_holds"] is True
            assert stats["shed"] >= 1
        finally:
            front.close()
            manager.close()


class TestFrontendLifecycle:
    def test_close_is_idempotent(self, thread_manager):
        front = HTTPFrontend(thread_manager)
        address = front.address
        front.close()
        front.close()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(address + "/healthz", timeout=2)

    def test_context_manager(self, thread_manager):
        with HTTPFrontend(thread_manager) as front:
            status, _, _ = _request(front, "/healthz")
            assert status == 200

    def test_close_ends_idle_keep_alive_connections(self, thread_manager):
        front = HTTPFrontend(thread_manager)
        conn = http.client.HTTPConnection(front.host, front.port, timeout=30)
        closer = threading.Thread(target=front.close)
        try:
            assert _keep_alive_exchange(conn, "GET", "/healthz")[0] == 200
            closer.start()
            closer.join(2.0)
            assert not closer.is_alive(), "close() waited on an idle client"
            assert conn.sock.recv(1) == b"", "the server must hang up"
        finally:
            conn.close()  # lets a blocked close() return either way
            if closer.ident is None:  # the exchange failed first
                closer.start()
            closer.join(15.0)
        assert not closer.is_alive()

    def test_close_under_keep_alive_churn(self, thread_manager):
        """More clients than cores, each looping keep-alive requests,
        while close() runs: it returns promptly, every exchange ends in
        a 200 or a closed connection (never a hang), and no connection
        is left marked idle."""
        front = HTTPFrontend(thread_manager)
        outcomes = []

        def client():
            conn = http.client.HTTPConnection(
                front.host, front.port, timeout=10
            )
            try:
                while True:
                    status, _ = _keep_alive_exchange(conn, "GET", "/healthz")
                    outcomes.append(status)
            except (ConnectionError, http.client.HTTPException):
                outcomes.append("closed")
            except OSError as exc:  # e.g. a timeout: a hang
                outcomes.append(repr(exc))
            finally:
                conn.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        clients = [threading.Thread(target=client) for _ in range(8)]
        try:
            for thread in clients:
                thread.start()
            time.sleep(0.3)
            started = time.monotonic()
            front.close()
            elapsed = time.monotonic() - started
            for thread in clients:
                thread.join(15.0)
        finally:
            sys.setswitchinterval(interval)
            front.close()
        assert not any(thread.is_alive() for thread in clients)
        assert elapsed < 2.0
        assert set(outcomes) == {200, "closed"}
        assert outcomes.count("closed") == len(clients)
        assert not front._server._idle

    def test_close_answers_a_request_in_flight(self):
        manager = ShardManager(
            shards=1, spec=WorkerSpec(cache_size=0, debug_ops=True),
            start_method="thread",
        )
        front = HTTPFrontend(manager)
        result = {}
        try:
            stall = threading.Thread(
                target=manager.debug_stall, args=(0, 1.0)
            )
            stall.start()
            time.sleep(0.1)
            client = threading.Thread(
                target=lambda: result.update(status=_request(
                    front, "/translate", {"question": SUPPORTED[0]}
                )[0]),
            )
            client.start()
            time.sleep(0.2)  # the request is queued behind the stall
            front.close()
            client.join(15.0)
            stall.join(15.0)
        finally:
            front.close()
            manager.close()
        assert result == {"status": 200}

    def test_closed_manager_maps_to_503(self):
        manager = ShardManager(
            shards=1, spec=WorkerSpec(cache_size=4),
            start_method="thread",
        )
        front = HTTPFrontend(manager)
        try:
            manager.close()
            status, _, body = _request(
                front, "/translate", {"question": SUPPORTED[0]}
            )
            assert status == 503
            assert body["error"]["type"] == "ServingError"
        finally:
            front.close()
