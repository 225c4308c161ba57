"""The two HTTP/1.1 parsers the repo writes itself, held to the wire contract.

Server side (``repro.server.http``): the framing bugs the stream-reader
transport had (a hostile ``Content-Length`` killing the connection task,
``Transfer-Encoding`` and repeated ``Content-Length`` desynchronising the
stream) are regression-tested over real sockets, with the stdlib's
``http.client`` response parser as the independent witness; Hypothesis
then shows that how a request stream is cut into ``data_received`` calls
never changes the answers, and that arbitrary bytes earn error rows or a
clean close — never a dead server.

Client side (``repro.server.client``): every way a response can be
truncated or malformed ends in a typed ``ClientTransportError`` with the
right ``sent`` flag, never a hang and never a guess.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import json
import socket
import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.multiset import Multiset
from repro.serving.api import QueryRequest
from repro.server import (
    ERROR_TABLE,
    ClientTransportError,
    HttpServer,
    InProcessServer,
    SimilarityClient,
    SimilarityServerApp,
)
from repro.server import client as client_module
from repro.server.http import MAX_BODY_BYTES, MAX_HEAD_BYTES, _HttpConnection
from repro.resilience.retry import RetryPolicy
from tests.conftest import make_random_multisets, unreplicated_fleet

#: Every ``error.code`` a response may carry: the table's rows plus the
#: routing/framing codes that never surface as a ``ReproError``.
KNOWN_CODES = ({code for _, code, _ in ERROR_TABLE}
               | {"bad_request", "not_found", "method_not_allowed"})


def corpus():
    return make_random_multisets(count=16, alphabet_size=12, max_elements=8,
                                 seed=5)


def make_app() -> SimilarityServerApp:
    service = unreplicated_fleet("ruzicka", num_shards=2)
    service.bulk_load(corpus())
    return SimilarityServerApp(service)


def http_request(method: str, path: str, payload=None, *headers: str,
                 version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {path} {version}", "Host: test", *headers]
    body = b""
    if payload is not None:
        body = json.dumps(payload).encode()
        lines.append(f"Content-Length: {len(body)}")
    return "\r\n".join(lines).encode("latin-1") + b"\r\n\r\n" + body


class _Unclosable(io.BytesIO):
    def close(self) -> None:  # http.client closes its file after each read
        pass


def parse_responses(raw: bytes) -> list[tuple[int, str, dict]]:
    """``raw`` as a sequence of responses, read by the stdlib's parser:
    ``(status, Connection header, JSON body)`` each, nothing left over."""
    stream = _Unclosable(raw)

    class Socket:
        def makefile(self, *args, **kwargs):
            return stream

    responses = []
    while stream.tell() < len(raw):
        response = http.client.HTTPResponse(Socket())
        response.begin()
        assert response.getheader("Transfer-Encoding") is None
        body = response.read(int(response.getheader("Content-Length")))
        responses.append((response.status, response.getheader("Connection"),
                          json.loads(body)))
    return responses


def converse(server, data: bytes) -> bytes:
    """Send ``data``, half-close, and read the server's side to its EOF."""
    received = b""
    with socket.create_connection((server.host, server.port),
                                  timeout=10) as connection:
        connection.sendall(data)
        connection.shutdown(socket.SHUT_WR)
        try:
            while chunk := connection.recv(65536):
                received += chunk
        except ConnectionResetError:
            pass  # closed on unread input: TCP's way of saying the same
    return received


@pytest.fixture(scope="module")
def live_server():
    with InProcessServer(make_app()) as server:
        yield server


def assert_one_bad_request(raw: bytes, fragment: str) -> None:
    (status, connection, body), = parse_responses(raw)
    assert (status, connection) == (400, "close")
    assert body["error"]["code"] == "bad_request"
    assert fragment in body["error"]["message"]


# ---------------------------------------------------------------------------
# Server: framing regressions (each fails on the stream-reader transport)
# ---------------------------------------------------------------------------

class TestServerFraming:
    @pytest.mark.parametrize("length", [b"\xb2", b"1" * 5001, b"-1", b"0x10",
                                        b"1 2", b""])
    def test_hostile_content_length_earns_a_400(self, live_server, length):
        raw = converse(live_server,
                       b"POST /query HTTP/1.1\r\nContent-Length: " + length
                       + b"\r\n\r\n{}")
        assert_one_bad_request(raw, "Content-Length")
        with SimilarityClient(live_server.host, live_server.port) as client:
            assert client.health()["status"] == "ok"

    def test_transfer_encoding_is_refused_not_ignored(self, live_server):
        raw = converse(live_server,
                       b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked"
                       b"\r\n\r\n2\r\n{}\r\n0\r\n\r\n")
        assert_one_bad_request(raw, "Transfer-Encoding")

    def test_repeated_content_length_is_refused(self, live_server):
        raw = converse(live_server,
                       b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n"
                       b"Content-Length: 2\r\n\r\n{}xxx")
        assert_one_bad_request(raw, "Content-Length")

    def test_eof_inside_a_body_earns_a_400(self, live_server):
        raw = converse(live_server,
                       b"POST /query HTTP/1.1\r\nContent-Length: 50\r\n\r\n{}")
        assert_one_bad_request(raw, "mid-request")

    def test_eof_inside_a_head_earns_a_400(self, live_server):
        assert_one_bad_request(converse(live_server, b"GET /health HTT"),
                               "mid-request")

    def test_eof_between_requests_is_a_clean_close(self, live_server):
        assert converse(live_server, b"") == b""
        (status, connection, _), = parse_responses(
            converse(live_server, http_request("GET", "/health")))
        assert (status, connection) == (200, "keep-alive")

    def test_oversized_head_and_body_are_refused(self, live_server):
        padding = "X-Padding: " + "x" * (MAX_HEAD_BYTES + 1)
        assert_one_bad_request(
            converse(live_server, http_request("GET", "/health", None,
                                               padding)),
            "head exceeds")
        # The declared length alone is enough: no body is waited for.
        assert_one_bad_request(
            converse(live_server,
                     f"POST /query HTTP/1.1\r\nContent-Length: "
                     f"{MAX_BODY_BYTES + 1}\r\n\r\n".encode()),
            "body exceeds")

    def test_deeply_nested_json_is_a_400_not_a_dead_connection(
            self, live_server):
        body = b"[" * 200_000
        raw = converse(live_server,
                       b"POST /query HTTP/1.1\r\nContent-Length: "
                       + str(len(body)).encode() + b"\r\n\r\n" + body)
        assert_one_bad_request(raw, "not valid JSON")

    def test_connection_close_and_http_1_0_close_the_socket(self, live_server):
        request = QueryRequest.threshold(corpus()[0].with_id("q"), 0.3)
        for data in (http_request("POST", "/query", request.to_json_dict(),
                                  "Connection: close"),
                     http_request("GET", "/health", version="HTTP/1.0")):
            with socket.create_connection(
                    (live_server.host, live_server.port),
                    timeout=10) as connection:
                connection.sendall(data)  # no half-close: the server ends it
                received = b""
                while chunk := connection.recv(65536):
                    received += chunk
            (status, header, _), = parse_responses(received)
            assert (status, header) == (200, "close")

    def test_pipelined_requests_are_answered_in_arrival_order(
            self, live_server):
        paths = ["/health", "/nope", "/admin/replicas", "/health"]
        raw = converse(live_server, b"".join(http_request("GET", path)
                                             for path in paths))
        responses = parse_responses(raw)
        assert [status for status, _, _ in responses] == [200, 404, 200, 200]
        assert "replicas" in responses[2][2]


# ---------------------------------------------------------------------------
# Server: the protocol object, driven chunk by chunk
# ---------------------------------------------------------------------------

class RecordingTransport:
    """What the protocol may ask of its transport, recorded."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False
        self.reading = True

    def write(self, data: bytes) -> None:
        assert not self.closed
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True


async def idle(connection: _HttpConnection) -> None:
    """Let the request in flight (if any) finish."""
    deadline = time.monotonic() + 10
    while connection._task is not None:
        assert time.monotonic() < deadline, "request never finished"
        await asyncio.sleep(0.0005)


async def replay(chunks, *, settle) -> tuple[bytes, int]:
    """Feed ``chunks`` to one connection of a fresh server, then EOF.

    ``settle[i]`` says whether the loop runs until the connection is idle
    after chunk ``i`` (else the next chunk lands while a request may still
    be in flight).  Returns what was written and the largest number of
    bytes the connection ever buffered.
    """
    app = make_app()
    server = HttpServer(app)
    await app.startup()
    try:
        connection, transport = _HttpConnection(server), RecordingTransport()
        connection.connection_made(transport)
        buffered = 0
        for chunk, wait in zip(chunks, settle):
            while not transport.reading:  # a real transport delivers nothing
                await asyncio.sleep(0.0005)
            if transport.closed:
                break
            connection.data_received(chunk)
            buffered = max(buffered, len(connection._incoming.pending))
            if wait:
                await idle(connection)
        if not transport.closed:
            connection.eof_received()
        deadline = time.monotonic() + 10
        while not transport.closed:
            assert time.monotonic() < deadline, "connection never closed"
            await asyncio.sleep(0.0005)
        connection.connection_lost(None)
        assert not server._connections
        return bytes(transport.written), buffered
    finally:
        await app.shutdown()


def request_menu() -> list[bytes]:
    member = corpus()[0]
    query = QueryRequest.threshold(member.with_id("q"), 0.3).to_json_dict()
    topk = QueryRequest.topk(member.with_id("q"), 3).to_json_dict()
    return [
        http_request("GET", "/health"),
        http_request("POST", "/query", query),
        http_request("POST", "/query", topk, "Connection: keep-alive"),
        http_request("POST", "/query/batch", {"requests": [query, topk]}),
        http_request("POST", "/query", {"query": {"id": "q"}}),  # 400, stays
        http_request("GET", "/nope"),
        http_request("DELETE", "/query", {}),
        http_request("POST", "/upsert", {"multiset": {
            "id": "new", "elements": [["e1", 2], ["e2", 1]]}}),
        http_request("GET", "/admin/replicas/"),
    ]


def cut(stream: bytes, points) -> list[bytes]:
    edges = [0, *sorted(set(points)), len(stream)]
    return [stream[start:end] for start, end in zip(edges, edges[1:])
            if start < end]


class TestServerParser:
    @settings(max_examples=25)
    @given(data=st.data())
    def test_chunking_never_changes_the_answers(self, data):
        menu = request_menu()
        picks = data.draw(st.lists(st.integers(0, len(menu) - 1),
                                   min_size=1, max_size=6))
        stream = b"".join(menu[pick] for pick in picks)
        points = data.draw(st.lists(st.integers(1, len(stream) - 1),
                                    max_size=12))
        chunks = cut(stream, points)
        settle = data.draw(st.lists(st.booleans(), min_size=len(chunks),
                                    max_size=len(chunks)))
        whole, _ = asyncio.run(replay([stream], settle=[False]))
        pieces, _ = asyncio.run(replay(chunks, settle=settle))
        assert pieces == whole
        assert len(parse_responses(whole)) == len(picks)

    def test_one_byte_per_data_received(self):
        menu = request_menu()
        stream = menu[1] + menu[0] + menu[7] + menu[1]
        whole, _ = asyncio.run(replay([stream], settle=[False]))
        bytewise, _ = asyncio.run(replay(
            [stream[i:i + 1] for i in range(len(stream))],
            settle=[False] * len(stream)))
        assert bytewise == whole
        assert [status for status, _, _ in parse_responses(whole)] \
            == [200, 200, 200, 200]

    def test_reading_pauses_while_a_request_is_in_flight(self):
        # ~200 KiB of pipelined requests, delivered as fast as the
        # connection will take them: what it holds stays bounded by a
        # head's worth plus the chunk that crossed the line.
        request = request_menu()[1]
        count = 200 * 1024 // len(request) + 1
        stream = request * count
        chunk = 16 * 1024
        chunks = [stream[start:start + chunk]
                  for start in range(0, len(stream), chunk)]
        written, buffered = asyncio.run(
            replay(chunks, settle=[False] * len(chunks)))
        assert len(parse_responses(written)) == count
        assert buffered <= MAX_HEAD_BYTES + chunk

    def test_next_request_waits_for_write_back_pressure(self):
        async def scenario():
            app = make_app()
            server = HttpServer(app)
            await app.startup()
            try:
                connection = _HttpConnection(server)
                transport = RecordingTransport()
                connection.connection_made(transport)
                connection.data_received(http_request("GET", "/health") * 2)
                connection.pause_writing()  # the first answer fills the pipe
                await idle(connection)
                await asyncio.sleep(0.01)
                held = len(parse_responses(bytes(transport.written)))
                started = connection._task is not None
                connection.resume_writing()
                await idle(connection)
                return held, started, len(parse_responses(
                    bytes(transport.written)))
            finally:
                await app.shutdown()

        assert asyncio.run(scenario()) == (1, False, 2)

    FRAGMENTS = [b"GET ", b"POST ", b"/health", b"/query", b" HTTP/1.1",
                 b" HTTP/1.0", b"\r\n", b"\r\n\r\n", b"Content-Length: ",
                 b"Content-Length", b":", b"5", b"0", b"\xb2", b"9" * 30,
                 b"{}", b"{\"query\": 1}", b"Transfer-Encoding: chunked",
                 b"Connection: close", b"\n", b" ", b"\x00", b"HTTP/1."]

    @settings(max_examples=60)
    @given(noise=st.lists(st.one_of(st.sampled_from(FRAGMENTS),
                                    st.binary(max_size=24)),
                          max_size=24))
    def test_arbitrary_bytes_earn_error_rows_or_a_clean_close(
            self, live_server, noise):
        raw = converse(live_server, b"".join(noise))
        responses = parse_responses(raw)
        for position, (status, connection, body) in enumerate(responses):
            if status == 200:
                continue
            error = body["error"]
            assert error["code"] in KNOWN_CODES and error["status"] == status
            if error["code"] == "bad_request" and connection == "close":
                assert position == len(responses) - 1
        with SimilarityClient(live_server.host, live_server.port) as client:
            assert client.health()["status"] == "ok"


# ---------------------------------------------------------------------------
# Client: the response parser against a scripted socket
# ---------------------------------------------------------------------------

class ScriptedSocket:
    """A socket that answers every request with pre-cut chunks.

    After the last chunk ``recv`` reports what the script ends with: EOF
    (``b""``) or the armed read timeout firing on a silent peer.
    """

    def __init__(self, chunks, *, then_timeout=False,
                 send_error: OSError | None = None) -> None:
        self.chunks = [chunk for chunk in chunks if chunk]
        self.then_timeout = then_timeout
        self.send_error = send_error
        self.sent = []
        self.timeouts = []
        self.closed = False

    def setsockopt(self, *args) -> None:
        pass

    def settimeout(self, seconds) -> None:
        self.timeouts.append(seconds)

    def sendall(self, data: bytes) -> None:
        if self.send_error is not None:
            raise self.send_error
        self.sent.append(data)

    def recv(self, size: int) -> bytes:
        if self.chunks:
            chunk = self.chunks.pop(0)
            if len(chunk) > size:
                self.chunks.insert(0, chunk[size:])
            return chunk[:size]
        if self.then_timeout:
            raise socket.timeout("timed out")
        return b""

    def close(self) -> None:
        self.closed = True


def scripted_exchange(chunks, *, method="POST", path="/upsert",
                      body=b"{}", **script):
    """One ``_exchange`` of a fresh client against a scripted socket."""
    scripted = ScriptedSocket(chunks, **script)
    client = SimilarityClient("scripted.invalid", 80, connect_timeout=1.5,
                              read_timeout=2.5,
                              retry_policy=RetryPolicy(max_attempts=1))
    with mock.patch.object(client_module.socket, "create_connection",
                           lambda address, timeout: scripted):
        try:
            return client._exchange(method, path, body), scripted, client
        finally:
            # Whatever happened, the connect timeout gave way to the read
            # timeout before the first byte was awaited.
            assert scripted.timeouts == [2.5]


def response_bytes(status=200, body=b'{"ok": true}', *headers: bytes,
                   length: bytes | None = None, reason=b"OK") -> bytes:
    lines = [b"HTTP/1.1 %d %s" % (status, reason), *headers]
    if length is None:
        length = str(len(body)).encode()
    if length != b"omit":
        lines.append(b"Content-Length: " + length)
    return b"\r\n".join(lines) + b"\r\n\r\n" + body


class TestClientParser:
    def test_a_request_is_one_send_and_a_response_one_parse(self):
        (status, raw), scripted, client = scripted_exchange(
            [response_bytes(200, b'{"a": 1}', b"Connection: keep-alive")])
        assert (status, raw) == (200, b'{"a": 1}')
        assert len(scripted.sent) == 1
        head, _, body = scripted.sent[0].partition(b"\r\n\r\n")
        assert head.startswith(b"POST /upsert HTTP/1.1\r\nHost: ")
        assert b"Content-Length: 2" in head and body == b"{}"
        assert not scripted.closed and client._connection is not None

    def test_connection_close_is_honoured_after_the_exchange(self):
        for answer in (response_bytes(200, b"{}", b"Connection: close"),
                       response_bytes(200, b"{}").replace(b"HTTP/1.1",
                                                          b"HTTP/1.0")):
            (status, _), scripted, client = scripted_exchange([answer])
            assert status == 200
            assert scripted.closed and client._connection is None

    @settings(max_examples=60)
    @given(data=st.data())
    def test_chunking_never_changes_the_parse(self, data):
        body = data.draw(st.binary(max_size=300))
        status = data.draw(st.sampled_from([200, 400, 404, 429, 503]))
        extra = data.draw(st.lists(st.sampled_from(
            [b"Content-Type: application/json", b"Retry-After: 0.250",
             b"X-Empty:", b"connection: Keep-Alive"]), max_size=3))
        answer = response_bytes(status, body, *extra)
        points = data.draw(st.lists(st.integers(1, len(answer) - 1),
                                    max_size=10))
        (parsed_status, raw), _, _ = scripted_exchange(cut(answer, points))
        assert (parsed_status, raw) == (status, body)

    MALFORMED = {
        "nothing at all": [],
        "truncated head": [b"HTTP/1.1 200 OK\r\nContent-Le"],
        "truncated body": [response_bytes(200, b'{"ok"', length=b"12")],
        "missing Content-Length": [response_bytes(200, b"{}",
                                                  length=b"omit")],
        "garbage Content-Length": [response_bytes(200, b"{}", length=b"2x")],
        "non-ASCII Content-Length": [response_bytes(200, b"{}",
                                                    length=b"\xb2")],
        "negative Content-Length": [response_bytes(200, b"{}",
                                                   length=b"-2")],
        "huge Content-Length": [response_bytes(200, b"{}",
                                               length=b"9" * 5001)],
        "duplicate Content-Length": [response_bytes(
            200, b"{}", b"Content-Length: 2")],
        "Transfer-Encoding": [response_bytes(
            200, b"2\r\n{}\r\n0\r\n\r\n", b"Transfer-Encoding: chunked")],
        "101 headers": [response_bytes(
            200, b"{}", *[b"X-%d: y" % i for i in range(100)])],
        "64 KiB + 1 head": [response_bytes(
            200, b"{}", b"X-Padding: " + b"x" * (64 * 1024 + 1))],
        "endless head": [b"HTTP/1.1 200 OK\r\n"] + [b"X: y\r\n"] * 20_000,
        "header without colon": [response_bytes(200, b"{}", b"nonsense")],
        "bad status line": [b"HTTP/2 200\r\nContent-Length: 2\r\n\r\n{}"],
        "four-digit status": [b"HTTP/1.1 2000 OK\r\nContent-Length: 2"
                              b"\r\n\r\n{}"],
        "not HTTP": [b"SSH-2.0-OpenSSH_9.6\r\n\r\n"],
        "bytes beyond the body": [response_bytes(200, b"{}") + b"HTTP/1.1"],
    }

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    @pytest.mark.parametrize("then_timeout", [False, True])
    def test_malformed_answers_raise_sent_true(self, case, then_timeout):
        with pytest.raises(ClientTransportError) as caught:
            scripted_exchange(self.MALFORMED[case],
                              then_timeout=then_timeout)
        assert caught.value.sent

    def test_a_failed_send_is_sent_false(self):
        with pytest.raises(ClientTransportError) as caught:
            scripted_exchange([], send_error=BrokenPipeError("gone"))
        assert not caught.value.sent

    @settings(max_examples=80)
    @given(chunks=st.lists(st.one_of(
        st.binary(max_size=40),
        st.sampled_from([b"HTTP/1.1 200 OK\r\n", b"Content-Length: 2\r\n",
                         b"Content-Length: \xb2\r\n", b"\r\n", b"{}",
                         b"Transfer-Encoding: chunked\r\n", b"HTTP/1.",
                         b"Connection: close\r\n"])), max_size=12),
        then_timeout=st.booleans())
    def test_arbitrary_answers_are_parsed_or_typed_errors(self, chunks,
                                                          then_timeout):
        try:
            (status, raw), _, _ = scripted_exchange(
                chunks, then_timeout=then_timeout)
        except ClientTransportError as error:
            assert error.sent
        else:
            # Only a strictly framed answer gets through.
            answer = b"".join(chunks)
            assert answer.endswith(raw) and 100 <= status <= 999
            assert answer.count(b"\r\n\r\n") >= 1

    def test_a_silent_server_times_out_instead_of_hanging(self):
        # A real socket this time: the peer sends half a head and stalls.
        listener = socket.create_server(("127.0.0.1", 0))
        release = threading.Event()

        def stall():
            peer, _ = listener.accept()
            with peer:
                peer.recv(65536)
                peer.sendall(b"HTTP/1.1 200 OK\r\nContent-Le")
                release.wait(10)

        thread = threading.Thread(target=stall, daemon=True)
        thread.start()
        try:
            client = SimilarityClient(*listener.getsockname()[:2],
                                      read_timeout=0.2,
                                      retry_policy=RetryPolicy(max_attempts=1))
            started = time.monotonic()
            with pytest.raises(ClientTransportError) as caught:
                client.upsert(Multiset("new", {"a": 1}))
            assert caught.value.sent
            assert time.monotonic() - started < 5
            assert client._connection is None
        finally:
            release.set()
            thread.join(timeout=10)
            listener.close()
        assert not thread.is_alive()
