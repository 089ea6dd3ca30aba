import socket
import struct
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmstream.errors import FrameError, ProtocolError, TransportError
from hmstream.instances import EdgeUpdate, EndOfStream, VertexUpdate, generate, to_stream
from hmstream.schema import load_schema, validate as validate_schema
from hmstream.wire import (
    ERR_EXHAUSTED,
    ERR_MALFORMED,
    ERR_PROTOCOL,
    Error,
    Hello,
    HelloAck,
    Next,
    Result,
    StreamServer,
    StreamSession,
    decode,
    encode,
    frame,
    read_frame,
    send_message,
)

QUARTER = Fraction(1, 4)

U64 = st.integers(0, 2**64 - 1)
BIT = st.integers(0, 1)

message_strategy = st.one_of(
    st.just(Hello()),
    st.builds(HelloAck, st.integers(0, 255), U64, U64, U64),
    st.just(Next()),
    st.builds(VertexUpdate, U64, BIT),
    st.builds(EdgeUpdate, U64, U64, BIT),
    st.just(EndOfStream()),
    st.builds(Result, st.integers(0, 2), U64),
    st.builds(Error, st.integers(0, 255), st.text(max_size=200)),
)


def wait_for_logs(server, count, timeout=5.0):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if len(server.session_logs) >= count:
            return server.session_logs
        time.sleep(0.01)
    raise AssertionError(f"only {len(server.session_logs)} of {count} sessions logged")


class TestCodec:
    @given(message_strategy)
    @settings(max_examples=500, deadline=None)
    def test_round_trip_identity(self, msg):
        assert decode(encode(msg)) == msg

    def test_every_message_type_round_trips(self):
        for msg in (Hello(), HelloAck(1, 32, 8, 9), Next(), VertexUpdate(31, 1),
                    EdgeUpdate(0, 31, 0), EndOfStream(), Result(2, 31), Error(3, "boom")):
            assert decode(encode(msg)) == msg

    def test_rejects_unknown_tag(self):
        with pytest.raises(FrameError):
            decode(b"\x55")

    def test_rejects_wrong_body_size(self):
        with pytest.raises(FrameError):
            decode(encode(VertexUpdate(1, 0)) + b"\x00")
        with pytest.raises(FrameError):
            decode(encode(EdgeUpdate(1, 2, 0))[:-1])

    def test_rejects_bad_label_and_outcome(self):
        bad_vertex = struct.pack("<BQB", 0x04, 3, 7)
        with pytest.raises(FrameError):
            decode(bad_vertex)
        bad_result = struct.pack("<BBQ", 0x07, 9, 0)
        with pytest.raises(FrameError):
            decode(bad_result)

    def test_rejects_empty_and_oversized_frames(self):
        with pytest.raises(FrameError):
            decode(b"")
        with pytest.raises(FrameError):
            frame(b"\x00" * 70000)

    def test_error_message_length_must_match(self):
        payload = struct.pack("<BBH", 0x7F, 1, 10) + b"short"
        with pytest.raises(FrameError):
            decode(payload)


@pytest.fixture()
def server():
    instance = generate(32, QUARTER, "yes", seed=3)
    srv = StreamServer(instance, session_timeout=5.0)
    srv.start()
    yield srv
    srv.stop()


def raw_connection(srv):
    sock = socket.create_connection(("127.0.0.1", srv.port), timeout=5.0)
    sock.settimeout(5.0)
    return sock


class TestServer:
    def test_handshake_reports_instance_shape(self, server):
        with StreamSession(server.endpoint) as session:
            assert session.n == 32
            assert session.num_edges == 8

    def test_full_stream_order_and_counts(self, server):
        with StreamSession(server.endpoint) as session:
            updates = list(session.updates())
        kinds = [type(u) for u in updates]
        assert kinds[:32] == [VertexUpdate] * 32
        assert kinds[32:40] == [EdgeUpdate] * 8
        assert kinds[40] == EndOfStream
        assert [u.v for u in updates[:32]] == list(range(32))
        assert updates == to_stream(server.instance)

    def test_no_update_delivered_twice(self, server):
        with StreamSession(server.endpoint) as session:
            updates = [u for u in session.updates() if isinstance(u, VertexUpdate)]
        assert len({u.v for u in updates}) == len(updates)

    def test_next_after_end_errors_twice(self, server):
        sock = raw_connection(server)
        send_message(sock, Hello())
        assert isinstance(decode(read_frame(sock)), HelloAck)
        for _ in range(41):
            send_message(sock, Next())
            read_frame(sock)
        for _ in range(2):
            send_message(sock, Next())
            msg = decode(read_frame(sock))
            assert isinstance(msg, Error) and msg.code == ERR_EXHAUSTED
        sock.close()

    def test_next_before_hello(self, server):
        sock = raw_connection(server)
        send_message(sock, Next())
        msg = decode(read_frame(sock))
        assert isinstance(msg, Error) and msg.code == ERR_PROTOCOL
        # the session is still usable after the protocol error
        send_message(sock, Hello())
        assert isinstance(decode(read_frame(sock)), HelloAck)
        sock.close()

    def test_version_mismatch_rejected(self, server):
        sock = raw_connection(server)
        send_message(sock, Hello(version=9))
        msg = decode(read_frame(sock))
        assert isinstance(msg, Error) and msg.code == ERR_PROTOCOL
        sock.close()

    def test_malformed_frame_gets_error_and_close(self, server):
        sock = raw_connection(server)
        sock.sendall(b"\x03\x00\x00\x00" + b"\xee\xee\xee")
        msg = decode(read_frame(sock))
        assert isinstance(msg, Error) and msg.code == ERR_MALFORMED
        assert read_frame(sock) is None  # server closed
        sock.close()

    def test_early_termination_result_logged(self, server):
        with StreamSession(server.endpoint) as session:
            taken = 0
            for update in session.updates():
                taken += 1
                if isinstance(update, EdgeUpdate) and taken >= 35:
                    break
            session.report("yes", 11)
        logs = wait_for_logs(server, 1)
        assert logs[0]["result"] == {"outcome": "yes", "terminating_step": 11}
        schema = load_schema("session_log")
        assert validate_schema(logs[0], schema) == []

    def test_session_isolation_concurrent(self, server):
        s1 = StreamSession(server.endpoint)
        s2 = StreamSession(server.endpoint)
        it1, it2 = s1.updates(), s2.updates()
        seq1, seq2 = [], []
        for _ in range(41):
            seq1.append(next(it1))
            seq2.append(next(it2))
        assert seq1 == seq2  # both sessions see the full ordered stream
        s1.close()
        s2.close()

    def test_sequential_sessions_each_get_full_stream(self, server):
        for _ in range(3):
            with StreamSession(server.endpoint) as session:
                assert len(list(session.updates())) == 41

    def test_session_log_goes_through_one_handle(self, tmp_path):
        log = tmp_path / "sessions.jsonl"
        moved = tmp_path / "moved.jsonl"
        with StreamServer(generate(8, QUARTER, "no", seed=1), log_path=log) as srv:
            log.rename(moved)  # the handle opened at start follows the file
            for _ in range(3):
                with StreamSession(srv.endpoint) as session:
                    list(session.updates())
            wait_for_logs(srv, 3)
            assert len(moved.read_text().splitlines()) == 3  # flushed per session
        assert not log.exists()

    def test_unbindable_port_is_transport_error(self, server):
        with pytest.raises(TransportError):
            StreamServer(server.instance, port=server.port).start()

    def test_mutated_frames_all_rejected(self, server):
        import numpy as np

        rng = np.random.default_rng(77)
        valid = [encode(Next()), encode(Hello()), encode(Result(1, 5))]
        rejected = 0
        trials = 200
        for i in range(trials):
            base = bytearray(valid[i % len(valid)])
            mode = i % 5
            if mode == 0:
                payload = bytes([0x20 + int(rng.integers(0, 90))]) + bytes(base[1:])
            elif mode == 1:
                payload = bytes(base) + bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
            elif mode == 2:
                payload = bytes(base[:-1]) if len(base) > 1 else b"\x00"
            elif mode == 3:
                payload = bytes(rng.integers(0, 256, size=int(rng.integers(1, 30)), dtype=np.uint8))
                if payload[0] in (0x01, 0x03, 0x06):
                    payload = b"\xaa" + payload[1:]
            else:
                # length prefix overstates the payload; pad so the frame
                # completes and the decoder sees the size disagreement
                sock = raw_connection(server)
                sock.sendall(struct.pack("<I", len(base) + 5) + bytes(base) + b"\x99" * 5)
                msg = decode(read_frame(sock))
                assert isinstance(msg, Error)
                sock.close()
                rejected += 1
                continue
            sock = raw_connection(server)
            sock.sendall(frame(payload))
            msg = decode(read_frame(sock))
            assert isinstance(msg, Error), payload
            rejected += 1
            sock.close()
        assert rejected == trials


def one_connection_listener(reply: bytes | None):
    """Listener that accepts one connection, then closes it at once (reply
    None) or after reading the HELLO frame and sending `reply`."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)

    def serve():
        conn, _ = listener.accept()
        with conn:
            if reply is not None:
                read_frame(conn)
                conn.sendall(reply)

    worker = threading.Thread(target=serve, daemon=True)
    worker.start()
    return listener, worker


class TestClientErrors:
    def test_connect_to_dead_endpoint(self):
        with pytest.raises(TransportError):
            StreamSession("127.0.0.1:1", timeout=0.5)

    @pytest.mark.parametrize("endpoint", ["nonsense", "127.0.0.1:", "127.0.0.1:http",
                                          "127.0.0.1:99999999999999999999999"])
    def test_malformed_endpoint_is_transport_error(self, endpoint):
        with pytest.raises(TransportError):
            StreamSession(endpoint, timeout=0.5)

    @pytest.mark.parametrize("reply, error", [
        (None, TransportError),  # accepted, then closed before HELLO_ACK
        (frame(b"\x02\x01"), ProtocolError),  # truncated HELLO_ACK
        (frame(encode(Next())), ProtocolError),  # not a HELLO_ACK
        (frame(encode(Error(ERR_PROTOCOL, "busy"))), ProtocolError),
    ], ids=["closed", "truncated-ack", "not-an-ack", "error-reply"])
    def test_failed_handshake_closes_the_socket(self, monkeypatch, reply, error):
        opened = []
        connect = socket.create_connection

        def recording_connect(*args, **kwargs):
            opened.append(connect(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(socket, "create_connection", recording_connect)
        listener, worker = one_connection_listener(reply)
        try:
            with pytest.raises(error):
                StreamSession(f"127.0.0.1:{listener.getsockname()[1]}", timeout=5.0)
        finally:
            worker.join(timeout=5.0)
            listener.close()
        assert not worker.is_alive()
        assert len(opened) == 1
        assert opened[0].fileno() == -1  # closed by the failed constructor

    def test_server_error_surfaces_as_protocol_error(self, server):
        session = StreamSession(server.endpoint)
        assert len(list(session.updates())) == 41  # single pass stops at end
        session._done = False  # force one illegal NEXT past the end
        with pytest.raises(ProtocolError):
            next(session.updates())
        session.close()
