"""Length-prefixed TCP protocol between a stream server and shot clients.

Frame layout: u32-LE payload length, then payload = tag byte + body.
Payloads are capped at 65535 bytes. All integers little-endian.

==========  ====  =======================================================
message     tag   body
==========  ====  =======================================================
HELLO       0x01  version u8 (currently 1)
HELLO_ACK   0x02  version u8, n u64, num_edges u64, session_id u64
NEXT        0x03  empty
VERTEX      0x04  v u64, label u8
EDGE        0x05  u u64, v u64, label u8
END         0x06  empty
RESULT      0x07  outcome u8 (0 null, 1 yes, 2 no), terminating_step u64
ERROR       0x7F  code u8, message u16-length-prefixed UTF-8
==========  ====  =======================================================

VERTEX, EDGE and END are the stream updates themselves: they encode from
and decode to instances.VertexUpdate, EdgeUpdate and EndOfStream.

Error codes: 1 protocol violation (bad order, unexpected message, version
mismatch), 2 stream exhausted (NEXT after END), 3 malformed frame (closes
the connection).

The server holds one instance; every connection gets an independent cursor
over the same update sequence, so concurrent sessions see the full stream
and no session is ever served an update twice. A session may report a
RESULT at any time after the handshake (clients stop early once a verdict
fires); the server logs it and closes.
"""
from __future__ import annotations

import json
import socket
import struct
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import FrameError, ProtocolError, TransportError
from .instances import (EdgeUpdate, EndOfStream, HMInstance, StreamUpdate, VertexUpdate,
                        to_stream)

MAX_PAYLOAD = 65535
PROTOCOL_VERSION = 1

TAG_HELLO = 0x01
TAG_HELLO_ACK = 0x02
TAG_NEXT = 0x03
TAG_VERTEX = 0x04
TAG_EDGE = 0x05
TAG_END = 0x06
TAG_RESULT = 0x07
TAG_ERROR = 0x7F

ERR_PROTOCOL = 1
ERR_EXHAUSTED = 2
ERR_MALFORMED = 3

OUTCOME_CODES = {"null": 0, "yes": 1, "no": 2}
OUTCOME_NAMES = {v: k for k, v in OUTCOME_CODES.items()}


@dataclass(frozen=True)
class Hello:
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class HelloAck:
    version: int
    n: int
    num_edges: int
    session_id: int


@dataclass(frozen=True)
class Next:
    pass


@dataclass(frozen=True)
class Result:
    outcome: int
    terminating_step: int


@dataclass(frozen=True)
class Error:
    code: int
    message: str


Message = Hello | HelloAck | Next | StreamUpdate | Result | Error


# ---------------------------------------------------------------------------
# codec


def encode(msg: Message) -> bytes:
    """Serialize a message to its payload (tag + body)."""
    if isinstance(msg, Hello):
        return struct.pack("<BB", TAG_HELLO, msg.version)
    if isinstance(msg, HelloAck):
        return struct.pack("<BBQQQ", TAG_HELLO_ACK, msg.version, msg.n, msg.num_edges, msg.session_id)
    if isinstance(msg, Next):
        return struct.pack("<B", TAG_NEXT)
    if isinstance(msg, VertexUpdate):
        _check_label(msg.label)
        return struct.pack("<BQB", TAG_VERTEX, msg.v, msg.label)
    if isinstance(msg, EdgeUpdate):
        _check_label(msg.label)
        return struct.pack("<BQQB", TAG_EDGE, msg.u, msg.v, msg.label)
    if isinstance(msg, EndOfStream):
        return struct.pack("<B", TAG_END)
    if isinstance(msg, Result):
        if msg.outcome not in OUTCOME_NAMES:
            raise FrameError(f"unknown outcome code {msg.outcome}")
        return struct.pack("<BBQ", TAG_RESULT, msg.outcome, msg.terminating_step)
    if isinstance(msg, Error):
        data = msg.message.encode("utf-8")
        if len(data) > 65000:
            raise FrameError("error message too long")
        return struct.pack("<BBH", TAG_ERROR, msg.code, len(data)) + data
    raise FrameError(f"cannot encode {msg!r}")


def _check_label(label: int) -> None:
    if label not in (0, 1):
        raise FrameError(f"label {label} is not a bit")


def _exact(payload: bytes, size: int, what: str) -> None:
    if len(payload) != size:
        raise FrameError(f"{what} payload has {len(payload)} bytes, expected {size}")


def decode(payload: bytes) -> Message:
    """Parse a payload; raises FrameError on any malformation."""
    if not payload:
        raise FrameError("empty payload")
    tag = payload[0]
    if tag == TAG_HELLO:
        _exact(payload, 2, "HELLO")
        return Hello(payload[1])
    if tag == TAG_HELLO_ACK:
        _exact(payload, 26, "HELLO_ACK")
        version, n, num_edges, session_id = struct.unpack("<BQQQ", payload[1:])
        return HelloAck(version, n, num_edges, session_id)
    if tag == TAG_NEXT:
        _exact(payload, 1, "NEXT")
        return Next()
    if tag == TAG_VERTEX:
        _exact(payload, 10, "VERTEX")
        v, label = struct.unpack("<QB", payload[1:])
        _check_label(label)
        return VertexUpdate(v, label)
    if tag == TAG_EDGE:
        _exact(payload, 18, "EDGE")
        u, v, label = struct.unpack("<QQB", payload[1:])
        _check_label(label)
        return EdgeUpdate(u, v, label)
    if tag == TAG_END:
        _exact(payload, 1, "END")
        return EndOfStream()
    if tag == TAG_RESULT:
        _exact(payload, 10, "RESULT")
        outcome, step = struct.unpack("<BQ", payload[1:])
        if outcome not in OUTCOME_NAMES:
            raise FrameError(f"unknown outcome code {outcome}")
        return Result(outcome, step)
    if tag == TAG_ERROR:
        if len(payload) < 4:
            raise FrameError("ERROR payload truncated")
        code, length = struct.unpack("<BH", payload[1:4])
        body = payload[4:]
        if len(body) != length:
            raise FrameError("ERROR message length mismatch")
        try:
            return Error(code, body.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FrameError("ERROR message is not UTF-8") from exc
    raise FrameError(f"unknown tag 0x{tag:02x}")


def frame(payload: bytes) -> bytes:
    if len(payload) > MAX_PAYLOAD:
        raise FrameError(f"payload of {len(payload)} bytes exceeds {MAX_PAYLOAD}")
    return struct.pack("<I", len(payload)) + payload


def _recv_exact(sock: socket.socket, size: int) -> bytes | None:
    """Read exactly `size` bytes; None on orderly EOF at a frame boundary."""
    chunks = []
    got = 0
    while got < size:
        try:
            part = sock.recv(size - got)
        except socket.timeout as exc:
            raise TransportError("socket timed out") from exc
        except OSError as exc:
            raise TransportError(str(exc)) from exc
        if not part:
            if got == 0:
                return None
            raise TransportError("connection closed mid-frame")
        chunks.append(part)
        got += len(part)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """Next payload from the socket; None on orderly close."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if length > MAX_PAYLOAD:
        raise FrameError(f"frame length {length} exceeds {MAX_PAYLOAD}")
    if length == 0:
        raise FrameError("zero-length frame")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def send_message(sock: socket.socket, msg: Message) -> None:
    try:
        sock.sendall(frame(encode(msg)))
    except OSError as exc:
        raise TransportError(str(exc)) from exc


# ---------------------------------------------------------------------------
# server


class StreamServer:
    """Serves one instance to any number of sequential/concurrent sessions."""

    def __init__(self, instance: HMInstance, host: str = "127.0.0.1", port: int = 0,
                 log_path: str | Path | None = None, session_timeout: float = 30.0):
        self.instance = instance
        self.updates = to_stream(instance)
        self.host = host
        self.port = port
        self.log_path = Path(log_path) if log_path else None
        self.session_timeout = session_timeout
        self.session_logs: list[dict] = []
        self._log_file = None
        self._lock = threading.Lock()
        self._next_session = 0
        self._sock: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Open the session log (OSError), then bind and listen (TransportError)."""
        if self.log_path is not None:
            self._log_file = self.log_path.open("a")
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
            sock.listen(64)
        except (OSError, OverflowError) as exc:
            sock.close()
            self.stop()
            raise TransportError(f"cannot bind {self.host}:{self.port}: {exc}") from exc
        sock.settimeout(0.2)
        self._sock = sock
        self.host, self.port = sock.getsockname()
        self._accept_thread = threading.Thread(target=self._accept_loop, daemon=True)
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        with self._lock:
            if self._log_file is not None:
                self._log_file.close()
                self._log_file = None

    def __enter__(self) -> "StreamServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # -- internals ----------------------------------------------------------

    def _accept_loop(self) -> None:
        workers: list[threading.Thread] = []
        while not self._stopping.is_set():
            try:
                conn, _ = self._sock.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            with self._lock:
                session_id = self._next_session
                self._next_session += 1
            worker = threading.Thread(target=self._serve_session, args=(conn, session_id), daemon=True)
            worker.start()
            workers.append(worker)
        for w in workers:
            w.join(timeout=1.0)

    def _log(self, entry: dict) -> None:
        with self._lock:
            self.session_logs.append(entry)
            if self._log_file is not None:
                self._log_file.write(json.dumps(entry, sort_keys=True) + "\n")
                self._log_file.flush()

    def _serve_session(self, conn: socket.socket, session_id: int) -> None:
        conn.settimeout(self.session_timeout)
        started = time.perf_counter()
        cursor = 0
        greeted = False
        ended = False
        result: dict | None = None
        try:
            while True:
                try:
                    payload = read_frame(conn)
                except FrameError as exc:
                    send_message(conn, Error(ERR_MALFORMED, str(exc)))
                    break
                if payload is None:
                    break
                try:
                    msg = decode(payload)
                except FrameError as exc:
                    send_message(conn, Error(ERR_MALFORMED, str(exc)))
                    break
                if isinstance(msg, Hello):
                    if greeted:
                        send_message(conn, Error(ERR_PROTOCOL, "duplicate HELLO"))
                        continue
                    if msg.version != PROTOCOL_VERSION:
                        send_message(conn, Error(ERR_PROTOCOL, f"unsupported version {msg.version}"))
                        continue
                    greeted = True
                    send_message(conn, HelloAck(PROTOCOL_VERSION, self.instance.n,
                                                self.instance.num_edges, session_id))
                elif isinstance(msg, Next):
                    if not greeted:
                        send_message(conn, Error(ERR_PROTOCOL, "NEXT before HELLO"))
                        continue
                    if ended:
                        send_message(conn, Error(ERR_EXHAUSTED, "stream exhausted"))
                        continue
                    update = self.updates[cursor]
                    send_message(conn, update)
                    cursor += 1
                    ended = isinstance(update, EndOfStream)
                elif isinstance(msg, Result):
                    if not greeted:
                        send_message(conn, Error(ERR_PROTOCOL, "RESULT before HELLO"))
                        continue
                    result = {"outcome": OUTCOME_NAMES[msg.outcome],
                              "terminating_step": msg.terminating_step}
                    break
                else:
                    send_message(conn, Error(ERR_PROTOCOL, f"unexpected {type(msg).__name__}"))
        except TransportError:
            pass
        finally:
            conn.close()
            self._log({
                "session_id": session_id,
                "updates_served": cursor,
                "result": result,
                "wall_ms": (time.perf_counter() - started) * 1000.0,
            })


# ---------------------------------------------------------------------------
# client


class StreamSession:
    """Client side of one session: iterate updates, then report a verdict."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        """Connect and handshake. Any failure raises TransportError or
        ProtocolError with the socket closed."""
        host, _, port = endpoint.rpartition(":")
        try:
            self._sock = socket.create_connection((host or "127.0.0.1", int(port)), timeout=timeout)
        except (OSError, ValueError, OverflowError) as exc:
            raise TransportError(f"cannot connect to {endpoint}: {exc}") from exc
        try:
            self._sock.settimeout(timeout)
            send_message(self._sock, Hello())
            ack = self._read()
            if isinstance(ack, Error):
                raise ProtocolError(f"server rejected handshake: {ack.code} {ack.message}")
            if not isinstance(ack, HelloAck):
                raise ProtocolError(f"expected HELLO_ACK, got {type(ack).__name__}")
        except BaseException:
            self.close()
            raise
        self.n = ack.n
        self.num_edges = ack.num_edges
        self.session_id = ack.session_id
        self._done = False

    def _read(self) -> Message:
        payload = read_frame(self._sock)
        if payload is None:
            raise TransportError("server closed the connection")
        return decode(payload)

    def updates(self):
        """Yield stream updates until the end marker (single pass)."""
        while not self._done:
            send_message(self._sock, Next())
            msg = self._read()
            if isinstance(msg, Error):
                raise ProtocolError(f"server error {msg.code}: {msg.message}")
            if not isinstance(msg, StreamUpdate):
                raise ProtocolError(f"unexpected {type(msg).__name__} mid-stream")
            self._done = isinstance(msg, EndOfStream)
            yield msg

    def report(self, verdict: str, terminating_step: int) -> None:
        send_message(self._sock, Result(OUTCOME_CODES[verdict], terminating_step))

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

