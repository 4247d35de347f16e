"""Two-party execution of the distributed protocol over a classical channel.

The global state vector lives with a referee, which is a simulation
artifact: the parties are spatially separated and only ever issue requests
for operations on subsystems they own, plus classical values.  The referee
drives locc.execute_script, which samples the measurements; it enforces
ownership on every request and relays classical values between the parties.

Wire format: each message is framed as a 4-byte little-endian unsigned
length prefix followed by a UTF-8 JSON object with exactly the keys
{seq, sender, kind, payload} in that order.  Frames above MAX_FRAME_BYTES
(1 MiB) are rejected.  Each direction of a connection numbers its
messages with a strictly increasing seq.  A connection's first message
must be a HANDSHAKE carrying (role, M, N, function-table hash) so both
ends agree on the protocol instance before any quantum step.  An end that
fails sends one ERROR (code, message) with its cause before it closes.

An OP_REQUEST carries its operator in one of two shapes.  A monomial
operator (a permutation times phases: steps 1, 3, 4 and 7) is sent as
{operation, targets, source, phases}, row i of the matrix holding
phases[i] = [re, im] in column source[i], so the frame grows with d and
not with d * d.  Any other operator (the step-5 DFT) is sent as
{operation, targets, matrix}, the d x d matrix as nested [re, im] pairs.

Two transports carry the same bytes: an in-process queue pair and a TCP
socket.  Runs are deterministic given (f, input, seed), so transcripts
are byte-identical across transports.
"""

from __future__ import annotations

import json
import queue
import socket
import struct
import threading
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .locc import (
    OWNERS,
    ScriptStep,
    Transcript,
    authorized,
    build_locc_script,
    build_step_operator,
    execute_script,
    wire_bits,
)
from .oracle import FunctionTable, build_partition
from .quantum import UNITARY_TOL, LocalOperator, StateVector, apply_local

MAX_FRAME_BYTES = 1 << 20
MAX_ERROR_TEXT = 1000  # characters of cause text an ERROR frame carries or is read for
DEFAULT_TIMEOUT = 5.0

# The message kinds, each with its payload key sets; a payload has exactly one of them.
_PAYLOAD_KEYS = {
    "CLASSICAL_VALUE": ({"value", "bits"},),
    # a dense matrix, or a monomial's source and phases
    "OP_REQUEST": ({"operation", "targets", "matrix"}, {"operation", "targets", "source", "phases"}),
    "MEASURE_REQUEST": ({"subsystem"},),
    "MEASURE_RESULT": ({"subsystem", "outcome"},),
    "HANDSHAKE": ({"role", "m", "n", "f_sha256"}, {"status"}),  # party hello, referee ready
    "ERROR": ({"code", "message"},),
}


class WireFormatError(ValueError):
    """Malformed, oversize, or schema-violating wire data."""


class LocalityViolation(RuntimeError):
    """A party requested an operation outside its owned subsystems."""


class ProtocolOrderError(RuntimeError):
    """A message arrived out of script order or with a non-increasing seq."""


class TransportError(RuntimeError):
    """Connection failed, timed out, or closed mid-protocol."""


class HandshakeMismatch(RuntimeError):
    """The two endpoints disagree about the protocol instance."""


_ERROR_TYPES = {
    "LOCALITY_VIOLATION": LocalityViolation,
    "PROTOCOL_ORDER": ProtocolOrderError,
    "TRANSPORT": TransportError,
    "WIRE_FORMAT": WireFormatError,
    "HANDSHAKE_MISMATCH": HandshakeMismatch,
}


@dataclass(frozen=True)
class WireMessage:
    seq: int
    sender: str
    kind: str
    payload: dict


def encode_wire(msg: WireMessage) -> bytes:
    """Frame a message: length prefix plus JSON with fixed key order."""
    body = json.dumps(
        {"seq": msg.seq, "sender": msg.sender, "kind": msg.kind, "payload": msg.payload}
    ).encode("utf-8")
    _refuse_oversize("frame length", len(body))
    return struct.pack("<I", len(body)) + body


def _refuse_oversize(what: str, length: int) -> None:
    # MAX_FRAME_BYTES is read at call time, so a lowered cap is the one named.
    if length > MAX_FRAME_BYTES:
        raise WireFormatError(f"{what} {length} exceeds the {MAX_FRAME_BYTES}-byte cap")


def decode_wire(frame: bytes) -> WireMessage:
    """Parse one framed message, validating structure and payload schema."""
    if len(frame) < 4:
        raise WireFormatError("frame shorter than the 4-byte length prefix")
    (length,) = struct.unpack("<I", frame[:4])
    _refuse_oversize("declared frame length", length)
    if len(frame) != 4 + length:
        raise WireFormatError(f"frame length {len(frame) - 4} does not match declared {length}")
    try:
        pairs = json.loads(frame[4:].decode("utf-8"), object_pairs_hook=list)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise WireFormatError(f"frame body is not valid JSON: {exc}") from exc
    if not _is_object(pairs) or [k for k, _ in pairs] != ["seq", "sender", "kind", "payload"]:
        raise WireFormatError("message keys must be exactly (seq, sender, kind, payload) in order")
    fields = dict(pairs)
    seq, sender, kind, payload = fields["seq"], fields["sender"], fields["kind"], fields["payload"]
    if not _is_int(seq) or seq < 0:
        raise WireFormatError("seq must be a non-negative integer")
    if not isinstance(sender, str):
        raise WireFormatError("sender must be a string")
    if not isinstance(kind, str) or kind not in _PAYLOAD_KEYS:
        raise WireFormatError(f"unknown message kind {kind!r}")
    if not _is_object(payload):
        raise WireFormatError("payload must be a JSON object")
    if len(dict(payload)) != len(payload):
        raise WireFormatError("payload has duplicate keys")
    payload = dict(payload)
    _check_payload(kind, payload)
    return WireMessage(seq, sender, kind, payload)


def _check_payload(kind: str, payload: dict) -> None:
    shapes = _PAYLOAD_KEYS[kind]
    if set(payload) not in shapes:
        raise WireFormatError(
            f"{kind} payload keys must be exactly {' or '.join(str(sorted(s)) for s in shapes)}"
        )
    if kind == "CLASSICAL_VALUE":
        value, bits = payload["value"], payload["bits"]
        if not (_is_int(value) and _is_int(bits)):
            raise WireFormatError("CLASSICAL_VALUE value and bits must be integers")
        # A 0-bit width admits only the value 0 (the degenerate single-branch case).
        # bit_length, not 1 << bits: bits comes from the peer and may be huge.
        if bits < 0 or value < 0 or value.bit_length() > bits:
            raise WireFormatError(f"value {value} does not fit in {bits} declared bits")
    elif kind in ("MEASURE_REQUEST", "MEASURE_RESULT"):
        if not isinstance(payload["subsystem"], str):
            raise WireFormatError(f"{kind} subsystem must be a string")
        outcome = payload.get("outcome")
        if kind == "MEASURE_RESULT" and not (_is_int(outcome) and outcome >= 0):
            raise WireFormatError("MEASURE_RESULT outcome must be a non-negative integer")
    elif kind == "ERROR":
        code = payload["code"]
        if not (isinstance(code, str) and code in _ERROR_TYPES):
            raise WireFormatError(f"ERROR code must be one of {sorted(_ERROR_TYPES)}")
        if not isinstance(payload["message"], str):
            raise WireFormatError("ERROR message must be a string")


def _is_object(x) -> bool:
    """True for a decoded JSON object: object_pairs_hook=list makes it a list of (key, value) tuples.

    A JSON array decodes to a list too, but its elements are never tuples.
    """
    return isinstance(x, list) and all(isinstance(p, tuple) for p in x)


def _is_int(x) -> bool:
    """True for a JSON integer; JSON true and false decode to bool and are not integers."""
    return isinstance(x, int) and not isinstance(x, bool)


def encode_matrix(values: np.ndarray) -> list:
    """Complex array, matrix or vector, as nested [re, im] pairs for the JSON payload."""
    z = np.asarray(values, dtype=np.complex128)
    return np.stack((z.real, z.imag), axis=-1).tolist()


def decode_matrix(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise WireFormatError("matrix payload must be a nonempty list of rows")
    if not (set(map(type, data)) <= {list} and set(map(len, data)) == {len(data)}):
        raise WireFormatError("matrix payload must be square")
    cells = _decode_pairs(list(chain.from_iterable(data)), "matrix entries")
    return cells.reshape(len(data), len(data))


def _decode_pairs(pairs: list, what: str) -> np.ndarray:
    """A list of [re, im] JSON-number pairs as complex values, bit for bit.

    Each check is one C-level pass over exact types: on decoded JSON, int
    is a JSON integer (true and false decode to bool) and a JSON object is a
    list of tuples (see _is_object).
    """
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}
            and set(map(type, chain.from_iterable(pairs))) <= {int, float}):
        raise WireFormatError(f"{what} must be [re, im] pairs of numbers")
    try:
        return np.fromiter(chain.from_iterable(pairs), np.float64, 2 * len(pairs)).view(np.complex128)
    except OverflowError:
        raise WireFormatError(f"{what} must fit in a double") from None


# --- channels -------------------------------------------------------------

class QueueChannel:
    """In-process byte channel: frames still pass through the wire codec."""

    def __init__(self, outgoing: "queue.Queue[bytes | None]", incoming: "queue.Queue[bytes | None]",
                 timeout: float = DEFAULT_TIMEOUT):
        self._out = outgoing
        self._in = incoming
        self._timeout = timeout

    @staticmethod
    def pair(timeout: float = DEFAULT_TIMEOUT) -> tuple["QueueChannel", "QueueChannel"]:
        there, back = queue.Queue(), queue.Queue()
        return QueueChannel(there, back, timeout), QueueChannel(back, there, timeout)

    def send(self, frame: bytes) -> None:
        self._out.put(frame)

    def recv(self) -> bytes | None:
        try:
            return self._in.get(timeout=self._timeout)
        except queue.Empty:
            raise TransportError(f"no message within {self._timeout} s") from None

    def close(self) -> None:
        self._out.put(None)


class SocketChannel:
    """TCP byte channel; reads exactly one frame at a time.

    Each frame must arrive whole within the timeout of the recv call that
    reads it, however the peer spaces its bytes; each send has the same
    timeout.
    """

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        self._sock = sock
        self._timeout = timeout

    def send(self, frame: bytes) -> None:
        try:
            self._sock.settimeout(self._timeout)
            self._sock.sendall(frame)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc

    def recv(self) -> bytes | None:
        deadline = time.monotonic() + self._timeout
        prefix = self._recv_exact(4, deadline, eof_ok=True)
        if prefix is None:
            return None
        (length,) = struct.unpack("<I", prefix)
        _refuse_oversize("declared frame length", length)
        return prefix + self._recv_exact(length, deadline, eof_ok=False)

    def _recv_exact(self, count: int, deadline: float, eof_ok: bool) -> bytes | None:
        chunks = bytearray()
        while len(chunks) < count:
            remaining = deadline - time.monotonic()
            try:
                if remaining <= 0:
                    raise socket.timeout
                self._sock.settimeout(remaining)
                chunk = self._sock.recv(count - len(chunks))
            except socket.timeout:
                raise TransportError("no whole frame within the per-message deadline") from None
            except OSError as exc:
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                if eof_ok and not chunks:
                    return None
                raise TransportError("connection closed mid-frame")
            chunks.extend(chunk)
        return bytes(chunks)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._sock.close()


class Connection:
    """Seq-numbered message stream over a byte channel.

    Outgoing messages are numbered 1, 2, ... per connection; incoming seq
    must strictly increase.  An ERROR raises the type its code names, with
    at most MAX_ERROR_TEXT characters of its message; on a connection whose
    `peer` the referee has set, TransportError("<peer> failed: <Type>: ...").
    """

    def __init__(self, channel, local_id: str):
        self.channel = channel
        self.local_id = local_id
        self.peer: str | None = None
        self._next_seq = 1
        self._last_seen = 0

    def send(self, kind: str, payload: dict, sender: str | None = None) -> WireMessage:
        msg = WireMessage(self._next_seq, sender or self.local_id, kind, payload)
        self._next_seq += 1
        self.channel.send(encode_wire(msg))
        return msg

    def recv(self, expect: tuple[str, ...] | None = None) -> WireMessage:
        msg = self._next()
        if msg is None:
            raise TransportError("connection closed")
        if expect is not None and msg.kind not in expect:
            raise ProtocolOrderError(f"expected {expect}, got {msg.kind}")
        return msg

    def wait_closed(self) -> None:
        if self._next() is not None:
            raise ProtocolOrderError("unexpected message after protocol completion")

    def _next(self) -> WireMessage | None:
        """The next message, or None at the peer's EOF; an ERROR raises."""
        frame = self.channel.recv()
        if frame is None:
            return None
        msg = decode_wire(frame)
        if msg.seq <= self._last_seen:
            raise ProtocolOrderError(
                f"seq {msg.seq} does not increase past {self._last_seen}"
            )
        self._last_seen = msg.seq
        if msg.kind == "ERROR":
            cause = _ERROR_TYPES[msg.payload["code"]](_clip(msg.payload["message"]))
            if self.peer is None:
                raise cause
            raise TransportError(f"{self.peer} failed: {type(cause).__name__}: {cause}") from cause
        return msg

    def close(self) -> None:
        self.channel.close()


def _clip(text: str) -> str:
    return text if len(text) <= MAX_ERROR_TEXT else text[: MAX_ERROR_TEXT - 3] + "..."


def _send_error(connections: list[Connection], exc: Exception) -> None:
    """Tell each peer why this end fails, in one ERROR frame; a dead channel is skipped."""
    code = next((c for c, t in _ERROR_TYPES.items() if isinstance(exc, t)), "PROTOCOL_ORDER")
    for conn in connections:
        try:
            conn.send("ERROR", {"code": code, "message": _clip(str(exc))})
        except (TransportError, OSError):
            pass


# --- referee --------------------------------------------------------------

class Referee:
    """Holds the global state and plays both parties of execute_script.

    Each apply step runs the operator the acting party requested, once the
    request checks out against the script, including its operator, in
    either wire shape, against the scripted one for the values measured so
    far; each measured outcome is released to the party only after its
    request checks out; each classical value is relayed from sender to
    receiver once it equals the measured one and has the scripted width.
    """

    def __init__(self, f: FunctionTable, input_state: StateVector, seed: int):
        self.f = f
        self.input_state = input_state
        self.seed = int(seed)
        self.width = wire_bits(build_partition(f).n_values)
        self.connections: dict[str, Connection] = {}

    def execute(self, connections: list[Connection]) -> tuple[StateVector, Transcript]:
        """Run handshakes plus the full script; returns final state and transcript."""
        try:
            self.connections = self._handshake(connections)
            state, transcript = execute_script(self.f, self.input_state, self.seed, self)
            for conn in connections:
                conn.wait_closed()
        except Exception as exc:
            _send_error(connections, exc)
            raise
        return state, transcript

    def _handshake(self, connections: list[Connection]) -> dict[str, Connection]:
        """Read one hello per connection and key the connection by its declared role."""
        by_role: dict[str, Connection] = {}
        digest = self.f.sha256()
        for conn in connections:
            conn.peer = "a party"  # until its hello names it; never from a frame's text
            msg = conn.recv()
            payload = msg.payload
            if msg.kind != "HANDSHAKE" or "role" not in payload:
                raise HandshakeMismatch("first message must be a HANDSHAKE hello")
            role = payload["role"]
            if role not in OWNERS.values() or role in by_role:
                raise HandshakeMismatch(f"unknown or duplicate role {role!r}")
            if msg.sender != role:
                raise HandshakeMismatch(f"hello for role {role!r} claims sender {msg.sender!r}")
            if (payload["m"], payload["n"]) != (self.f.M, self.f.N):
                raise HandshakeMismatch(
                    f"{role}'s dims ({payload['m']}, {payload['n']}) differ from "
                    f"the referee's ({self.f.M}, {self.f.N})"
                )
            if payload["f_sha256"] != digest:
                raise HandshakeMismatch(f"{role}'s function table differs from the referee's")
            by_role[role] = conn
            conn.peer = role
        for conn in by_role.values():
            conn.send("HANDSHAKE", {"status": "ready"})
        return by_role

    def apply(self, step: ScriptStep, state: StateVector, value: int | None) -> StateVector:
        msg = self._recv(step, "OP_REQUEST")
        return apply_local(state, self._authorize_op(msg, step, value))

    def measured(self, step: ScriptStep, outcome: int) -> None:
        subsystem = self._recv(step, "MEASURE_REQUEST").payload["subsystem"]
        self._check_ownership(step.party, (subsystem,))
        if subsystem != step.targets[0]:
            raise ProtocolOrderError(
                f"script expects a measurement of {step.targets[0]}, got {subsystem}"
            )
        self.connections[step.party].send("MEASURE_RESULT", {"subsystem": subsystem, "outcome": outcome})

    def sent(self, step: ScriptStep, value: int) -> None:
        msg = self._recv(step, "CLASSICAL_VALUE")
        sent_value, bits = msg.payload["value"], msg.payload["bits"]
        if (sent_value, bits) != (value, self.width):
            raise ProtocolOrderError(
                f"{step.party} sent {step.value} = {sent_value} in {bits} bits; "
                f"measured {value}, in {self.width} bits"
            )
        receiver = "bob" if step.party == "alice" else "alice"
        self.connections[receiver].send(
            "CLASSICAL_VALUE", {"value": value, "bits": self.width}, sender=msg.sender
        )

    def _recv(self, step: ScriptStep, kind: str) -> WireMessage:
        """The acting party's next message, which must be of the given kind."""
        msg = self.connections[step.party].recv(expect=(kind,))
        # The connection a message arrived on decides who sent it; a forged
        # sender field cannot borrow the other party's authority.
        if msg.sender != step.party:
            raise ProtocolOrderError(
                f"message on {step.party}'s connection claims sender {msg.sender!r}"
            )
        return msg

    def _authorize_op(self, msg: WireMessage, step: ScriptStep, value: int | None) -> LocalOperator:
        targets = msg.payload["targets"]
        if not isinstance(targets, list) or not all(isinstance(t, str) for t in targets):
            raise WireFormatError("OP_REQUEST targets must be a list of labels")
        requested = tuple(targets)
        self._check_ownership(step.party, requested)
        if msg.payload["operation"] != step.operation or requested != step.targets:
            raise ProtocolOrderError(
                f"script expects {step.operation} on {step.targets}, "
                f"got {msg.payload['operation']} on {requested}"
            )
        # The submitted operator must be the scripted one for the values
        # measured so far; that operator, already validated, is the one applied.
        expected = build_step_operator(self.f, step.operation, value)
        if "source" in msg.payload:
            submitted = self._monomial_phases(msg.payload, step.operation, expected)
            scripted = expected.phases
        else:
            # The shape first: reading expected.matrix builds the d x d matrix.
            submitted, shape = decode_matrix(msg.payload["matrix"]), (expected.dim, expected.dim)
            if submitted.shape != shape:
                raise ProtocolOrderError(
                    f"rejected operator: {step.operation} has shape {submitted.shape}, "
                    f"expected {shape}"
                )
            scripted = expected.matrix
        dev = np.max(np.abs(submitted - scripted))
        if not dev <= UNITARY_TOL:  # written so that NaN fails too
            raise ProtocolOrderError(
                f"rejected operator: {step.operation} differs from the scripted one "
                f"(max deviation {dev:.3e})"
            )
        return expected

    @staticmethod
    def _monomial_phases(payload: dict, operation: str, expected: LocalOperator) -> np.ndarray:
        """The phases of a {source, phases} request whose source is the scripted one, in O(d)."""
        if expected.source is None:
            raise ProtocolOrderError(
                f"rejected operator: {operation} is not a monomial; send its matrix"
            )
        source, phases, d = payload["source"], payload["phases"], expected.dim
        # Lengths first, so a hostile peer cannot make the referee build an
        # array larger than the scripted operator.
        if not (isinstance(source, list) and isinstance(phases, list)
                and len(source) == len(phases) == d):
            raise WireFormatError(f"OP_REQUEST source and phases must be lists of length {d}")
        if not set(map(type, source)) <= {int}:  # one pass; see _decode_pairs
            raise WireFormatError("OP_REQUEST source entries must be integers")
        submitted = _decode_pairs(phases, "OP_REQUEST phases")
        if source != expected.source.tolist():
            raise ProtocolOrderError(
                f"rejected operator: {operation} permutes its basis unlike the scripted one"
            )
        return submitted

    @staticmethod
    def _check_ownership(party: str, targets: tuple[str, ...]) -> None:
        if not authorized(party, targets):
            foreign = [t for t in targets if OWNERS.get(t) != party]
            raise LocalityViolation(f"{party} may not act on {foreign}")


# --- party endpoint -------------------------------------------------------

class PartyEndpoint:
    """Walks the script from one party's perspective, issuing requests.

    The endpoint closes its connection once its own part of the script is
    finished, which the referee reads as completion, or once it fails,
    after one ERROR frame with its cause.
    """

    def __init__(self, role: str, f: FunctionTable, conn: Connection):
        if role not in OWNERS.values():
            raise ValueError(f"role must be alice or bob, not {role!r}")
        self.role = role
        self.f = f
        self.conn = conn
        self.known: dict[str, int] = {}

    def run(self) -> dict[str, int]:
        """Execute the party's side; returns the classical values it learned."""
        try:
            self.conn.send(
                "HANDSHAKE",
                {"role": self.role, "m": self.f.M, "n": self.f.N, "f_sha256": self.f.sha256()},
            )
            ready = self.conn.recv(expect=("HANDSHAKE",))
            if (ready.sender, ready.payload.get("status")) != ("referee", "ready"):
                raise HandshakeMismatch(f"unexpected handshake reply {ready.payload} "
                                        f"from {ready.sender!r}")
            width = wire_bits(build_partition(self.f).n_values)
            for step in build_locc_script(self.f):
                self._run_step(step, width)
        except Exception as exc:
            _send_error([self.conn], exc)
            raise
        finally:
            self.conn.close()
        return dict(self.known)

    def _run_step(self, step: ScriptStep, width: int) -> None:
        if step.party != self.role:
            if step.action == "send":
                msg = self.conn.recv(expect=("CLASSICAL_VALUE",))
                if msg.sender != step.party:  # the referee relays under the sender's name
                    raise ProtocolOrderError(
                        f"expected {step.party}'s {step.value}, got one from {msg.sender!r}")
                self.known[step.value] = msg.payload["value"]
            return
        if step.action == "apply":
            op = build_step_operator(self.f, step.operation, self.known.get(step.depends_on))
            payload = {"operation": step.operation, "targets": list(step.targets)}
            if op.source is not None:
                payload.update(source=op.source.tolist(), phases=encode_matrix(op.phases))
            else:
                payload["matrix"] = encode_matrix(op.matrix)
            self.conn.send("OP_REQUEST", payload)
        elif step.action == "measure":
            self.conn.send("MEASURE_REQUEST", {"subsystem": step.targets[0]})
            result = self.conn.recv(expect=("MEASURE_RESULT",))
            if (result.sender, result.payload["subsystem"]) != ("referee", step.targets[0]):
                raise ProtocolOrderError(
                    f"expected the referee's result for {step.targets[0]}, got "
                    f"{result.sender!r}'s for {result.payload['subsystem']!r}"
                )
            self.known[step.value] = result.payload["outcome"]
        elif step.action == "send":
            self.conn.send("CLASSICAL_VALUE", {"value": self.known[step.value], "bits": width})


# --- ready-made transports ------------------------------------------------

def run_in_process(
    f: FunctionTable, input_state: StateVector, seed: int, timeout: float = DEFAULT_TIMEOUT
) -> tuple[StateVector, Transcript]:
    """Full distributed run with both endpoints on threads and queue channels.

    A party that fails tells the referee in an ERROR frame, as over TCP, so
    the referee raises TransportError("<role> failed: <Type>: <cause>").
    """
    referee_side_a, alice_side = QueueChannel.pair(timeout)
    referee_side_b, bob_side = QueueChannel.pair(timeout)
    connections = [Connection(referee_side_a, "referee"), Connection(referee_side_b, "referee")]

    def drive(role: str, channel: QueueChannel) -> None:
        try:
            PartyEndpoint(role, f, Connection(channel, role)).run()
        except Exception:
            pass  # its cause went to the referee on the wire

    threads = [threading.Thread(target=drive, args=party, daemon=True)
               for party in (("alice", alice_side), ("bob", bob_side))]
    for t in threads:
        t.start()
    try:
        return Referee(f, input_state, seed).execute(connections)
    finally:
        for t in threads:
            t.join(timeout=timeout)


def serve_socket(
    f: FunctionTable,
    input_state: StateVector,
    seed: int,
    host: str = "127.0.0.1",
    port: int = 0,
    timeout: float = DEFAULT_TIMEOUT,
    on_listening=None,
) -> tuple[StateVector, Transcript]:
    """Referee over TCP: listen, accept both parties, run the protocol.

    on_listening, if given, is called with the bound (host, port) before
    accepting, so callers can announce the ephemeral port.
    """
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as listener:
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((host, port))
            listener.listen(2)
        except OSError as exc:
            raise TransportError(f"cannot listen on {host}:{port}: {exc}") from exc
        listener.settimeout(timeout)
        if on_listening is not None:
            on_listening(listener.getsockname()[0], listener.getsockname()[1])
        channels = []
        try:
            for _ in range(2):
                try:
                    sock, _addr = listener.accept()
                except socket.timeout:
                    raise TransportError("no connection within the deadline") from None
                channels.append(SocketChannel(sock, timeout))
            connections = [Connection(channel, "referee") for channel in channels]
            return Referee(f, input_state, seed).execute(connections)
        finally:
            for channel in channels:
                channel.close()


def connect_socket(
    role: str,
    f: FunctionTable,
    host: str,
    port: int,
    timeout: float = DEFAULT_TIMEOUT,
) -> dict[str, int]:
    """Run one party endpoint against a listening referee."""
    if role not in OWNERS.values():
        raise ValueError(f"role must be alice or bob, not {role!r}")
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
    return PartyEndpoint(role, f, Connection(SocketChannel(sock, timeout), role)).run()
