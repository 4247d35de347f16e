"""Wire codec, channels, referee enforcement, and transport equivalence."""

import functools
import json
import queue
import socket
import struct
import threading
import time
import tracemalloc
from collections import Counter
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle_locc.locc import (
    run_locc,
    step1_operator,
    step3_operator,
    step4_operator,
    wire_bits,
)
from oracle_locc import netsim
from oracle_locc.netsim import (
    Connection,
    HandshakeMismatch,
    LocalityViolation,
    MAX_ERROR_TEXT,
    MAX_FRAME_BYTES,
    ProtocolOrderError,
    QueueChannel,
    Referee,
    SocketChannel,
    TransportError,
    WireFormatError,
    WireMessage,
    _decode_pairs,
    connect_socket,
    decode_matrix,
    decode_wire,
    encode_matrix,
    encode_wire,
    run_in_process,
    serve_socket,
)
from oracle_locc.oracle import FunctionTable, identity_table
from oracle_locc.quantum import LocalOperator, random_state

from conftest import random_unitary


def frame_of(body: str) -> bytes:
    raw = body.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def per_entry_decode_pairs(pairs: list) -> np.ndarray:
    """_decode_pairs as a Python test of each entry: the reference its C-level passes must match."""
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool)

    if not all(isinstance(p, list) and len(p) == 2 and number(p[0]) and number(p[1]) for p in pairs):
        raise WireFormatError("not [re, im] pairs of numbers")
    try:
        return np.array(pairs, np.float64).view(np.complex128).reshape(-1)
    except OverflowError:
        raise WireFormatError("does not fit in a double") from None


def per_entry_source_check(source: list) -> bool:
    """The referee's integer scan of a source as a Python test of each entry."""
    return all(isinstance(i, int) and not isinstance(i, bool) for i in source)


def source_outcome(source: list) -> str:
    """What the referee makes of a step-3 request with this source and unit phases."""
    expected = LocalOperator("b", source=[2, 0, 1], phases=np.ones(3))
    try:
        Referee._monomial_phases({"source": source, "phases": encode_matrix(np.ones(3))},
                                 "step3_bob_shift", expected)
    except WireFormatError as exc:
        return "integers" if "entries must be integers" in str(exc) else str(exc)
    except ProtocolOrderError:
        return "not the scripted source"
    return "taken"


def wire_decoded(value):
    """value as the wire decodes it: through JSON text, objects as lists of (key, value) tuples."""
    return json.loads(json.dumps(value), object_pairs_hook=list)


# Anything JSON can hold, with ints past a double's range and NaN and infinities among the floats.
JSON_LEAVES = (st.none() | st.booleans() | st.integers() | st.integers(10**300, 10**400)
               | st.floats() | st.text(max_size=2))
JSON_VALUES = st.recursive(JSON_LEAVES, lambda children: st.lists(children, max_size=3)
                           | st.dictionaries(st.text(max_size=2), children, max_size=3), max_leaves=8)
# Mostly pairs of numbers, the rest near-pairs or any JSON value, so that about half the lists pass.
PAIR_NUMBERS = st.integers() | st.floats() | st.integers(10**300, 10**400)
PAIR_LIKE = st.one_of(*[st.lists(PAIR_NUMBERS, min_size=2, max_size=2)] * 4,
                      st.lists(JSON_LEAVES, min_size=1, max_size=3), JSON_VALUES)
HOSTILE_PAIRS = [
    ([[1, True]], "a bool"), ([["1", 0.0]], "a string"), ([[None, 0.0]], "null"),
    ([{"re": 1.0, "im": 0.0}], "an object, decoded as a list of tuples"),
    ([[1.0]], "a short pair"), ([[1.0, 0.0, 0.0]], "a long pair"), ([[10**400, 0]], "an overflowing int"),
    ([[0.0, 1.0], 1.0], "a bare number"), ([[[0.0], 1.0]], "a nested list"),
]


class TestWireCodec:
    @pytest.mark.parametrize("pairs", [case for case, _ in HOSTILE_PAIRS], ids=[i for _, i in HOSTILE_PAIRS])
    def test_a_hostile_pair_is_refused(self, pairs):
        decoded = wire_decoded(pairs)
        with pytest.raises(WireFormatError, match="phases must"):
            _decode_pairs(decoded, "phases")
        with pytest.raises(WireFormatError):
            per_entry_decode_pairs(decoded)

    def test_pairs_of_ints_floats_and_non_finite_numbers_are_accepted(self):
        decoded = wire_decoded([[1, -0.0], [10**300, float("nan")], [float("-inf"), 5e-324]])
        assert _decode_pairs(decoded, "phases").tobytes() == per_entry_decode_pairs(decoded).tobytes()

    @given(st.lists(PAIR_LIKE, max_size=4))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_pairs_are_taken_and_refused_as_a_per_entry_check_does(self, pairs):
        decoded = wire_decoded(pairs)
        try:
            expected = per_entry_decode_pairs(decoded).tobytes()
        except WireFormatError:
            expected = None
        try:
            got = _decode_pairs(decoded, "phases").tobytes()
        except WireFormatError:
            got = None
        assert got == expected

    @pytest.mark.parametrize("source, outcome", [
        ([2, 0, 1], "taken"), ([2, 0, 10**400], "not the scripted source"), ([2, 0, True], "integers"),
        ([2, 0, 1.0], "integers"), ([2, 0, "1"], "integers"), ([2, 0, None], "integers"),
        ([2, 0, {"i": 1}], "integers"), ([2, 0, [1]], "integers"),
    ])
    def test_a_source_entry_that_is_not_an_integer_is_refused(self, source, outcome):
        assert source_outcome(wire_decoded(source)) == outcome

    @given(st.lists(JSON_LEAVES | JSON_VALUES | st.sampled_from([0, 1, 2]), min_size=3, max_size=3))
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    def test_a_source_is_taken_and_refused_as_a_per_entry_check_does(self, source):
        source = wire_decoded(source)
        if not per_entry_source_check(source):
            assert source_outcome(source) == "integers"
        else:
            assert source_outcome(source) == ("taken" if source == [2, 0, 1] else "not the scripted source")

    def test_round_trip_every_kind(self):
        samples = [
            WireMessage(1, "alice", "CLASSICAL_VALUE", {"value": 3, "bits": 2}),
            WireMessage(2, "alice", "OP_REQUEST",
                        {"operation": "step5_dft", "targets": ["b"],
                         "matrix": encode_matrix(np.eye(2))}),
            WireMessage(2, "alice", "OP_REQUEST",
                        {"operation": "step3_bob_shift", "targets": ["b"],
                         "source": [1, 0], "phases": [[1.0, 0.0], [0.0, -1.0]]}),
            WireMessage(3, "bob", "MEASURE_REQUEST", {"subsystem": "b"}),
            WireMessage(4, "referee", "MEASURE_RESULT", {"subsystem": "b", "outcome": 1}),
            WireMessage(5, "alice", "HANDSHAKE",
                        {"role": "alice", "m": 2, "n": 2, "f_sha256": "ab" * 32}),
            WireMessage(6, "referee", "HANDSHAKE", {"status": "ready"}),
            WireMessage(7, "referee", "ERROR", {"code": "TRANSPORT", "message": "x"}),
        ]
        for msg in samples:
            assert decode_wire(encode_wire(msg)) == msg

    def test_frame_layout(self):
        frame = encode_wire(WireMessage(9, "bob", "MEASURE_REQUEST", {"subsystem": "b"}))
        (length,) = struct.unpack("<I", frame[:4])
        assert length == len(frame) - 4
        body = json.loads(frame[4:])
        assert list(body) == ["seq", "sender", "kind", "payload"]

    def test_rejects_wrong_key_order(self):
        body = '{"sender": "alice", "seq": 1, "kind": "MEASURE_REQUEST", "payload": {"subsystem": "a"}}'
        with pytest.raises(WireFormatError, match="in order"):
            decode_wire(frame_of(body))

    def test_rejects_unknown_kind(self):
        body = '{"seq": 1, "sender": "alice", "kind": "TELEPORT", "payload": {}}'
        with pytest.raises(WireFormatError, match="kind"):
            decode_wire(frame_of(body))

    @pytest.mark.parametrize("body", [
        '{"seq": 1, "sender": "a", "kind": ["HANDSHAKE"], "payload": {"status": "ready"}}',
        '{"seq": 1, "sender": "a", "kind": {"HANDSHAKE": 1}, "payload": {"status": "ready"}}',
        "[1]",
        "[[1, 2, 3]]",
        '[["seq", 1], ["sender", "a"], ["kind", "HANDSHAKE"], ["payload", {"status": "ready"}]]',
    ], ids=["kind-list", "kind-object", "array-of-numbers", "array-of-triples", "array-of-pairs"])
    def test_hostile_bodies_are_wire_format_errors(self, body):
        with pytest.raises(WireFormatError):
            decode_wire(frame_of(body))

    def test_rejects_truncated_and_mismatched_frames(self):
        frame = encode_wire(WireMessage(1, "a", "HANDSHAKE", {"status": "ready"}))
        with pytest.raises(WireFormatError, match="does not match"):
            decode_wire(frame[:-2])
        with pytest.raises(WireFormatError, match="prefix"):
            decode_wire(b"\x01\x00")

    def test_rejects_oversize_frames_both_ways(self):
        huge = {"code": "TRANSPORT", "message": "x" * MAX_FRAME_BYTES}
        with pytest.raises(WireFormatError, match="cap"):
            encode_wire(WireMessage(1, "a", "ERROR", huge))
        with pytest.raises(WireFormatError, match="cap"):
            decode_wire(struct.pack("<I", MAX_FRAME_BYTES + 1))

    def test_rejects_non_json_body(self):
        with pytest.raises(WireFormatError, match="JSON"):
            decode_wire(struct.pack("<I", 3) + b"\xff\xfe\x00")

    def test_rejects_duplicate_payload_keys(self):
        body = (
            '{"seq": 1, "sender": "a", "kind": "CLASSICAL_VALUE",'
            ' "payload": {"value": 0, "value": 0, "bits": 1}}'
        )
        with pytest.raises(WireFormatError, match="duplicate"):
            decode_wire(frame_of(body))

    def test_rejects_bool_or_negative_seq(self):
        for seq in ("true", "-1", '"7"'):
            body = f'{{"seq": {seq}, "sender": "a", "kind": "HANDSHAKE", "payload": {{"status": "ready"}}}}'
            with pytest.raises(WireFormatError, match="seq"):
                decode_wire(frame_of(body))

    def test_rejects_non_object_payload(self):
        body = '{"seq": 1, "sender": "a", "kind": "HANDSHAKE", "payload": 3}'
        with pytest.raises(WireFormatError, match="object"):
            decode_wire(frame_of(body))

    def test_classical_value_width_contract(self):
        def frame(value, bits):
            return frame_of(
                f'{{"seq": 1, "sender": "a", "kind": "CLASSICAL_VALUE",'
                f' "payload": {{"value": {value}, "bits": {bits}}}}}'
            )

        assert decode_wire(frame(0, 0)).payload == {"value": 0, "bits": 0}
        assert decode_wire(frame(3, 2)).payload == {"value": 3, "bits": 2}
        for value, bits in [(1, 0), (2, 1), (4, 2), (-1, 4), (0, -1)]:
            with pytest.raises(WireFormatError, match="fit"):
                decode_wire(frame(value, bits))
        with pytest.raises(WireFormatError, match="integer"):
            decode_wire(frame("true", 1))

    def test_bool_bits_is_refused(self):
        body = ('{"seq": 1, "sender": "a", "kind": "CLASSICAL_VALUE",'
                ' "payload": {"value": 1, "bits": true}}')
        with pytest.raises(WireFormatError, match="integer"):
            decode_wire(frame_of(body))

    def test_measure_request_subsystem_must_be_a_string(self):
        assert decode_wire(frame_of(
            '{"seq": 1, "sender": "a", "kind": "MEASURE_REQUEST", "payload": {"subsystem": "a"}}'
        )).payload == {"subsystem": "a"}
        body = '{"seq": 1, "sender": "a", "kind": "MEASURE_REQUEST", "payload": {"subsystem": [1]}}'
        with pytest.raises(WireFormatError, match="subsystem"):
            decode_wire(frame_of(body))

    @pytest.mark.parametrize("payload", [
        '{"subsystem": 5, "outcome": "x"}',
        '{"subsystem": 5, "outcome": 0}',
        '{"subsystem": "a", "outcome": "x"}',
        '{"subsystem": "a", "outcome": true}',
        '{"subsystem": "a", "outcome": -1}',
        '{"subsystem": "a", "outcome": 1.0}',
    ])
    def test_measure_result_fields_are_typed(self, payload):
        body = f'{{"seq": 1, "sender": "r", "kind": "MEASURE_RESULT", "payload": {payload}}}'
        with pytest.raises(WireFormatError, match="subsystem|outcome"):
            decode_wire(frame_of(body))
        good = '{"seq": 1, "sender": "r", "kind": "MEASURE_RESULT", "payload": {"subsystem": "a", "outcome": 2}}'
        assert decode_wire(frame_of(good)).payload == {"subsystem": "a", "outcome": 2}

    def test_huge_declared_width_decodes_without_allocating(self):
        body = (
            '{"seq": 1, "sender": "a", "kind": "CLASSICAL_VALUE",'
            ' "payload": {"value": 3, "bits": 1000000000000}}'
        )
        tracemalloc.start()
        try:
            payload = decode_wire(frame_of(body)).payload
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert payload == {"value": 3, "bits": 10**12}
        assert peak < 1 << 20  # 2**(10**12) would need about 125 GB

    def test_payload_key_sets_are_exact(self):
        cases = [
            ("MEASURE_REQUEST", '{"subsystem": "a", "extra": 1}'),
            ("MEASURE_REQUEST", "{}"),
            ("MEASURE_RESULT", '{"subsystem": "a"}'),
            ("OP_REQUEST", '{"operation": "x", "targets": []}'),
            ("OP_REQUEST", '{"operation": "x", "targets": [], "source": [0]}'),
            ("OP_REQUEST",
             '{"operation": "x", "targets": [], "matrix": [], "source": [0], "phases": []}'),
            ("ERROR", '{"code": "TRANSPORT"}'),
            # Right keys, wrong types: code must be a known code, message a string.
            ("ERROR", '{"code": [], "message": "x"}'),
            ("ERROR", '{"code": "NOPE", "message": "x"}'),
            ("ERROR", '{"code": "TRANSPORT", "message": 7}'),
            ("ERROR", '{"code": "TRANSPORT", "message": null}'),
            ("HANDSHAKE", '{"role": "alice"}'),
            ("HANDSHAKE", '{"status": "ready", "extra": 1}'),
        ]
        for kind, payload in cases:
            body = f'{{"seq": 1, "sender": "a", "kind": "{kind}", "payload": {payload}}}'
            with pytest.raises(WireFormatError):
                decode_wire(frame_of(body))


class TestMatrixCodec:
    def test_round_trip_is_exact(self, rng):
        mat = random_unitary(5, rng)
        again = decode_matrix(json.loads(json.dumps(encode_matrix(mat))))
        assert np.array_equal(again, mat)
        phases = np.array([complex(-0.0, 1.0), complex(5e-324, -0.0), complex(1e300, -1e-300)])
        again = _decode_pairs(json.loads(json.dumps(encode_matrix(phases))), "phases")
        assert again.tobytes() == phases.tobytes()

    def test_rejects_malformed_matrices(self):
        bad = [
            [],
            [[1, 2]],
            [[[0.0, 0.0]], [[0.0, 0.0]]],
            [[[0.0, 0.0], [0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, "x"], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            # JSON true and false are not numbers, so this is not the identity.
            [[[True, False], [False, False]], [[False, False], [True, False]]],
            [[[10**400, 0.0]]],
            "nope",
        ]
        for data in bad:
            with pytest.raises(WireFormatError):
                decode_matrix(data)


class TestChannelsAndConnection:
    def test_queue_channel_delivers_and_closes(self):
        left, right = QueueChannel.pair(timeout=1.0)
        left.send(b"abc")
        assert right.recv() == b"abc"
        left.close()
        assert right.recv() is None

    def test_queue_channel_timeout(self):
        left, _right = QueueChannel.pair(timeout=0.05)
        with pytest.raises(TransportError, match="no message"):
            left.recv()

    def test_outgoing_seq_counts_from_one(self):
        left, right = QueueChannel.pair(1.0)
        sender, receiver = Connection(left, "alice"), Connection(right, "bob")
        first = sender.send("MEASURE_REQUEST", {"subsystem": "a"})
        second = sender.send("MEASURE_REQUEST", {"subsystem": "a"})
        assert (first.seq, second.seq) == (1, 2)
        assert receiver.recv().seq == 1
        assert receiver.recv().seq == 2

    def test_incoming_seq_must_increase(self):
        left, right = QueueChannel.pair(1.0)
        receiver = Connection(right, "bob")
        left.send(encode_wire(WireMessage(2, "alice", "MEASURE_REQUEST", {"subsystem": "a"})))
        left.send(encode_wire(WireMessage(2, "alice", "MEASURE_REQUEST", {"subsystem": "a"})))
        receiver.recv()
        with pytest.raises(ProtocolOrderError, match="increase"):
            receiver.recv()

    def test_seq_zero_is_rejected_as_first_message(self):
        left, right = QueueChannel.pair(1.0)
        left.send(encode_wire(WireMessage(0, "alice", "HANDSHAKE", {"status": "ready"})))
        with pytest.raises(ProtocolOrderError):
            Connection(right, "bob").recv()

    def test_error_messages_raise_their_mapped_type(self):
        expectations = {
            "LOCALITY_VIOLATION": LocalityViolation,
            "PROTOCOL_ORDER": ProtocolOrderError,
            "TRANSPORT": TransportError,
            "WIRE_FORMAT": WireFormatError,
            "HANDSHAKE_MISMATCH": HandshakeMismatch,
        }
        for code, exc_type in expectations.items():
            left, right = QueueChannel.pair(1.0)
            Connection(left, "referee").send("ERROR", {"code": code, "message": "boom"})
            with pytest.raises(exc_type, match="boom"):
                Connection(right, "bob").recv()

    def test_slow_drip_sender_hits_the_frame_deadline(self):
        # One byte every 0.1 s would reset a per-chunk timeout of 0.3 s forever.
        ours, peer = socket.socketpair()
        frame = encode_wire(WireMessage(1, "alice", "MEASURE_REQUEST", {"subsystem": "a"}))
        stop = threading.Event()

        def drip():
            for byte in frame:
                if stop.wait(0.1):
                    return
                try:
                    peer.sendall(bytes([byte]))
                except OSError:
                    return

        dripper = threading.Thread(target=drip, daemon=True)
        dripper.start()
        channel = SocketChannel(ours, timeout=0.3)
        start = time.monotonic()
        try:
            with pytest.raises(TransportError, match="deadline"):
                channel.recv()
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            dripper.join(timeout=2.0)
            channel.close()
            peer.close()
        assert not dripper.is_alive()
        assert 0.25 <= elapsed < 0.8

    def test_expect_filter(self):
        left, right = QueueChannel.pair(1.0)
        Connection(left, "a").send("HANDSHAKE", {"status": "ready"})
        with pytest.raises(ProtocolOrderError, match="expected"):
            Connection(right, "b").recv(expect=("MEASURE_RESULT",))

    def test_named_peer_error_is_its_failure(self):
        # The name comes from the connection; the frame's sender field is ignored.
        left, right = QueueChannel.pair(1.0)
        conn = Connection(right, "referee")
        conn.peer = "bob"
        Connection(left, "alice").send("ERROR", {"code": "PROTOCOL_ORDER", "message": "boom"})
        with pytest.raises(TransportError, match="^bob failed: ProtocolOrderError: boom$") as caught:
            conn.wait_closed()
        assert isinstance(caught.value.__cause__, ProtocolOrderError)

    def test_wait_closed(self):
        left, right = QueueChannel.pair(1.0)
        conn = Connection(right, "b")
        left.close()
        conn.wait_closed()
        left2, right2 = QueueChannel.pair(1.0)
        Connection(left2, "a").send("HANDSHAKE", {"status": "ready"})
        with pytest.raises(ProtocolOrderError, match="after protocol completion"):
            Connection(right2, "b").wait_closed()


class RefereeHarness:
    """Referee on a thread; the test plays both parties by hand."""

    def __init__(self, f: FunctionTable, seed: int = 0, timeout: float = 2.0):
        self.f = f
        inp = random_state((f.M, f.N), ("A", "B"), np.random.default_rng(77))
        referee_a, alice_side = QueueChannel.pair(timeout)
        referee_b, bob_side = QueueChannel.pair(timeout)
        self._connections = [Connection(referee_a, "referee"), Connection(referee_b, "referee")]
        self.alice = Connection(alice_side, "alice")
        self.bob = Connection(bob_side, "bob")
        self.alice_raw = alice_side
        self.outcome: dict = {}
        self._thread = threading.Thread(target=self._run, args=(inp, seed), daemon=True)
        self._thread.start()

    def _run(self, inp, seed):
        try:
            self.outcome["result"] = Referee(self.f, inp, seed).execute(self._connections)
        except BaseException as exc:
            self.outcome["error"] = exc

    def hello(self, conn, **overrides):
        payload = {
            "role": conn.local_id,
            "m": self.f.M,
            "n": self.f.N,
            "f_sha256": self.f.sha256(),
        }
        payload.update(overrides)
        conn.send("HANDSHAKE", payload)

    def handshake(self):
        self.hello(self.alice)
        self.hello(self.bob)
        for conn in (self.alice, self.bob):
            assert conn.recv(expect=("HANDSHAKE",)).payload == {"status": "ready"}

    def referee_error(self):
        self._thread.join(timeout=5.0)
        assert not self._thread.is_alive(), "referee thread hung"
        assert "error" in self.outcome, f"referee unexpectedly finished: {self.outcome}"
        return self.outcome["error"]


def step1_payload(f):
    return {
        "operation": "step1_controlled_shift",
        "targets": ["A", "a"],
        "matrix": encode_matrix(step1_operator(f).matrix),
    }


def monomial_payload(operation, targets, op):
    """An OP_REQUEST in the {source, phases} shape for a monomial operator."""
    return {
        "operation": operation,
        "targets": list(targets),
        "source": op.source.tolist(),
        "phases": [[z.real, z.imag] for z in op.phases.tolist()],
    }


def drive_alice_to_send_r(net: RefereeHarness, lie=lambda r, n_f, bits: (r, bits)) -> int:
    """Play Alice's part of the script up to and including send_r.

    lie(r, n_f, bits) gives the (value, bits) she sends; by default the truth.
    """
    net.alice.send("OP_REQUEST", step1_payload(net.f))
    net.alice.send("MEASURE_REQUEST", {"subsystem": "a"})
    r = net.alice.recv(expect=("MEASURE_RESULT",)).payload["outcome"]
    n_f = len(set(net.f.table))
    value, bits = lie(r, n_f, wire_bits(n_f))
    net.alice.send("CLASSICAL_VALUE", {"value": value, "bits": bits})
    return r


class TestRefereeEnforcement:
    def test_alice_cannot_apply_to_bobs_subsystems(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send(
            "OP_REQUEST",
            {
                "operation": "step1_controlled_shift",
                "targets": ["B", "b"],
                "matrix": encode_matrix(step4_operator(net.f).matrix),
            },
        )
        with pytest.raises(LocalityViolation):
            net.alice.recv()
        assert isinstance(net.referee_error(), LocalityViolation)

    def test_alice_cannot_measure_bobs_ancilla(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send("OP_REQUEST", step1_payload(net.f))
        net.alice.send("MEASURE_REQUEST", {"subsystem": "b"})
        with pytest.raises(LocalityViolation):
            net.alice.recv()
        assert isinstance(net.referee_error(), LocalityViolation)

    def test_bob_cannot_apply_to_alices_register(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        drive_alice_to_send_r(net)
        assert net.bob.recv(expect=("CLASSICAL_VALUE",)).kind == "CLASSICAL_VALUE"
        net.bob.send(
            "OP_REQUEST",
            {
                "operation": "step3_bob_shift",
                "targets": ["A"],
                "matrix": encode_matrix(np.eye(2)),
            },
        )
        with pytest.raises(LocalityViolation):
            net.bob.recv()
        assert isinstance(net.referee_error(), LocalityViolation)

    def test_off_script_operation_is_rejected(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send(
            "OP_REQUEST",
            {
                "operation": "step7_phase_fix",
                "targets": ["A", "a"],
                "matrix": encode_matrix(step1_operator(net.f).matrix),
            },
        )
        with pytest.raises(ProtocolOrderError, match="expects"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_wrong_message_kind_for_the_step(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send("MEASURE_REQUEST", {"subsystem": "a"})
        with pytest.raises(ProtocolOrderError, match="expected"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_measuring_the_wrong_owned_subsystem(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send("OP_REQUEST", step1_payload(net.f))
        net.alice.send("MEASURE_REQUEST", {"subsystem": "A"})
        with pytest.raises(ProtocolOrderError, match="measurement"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_forged_sender_is_caught(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        net.alice.send("OP_REQUEST", step1_payload(net.f), sender="bob")
        with pytest.raises(ProtocolOrderError, match="claims sender"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_replayed_seq_is_caught(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        # the handshake consumed seq 1; reusing it must be refused
        net.alice_raw.send(
            encode_wire(WireMessage(1, "alice", "OP_REQUEST", step1_payload(net.f)))
        )
        with pytest.raises(ProtocolOrderError, match="increase"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_non_unitary_matrix_is_rejected(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        payload = step1_payload(net.f)
        payload["matrix"] = encode_matrix(np.ones((4, 4)))
        net.alice.send("OP_REQUEST", payload)
        with pytest.raises(ProtocolOrderError, match="rejected operator"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_nan_matrix_is_rejected(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        payload = step1_payload(net.f)
        payload["matrix"] = encode_matrix(np.full((4, 4), np.nan))
        net.alice.send("OP_REQUEST", payload)
        with pytest.raises(ProtocolOrderError, match="rejected operator"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_matrix_of_the_wrong_size_is_rejected(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        payload = step1_payload(net.f)
        payload["matrix"] = encode_matrix(np.eye(2))
        net.alice.send("OP_REQUEST", payload)
        with pytest.raises(ProtocolOrderError, match="has shape"):
            net.alice.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_matrix_shape_is_checked_before_the_scripted_matrix_is_built(self):
        # At M = N = n_f = 64 the scripted step-1 matrix is 4096 x 4096: 256 MiB.
        net = RefereeHarness(identity_table(64))
        net.handshake()
        payload = {"operation": "step1_controlled_shift", "targets": ["A", "a"],
                   "matrix": [[[1.0, 0.0]]]}
        tracemalloc.start()
        try:
            net.alice.send("OP_REQUEST", payload)
            with pytest.raises(ProtocolOrderError,
                               match=r"has shape \(1, 1\), expected \(4096, 4096\)"):
                net.alice.recv()
            error = net.referee_error()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert isinstance(error, ProtocolOrderError)
        assert peak < 32 << 20

    def test_bob_running_his_steps_out_of_order(self):
        net = RefereeHarness(identity_table(2))
        net.handshake()
        drive_alice_to_send_r(net)
        relayed = net.bob.recv(expect=("CLASSICAL_VALUE",))
        assert relayed.sender == "alice"  # relay keeps the original sender
        net.bob.send(
            "OP_REQUEST",
            {
                "operation": "step4_local_oracle",
                "targets": ["B", "b"],
                "matrix": encode_matrix(step4_operator(net.f).matrix),
            },
        )
        with pytest.raises(ProtocolOrderError, match="expects"):
            net.bob.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    @pytest.mark.parametrize(
        "lie",
        [lambda r, n_f, bits: ((r + 1) % n_f, bits), lambda r, n_f, bits: (r, bits + 1)],
        ids=["other value", "wider"],
    )
    def test_relayed_value_must_be_the_measured_one(self, lie):
        net = RefereeHarness(FunctionTable(3, 3, (1, 2, 0)))
        net.handshake()
        drive_alice_to_send_r(net, lie)
        for conn in (net.alice, net.bob):
            with pytest.raises(ProtocolOrderError, match="measured"):
                conn.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_operator_must_be_the_scripted_one(self):
        net = RefereeHarness(FunctionTable(3, 3, (1, 2, 0)))
        net.handshake()
        r = drive_alice_to_send_r(net)
        assert net.bob.recv(expect=("CLASSICAL_VALUE",)).payload["value"] == r
        # A unitary on the right target, but the relabelling for another r.
        net.bob.send(
            "OP_REQUEST",
            {
                "operation": "step3_bob_shift",
                "targets": ["b"],
                "matrix": encode_matrix(step3_operator(net.f, (r + 1) % 3).matrix),
            },
        )
        with pytest.raises(ProtocolOrderError, match="differs from the scripted one"):
            net.bob.recv()
        assert isinstance(net.referee_error(), ProtocolOrderError)

    def test_handshake_dimension_mismatch(self):
        net = RefereeHarness(identity_table(2))
        net.hello(net.alice, m=9)
        net.hello(net.bob)
        with pytest.raises(HandshakeMismatch):
            net.alice.recv()
        with pytest.raises(HandshakeMismatch):
            net.bob.recv()
        assert isinstance(net.referee_error(), HandshakeMismatch)

    def test_handshake_function_table_mismatch(self):
        net = RefereeHarness(identity_table(2))
        net.hello(net.alice, f_sha256="0" * 64)
        net.hello(net.bob)
        with pytest.raises(HandshakeMismatch):
            net.alice.recv()
        assert isinstance(net.referee_error(), HandshakeMismatch)

    @pytest.mark.parametrize("wrong, right", [("alice", "bob"), ("bob", "alice")])
    def test_handshake_names_the_party_whose_table_differs(self, wrong, right):
        net = RefereeHarness(identity_table(2))
        net.hello(net.alice, **({"f_sha256": "0" * 64} if wrong == "alice" else {}))
        net.hello(net.bob, **({"f_sha256": "0" * 64} if wrong == "bob" else {}))
        cause = f"{wrong}'s function table differs from the referee's"
        for conn in (net.alice, net.bob):  # both parties get the referee's cause
            with pytest.raises(HandshakeMismatch, match=cause):
                conn.recv()
        error = str(net.referee_error())
        assert wrong in error and right not in error

    def test_handshake_hashes_the_table_once(self, monkeypatch):
        f = identity_table(2)
        digest, sha256, calls = f.sha256(), FunctionTable.sha256, []
        monkeypatch.setattr(FunctionTable, "sha256", lambda table: calls.append(table) or sha256(table))
        ends = [QueueChannel.pair(1.0) for _ in range(2)]
        for role, (_, party) in zip(("alice", "bob"), ends):
            Connection(party, role).send("HANDSHAKE", {"role": role, "m": 2, "n": 2, "f_sha256": digest})
        referee = Referee(f, random_state((2, 2), ("A", "B"), 0), 0)
        by_role = referee._handshake([Connection(side, "referee") for side, _ in ends])
        assert sorted(by_role) == ["alice", "bob"] and calls == [f]

    def test_handshake_wrong_role(self):
        net = RefereeHarness(identity_table(2))
        net.hello(net.alice, role="bob")
        net.hello(net.bob)
        assert isinstance(net.referee_error(), HandshakeMismatch)

    @pytest.mark.parametrize("sender", ["bob", "referee"])
    def test_handshake_hello_with_a_forged_sender(self, sender):
        net = RefereeHarness(identity_table(2))
        payload = {"role": "alice", "m": 2, "n": 2, "f_sha256": net.f.sha256()}
        net.alice.send("HANDSHAKE", payload, sender=sender)
        net.hello(net.bob)
        with pytest.raises(HandshakeMismatch, match=f"claims sender '{sender}'"):
            net.alice.recv()
        assert isinstance(net.referee_error(), HandshakeMismatch)

    def test_handshake_ready_instead_of_hello(self):
        net = RefereeHarness(identity_table(2))
        net.alice.send("HANDSHAKE", {"status": "ready"})
        net.hello(net.bob)
        assert isinstance(net.referee_error(), HandshakeMismatch)

    def test_error_before_the_hello_names_no_role(self):
        # The frame's text claims a role; only a hello can give the connection one.
        net = RefereeHarness(identity_table(2))
        net.alice.send("ERROR", {"code": "TRANSPORT", "message": "bob failed: spoofed"})
        net.hello(net.bob)
        error = net.referee_error()
        assert isinstance(error, TransportError)
        assert str(error) == "a party failed: TransportError: bob failed: spoofed"

    def test_handshake_other_kind_instead_of_hello(self):
        net = RefereeHarness(identity_table(2))
        net.alice.send("MEASURE_REQUEST", {"subsystem": "a"})
        net.hello(net.bob)
        assert isinstance(net.referee_error(), HandshakeMismatch)


class TestInProcessTransport:
    def test_matches_the_direct_runner_exactly(self):
        f = FunctionTable(3, 3, (1, 2, 0))
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(55))
        for seed in (0, 1, 7):
            direct_state, direct_transcript, _ = run_locc(f, inp, seed)
            net_state, net_transcript = run_in_process(f, inp, seed)
            assert net_transcript.to_json() == direct_transcript.to_json()
            assert np.array_equal(net_state.amps, direct_state.amps)

    def test_nontrivial_measurements_are_recorded(self):
        f = identity_table(2)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(8))
        seen = set()
        for seed in range(12):
            _, transcript = run_in_process(f, inp, seed)
            seen.add((transcript.r, transcript.s))
        assert len(seen) > 1  # both ancilla outcomes actually occur


class TestPartyFailure:
    def test_party_failure_is_reported_instead_of_the_closed_channel(self, monkeypatch):
        # With the cap lowered to 4 KiB the handshake still fits, but the step-1
        # OP_REQUEST at M = N = 24 (about 9 KB) does not, so Alice fails while
        # encoding it and the referee sees her channel close.
        monkeypatch.setattr(netsim, "MAX_FRAME_BYTES", 4096)
        f = FunctionTable(24, 24, tuple((x + 1) % 24 for x in range(24)))
        inp = random_state((24, 24), ("A", "B"), np.random.default_rng(3))
        with pytest.raises(TransportError, match="alice failed: WireFormatError") as caught:
            run_in_process(f, inp, 0)
        assert isinstance(caught.value.__cause__, WireFormatError)
        assert "4096-byte cap" in str(caught.value)

    def test_relayed_party_text_is_bounded(self):
        # A well-formed ERROR whose message fills a whole frame: relayed whole
        # behind "alice failed: ...", it would push the referee's own ERROR
        # frame over the cap.
        net = RefereeHarness(identity_table(2))
        net.handshake()
        empty = encode_wire(WireMessage(2, "alice", "ERROR", {"code": "WIRE_FORMAT", "message": ""}))
        text = "x" * (MAX_FRAME_BYTES + 4 - len(empty))
        net.alice.send("ERROR", {"code": "WIRE_FORMAT", "message": text})
        error = net.referee_error()
        assert isinstance(error, TransportError)
        assert isinstance(error.__cause__, WireFormatError)
        assert str(error).startswith("alice failed: WireFormatError: xxx")
        assert len(str(error)) <= len("alice failed: WireFormatError: ") + MAX_ERROR_TEXT
        for conn in (net.alice, net.bob):
            with pytest.raises(TransportError, match="^alice failed: WireFormatError: x") as caught:
                conn.recv()
            assert len(str(caught.value)) <= MAX_ERROR_TEXT


class TestPartyChecksTheReferee:
    """PartyEndpoint against a scripted referee whose frames are queued before the party runs."""

    @staticmethod
    def alice_against(referee_frames, ready_sender=None):
        f = identity_table(2)
        referee_side, alice_side = QueueChannel.pair(1.0)
        referee = Connection(referee_side, "referee")
        referee.send("HANDSHAKE", {"status": "ready"}, sender=ready_sender)
        for kind, payload, sender in referee_frames:
            referee.send(kind, payload, sender=sender)
        endpoint = netsim.PartyEndpoint("alice", f, Connection(alice_side, "alice"))
        return endpoint, referee

    @pytest.mark.parametrize("sender, subsystem", [("bob", "a"), ("alice", "a"), ("referee", "A")])
    def test_measure_result_from_another_sender_or_for_another_subsystem(self, sender, subsystem):
        endpoint, referee = self.alice_against(
            [("MEASURE_RESULT", {"subsystem": subsystem, "outcome": 1}, sender)])
        with pytest.raises(ProtocolOrderError, match="expected the referee's result for a"):
            endpoint.run()
        assert endpoint.known == {}
        kinds = [referee.recv().kind for _ in range(3)]
        assert kinds == ["HANDSHAKE", "OP_REQUEST", "MEASURE_REQUEST"]
        with pytest.raises(ProtocolOrderError, match="expected the referee's result"):
            referee.recv()  # the party's ERROR frame names the cause

    @pytest.mark.parametrize("sender", ["referee", "alice"])
    def test_relayed_value_from_another_sender(self, sender):
        endpoint, referee = self.alice_against(
            [("MEASURE_RESULT", {"subsystem": "a", "outcome": 1}, None),
             ("CLASSICAL_VALUE", {"value": 0, "bits": 1}, sender)])
        with pytest.raises(ProtocolOrderError, match=f"expected bob's s, got one from '{sender}'"):
            endpoint.run()
        assert endpoint.known == {"r": 1}
        kinds = [referee.recv().kind for _ in range(4)]
        assert kinds == ["HANDSHAKE", "OP_REQUEST", "MEASURE_REQUEST", "CLASSICAL_VALUE"]
        with pytest.raises(ProtocolOrderError, match="expected bob's s"):
            referee.recv()

    @pytest.mark.parametrize("sender", ["bob", "alice"])
    def test_ready_from_another_sender(self, sender):
        endpoint, referee = self.alice_against([], ready_sender=sender)
        with pytest.raises(HandshakeMismatch, match=f"from '{sender}'"):
            endpoint.run()
        assert referee.recv().kind == "HANDSHAKE"
        with pytest.raises(HandshakeMismatch, match="unexpected handshake reply"):
            referee.recv()

    def test_the_referees_result_is_taken(self):
        endpoint, referee = self.alice_against(
            [("MEASURE_RESULT", {"subsystem": "a", "outcome": 1}, None),
             ("CLASSICAL_VALUE", {"value": 0, "bits": 1}, "bob")])
        assert endpoint.run() == {"r": 1, "s": 0}
        kinds = [referee.recv().kind for _ in range(5)]
        assert kinds == ["HANDSHAKE", "OP_REQUEST", "MEASURE_REQUEST", "CLASSICAL_VALUE", "OP_REQUEST"]
        referee.wait_closed()


THREE_CYCLE = FunctionTable(3, 3, (1, 2, 0))


def step1_compact(**edits):
    """Step 1 of THREE_CYCLE in the {source, phases} shape, edited in place by edits."""
    payload = monomial_payload(
        "step1_controlled_shift", ("A", "a"), step1_operator(THREE_CYCLE)
    )
    for key, edit in edits.items():
        edit(payload[key])
    return payload


def _set(index, value):
    def edit(entries):
        entries[index] = value
    return edit


class TestMonomialRequests:
    """Hostile {source, phases} OP_REQUESTs: each fails the run on both connections."""

    @staticmethod
    def assert_refused(net, conn, payload, error, match=None):
        conn.send("OP_REQUEST", payload)
        for party in (net.alice, net.bob):
            with pytest.raises(error, match=match):
                party.recv()
        assert isinstance(net.referee_error(), error)

    @pytest.mark.parametrize(
        "payload",
        [
            step1_compact(source=lambda s: s.pop()),
            step1_compact(source=lambda s: s.pop(), phases=lambda p: p.pop()),
            step1_compact(phases=lambda p: p.extend(p)),
            step1_compact(source=_set(0, True)),
            step1_compact(source=_set(0, 1.0)),
            step1_compact(source=_set(0, "1")),
            step1_compact(phases=_set(0, [1.0, 0.0, 0.0])),
            step1_compact(phases=_set(0, [1.0])),
            step1_compact(phases=_set(0, [True, False])),
            step1_compact(phases=_set(0, ["1", "0"])),
            step1_compact(phases=_set(0, [10**400, 0])),
            {**step1_compact(), "source": "nope"},
        ],
        ids=[
            "source one short", "both one short", "phases twice as long", "true in source",
            "float in source", "string in source", "phase of three numbers",
            "phase of one number", "boolean phase", "string phase", "phase beyond a double",
            "source not a list",
        ],
    )
    def test_malformed_source_or_phases_is_a_wire_format_error(self, payload):
        net = RefereeHarness(THREE_CYCLE)
        net.handshake()
        self.assert_refused(net, net.alice, payload, WireFormatError)

    @pytest.mark.parametrize(
        "payload",
        [
            step1_compact(source=lambda s: s.append(s.pop(0))),
            step1_compact(phases=_set(0, [np.cos(1e-6), np.sin(1e-6)])),
            step1_compact(phases=_set(0, [float("nan"), 0.0])),
        ],
        ids=["other permutation", "phase turned by 1e-6", "NaN phase"],
    )
    def test_operator_other_than_the_scripted_one_is_rejected(self, payload):
        net = RefereeHarness(THREE_CYCLE)
        net.handshake()
        self.assert_refused(net, net.alice, payload, ProtocolOrderError, "rejected operator")

    def test_matrix_and_source_in_one_payload_fail_to_decode(self):
        payload = {**step1_payload(THREE_CYCLE), **step1_compact()}
        frame = encode_wire(WireMessage(2, "alice", "OP_REQUEST", payload))
        with pytest.raises(WireFormatError, match="OP_REQUEST payload keys"):
            decode_wire(frame)
        net = RefereeHarness(THREE_CYCLE)
        net.handshake()
        self.assert_refused(net, net.alice, payload, WireFormatError, "OP_REQUEST payload keys")

    def test_compact_payload_for_the_dense_dft_is_refused(self):
        net = RefereeHarness(THREE_CYCLE)
        net.handshake()
        net.alice.send("OP_REQUEST", step1_compact())
        net.alice.send("MEASURE_REQUEST", {"subsystem": "a"})
        r = net.alice.recv(expect=("MEASURE_RESULT",)).payload["outcome"]
        net.alice.send("CLASSICAL_VALUE", {"value": r, "bits": 2})
        assert net.bob.recv(expect=("CLASSICAL_VALUE",)).payload["value"] == r
        # Bob's monomial steps 3 and 4 in the compact shape are accepted.
        net.bob.send("OP_REQUEST", monomial_payload(
            "step3_bob_shift", ("b",), step3_operator(THREE_CYCLE, r)))
        net.bob.send("OP_REQUEST", monomial_payload(
            "step4_local_oracle", ("B", "b"), step4_operator(THREE_CYCLE)))
        identity = {"source": [0, 1, 2], "phases": [[1.0, 0.0]] * 3}
        payload = {"operation": "step5_dft", "targets": ["b"], **identity}
        self.assert_refused(net, net.bob, payload, ProtocolOrderError, "rejected operator")


class SniffingChannel:
    """Wraps a channel; decodes everything received and keeps every frame sent."""

    def __init__(self, inner):
        self.inner = inner
        self.seen = []
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)
        self.inner.send(frame)

    def recv(self):
        frame = self.inner.recv()
        if frame is not None:
            self.seen.append(decode_wire(frame))
        return frame

    def close(self):
        self.inner.close()


def run_sniffed(f, inp, seed):
    """In-process run with each party's channel sniffed; returns (transcript, alice, bob)."""
    from oracle_locc.netsim import PartyEndpoint

    referee_a, alice_side = QueueChannel.pair(5.0)
    referee_b, bob_side = QueueChannel.pair(5.0)
    sniff_alice = SniffingChannel(alice_side)
    sniff_bob = SniffingChannel(bob_side)
    connections = [Connection(referee_a, "referee"), Connection(referee_b, "referee")]
    endpoints = [
        PartyEndpoint("alice", f, Connection(sniff_alice, "alice")),
        PartyEndpoint("bob", f, Connection(sniff_bob, "bob")),
    ]
    threads = [threading.Thread(target=e.run, daemon=True) for e in endpoints]
    for t in threads:
        t.start()
    _, transcript = Referee(f, inp, seed).execute(connections)
    for t in threads:
        t.join(timeout=5.0)
    return transcript, sniff_alice, sniff_bob


def cyclic_permutation(m):
    return FunctionTable(m, m, tuple((x + 1) % m for x in range(m)))


class TestWireAccounting:
    def test_classical_traffic_matches_the_ledger(self):
        f = FunctionTable(3, 3, (1, 2, 0))  # n_f = 3, so 2 wire bits each way
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(4))
        transcript, sniff_alice, sniff_bob = run_sniffed(f, inp, 3)

        alice_classical = [m for m in sniff_alice.seen if m.kind == "CLASSICAL_VALUE"]
        bob_classical = [m for m in sniff_bob.seen if m.kind == "CLASSICAL_VALUE"]
        assert len(alice_classical) == len(bob_classical) == 1
        assert bob_classical[0].sender == "alice"
        assert bob_classical[0].payload == {"value": transcript.r, "bits": 2}
        assert alice_classical[0].sender == "bob"
        assert alice_classical[0].payload == {"value": transcript.s, "bits": 2}
        assert transcript.ledger.bits_forward_wire == 2
        assert transcript.ledger.bits_backward_wire == 2

    def test_monomial_steps_travel_as_source_and_phases(self):
        # At M = N = n_f = 24 steps 1 and 4 act on d = 576; as dense matrices
        # their frames were about 4 MB, over the 1 MiB cap.
        f = cyclic_permutation(24)
        inp = random_state((24, 24), ("A", "B"), np.random.default_rng(6))
        _, sniff_alice, sniff_bob = run_sniffed(f, inp, 2)
        requests = {}
        for frame in sniff_alice.sent + sniff_bob.sent:
            msg = decode_wire(frame)
            if msg.kind == "OP_REQUEST":
                requests[msg.payload["operation"]] = (len(frame), set(msg.payload))
        compact = {"operation", "targets", "source", "phases"}
        dense = {"operation", "targets", "matrix"}
        assert {op: keys for op, (_, keys) in requests.items()} == {
            "step1_controlled_shift": compact,
            "step3_bob_shift": compact,
            "step4_local_oracle": compact,
            "step5_dft": dense,
            "step7_phase_fix": compact,
        }
        for operation in ("step1_controlled_shift", "step4_local_oracle"):
            assert requests[operation][0] < 16_000


class TestSocketTransport:
    def run_socket(self, f, inp, seed, client_roles=("alice", "bob"), timeout=5.0):
        ports: queue.Queue = queue.Queue()
        box: dict = {}

        def serve():
            try:
                box["result"] = serve_socket(
                    f, inp, seed, port=0, timeout=timeout,
                    on_listening=lambda _h, p: ports.put(p),
                )
            except BaseException as exc:
                box["error"] = exc

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        port = ports.get(timeout=5.0)
        learned: dict = {}
        errors: list = []

        def client(role):
            try:
                learned[role] = connect_socket(role, f, "127.0.0.1", port, timeout=timeout)
            except BaseException as exc:
                errors.append(exc)

        clients = [threading.Thread(target=client, args=(r,), daemon=True) for r in client_roles]
        for t in clients:
            t.start()
        for t in clients:
            t.join(timeout=10.0)
        server.join(timeout=10.0)
        assert not server.is_alive(), "server thread hung"
        return box, learned, errors

    def test_socket_run_is_byte_identical_to_the_other_paths(self):
        f = FunctionTable(3, 3, (1, 2, 0))
        inp = random_state((3, 3), ("A", "B"), np.random.default_rng(55))
        seed = 5
        _, direct_transcript, _ = run_locc(f, inp, seed)
        _, thread_transcript = run_in_process(f, inp, seed)
        box, learned, errors = self.run_socket(f, inp, seed)
        assert not errors
        state, transcript = box["result"]
        assert transcript.to_json() == direct_transcript.to_json() == thread_transcript.to_json()
        expected = {"r": transcript.r, "s": transcript.s}
        assert learned == {"alice": expected, "bob": expected}

    @pytest.mark.parametrize("m", [24, 64])
    def test_large_permutations_reproduce_the_direct_runner(self, m):
        f = cyclic_permutation(m)
        inp = random_state((m, m), ("A", "B"), np.random.default_rng(m))
        direct_state, direct_transcript, _ = run_locc(f, inp, 1)
        thread_state, thread_transcript = run_in_process(f, inp, 1)
        box, _, errors = self.run_socket(f, inp, 1)
        assert not errors and "error" not in box
        socket_state, socket_transcript = box["result"]
        assert thread_transcript.to_json() == direct_transcript.to_json()
        assert socket_transcript.to_json() == direct_transcript.to_json()
        assert np.array_equal(thread_state.amps, direct_state.amps)
        assert np.array_equal(socket_state.amps, direct_state.amps)

    def test_duplicate_roles_are_refused(self):
        f = identity_table(2)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(1))
        box, _learned, errors = self.run_socket(
            f, inp, 0, client_roles=("alice", "alice"), timeout=2.0
        )
        assert isinstance(box.get("error"), HandshakeMismatch)
        assert errors  # at least one client saw the failure

    @pytest.mark.parametrize("first", ["measure_request", "hello_from_eve"])
    def test_raw_client_without_a_valid_hello_is_refused(self, first):
        f = identity_table(2)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(1))
        frames = {
            "measure_request": WireMessage(1, "alice", "MEASURE_REQUEST", {"subsystem": "a"}),
            "hello_from_eve": WireMessage(
                1, "eve", "HANDSHAKE", {"role": "eve", "m": 2, "n": 2, "f_sha256": f.sha256()}
            ),
        }
        ports: queue.Queue = queue.Queue()
        box: dict = {}

        def serve():
            try:
                box["result"] = serve_socket(
                    f, inp, 0, port=0, timeout=2.0, on_listening=lambda _h, p: ports.put(p)
                )
            except BaseException as exc:
                box["error"] = exc

        server = threading.Thread(target=serve, daemon=True)
        server.start()
        port = ports.get(timeout=5.0)
        # Both clients send the bad frame, so the outcome does not depend on accept order.
        clients = [socket.create_connection(("127.0.0.1", port), timeout=2.0) for _ in range(2)]
        try:
            for client in clients:
                client.sendall(encode_wire(frames[first]))
            server.join(timeout=10.0)
        finally:
            for client in clients:
                client.close()
        assert not server.is_alive(), "server thread hung"
        assert isinstance(box.get("error"), HandshakeMismatch)

    def test_server_times_out_without_clients(self):
        f = identity_table(2)
        inp = random_state((2, 2), ("A", "B"), np.random.default_rng(1))
        with pytest.raises(TransportError, match="deadline"):
            serve_socket(f, inp, 0, port=0, timeout=0.3)

    def test_connecting_to_a_dead_port_fails_cleanly(self):
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError, match="cannot connect"):
            connect_socket("alice", identity_table(2), "127.0.0.1", dead_port, timeout=1.0)

    def test_rejects_unknown_role(self):
        with pytest.raises(ValueError, match="role"):
            connect_socket("eve", identity_table(2), "127.0.0.1", 1, timeout=0.1)


# --- hostile fields -------------------------------------------------------

MAPPED_ERRORS = (LocalityViolation, ProtocolOrderError, TransportError, WireFormatError, HandshakeMismatch)
FUZZ_TABLES = [FunctionTable(4, 4, (2, 0, 3, 1)), FunctionTable(3, 2, (1, 0, 1)),
               FunctionTable(5, 3, (0, 2, 2, 1, 0))]
FUZZ_TIMEOUT = 1.0
HOSTILE_VALUES = [None, True, False, -1, 2**70, 1e308, -0.0, "", "alice", "x" * 64,
                  [], [[]], [0, [1]], {}, {"a": {}}, {"a": [None]}]


def json_paths(node, depth=3, prefix=()):
    """Every path to a field of a decoded frame body, down to `depth` keys or indices."""
    if depth == 0 or not isinstance(node, (dict, list)):
        return []
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    paths = []
    for key in keys:
        paths.append(prefix + (key,))
        paths += json_paths(node[key], depth - 1, prefix + (key,))
    return paths


def with_field(frame: bytes, choice: int, value) -> bytes:
    """The frame with one field, the choice-th of json_paths (mod their count), set to value."""
    body = json.loads(frame[4:])
    paths = json_paths(body)
    *parents, last = paths[choice % len(paths)]
    node = body
    for key in parents:
        node = node[key]
    node[last] = value
    text = json.dumps(body).encode()
    return struct.pack("<I", len(text)) + text


@functools.cache
def honest_run(f, seed):
    """(input, run_locc's transcript, frames each sender sends) of an honest run."""
    inp = random_state((f.M, f.N), ("A", "B"), seed)
    counts = Counter()
    send = QueueChannel.send

    def counting(channel, frame):
        counts[decode_wire(frame).sender] += 1
        send(channel, frame)

    with patch.object(QueueChannel, "send", counting):
        run_in_process(f, inp, seed, FUZZ_TIMEOUT)
    return inp, run_locc(f, inp, seed)[1], counts


class TestHostileField:
    """One field of one frame of a run_in_process run replaced by a hostile value.

    The run either completes with run_locc's transcript or raises one of
    the five mapped types, and leaves no party thread behind.
    """

    @given(st.sampled_from(FUZZ_TABLES), st.integers(0, 1), st.sampled_from(["alice", "bob", "referee"]),
           st.integers(0, 63), st.integers(0, 255), st.sampled_from(HOSTILE_VALUES))
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)  # about 2 s
    def test_run_ends_in_the_honest_transcript_or_a_mapped_error(self, f, seed, sender, index, choice, value):
        inp, transcript, counts = honest_run(f, seed)
        target, sent = index % counts[sender], [0]
        send = QueueChannel.send

        def hostile(channel, frame):  # only `sender`'s thread counts
            if decode_wire(frame).sender == sender:
                if sent[0] == target:
                    frame = with_field(frame, choice, value)
                sent[0] += 1
            send(channel, frame)

        before = set(threading.enumerate())
        with patch.object(QueueChannel, "send", hostile):
            try:
                _, got = run_in_process(f, inp, seed, FUZZ_TIMEOUT)
            except MAPPED_ERRORS:
                pass
            else:
                assert got.to_json() == transcript.to_json()
        assert [t for t in threading.enumerate() if t not in before] == []
