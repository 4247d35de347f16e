"""Capacity-achieving two-party protocols built on a single oracle use.

Four protocols, all pure linear algebra with exact (amplitude-level)
decoding probabilities:

  * entangle_protocol: create log2(n_f) ebits from a product state.
  * send_forward: Alice transmits one of n_f messages to Bob.
  * send_backward: Bob transmits one of n_f messages to Alice, starting
    from a pre-shared entangled state and a phase-grading unitary.
  * send_bidirectional: for a permutation, both directions at once,
    log2(M) bits each way; send_bidirectional_all runs it for every one
    of Bob's messages in one walk.

Messages are indices into the sorted list of attained values, matching
the ordering produced by build_partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .oracle import FunctionTable, apply_oracle, build_partition
from .quantum import LocalOperator, StateVector, apply_local, basis_state, entanglement_entropy, from_amps

DECODE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of one protocol run.

    decoded is the message (or (r, s) pair) read out of the final state;
    outcome_probabilities is the exact distribution the decoder saw.  For
    the one-way protocols this is a vector over messages; send_backward
    appends one extra entry holding the residual weight outside Alice's
    decoding family, which must be negligible.  For the bidirectional
    protocol it is a matrix with entry [i, j] the probability that Bob
    reads i and Alice reads j.
    """

    decoded: int | tuple[int, int]
    success: bool
    final_state: StateVector
    outcome_probabilities: np.ndarray


def _check_message(value: int, bound: int, name: str) -> int:
    value = int(value)
    if not 0 <= value < bound:
        raise ValueError(f"message {name}={value} out of range 0..{bound - 1}")
    return value


def representative_superposition(f: FunctionTable) -> np.ndarray:
    """Alice's register state: equal weight on one representative per level set."""
    partition = build_partition(f)
    amps = np.zeros(f.M, dtype=np.complex128)
    amps[list(partition.reps)] = 1.0 / np.sqrt(partition.n_values)
    return amps


def entangle_protocol(f: FunctionTable) -> tuple[StateVector, float]:
    """Run the entanglement-creation protocol; returns (final state, ebits).

    Alice holds an equal superposition of level-set representatives, Bob
    holds |0>.  One oracle call correlates each representative with its
    function value, leaving a maximally entangled rank-n_f state, so the
    entropy across the A:B cut is log2(n_f) ebits.
    """
    amps = np.zeros((f.M, f.N), dtype=np.complex128)
    amps[:, 0] = representative_superposition(f)
    final = apply_oracle(f, from_amps((f.M, f.N), ("A", "B"), amps))
    return final, entanglement_entropy(final, {"A"})


def send_forward(f: FunctionTable, r: int) -> ProtocolResult:
    """Alice sends r by preparing the r-th representative; Bob reads f_r."""
    partition = build_partition(f)
    r = _check_message(r, partition.n_values, "r")
    final = apply_oracle(f, basis_state((f.M, f.N), ("A", "B"), (partition.reps[r], 0)))
    target_probs = np.sum(np.abs(final.tensor_view()) ** 2, axis=0)
    probs = target_probs[list(partition.values)]
    decoded = int(np.argmax(probs))
    success = bool(decoded == r and abs(probs[decoded] - 1.0) <= DECODE_TOL)
    return ProtocolResult(decoded, success, final, probs)


def backward_decode_states(f: FunctionTable) -> np.ndarray:
    """Alice's decoding family as rows: row s' is n_f^{-1/2} sum_j e^{2 pi i j s'/n_f} |x_j>.

    The rows are orthonormal; they span only the representatives' subspace,
    so a full measurement needs one extra outcome for the complement.
    """
    partition = build_partition(f)
    n = partition.n_values
    states = np.zeros((n, f.M), dtype=np.complex128)
    j = np.arange(n)
    s_prime = j[:, None]
    states[:, list(partition.reps)] = np.exp((2j * np.pi * j) * s_prime / n) / np.sqrt(n)
    return states


def _grading_phases(f: FunctionTable, s: int) -> np.ndarray:
    """Bob's encoding: phase e^{2 pi i j s/n_f} on |(N - f_j) mod N>, 1 elsewhere.

    The phased positions are exactly the support of Bob's half of the
    pre-shared state, so any unitary completion would act the same way;
    identity on the complement is the simplest.
    """
    partition = build_partition(f)
    s = _check_message(s, partition.n_values, "s")
    n = partition.n_values
    phases = np.ones(f.N, dtype=np.complex128)
    # Divided as Python complex numbers: numpy divides an array by n through
    # 1/n, which moves some angles by an ulp.
    angles = [2j * np.pi * j * s / n for j in range(n)]
    phases[(f.N - np.array(partition.values)) % f.N] = np.exp(angles)
    return phases


def send_backward(f: FunctionTable, s: int) -> ProtocolResult:
    """Bob sends s through a phase imprinted on a pre-shared entangled state.

    The parties share n_f^{-1/2} sum_j |x_j>_A |N - f_j mod N>_B.  Bob
    grades the branches with his s-dependent phases, the oracle then adds
    f_j back onto Bob's register, disentangling it into |0> and leaving the
    phase pattern with Alice, who reads it with the decoding family.
    """
    partition = build_partition(f)
    s = _check_message(s, partition.n_values, "s")
    n = partition.n_values
    amps = np.zeros((f.M, f.N), dtype=np.complex128)
    amps[list(partition.reps), (f.N - np.array(partition.values)) % f.N] = 1.0 / np.sqrt(n)
    shared = from_amps((f.M, f.N), ("A", "B"), amps.reshape(-1))
    grading = LocalOperator("B", source=np.arange(f.N), phases=_grading_phases(f, s))
    graded = apply_local(shared, grading)
    final = apply_oracle(f, graded)
    decode = backward_decode_states(f)
    projected = decode.conj() @ final.tensor_view()
    family_probs = np.sum(np.abs(projected) ** 2, axis=1)
    residual = max(0.0, 1.0 - float(family_probs.sum()))
    probs = np.concatenate([family_probs, [residual]])
    decoded = int(np.argmax(family_probs))
    success = bool(decoded == s and abs(family_probs[decoded] - 1.0) <= DECODE_TOL)
    return ProtocolResult(decoded, success, final, probs)


def send_bidirectional(f: FunctionTable, r: int, s: int) -> ProtocolResult:
    """Both parties send log2(M) bits at once; needs an invertible f.

    Starting from M^{-1/2} sum_x |x>_A |M - x mod M>_B, Alice encodes r by
    relabelling |x> -> |f^{-1}(x + r mod M)> and Bob by phasing his basis.
    One oracle call collapses Bob's register to |r> while Alice is left in
    the phase eigenstate indexed by s after undoing her relabelling.  This
    is the walk of send_bidirectional_all with Bob's message fixed to s.
    """
    return _bidirectional(f, r, [s])[0]


def send_bidirectional_all(f: FunctionTable, r: int) -> list[ProtocolResult]:
    """send_bidirectional(f, r, s) for every s, in order, from one walk of the protocol.

    Bob's message sits in a register m of his, in equal superposition over
    every s, and his phasing is controlled on it; slice m = s of the M^3
    amplitudes on (m, A, B) is the final state for s.
    """
    return _bidirectional(f, r, range(f.M))


def _bidirectional(f: FunctionTable, r: int, messages) -> list[ProtocolResult]:
    """The bidirectional protocol for Alice's r and each of Bob's messages, in one walk."""
    if not f.is_permutation():
        raise ValueError("bidirectional protocol requires a permutation")
    M = f.M
    r = _check_message(r, M, "r")
    messages = np.array([_check_message(s, M, "s") for s in messages])
    k = len(messages)
    x = np.arange(M)
    ones = np.ones(M)

    amps = np.zeros((k, M, M), dtype=np.complex128)
    amps[:, x, (M - x) % M] = 1.0 / np.sqrt(M * k)
    state = from_amps((k, M, M), ("m", "A", "B"), amps.reshape(-1))

    # Alice's relabelling |x> -> |f^{-1}(x + r)>: row i holds its 1 in column f(i) - r.
    alice_source = (np.array(f.table) - r) % M
    bob_phases = np.exp(-2j * np.pi * messages[:, None] * x / M)  # [s, x]
    state = apply_local(state, LocalOperator("A", source=alice_source, phases=ones))
    state = apply_local(state, LocalOperator(("m", "B"), source=np.arange(k * M),
                                             phases=bob_phases.reshape(-1)))

    state = apply_oracle(f, state)

    state = apply_local(state, LocalOperator("A", source=np.argsort(alice_source), phases=ones))
    # Relabelling |r'><M + r' mod M| is the identity on Z_M; applied anyway
    # so the implemented sequence matches the protocol step for step.
    final = apply_local(state, LocalOperator("B", source=(M + x) % M, phases=ones))

    finals = final.tensor_view() * np.sqrt(k)  # [s, x, y], each slice normalized
    joint = np.fft.fft(finals, axis=1, norm="ortho")  # [s, s', r'] amplitude
    results = []
    for s, ab, amplitudes in zip(messages, finals, joint):
        probs = np.abs(amplitudes.T) ** 2  # [r', s']
        r_hat, s_hat = np.unravel_index(int(np.argmax(probs)), probs.shape)
        decoded = (int(r_hat), int(s_hat))
        success = bool(decoded == (r, s) and abs(probs[r_hat, s_hat] - 1.0) <= DECODE_TOL)
        results.append(ProtocolResult(decoded, success, from_amps((M, M), ("A", "B"), ab), probs))
    return results
