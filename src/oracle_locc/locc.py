"""Distributed oracle execution with local operations and classical messages.

The oracle on registers A (Alice, dimension M) and B (Bob, dimension N) is
realized without any joint quantum operation.  The parties pre-share a
maximally entangled ancilla pair a, b of dimension n_f (the number of
distinct function values) and then run seven strictly ordered steps:

  1. Alice entangles A with her ancilla: the level-set index of A's value
     is added onto a.
  2. Alice measures a, getting r, and sends r to Bob.
  3. Bob relabels his ancilla j -> (r - j) mod n_f, so b now carries the
     level-set index of Alice's input directly.
  4. Bob runs a local oracle from b to B: B is shifted by the function
     value of the level set indexed by b.
  5. Bob Fourier-transforms b.
  6. Bob measures b, getting s, and sends s to Alice.
  7. Alice removes the leftover level-set-dependent phase from A.

The final A, B state equals the direct oracle action for every (r, s)
branch; the outcomes themselves are uniform noise.  Ancilla basis state
|j> stands for the representative input of the j-th level set (smallest
element, function values sorted ascending); the correspondence is spelled
out in the transcript step descriptions.

Resource accounting: the ancilla pair carries log2(n_f) ebits which are
fully consumed, and each direction sends one classical value of
ceil(log2 n_f) wire bits carrying log2(n_f) bits of information.
"""

from __future__ import annotations

import json
import mmap
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache, reduce
from math import prod
from typing import Callable

import numpy as np

from .oracle import (
    FunctionTable,
    build_partition,
    phase_states,
)
from .quantum import (
    KeyedState,
    LocalOperator,
    StateVector,
    _check_normalized,
    _Layout,
    _Owned,
    apply_local,
    entanglement_entropy,
    from_amps,
    measure_computational,
    reorder,
    von_neumann_entropy,
)

SUBSYSTEM_ORDER = ("A", "a", "B", "b")
OWNERS = {"A": "alice", "a": "alice", "B": "bob", "b": "bob"}
BASIS_STATE_TOL = 1e-10


def wire_bits(n_values: int) -> int:
    """Classical bits needed on the wire for one outcome: ceil(log2 n_f)."""
    return (n_values - 1).bit_length()


@dataclass(frozen=True)
class ScriptStep:
    """One entry of the ordered protocol script.

    step is the protocol step number for quantum actions and None for the
    two classical sends; operation names the operator builder so remote
    endpoints can rebuild the matrix once outcome-dependent values are
    known (depends_on marks which received value is needed).  value names
    the classical value a measure produces or a send carries.
    """

    step: int | None
    party: str
    action: str  # "apply" | "measure" | "send"
    operation: str
    targets: tuple[str, ...]
    description: str
    depends_on: str | None = None  # "r" | "s" for outcome-dependent operators
    value: str | None = None  # "r" | "s" for measures and sends


@dataclass(frozen=True)
class WireRecord:
    """Classical message as it appeared on the channel."""

    sender: str
    receiver: str
    value: int
    bits: int


@dataclass(frozen=True, eq=False)
class ResourceLedger:
    """Resources consumed by one distributed run."""

    ebits_consumed: float
    bits_forward_info: float
    bits_backward_info: float
    bits_forward_wire: int
    bits_backward_wire: int

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Transcript:
    """Record of one run: what was done, what was measured, what was sent.

    The serialized form carries {f, seed, r, s, steps, ledger} in that
    fixed key order; the wire messages are kept on the object for
    inspection but are fully determined by (r, s) and the ledger widths.
    """

    f: FunctionTable
    seed: int
    r: int
    s: int
    steps: tuple[ScriptStep, ...]  # the numbered steps of the script
    messages: tuple[WireRecord, ...]
    ledger: ResourceLedger

    def to_json_dict(self) -> dict:
        return {
            "f": self.f.to_json_dict(),
            "seed": self.seed,
            "r": self.r,
            "s": self.s,
            "steps": [
                {"step": st.step, "party": st.party, "description": st.description}
                for st in self.steps
            ],
            "ledger": self.ledger.to_json_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


@dataclass(frozen=True, eq=False)
class BranchResult:
    """One (r, s) measurement branch of the deterministic enumeration."""

    r: int
    s: int
    probability: float
    final_state: StateVector


def _check_input(input_state: StateVector, f: FunctionTable) -> StateVector:
    if set(input_state.labels) != {"A", "B"}:
        raise ValueError(f"input must live on labels A and B, got {input_state.labels}")
    state = reorder(input_state, ("A", "B"))
    if state.dims != (f.M, f.N):
        raise ValueError(f"input dims {state.dims} do not match (M, N) = {(f.M, f.N)}")
    return state


def initial_state(f: FunctionTable, input_state: StateVector) -> StateVector:
    """Input on A, B joined with the fresh ancilla pair, ordered A, a, B, b.

    The amplitude of |x, j, y, j> is input[x, y] / sqrt(n_f), written onto
    that diagonal directly; every other amplitude is zero.  execute_script
    starts from the same state keyed by b (_initial_support).
    """
    n = build_partition(f).n_values
    ab = _check_input(input_state, f)
    amps = np.zeros((f.M, n, f.N, n), dtype=np.complex128)
    j = np.arange(n)
    amps[:, j, :, j] = ab.tensor_view() * (1.0 / np.sqrt(n))
    return StateVector(amps.shape, SUBSYSTEM_ORDER, _Owned(amps))


def _initial_support(f: FunctionTable, input_state: StateVector) -> KeyedState:
    """initial_state as a KeyedState on rows (A, a): row (x, j) reads input[x, :] / sqrt(n_f), at b = j.

    The M x N amplitudes are written once: the n_f rows of each x share row x.
    """
    n = build_partition(f).n_values
    ab = _check_input(input_state, f)
    at, key = np.divmod(np.arange(f.M * n), n)
    amps = ab.tensor_view() * (1.0 / np.sqrt(n))
    return KeyedState((f.M, n, f.N, n), SUBSYSTEM_ORDER, 2, _Owned(key), _Owned(amps), _Owned(at))


# numpy's huge-page size: from it, np.zeros advises huge pages, so the
# ancilla scatter faults in 2 MB for each x it writes (and calloc may clear
# a recycled heap block whole).  Fresh anonymous pages are zero-filled by the
# kernel only where written.  Below it np.zeros is the faster call, scatter
# included: 3 against 23 us at 64 KiB and 29 against 35 us at 1 MiB; the two
# cross near 2.5 MiB.
_FRESH_PAGES_BYTES = 4 << 20


class _BlockState(StateVector):
    """A run's (A, a, B, b) state, held as its M x N A, B block with the ancillas in |r>, |s>.

    Its norm is checked on the block, the only amplitudes that can be
    nonzero.  amps, the dense M * n_f * N * n_f form, is built on first read,
    as LocalOperator.matrix is; ab_substate reads the block and builds none.
    """

    def __init__(self, block: np.ndarray, n: int, r: int, s: int):
        _check_normalized(block)
        block = block.view()  # read-only here, whoever else holds the array
        block.setflags(write=False)
        M, N = block.shape
        object.__setattr__(self, "dims", (M, n, N, n))
        object.__setattr__(self, "labels", SUBSYSTEM_ORDER)
        object.__setattr__(self, "block", block)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)
        _Layout.__post_init__(self)

    @cached_property
    def amps(self) -> np.ndarray:
        """The dense amplitudes, read-only, built on first read.

        From _FRESH_PAGES_BYTES they sit on fresh anonymous pages, so their
        zeros take no memory, read or not.
        """
        nbytes = 16 * prod(self.dims)
        if nbytes < _FRESH_PAGES_BYTES:
            amps = np.zeros(self.dims, dtype=np.complex128)
        else:
            # Private: an unwritten page then reads as the kernel's zero page; a shared one is allocated.
            flags = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}
            try:
                pages = mmap.mmap(-1, nbytes, **flags)
            except OSError as exc:
                raise MemoryError(f"the dense {self.dims} state needs {nbytes} bytes, "
                                  f"which the kernel refused to map: {exc}") from exc
            if hasattr(mmap, "MADV_NOHUGEPAGE"):  # or huge pages set to "always" fault 2 MB an x
                pages.madvise(mmap.MADV_NOHUGEPAGE)
            amps = np.frombuffer(pages, np.complex128).reshape(self.dims)
        amps[:, self.r, :, self.s] = self.block
        amps = amps.reshape(-1)
        amps.setflags(write=False)
        return amps


# _with_ancillas(ab, n, r, s): the (A, a, B, b) state with A, B amplitudes ab (an M x N
# array) and the ancillas in |r>, |s>.
_with_ancillas = _BlockState


# --- step operators ------------------------------------------------------

def _permutation(target, source: np.ndarray) -> LocalOperator:
    """The operator with a 1 at (i, source[i]) for every row i."""
    return LocalOperator(target, source=source, phases=np.ones(len(source)))


def step1_operator(f: FunctionTable) -> LocalOperator:
    """Alice's joint unitary on (A, a): project A onto level set k, shift a by k."""
    partition = build_partition(f)
    n = partition.n_values
    # |x, j> -> |x, j + k(x) mod n>, so row (x, j) reads column (x, j - k(x) mod n).
    x, j = np.divmod(np.arange(f.M * n), n)
    source = x * n + (j - partition.level[x]) % n
    return _permutation(("A", "a"), source)


def step3_operator(f: FunctionTable, r: int) -> LocalOperator:
    """Bob's relabelling j -> (r - j) mod n_f on b (its own inverse)."""
    n = build_partition(f).n_values
    source = (r - np.arange(n)) % n  # an involution, so row i reads column (r - i) mod n
    return _permutation("b", source)


def step4_operator(f: FunctionTable) -> LocalOperator:
    """Bob's local oracle on (B, b): shift B by the value of the set indexed by b."""
    partition = build_partition(f)
    n = partition.n_values
    # |y, k> -> |y + values[k] mod N, k>, so row (y, k) reads column (y - values[k] mod N, k).
    y, k = np.divmod(np.arange(f.N * n), n)
    source = ((y - np.asarray(partition.values)[k]) % f.N) * n + k
    return _permutation(("B", "b"), source)


def step5_operator(f: FunctionTable) -> LocalOperator:
    """Discrete Fourier transform on b (same matrix as the phase basis)."""
    return _dft(build_partition(f).n_values)


@lru_cache(maxsize=16)  # each holds an n x n matrix, so fewer than _pair_entropy's floats
def _dft(n: int) -> LocalOperator:
    """step5_operator for n_f = n, built and checked for unitarity (n^3 work) once per n."""
    return LocalOperator("b", phase_states(n))


def step7_operator(f: FunctionTable, s: int) -> LocalOperator:
    """Alice's phase correction on A: exp(-2 pi i k s / n_f) on level set k."""
    partition = build_partition(f)
    n = partition.n_values
    # One Python scalar per class, spread by level: dividing an array by n moves some angles by an ulp.
    phases = np.array([np.exp(-2j * np.pi * k * s / n) for k in range(n)])[partition.level]
    return LocalOperator("A", source=np.arange(f.M), phases=phases)


OPERATOR_BUILDERS: dict[str, Callable[..., LocalOperator]] = {
    "step1_controlled_shift": step1_operator,
    "step3_bob_shift": step3_operator,
    "step4_local_oracle": step4_operator,
    "step5_dft": step5_operator,
    "step7_phase_fix": step7_operator,
}


def build_step_operator(f: FunctionTable, operation: str, value: int | None = None) -> LocalOperator:
    """Materialize a script operator, passing the received r or s if required."""
    builder = OPERATOR_BUILDERS.get(operation)
    if builder is None:
        raise KeyError(f"unknown protocol operation {operation!r}")
    if operation in ("step3_bob_shift", "step7_phase_fix"):
        if value is None:
            raise ValueError(f"{operation} needs the received classical value")
        return builder(f, int(value))
    return builder(f)


# --- script and transcript -----------------------------------------------

def build_locc_script(f: FunctionTable) -> tuple[ScriptStep, ...]:
    """The full ordered script, including the two classical sends."""
    partition = build_partition(f)
    reps = ", ".join(str(x) for x in partition.reps)
    return (
        ScriptStep(
            1, "alice", "apply", "step1_controlled_shift", ("A", "a"),
            f"add the level-set index of A onto a (ancilla basis j stands for input {reps})",
        ),
        ScriptStep(2, "alice", "measure", "step2_measure", ("a",),
                   "computational measurement of a, outcome r", value="r"),
        ScriptStep(None, "alice", "send", "send_r", (),
                   "Alice sends r to Bob", value="r"),
        ScriptStep(3, "bob", "apply", "step3_bob_shift", ("b",),
                   "relabel j -> (r - j) mod n_f on b", depends_on="r"),
        ScriptStep(4, "bob", "apply", "step4_local_oracle", ("B", "b"),
                   "shift B by the function value of the level set indexed by b"),
        ScriptStep(5, "bob", "apply", "step5_dft", ("b",),
                   "discrete Fourier transform on b"),
        ScriptStep(6, "bob", "measure", "step6_measure", ("b",),
                   "computational measurement of b, outcome s", value="s"),
        ScriptStep(None, "bob", "send", "send_s", (),
                   "Bob sends s to Alice", value="s"),
        ScriptStep(7, "alice", "apply", "step7_phase_fix", ("A",),
                   "remove the level-set phase exp(-2 pi i k s / n_f) from A",
                   depends_on="s"),
    )


def authorized(party: str, targets: tuple[str, ...]) -> bool:
    """True when every target subsystem is owned by the acting party."""
    return all(OWNERS.get(label) == party for label in targets)


def make_ledger(n_values: int, initial_entropy: float, final_entropy: float) -> ResourceLedger:
    info = float(np.log2(n_values))
    wires = wire_bits(n_values)
    return ResourceLedger(
        ebits_consumed=initial_entropy - final_entropy,
        bits_forward_info=info,
        bits_backward_info=info,
        bits_forward_wire=wires,
        bits_backward_wire=wires,
    )


def make_transcript(
    f: FunctionTable,
    seed: int,
    script: tuple[ScriptStep, ...],
    r: int,
    s: int,
    ledger: ResourceLedger,
) -> Transcript:
    """Assemble the transcript of one run of the given script."""
    steps = tuple(st for st in script if st.step is not None)
    width = wire_bits(build_partition(f).n_values)
    messages = (
        WireRecord("alice", "bob", r, width),
        WireRecord("bob", "alice", s, width),
    )
    return Transcript(f, seed, r, s, steps, messages, ledger)


# --- the script interpreter ----------------------------------------------

@lru_cache(maxsize=64)
def _pair_entropy(n: int) -> float:
    """The entropy of the fresh pair's reduced state on a, I / n: it depends on n alone."""
    pair = np.eye(n) / np.sqrt(n)
    return von_neumann_entropy(pair @ pair.conj().T)


class LocalParties:
    """Both parties in this process: every operator is built from the script."""

    def __init__(self, f: FunctionTable):
        self.f = f

    def apply(self, step: ScriptStep, state: StateVector, value: int | None) -> StateVector:
        return apply_local(state, build_step_operator(self.f, step.operation, value))

    def measured(self, step: ScriptStep, outcome: int) -> None:
        pass

    def sent(self, step: ScriptStep, value: int) -> None:
        pass


def execute_script(
    f: FunctionTable, input_state: StateVector, seed: int, parties
) -> tuple[StateVector, Transcript]:
    """The one interpreter of build_locc_script(f); returns (final state, transcript).

    It owns the seeded generator, the global state, both measurements, the
    ledger and the transcript.  parties (LocalParties or the networked
    Referee) performs each apply step as parties.apply(step, state, value),
    value being the r or s the step depends on, and is told about each
    measure and send by parties.measured(step, outcome) and sent(step, value).
    The state is a KeyedState (_initial_support) until b is measured: its
    rows share the input's M x N amplitudes until a is measured, and step 5
    keeps the DFT as its factor, so every array of the walk holds O(M * N +
    (M + N) * n_f) values.  Step 6's slice is the run's first StateVector.
    A measured ancilla leaves the state (see collapse): the steps after it
    see that label at dimension 1, and the returned state has both ancillas
    back at dimension n_f, in |r> and |s>, held as its A, B block until its
    dense form is read (_with_ancillas).
    """
    rng = np.random.default_rng(int(seed))
    script = build_locc_script(f)
    state = _initial_support(f, input_state)
    n = state.dim_of("a")
    values: dict[str, int] = {}
    for step in script:
        if step.action == "apply":
            state = parties.apply(step, state, values.get(step.depends_on))
        elif step.action == "measure":
            values[step.value], state = measure_computational(state, step.targets[0], rng)
            parties.measured(step, values[step.value])
        else:
            parties.sent(step, values[step.value])
    final_entropy = entanglement_entropy(state, {"a"})
    ledger = make_ledger(build_partition(f).n_values, _pair_entropy(n), final_entropy)
    transcript = make_transcript(f, int(seed), script, values["r"], values["s"], ledger)
    return _with_ancillas(state.tensor_view()[:, 0, :, 0], n, values["r"], values["s"]), transcript


def run_bytes(M: int, N: int, n_f: int) -> int:
    """The bytes one run allocates at most, at 16 bytes an amplitude and 8 an index.

    The keyed walk holds no more than four arrays of M * N amplitudes, the last of them
    the returned state's A, B block, and eight words for each entry of the step-1 and
    step-4 operators, M * n_f and N * n_f of them: under tracemalloc, from
    _initial_support to step 7, it peaked at 7.0 to 7.5 times 16 * M * N bytes at
    M = N = n_f = 32, 64 and 128.  The returned state's dense form, 16 * M * N * n_f^2
    bytes, is not counted: it is built only when read (see _with_ancillas).
    """
    return 4 * 16 * M * N + 8 * 8 * (M + N) * n_f


def run_locc(
    f: FunctionTable, input_state: StateVector, rng_seed: int
) -> tuple[StateVector, Transcript, ResourceLedger]:
    """Execute one seeded run of the distributed protocol.

    Returns the final four-subsystem state (A, a, B, b with the ancillas
    left in |r> and |s>), the transcript, and the resource ledger.  The
    A, B part equals apply_oracle(f, input) for every seed.  The state holds
    that part alone until its amps are read; ab_substate reads it as it is.
    """
    state, transcript = execute_script(f, input_state, rng_seed, LocalParties(f))
    return state, transcript, transcript.ledger


def deferred_operators(f: FunctionTable) -> list[LocalOperator]:
    """The script's operators, in order, with both measurements deferred.

    The measure steps are skipped, so each measured ancilla keeps its
    dimension, and a step that depends on an outcome becomes one controlled
    on that ancilla (Nielsen & Chuang, section 4.4): one monomial operator
    on (ancilla, *targets) stacks build_step_operator(f, operation, v) for
    every value v of the ancilla.  None depends on the input.
    """
    n = build_partition(f).n_values
    measured: dict[str, str] = {}  # classical value -> the ancilla it is read from
    operators = []
    for step in build_locc_script(f):
        if step.action == "measure":
            measured[step.value] = step.targets[0]
        elif step.action == "apply" and step.depends_on is None:
            operators.append(build_step_operator(f, step.operation))
        elif step.action == "apply":
            ops = [build_step_operator(f, step.operation, v) for v in range(n)]
            operators.append(LocalOperator(
                (measured[step.depends_on], *step.targets),
                source=np.concatenate([v * op.dim + op.source for v, op in enumerate(ops)]),
                phases=np.concatenate([op.phases for op in ops]),
            ))
    return operators


def apply_deferred(f: FunctionTable, input_state: StateVector, ops: list[LocalOperator]) -> StateVector:
    """The (A, a, B, b) state after ops, f's deferred_operators, act on initial_state in order.

    Slice [:, r, :, s] is branch (r, s)'s final A, B state times the root of its probability.
    """
    return reduce(apply_local, ops, initial_state(f, input_state))


def run_locc_deferred(f: FunctionTable, input_state: StateVector) -> StateVector:
    """Every (r, s) branch of one input at once: apply_deferred with f's deferred_operators."""
    return apply_deferred(f, input_state, deferred_operators(f))


def run_locc_all_branches(f: FunctionTable, input_state: StateVector) -> list[BranchResult]:
    """Deterministically enumerate every (r, s) measurement branch.

    All n_f^2 branches come from one run_locc_deferred walk: each is a
    slice of its final state, renormalized, with the ancillas in |r>, |s>.
    Each branch carries probability 1/n_f^2 regardless of the input, and
    each final A, B state equals the direct oracle action.
    """
    amps = run_locc_deferred(f, input_state).tensor_view()
    n = amps.shape[1]
    branches = []
    for r in range(n):
        for s in range(n):
            ab = amps[:, r, :, s]
            weight = float(np.vdot(ab, ab).real)
            final_state = _with_ancillas(ab / np.sqrt(weight), n, r, s)
            branches.append(BranchResult(r, s, weight, final_state))
    return branches


def ab_substate(state: StateVector) -> StateVector:
    """Extract the A, B state once both ancillas sit in basis states.

    Raises if either ancilla is not (within tolerance) in a computational
    basis state, since then the A, B part is not a pure state on its own.
    The ancillas' basis states |r>, |s> are read off the first nonzero
    amplitude, or off a run's returned state, whose dense form is not built;
    then the [:, r, :, s] slice must carry the whole norm.
    """
    state = reorder(state, SUBSYSTEM_ORDER)
    if isinstance(state, _BlockState):
        r, s, sliced = state.r, state.s, state.block
    else:
        amps = state.tensor_view()
        first = next(row for row in amps if row.any())  # a normalized state has one
        r, _, s = np.unravel_index(int(np.flatnonzero(first)[0]), first.shape)
        sliced = amps[:, r, :, s]
    weight = float(np.vdot(sliced, sliced).real)
    if abs(weight - 1.0) > BASIS_STATE_TOL:
        raise ValueError(f"ancillas are not in a basis state (weight {weight} at a = {r}, b = {s})")
    return from_amps(
        (state.dims[0], state.dims[2]), ("A", "B"), sliced.reshape(-1), normalize=True
    )
