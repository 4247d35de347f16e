"""Distributed implementation of oracle unitaries for classical functions.

The package simulates the oracle |x>|y> -> |x>|y + f(x) mod N> for an
arbitrary table f: Z_M -> Z_N, decomposes it across the two registers,
realizes it with local operations and two classical messages between
Alice and Bob, and accounts for the entanglement and communication this
consumes.  Everything is driven by n_f, the number of distinct values f
takes.
"""

from .oracle import (
    FunctionTable,
    Partition,
    apply_oracle,
    build_partition,
    minimal_oracle,
    oracle_matrix,
    phase_exponential,
    phase_states,
    schmidt_decompose_oracle,
)
from .locc import (
    ResourceLedger,
    Transcript,
    ab_substate,
    build_locc_script,
    run_locc,
    run_locc_all_branches,
)
from .protocols import (
    ProtocolResult,
    entangle_protocol,
    send_backward,
    send_bidirectional,
    send_forward,
)
from .quantum import (
    LocalOperator,
    StateVector,
    apply_local,
    basis_state,
    entanglement_entropy,
    fidelity,
    from_amps,
    operator_schmidt_rank,
    partial_trace,
    random_state,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "FunctionTable",
    "Partition",
    "LocalOperator",
    "StateVector",
    "ProtocolResult",
    "ResourceLedger",
    "Transcript",
    "ab_substate",
    "apply_local",
    "apply_oracle",
    "basis_state",
    "build_locc_script",
    "build_partition",
    "entangle_protocol",
    "entanglement_entropy",
    "fidelity",
    "from_amps",
    "minimal_oracle",
    "operator_schmidt_rank",
    "oracle_matrix",
    "partial_trace",
    "phase_exponential",
    "phase_states",
    "random_state",
    "run_locc",
    "run_locc_all_branches",
    "schmidt_decompose_oracle",
    "send_backward",
    "send_bidirectional",
    "send_forward",
    "tensor",
]
