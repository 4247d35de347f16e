"""Outside-in layer tracing for the oracle_locc modules.

No source module is edited.  `Tracer.install` replaces every binding of a
hooked function with a wrapper that records a span (name, start, end,
parent span, call id, thread) in memory; `Tracer.uninstall` puts the
originals back.  A module-level function is found by identity wherever it
is bound: in every loaded `oracle_locc` module's globals and in dicts held
there (the step builders sit both in `locc` globals and in
`OPERATOR_BUILDERS`).  A method is patched on its class.  A hook whose
target no longer exists is reported absent with the reason instead of
failing, so the benchmark survives refactors that delete or move code.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import re
import sys
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple

PACKAGE = "oracle_locc"
STEPS = (1, 3, 4, 5, 7)
WIRE_KINDS = (
    "CLASSICAL_VALUE",
    "OP_REQUEST",
    "MEASURE_REQUEST",
    "MEASURE_RESULT",
    "HANDSHAKE",
    "ERROR",
)
BUILDERS = "oracle_locc.locc:OPERATOR_BUILDERS[*]"
RECV_ROLES = (".referee", ".party")


@dataclass(frozen=True)
class Hook:
    """One traced name and the program objects it wraps.

    A target is "module:attr" for a module-level function, "module:Class.attr"
    for a method, or BUILDERS for every step-operator builder.
    """

    name: str
    targets: tuple[str, ...]

    @property
    def span_names(self) -> tuple[str, ...]:
        if self.name == "netsim.channel_recv":
            return tuple(self.name + role for role in RECV_ROLES)
        return (self.name,)


def _hook(name: str, *targets: str) -> Hook:
    return Hook(name, targets)


_Q, _O, _L, _P, _N = (f"{PACKAGE}.{m}:" for m in ("quantum", "oracle", "locc", "protocols", "netsim"))

HOOKS = (
    _hook("quantum.apply_local", _Q + "apply_local"),
    _hook("quantum.measure_computational", _Q + "measure_computational"),
    _hook("quantum.collapse", _Q + "collapse"),
    _hook("quantum.entanglement_entropy", _Q + "entanglement_entropy"),
    _hook("quantum.operator_schmidt_rank", _Q + "operator_schmidt_rank"),
    _hook("quantum.LocalOperator.init", _Q + "LocalOperator.__post_init__"),
    _hook("quantum.StateVector.init", _Q + "StateVector.__post_init__"),
    _hook("oracle.build_partition", _O + "build_partition"),
    _hook("oracle.apply_oracle", _O + "apply_oracle"),
    _hook("oracle.oracle_matrix", _O + "oracle_matrix"),
    _hook("oracle.schmidt_decompose_oracle", _O + "schmidt_decompose_oracle"),
    _hook("locc.build_step_operator", BUILDERS),
    _hook("locc.run_locc", _L + "run_locc"),
    _hook("locc.run_locc_all_branches", _L + "run_locc_all_branches"),
    _hook("locc.initial_state", _L + "initial_state"),
    _hook("protocols.entangle_protocol", _P + "entangle_protocol"),
    _hook("protocols.send_forward", _P + "send_forward"),
    _hook("protocols.send_backward", _P + "send_backward"),
    _hook("protocols.send_bidirectional", _P + "send_bidirectional"),
    _hook("netsim.encode_matrix", _N + "encode_matrix"),
    _hook("netsim.decode_matrix", _N + "decode_matrix"),
    _hook("netsim.encode_wire", _N + "encode_wire"),
    _hook("netsim.decode_wire", _N + "decode_wire"),
    _hook("netsim.channel_send", _N + "QueueChannel.send", _N + "SocketChannel.send"),
    _hook("netsim.channel_recv", _N + "QueueChannel.recv", _N + "SocketChannel.recv"),
    _hook("cli.main", f"{PACKAGE}.cli:main"),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    call: int | None
    thread: int
    detail: str | None = None  # builder step ("step1") or wire kind
    size: int | None = None  # frame bytes, for encode_wire


def _resolve(target: str) -> list[tuple[object, str | None]]:
    """Objects a target names, each with its span detail; raises LookupError."""
    module_name, _, path = target.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"cannot import {module_name}: {exc}") from None
    where = module_name
    dict_items = path.endswith("[*]")
    for part in path.removesuffix("[*]").split("."):
        if not hasattr(obj, part):
            raise LookupError(f"{where} has no attribute {part!r}")
        obj, where = getattr(obj, part), f"{where}.{part}"
    if not dict_items:
        return [(obj, None)]
    if not isinstance(obj, dict) or not obj:
        raise LookupError(f"{where} is not a nonempty dict")
    found = []
    for key, fn in obj.items():
        step = re.match(r"step(\d+)", str(key))
        found.append((fn, f"step{step.group(1)}" if step else str(key)))
    return found


class Tracer:
    """Installs the hooks, records spans, and restores the program on exit."""

    def __init__(self, hooks: tuple[Hook, ...] = HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.call_id: int | None = None
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[Callable[[object], None], object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        self.absent.clear()
        for hook in self.hooks:
            missing = []
            found = 0
            for target in hook.targets:
                try:
                    resolved = _resolve(target)
                except LookupError as exc:
                    missing.append(str(exc))
                    continue
                for obj, detail in resolved:
                    found += self._patch(target, obj, self._wrap(obj, hook, detail))
            if not found:
                self.absent[hook.name] = "; ".join(missing) or "no binding found"

    def uninstall(self) -> None:
        while self._patches:
            restore, original = self._patches.pop()
            restore(original)

    def _patch(self, target: str, original, wrapper) -> int:
        """Rebind `original` to `wrapper`; returns how many bindings changed."""
        path = target.partition(":")[2].removesuffix("[*]")
        if "." in path and not target.endswith("[*]"):
            owner = _resolve(target.rpartition(".")[0])[0][0]
            attr = path.rpartition(".")[2]
            previous = vars(owner).get(attr)
            setattr(owner, attr, wrapper)
            self._patches.append(
                (lambda orig, o=owner, a=attr, had=previous is not None:
                 setattr(o, a, orig) if had else delattr(o, a), previous)
            )
            return 1
        count = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            namespace = vars(module)
            for container in [namespace] + [v for v in namespace.values() if isinstance(v, dict)]:
                for key, value in list(container.items()):
                    if value is original:
                        container[key] = wrapper
                        self._patches.append(
                            (lambda orig, c=container, k=key: c.__setitem__(k, orig), original)
                        )
                        count += 1
        return count

    def _wrap(self, fn, hook: Hook, detail: str | None):
        tracer = self
        by_thread = hook.name == "netsim.channel_recv"
        is_encoder = hook.name == "netsim.encode_wire"

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            name = hook.name
            if by_thread:
                # The referee always runs on the caller's (main) thread.
                main = threading.current_thread() is threading.main_thread()
                name += RECV_ROLES[0] if main else RECV_ROLES[1]
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                kind, size = detail, None
                if is_encoder and isinstance(result, bytes):
                    kind, size = args[0].kind, len(result)
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.call_id,
                                         threading.get_ident(), kind, size))

        return hooked

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


# --- turning spans into per-layer metrics ----------------------------------

def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total, cursor = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def summarize(spans: list[Span]) -> dict[str, list[float]]:
    """Per span name: [calls, total seconds inside, self seconds].

    Self time is a span's duration minus the part of it covered by its
    direct child spans.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out: dict[str, list[float]] = {}
    for span in spans:
        duration = span.end - span.start
        inner = _covered(span.start, span.end, children.get(span.id, []))
        row = out.setdefault(span.name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - inner
    return out


def per_layer_names(hooks: tuple[Hook, ...] = HOOKS) -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = []
    for hook in hooks:
        for span_name in hook.span_names:
            names += [(span_name + ".calls", "count"), (span_name + ".s", "s"),
                      (span_name + ".self_s", "s")]
    names += [(f"locc.build_step_operator.step{k}.s", "s") for k in STEPS]
    names += [(f"netsim.bytes.{kind}", "bytes") for kind in WIRE_KINDS]
    names += [("netsim.frames", "count"), ("netsim.useful_bits_ratio", "ratio"),
              ("trace.overhead", "ratio")]
    return names


def layer_metrics(
    spans: list[Span], absent: dict[str, str], ledger_wire_bits: int, overhead: float,
    hooks: tuple[Hook, ...] = HOOKS,
) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metric values and, for each metric left out, the reason."""
    totals = summarize(spans)
    values: dict[str, float] = {}
    missing: dict[str, str] = {}
    for hook in hooks:
        for span_name in hook.span_names:
            calls, inside, own = totals.get(span_name, (0, 0.0, 0.0))
            for suffix, value in ((".calls", calls), (".s", inside), (".self_s", own)):
                if hook.name in absent:
                    missing[span_name + suffix] = absent[hook.name]
                else:
                    values[span_name + suffix] = value
    builders = [s for s in spans if s.name == "locc.build_step_operator"]
    for k in STEPS:
        name = f"locc.build_step_operator.step{k}.s"
        times = [s.end - s.start for s in builders if s.detail == f"step{k}"]
        if "locc.build_step_operator" in absent:
            missing[name] = absent["locc.build_step_operator"]
        elif not times and builders:
            missing[name] = f"no builder for step {k} was called"
        else:
            values[name] = sum(times)
    frames = [s for s in spans if s.name == "netsim.encode_wire" and s.size is not None]
    wire = {
        f"netsim.bytes.{kind}": sum(s.size for s in frames if s.detail == kind)
        for kind in WIRE_KINDS
    }
    wire["netsim.frames"] = len(frames)
    total_bytes = sum(s.size for s in frames)
    wire["netsim.useful_bits_ratio"] = ledger_wire_bits / (8 * total_bytes) if total_bytes else 0.0
    for name, value in wire.items():
        if "netsim.encode_wire" in absent:
            missing[name] = absent["netsim.encode_wire"]
        else:
            values[name] = value
    values["trace.overhead"] = overhead
    return values, missing


def counts(values: dict[str, float]) -> dict[str, float]:
    """The per-layer metrics that must repeat exactly between same-seed runs."""
    return {k: v for k, v in values.items()
            if k.endswith(".calls") or k.startswith(("netsim.bytes.", "netsim.frames"))}
