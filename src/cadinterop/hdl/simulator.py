"""Event-driven simulation kernel with a pluggable event-ordering policy.

Section 3.1: "simulation results depend on the scheduling algorithm the
simulator uses to order and process events.  Different Verilog simulators
can legitimately disagree on the outcome of the same simulation, because
the simulation cycle and processing order for simultaneous events are not
completely defined by the language."

That under-specification is made explicit here: the kernel takes an
:class:`OrderingPolicy` deciding which of the simultaneously-activated
processes runs next.  Race-free models produce identical results under
every policy; racy models legitimately diverge — which is exactly how
:mod:`cadinterop.hdl.races` detects races.

Semantics implemented (standard-conformant core):

* 4-value scalars, ``x`` initial value;
* blocking assignments take effect immediately within a process;
* nonblocking assignments are deferred to the NBA phase of the time step;
* continuous assigns and gates re-evaluate when any input changes, with
  inertial delay (a pending update is superseded by re-evaluation);
* multiple drivers on a net resolve per the 4-value resolution function;
* ``initial`` blocks support ``#delay``.
"""

from __future__ import annotations

import heapq
import inspect
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from cadinterop.hdl.ast_nodes import (
    AlwaysBlock,
    Assign,
    Binary,
    Cond,
    Const,
    ContAssign,
    Delay,
    Expr,
    GateInst,
    HDLError,
    If,
    InitialBlock,
    Module,
    Stmt,
    Unary,
    Var,
    expr_reads,
)
from cadinterop.hdl.compile import CompiledModel, compile_model
from cadinterop.hdl.logic import Logic4
from cadinterop.obs import get_metrics, get_tracer

#: Available simulation kernels: the interpreted reference oracle, and the
#: closure-compiled production path (see :mod:`cadinterop.hdl.compile`).
KERNELS = ("interp", "compiled")
DEFAULT_KERNEL = "compiled"


# ---------------------------------------------------------------------------
# Ordering policies
# ---------------------------------------------------------------------------


def _accepts_ordinal(select: Callable[..., int]) -> bool:
    """Does ``select`` take a second positional (activation ordinal) arg?"""
    try:
        signature = inspect.signature(select)
    except (TypeError, ValueError):  # builtins without introspection
        return False
    positional = 0
    for parameter in signature.parameters.values():
        if parameter.kind == parameter.VAR_POSITIONAL:
            return True
        if parameter.kind in (
            parameter.POSITIONAL_ONLY,
            parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
    return positional >= 2


@dataclass(frozen=True)
class OrderingPolicy:
    """Chooses which ready process activation runs next.

    ``select`` receives the list of ready activation keys (ints, in arrival
    order) and returns the index to run.  It may take a second positional
    argument — the per-run activation ordinal — which stateful strategies
    (e.g. seeded shuffles) should use to stay deterministic across reruns.
    All policies are legal readings of the standard: the choice is
    observable only for racy models.
    """

    name: str
    select: Callable[..., int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "_takes_ordinal", _accepts_ordinal(self.select))

    def choose(self, ready: Sequence[int], ordinal: int) -> int:
        if self._takes_ordinal:  # type: ignore[attr-defined]
            return self.select(ready, ordinal)
        return self.select(ready)


FIFO = OrderingPolicy("fifo", lambda ready: 0)
LIFO = OrderingPolicy("lifo", lambda ready: len(ready) - 1)

_MASK64 = (1 << 64) - 1


def _mix(seed: int, ordinal: int) -> int:
    """splitmix64-style integer mix: uniform-ish, cheap, stateless."""
    x = (seed * 0x9E3779B97F4A7C15 + ordinal + 1) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def seeded_shuffle_policy(seed: int) -> OrderingPolicy:
    """A pseudo-random but *stateless* ordering policy.

    The selection is a pure function of (seed, activation ordinal), so one
    policy object reused across ensemble runs — or a rerun with a cached
    result — reproduces the same schedule every time.  (The previous
    implementation closed over a shared ``random.Random``, so reuse gave
    different selections per run.)
    """

    def select(ready: Sequence[int], ordinal: int = 0) -> int:
        return _mix(seed, ordinal) % len(ready)

    return OrderingPolicy(f"shuffle{seed}", select)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: Expr, values: Dict[str, str]) -> str:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return values[expr.name]
    if isinstance(expr, Unary):
        operand = evaluate(expr.operand, values)
        if expr.op == "~":
            return Logic4.not_(operand)
        return Logic4.not_("1" if operand == "1" else ("0" if operand == "0" else operand))
    if isinstance(expr, Binary):
        left = evaluate(expr.left, values)
        right = evaluate(expr.right, values)
        if expr.op in ("&", "&&"):
            return Logic4.and_(left, right)
        if expr.op in ("|", "||"):
            return Logic4.or_(left, right)
        if expr.op == "^":
            return Logic4.xor(left, right)
        if expr.op == "~^":
            return Logic4.not_(Logic4.xor(left, right))
        if expr.op == "==":
            return Logic4.eq(left, right)
        if expr.op == "!=":
            return Logic4.not_(Logic4.eq(left, right))
        if expr.op == "===":
            return Logic4.case_eq(left, right)
        if expr.op == "!==":
            return Logic4.not_(Logic4.case_eq(left, right))
        raise HDLError(f"unhandled operator {expr.op!r}")
    if isinstance(expr, Cond):
        condition = evaluate(expr.condition, values)
        if condition == "1":
            return evaluate(expr.if_true, values)
        if condition in ("0", "x", "z") and condition != "1":
            if condition == "0":
                return evaluate(expr.if_false, values)
            # x/z selector: merge both arms (Verilog-style pessimism).
            a = evaluate(expr.if_true, values)
            b = evaluate(expr.if_false, values)
            return a if a == b else "x"
    raise HDLError(f"cannot evaluate {expr!r}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


class _Process:
    """Base class for schedulable processes."""

    index: int  # source order, assigned by the simulator

    def run(self, sim: "Simulator") -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def sensitivity(self) -> Set[str]:  # pragma: no cover - interface
        return set()

    def wants_trigger(self, signal: str, old: str, new: str) -> bool:
        return signal in self.sensitivity()


class _ContAssignProcess(_Process):
    def __init__(self, assign: ContAssign, driver_id: int) -> None:
        self.assign = assign
        self.driver_id = driver_id
        self._sensitivity = expr_reads(assign.expr)

    def sensitivity(self) -> Set[str]:
        return self._sensitivity

    def run(self, sim: "Simulator") -> None:
        value = evaluate(self.assign.expr, sim.values)
        sim.drive(self.driver_id, self.assign.target, value, self.assign.delay)


_GATE_EVAL: Dict[str, Callable[[List[str]], str]] = {
    "and": lambda ins: _fold(Logic4.and_, ins),
    "or": lambda ins: _fold(Logic4.or_, ins),
    "nand": lambda ins: Logic4.not_(_fold(Logic4.and_, ins)),
    "nor": lambda ins: Logic4.not_(_fold(Logic4.or_, ins)),
    "xor": lambda ins: _fold(Logic4.xor, ins),
    "xnor": lambda ins: Logic4.not_(_fold(Logic4.xor, ins)),
    "not": lambda ins: Logic4.not_(ins[0]),
    "buf": lambda ins: "x" if ins[0] in "xz" else ins[0],
}


def _fold(fn: Callable[[str, str], str], values: List[str]) -> str:
    result = values[0]
    for value in values[1:]:
        result = fn(result, value)
    return result


class _GateProcess(_Process):
    def __init__(self, gate: GateInst, driver_id: int) -> None:
        self.gate = gate
        self.driver_id = driver_id
        self._sensitivity = set(gate.inputs)

    def sensitivity(self) -> Set[str]:
        return self._sensitivity

    def run(self, sim: "Simulator") -> None:
        ins = [sim.values[name] for name in self.gate.inputs]
        if self.gate.gate == "bufif1":
            value = ("x" if ins[0] in "xz" else ins[0]) if ins[1] == "1" else "z"
            if ins[1] in "xz":
                value = "x"
        elif self.gate.gate == "bufif0":
            value = ("x" if ins[0] in "xz" else ins[0]) if ins[1] == "0" else "z"
            if ins[1] in "xz":
                value = "x"
        else:
            value = _GATE_EVAL[self.gate.gate](ins)
        sim.drive(self.driver_id, self.gate.output, value, self.gate.delay)


class _AlwaysProcess(_Process):
    def __init__(self, block: AlwaysBlock) -> None:
        self.block = block
        self._level = block.effective_sensitivity() if not block.sensitivity.is_edge_triggered() else set()
        self._edges = [
            (item.signal, item.edge)
            for item in block.sensitivity.items
            if item.edge != "level"
        ]
        self._all = self._level | {signal for signal, _edge in self._edges}

    def sensitivity(self) -> Set[str]:
        return self._all

    def wants_trigger(self, signal: str, old: str, new: str) -> bool:
        if signal in self._level:
            return True
        for edge_signal, edge in self._edges:
            if edge_signal != signal:
                continue
            if edge == "posedge" and new == "1" and old != "1":
                return True
            if edge == "negedge" and new == "0" and old != "0":
                return True
        return False

    def run(self, sim: "Simulator") -> None:
        sim.execute_body(self.block.body)


class _InitialProcess(_Process):
    def __init__(self, block: InitialBlock) -> None:
        self.block = block

    def sensitivity(self) -> Set[str]:
        return set()

    def run(self, sim: "Simulator") -> None:
        sim.start_initial(self.block.body)


# ---------------------------------------------------------------------------
# The simulator
# ---------------------------------------------------------------------------


@dataclass(order=True)
class _TimedEvent:
    time: int
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class Simulator:
    """Simulate one (flat) module under a given event-ordering policy.

    ``model`` is either a :class:`Module` or a pre-built
    :class:`CompiledModel`.  ``kernel`` selects the execution strategy for
    a ``Module``: ``"compiled"`` (the default) lowers it through
    :func:`compile_model` first; ``"interp"`` keeps the recursive AST
    interpreter — the reference oracle the compiled kernel is verified
    against.  Passing a ``CompiledModel`` skips elaboration entirely: the
    model is immutable and shared, only per-run state is built, which is
    what makes policy ensembles compile-once/run-many.
    """

    def __init__(
        self,
        model: Union[Module, CompiledModel],
        policy: OrderingPolicy = FIFO,
        trace_signals: Optional[Sequence[str]] = None,
        kernel: Optional[str] = None,
    ) -> None:
        if isinstance(model, CompiledModel):
            if kernel == "interp":
                raise HDLError(
                    "a CompiledModel cannot run on the interpreted kernel; "
                    "pass the Module instead"
                )
            compiled: Optional[CompiledModel] = model
            module = model.module
        else:
            module = model
            kernel = DEFAULT_KERNEL if kernel is None else kernel
            if kernel not in KERNELS:
                raise ValueError(
                    f"unknown kernel {kernel!r}; expected one of {KERNELS}"
                )
            compiled = compile_model(module) if kernel == "compiled" else None
        self.kernel = "interp" if compiled is None else "compiled"
        with get_tracer().span(
            "hdl:elaborate", module=module.name, policy=policy.name,
            kernel=self.kernel,
        ) as span:
            if compiled is None:
                self._elaborate(module, policy, trace_signals)
            else:
                self._bind(compiled, policy, trace_signals)
            span.set(processes=len(self._processes), nets=len(module.nets))

    def _init_state(
        self,
        module: Module,
        policy: OrderingPolicy,
        trace_signals: Optional[Sequence[str]],
    ) -> None:
        """Per-run mutable state, common to both kernels."""
        self.module = module
        self.policy = policy
        self.now = 0
        #: Cumulative observability tallies (cheap ints, always maintained).
        self.events_executed = 0
        self.activations = 0
        #: Set by enclosing layers (e.g. co-simulation) that make many tiny
        #: ``run()`` calls: suppresses the per-run span to keep traces sane.
        self._obs_quiet = False
        self.values: Dict[str, str] = {name: "x" for name in module.nets}
        self.waveforms: Dict[str, List[Tuple[int, str]]] = {
            name: [] for name in (trace_signals if trace_signals is not None else module.nets)
        }

        self._heap: List[_TimedEvent] = []
        self._sequence = 0
        self._ready: List = []
        self._ready_set: Set[int] = set()
        self._nba: List[Tuple[str, str]] = []

        # Driver bookkeeping for resolution on multiply-driven nets.
        self._driver_values: Dict[int, str] = {}
        self._drivers_of: Dict[str, Sequence[int]] = {}
        self._pending_updates: Dict[int, _TimedEvent] = {}

        #: Compiled-kernel trigger index; ``None`` selects the interpreted
        #: all-process wants_trigger scan in :meth:`set_signal`.
        self._triggers = None

    def _bind(
        self,
        compiled: CompiledModel,
        policy: OrderingPolicy,
        trace_signals: Optional[Sequence[str]],
    ) -> None:
        """Attach fresh run state to a shared, immutable compiled model."""
        self._init_state(compiled.module, policy, trace_signals)
        self._compiled = compiled
        self._processes: List = list(compiled.processes)
        self._triggers = compiled.triggers
        self._drivers_of = compiled.drivers_of  # static; never mutated
        self._driver_values = {i: "z" for i in range(compiled.driver_count)}
        for process in compiled.startup:
            self._activate(process)

    def _elaborate(
        self,
        module: Module,
        policy: OrderingPolicy,
        trace_signals: Optional[Sequence[str]],
    ) -> None:
        module.validate()
        self._init_state(module, policy, trace_signals)
        self._compiled = None

        self._processes = []
        driver_id = 0
        for assign in module.assigns:
            process = _ContAssignProcess(assign, driver_id)
            self._register_driver(driver_id, assign.target)
            driver_id += 1
            self._add_process(process)
        for gate in module.gates:
            process = _GateProcess(gate, driver_id)
            self._register_driver(driver_id, gate.output)
            driver_id += 1
            self._add_process(process)
        for block in module.always_blocks:
            self._add_process(_AlwaysProcess(block))
        for block in module.initial_blocks:
            self._add_process(_InitialProcess(block))

        if module.instances:
            raise HDLError(
                f"module {module.name!r} has unresolved instances; flatten first"
            )

        # Everything runs once at time zero (continuous assigns settle,
        # initial blocks start).
        for process in self._processes:
            if not isinstance(process, _AlwaysProcess):
                self._activate(process)

    # -- construction helpers ------------------------------------------------

    def _add_process(self, process: _Process) -> None:
        process.index = len(self._processes)
        self._processes.append(process)

    def _register_driver(self, driver_id: int, signal: str) -> None:
        self._driver_values[driver_id] = "z"
        self._drivers_of.setdefault(signal, []).append(driver_id)

    # -- scheduling ------------------------------------------------------------

    def _activate(self, process: _Process) -> None:
        if process.index not in self._ready_set:
            self._ready.append(process)
            self._ready_set.add(process.index)

    def _schedule(self, delay: int, action: Callable[[], None]) -> _TimedEvent:
        event = _TimedEvent(self.now + delay, self._sequence, action)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    # -- signal updates ----------------------------------------------------------

    def drive(self, driver_id: int, signal: str, value: str, delay: int) -> None:
        """A continuous driver (assign/gate) produces a new value."""
        if delay <= 0:
            self._apply_drive(driver_id, signal, value)
            return
        # Inertial delay: a newer evaluation supersedes the pending one.
        pending = self._pending_updates.get(driver_id)
        if pending is not None:
            pending.cancelled = True
        event = self._schedule(delay, lambda: self._apply_drive(driver_id, signal, value))
        self._pending_updates[driver_id] = event

    def _apply_drive(self, driver_id: int, signal: str, value: str) -> None:
        self._pending_updates.pop(driver_id, None)
        self._driver_values[driver_id] = value
        contributions = [
            self._driver_values[d] for d in self._drivers_of.get(signal, [])
        ]
        resolved = Logic4.resolve_many(contributions) if contributions else value
        self.set_signal(signal, resolved)

    def set_signal(self, signal: str, value: str) -> None:
        """Update a signal value, waking sensitive processes."""
        old = self.values[signal]
        if old == value:
            return
        self.values[signal] = value
        if signal in self.waveforms:
            self.waveforms[signal].append((self.now, value))
        triggers = self._triggers
        if triggers is None:
            # Interpreted oracle: scan every process.
            for process in self._processes:
                if process.wants_trigger(signal, old, value):
                    self._activate(process)
            return
        # Compiled kernel: only the indexed processes are consulted, in the
        # same process order the scan would have visited them.
        entries = triggers.get(signal)
        if not entries:
            return
        ready_set = self._ready_set
        ready = self._ready
        for process, kinds in entries:
            for kind in kinds:
                if (
                    kind == "level"
                    or (kind == "posedge" and value == "1" and old != "1")
                    or (kind == "negedge" and value == "0" and old != "0")
                ):
                    index = process.index
                    if index not in ready_set:
                        ready.append(process)
                        ready_set.add(index)
                    break

    # -- procedural execution ------------------------------------------------------

    def execute_body(self, body: Sequence[Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, Delay):
                raise HDLError("delays inside always blocks are not supported")
            self._execute_stmt(stmt)

    def _execute_stmt(self, stmt: Stmt) -> None:
        if isinstance(stmt, Assign):
            value = evaluate(stmt.expr, self.values)
            if stmt.nonblocking:
                self._nba.append((stmt.target, value))
            else:
                self.set_signal(stmt.target, value)
        elif isinstance(stmt, If):
            condition = evaluate(stmt.condition, self.values)
            if condition == "1":
                for inner in stmt.then_body:
                    self._execute_stmt(inner)
            elif stmt.else_body is not None:
                for inner in stmt.else_body:
                    self._execute_stmt(inner)
        else:
            raise HDLError(f"cannot execute {stmt!r}")

    def start_initial(self, body: Sequence[Stmt]) -> None:
        self._resume_initial(list(body))

    def _resume_initial(self, remaining: List[Stmt]) -> None:
        while remaining:
            stmt = remaining.pop(0)
            if isinstance(stmt, Delay):
                rest = list(remaining)
                self._schedule(stmt.amount, lambda: self._resume_initial(rest))
                return
            self._execute_stmt(stmt)

    def _resume_compiled_initial(self, steps: Sequence, position: int) -> None:
        """Run compiled initial steps from ``position``; ints are delays."""
        while position < len(steps):
            step = steps[position]
            position += 1
            if isinstance(step, int):
                self._schedule(
                    step,
                    lambda s=steps, p=position: self._resume_compiled_initial(s, p),
                )
                return
            step(self)

    # -- the event loop ---------------------------------------------------------------

    def _apply_nba(self) -> bool:
        if not self._nba:
            return False
        updates, self._nba = self._nba, []
        for signal, value in updates:
            self.set_signal(signal, value)
        return True

    def _settle(self, run_ready: Callable[[], None]) -> None:
        """Exhaust the current simulation time (active + NBA phases)."""
        while True:
            run_ready()
            if not self._apply_nba() and not self._ready:
                break

    def run(self, until: int = 1_000_000, max_activations: int = 1_000_000) -> int:
        """Process every event at or before ``until``; return the time of the
        last one processed.  Later events stay pending
        (:meth:`next_event_time`).

        ``max_activations`` bounds zero-delay oscillation (e.g. a ring of
        inverters with no delay) and raises :class:`HDLError` when hit.
        """
        tracer = get_tracer()
        if not tracer.enabled or self._obs_quiet:
            return self._run(until, max_activations)
        events_before = self.events_executed
        activations_before = self.activations
        with tracer.span(
            "hdl:sim", module=self.module.name, until=until, kernel=self.kernel
        ) as span:
            end = self._run(until, max_activations)
            span.set(
                events=self.events_executed - events_before,
                activations=self.activations - activations_before,
                end_time=end,
            )
        metrics = get_metrics()
        metrics.counter("hdl.sim.runs").inc()
        metrics.counter("hdl.sim.events").inc(self.events_executed - events_before)
        metrics.counter("hdl.sim.activations").inc(
            self.activations - activations_before
        )
        return end

    def _run(self, until: int, max_activations: int) -> int:
        budget = [max_activations]

        def bounded_run_ready() -> None:
            while self._ready:
                budget[0] -= 1
                ordinal = self.activations
                self.activations += 1
                if budget[0] < 0:
                    raise HDLError(
                        f"activation budget exhausted at t={self.now} "
                        "(zero-delay oscillation?)"
                    )
                choice = self.policy.choose(list(range(len(self._ready))), ordinal)
                process = self._ready.pop(choice)
                self._ready_set.discard(process.index)
                process.run(self)

        def compiled_run_ready() -> None:
            # The compiled kernel's lean activation loop: no key-list
            # allocation (the policy sees an equivalent range), the
            # one-ready case — the overwhelmingly common one — skips the
            # policy entirely (every legal policy must pick index 0 there),
            # and the budget/ordinal counters live in locals, written back
            # on exit.  The ordinal advances exactly as in the interpreter
            # loop, so stateless shuffle policies see the same stream.
            ready = self._ready
            ready_set = self._ready_set
            policy = self.policy
            select = policy.select
            takes_ordinal = policy._takes_ordinal
            remaining = budget[0]
            ordinal = self.activations
            try:
                while ready:
                    remaining -= 1
                    if remaining < 0:
                        # The interpreter loop counts the doomed activation
                        # before raising; keep the counters identical.
                        ordinal += 1
                        raise HDLError(
                            f"activation budget exhausted at t={self.now} "
                            "(zero-delay oscillation?)"
                        )
                    count = len(ready)
                    if count == 1:
                        choice = 0
                    elif takes_ordinal:
                        choice = select(range(count), ordinal)
                    else:
                        choice = select(range(count))
                    ordinal += 1
                    process = ready.pop(choice)
                    ready_set.discard(process.index)
                    process.run(self)
            finally:
                budget[0] = remaining
                self.activations = ordinal

        run_ready = (
            compiled_run_ready if self._triggers is not None else bounded_run_ready
        )
        self._settle(run_ready)
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            if event.time > until:
                heapq.heappush(self._heap, event)
                break
            self.now = event.time
            self.events_executed += 1
            event.action()
            # Drain same-time events before settling.
            while self._heap and self._heap[0].time == self.now:
                follow = heapq.heappop(self._heap)
                if not follow.cancelled:
                    self.events_executed += 1
                    follow.action()
            self._settle(run_ready)
        return self.now

    def next_event_time(self) -> Optional[int]:
        """Time of the next pending (uncancelled) event, or None."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    # -- results -----------------------------------------------------------------------

    def value(self, signal: str) -> str:
        return self.values[signal]

    def waveform(self, signal: str) -> List[Tuple[int, str]]:
        return list(self.waveforms[signal])


def simulate(
    module: Union[Module, CompiledModel],
    policy: OrderingPolicy = FIFO,
    until: int = 1_000_000,
    trace: Optional[Sequence[str]] = None,
    kernel: Optional[str] = None,
) -> Simulator:
    """Convenience: build a simulator, run it, return it."""
    sim = Simulator(module, policy, trace_signals=trace, kernel=kernel)
    sim.run(until)
    return sim
