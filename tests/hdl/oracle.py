"""Reference interpreter: the oracle the production simulator is checked against.

:class:`ReferenceSimulator` walks the AST on every process activation,
scans every process on every signal change, and hands the ordering policy
the full list of ready keys on every activation.  It is deliberately
simple and independent of :mod:`cadinterop.hdl.compile`: it never compiles
a model.  The differential tests (``test_kernel_differential.py``,
``test_kernel_generated.py``) require the production
:class:`~cadinterop.hdl.simulator.Simulator` to match it in final values,
waveforms, activation and event counts, end time and budget errors, under
every ordering policy.  E18 measures the production simulator's speed
against it.

It shares the event queue, drivers, NBA phase and settle loop with the
production class and replaces what the compiled model provides: process
objects, triggering and the activation loop.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set

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
from cadinterop.hdl.logic import Logic4
from cadinterop.hdl.personalities import DEFAULT_ENSEMBLE, SimulatorPersonality
from cadinterop.hdl.races import SignalDivergence
from cadinterop.hdl.simulator import FIFO, OrderingPolicy, Simulator

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

    def run(self, sim: "ReferenceSimulator") -> None:  # pragma: no cover - interface
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

    def run(self, sim: "ReferenceSimulator") -> None:
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

    def run(self, sim: "ReferenceSimulator") -> None:
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

    def run(self, sim: "ReferenceSimulator") -> None:
        sim.execute_body(self.block.body)


class _InitialProcess(_Process):
    def __init__(self, block: InitialBlock) -> None:
        self.block = block

    def sensitivity(self) -> Set[str]:
        return set()

    def run(self, sim: "ReferenceSimulator") -> None:
        sim.start_initial(self.block.body)


# ---------------------------------------------------------------------------
# The reference simulator
# ---------------------------------------------------------------------------


class ReferenceSimulator(Simulator):
    """Tree-walking interpreter over the production event loop.

    Takes a :class:`Module` only; it elaborates AST process objects itself
    and never calls :func:`~cadinterop.hdl.compile.compile_model`.
    """

    def __init__(
        self,
        module: Module,
        policy: OrderingPolicy = FIFO,
        trace_signals: Optional[Sequence[str]] = None,
    ) -> None:
        module.validate()
        self._init_state(module, policy, trace_signals)
        self._driver_values: Dict[int, str] = {}
        self._drivers_of: Dict[str, List[int]] = {}

        self._processes: List[_Process] = []
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

    # -- triggering: scan every process --------------------------------------

    def set_signal(self, signal: str, value: str) -> None:
        old = self.values[signal]
        if old == value:
            return
        self.values[signal] = value
        if signal in self.waveforms:
            self.waveforms[signal].append((self.now, value))
        for process in self._processes:
            if process.wants_trigger(signal, old, value):
                self._activate(process)

    # -- procedural execution ------------------------------------------------

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
        self._resume_statements(list(body))

    def _resume_statements(self, remaining: List[Stmt]) -> None:
        while remaining:
            stmt = remaining.pop(0)
            if isinstance(stmt, Delay):
                rest = list(remaining)
                self._schedule(stmt.amount, lambda: self._resume_statements(rest))
                return
            self._execute_stmt(stmt)

    # -- the activation loop: full key list, policy on every activation ------

    def _run_ready(self) -> None:
        while self._ready:
            self._budget -= 1
            ordinal = self.activations
            self.activations += 1
            if self._budget < 0:
                raise HDLError(
                    f"activation budget exhausted at t={self.now} "
                    "(zero-delay oscillation?)"
                )
            choice = self.policy.choose(list(range(len(self._ready))), ordinal)
            process = self._ready.pop(choice)
            self._ready_set.discard(process.index)
            process.run(self)


# ---------------------------------------------------------------------------
# The reference race ensemble
# ---------------------------------------------------------------------------


def reference_ensemble(
    module: Module,
    observed: Optional[Sequence[str]] = None,
    personalities: Sequence[SimulatorPersonality] = DEFAULT_ENSEMBLE,
    until: int = 1_000_000,
) -> List[SignalDivergence]:
    """The race ensemble on the reference simulator.

    Per personality: prepare the module, simulate it with every observed
    signal traced, then compare final values and waveforms across the
    personalities as :func:`~cadinterop.hdl.races.detect_races` does.
    Returns the divergences in signal order.
    """
    signals = list(observed) if observed is not None else list(module.nets)
    runs = []
    for personality in personalities:
        sim = ReferenceSimulator(
            personality.prepare(module), personality.policy, trace_signals=signals
        )
        sim.run(until)
        runs.append(sim)
    divergences = []
    for signal in signals:
        finals = {
            p.name: sim.value(signal) for p, sim in zip(personalities, runs)
        }
        waves = {tuple(sim.waveform(signal)) for sim in runs}
        if len(set(finals.values())) > 1 or len(waves) > 1:
            divergences.append(SignalDivergence(signal, finals, len(waves) > 1))
    return divergences
