"""Closure compilation of HDL models: compile once, simulate many times.

Walking the AST with isinstance-dispatch on every process activation is
fine as a reference semantics and wasteful as the inner loop of an
ensemble.  Race detection (:func:`cadinterop.hdl.races.detect_races`) and
co-simulation run the *same model* under many :class:`OrderingPolicy`
variants; re-elaborating and re-interpreting per run repeats work whose
result cannot change.

This module splits *model* from *run*, echoing the tool-model abstraction
of the interoperability literature: :func:`compile_model` lowers a
:class:`Module` to an immutable :class:`CompiledModel` —

* one Python closure per continuous assign, gate, always body, and
  initial step (expressions become nested closures over the precomputed
  :mod:`cadinterop.hdl.logic` lookup tables, so an activation is closure
  calls and dict hits, no AST in sight);
* a sensitivity *trigger index* (signal -> processes that care, with the
  edge kind), so a signal change consults only those processes instead
  of scanning every process;
* a driver map for multi-driver net resolution.

A ``CompiledModel`` holds no simulation state and is safely shared: every
``Simulator(model, policy)`` spawned from it gets fresh values, queues,
and waveforms.  :class:`~cadinterop.hdl.simulator.Simulator` runs only
compiled models.  Correctness is anchored by differential tests against
the tree-walking reference interpreter in ``tests/hdl/oracle.py``: both
must produce identical waveforms and activation counts under every
ordering policy (``tests/hdl/test_kernel_differential.py`` over a fixed
corpus, ``tests/hdl/test_kernel_generated.py`` over generated modules).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from cadinterop.hdl.logic import (
    AND_TABLE,
    BUF_TABLE,
    CASE_EQ_TABLE,
    EQ_TABLE,
    NOT_TABLE,
    OR_TABLE,
    XOR_TABLE,
)
from cadinterop.obs import get_metrics, get_tracer

#: An expression closure: values-dict in, 4-value level out.
ExprFn = Callable[[Dict[str, str]], str]
#: A statement closure: acts on the running simulator.
StmtFn = Callable[[object], None]
#: One step of an initial body: a statement closure or a delay amount.
InitialStep = Union[StmtFn, int]


def _negate_table(table: Dict[str, Dict[str, str]]) -> Dict[str, Dict[str, str]]:
    return {
        a: {b: NOT_TABLE[value] for b, value in row.items()}
        for a, row in table.items()
    }


#: Composed tables so negated operators stay a single lookup per operand
#: pair (``a ~^ b`` is one hit in the XNOR table, not XOR-then-NOT).
_XNOR_TABLE = _negate_table(XOR_TABLE)
_NEQ_TABLE = _negate_table(EQ_TABLE)
_CASE_NEQ_TABLE = _negate_table(CASE_EQ_TABLE)

_BINARY_TABLES: Dict[str, Dict[str, Dict[str, str]]] = {
    "&": AND_TABLE,
    "&&": AND_TABLE,
    "|": OR_TABLE,
    "||": OR_TABLE,
    "^": XOR_TABLE,
    "~^": _XNOR_TABLE,
    "==": EQ_TABLE,
    "!=": _NEQ_TABLE,
    "===": CASE_EQ_TABLE,
    "!==": _CASE_NEQ_TABLE,
}


# ---------------------------------------------------------------------------
# Expression compilation
# ---------------------------------------------------------------------------


def compile_expr(expr: Expr) -> ExprFn:
    """Lower an expression tree to a closure over the value map.

    Semantics match the reference interpreter's ``evaluate`` in
    ``tests/hdl/oracle.py`` exactly (see ``tests/hdl/test_compile.py``).
    """
    if isinstance(expr, Const):
        value = expr.value

        return lambda values: value
    if isinstance(expr, Var):
        name = expr.name

        return lambda values: values[name]
    if isinstance(expr, Unary):
        # Both ``~`` and ``!`` reduce to scalar inversion on 4-value levels.
        table = NOT_TABLE
        if isinstance(expr.operand, Var):
            # Leaf specialization: fold the variable read into this closure
            # instead of paying a child-lambda frame per activation.
            name = expr.operand.name
            return lambda values: table[values[name]]
        operand = compile_expr(expr.operand)

        return lambda values: table[operand(values)]
    if isinstance(expr, Binary):
        table = _BINARY_TABLES.get(expr.op)
        if table is None:
            raise HDLError(f"unhandled operator {expr.op!r}")
        left_var = isinstance(expr.left, Var)
        right_var = isinstance(expr.right, Var)
        if left_var and right_var:
            # ``a OP b`` — the overwhelmingly common shape — becomes one
            # closure with two inline dict reads and a double table hit.
            ln, rn = expr.left.name, expr.right.name
            return lambda values: table[values[ln]][values[rn]]
        if left_var:
            ln = expr.left.name
            right = compile_expr(expr.right)
            return lambda values: table[values[ln]][right(values)]
        if right_var:
            rn = expr.right.name
            left = compile_expr(expr.left)
            return lambda values: table[left(values)][values[rn]]
        left = compile_expr(expr.left)
        right = compile_expr(expr.right)

        return lambda values: table[left(values)][right(values)]
    if isinstance(expr, Cond):
        condition = compile_expr(expr.condition)
        if_true = compile_expr(expr.if_true)
        if_false = compile_expr(expr.if_false)

        def cond_fn(values: Dict[str, str]) -> str:
            selector = condition(values)
            if selector == "1":
                return if_true(values)
            if selector == "0":
                return if_false(values)
            # x/z selector: merge both arms (Verilog-style pessimism).
            a = if_true(values)
            b = if_false(values)
            return a if a == b else "x"

        return cond_fn
    raise HDLError(f"cannot compile {expr!r}")


# ---------------------------------------------------------------------------
# Statement compilation
# ---------------------------------------------------------------------------


def compile_stmt(stmt: Stmt) -> StmtFn:
    """Lower one procedural statement (no delays) to a closure."""
    if isinstance(stmt, Assign):
        expr = compile_expr(stmt.expr)
        target = stmt.target
        if stmt.nonblocking:

            def run_nba(sim) -> None:
                sim._nba.append((target, expr(sim.values)))

            return run_nba

        def run_blocking(sim) -> None:
            sim.set_signal(target, expr(sim.values))

        return run_blocking
    if isinstance(stmt, If):
        condition = compile_expr(stmt.condition)
        then_body = tuple(compile_stmt(inner) for inner in stmt.then_body)
        else_body = (
            tuple(compile_stmt(inner) for inner in stmt.else_body)
            if stmt.else_body is not None
            else None
        )

        def run_if(sim) -> None:
            if condition(sim.values) == "1":
                for fn in then_body:
                    fn(sim)
            elif else_body is not None:
                for fn in else_body:
                    fn(sim)

        return run_if
    raise HDLError(f"cannot compile {stmt!r}")


def compile_always_body(body: Sequence[Stmt]) -> StmtFn:
    """Compile an always body; delays are rejected here, at compile time
    (the reference interpreter rejects them at first activation instead)."""
    for stmt in body:
        if isinstance(stmt, Delay):
            raise HDLError("delays inside always blocks are not supported")
    steps = tuple(compile_stmt(stmt) for stmt in body)

    def run(sim) -> None:
        for fn in steps:
            fn(sim)

    return run


def compile_initial_body(body: Sequence[Stmt]) -> Tuple[InitialStep, ...]:
    """Compile an initial body to a step list: closures and delay amounts."""
    steps: List[InitialStep] = []
    for stmt in body:
        if isinstance(stmt, Delay):
            steps.append(stmt.amount)
        else:
            steps.append(compile_stmt(stmt))
    return tuple(steps)


# ---------------------------------------------------------------------------
# Gate compilation
# ---------------------------------------------------------------------------

_GATE_TABLES = {
    "and": (AND_TABLE, False),
    "nand": (AND_TABLE, True),
    "or": (OR_TABLE, False),
    "nor": (OR_TABLE, True),
    "xor": (XOR_TABLE, False),
    "xnor": (XOR_TABLE, True),
}
_NAND_TABLE = _negate_table(AND_TABLE)
_NOR_TABLE = _negate_table(OR_TABLE)


def compile_gate_eval(gate: GateInst) -> ExprFn:
    """Lower a gate primitive to a closure evaluating its output level."""
    inputs = tuple(gate.inputs)
    kind = gate.gate
    if kind in ("bufif0", "bufif1"):
        data, control = inputs[0], inputs[1]
        active = "1" if kind == "bufif1" else "0"

        def tristate(values: Dict[str, str]) -> str:
            enable = values[control]
            if enable == "x" or enable == "z":
                return "x"
            if enable != active:
                return "z"
            return BUF_TABLE[values[data]]

        return tristate
    if kind == "not":
        operand = inputs[0]
        return lambda values: NOT_TABLE[values[operand]]
    if kind == "buf":
        operand = inputs[0]
        return lambda values: BUF_TABLE[values[operand]]

    base, invert = _GATE_TABLES[kind]
    if len(inputs) == 2:
        # The common case gets a single (pre-composed) table lookup.
        first, second = inputs
        table = {"and": _NAND_TABLE, "or": _NOR_TABLE, "xor": _XNOR_TABLE}[
            {"nand": "and", "nor": "or", "xnor": "xor"}.get(kind, kind)
        ] if invert else base
        return lambda values: table[values[first]][values[second]]

    def folded(values: Dict[str, str]) -> str:
        result = values[inputs[0]]
        for name in inputs[1:]:
            result = base[result][values[name]]
        return NOT_TABLE[result] if invert else result

    return folded


# ---------------------------------------------------------------------------
# Compiled processes and the model
# ---------------------------------------------------------------------------


class CompiledProcess:
    """One schedulable unit: an index, a kind tag, and a run closure.

    Immutable after construction and stateless — all simulation state
    lives on the :class:`Simulator` the closure receives — so one process
    object is safely shared by any number of concurrent runs.
    """

    __slots__ = ("index", "kind", "run")

    def __init__(self, index: int, kind: str, run: StmtFn) -> None:
        self.index = index
        self.kind = kind  # "assign" | "gate" | "always" | "initial"
        self.run = run


#: signal -> ((process, trigger kinds), ...) in process-definition order.
#: Kinds are "level" / "posedge" / "negedge"; a process appears once per
#: signal with every kind it registered for.
TriggerIndex = Dict[str, Tuple[Tuple[CompiledProcess, Tuple[str, ...]], ...]]


class CompiledModel:
    """The immutable compile-once artifact of one flat module.

    Holds compiled processes, the sensitivity trigger index, and the
    driver map — everything a run needs that cannot change between runs.
    Instantiate runs with ``Simulator(model, policy)``; the ensemble
    machinery (``detect_races``) builds one of these per module and fans
    out policies over it.
    """

    __slots__ = ("module", "processes", "triggers", "drivers_of",
                 "driver_count", "startup")

    def __init__(
        self,
        module: Module,
        processes: Tuple[CompiledProcess, ...],
        triggers: TriggerIndex,
        drivers_of: Dict[str, Tuple[int, ...]],
        driver_count: int,
        startup: Tuple[CompiledProcess, ...],
    ) -> None:
        self.module = module
        self.processes = processes
        self.triggers = triggers
        self.drivers_of = drivers_of
        self.driver_count = driver_count
        self.startup = startup


#: Total compile_model() invocations — lets tests assert that ensemble
#: runs elaborate once instead of once per personality.
_compile_calls = 0


def compile_calls() -> int:
    return _compile_calls


def compile_model(module: Module) -> CompiledModel:
    """Validate and lower ``module`` to a shareable :class:`CompiledModel`."""
    global _compile_calls
    with get_tracer().span("hdl:compile", module=module.name) as span:
        model = _compile(module)
        span.set(
            processes=len(model.processes),
            nets=len(module.nets),
            drivers=model.driver_count,
        )
    get_metrics().counter("hdl.compile.models").inc()
    _compile_calls += 1
    return model


def _compile(module: Module) -> CompiledModel:
    module.validate()
    if module.instances:
        raise HDLError(
            f"module {module.name!r} has unresolved instances; flatten first"
        )

    processes: List[CompiledProcess] = []
    # signal -> process index -> kinds (insertion-ordered on both levels,
    # so triggering preserves the reference interpreter's process-scan order).
    sensitivity: Dict[str, Dict[int, List[str]]] = {}
    drivers_of: Dict[str, List[int]] = {}
    driver_id = 0

    # First pass: lay out driver ids so the closures below know which
    # targets are single-driver (their resolution is the identity, so a
    # zero-delay update can go straight to set_signal).
    for assign in module.assigns:
        drivers_of.setdefault(assign.target, []).append(driver_id)
        driver_id += 1
    for gate in module.gates:
        drivers_of.setdefault(gate.output, []).append(driver_id)
        driver_id += 1
    driver_count = driver_id
    single_driver = {s for s, ids in drivers_of.items() if len(ids) == 1}

    def register(signal: str, index: int, kind: str) -> None:
        kinds = sensitivity.setdefault(signal, {}).setdefault(index, [])
        if kind not in kinds:
            kinds.append(kind)

    driver_id = 0
    for assign in module.assigns:
        index = len(processes)
        expr = compile_expr(assign.expr)
        target, delay, this_driver = assign.target, assign.delay, driver_id
        if delay <= 0 and target in single_driver:

            def run_assign(sim, _e=expr, _t=target) -> None:
                sim.set_signal(_t, _e(sim.values))

        else:

            def run_assign(sim, _e=expr, _t=target, _d=delay, _i=this_driver) -> None:
                sim.drive(_i, _t, _e(sim.values), _d)

        processes.append(CompiledProcess(index, "assign", run_assign))
        driver_id += 1
        for name in sorted(expr_reads(assign.expr)):
            register(name, index, "level")

    for gate in module.gates:
        index = len(processes)
        evaluate_gate = compile_gate_eval(gate)
        output, delay, this_driver = gate.output, gate.delay, driver_id
        if delay <= 0 and output in single_driver:

            def run_gate(sim, _e=evaluate_gate, _t=output) -> None:
                sim.set_signal(_t, _e(sim.values))

        else:

            def run_gate(sim, _e=evaluate_gate, _t=output, _d=delay, _i=this_driver) -> None:
                sim.drive(_i, _t, _e(sim.values), _d)

        processes.append(CompiledProcess(index, "gate", run_gate))
        driver_id += 1
        for name in gate.inputs:
            register(name, index, "level")

    for block in module.always_blocks:
        index = len(processes)
        processes.append(
            CompiledProcess(index, "always", compile_always_body(block.body))
        )
        if block.sensitivity.is_edge_triggered():
            # Mirrors the reference interpreter: an edge-triggered list ignores any
            # stray level items.
            for item in block.sensitivity.items:
                if item.edge != "level":
                    register(item.signal, index, item.edge)
        else:
            for name in sorted(block.effective_sensitivity()):
                register(name, index, "level")

    for block in module.initial_blocks:
        index = len(processes)
        steps = compile_initial_body(block.body)

        def run_initial(sim, _steps=steps) -> None:
            sim._resume_initial(_steps, 0)

        processes.append(CompiledProcess(index, "initial", run_initial))

    triggers: TriggerIndex = {
        signal: tuple(
            (processes[index], tuple(kinds))
            for index, kinds in sorted(per_signal.items())
        )
        for signal, per_signal in sensitivity.items()
    }
    startup = tuple(p for p in processes if p.kind != "always")
    return CompiledModel(
        module=module,
        processes=tuple(processes),
        triggers=triggers,
        drivers_of={s: tuple(ids) for s, ids in drivers_of.items()},
        driver_count=driver_count,
        startup=startup,
    )
