"""Generated differential test: production simulator vs the reference oracle.

Hypothesis builds random flat Verilog modules out of everything the
simulator implements: continuous assigns with and without ``#delay``
(several of them on one wire, so nets resolve), every gate kind including
the ``bufif0``/``bufif1`` tristates, ``posedge``/``negedge``/``@(*)``/level
``always`` blocks with ``if``/``else``, blocking and nonblocking
assignments, ``x``/``z`` constants, and ``initial`` sequences with delays.
Each module runs on :class:`~tests.hdl.oracle.ReferenceSimulator` and on
the production :class:`Simulator` under FIFO, LIFO and a seeded shuffle;
final values, waveforms, activation and event counts and the end time
must be equal.  Zero-delay loops are common in random modules, so the
activation budget is kept small: when it trips, both simulators must raise
the same :class:`HDLError` with the same counts behind it.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from cadinterop.hdl.ast_nodes import GateInst, HDLError
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.simulator import FIFO, LIFO, Simulator, seeded_shuffle_policy
from tests.hdl.oracle import ReferenceSimulator

REGS = ("r0", "r1", "r2", "r3")
WIRES = ("w0", "w1", "w2")
SIGNALS = REGS + WIRES
CONSTANTS = ("0", "1", "1'bx", "1'bz")
BINARY = ("&", "|", "^", "~^", "&&", "||", "==", "!=", "===", "!==")


@st.composite
def expressions(draw, depth=2):
    leaf = st.one_of(st.sampled_from(SIGNALS), st.sampled_from(CONSTANTS))
    if depth == 0:
        return draw(leaf)
    shape = draw(st.sampled_from(("leaf", "leaf", "unary", "binary", "cond")))
    if shape == "leaf":
        return draw(leaf)
    if shape == "unary":
        return f"{draw(st.sampled_from(('~', '!')))}({draw(expressions(depth - 1))})"
    if shape == "binary":
        op = draw(st.sampled_from(BINARY))
        return f"({draw(expressions(depth - 1))} {op} {draw(expressions(depth - 1))})"
    return (
        f"({draw(expressions(depth - 1))} ? {draw(expressions(depth - 1))}"
        f" : {draw(expressions(depth - 1))})"
    )


def delays():
    return st.sampled_from(("", "", "#1 ", "#2 ", "#3 "))


@st.composite
def assigns(draw):
    return f"assign {draw(delays())}{draw(st.sampled_from(WIRES))} = {draw(expressions())};"


@st.composite
def gates(draw, index):
    kind = draw(st.sampled_from(GateInst.GATES))
    if kind in ("bufif0", "bufif1"):
        arity = 2  # data, control
    elif kind in ("not", "buf"):
        arity = 1
    else:
        arity = draw(st.integers(2, 3))
    inputs = draw(st.lists(st.sampled_from(SIGNALS), min_size=arity, max_size=arity))
    output = draw(st.sampled_from(WIRES))
    return f"{kind} {draw(delays())}g{index} ({', '.join([output] + inputs)});"


@st.composite
def statements(draw, depth=1):
    if depth > 0 and draw(st.booleans()):
        condition = draw(expressions(1))
        then = draw(statements(depth - 1))
        if draw(st.booleans()):
            return f"if ({condition}) {then} else {draw(statements(depth - 1))}"
        return f"if ({condition}) {then}"
    op = draw(st.sampled_from(("=", "<=")))
    return f"{draw(st.sampled_from(REGS))} {op} {draw(expressions())};"


@st.composite
def always_blocks(draw):
    kind = draw(st.sampled_from(("posedge", "negedge", "star", "level")))
    if kind == "star":
        sensitivity = "*"
    elif kind == "level":
        names = draw(st.lists(st.sampled_from(SIGNALS), min_size=1, max_size=2, unique=True))
        sensitivity = " or ".join(names)
    else:
        sensitivity = f"{kind} {draw(st.sampled_from(SIGNALS))}"
    body = draw(st.lists(statements(), min_size=1, max_size=3))
    return f"always @({sensitivity}) begin {' '.join(body)} end"


@st.composite
def initial_blocks(draw):
    steps = []
    for _ in range(draw(st.integers(1, 6))):
        delay = draw(st.sampled_from(("", "", "#1 ", "#2 ", "#5 ")))
        target = draw(st.sampled_from(REGS))
        value = draw(st.sampled_from(CONSTANTS + ("~" + target,)))
        op = draw(st.sampled_from(("=", "=", "<=")))
        steps.append(f"{delay}{target} {op} {value};")
    return f"initial begin {' '.join(steps)} end"


@st.composite
def modules(draw):
    gate_count = draw(st.integers(0, 3))
    items = (
        draw(st.lists(assigns(), max_size=3))
        + [draw(gates(index)) for index in range(gate_count)]
        + draw(st.lists(always_blocks(), max_size=3))
        + draw(st.lists(initial_blocks(), min_size=1, max_size=2))
    )
    return "\n".join(
        ["module gen;", f"  reg {', '.join(REGS)};", f"  wire {', '.join(WIRES)};"]
        + [f"  {item}" for item in items]
        + ["endmodule"]
    )


def outcome(simulator, module, policy, max_activations):
    """Everything observable about one two-leg run, error or not."""
    sim = simulator(module, policy, trace_signals=sorted(module.nets))
    ends = []
    try:
        for until in (6, 40):
            ends.append(sim.run(until, max_activations=max_activations))
    except HDLError as exc:
        ends.append(f"HDLError: {exc}")
    return {
        "ends": ends,
        "now": sim.now,
        "next_event": sim.next_event_time(),
        "values": sim.values,
        "waveforms": sim.waveforms,
        "activations": sim.activations,
        "events_executed": sim.events_executed,
    }


class TestGeneratedModules:
    @given(
        source=modules(),
        seed=st.integers(0, 2**32 - 1),
        max_activations=st.sampled_from((8, 40, 400)),
    )
    @settings(
        max_examples=150, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_simulator_matches_reference(self, source, seed, max_activations):
        module = parse_module(source)
        for policy in (FIFO, LIFO, seeded_shuffle_policy(seed)):
            want = outcome(ReferenceSimulator, module, policy, max_activations)
            got = outcome(Simulator, module, policy, max_activations)
            assert got == want, (policy.name, source)
