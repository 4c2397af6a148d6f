"""Differential tests: the production simulator vs the reference oracle.

The production :class:`Simulator` is only allowed to be *faster* than the
tree-walking :class:`~tests.hdl.oracle.ReferenceSimulator`, never
*different*: for every module in the corpus and every ordering policy,
final values and full waveforms must be identical.  The corpus
deliberately includes racy models — where the policy choice is
observable — so the test also proves the two simulators present races to
the policies in the same order.
"""

import pytest

from cadinterop.hdl.compile import compile_calls, compile_model
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.personalities import DEFAULT_ENSEMBLE
from cadinterop.hdl.races import detect_races
from cadinterop.hdl.simulator import (
    FIFO,
    LIFO,
    Simulator,
    seeded_shuffle_policy,
)
from tests.hdl.oracle import ReferenceSimulator, reference_ensemble

#: name -> HDL source.  Everything the simulator implements is represented:
#: continuous assigns (plain/delayed/multi-driver), the gate primitives
#: incl. tristate, level/edge/star sensitivity, blocking vs nonblocking
#: races, x/z conditional semantics, and delayed initial sequencing.
CORPUS = {
    "racy_blocking": """
        module racy_blocking;
          reg clk; reg b; reg d; reg flag;
          wire a;
          assign a = b;
          always @(posedge clk) if (a != d) flag = 1; else flag = 0;
          always @(posedge clk) b = d;
          always @(posedge clk) d = ~d;
          initial begin d = 1; b = 0; flag = 0; clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; end
        endmodule
    """,
    "clean_nonblocking": """
        module clean_nonblocking;
          reg clk; reg b; reg d; reg flag;
          always @(posedge clk) b <= d;
          always @(posedge clk) flag <= d;
          initial begin d = 1; b = 0; flag = 0; clk = 0; #5 clk = 1; #5 clk = 0; #5 clk = 1; end
        endmodule
    """,
    "gates_and_tristate": """
        module gates_and_tristate;
          reg a; reg b; reg en;
          wire n1; wire n2; wire n3; wire bus;
          and g1 (n1, a, b);
          nor g2 (n2, a, b, n1);
          xnor g3 (n3, n1, n2);
          bufif1 t1 (bus, n3, en);
          bufif0 t2 (bus, a, en);
          initial begin a = 0; b = 1; en = 0; #4 en = 1; #4 a = 1; #4 en = 1'bx; end
        endmodule
    """,
    "delays_and_glitches": """
        module delays_and_glitches;
          reg a;
          wire slow; wire fast;
          assign #3 slow = ~a;
          assign fast = ~a;
          initial begin a = 0; #10 a = 1; #1 a = 0; #10 a = 1; end
        endmodule
    """,
    "cond_xz": """
        module cond_xz;
          reg s; reg p; reg q;
          wire same; wire differ;
          assign same = s ? p : p;
          assign differ = s ? p : q;
          initial begin p = 1; q = 0; #2 s = 1'bx; #2 s = 1'bz; #2 s = 1; end
        endmodule
    """,
    "star_and_negedge": """
        module star_and_negedge;
          reg clk; reg a; reg b; reg acc; reg ncount;
          always @(*) acc = a ^ b;
          always @(negedge clk) ncount = ~ncount;
          initial begin clk = 1; a = 0; b = 0; ncount = 0;
            #5 clk = 0; #5 clk = 1; a = 1; #5 clk = 0; b = 1; end
        endmodule
    """,
    "multi_driver_bus": """
        module multi_driver_bus;
          reg a; reg b;
          wire w;
          assign w = a;
          assign w = b;
          initial begin a = 1'bz; b = 0; #3 a = 1; #3 b = 1'bz; #3 b = 0; end
        endmodule
    """,
}

POLICIES = [
    ("fifo", FIFO),
    ("lifo", LIFO),
    ("shuffle11", seeded_shuffle_policy(11)),
    ("shuffle97", seeded_shuffle_policy(97)),
]


def run_kernel(module, policy, simulator=Simulator):
    sim = simulator(module, policy, trace_signals=sorted(module.nets))
    sim.run(1000)
    return sim


class TestWaveformEquivalence:
    @pytest.mark.parametrize("policy_name,policy", POLICIES)
    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_compiled_matches_interpreter(self, name, policy_name, policy):
        module = parse_module(CORPUS[name])
        interp = run_kernel(module, policy, ReferenceSimulator)
        compiled = run_kernel(module, policy)
        assert interp.values == compiled.values, (name, policy_name)
        assert interp.waveforms == compiled.waveforms, (name, policy_name)
        # Same number of scheduling decisions means the policies saw the
        # same ready-queue evolution, not just converging end states.
        assert interp.activations == compiled.activations, (name, policy_name)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_shared_model_matches_per_run_compilation(self, name):
        module = parse_module(CORPUS[name])
        model = compile_model(module)
        for _, policy in POLICIES:
            fresh = run_kernel(module, policy)
            shared = Simulator(model, policy, trace_signals=sorted(module.nets))
            shared.run(1000)
            assert fresh.values == shared.values
            assert fresh.waveforms == shared.waveforms


class TestEnsembleEquivalence:
    def test_detect_races_verdicts_agree_across_kernels(self):
        for name, src in sorted(CORPUS.items()):
            module = parse_module(src)
            compiled = detect_races(module, until=1000)
            assert compiled.divergences == reference_ensemble(module, until=1000), name

    def test_ensemble_compiles_exactly_once(self):
        module = parse_module(CORPUS["racy_blocking"])
        before = compile_calls()
        detect_races(module, until=1000)
        assert compile_calls() == before + 1
        assert len(DEFAULT_ENSEMBLE) >= 4  # one compile serves all of these

    def test_interp_ensemble_never_compiles(self):
        module = parse_module(CORPUS["racy_blocking"])
        before = compile_calls()
        reference_ensemble(module, until=1000)
        assert compile_calls() == before


class TestPolicyDeterminism:
    def test_shuffle_policy_object_reuse_is_deterministic(self):
        # A reused policy object must give identical runs — the ensemble
        # reuses its shuffle personalities across detect_races calls.
        module = parse_module(CORPUS["racy_blocking"])
        policy = seeded_shuffle_policy(1234)
        first = run_kernel(module, policy)
        second = run_kernel(module, policy)
        assert first.values == second.values
        assert first.waveforms == second.waveforms

    def test_shuffle_streams_differ_by_seed(self):
        ready = list(range(5))
        a = seeded_shuffle_policy(1)
        b = seeded_shuffle_policy(2)
        choices_a = [a.choose(ready, ordinal) for ordinal in range(32)]
        choices_b = [b.choose(ready, ordinal) for ordinal in range(32)]
        assert choices_a != choices_b

    def test_shuffle_choice_depends_only_on_seed_and_ordinal(self):
        ready = list(range(7))
        first = seeded_shuffle_policy(42)
        second = seeded_shuffle_policy(42)
        for ordinal in (0, 1, 5, 100, 10_000):
            assert first.choose(ready, ordinal) == second.choose(ready, ordinal)
