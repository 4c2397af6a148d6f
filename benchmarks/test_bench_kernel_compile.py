"""E18 — compiled simulator speedup on the race-ensemble workload.

The production simulator runs closure-compiled models for one reason:
ensemble runs (``detect_races``, co-simulation sweeps) execute the *same
model* many times, and re-elaborating plus tree-walking per run repeats
work whose result cannot change.  Rows: the reference interpreter
(``tests/hdl/oracle.py``, run through its ``reference_ensemble``) vs the
production ``detect_races`` wall time, and activations/second, on a
personality-ensemble workload over a pipeline with combinational clouds
and deliberate write races.  Expected shape: compiled >= 3x interpreter
throughput, identical race verdicts, and obs traces showing exactly one
``hdl:compile`` span serving all runs.

The speedup is measured so that a busy host cannot favour one side: the
interpreter and compiled runs alternate in pairs, the interpreter first on
even pairs and second on odd ones, and the gate is the median of the
per-pair ratios, so a burst of host load slows both halves of a pair or
spoils only that pair.

Run from the repository root (``python -m pytest``), so that the
``tests`` package with the oracle is importable.
"""

import statistics
import time

from cadinterop.hdl.compile import compile_calls
from cadinterop.hdl.parser import parse_module
from cadinterop.hdl.races import detect_races
from cadinterop.obs import disable_tracing, enable_tracing
from tests.hdl.oracle import ReferenceSimulator, reference_ensemble

MIN_SPEEDUP = 3.0
PAIRS = 10


def build_workload(stages=10, toggles=40):
    """A pipeline with per-stage combinational clouds and two racy writers.

    Deep-ish expressions are the representative case: real models compute
    something between flops, and expression evaluation is exactly where
    tree-walking interpretation pays per activation.
    """
    lines = ["module ensemble_bench;", "  reg clk; reg d0;"]
    for i in range(1, stages + 1):
        lines.append(f"  reg q{i};")
        lines.append(f"  wire c{i};")
    lines.append("  initial begin clk = 0; d0 = 0; end")
    body = []
    for k in range(toggles):
        body.append(f"#5 clk = {k % 2 ^ 1};")
        if k % 3 == 0:
            body.append(f"d0 = {k % 2};")
    lines.append("  initial begin " + " ".join(body) + " end")
    for i in range(1, stages + 1):
        src = "d0" if i == 1 else f"q{i-1}"
        lines.append(
            f"  assign c{i} = ({src} ^ clk) | "
            f"(~{src} & (clk ^ {src})) ^ ({src} & ~clk);"
        )
        lines.append(f"  always @(posedge clk) q{i} = c{i} ^ {src};")
    lines.append("  reg r;")
    lines.append("  always @(posedge clk) r = q1;")
    lines.append(f"  always @(posedge clk) r = q{stages};")
    lines.append("endmodule")
    return parse_module("\n".join(lines))


def _racy_signals(module, kernel):
    """One race ensemble; the racy signals it reports."""
    if kernel == "interp":
        return [d.signal for d in reference_ensemble(module, until=10_000)]
    return detect_races(module, until=10_000).racy_signals


def _time_ensemble(module, kernel, rounds):
    start = time.perf_counter()
    for _ in range(rounds):
        racy = _racy_signals(module, kernel)
    return time.perf_counter() - start, racy


class TestKernelSpeedup:
    def test_compiled_kernel_beats_interpreter_3x(self, bench_scale):
        module = build_workload()
        rounds = 4 * bench_scale
        kernels = ("interp", "compiled")
        for kernel in kernels:  # untimed warm-up
            _racy_signals(module, kernel)
        times = {kernel: [] for kernel in kernels}
        reports = {}
        for pair in range(PAIRS):
            for kernel in kernels if pair % 2 == 0 else kernels[::-1]:
                elapsed, reports[kernel] = _time_ensemble(module, kernel, rounds)
                times[kernel].append(elapsed)
        interp_racy, compiled_racy = reports["interp"], reports["compiled"]
        speedup = statistics.median(
            interp / compiled for interp, compiled in zip(times["interp"], times["compiled"])
        )
        interp_time = statistics.median(times["interp"])
        compiled_time = statistics.median(times["compiled"])

        # Same verdicts first — a fast wrong simulator is worthless.
        assert interp_racy and interp_racy == compiled_racy

        rows = [
            ("interp", f"{interp_time * 1000:.1f}ms"),
            ("compiled", f"{compiled_time * 1000:.1f}ms"),
            ("speedup", f"{speedup:.2f}x"),
        ]
        print(f"\nE18 rows: {rows}")
        assert speedup >= MIN_SPEEDUP, (
            f"compiled simulator only {speedup:.2f}x over interpreter "
            f"(interp {interp_time * 1000:.1f}ms, "
            f"compiled {compiled_time * 1000:.1f}ms)"
        )

    def test_activation_rates_and_counts_match(self, bench_scale):
        # Activations are the unit of simulation work; both simulators must
        # do the same number of them (same schedule), so the speedup is
        # pure per-activation cost, not work skipped.
        from cadinterop.hdl.personalities import DEFAULT_ENSEMBLE, run_personality
        from cadinterop.hdl.compile import compile_model

        module = build_workload()
        compiled = compile_model(module)
        rates = {}
        for kernel in ("interp", "compiled"):
            total = 0
            start = time.perf_counter()
            for _ in range(2 * bench_scale):
                for personality in DEFAULT_ENSEMBLE:
                    if kernel == "interp":
                        sim = ReferenceSimulator(
                            personality.prepare(module), personality.policy
                        )
                        sim.run(10_000)
                    else:
                        sim = run_personality(
                            module, personality, until=10_000, compiled=compiled,
                        )
                    total += sim.activations
            elapsed = time.perf_counter() - start
            rates[kernel] = (total, total / elapsed)
        interp_total, interp_rate = rates["interp"]
        compiled_total, compiled_rate = rates["compiled"]
        assert interp_total == compiled_total
        print(
            f"\nE18 rates: interp {interp_rate:,.0f} acts/s, "
            f"compiled {compiled_rate:,.0f} acts/s"
        )
        assert compiled_rate > interp_rate


class TestCompileOnceObservability:
    def test_trace_shows_one_compile_serving_all_runs(self):
        module = build_workload(stages=4, toggles=10)
        tracer = enable_tracing()
        try:
            before = compile_calls()
            detect_races(module, until=1000)
            spans = tracer.spans()
        finally:
            disable_tracing()
        assert compile_calls() == before + 1
        compile_spans = [s for s in spans if s["name"] == "hdl:compile"]
        sim_spans = [s for s in spans if s["name"] == "hdl:sim"]
        assert len(compile_spans) == 1
        assert len(sim_spans) >= 4  # one per personality in the ensemble
