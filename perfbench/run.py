#!/usr/bin/env python3
"""cadinterop benchmark: four seeded closed-loop workloads over the public API.

Run from the repository root::

    python3 perfbench/run.py --workload migrate_large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` interleaves untraced and traced rounds of identical inputs
(alternating which goes first, after one warm-up round of each) and reports
the per-layer metrics of the traced rounds plus the tracing overhead.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it (``detail: {...}``) records
the environment, the tail percentile and sample count, and the exact-count
fingerprint.  See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = HERE / ".state"

#: Seed reserved for confirming claims; never used while tuning a change.
HELDOUT_SEED = 7919
#: Fresh-process set-up samples taken after the measurement.
SETUP_PROBES = 7
#: Host probes averaged on each side of a set-up process.
SETUP_HOST_PROBES = 3

WORKLOADS = ("migrate_large", "farm_incremental", "hdl_verdicts", "pnr_flows")

#: Program span names whose self time is reported.
SPAN_NAMES = tuple(
    f"migrate:{stage}" for stage in (
        "scaling", "replacement", "properties", "globals", "bus-syntax",
        "connectors", "text", "verification",
    )
) + ("farm:scan", "hdl:compile", "hdl:sim", "hdl:cosim", "pnr:flow")


def make_workload(name: str):
    import workloads

    STATE.mkdir(parents=True, exist_ok=True)
    classes = {
        "migrate_large": workloads.MigrateLarge,
        "farm_incremental": lambda: workloads.FarmIncremental(str(STATE)),
        "hdl_verdicts": workloads.HdlVerdicts,
        "pnr_flows": workloads.PnrFlows,
    }
    return classes[name]()


def setup_workload(name: str):
    """Imports plus table builds: what the set-up metric times."""
    sys.path.insert(0, str(SRC))
    workload = make_workload(name)
    workload.setup()
    return workload


# -- running rounds ------------------------------------------------------------


def run_round(workload, inputs, ledger, traced: bool) -> float:
    """Run one round; return its scaled work seconds (see ``Ledger``)."""
    before = ledger.scaled.work_s
    start = time.perf_counter()
    if traced:
        from cadinterop.obs import disable_tracing, enable_tracing
        from probes import ProbeSet, probe_totals, program_self_times

        tracer = enable_tracing()
        try:
            with ProbeSet(workload.PROBES):
                workload.run_round(inputs, ledger)
        finally:
            disable_tracing()
        spans = tracer.spans()
        ledger.trace.update(probe_totals(spans))
        count, self_s = program_self_times(spans)
        ledger.trace["obs.spans"] += count
        for name, seconds in self_s.items():
            ledger.trace["obs.self_s." + name] += seconds
    else:
        workload.run_round(inputs, ledger)
    ledger.end_round(time.perf_counter() - start)
    return ledger.scaled.work_s - before


def fingerprint(workload, ledger) -> dict:
    """Deterministic counts of one round; trace-only keys appear when traced."""
    values = {"items": len(ledger.scaled.latencies), "instances": ledger.instances}
    for key in workload.FINGERPRINT:
        for source in (ledger.counts, ledger.trace):
            if key in source:
                values[key] = source[key]
    return values


def measure(workload, seed: int, seconds: float):
    from workloads import Ledger

    ledger = Ledger(workload.PROBE_SAMPLES)
    first = None
    number = 0
    while number < workload.MIN_ROUNDS or sum(ledger.round_s) < seconds:
        run_round(workload, workload.round_inputs(seed, number), ledger, traced=False)
        if first is None:
            first = fingerprint(workload, ledger)
        number += 1
    return ledger, first


def measure_traced(workload, seed: int, seconds: float):
    """Interleaved pairs of identical rounds; the order alternates per pair."""
    from workloads import Ledger

    warm = Ledger(workload.PROBE_SAMPLES)
    inputs = workload.round_inputs(seed, 0)
    run_round(workload, inputs, warm, traced=False)
    run_round(workload, inputs, warm, traced=True)
    off, on = Ledger(workload.PROBE_SAMPLES), Ledger(workload.PROBE_SAMPLES)
    first = None
    pairs = []
    number = 0
    while number < 2 or sum(off.round_s) + sum(on.round_s) < seconds:
        inputs = workload.round_inputs(seed, number)
        order = (False, True) if number % 2 == 0 else (True, False)
        timed = {}
        for traced in order:
            timed[traced] = run_round(workload, inputs, on if traced else off, traced)
        pairs.append(timed[True] / timed[False])
        if first is None:
            first = fingerprint(workload, on)
        number += 1
    return (on, off, warm), pairs, first


# -- metrics -------------------------------------------------------------------


def tail(latencies, pct: int):
    """Nearest-rank percentile, with the number of items beyond it."""
    ordered = sorted(latencies)
    rank = math.ceil(pct * len(ordered) / 100)
    return ordered[rank - 1], len(ordered) - rank


def round_work(times):
    """Work seconds of each round in one view of a ledger."""
    return [end[1] - begin[1] for begin, end in zip(times.marks, times.marks[1:])]


def round_cost(workload, times) -> float:
    """Seconds the items of one round take.

    Rounds repeat the same item positions, so each position's median over
    the rounds is summed, and a slow burst that hits one round drops out.
    Farm items run in parallel workers and do not add up to wall time; there
    (and if rounds ever differ in length) the median round work is used.
    """
    spans = list(zip(times.marks, times.marks[1:]))
    lengths = {end[0] - begin[0] for begin, end in spans}
    if workload.ITEMS_IN_PARALLEL or len(lengths) != 1:
        return statistics.median(round_work(times))
    slots = zip(*(times.latencies[begin[0]:end[0]] for begin, end in spans))
    return sum(statistics.median(slot) for slot in slots)


def end_to_end(workload, ledger, times, setup_s, peak_rss_mb, attempted, failed):
    """The end-to-end metrics from one view (scaled or wall) of a ledger."""
    value, beyond = tail(times.latencies, workload.TAIL_PCT)
    rounds = len(times.marks) - 1
    cost = round_cost(workload, times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (len(times.latencies) / rounds / cost, "1/s"),
        "item_p50_ms": (statistics.median(times.latencies) * 1e3, "ms"),
        "item_tail_ms": (value * 1e3, "ms"),
        "pass_share": (1.0 - failed / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "kinst_per_s": (ledger.instances / rounds / cost / 1e3, "kinst/s"),
        "rerun_s": (statistics.median(times.rerun_s) if times.rerun_s else cost, "s"),
    }
    return metrics, {
        "percentile": workload.TAIL_PCT, "samples": len(times.latencies), "beyond": beyond,
    }


def per_layer(on, off, pairs):
    rounds = len(on.round_s)
    c, t = on.counts, on.trace

    def per_round(value):
        return value / rounds

    def share(part, whole):
        return part / whole if whole else 0.0

    metrics = {}
    for size in (24, 48, 96, 192):
        tag = f"p{size:03d}"
        chosen = [lat for lat, got in zip(on.scaled.latencies, on.tags) if got == tag]
        metrics[f"migrate.ms_per_inst.{tag}"] = (
            share(sum(chosen) * 1e3, size * len(chosen)), "ms/inst")
    for stage in ("scaling", "replacement", "connectors", "verification"):
        metrics[f"migrate.{stage}_s"] = (per_round(c[f"migrate.{stage}_s"]), "s")
    timed = (
        "netlist.extract_s", "verify.verify_migration_s", "ripup.replace_component_s",
        "connectors.insert_s", "connectors.find_floating_ends_s", "gridmap.rescale_s",
        "io_vl.load_s", "io_cd.dump_s", "farm.run_s", "cache.get_s", "cache.put_s",
        "parser.parse_module_s", "compile.compile_model_s", "sim.run_s",
        "races.detect_races_s", "cosim.run_s", "synth.synthesize_s", "rtl2gds.lower_s",
        "backplane.convey_s", "placement.place_s", "routing.route_design_s",
        "parasitics.extract_s",
    )
    for name in timed:
        metrics[name] = (per_round(t[name]), "s")
    probe_counts = {
        "netlist.extract_calls": "netlist.extract.calls",
        "compile.calls": "compile.compile_model.calls",
        "sim.runs": "sim.run.calls",
        "sim.activations": "sim.run.activations",
    }
    for name, key in probe_counts.items():
        metrics[name] = (per_round(t[key]), "count")
    result_counts = (
        "ripup.replacements", "ripup.segments_ripped", "connectors.added",
        "gridmap.snapped", "farm.migrated", "farm.cached", "cache.hits",
        "cache.misses", "cache.corrupt", "races.racy_models", "cosim.exchanges",
        "rtl2gds.cells", "backplane.dropped_intents", "placement.hpwl",
        "routing.nets_routed", "routing.nets_failed",
    )
    for name in result_counts:
        metrics[name] = (per_round(c[name]), "count")
    metrics["farm.digest_s"] = (per_round(c["farm.digest_s"]), "s")
    metrics["ripup.mean_similarity"] = (
        share(c["ripup.similarity_sum"], c["ripup.replacements"]), "share")
    metrics["farm.worker_busy_share"] = (share(c["farm.busy_s"], c["farm.capacity_s"]), "share")
    metrics["cache.hit_ratio"] = (
        share(c["cache.hits"], c["cache.hits"] + c["cache.misses"]), "share")
    metrics["activations_per_s"] = (
        share(t["sim.run.activations"], sum(round_work(on.scaled))), "1/s")
    metrics["routed_share"] = (
        share(c["routing.nets_routed"], c["routing.nets_routed"] + c["routing.nets_failed"]),
        "share")
    metrics["wirelength_tracks"] = (per_round(c["routing.wirelength"]), "tracks")
    metrics["obs.trace_overhead"] = (statistics.median(pairs) - 1.0, "share")
    metrics["obs.trace_overhead_base_s"] = (statistics.median(round_work(off.scaled)), "s")
    metrics["obs.spans"] = (per_round(t["obs.spans"]), "count")
    for span in SPAN_NAMES:
        metrics["obs.self_s." + span.replace(":", ".")] = (
            per_round(t["obs.self_s." + span]), "s")
    return metrics


# -- environment, fingerprints, set-up -----------------------------------------


def commit() -> str:
    """The checked-out commit when ``.git`` is present, else ``unknown``."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def code_digest() -> str:
    """Content hash of ``src/`` and the benchmark: identifies what ran."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_fingerprint(name: str, seed: int, trace: int, code: str, values: dict):
    """Compare with the fingerprint an earlier run of the same code and seed stored."""
    path = STATE / "fingerprints" / f"{name}-seed{seed}-trace{trace}-{code}.json"
    if path.is_file():
        stored = json.loads(path.read_text())
        return stored == values, stored
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True))
    return True, None


def setup_samples(name: str):
    """Set-up seconds of fresh processes, scaled and wall.

    Each process runs between host probes and its time is scaled like an
    item's (see ``workloads.Ledger``).
    """
    from workloads import PROBE_REFERENCE_S, host_probe

    samples, walls, errors = [], [], []
    for _ in range(SETUP_PROBES):
        before = statistics.fmean(host_probe() for _ in range(SETUP_HOST_PROBES))
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", name],
            cwd=str(ROOT), capture_output=True, text=True, timeout=120,
        )
        after = statistics.fmean(host_probe() for _ in range(SETUP_HOST_PROBES))
        try:
            wall = float(done.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            errors.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()[-200:]}")
            continue
        walls.append(wall)
        samples.append(wall * 2 * PROBE_REFERENCE_S / (before + after))
    return samples, walls, errors


def peak_rss_mb() -> float:
    """Parent peak plus the largest reaped child's peak (farm workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "cadinterop" / "__init__.py").is_file():
        print(f"error: no cadinterop sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_workload(args.setup_probe)
        print(time.perf_counter() - START)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    # The string hash seed is an input too: the P&R router breaks ties in
    # set order (see README), so counts repeat only under one hash seed.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(HERE / "run.py"), *argv], env)

    workload = setup_workload(args.workload)
    setup_here = time.perf_counter() - START
    workload.warmup()

    if args.trace:
        (on, off, warm), pairs, first = measure_traced(workload, args.seed, args.seconds)
        ledgers = (on, off, warm)
    else:
        ledger, first = measure(workload, args.seed, args.seconds)
        ledgers = (ledger,)
    rss = peak_rss_mb()
    samples, walls, probe_errors = setup_samples(args.workload)

    # Every item check, every set-up probe, and the fingerprint comparison.
    attempted = sum(ledger.checks for ledger in ledgers) + SETUP_PROBES + 1
    failures = [f for ledger in ledgers for f in ledger.failures] + probe_errors
    code = code_digest()
    same, stored = check_fingerprint(args.workload, args.seed, args.trace, code, first)
    if not same:
        failures.append(f"fingerprint differs from an earlier run of this seed: {stored}")
    main_ledger = ledgers[0]
    metrics, tail_info = end_to_end(
        workload, main_ledger, main_ledger.scaled, statistics.median(samples or [setup_here]),
        rss, attempted, len(failures),
    )
    wall_metrics, _ = end_to_end(
        workload, main_ledger, main_ledger.wall, statistics.median(walls or [setup_here]),
        rss, attempted, len(failures),
    )
    if args.trace:
        metrics = per_layer(on, off, pairs)

    from workloads import PROBE_REFERENCE_S

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "rounds": len(main_ledger.round_s),
        "items": len(main_ledger.scaled.latencies),
        "item_tail": tail_info,
        "wall_metrics": {name: value for name, (value, _unit) in wall_metrics.items()},
        "setup_s": {"scaled": samples, "wall": walls, "this_process_wall": setup_here},
        "fingerprint": first,
        "fingerprint_matches_earlier_run": same,
        "failures": failures[:10],
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "commit": commit(),
            "code_digest": code,
            "host_probe_ms": {
                "median": statistics.median(main_ledger.probes) * 1e3,
                "reference": PROBE_REFERENCE_S * 1e3,
            },
            "scaled_over_wall": main_ledger.scaled.work_s / main_ledger.wall.work_s,
        },
    }
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
