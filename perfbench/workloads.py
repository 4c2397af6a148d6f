"""The four benchmark workloads, their input generators and correctness gates.

Every workload is a closed loop of *rounds*.  A round is a fixed set of
items generated from ``(seed, round number)``; the program sees only the
generated inputs.  Sizes never depend on the seed, only contents do, so two
seeds cost about the same.  ``MIN_ROUNDS`` rounds always run, so at least
ten items lie beyond the workload's fixed ``TAIL_PCT`` percentile.
``cadinterop`` is imported in ``setup`` (never at module import), because
the harness times imports as set-up.
"""

from __future__ import annotations

import gc
import hashlib
import random
import tempfile
import time
from collections import Counter, deque
from typing import Callable, List, Optional, Sequence, Tuple

#: Schematic layer probes: the binding each caller looks the function up at.
SCHEMATIC_PROBES = (
    ("cadinterop.schematic.verify", "extract", "netlist.extract"),
    ("cadinterop.schematic.migrate", "verify_migration", "verify.verify_migration"),
    ("cadinterop.schematic.migrate", "replace_component", "ripup.replace_component"),
    ("cadinterop.schematic.migrate", "rescale_schematic", "gridmap.rescale"),
    ("cadinterop.schematic.migrate", "insert_offpage_connectors", "connectors.insert"),
    ("cadinterop.schematic.migrate", "insert_hierarchy_connectors", "connectors.insert"),
    ("cadinterop.schematic.connectors", "find_floating_ends", "connectors.find_floating_ends"),
)
FARM_PROBES = (
    ("cadinterop.schematic.io_vl", "load_schematic", "io_vl.load"),
    ("cadinterop.schematic.io_cd", "dump_schematic", "io_cd.dump"),
    ("cadinterop.farm.scheduler", "MigrationFarm.run", "farm.run"),
    ("cadinterop.farm.cache", "ResultCache.get", "cache.get"),
    ("cadinterop.farm.cache", "ResultCache.put", "cache.put"),
)
HDL_PROBES = (
    ("cadinterop.hdl.parser", "parse_module", "parser.parse_module"),
    ("cadinterop.hdl.races", "compile_model", "compile.compile_model"),
    ("cadinterop.hdl.personalities", "compile_model", "compile.compile_model"),
    ("cadinterop.hdl.simulator", "compile_model", "compile.compile_model"),
    ("cadinterop.hdl.simulator", "Simulator.run", "sim.run"),
    ("cadinterop.hdl.races", "detect_races", "races.detect_races"),
    ("cadinterop.hdl.cosim", "CoSimulation.run", "cosim.run"),
)
PNR_PROBES = (
    ("cadinterop.hdl.synth", "synthesize", "synth.synthesize"),
    ("cadinterop.rtl2gds", "gate_netlist_to_pnr", "rtl2gds.lower"),
    ("cadinterop.pnr.backplane", "convey", "backplane.convey"),
    ("cadinterop.pnr.backplane", "RowPlacer.place", "placement.place"),
    ("cadinterop.pnr.backplane", "GridRouter.route_design", "routing.route_design"),
    ("cadinterop.pnr.backplane", "extract", "parasitics.extract"),
)
ALL_PROBES = SCHEMATIC_PROBES + FARM_PROBES + HDL_PROBES + PNR_PROBES


#: A probe that ended this recently still describes the host at the next
#: item's start, so back-to-back items share it.
PROBE_REUSE_S = 0.002
#: What ``host_probe`` takes when the host runs at full speed: about the
#: fastest it ran on the 2-vCPU x86 host the benchmark was tuned on.
PROBE_REFERENCE_S = 0.0026


def host_probe() -> float:
    """Wall seconds of a fixed pure-Python maze search: the host's speed now.

    A breadth-first search over a 48 x 48 grid with every eleventh cell
    blocked.  It hashes tuples, fills a dict and allocates like the
    program's own geometry and routing loops, so it slows down with the
    program when a shared host gets busy.  It runs with the garbage
    collector off; with 100 MB of other small objects alive its time was
    unchanged (ratio 0.99), so it reads the host, not the size of the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        size = 48
        dist = {(0, 0): 0}
        queue = deque([(0, 0)])
        while queue:
            x, y = queue.popleft()
            step = dist[(x, y)] + 1
            for nx, ny in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if (0 <= nx < size and 0 <= ny < size and (nx, ny) not in dist
                        and (nx * 7 + ny * 3) % 11):
                    dist[(nx, ny)] = step
                    queue.append((nx, ny))
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def derive(*parts) -> int:
    """A 32-bit sub-seed that depends on every part (stable across runs)."""
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class Timings:
    """One view of a ledger's times: scaled to full host speed, or wall."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: Seconds of the work that makes up rounds.
        self.work_s = 0.0
        #: (items, work_s) totals at the end of each round.
        self.marks: List[Tuple[int, float]] = [(0, 0.0)]
        self.rerun_s: List[float] = []

    def end_round(self) -> None:
        self.marks.append((len(self.latencies), self.work_s))


class Ledger:
    """Everything one configuration (traced or untraced) measured.

    Timed work runs between two host probes, each the mean of
    ``probe_samples`` runs of ``host_probe``.  Its wall time goes to the
    ``wall`` view, and the wall time times ``PROBE_REFERENCE_S`` over the
    mean of the two probes goes to the ``scaled`` view: the time it would
    have taken with the host at full speed.
    """

    def __init__(self, probe_samples: int = 1) -> None:
        self.probe_samples = probe_samples
        self.scaled, self.wall = Timings(), Timings()
        self.tags: List[str] = []
        self.instances = 0
        #: Wall seconds of each whole round, probes and checks included.
        self.round_s: List[float] = []
        self.probes: List[float] = []
        self._last_probe: Optional[Tuple[float, float]] = None
        self.checks = 0
        self.failures: List[str] = []
        #: Counts read from the program's public result objects.
        self.counts: Counter = Counter()
        #: Probe and span totals (traced rounds only).
        self.trace: Counter = Counter()

    def item(
        self, seconds: float, wall: float, ok: bool, what: str, instances: int = 0, tag: str = ""
    ) -> None:
        self.scaled.latencies.append(seconds)
        self.wall.latencies.append(wall)
        self.tags.append(tag)
        self.instances += instances
        self.check(ok, what)

    def add_work(self, seconds: float, wall: float) -> None:
        self.scaled.work_s += seconds
        self.wall.work_s += wall

    def rerun(self, seconds: float, wall: float) -> None:
        self.scaled.rerun_s.append(seconds)
        self.wall.rerun_s.append(wall)

    def end_round(self, wall: float) -> None:
        self.round_s.append(wall)
        self.scaled.end_round()
        self.wall.end_round()

    def check(self, ok: bool, what: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(what)

    def _probe(self, reuse: bool) -> float:
        if reuse and self._last_probe is not None:
            seconds, ended = self._last_probe
            if time.perf_counter() - ended < PROBE_REUSE_S:
                return seconds
        samples = [host_probe() for _ in range(self.probe_samples)]
        self.probes.extend(samples)
        seconds = sum(samples) / len(samples)
        self._last_probe = (seconds, time.perf_counter())
        return seconds

    def timed(self, fn: Callable[[], object]):
        """Run ``fn`` between host probes: (value, exception, scaled s, wall s)."""
        before = self._probe(reuse=True)
        start = time.perf_counter()
        value = error = None
        try:
            value = fn()
        except Exception as exc:  # the caller counts it as a failure
            error = exc
        wall = time.perf_counter() - start
        after = self._probe(reuse=False)
        return value, error, wall * 2 * PROBE_REFERENCE_S / (before + after), wall

    def run_item(self, what: str, fn: Callable[[], bool], instances: int = 0, tag: str = "") -> None:
        """Time one item; an exception or a failed check counts as a failure."""
        ok, error, seconds, wall = self.timed(fn)
        if error is not None:  # a failing item is counted, never skipped
            ok, what = False, f"{what}: {type(error).__name__}: {error}"
        self.add_work(seconds, wall)
        self.item(seconds, wall, bool(ok), what, instances, tag)


def record_migration(counts: Counter, result) -> None:
    replacements = result.replacements
    counts["ripup.replacements"] += replacements.replacements
    counts["ripup.segments_ripped"] += replacements.total_ripped
    counts["ripup.similarity_sum"] += replacements.mean_similarity * replacements.replacements
    counts["connectors.added"] += (
        result.connectors.offpage_added + result.connectors.hierarchy_added
    )
    counts["gridmap.snapped"] += result.scaling.points_snapped
    for sample in result.stages:
        counts[f"migrate.{sample.stage}_s"] += sample.seconds


def record_farm(counts: Counter, report) -> None:
    counts["farm.migrated"] += report.migrated
    counts["farm.cached"] += report.cached
    counts["cache.hits"] += report.cache_hits
    counts["cache.misses"] += report.cache_misses
    counts["cache.corrupt"] += report.cache_corrupt
    digest = report.profile.stages.get("farm:digest")
    counts["farm.digest_s"] += digest.seconds if digest is not None else 0.0
    counts["farm.busy_s"] += sum(i.seconds for i in report.items if i.status == "migrated")
    counts["farm.capacity_s"] += report.jobs * report.wall_seconds
    for item in report.items:
        if item.status == "migrated" and item.result is not None:
            record_migration(counts, item.result)


def _interleave(groups: Sequence[List]) -> List:
    """Round-robin over groups, so sizes alternate through a round."""
    queue, groups = [], [list(g) for g in groups]
    while any(groups):
        for group in groups:
            if group:
                queue.append(group.pop(0))
    return queue


class MigrateLarge:
    """Single-page chain schematics over a page-size sweep, verification on.

    A round migrates 2 x 24, 6 x 48, 5 x 96 and 1 x 192 instances.  With
    this mix the median item lies inside the 48-instance group and the p75
    item inside the 96-instance group, away from the group edges, where one
    slow burst of the host would move the percentile from one size to the
    next.
    """

    name = "migrate_large"
    #: (instances, chains per page, stages per chain, designs per round)
    SIZES = ((24, 4, 6, 2), (48, 8, 6, 6), (96, 12, 8, 5), (192, 16, 12, 1))
    MIN_ROUNDS, TAIL_PCT = 3, 75
    ITEMS_IN_PARALLEL = False
    PROBE_SAMPLES = 1
    PROBES = SCHEMATIC_PROBES
    FINGERPRINT = (
        "ripup.replacements", "ripup.segments_ripped", "connectors.added",
        "gridmap.snapped", "netlist.extract.calls",
    )

    def setup(self) -> None:
        from cadinterop.schematic.migrate import Migrator
        from cadinterop.schematic.samples import (
            build_sample_plan,
            build_vl_libraries,
            generate_chain_schematic,
        )

        self.migrator_cls = Migrator
        self.generate = generate_chain_schematic
        self.libraries = build_vl_libraries()
        self.plan = build_sample_plan(source_libraries=self.libraries)

    def warmup(self) -> None:
        cell = self.generate(self.libraries, pages=1, chains_per_page=2, stages=3)
        self.migrator_cls(self.plan).migrate(cell)

    def round_inputs(self, seed: int, number: int):
        groups = []
        for size, chains, stages, count in self.SIZES:
            groups.append([
                (size, self.generate(
                    self.libraries, pages=1, chains_per_page=chains, stages=stages,
                    seed=derive(seed, number, size, k),
                ))
                for k in range(count)
            ])
        return _interleave(groups)

    def run_round(self, designs, ledger: Ledger) -> None:
        for size, cell in designs:
            def migrate_one(cell=cell):
                result = self.migrator_cls(self.plan).migrate(cell)
                record_migration(ledger.counts, result)
                return (
                    result.clean
                    and result.verification is not None
                    and result.verification.equivalent
                )

            ledger.run_item(
                cell.name, migrate_one, instances=cell.instance_count(), tag=f"p{size:03d}"
            )


class FarmIncremental:
    """A 200-design multi-page corpus through the process farm and the cache.

    One round loads the ``.vl`` texts, runs a cold farm pass into an empty
    on-disk cache, dumps every result as ``.cd`` text, then runs three edit
    rounds that each touch eight designs and re-run warm.  Items are the
    cold-pass designs; the edit rounds are reported as ``rerun_s``.
    """

    name = "farm_incremental"
    DESIGNS = 200
    #: The E15 shapes (pages, chains, stages); the 12-instance shape twice,
    #: so the median item falls inside one shape's group, not on an edge.
    SHAPES = ((1, 2, 3), (1, 3, 4), (2, 2, 4), (1, 3, 4), (2, 3, 3))
    EDIT_ROUNDS = 3
    EDITS = 8
    JOBS = 2
    MIN_ROUNDS, TAIL_PCT = 1, 95
    ITEMS_IN_PARALLEL = True
    PROBE_SAMPLES = 5
    PROBES = SCHEMATIC_PROBES + FARM_PROBES
    FINGERPRINT = (
        "farm.migrated", "farm.cached", "cache.hits", "cache.misses",
        "cache.corrupt", "ripup.replacements", "gridmap.snapped",
        "netlist.extract.calls",
    )

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir

    def setup(self) -> None:
        from cadinterop.common.geometry import Point
        from cadinterop.farm import MigrationFarm, ResultCache
        from cadinterop.schematic import io_cd, io_vl
        from cadinterop.schematic.model import TextLabel
        from cadinterop.schematic.samples import (
            build_sample_plan,
            build_vl_libraries,
            generate_chain_schematic,
        )

        self.point, self.text_label = Point, TextLabel
        self.farm_cls, self.cache_cls = MigrationFarm, ResultCache
        self.io_vl, self.io_cd = io_vl, io_cd
        self.generate = generate_chain_schematic
        self.libraries = build_vl_libraries()
        self.plan = build_sample_plan(source_libraries=self.libraries)

    def _farm(self, cache_dir: Optional[str]):
        cache = self.cache_cls(cache_dir) if cache_dir is not None else None
        return self.farm_cls(self.plan, jobs=self.JOBS, executor="process", cache=cache)

    def warmup(self) -> None:
        texts, _edits = self.round_inputs(0, 0, designs=4)
        self._farm(None).run([self.io_vl.load_schematic(t, self.libraries) for t in texts])

    def round_inputs(self, seed: int, number: int, designs: int = DESIGNS):
        texts = []
        for index in range(designs):
            pages, chains, stages = self.SHAPES[index % len(self.SHAPES)]
            cell = self.generate(
                self.libraries, pages=pages, chains_per_page=chains, stages=stages,
                seed=derive(seed, number, index),
                offgrid_labels=1 if index % 4 == 0 else 0,
            )
            cell.name = f"r{number}d{index:03d}"
            texts.append(self.io_vl.dump_schematic(cell))
        rng = random.Random(derive(seed, number, "edits"))
        edits = [
            sorted(rng.sample(range(designs), min(self.EDITS, designs)))
            for _ in range(self.EDIT_ROUNDS)
        ]
        return texts, edits

    @staticmethod
    def _step(ledger: Ledger, what: str, fn):
        """One timed step of a cold pass: (value, scaled ÷ wall), or (None, 0) if it raised."""
        value, error, seconds, wall = ledger.timed(fn)
        ledger.add_work(seconds, wall)
        if error is not None:
            ledger.check(False, f"{what}: {type(error).__name__}: {error}")
            return None, 0.0
        return value, seconds / wall

    def run_round(self, inputs, ledger: Ledger) -> None:
        texts, edits = inputs
        with tempfile.TemporaryDirectory(dir=self.state_dir) as cache_dir:
            # The cold part is timed in three steps, each between its own probes.
            designs, _ = self._step(ledger, "load", lambda: [
                self.io_vl.load_schematic(t, self.libraries) for t in texts
            ])
            if designs is None:
                return
            report, scale = self._step(
                ledger, "cold pass", lambda: self._farm(cache_dir).run(designs)
            )
            if report is None:
                return
            outputs, _ = self._step(ledger, "dump", lambda: [
                self.io_cd.dump_schematic(item.result.schematic)
                if item.result is not None else ""
                for item in report.items
            ])
            if outputs is None:
                return
            record_farm(ledger.counts, report)
            # Worker item times are scaled by the host speed around the cold pass.
            for design, item, output in zip(designs, report.items, outputs):
                ok = item.status == "migrated" and item.clean and bool(output)
                ledger.item(
                    item.seconds * scale, item.seconds, ok,
                    f"{design.name}: {item.error or item.status}",
                    instances=design.instance_count(),
                )
            for number, touched in enumerate(edits):
                for index in touched:
                    designs[index].pages[0].add_label(
                        self.text_label(f"edit {number}", self.point(16, 16))
                    )
                warm, error, seconds, wall = ledger.timed(
                    lambda: self._farm(cache_dir).run(designs)
                )
                if error is not None:
                    ledger.check(False, f"edit round {number}: {type(error).__name__}: {error}")
                    continue
                ledger.rerun(seconds, wall)
                record_farm(ledger.counts, warm)
                ledger.check(
                    warm.migrated == len(touched)
                    and warm.cached == len(designs) - len(touched)
                    and warm.all_clean,
                    f"edit round {number}: migrated {warm.migrated}, cached {warm.cached}",
                )


#: Single-input expression forms for the race-free data cone; one source
#: per assign keeps same-time combinational glitches out of the waveforms.
_FORMS = (
    "~{s}", "{s} ^ 1'b1", "({s} & 1'b1) | 1'b0", "~(~{s})",
    "{s} | ({s} & 1'b0)", "({s} ^ 1'b0) & 1'b1",
)


def _pipeline_lines(depth: int, toggles: int, rng: random.Random) -> List[str]:
    """Nonblocking flop pipeline; data changes on the falling edge only."""
    lines = ["  reg clk; reg d0;"]
    lines += [f"  reg q{i}; wire c{i};" for i in range(1, depth + 1)]
    lines.append("  initial begin clk = 0; d0 = 0; end")
    stimulus = " ".join(
        f"#5 clk = 1; #5 clk = 0; d0 = {rng.randint(0, 1)};" for _ in range(toggles)
    )
    lines.append(f"  initial begin {stimulus} end")
    for i in range(1, depth + 1):
        source = "d0" if i == 1 else f"q{i - 1}"
        lines.append(f"  assign c{i} = {rng.choice(_FORMS).format(s=source)};")
        lines.append(f"  always @(posedge clk) q{i} <= c{i};")
    return lines


def race_model(name: str, depth: int, toggles: int, racy: bool, rng: random.Random) -> str:
    """Racy: two blocking writers to ``r`` on one edge with opposite values."""
    lines = [f"module {name};"] + _pipeline_lines(depth, toggles, rng)
    if racy:
        # A deep tap stays x through a short stimulus, and x ^ d0 makes both
        # writers store x: no race would show.
        tap = rng.randint(1, min(depth, 4))
        lines.append("  reg r;")
        lines.append(f"  always @(posedge clk) r = q{tap} ^ d0;")
        lines.append(f"  always @(posedge clk) r = ~(q{tap} ^ d0);")
    lines.append("endmodule")
    return "\n".join(lines)


def cosim_split(name: str, depth: int, toggles: int, rng: random.Random):
    """A producer pipeline, a combinational consumer, and their monolith."""
    pipeline = _pipeline_lines(depth, toggles, rng)
    taps = (f"q{depth}", f"q{rng.randint(1, depth)}")
    outputs = 6
    exprs = ["{a} ^ {b}"] + [
        f"{rng.choice(('~', ''))}(o{k - 1} {rng.choice('&|^')} {{{rng.choice('ab')}}})"
        for k in range(2, outputs + 1)
    ]

    def body(a: str, b: str) -> List[str]:
        return [f"  assign o{k} = {e.format(a=a, b=b)};" for k, e in enumerate(exprs, 1)]

    wires = "  wire " + ", ".join(f"o{k}" for k in range(1, outputs + 1)) + ";"
    producer = "\n".join([f"module {name}_p;"] + pipeline + ["endmodule"])
    consumer = "\n".join([f"module {name}_c;", "  reg a, b;", wires] + body("a", "b") + ["endmodule"])
    mono = "\n".join([f"module {name}_m;"] + pipeline + [wires] + body(*taps) + ["endmodule"])
    bridge = (("left", taps[0], "a"), ("left", taps[1], "b"))
    signal_map = {f"o{k}": ("right", f"o{k}") for k in range(1, outputs + 1)}
    signal_map[taps[0]] = ("right", "a")
    return producer, consumer, mono, bridge, signal_map, toggles * 10 + 10


class HdlVerdicts:
    """Race verdicts on generated models plus producer/consumer co-simulation.

    Each round: 24 models over depth x stimulus length, half racy by
    construction, each parsed and run through the 4-personality ensemble;
    plus four co-simulation sessions checked against a monolithic reference.
    """

    name = "hdl_verdicts"
    DEPTHS = (8, 16, 24, 32)
    TOGGLES = (24, 48, 72)
    COSIM_DEPTHS = (8, 16, 24, 32)
    COSIM_TOGGLES = 48
    MIN_ROUNDS, TAIL_PCT = 8, 95
    ITEMS_IN_PARALLEL = False
    PROBE_SAMPLES = 1
    PROBES = HDL_PROBES
    FINGERPRINT = ("races.racy_models", "cosim.exchanges", "sim.run.activations")

    def setup(self) -> None:
        from cadinterop.hdl import cosim, parser, races, simulator

        self.parser, self.races, self.cosim, self.simulator = parser, races, cosim, simulator

    def warmup(self) -> None:
        module = self.parser.parse_module(race_model("warm", 2, 4, True, random.Random(0)))
        self.races.detect_races(module)

    def round_inputs(self, seed: int, number: int):
        rng = random.Random(derive(seed, number))
        items = []
        for depth in self.DEPTHS:
            for toggles in self.TOGGLES:
                for racy in (False, True):
                    name = f"m{number}_{depth}_{toggles}_{int(racy)}"
                    items.append(("race", name, race_model(name, depth, toggles, racy, rng), racy))
        for depth in self.COSIM_DEPTHS:
            name = f"x{number}_{depth}"
            items.append(("cosim", name, cosim_split(name, depth, self.COSIM_TOGGLES, rng), None))
        return items

    @staticmethod
    def _processes(module) -> int:
        return (
            len(module.always_blocks) + len(module.initial_blocks)
            + len(module.assigns) + len(module.gates)
        )

    def run_round(self, items, ledger: Ledger) -> None:
        for kind, name, payload, racy in items:
            if kind == "race":
                def verdict(source=payload, racy=racy):
                    module = self.parser.parse_module(source)
                    ledger.instances += self._processes(module)
                    report = self.races.detect_races(module)
                    ledger.counts["races.racy_models"] += int(report.has_race)
                    return report.has_race == racy and (not racy or report.racy_signals == ["r"])

                ledger.run_item(name, verdict)
            else:
                def session(split=payload):
                    producer, consumer, mono, bridge, signal_map, until = split
                    left = self.parser.parse_module(producer)
                    right = self.parser.parse_module(consumer)
                    ledger.instances += self._processes(left) + self._processes(right)
                    run = self.cosim.CoSimulation(
                        left, right, [self.cosim.BridgeSignal(*b) for b in bridge]
                    )
                    run.run(until)
                    ledger.counts["cosim.exchanges"] += run.exchanges
                    reference = self.simulator.simulate(self.parser.parse_module(mono), until=until)
                    report = self.cosim.compare_with_reference(run, reference, signal_map)
                    return report.fidelity == 1.0 and report.compared == len(signal_map)

                ledger.run_item(name, session)


def alu_rtl(name: str, bits: int, rng: random.Random) -> Tuple[str, List[str], List[str]]:
    """A bit-sliced ALU: per bit, ``sel`` picks AND or XOR.

    The seed orders the operators and operands of every bit; the cell count
    never changes.  In one of the four one-bit arrangements the ``sel`` net
    cannot be routed, so some rounds take the router's failure path.
    """
    inputs = [f"a{i}" for i in range(bits)] + [f"b{i}" for i in range(bits)] + ["sel"]
    outputs = [f"y{i}" for i in range(bits)]
    lines = [
        f"module {name} ({', '.join(inputs + outputs)});",
        f"  input {', '.join(inputs)};",
        f"  output {', '.join(outputs)};",
        f"  reg {', '.join(outputs)};",
    ]
    for i in range(bits):
        first, second = rng.sample(("^", "&"), 2)
        left, right = rng.sample((f"a{i}", f"b{i}"), 2)
        lines.append(
            f"  always @(*) if (sel) y{i} = {left} {first} {right}; "
            f"else y{i} = {left} {second} {right};"
        )
    lines.append("endmodule")
    return "\n".join(lines), inputs, outputs


class PnrFlows:
    """The Section 4 backplane: seeded netlists and one lowered RTL design
    through ``run_flow`` under toolP, toolQ and toolR.

    Each round: six random 24-cell netlists, each through one tool (the tools
    take turns, so every tool gets two netlists a round and each position
    cycles through all three), plus a one-bit ALU slice that is synthesized,
    lowered with ``rtl2gds``, closure-checked against its RTL on every input
    vector and then run through all three tools.  Items are the flows plus
    the ALU's synthesize-lower-closure step.  The three tools cost about the
    same on one netlist, so six netlists under one tool each vary with the
    seed less than two netlists under three tools each, at the same cost.

    The sizes keep the cost of a round independent of the seed.  From 32
    cells up (and in a 2-bit ALU), about one design in four has a net the
    router cannot complete, and its failed search doubles the flow's time,
    so the seed would decide how long a round takes.  At 24 cells a flow
    takes 0.3-0.6 s and a net the router cannot complete is rare.  In a
    one-bit ALU a failed net costs nothing
    extra, and the failure still shows in the rounds that draw it.
    """

    name = "pnr_flows"
    CELLS = (24,) * 6
    ALU_BITS = 1
    MIN_ROUNDS, TAIL_PCT = 4, 75
    ITEMS_IN_PARALLEL = False
    PROBE_SAMPLES = 3
    DIE = 800
    PROBES = PNR_PROBES + (
        ("cadinterop.hdl.parser", "parse_module", "parser.parse_module"),
        ("cadinterop.hdl.simulator", "Simulator.run", "sim.run"),
    )
    FINGERPRINT = (
        "routing.nets_routed", "routing.nets_failed", "routing.wirelength",
        "placement.hpwl", "backplane.dropped_intents", "rtl2gds.cells",
    )

    def setup(self) -> None:
        from cadinterop.common.geometry import Point, Rect
        from cadinterop.hdl import parser, simulator, synth
        from cadinterop.hdl.ast_nodes import Assign, Const, InitialBlock
        from cadinterop.pnr import backplane, dialects
        from cadinterop.pnr.floorplan import Floorplan, NetRule
        from cadinterop.pnr.samples import build_cell_library, build_floorplan, generate_design
        from cadinterop.pnr.tech import generic_two_layer_tech
        import cadinterop.rtl2gds as rtl2gds

        self.point, self.rect = Point, Rect
        self.parser, self.simulator, self.synth, self.rtl2gds = parser, simulator, synth, rtl2gds
        self.assign, self.const, self.initial = Assign, Const, InitialBlock
        self.backplane = backplane
        self.floorplan_cls, self.net_rule = Floorplan, NetRule
        self.generate = generate_design
        self.tools = (dialects.TOOL_P, dialects.TOOL_Q, dialects.TOOL_R)
        self.tech = generic_two_layer_tech()
        self.library = build_cell_library()
        self.floorplan = build_floorplan()

    def warmup(self) -> None:
        design, pads = self.generate(self.library, cells=6, seed=1)
        self.backplane.run_flow(self.tech, self.floorplan, self.library, design, self.tools[0], pads)

    def round_inputs(self, seed: int, number: int):
        designs = [
            self.generate(self.library, cells=cells, seed=derive(seed, number, k))
            + (self.tools[(number + k) % len(self.tools)],)
            for k, cells in enumerate(self.CELLS)
        ]
        rtl = alu_rtl(f"alu{number}", self.ALU_BITS, random.Random(derive(seed, number, "alu")))
        return designs, rtl

    def _alu_floorplan(self, name, inputs, outputs):
        floorplan = self.floorplan_cls(name, self.rect(0, 0, self.DIE, self.DIE))
        floorplan.add_net_rule(self.net_rule(outputs[0], width_tracks=1, spacing_tracks=2))
        pads = {}
        for k, pin in enumerate(inputs):
            pads[pin] = self.point(0, (k + 1) * self.DIE // (len(inputs) + 1))
        for k, pin in enumerate(outputs):
            pads[pin] = self.point(self.DIE - 5, (k + 1) * self.DIE // (len(outputs) + 1))
        return floorplan, pads

    def _flow(self, ledger: Ledger, floorplan, design, pads, tool) -> None:
        def flow():
            result = self.backplane.run_flow(
                self.tech, floorplan, self.library, design, tool, pads
            )
            routing = result.routing
            counts = ledger.counts
            counts["routing.nets_routed"] += len(routing.routed)
            counts["routing.nets_failed"] += len(routing.failed)
            counts["routing.wirelength"] += routing.total_wirelength
            counts["placement.hpwl"] += result.placement.hpwl
            counts["backplane.dropped_intents"] += len(result.dropped)
            return len(routing.routed) + len(routing.failed) == len(design.nets)

        ledger.run_item(f"{design.name}/{tool.name}", flow, instances=len(design.instances))

    def _stimulate(self, module, values):
        for name in values:
            module.add_net(name, "reg")
        module.initial_blocks.append(
            self.initial([self.assign(name, self.const(v)) for name, v in values.items()])
        )
        return module

    def run_round(self, inputs, ledger: Ledger) -> None:
        designs, (source, pins_in, pins_out) = inputs
        for design, pads, tool in designs:
            self._flow(ledger, self.floorplan, design, pads, tool)

        holder = {}

        def lower_and_close():
            rtl = self.parser.parse_module(source)
            hardware = self.rtl2gds.strip_testbench(self.synth.synthesize(rtl).netlist)
            conversion = self.rtl2gds.gate_netlist_to_pnr(hardware, self.library)
            ledger.counts["rtl2gds.cells"] += conversion.cells_emitted
            holder["design"] = conversion.design
            mismatches = 0
            for vector in range(2 ** len(pins_in)):
                values = {pin: str((vector >> k) & 1) for k, pin in enumerate(pins_in)}
                golden = self.simulator.simulate(
                    self._stimulate(self.parser.parse_module(source), values), until=10
                )
                layout = self.simulator.simulate(
                    self._stimulate(self.rtl2gds.pnr_to_gate_netlist(conversion.design), values),
                    until=10,
                )
                mismatches += sum(golden.value(o) != layout.value(o) for o in pins_out)
            return conversion.ok and mismatches == 0

        ledger.run_item(f"alu/{source.split()[1]}/closure", lower_and_close)
        if "design" in holder:
            floorplan, pads = self._alu_floorplan(holder["design"].name, pins_in, pins_out)
            for tool in self.tools:
                self._flow(ledger, floorplan, holder["design"], pads, tool)
