"""E20 — P&R flow speedup over the reference router and placer.

Every backplane measurement (E10/E11, the ``pnr_flows`` benchmark) pays
for placement and routing, and both used to repeat work whose result could
not change: the router rebuilt its neighbour list and probed four tracks
of clearance around every candidate node, and the placer re-derived every
pin through a transform and scanned every net for each candidate swap.
Rows: ``run_flow`` on the 24-cell sample design under toolP, toolQ and
toolR with the reference pair (``tests/pnr/oracle.py``) and with the
production pair, and the speedup.  Expected shape: identical placement and
routing under every tool, and the production flow at least 2x faster.

The two sides alternate in pairs, the oracle first on even pairs and
second on odd ones, and the gate is the median of the per-pair ratios, so
a burst of host load slows both halves of a pair or spoils only that pair.

Run from the repository root (``python -m pytest``), so that the
``tests`` package with the oracle is importable.
"""

import statistics
import time

from cadinterop.pnr.backplane import run_flow
from cadinterop.pnr.dialects import ALL_TOOLS
from cadinterop.pnr.samples import build_floorplan, generate_design
from tests.pnr.oracle import reference_backplane

MIN_SPEEDUP = 2.0
PAIRS = 10


def _flows(tech, library, oracle):
    """The sample design through every tool; its results and wall time."""
    design, pads = generate_design(library, cells=24)
    floorplan = build_floorplan()
    results = []
    start = time.perf_counter()
    for tool in ALL_TOOLS:
        if oracle:
            with reference_backplane():
                result = run_flow(tech, floorplan, library, design, tool, pads)
        else:
            result = run_flow(tech, floorplan, library, design, tool, pads)
        results.append((tool.name, result.placement, result.routing))
    return time.perf_counter() - start, results


class TestFlowSpeedup:
    def test_production_flow_beats_oracle_2x(self, pnr_tech, pnr_library):
        sides = ("oracle", "production")
        for side in sides:  # untimed warm-up
            _flows(pnr_tech, pnr_library, side == "oracle")
        times = {side: [] for side in sides}
        results = {}
        for pair in range(PAIRS):
            for side in sides if pair % 2 == 0 else sides[::-1]:
                elapsed, results[side] = _flows(pnr_tech, pnr_library, side == "oracle")
                times[side].append(elapsed)
        speedup = statistics.median(
            oracle / production
            for oracle, production in zip(times["oracle"], times["production"])
        )
        oracle_time = statistics.median(times["oracle"])
        production_time = statistics.median(times["production"])

        # Same placement and routing first: a fast wrong router is worthless.
        assert results["oracle"] == results["production"]
        routed = {name: len(routing.routed) for name, _placement, routing in results["production"]}
        assert all(routed.values())

        rows = [
            ("oracle", f"{oracle_time * 1000:.0f}ms"),
            ("production", f"{production_time * 1000:.0f}ms"),
            ("speedup", f"{speedup:.2f}x"),
            ("routed nets", routed),
        ]
        print(f"\nE20 rows: {rows}")
        assert speedup >= MIN_SPEEDUP, (
            f"production flow only {speedup:.2f}x over the oracle "
            f"(oracle {oracle_time * 1000:.0f}ms, production {production_time * 1000:.0f}ms)"
        )
