"""E19 — migration cost per instance as one page grows.

Verification extracts two netlists per migration, and extraction, rip-up
and floating-end detection all ask which wires pass through a point.  With
pairwise scans that made a page's migration quadratic in its size; with
one :class:`~cadinterop.schematic.spatial.PageIndex` per page it should be
near-linear.  Rows: single-page chain designs of 144, 576 and 1152
instances (24 stages per chain, more chains per page), migrated with
verification on.  Each row is the median of interleaved repeats, in
forward order on even repeats and reversed on odd ones, so a host that
speeds up or slows down shifts every row alike.
Expected shape: ms/instance at 1152 within 2.5x of ms/instance at 144
(the pairwise scans read about 6x).
"""

import statistics
import time

from cadinterop.schematic.migrate import Migrator
from cadinterop.schematic.samples import build_sample_plan, generate_chain_schematic

#: instances -> chains on the page (each chain has ``STAGES`` inverters)
SIZES = {144: 6, 576: 24, 1152: 48}
STAGES = 24
REPEATS = 5
MAX_PER_INSTANCE_GROWTH = 2.5


class TestMigrationScaling:
    def test_per_instance_cost_stays_flat(self, vl_libraries):
        plan = build_sample_plan(source_libraries=vl_libraries)
        cells = {
            size: generate_chain_schematic(
                vl_libraries, pages=1, chains_per_page=chains, stages=STAGES
            )
            for size, chains in SIZES.items()
        }
        assert all(cells[size].instance_count() == size for size in SIZES)

        def run(size):
            start = time.perf_counter()
            result = Migrator(plan).migrate(cells[size])
            elapsed = time.perf_counter() - start
            assert result.clean and result.verification.equivalent, size
            return elapsed

        order = list(SIZES)
        for size in order:  # untimed warm-up
            run(size)
        times = {size: [] for size in order}
        for repeat in range(REPEATS):
            for size in order if repeat % 2 == 0 else order[::-1]:
                times[size].append(run(size))

        per_instance_ms = {
            size: statistics.median(times[size]) / size * 1e3 for size in order
        }
        growth = per_instance_ms[1152] / per_instance_ms[144]
        rows = {
            "repeats": REPEATS,
            **{f"p{size}_ms": round(statistics.median(times[size]) * 1e3, 1) for size in order},
            **{f"p{size}_ms_per_inst": round(per_instance_ms[size], 3) for size in order},
            "growth_1152_vs_144": round(growth, 2),
        }
        print(f"\nE19 rows: {rows}")
        assert growth <= MAX_PER_INSTANCE_GROWTH, rows
