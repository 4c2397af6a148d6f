"""Golden migrations: the indexed geometry reproduces the pairwise-scan results.

The expected values were recorded with the quadratic netlist, rip-up and
floating-end scans, before :class:`~cadinterop.schematic.spatial.PageIndex`
replaced them: the digest of the migrated schematic, a digest of its issue
log, and the rip-up totals, for generated chains of 12 to 192 instances
(single- and multi-page, with and without off-grid label anchors) and the
hand-drawn sample cell, under both replacement strategies.
"""

import hashlib

import pytest

from cadinterop.schematic.migrate import Migrator, schematic_digest
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_sample_schematic,
    build_vl_libraries,
    generate_chain_schematic,
)

#: (pages, chains per page, stages, seed, off-grid label anchors)
CHAINS = {
    "12": (1, 2, 6, 1996, 0),
    "48-offgrid": (2, 4, 6, 11, 2),
    "96": (1, 12, 8, 2, 0),
    "96-offgrid": (2, 6, 8, 7919, 1),
    "192": (1, 16, 12, 3, 0),
    "192-offgrid": (3, 4, 16, 5, 3),
}

#: case -> (schematic digest, log digest, log length, replacements,
#: ripped, added, retained, mean similarity, equivalent, clean)
GOLDEN = {
    ("minimal", "12"): ("241c9b090b20a561", "d0078c6e5d6a9683", 13, 12, 24, 48, 10, 0.277777777778, True, True),
    ("minimal", "48-offgrid"): ("2c0371b0e76877d6", "16075af2dcecfc6b", 55, 48, 96, 192, 40, 0.277777777778, True, True),
    ("minimal", "96"): ("aa2d0b8292360650", "603faa47234f9303", 97, 96, 192, 384, 84, 0.291666666667, True, True),
    ("minimal", "96-offgrid"): ("a29f28189d00eaf4", "b7d732660e732f0d", 104, 96, 192, 384, 84, 0.291666666667, True, True),
    ("minimal", "192"): ("f83bc53705ca3b7d", "7f71570934a4fff8", 193, 192, 384, 768, 176, 0.305555555556, True, True),
    ("minimal", "192-offgrid"): ("1c4bc7e6db452602", "6435f78b6aebad25", 204, 192, 384, 768, 180, 0.3125, True, True),
    ("minimal", "sample"): ("a9e06c514a547bdb", "9912fefdd1056f24", 16, 6, 7, 14, 11, 0.638888888889, True, True),
    ("naive", "12"): ("6d438946cfac1bb7", "d0078c6e5d6a9683", 13, 12, 34, 38, 0, 0.0, True, True),
    ("naive", "48-offgrid"): ("fb58574475d4f950", "16075af2dcecfc6b", 55, 48, 136, 152, 0, 0.0, True, True),
    ("naive", "96"): ("92f8050a0b14d4a4", "603faa47234f9303", 97, 96, 276, 300, 0, 0.0, True, True),
    ("naive", "96-offgrid"): ("8276e0cea7ec9e48", "b7d732660e732f0d", 104, 96, 276, 300, 0, 0.0, True, True),
    ("naive", "192"): ("ec6f99b2be7bc450", "7f71570934a4fff8", 193, 192, 560, 592, 0, 0.0, True, True),
    ("naive", "192-offgrid"): ("5a1f7d3c0d1027b9", "6435f78b6aebad25", 204, 192, 564, 588, 0, 0.0, True, True),
    # The naive strategy breaks the sample's mid-segment tap; verification
    # must keep saying so.
    ("naive", "sample"): ("4c574e1538d925d1", "f6614032a1a98599", 18, 6, 16, 19, 0, 0.0, False, False),
}


@pytest.fixture(scope="module")
def vl_libraries():
    return build_vl_libraries()


def _observed(result):
    report = result.replacements
    log_text = "\n".join(issue.format() for issue in result.log)
    return (
        schematic_digest(result.schematic)[:16],
        hashlib.sha256(log_text.encode("utf-8")).hexdigest()[:16],
        len(result.log),
        report.replacements,
        report.total_ripped,
        report.total_added,
        report.total_retained,
        round(report.mean_similarity, 12),
        result.verification.equivalent,
        result.clean,
    )


@pytest.mark.parametrize("strategy,case", sorted(GOLDEN))
def test_migration_reproduces_the_pairwise_scan_result(vl_libraries, strategy, case):
    if case == "sample":
        cell = build_sample_schematic(vl_libraries)
    else:
        pages, chains, stages, seed, offgrid = CHAINS[case]
        cell = generate_chain_schematic(
            vl_libraries, pages=pages, chains_per_page=chains, stages=stages,
            seed=seed, offgrid_labels=offgrid,
        )
    plan = build_sample_plan(source_libraries=vl_libraries, strategy=strategy)
    assert _observed(Migrator(plan).migrate(cell)) == GOLDEN[(strategy, case)]
