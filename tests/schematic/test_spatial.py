"""The per-page spatial index and the differential tests that gate it.

Netlist extraction, floating-end detection and component replacement all
answer "which wires pass through this point?" through one
:class:`PageIndex`.  Each is checked here against the quadratic pairwise
scan it replaced (kept in :mod:`tests.schematic.oracles`) over random
Manhattan wire soups on a small grid: T-junctions, endpoint-on-endpoint
joins, plus-crossings that must not connect, collinear overlaps, repeated
vertices, pins tapping a segment mid-way, and labels spanning pages, in
both the implicit (Viewdraw-like) and explicit (Composer-like) dialects.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cadinterop.common.diagnostics import IssueLog
from cadinterop.common.geometry import Orientation, Point, Rect, Transform
from cadinterop.schematic.connectors import find_floating_ends
from cadinterop.schematic.dialects import COMPOSER_LIKE, VIEWDRAW_LIKE
from cadinterop.schematic.migrate import copy_schematic
from cadinterop.schematic.model import (
    Instance,
    PinDirection,
    Port,
    Schematic,
    Symbol,
    SymbolPin,
    Wire,
)
from cadinterop.schematic.netlist import extract
from cadinterop.schematic.ripup import RipupError, replace_component
from cadinterop.schematic.spatial import TILE, PageIndex
from cadinterop.schematic.symbolmap import SymbolKey, SymbolMapping
from tests.schematic import oracles

#: Grid pitch of the generated soups.  Seven points per axis span 576
#: units, so segments cross ``TILE`` boundaries.
STEP = 96
LABELS = (None, None, None, "A", "B", "VDD")


def _symbol(name, kind, pins):
    return Symbol(
        library="lib", name=name, kind=kind,
        pins=[SymbolPin(pin, Point(x, y), PinDirection.BIDIRECTIONAL) for pin, x, y in pins],
    )


COMPONENT = _symbol("buf", "component", [("A", 0, 0), ("M", STEP, 0), ("Y", 2 * STEP, 0)])
REPLACEMENT = _symbol("buf2", "component", [("IN", 0, 0), ("MID", STEP, 0), ("OUT", 2 * STEP, 0)])
CONNECTORS = {
    "offpage_connector": _symbol("offpage", "offpage_connector", [("P", 0, 0)]),
    "global": _symbol("vdd", "global", [("P", 0, 0)]),
    "hier_connector": _symbol("hier", "hier_connector", [("P", 0, 0)]),
}

coords = st.integers(0, 6).map(lambda k: k * STEP)
grid_points = st.builds(Point, coords, coords)


@st.composite
def polylines(draw):
    """A Manhattan polyline of 2-5 vertices; vertices may repeat."""
    points = [draw(grid_points)]
    for _ in range(draw(st.integers(1, 4))):
        last = points[-1]
        if draw(st.booleans()):
            points.append(Point(draw(coords), last.y))
        else:
            points.append(Point(last.x, draw(coords)))
    return points


wires = st.builds(
    Wire,
    polylines().filter(lambda points: len(set(points)) > 1),
    label=st.sampled_from(LABELS),
)


@st.composite
def instances(draw, name):
    kind = draw(st.sampled_from(["component", "component", *CONNECTORS]))
    symbol = COMPONENT if kind == "component" else CONNECTORS[kind]
    instance = Instance(
        name, symbol, Transform(draw(grid_points), draw(st.sampled_from(list(Orientation))))
    )
    if kind != "component":
        instance.properties.set("signal", draw(st.sampled_from(["A", "B", "VDD", "GND"])))
    return instance


@st.composite
def schematics(draw):
    """One or two pages of wire soup.  Instance names repeat across pages."""
    cell = Schematic("soup", VIEWDRAW_LIKE.name, ports=[Port("A"), Port("B")])
    for _ in range(draw(st.integers(1, 2))):
        page = cell.add_page(Rect(0, 0, 6 * STEP, 6 * STEP))
        for wire in draw(st.lists(wires, max_size=10)):
            page.add_wire(wire)
        for k in range(draw(st.integers(0, 4))):
            page.add_instance(draw(instances(f"U{k}")))
    return cell


def _assert_same_netlist(got, want):
    assert list(got.nets) == list(want.nets)
    for name, net in want.nets.items():
        assert got.nets[name] == net, name  # every Net field
    assert got.log.issues == want.log.issues


SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestPageIndex:
    def page_index(self, *polylines):
        return PageIndex([Wire(list(points)) for points in polylines])

    def test_wires_at_finds_segments_through_a_point(self):
        index = self.page_index(
            [Point(0, 0), Point(100, 0)],          # 0: horizontal
            [Point(50, -50), Point(50, 50)],       # 1: vertical, crosses 0
            [Point(100, 0), Point(100, 80)],       # 2: corner on 0's end
        )
        assert index.wires_at(Point(50, 0)) == {0, 1}
        assert index.wires_at(Point(100, 0)) == {0, 2}
        assert index.wires_at(Point(0, 0)) == {0}
        assert index.wires_at(Point(101, 0)) == set()
        assert index.wires_at(Point(50, 51)) == set()

    def test_long_segments_are_found_in_every_tile(self):
        index = self.page_index([Point(-3 * TILE, 7), Point(5 * TILE + 3, 7)])
        for x in (-3 * TILE, -1, 0, TILE - 1, TILE, 4 * TILE + 17, 5 * TILE + 3):
            assert index.wires_at(Point(x, 7)) == {0}
        assert index.wires_at(Point(5 * TILE + 4, 7)) == set()

    def test_repeated_vertices_and_overlaps(self):
        index = self.page_index(
            [Point(0, 0), Point(0, 0), Point(0, 40), Point(0, 10)],
            [Point(0, 20), Point(0, 60)],
        )
        assert index.wires_at(Point(0, 30)) == {0, 1}
        assert index.wires_at(Point(0, 50)) == {1}

    def test_update_refiles_a_rewritten_wire(self):
        page_wires = [Wire([Point(0, 0), Point(100, 0)]), Wire([Point(0, 50), Point(0, 90)])]
        index = PageIndex(page_wires)
        old = page_wires[0].points
        page_wires[0].points = [Point(0, 10), Point(0, 70), Point(30, 70)]
        index.update(0, old)
        assert index.wires_at(Point(50, 0)) == set()
        assert index.wires_at(Point(0, 60)) == {0, 1}
        assert index.wires_at(Point(30, 70)) == {0}
        # A new wire appended to the page is filed with no old points.
        page_wires.append(Wire([Point(50, -10), Point(50, 10)]))
        index.update(2, [])
        assert index.wires_at(Point(50, 0)) == {2}

    def test_non_manhattan_geometry_is_rejected(self):
        wire = Wire([Point(0, 0), Point(10, 0)])
        wire.points = [Point(0, 0), Point(10, 10)]
        with pytest.raises(ValueError, match="not Manhattan"):
            PageIndex([wire])


class TestDifferential:
    """The indexed scans against the quadratic oracles."""

    @SETTINGS
    @given(cell=schematics())
    def test_extract_matches_the_pairwise_oracle(self, cell):
        for dialect in (VIEWDRAW_LIKE, COMPOSER_LIKE):
            _assert_same_netlist(extract(cell, dialect), oracles.extract(cell, dialect))

    @SETTINGS
    @given(cell=schematics())
    def test_floating_ends_match_the_pairwise_oracle(self, cell):
        for page in cell.pages:
            assert find_floating_ends(page) == oracles.find_floating_ends(page)

    @SETTINGS
    @given(
        cell=schematics(),
        offset=st.builds(Point, st.sampled_from([-STEP, 0, STEP]), st.sampled_from([-STEP, 0, STEP])),
        rotation=st.sampled_from([Orientation.R0, Orientation.R90, Orientation.MY]),
        strategy=st.sampled_from(["minimal", "naive"]),
    )
    def test_replacement_matches_the_all_wires_oracle(self, cell, offset, rotation, strategy):
        """Replace every component of page 1 in turn, sharing one index."""
        mapping = SymbolMapping(
            source=SymbolKey("lib", "buf"), target=SymbolKey("lib", "buf2"),
            origin_offset=offset, rotation=rotation,
            pin_map={"A": "IN", "M": "MID", "Y": "OUT"},
        )
        got_cell, want_cell = copy_schematic(cell), copy_schematic(cell)
        got_page, want_page = got_cell.pages[0], want_cell.pages[0]
        names = [i.name for i in got_page.instances if i.symbol is COMPONENT]
        got_log, want_log = IssueLog(), IssueLog()
        index = PageIndex(got_page.wires)

        def outcome(replace, page, log, **kwargs):
            try:
                return [replace(page, name, mapping, REPLACEMENT, log, strategy, **kwargs)
                        for name in names]
            except RipupError as exc:
                return str(exc)

        got = outcome(replace_component, got_page, got_log, index=index)
        want = outcome(oracles.replace_component, want_page, want_log)
        assert got == want
        assert got_log.issues == want_log.issues
        assert [w.points for w in got_page.wires] == [w.points for w in want_page.wires]
        assert [(i.name, i.symbol.name, i.transform) for i in got_page.instances] == [
            (i.name, i.symbol.name, i.transform) for i in want_page.instances
        ]
        if not isinstance(got, str):
            # The shared index still describes the rewritten page.
            fresh = PageIndex(got_page.wires)
            for x in range(-2, 9):
                for y in range(-2, 9):
                    point = Point(x * STEP, y * STEP)
                    assert index.wires_at(point) == fresh.wires_at(point)

    def test_crossing_is_not_a_connection_but_a_tee_is(self):
        cell = Schematic("x", VIEWDRAW_LIKE.name)
        page = cell.add_page(Rect(0, 0, 600, 600))
        page.add_wire(Wire([Point(0, 100), Point(200, 100)], label="H"))
        page.add_wire(Wire([Point(100, 0), Point(100, 200)], label="V"))   # plus-crossing
        page.add_wire(Wire([Point(200, 100), Point(200, 300)], label="T"))  # corner on H's end
        page.add_wire(Wire([Point(0, 300), Point(400, 300)]))              # T's end on its middle
        netlist = extract(cell)
        _assert_same_netlist(netlist, oracles.extract(cell))
        assert {frozenset(net.labels) for net in netlist.nets.values()} == {
            frozenset({"H", "T"}), frozenset({"V"}),
        }
