"""Differential test: production router and placer vs the reference oracle.

The production :class:`~cadinterop.pnr.routing.GridRouter` and
:class:`~cadinterop.pnr.placement.RowPlacer` cut the work per search step
and per candidate swap; they must still make exactly the same moves as
:class:`~tests.pnr.oracle.ReferenceRouter` and
:class:`~tests.pnr.oracle.ReferencePlacer`.  Hypothesis draws netlists from
``generate_design`` (varied sizes, seeds, instance orientations, a
pre-placed instance), placer seeds, floorplans with and without keepouts,
the global ring and spine realized or not, an extra net rule whose margin
reaches past the router's probe limit, and every way of honoring rules.
Each case runs on both pairs; instance locations, the placement result,
every routed net (nodes, vias, rule), the failed nets in order, shield
nodes and the final occupancy map must be equal.  Two router-only
properties add the E11 bus corridor under every rule subset and pad-to-pad
nets detouring around random routing keepouts, where equal-cost routes
make the order of the search visible.
"""

from itertools import combinations

from hypothesis import HealthCheck, example, given, settings, strategies as st

from cadinterop.common.geometry import Orientation, Point, Rect
from cadinterop.pnr.backplane import run_flow
from cadinterop.pnr.dialects import ALL_TOOLS
from cadinterop.pnr.design import PnRDesign, pad_terminal
from cadinterop.pnr.floorplan import Floorplan, Keepout, NetRule
from cadinterop.pnr.placement import RowPlacer
from cadinterop.pnr.routing import GridRouter
from cadinterop.pnr.samples import (
    build_bus_scenario,
    build_cell_library,
    build_floorplan,
    generate_design,
)
from cadinterop.pnr.tech import generic_two_layer_tech
from tests.pnr.oracle import ReferencePlacer, ReferenceRouter, reference_backplane

TECH = generic_two_layer_tech()
LIBRARY = build_cell_library()
RULE_FEATURES = ("width", "spacing", "shield")
#: ``None`` (every feature) plus each subset of the rule vocabulary.
FEATURE_SETS = (None,) + tuple(
    frozenset(subset)
    for size in range(len(RULE_FEATURES) + 1)
    for subset in combinations(RULE_FEATURES, size)
)
SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def flow_cases(draw):
    cells = draw(st.integers(3, 16))
    return {
        "cells": cells,
        "design_seed": draw(st.integers(0, 10_000)),
        "placer_seed": draw(st.integers(0, 10_000)),
        "orientations": draw(
            st.lists(st.sampled_from(list(Orientation)), min_size=cells, max_size=cells)
            | st.none()
        ),
        "preplaced": draw(st.booleans()),
        "keepouts": draw(st.booleans()),
        "strategies": draw(st.booleans()),
        # (chain net index, width, spacing, shield): margins up to 6 tracks,
        # past the router's 4-track probe limit.
        "extra_rule": draw(
            st.none()
            | st.tuples(
                st.integers(0, cells - 2), st.integers(1, 4), st.integers(1, 4), st.booleans()
            )
        ),
        "honor_rules": draw(st.booleans()),
        "features": draw(st.sampled_from(FEATURE_SETS)),
    }


def _inputs(case):
    """A fresh floorplan, design and pads for one case."""
    if case["keepouts"]:
        floorplan = build_floorplan()
    else:
        floorplan = Floorplan("bare", Rect(0, 0, 600, 600))
        floorplan.add_net_rule(NetRule("crit", width_tracks=2, spacing_tracks=2, shield=True))
    design, pads = generate_design(LIBRARY, cells=case["cells"], seed=case["design_seed"])
    if case["extra_rule"] is not None:
        index, width, spacing, shield = case["extra_rule"]
        floorplan.add_net_rule(NetRule(f"n{index}", width, spacing, shield))
    instances = list(design.instances.values())
    for instance, orientation in zip(instances, case["orientations"] or ()):
        instance.orientation = orientation
    if case["preplaced"]:
        instances[-1].location = Point(300, 420)
    return floorplan, design, pads


def _place_and_route(case, placer_cls, router_cls):
    floorplan, design, pads = _inputs(case)
    placement = placer_cls(TECH, floorplan, seed=case["placer_seed"]).place(design, pads)
    router = router_cls(TECH, floorplan, pads)
    global_nets = []
    if case["strategies"]:
        global_nets = [router.realize_strategy(s) for s in floorplan.strategies.values()]
    features = case["features"]
    routing = router.route_design(
        design,
        honor_rules=case["honor_rules"],
        honored_features=None if features is None else set(features),
    )
    return {
        "locations": {name: inst.location for name, inst in design.instances.items()},
        "placement": placement,
        "global_nets": global_nets,
        "routed": list(routing.routed.items()),
        "failed": routing.failed,
        "shield_nodes": routing.shield_nodes,
        "occupancy": router.occupancy,
    }


def _assert_same(reference, production):
    assert reference.keys() == production.keys()
    for key in reference:
        assert production[key] == reference[key], key


#: Eight cells, no global nets: net ``n2`` has no path and its search fails.
UNROUTABLE = {
    "cells": 8, "design_seed": 3, "placer_seed": 3, "orientations": None,
    "preplaced": False, "keepouts": True, "strategies": False, "extra_rule": None,
    "honor_rules": True, "features": None,
}


class TestRouterPlacerDifferential:
    @SETTINGS
    @given(flow_cases())
    @example(UNROUTABLE)
    @example(dict(UNROUTABLE, strategies=True, extra_rule=(4, 4, 3, True)))
    def test_generated_flows_match_oracle(self, case):
        _assert_same(
            _place_and_route(case, ReferencePlacer, ReferenceRouter),
            _place_and_route(case, RowPlacer, GridRouter),
        )

    def test_unroutable_net_fails_the_same_way(self):
        reference = _place_and_route(UNROUTABLE, ReferencePlacer, ReferenceRouter)
        production = _place_and_route(UNROUTABLE, RowPlacer, GridRouter)
        assert reference["failed"] == ["n2"]
        _assert_same(reference, production)

    @SETTINGS
    @given(
        victim_y=st.integers(20, 380),
        offsets=st.lists(st.integers(-15, 15).filter(bool), min_size=1, max_size=4, unique=True),
        honor_rules=st.booleans(),
        features=st.sampled_from(FEATURE_SETS),
    )
    # Aggressors exactly crit's margin (2 tracks) away on either side.
    @example(victim_y=200, offsets=[10, -10], honor_rules=True, features=None)
    def test_bus_corridor_matches_oracle(self, victim_y, offsets, honor_rules, features):
        results = []
        for router_cls in (ReferenceRouter, GridRouter):
            floorplan, design, pads = build_bus_scenario(
                victim_y=victim_y, aggressor_offsets=tuple(offsets)
            )
            router = router_cls(TECH, floorplan, pads)
            routing = router.route_design(
                design,
                honor_rules=honor_rules,
                honored_features=None if features is None else set(features),
            )
            results.append(
                (routing.routed, routing.failed, routing.shield_nodes, router.occupancy)
            )
        assert results[0] == results[1]

    @settings(SETTINGS, max_examples=100)
    @given(
        walls=st.lists(
            st.tuples(
                st.integers(0, 190), st.integers(0, 190), st.integers(5, 120),
                st.integers(0, 60), st.sampled_from((("M1",), ("M2",), ("M1", "M2"))),
            ),
            min_size=1, max_size=8,
        ),
        pads=st.lists(
            st.tuples(st.integers(0, 199), st.integers(0, 199)), min_size=2, max_size=8
        ),
        spacing=st.integers(1, 3),
    )
    # A wall across the line between two pads, centred on it: the ways round
    # its left and right ends (or its top and bottom) cost the same.
    @example(walls=[(60, 95, 80, 10, ("M1", "M2"))], pads=[(100, 10), (100, 190)], spacing=1)
    @example(walls=[(95, 60, 10, 80, ("M1", "M2"))], pads=[(10, 100), (190, 100)], spacing=1)
    # Found by a random search: here a via taken before a track step, not
    # after it, changes a route.
    @example(
        walls=[
            (44, 131, 88, 50, ("M2",)), (96, 150, 52, 59, ("M1",)),
            (40, 110, 19, 50, ("M1",)), (108, 97, 54, 4, ("M1", "M2")),
            (100, 39, 72, 11, ("M1",)), (177, 188, 62, 4, ("M1", "M2")),
            (49, 43, 53, 17, ("M1",)),
        ],
        pads=[(143, 139), (87, 85), (194, 158), (67, 176)],
        spacing=1,
    )
    def test_detours_around_obstacles_match_oracle(self, walls, pads, spacing):
        # Routing keepouts on one layer or both force detours.  Around an
        # obstacle the ways left and right, or through a via early or late,
        # often cost the same, and then only the order in which the search
        # expands neighbours decides which way is taken.
        results = []
        for router_cls in (ReferenceRouter, GridRouter):
            floorplan = Floorplan("walls", Rect(0, 0, 200, 200))
            for x, y, width, height, layers in walls:
                floorplan.add_keepout(Keepout(Rect(x, y, x + width, y + height), layers))
            floorplan.add_net_rule(NetRule("w0", spacing_tracks=spacing))
            design = PnRDesign("walls")
            positions = {}
            for index, (south, north) in enumerate(zip(pads[::2], pads[1::2])):
                design.add_net(f"w{index}", [pad_terminal(f"s{index}"), pad_terminal(f"n{index}")])
                positions[f"s{index}"] = Point(*south)
                positions[f"n{index}"] = Point(*north)
            router = router_cls(TECH, floorplan, positions)
            routing = router.route_design(design)
            results.append((routing.routed, routing.failed, router.occupancy))
        assert results[0] == results[1]

    def test_flows_under_every_tool_match_oracle(self):
        for tool in ALL_TOOLS:
            flows = []
            for oracle in (True, False):
                design, pads = generate_design(LIBRARY, cells=10, seed=5)
                if oracle:
                    with reference_backplane():
                        result = run_flow(TECH, build_floorplan(), LIBRARY, design, tool, pads)
                else:
                    result = run_flow(TECH, build_floorplan(), LIBRARY, design, tool, pads)
                flows.append((result.placement, result.routing, result.parasitics))
            assert flows[0] == flows[1], tool.name


class TestPinOffset:
    @given(
        orientation=st.sampled_from(list(Orientation)),
        x=st.integers(-1000, 1000),
        y=st.integers(-1000, 1000),
    )
    def test_offset_plus_location_is_pin_position(self, orientation, x, y):
        design, _pads = generate_design(LIBRARY, cells=3, seed=1)
        for instance in design.instances.values():
            instance.orientation = orientation
            instance.location = Point(x, y)
            for pin in instance.cell.pins:
                offset = instance.pin_offset(pin.name)
                assert offset.translated(x, y) == instance.pin_position(pin.name)
