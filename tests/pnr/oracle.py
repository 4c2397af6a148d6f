"""Reference router and placer: the oracles the production P&R is checked against.

:class:`ReferenceRouter` and :class:`ReferencePlacer` are the grid router
and row placer as they were before their inner loops were tuned.  The
router asks ``_neighbors`` for a fresh list at every expansion and probes
``MAX_MARGIN`` tracks on each side of every candidate node in ``_usable``;
the placer re-derives every pin through a ``Transform`` and scans every
net of the design for each candidate swap.  They are slow and obviously
correct.  The differential test (``test_pnr_differential.py``) requires
the production :class:`~cadinterop.pnr.routing.GridRouter` and
:class:`~cadinterop.pnr.placement.RowPlacer` to match them in every
instance location, placement result, routed node, via count, failed net,
shield node and occupancy entry.  E20 measures the production flow's
speed against them.

Neither class inherits from the production code; they share only the
design model (pin positions come from ``PnRInstance.pin_position``), the
result containers and :func:`~cadinterop.pnr.placement.hpwl`.
"""

from __future__ import annotations

import heapq
import random
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from cadinterop.common.geometry import Point, Rect
from cadinterop.pnr import backplane
from cadinterop.pnr.design import PnRDesign, PnRInstance, Terminal
from cadinterop.pnr.floorplan import Floorplan, GlobalNetStrategy, NetRule
from cadinterop.pnr.placement import PlacementResult, hpwl
from cadinterop.pnr.routing import SHIELD, Node, RoutedNet, RoutingResult
from cadinterop.pnr.tech import Technology


class ReferenceRouter:
    """Routes a placed design over a floorplan with per-net rules."""

    def __init__(
        self,
        tech: Technology,
        floorplan: Floorplan,
        pad_positions: Optional[Dict[str, Point]] = None,
    ) -> None:
        self.tech = tech
        self.floorplan = floorplan
        self.pads = pad_positions or {}
        die = floorplan.die
        self.cols = max(1, die.width // tech.pitch)
        self.rows = max(1, die.height // tech.pitch)
        self.layers = {layer.name: layer for layer in tech.routing_layers()}
        self.occupancy: Dict[Node, str] = {}
        #: clearance (in tracks) each routed net demands around its wires
        self._net_margin: Dict[str, int] = {}
        self._blocked: Set[Node] = set()
        for keepout in floorplan.keepouts:
            for layer_name in keepout.layers:
                if layer_name in self.layers:
                    self._block_rect(layer_name, keepout.rect)

    # -- grid helpers -------------------------------------------------------

    def _block_rect(self, layer_name: str, rect: Rect) -> None:
        die = self.floorplan.die
        x1 = max(0, (rect.x1 - die.x1) // self.tech.pitch)
        x2 = min(self.cols - 1, (rect.x2 - die.x1) // self.tech.pitch)
        y1 = max(0, (rect.y1 - die.y1) // self.tech.pitch)
        y2 = min(self.rows - 1, (rect.y2 - die.y1) // self.tech.pitch)
        for ix in range(x1, x2 + 1):
            for iy in range(y1, y2 + 1):
                self._blocked.add((layer_name, ix, iy))

    def snap(self, point: Point) -> Tuple[int, int]:
        die = self.floorplan.die
        ix = min(self.cols - 1, max(0, (point.x - die.x1) // self.tech.pitch))
        iy = min(self.rows - 1, max(0, (point.y - die.y1) // self.tech.pitch))
        return (ix, iy)

    def _neighbors(self, node: Node) -> List[Tuple[Node, int]]:
        layer_name, ix, iy = node
        layer = self.layers[layer_name]
        result: List[Tuple[Node, int]] = []
        if layer.direction == "horizontal":
            steps = ((ix - 1, iy), (ix + 1, iy))
        else:
            steps = ((ix, iy - 1), (ix, iy + 1))
        for nx, ny in steps:
            if 0 <= nx < self.cols and 0 <= ny < self.rows:
                result.append(((layer_name, nx, ny), 1))
        # Via to the other layers at the same (x, y); cost 2.
        for other in self.layers.values():
            if other.name != layer_name:
                result.append(((other.name, ix, iy), 2))
        return result

    #: farthest clearance any rule can demand (bounds the probe loop)
    MAX_MARGIN = 4

    def _usable(self, node: Node, net: str, margin: int) -> bool:
        if node in self._blocked:
            return False
        owner = self.occupancy.get(node)
        if owner is not None and owner != net:
            return False
        layer_name, ix, iy = node
        layer = self.layers[layer_name]
        # Clearance is symmetric: respect both this net's margin and the
        # margin any already-routed neighbor demanded for itself.
        for d in range(1, self.MAX_MARGIN + 1):
            if layer.direction == "horizontal":
                around = ((layer_name, ix, iy - d), (layer_name, ix, iy + d))
            else:
                around = ((layer_name, ix - d, iy), (layer_name, ix + d, iy))
            for neighbor in around:
                neighbor_owner = self.occupancy.get(neighbor)
                if neighbor_owner is None or neighbor_owner == net:
                    continue
                required = max(margin, self._net_margin.get(neighbor_owner, 0))
                if d <= required:
                    return False
        return True

    # -- routing --------------------------------------------------------------

    def _terminal_nodes(self, design: PnRDesign, terminal: Terminal) -> List[Node]:
        kind, name, pin = terminal
        if kind == "inst":
            position = design.instance(name).pin_position(pin)
        else:
            if name not in self.pads:
                raise KeyError(f"no pad position for {name!r}")
            position = self.pads[name]
        ix, iy = self.snap(position)
        return [(layer.name, ix, iy) for layer in self.layers.values()]

    def route_net(
        self,
        design: PnRDesign,
        net: str,
        rule: Optional[NetRule] = None,
    ) -> Optional[RoutedNet]:
        """Route one net; returns None on failure (occupancy untouched)."""
        rule = rule or self.floorplan.net_rules.get(net) or NetRule(net)
        margin = (rule.width_tracks - 1) + (rule.spacing_tracks - 1)
        terminals = design.nets[net]
        if len(terminals) < 2:
            routed = RoutedNet(net, rule=rule)
            return routed

        routed_nodes: Set[Node] = set()
        vias = 0
        # Connect each terminal to the growing tree.
        tree: Set[Node] = set(self._terminal_nodes(design, terminals[0]))
        for terminal in terminals[1:]:
            targets = set(self._terminal_nodes(design, terminal))
            path = self._astar(tree | routed_nodes, targets, net, margin)
            if path is None:
                return None
            for index, node in enumerate(path):
                routed_nodes.add(node)
                if index > 0 and path[index - 1][0] != node[0]:
                    vias += 1
            tree |= targets

        result = RoutedNet(net, nodes=routed_nodes, vias=vias, rule=rule)
        for node in routed_nodes:
            self.occupancy[node] = net
        self._net_margin[net] = margin
        return result

    def _astar(
        self,
        sources: Set[Node],
        targets: Set[Node],
        net: str,
        margin: int,
    ) -> Optional[List[Node]]:
        target_xy = {(x, y) for _l, x, y in targets}

        def heuristic(node: Node) -> int:
            _l, x, y = node
            return min(abs(x - tx) + abs(y - ty) for tx, ty in target_xy)

        open_heap: List[Tuple[int, int, Node]] = []
        best: Dict[Node, int] = {}
        parent: Dict[Node, Optional[Node]] = {}
        counter = 0
        for source in sorted(sources):
            # Sources are admitted on hard occupancy only: a pin that sits
            # inside another net's clearance zone must still be escapable
            # (typically via the other layer).
            if source in self._blocked:
                continue
            if self.occupancy.get(source, net) != net:
                continue
            best[source] = 0
            parent[source] = None
            heapq.heappush(open_heap, (heuristic(source), counter, source))
            counter += 1

        while open_heap:
            _f, _c, node = heapq.heappop(open_heap)
            cost = best[node]
            if node in targets:
                path: List[Node] = []
                current: Optional[Node] = node
                while current is not None:
                    path.append(current)
                    current = parent[current]
                return list(reversed(path))
            for neighbor, step in self._neighbors(node):
                # Terminals are always enterable by their own net; margin
                # applies to the routing fabric in between.
                if neighbor not in targets and not self._usable(neighbor, net, margin):
                    continue
                if neighbor in targets and self.occupancy.get(neighbor, net) != net:
                    continue
                new_cost = cost + step
                if new_cost < best.get(neighbor, 1 << 30):
                    best[neighbor] = new_cost
                    parent[neighbor] = node
                    heapq.heappush(
                        open_heap, (new_cost + heuristic(neighbor), counter, neighbor)
                    )
                    counter += 1
        return None

    def add_shields(self, routed: RoutedNet) -> int:
        """Lay grounded shield tracks alongside a shielded net's wires."""
        added = 0
        for layer_name, ix, iy in routed.nodes:
            layer = self.layers[layer_name]
            for offset in (-1, 1):
                if layer.direction == "horizontal":
                    node = (layer_name, ix, iy + offset)
                else:
                    node = (layer_name, ix + offset, iy)
                _l, nx, ny = node
                if not (0 <= nx < self.cols and 0 <= ny < self.rows):
                    continue
                if node in self._blocked or node in self.occupancy:
                    continue
                self.occupancy[node] = SHIELD
                added += 1
        return added

    def realize_strategy(self, strategy: "GlobalNetStrategy", inset_tracks: int = 1) -> RoutedNet:
        """Generate the geometry of a global-net routing strategy.

        The paper's floorplanner "defines the general routing strategies
        for global signals such as power, ground and clock"; this realizes
        them on the grid:

        * ``ring`` — a rectangular loop ``inset_tracks`` inside the die
          boundary on the strategy's layer;
        * ``trunk`` — a horizontal band across the die's vertical middle;
        * ``spine`` — a vertical band down the die's horizontal middle.

        ``strategy.width`` is taken in routing tracks.  A shielded
        strategy gets grounded shield tracks alongside.  Occupied nodes
        belong to the strategy's net; call before signal routing so
        signals detour around the global structures, as real flows do.
        """
        nodes: Set[Node] = set()
        width = max(1, strategy.width)
        layer = self.layers.get(strategy.layer)
        if layer is None:
            raise KeyError(f"strategy layer {strategy.layer!r} not in technology")

        def claim(node: Node) -> None:
            _l, ix, iy = node
            if 0 <= ix < self.cols and 0 <= iy < self.rows:
                if node not in self._blocked and self.occupancy.get(node, strategy.net) == strategy.net:
                    nodes.add(node)

        if strategy.style == "ring":
            for offset in range(width):
                low = inset_tracks + offset
                high_col = self.cols - 1 - inset_tracks - offset
                high_row = self.rows - 1 - inset_tracks - offset
                for ix in range(low, high_col + 1):
                    claim((strategy.layer, ix, low))
                    claim((strategy.layer, ix, high_row))
                for iy in range(low, high_row + 1):
                    claim((strategy.layer, low, iy))
                    claim((strategy.layer, high_col, iy))
        elif strategy.style == "trunk":
            middle = self.rows // 2
            for offset in range(width):
                for ix in range(self.cols):
                    claim((strategy.layer, ix, middle + offset))
        else:  # spine
            middle = self.cols // 2
            for offset in range(width):
                for iy in range(self.rows):
                    claim((strategy.layer, middle + offset, iy))

        routed = RoutedNet(strategy.net, nodes=nodes, rule=NetRule(strategy.net))
        for node in nodes:
            self.occupancy[node] = strategy.net
        self._net_margin[strategy.net] = 0
        if strategy.shielded:
            self.add_shields(routed)
        return routed

    def route_design(
        self,
        design: PnRDesign,
        honor_rules: bool = True,
        honored_features: Optional[Set[str]] = None,
    ) -> RoutingResult:
        """Route every net, optionally degrading the rule vocabulary.

        ``honored_features`` (when ``honor_rules``) restricts which rule
        fields apply — e.g. a dialect that supports width but not spacing
        passes ``{"width"}``.  This is the backplane's degradation hook.
        """
        result = RoutingResult()
        features = honored_features if honored_features is not None else {
            "width", "spacing", "shield",
        }
        # Reserve every net's primary terminal node (the pin's own layer)
        # up front so no other net can route across a pin it does not own.
        # Upper-layer nodes above a pin stay free — crossing over a foreign
        # pin on another layer is legal.
        for net, terminals in design.nets.items():
            for terminal in terminals:
                node = self._terminal_nodes(design, terminal)[0]
                if self.occupancy.get(node, net) == net:
                    self.occupancy[node] = net
        # Route rule-carrying nets first (they need the room).
        ordered = sorted(
            design.nets,
            key=lambda n: (self.floorplan.net_rules.get(n) is None, n),
        )
        for net in ordered:
            rule = self.floorplan.net_rules.get(net) or NetRule(net)
            if not honor_rules:
                effective = NetRule(net)
            else:
                effective = NetRule(
                    net,
                    width_tracks=rule.width_tracks if "width" in features else 1,
                    spacing_tracks=rule.spacing_tracks if "spacing" in features else 1,
                    shield=rule.shield and "shield" in features,
                )
            routed = self.route_net(design, net, effective)
            if routed is None:
                result.failed.append(net)
                continue
            result.routed[net] = routed
            if effective.shield:
                result.shield_nodes += self.add_shields(routed)
        return result


class ReferencePlacer:
    """Legalize-and-improve placement into floorplan rows."""

    def __init__(
        self,
        tech: Technology,
        floorplan: Floorplan,
        site_name: str = "core",
        seed: int = 1,
    ) -> None:
        self.tech = tech
        self.floorplan = floorplan
        self.site = tech.sites[site_name]
        self.rng = random.Random(seed)

    def _slot_blocked(self, rect: Rect) -> bool:
        for keepout in self.floorplan.keepouts:
            if not keepout.layers and keepout.rect.intersects(rect):
                return True
        for block in self.floorplan.blocks.values():
            if block.location is not None and block.outline().intersects(rect):
                return True
        return False

    def _build_slots(self, widths: Sequence[int]) -> List[List[Point]]:
        """Slot origins per row, wide enough for the widest cell."""
        die = self.floorplan.die
        slot_width = max(widths) if widths else self.site.width
        # Round up to a whole number of sites.
        sites_per_slot = -(-slot_width // self.site.width)
        slot_width = sites_per_slot * self.site.width
        rows: List[List[Point]] = []
        y = die.y1
        while y + self.site.height <= die.y2:
            row: List[Point] = []
            x = die.x1
            while x + slot_width <= die.x2:
                rect = Rect(x, y, x + slot_width, y + self.site.height)
                if not self._slot_blocked(rect):
                    row.append(Point(x, y))
                x += slot_width
            rows.append(row)
            y += self.site.height
        return rows

    def place(
        self,
        design: PnRDesign,
        pad_positions: Optional[Dict[str, Point]] = None,
        swap_passes: int = 2,
    ) -> PlacementResult:
        movable = [
            instance
            for instance in design.instances.values()
            if not instance.placed and instance.cell.kind == "stdcell"
        ]
        rows = self._build_slots([i.cell.width for i in movable])
        slots = [point for row in rows for point in row]
        if len(slots) < len(movable):
            raise ValueError(
                f"floorplan has {len(slots)} slots for {len(movable)} cells"
            )

        # Initial placement: deterministic shuffle then assignment.
        order = list(movable)
        self.rng.shuffle(order)
        for instance, slot in zip(order, slots):
            instance.location = slot

        # Greedy improvement: swap pairs if HPWL improves.
        improvements = 0
        for _ in range(swap_passes):
            improved = False
            for i in range(len(order)):
                for j in range(i + 1, min(i + 8, len(order))):
                    a, b = order[i], order[j]
                    before = self._local_hpwl(design, [a, b], pad_positions)
                    a.location, b.location = b.location, a.location
                    after = self._local_hpwl(design, [a, b], pad_positions)
                    if after < before:
                        improvements += 1
                        improved = True
                    else:
                        a.location, b.location = b.location, a.location
            if not improved:
                break

        rows_used = len({instance.location.y for instance in movable}) if movable else 0
        return PlacementResult(
            placed=len(movable),
            hpwl=hpwl(design, pad_positions),
            rows_used=rows_used,
            swap_improvements=improvements,
        )

    def _local_hpwl(
        self,
        design: PnRDesign,
        instances: Sequence[PnRInstance],
        pad_positions: Optional[Dict[str, Point]],
    ) -> int:
        """HPWL over only the nets touching ``instances`` (cheap delta)."""
        names = {instance.name for instance in instances}
        pads = pad_positions or {}
        total = 0
        seen: Set[str] = set()
        for net, terminals in design.nets.items():
            if net in seen:
                continue
            if not any(k == "inst" and i in names for k, i, _p in terminals):
                continue
            seen.add(net)
            points: List[Point] = []
            for kind, name, pin in terminals:
                if kind == "inst":
                    instance = design.instance(name)
                    if instance.placed:
                        points.append(instance.pin_position(pin))
                elif name in pads:
                    points.append(pads[name])
            if len(points) >= 2:
                box = Rect.bounding(points)
                total += box.width + box.height
        return total


@contextmanager
def reference_backplane() -> Iterator[None]:
    """Run :func:`~cadinterop.pnr.backplane.run_flow` on the reference pair.

    ``run_flow`` looks ``RowPlacer`` and ``GridRouter`` up in its own module,
    so swapping those two names for the duration makes every flow inside the
    block place and route with the oracles.
    """
    saved = backplane.RowPlacer, backplane.GridRouter
    backplane.RowPlacer, backplane.GridRouter = ReferencePlacer, ReferenceRouter
    try:
        yield
    finally:
        backplane.RowPlacer, backplane.GridRouter = saved
