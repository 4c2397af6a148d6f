"""Quadratic reference implementations of the schematic geometry scans.

These are the pairwise-scan versions of netlist extraction, floating-end
detection and component replacement that :mod:`cadinterop.schematic.spatial`
replaced: every wire is compared with every other wire and every pin with
every wire.  They are slow and obviously correct, and serve only as
oracles for the differential tests of the indexed implementations.
"""

from typing import Dict, List, Optional, Set, Tuple

from cadinterop.common.diagnostics import Category, IssueLog, Severity
from cadinterop.common.geometry import Point, Transform
from cadinterop.schematic.connectors import FloatingEnd
from cadinterop.schematic.dialects import Dialect, get_dialect
from cadinterop.schematic.model import Instance, Page, Schematic, Symbol, Wire
from cadinterop.schematic.netlist import Net, Netlist, Terminal, _UnionFind
from cadinterop.schematic.ripup import (
    ReplacementStats,
    RipupError,
    _minimal_reroute,
    _naive_reroute,
)
from cadinterop.schematic.symbolmap import SymbolMapping


def extract(schematic: Schematic, dialect: Optional[Dialect] = None) -> Netlist:
    """Extract the netlist of one schematic cell.

    ``dialect`` defaults to the schematic's own dialect and controls the
    cross-page discipline and connector-symbol recognition.
    """
    active = dialect or get_dialect(schematic.dialect)
    netlist = Netlist(schematic.name)
    uf = _UnionFind()

    # node keys: ("wire", page#, index) and ("pt", page#, x, y)
    wire_nodes: Dict[Tuple[int, int], Wire] = {}

    for page in schematic.pages:
        for index, wire in enumerate(page.wires):
            key = ("wire", page.number, index)
            uf.add(key)
            wire_nodes[(page.number, index)] = wire
        # Merge wires that touch geometrically.
        for i in range(len(page.wires)):
            for j in range(i + 1, len(page.wires)):
                if _wires_touch(page.wires[i], page.wires[j]):
                    uf.union(("wire", page.number, i), ("wire", page.number, j))

    # Attach instance pins to wires passing through their location; pins at
    # identical locations connect by abutment even with no wire.
    pin_terminals: Dict[Tuple[int, Point], List[Tuple[Terminal, Instance]]] = {}
    for page in schematic.pages:
        for instance in page.instances:
            for pin_name, position in instance.pin_positions().items():
                terminal = (instance.name, pin_name)
                point_key = ("pt", page.number, position.x, position.y)
                uf.add(point_key)
                pin_terminals.setdefault((page.number, position), []).append((terminal, instance))
                for index, wire in enumerate(page.wires):
                    if _touches_point(wire, position):
                        uf.union(point_key, ("wire", page.number, index))

    groups = uf.groups()

    # Build provisional nets from connected groups.
    provisional: List[Net] = []
    for members in groups.values():
        net = Net(name="")
        for member in members:
            kind = member[0]
            if kind == "wire":
                _, page_number, index = member
                wire = wire_nodes[(page_number, index)]
                net.pages.add(page_number)
                net.wire_length += wire.length()
                if wire.label:
                    net.labels.add(wire.label)
            else:
                _, page_number, x, y = member
                for terminal, _instance in pin_terminals.get((page_number, Point(x, y)), []):
                    net.terminals.add(terminal)
                net.pages.add(page_number)
        if net.terminals or net.labels or net.wire_length:
            provisional.append(net)

    # Handle connector instances: their single pin joins the net at its
    # location (already done geometrically); the *meaning* differs by kind.
    global_binding: Dict[int, str] = {}  # provisional index -> global net name
    offpage_binding: Dict[int, str] = {}
    hier_binding: Dict[int, str] = {}

    def provisional_index_of(terminal: Terminal) -> Optional[int]:
        for idx, net in enumerate(provisional):
            if terminal in net.terminals:
                return idx
        return None

    for page in schematic.pages:
        for instance in page.instances:
            kind = instance.symbol.kind
            if kind == "component":
                continue
            signal = str(
                instance.properties.get("signal")
                or instance.properties.get("net")
                or instance.symbol.name
            )
            for pin_name in instance.symbol.pin_names():
                idx = provisional_index_of((instance.name, pin_name))
                if idx is None:
                    netlist.log.add(
                        Severity.WARNING, Category.CONNECTIVITY, instance.name,
                        f"{kind} connector pin {pin_name!r} is not attached to anything",
                    )
                    continue
                if kind == "global":
                    global_binding[idx] = signal
                elif kind == "offpage_connector":
                    offpage_binding[idx] = signal
                elif kind == "hier_connector":
                    hier_binding[idx] = signal

    # Merge nets by binding name: globals always; off-page connectors in
    # explicit dialects; same-label nets across pages in implicit dialects.
    merge_uf = _UnionFind()
    for idx in range(len(provisional)):
        merge_uf.add(idx)

    def merge_by(binding: Dict[int, str]) -> None:
        by_name: Dict[str, int] = {}
        for idx, name in binding.items():
            if name in by_name:
                merge_uf.union(by_name[name], idx)
            else:
                by_name[name] = idx

    merge_by(global_binding)
    merge_by(offpage_binding)

    if active.implicit_cross_page_by_name:
        by_label: Dict[str, int] = {}
        for idx, net in enumerate(provisional):
            for label in net.labels:
                if label in by_label:
                    merge_uf.union(by_label[label], idx)
                else:
                    by_label[label] = idx

    # Hierarchy connectors bind a net to a schematic port name.
    port_names = {port.name for port in schematic.ports}

    merged: Dict[object, Net] = {}
    for idx, net in enumerate(provisional):
        root = merge_uf.find(idx)
        if root not in merged:
            merged[root] = Net(name="")
        target = merged[root]
        target.terminals |= net.terminals
        target.labels |= net.labels
        target.pages |= net.pages
        target.wire_length += net.wire_length
        if idx in global_binding:
            target.is_global = True
            target.labels.add(global_binding[idx])
        if idx in offpage_binding:
            target.labels.add(offpage_binding[idx])
        if idx in hier_binding:
            target.labels.add(hier_binding[idx])

    # Name nets: prefer a label bound to a port, then any label, else synthesize.
    counter = 0
    used_names: Set[str] = set()
    for net in merged.values():
        port_labels = sorted(net.labels & port_names)
        other_labels = sorted(net.labels - port_names)
        if port_labels:
            name = port_labels[0]
        elif other_labels:
            name = other_labels[0]
        else:
            counter += 1
            name = f"unnamed${counter}"
        if name in used_names:
            netlist.log.add(
                Severity.ERROR, Category.CONNECTIVITY, name,
                "two disjoint nets carry the same name after extraction",
                remedy="expected a single net; check off-page connector usage",
            )
            suffix = 2
            while f"{name}${suffix}" in used_names:
                suffix += 1
            name = f"{name}${suffix}"
        used_names.add(name)
        net.name = name
        netlist.add_net(net)
        if len(net.labels) > 1 and not net.is_global:
            netlist.log.add(
                Severity.WARNING, Category.CONNECTIVITY, net.name,
                f"net carries multiple labels {sorted(net.labels)}; shorted nets?",
            )

    # Implicit cross-page connection without labels cannot be resolved; in
    # explicit dialects an unlabeled multi-page net is impossible by
    # construction, but a same-name pair NOT joined by an off-page connector
    # deserves a diagnostic because the implicit dialect would have joined it.
    if not active.implicit_cross_page_by_name:
        label_pages: Dict[str, Set[int]] = {}
        for net in netlist.nets.values():
            for label in net.labels:
                label_pages.setdefault(label, set()).update(net.pages)
        seen: Dict[str, int] = {}
        for net in netlist.nets.values():
            for label in net.labels:
                seen[label] = seen.get(label, 0) + 1
        for label, count in seen.items():
            if count > 1:
                netlist.log.add(
                    Severity.ERROR, Category.CONNECTIVITY, label,
                    f"label appears on {count} disjoint nets; {active.name} does not "
                    "connect same-named nets implicitly",
                    remedy="insert off-page connectors to make the connection explicit",
                )

    return netlist


def _touches_point(wire: Wire, point: Point) -> bool:
    return any(seg.contains_point(point) for seg in wire.segments())


def _wires_touch(a: Wire, b: Wire) -> bool:
    for seg_a in a.segments():
        for seg_b in b.segments():
            if seg_a.touches(seg_b):
                return True
    return False


def find_floating_ends(page: Page) -> List[FloatingEnd]:
    """Locate all floating wire ends on a page."""
    pin_points: Set[Point] = set()
    for instance in page.instances:
        pin_points.update(instance.pin_positions().values())

    floating: List[FloatingEnd] = []
    for index, wire in enumerate(page.wires):
        for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1])):
            if point in pin_points:
                continue
            touched = False
            for other_index, other in enumerate(page.wires):
                if other_index == index:
                    continue
                if _touches_point(other, point):
                    touched = True
                    break
            if not touched:
                floating.append(FloatingEnd(page.number, index, end_index, point))
    return floating


def replace_component(
    page: Page,
    instance_name: str,
    mapping: SymbolMapping,
    target_symbol: Symbol,
    log: Optional[IssueLog] = None,
    strategy: str = "minimal",
) -> ReplacementStats:
    """Replace one instance on ``page``, visiting every wire of the page."""
    if strategy not in ("minimal", "naive"):
        raise ValueError(f"unknown strategy {strategy!r}")
    log = log if log is not None else IssueLog()
    old_instance = page.instance(instance_name)
    stats = ReplacementStats(instance=instance_name)

    correction = Transform(mapping.origin_offset, mapping.rotation)
    new_transform = correction.compose(old_instance.transform)
    new_instance = Instance(
        name=old_instance.name,
        symbol=target_symbol,
        transform=new_transform,
        properties=old_instance.properties.copy(),
    )

    old_positions = old_instance.pin_positions()
    new_positions = new_instance.pin_positions()
    pin_moves: Dict[Point, Point] = {}
    for old_pin, old_pos in old_positions.items():
        new_pin = mapping.map_pin(old_pin)
        if new_pin not in new_positions:
            raise RipupError(
                f"pin {old_pin!r} of {instance_name!r} has no target pin "
                f"{new_pin!r} on {target_symbol.full_name}"
            )
        new_pos = new_positions[new_pin]
        pin_moves[old_pos] = new_pos
        if old_pos == new_pos:
            stats.unmoved_pins += 1
        else:
            stats.moved_pins += 1

    page.remove_instance(instance_name)
    page.add_instance(new_instance)

    for wire_index, wire in enumerate(list(page.wires)):
        attached_ends = [
            (end_index, point)
            for end_index, point in ((0, wire.points[0]), (-1, wire.points[-1]))
            if point in pin_moves
        ]
        mid_attach = any(
            _touches_point(wire, old_pos) and old_pos not in wire.endpoints
            for old_pos in pin_moves
        )
        if mid_attach:
            log.add(
                Severity.WARNING, Category.CONNECTIVITY, instance_name,
                f"wire taps pin mid-segment; rerouting endpoint-attached wires only",
                remedy="verification will flag any broken connection",
            )
        if not attached_ends:
            continue

        if strategy == "naive":
            _naive_reroute(wire, attached_ends, pin_moves, stats)
        else:
            _minimal_reroute(wire, attached_ends, pin_moves, stats)

    return stats
