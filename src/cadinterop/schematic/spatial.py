"""A per-page spatial index over wire segments.

Schematic wires are Manhattan polylines, so two wires touch exactly when a
vertex of one lies on a segment of the other, and a pin connects to a wire
exactly when its location lies on one of the wire's segments.  Both
questions reduce to one query, "which wires have a segment through this
point?", which :class:`PageIndex` answers by hashing each segment under the
line it lies on (its ``y`` for horizontal segments, its ``x`` for vertical
ones) and the ``TILE``-unit stretches of that line it covers.  A query then
looks at two small buckets instead of every wire on the page, which is
what keeps netlist extraction, rip-up and connector synthesis near-linear
in the page size.

A wire with no segment (all vertices equal) lies on no line, so it is in
no bucket and touches nothing, as before.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Sequence, Set, Tuple

from cadinterop.common.geometry import Point
from cadinterop.schematic.model import Wire

#: Database units of one hash bucket along a segment's axis.  A segment is
#: filed under every tile it overlaps, so long wires cost a few entries and
#: a long row of short wires never shares one bucket.
TILE = 256

_Key = Tuple[int, int]  # (line coordinate, tile along the line)
_Entry = Tuple[int, int, int]  # (low end, high end, wire index)


def _entries(points: Sequence[Point], wire_index: int) -> Iterator[Tuple[bool, _Key, _Entry]]:
    """Yield ``(horizontal, key, entry)`` for every segment of a polyline."""
    for a, b in zip(points, points[1:]):
        if a == b:
            continue
        if a.y == b.y:
            horizontal, line, lo, hi = True, a.y, min(a.x, b.x), max(a.x, b.x)
        elif a.x == b.x:
            horizontal, line, lo, hi = False, a.x, min(a.y, b.y), max(a.y, b.y)
        else:
            raise ValueError(f"segment {a}->{b} is not Manhattan")
        for tile in range(lo // TILE, hi // TILE + 1):
            yield horizontal, (line, tile), (lo, hi, wire_index)


class PageIndex:
    """Wire segments of one page, hashed by the line and tile they lie on.

    The index refers to wires by their position in ``wires`` (a page's
    ``wires`` list).  Whoever rewrites a wire's points calls
    :meth:`update` with the points it had before.
    """

    def __init__(self, wires: List[Wire]) -> None:
        self._wires = wires
        self._rows: Dict[_Key, List[_Entry]] = {}
        self._cols: Dict[_Key, List[_Entry]] = {}
        for index, wire in enumerate(wires):
            self._file(index, wire.points)

    def wires_at(self, point: Point) -> Set[int]:
        """Indices of the wires with a segment containing ``point``."""
        x, y = point.x, point.y
        found = {
            index for lo, hi, index in self._rows.get((y, x // TILE), ()) if lo <= x <= hi
        }
        found.update(
            index for lo, hi, index in self._cols.get((x, y // TILE), ()) if lo <= y <= hi
        )
        return found

    def update(self, wire_index: int, old_points: Sequence[Point]) -> None:
        """Re-file wire ``wire_index`` after its points changed from ``old_points``."""
        for horizontal, key, entry in _entries(old_points, wire_index):
            (self._rows if horizontal else self._cols)[key].remove(entry)
        self._file(wire_index, self._wires[wire_index].points)

    def _file(self, wire_index: int, points: Sequence[Point]) -> None:
        for horizontal, key, entry in _entries(points, wire_index):
            (self._rows if horizontal else self._cols).setdefault(key, []).append(entry)
