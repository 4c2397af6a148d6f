"""Per-stage wall-time accounting for batch migration runs.

The migration pipeline emits one :class:`~cadinterop.schematic.migrate.StageSample`
per stage per design; the profiler aggregates them (plus the farm's own
bookkeeping stages: digesting, cache lookups, result collection) cheaply
enough to leave on for every run.

Since the observability PR, :class:`StageProfiler` is a *view* over a
:class:`~cadinterop.obs.metrics.MetricsRegistry`: every ``record`` call
feeds a latency histogram (``stage.seconds[<stage>]``) and two counters
(``stage.items[...]``, ``stage.calls[...]``), so the same numbers that
drive :meth:`table` travel in metrics snapshots, merge across workers and
runs, and land in exported trace files.  :class:`StageStats` keeps the
pre-obs (seconds, items, calls) shape for every existing consumer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from cadinterop.obs.metrics import MetricsRegistry
from cadinterop.schematic.migrate import StageSample

_SECONDS = "stage.seconds[{}]"
_ITEMS = "stage.items[{}]"


@dataclass
class StageStats:
    """Aggregate of every sample recorded for one stage."""

    seconds: float = 0.0
    items: int = 0
    calls: int = 0

    def add(self, seconds: float, items: int = 0) -> None:
        self.seconds += seconds
        self.items += items
        self.calls += 1


class StageProfiler:
    """Accumulates stage samples; mergeable across workers and runs.

    ``registry`` is the backing metrics registry; by default each profiler
    owns a private one, but the farm hands in its per-run registry so the
    stage histograms ride along in :attr:`FarmReport.metrics`.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._stage_names: List[str] = []

    def record(self, stage: str, seconds: float, items: int = 0) -> None:
        if stage not in self._stage_names:
            self._stage_names.append(stage)
        self.registry.histogram(_SECONDS.format(stage)).observe(seconds)
        if items:
            self.registry.counter(_ITEMS.format(stage)).inc(items)

    def record_samples(self, samples: Iterable[StageSample]) -> None:
        for sample in samples:
            self.record(sample.stage, sample.seconds, sample.items)

    def merge(self, other: "StageProfiler") -> None:
        for stage in other._stage_names:
            if stage not in self._stage_names:
                self._stage_names.append(stage)
        self.registry.merge(other.registry.snapshot())

    @property
    def stages(self) -> Dict[str, StageStats]:
        """The classic stage -> (seconds, items, calls) view."""
        view: Dict[str, StageStats] = {}
        for stage in self._stage_names:
            histogram = self.registry.histogram(_SECONDS.format(stage))
            view[stage] = StageStats(
                seconds=histogram.sum,
                items=self.registry.counter(_ITEMS.format(stage)).value,
                calls=histogram.count,
            )
        return view

    @property
    def total_seconds(self) -> float:
        return sum(stats.seconds for stats in self.stages.values())

    def table(self) -> str:
        """Human-readable stage table, slowest first."""
        lines: List[str] = [
            f"{'stage':14} {'wall ms':>9} {'items':>8} {'calls':>6}  share"
        ]
        stages = self.stages
        total = sum(stats.seconds for stats in stages.values()) or 1.0
        ordered = sorted(stages.items(), key=lambda kv: -kv[1].seconds)
        for stage, stats in ordered:
            lines.append(
                f"{stage:14} {stats.seconds * 1e3:9.2f} {stats.items:8d} "
                f"{stats.calls:6d}  {stats.seconds / total:5.1%}"
            )
        return "\n".join(lines)
