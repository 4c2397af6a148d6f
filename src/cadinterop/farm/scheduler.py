"""The batch migration farm: fan a corpus out over workers, skip cached work.

The paper's consulting result was corpus-scale — whole schematic libraries
moved between vendor dialects.  :class:`MigrationFarm` takes a corpus of
schematic cells plus one :class:`~cadinterop.schematic.migrate.MigrationPlan`
and:

* serves unchanged designs from a content-addressed
  :class:`~cadinterop.farm.cache.ResultCache` (keyed on design digest, plan
  digest, and pipeline version), so re-running after editing one design
  re-migrates only that design;
* fans cache misses out across a ``concurrent.futures`` process pool
  (``jobs > 1``); each worker keeps one long-lived ``Migrator`` so symbol
  scaling amortizes across the designs it handles;
* aggregates the pipeline's per-stage timings plus its own bookkeeping
  stages (``farm:digest``, ``farm:cache-lookup``, ``farm:cache-store``)
  into a :class:`~cadinterop.farm.report.FarmReport`.

A design that fails to migrate is reported (``status="failed"`` with the
error text) without aborting the rest of the corpus.
"""

from __future__ import annotations

import concurrent.futures
import time
from typing import List, Optional, Sequence, Tuple, Union

from cadinterop.farm.cache import ResultCache, cache_key
from cadinterop.farm.profiler import StageProfiler
from cadinterop.farm.report import FarmItem, FarmReport
from cadinterop.obs.lineage import LossReport, enable_lineage, get_lineage
from cadinterop.obs.metrics import MetricsRegistry, get_metrics
from cadinterop.obs.trace import enable_tracing, get_tracer
from cadinterop.schematic.migrate import (
    MigrationPlan,
    MigrationResult,
    Migrator,
    plan_digest,
    schematic_digest,
)
from cadinterop.schematic.model import Schematic

#: A unit of work shipped to a worker: (corpus index, schematic).
_Task = Tuple[int, Schematic]
#: One migrated task: (corpus index, result or None, error or None, seconds
#: spent migrating measured where the migration ran).
_Migrated = Tuple[int, Optional[MigrationResult], Optional[str], float]
#: What an executor hands back per task: a :data:`_Migrated` plus the spans
#: and lineage records a process worker buffered for it — both empty when
#: the facility is off or the task ran inline, in the submitting process's
#: own collectors.
_Outcome = Tuple[int, Optional[MigrationResult], Optional[str], float, list, list]


def _migrate_one(migrator: Migrator, task: _Task) -> _Migrated:
    """Migrate one design; every executor runs each task through here."""
    index, schematic = task
    start = time.perf_counter()
    try:
        result, error = migrator.migrate(schematic), None
    except Exception as exc:  # a bad design must not kill the corpus
        result, error = None, f"{type(exc).__name__}: {exc}"
    return index, result, error, time.perf_counter() - start


# Per-process worker state for the process-pool executor.  Each worker
# builds one Migrator at pool start (plan arrives once via the initializer,
# not once per task) and reuses it for every design it is handed.
_WORKER_MIGRATOR: Optional[Migrator] = None


def _process_worker_init(
    plan: MigrationPlan,
    trace_id: Optional[str] = None,
    lineage: bool = False,
) -> None:
    global _WORKER_MIGRATOR
    _WORKER_MIGRATOR = Migrator(plan)
    if trace_id is not None:
        # Join the parent's trace: this worker's spans carry the same trace
        # id and are shipped back (and re-parented) with each outcome.
        enable_tracing(trace_id)
    if lineage:
        # Same pattern for provenance: the worker buffers lineage records
        # locally and ships them back (adopted) with each outcome.
        enable_lineage()


def _process_worker_migrate(task: _Task) -> _Outcome:
    assert _WORKER_MIGRATOR is not None, "worker used before initialization"
    migrated = _migrate_one(_WORKER_MIGRATOR, task)
    return migrated + (get_tracer().drain(), get_lineage().drain())


class MigrationFarm:
    """Runs one :class:`MigrationPlan` over a corpus of schematic cells.

    ``jobs`` is the worker count; ``executor`` is ``"process"`` or
    ``"inline"`` (default: processes when ``jobs > 1``, inline otherwise).
    The pipeline is pure Python, so only processes run designs in parallel.
    """

    def __init__(
        self,
        plan: MigrationPlan,
        jobs: int = 1,
        cache: Optional[Union[ResultCache, str]] = None,
        executor: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if isinstance(cache, (str, bytes)) or hasattr(cache, "__fspath__"):
            cache = ResultCache(cache)
        if executor is None:
            executor = "process" if jobs > 1 else "inline"
        if executor not in ("process", "inline"):
            raise ValueError(f"unknown executor {executor!r}")
        self.plan = plan
        self.jobs = jobs
        self.cache = cache
        self.executor = executor

    def run(self, designs: Sequence[Schematic], keep_results: bool = True) -> FarmReport:
        """Migrate every design, preferring cached results; never raises for
        a single bad design — inspect ``report.items`` for failures.

        When tracing is enabled (:func:`cadinterop.obs.enable_tracing`) the
        run emits one ``farm:run`` span with every per-design ``migrate``
        span beneath it — including spans recorded inside process workers,
        which are merged back and re-parented here.
        """
        tracer = get_tracer()
        with tracer.span(
            "farm:run", jobs=self.jobs, executor=self.executor, designs=len(designs)
        ) as run_span:
            return self._run(designs, keep_results, tracer, run_span)

    def _run(self, designs, keep_results, tracer, run_span) -> FarmReport:
        started = time.perf_counter()
        recorder = get_lineage()
        # Records emitted before this run (same recorder, earlier work)
        # must not leak into this run's loss report.
        lineage_mark = len(recorder)
        dialect_pair = (
            f"{self.plan.source_dialect.name}->{self.plan.target_dialect.name}"
        )
        registry = MetricsRegistry()
        profiler = StageProfiler(registry=registry)
        report = FarmReport(
            jobs=self.jobs, executor=self.executor, total=len(designs), profile=profiler
        )
        report.trace_id = tracer.trace_id if tracer.enabled else None
        report.items = [
            FarmItem(design=d.name, digest="", status="failed") for d in designs
        ]

        # Fold global rules into the symbol map once, up front: migrate()
        # does this idempotently per call, but doing it here keeps the plan
        # object stable before it is digested and shipped to workers.
        self.plan.global_map.extend_symbol_map(self.plan.symbol_map)
        plan_d = plan_digest(self.plan)

        pending: List[_Task] = []
        keys: dict = {}
        with tracer.span("farm:scan", designs=len(designs)):
            for index, design in enumerate(designs):
                item = report.items[index]
                t0 = time.perf_counter()
                item.digest = schematic_digest(design)
                profiler.record("farm:digest", time.perf_counter() - t0, 1)
                if self.cache is not None:
                    keys[index] = cache_key(
                        item.digest, plan_d, self.cache.pipeline_version
                    )
                    t0 = time.perf_counter()
                    hit = self.cache.get(keys[index])
                    elapsed = time.perf_counter() - t0
                    profiler.record("farm:cache-lookup", elapsed, 1)
                    if hit is not None:
                        item.status = "cached"
                        item.clean = hit.clean
                        item.seconds = elapsed
                        item.result = hit if keep_results else None
                        report.cached += 1
                        recorder.record(
                            "design", design.name, "farm:cache", "preserved",
                            detail="served unchanged from result cache",
                            design=design.name, dialect=dialect_pair,
                        )
                        continue
                pending.append((index, design))

        for index, result, error, seconds, spans, lineage in self._execute(pending):
            if spans:
                # Worker-side spans (process executor): re-root them under
                # this run so the merged trace stays one tree.
                tracer.adopt(spans, parent_id=run_span.span_id)
            if lineage:
                # Worker-side lineage records merge the same way; their
                # span links stay valid because the spans were adopted too.
                recorder.adopt(lineage)
            item = report.items[index]
            item.seconds = seconds
            if result is None:
                item.status = "failed"
                item.error = error or "unknown error"
                report.failed += 1
                continue
            item.status = "migrated"
            item.clean = result.clean
            item.result = result if keep_results else None
            report.migrated += 1
            profiler.record_samples(result.stages)
            if self.cache is not None:
                t0 = time.perf_counter()
                self.cache.put(keys[index], result)
                profiler.record("farm:cache-store", time.perf_counter() - t0, 1)

        for outcome, count in (
            ("migrated", report.migrated),
            ("cached", report.cached),
            ("failed", report.failed),
        ):
            if count:
                registry.counter(f"farm.designs.{outcome}").inc(count)
        if self.cache is not None:
            report.cache_hits = self.cache.hits
            report.cache_misses = self.cache.misses
            report.cache_corrupt = self.cache.corrupt
            for name, value in (
                ("farm.cache.hits", report.cache_hits),
                ("farm.cache.misses", report.cache_misses),
                ("farm.cache.corrupt", report.cache_corrupt),
            ):
                if value:
                    registry.counter(name).inc(value)
        if recorder.enabled:
            report.loss = LossReport.from_records(
                recorder.records()[lineage_mark:]
            )
        report.wall_seconds = time.perf_counter() - started
        report.metrics = registry.snapshot()
        # Roll this run up into the globally installed registry (no-op
        # unless metrics were enabled, e.g. under `cadinterop trace`).
        get_metrics().merge(report.metrics)
        return report

    # -- executors -------------------------------------------------------

    def _execute(self, tasks: List[_Task]) -> List[_Outcome]:
        if not tasks:
            return []
        if self.executor == "process" and self.jobs > 1:
            return self._execute_processes(tasks)
        migrator = Migrator(self.plan)
        return [_migrate_one(migrator, task) + ([], []) for task in tasks]

    def _execute_processes(self, tasks: List[_Task]) -> List[_Outcome]:
        workers = min(self.jobs, len(tasks))
        tracer = get_tracer()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            initializer=_process_worker_init,
            initargs=(
                self.plan,
                tracer.trace_id if tracer.enabled else None,
                get_lineage().enabled,
            ),
        ) as pool:
            chunksize = max(1, len(tasks) // (workers * 4))
            return list(
                pool.map(_process_worker_migrate, tasks, chunksize=chunksize)
            )


def migrate_corpus(
    plan: MigrationPlan,
    designs: Sequence[Schematic],
    jobs: int = 1,
    cache: Optional[Union[ResultCache, str]] = None,
    executor: Optional[str] = None,
    keep_results: bool = True,
) -> FarmReport:
    """One-call batch migration: build a farm, run the corpus, return the report."""
    farm = MigrationFarm(plan, jobs=jobs, cache=cache, executor=executor)
    return farm.run(designs, keep_results=keep_results)
