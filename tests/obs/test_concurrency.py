"""Worker-span merging: one coherent trace across farm executors.

The acceptance bar for the observability layer: a traced
``MigrationFarm.run`` over the process executor yields ONE
trace — every per-design ``migrate`` span parented under the single
``farm:run`` root, every stage span parented under its design's
``migrate`` span, and start times consistent with that nesting — even
though the spans were recorded in other threads or other processes.
"""

import threading

import pytest

from cadinterop.farm import MigrationFarm
from cadinterop.obs import Tracer, disable_tracing, enable_tracing, get_tracer
from cadinterop.schematic.samples import (
    build_sample_plan,
    build_vl_libraries,
    generate_chain_schematic,
)

DESIGNS = 4


@pytest.fixture(scope="module")
def vl_libs():
    return build_vl_libraries()


@pytest.fixture(scope="module")
def corpus(vl_libs):
    return [
        generate_chain_schematic(vl_libs, pages=1, chains_per_page=2,
                                 stages=3, seed=index)
        for index in range(DESIGNS)
    ]


def traced_farm_run(vl_libs, corpus, executor):
    plan = build_sample_plan(source_libraries=vl_libs)
    tracer = enable_tracing()
    try:
        report = MigrationFarm(plan, jobs=2, executor=executor).run(corpus)
        spans = tracer.spans()
        trace_id = tracer.trace_id
    finally:
        disable_tracing()
    assert report.migrated == DESIGNS
    return spans, trace_id


def assert_single_coherent_trace(spans):
    by_id = {span["span_id"]: span for span in spans}
    assert len(by_id) == len(spans), "span ids must be unique across workers"

    roots = [span for span in spans if span["parent_id"] is None]
    assert [span["name"] for span in roots] == ["farm:run"]
    run_span = roots[0]

    migrates = [span for span in spans if span["name"] == "migrate"]
    assert len(migrates) == DESIGNS
    for span in migrates:
        assert span["parent_id"] == run_span["span_id"]

    stage_spans = [s for s in spans if s["name"].startswith("migrate:")]
    assert stage_spans, "per-stage spans must survive the merge"
    migrate_ids = {span["span_id"] for span in migrates}
    for span in stage_spans:
        assert span["parent_id"] in migrate_ids
        parent = by_id[span["parent_id"]]
        # Ordered: a child cannot start before its parent.
        assert span["start"] >= parent["start"]

    # Every design contributed a full stage set under its own migrate span.
    per_parent = {}
    for span in stage_spans:
        per_parent.setdefault(span["parent_id"], set()).add(span["name"])
    assert len(per_parent) == DESIGNS
    stage_sets = list(per_parent.values())
    assert all(names == stage_sets[0] for names in stage_sets)

    # spans() contract: ordered by start time.
    starts = [span["start"] for span in spans]
    assert starts == sorted(starts)


class TestExecutorMerge:
    def test_inline_executor(self, vl_libs, corpus):
        spans, _ = traced_farm_run(vl_libs, corpus, "inline")
        assert_single_coherent_trace(spans)

    def test_process_executor_merges_into_one_trace(self, vl_libs, corpus):
        spans, trace_id = traced_farm_run(vl_libs, corpus, "process")
        assert_single_coherent_trace(spans)
        # Worker spans were minted in other processes: pid-prefixed ids
        # must differ from the parent's for at least one span.
        import os

        prefix = f"{os.getpid():x}-"
        assert any(not s["span_id"].startswith(prefix) for s in spans)

    def test_executors_disagree_only_on_ids(self, vl_libs, corpus):
        names = {}
        for executor in ("inline", "process"):
            spans, _ = traced_farm_run(vl_libs, corpus, executor)
            names[executor] = sorted(span["name"] for span in spans)
        assert names["inline"] == names["process"]


class TestTracerThreadSafety:
    def test_concurrent_spans_do_not_corrupt_the_buffer(self):
        tracer = Tracer()

        def worker(index):
            with tracer.span(f"job{index}"):
                for _ in range(20):
                    with tracer.span("step"):
                        pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        spans = tracer.spans()
        assert len(spans) == 8 * 21
        job_ids = {s["span_id"] for s in spans if s["name"].startswith("job")}
        for span in spans:
            if span["name"] == "step":
                assert span["parent_id"] in job_ids

    def test_contextvar_isolation_between_threads(self):
        tracer = Tracer()
        seen = {}

        def worker(name):
            with tracer.span(name) as span:
                seen[name] = span.parent_id

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker, args=("other",))
            thread.start()
            thread.join()
        # A fresh thread starts with an empty context: no inherited parent.
        assert seen["other"] is None
