"""Benchmark-side layer timers and trace analysis.

A probe replaces one public function or method of a ``cadinterop`` module
with a wrapper that runs the original inside a span named ``bench:<metric>``
on the program's own tracer.  Probes are installed at the binding the
caller looks up at call time (the importing module's global, or the class
attribute for methods), so nothing under ``src/`` is edited, and they are
removed again after each traced round.  Because the wrappers emit ordinary
spans, calls made inside forked farm workers come back with the farm's own
span merge, and one trace holds every layer's time.

Program spans (every name not starting with ``bench:``) are analysed with
the probe spans treated as transparent: a program span's self time is its
duration minus the union of the intervals of its nearest program-span
descendants.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

PREFIX = "bench:"

#: (module path, attribute path inside it, metric stem).  An attribute path
#: with a dot names a method on a class.
Target = Tuple[str, str, str]


def _resolve(module_path: str, attr_path: str):
    owner = importlib.import_module(module_path)
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _timed(original: Callable, span_name: str) -> Callable:
    from cadinterop.obs.trace import get_tracer

    def wrapper(*args, **kwargs):
        with get_tracer().span(span_name):
            return original(*args, **kwargs)

    wrapper.__wrapped__ = original
    return wrapper


def _timed_sim_run(original: Callable, span_name: str) -> Callable:
    """``Simulator.run``: also record the activations the call performed."""
    from cadinterop.obs.trace import get_tracer

    def wrapper(self, *args, **kwargs):
        before = self.activations
        with get_tracer().span(span_name) as span:
            result = original(self, *args, **kwargs)
            span.set(activations=self.activations - before)
        return result

    wrapper.__wrapped__ = original
    return wrapper


class ProbeSet:
    """Installs a list of probes and restores the originals on exit."""

    def __init__(self, targets: Sequence[Target]) -> None:
        self.targets = list(targets)
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "ProbeSet":
        for module_path, attr_path, stem in self.targets:
            owner, attr = _resolve(module_path, attr_path)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            factory = _timed_sim_run if stem == "sim.run" else _timed
            setattr(owner, attr, factory(original, PREFIX + stem))
            self._saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False


def probe_totals(spans: Iterable[dict]) -> Dict[str, float]:
    """``<stem>_s``, ``<stem>.calls`` and summed numeric attrs per probe."""
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        name = span["name"]
        if not name.startswith(PREFIX):
            continue
        stem = name[len(PREFIX):]
        totals[stem + "_s"] += span["seconds"]
        totals[stem + ".calls"] += 1
        for key, value in span.get("attrs", {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[f"{stem}.{key}"] += value
    return totals


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    covered = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        covered += hi - max(lo, end)
        end = hi
    return covered


def program_self_times(spans: Sequence[dict]) -> Tuple[int, Dict[str, float]]:
    """Count program spans and sum their self time by span name.

    ``obs.export.span_stats`` reports totals only; self time here is a
    span's duration minus the part of its interval covered by its nearest
    program-span descendants (probe spans in between are skipped).
    """
    by_id = {span["span_id"]: span for span in spans}

    def program_parent(span: dict) -> Optional[str]:
        parent = span.get("parent_id")
        while parent is not None and parent in by_id:
            if not by_id[parent]["name"].startswith(PREFIX):
                return parent
            parent = by_id[parent].get("parent_id")
        return None

    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    program = [s for s in spans if not s["name"].startswith(PREFIX)]
    for span in program:
        parent = program_parent(span)
        if parent is not None:
            children[parent].append((span["start"], span["start"] + span["seconds"]))

    self_s: Dict[str, float] = defaultdict(float)
    for span in program:
        lo, hi = span["start"], span["start"] + span["seconds"]
        clipped = [
            (max(a, lo), min(b, hi)) for a, b in children.get(span["span_id"], ())
            if b > lo and a < hi
        ]
        self_s[span["name"]] += max(0.0, span["seconds"] - _union_length(clipped))
    return len(program), self_s
