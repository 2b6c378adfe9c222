"""Span recorder and the wrappers that time each layer from outside.

The benchmark never edits the library.  For the traced run it replaces
each layer's public functions, at the names their callers look them up
by, with wrappers that record one span per call, and it restores the
originals afterwards.  Spans stay in memory and are written out with the
run's record.

A thread that opens a span without an open span of its own (a
bnb-vs-HiGHS racer thread of the Step-2 portfolio) adopts the innermost
open ``selection2.solve_component`` span, or the latest one when the
race was decided before the racer's first call: racer time is charged
to the component solve that started the race, also after it returned.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

#: Name of the benchmark's own per-job root span (submit to result).
JOB_SPAN = "bench.job"

#: Spans whose open instances adopt spans from threads without a parent.
ANCHOR_SPAN = "selection2.solve_component"


@dataclass
class Span:
    """One timed call: ``end`` is ``None`` while the call is running."""

    id: int
    name: str
    start: float
    parent: int | None
    job: str | None
    thread: str
    end: float | None = None
    counts: dict = field(default_factory=dict)


class SpanRecorder:
    """Thread-safe in-memory span store with per-thread nesting."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._anchors: list[Span] = []
        self._last_anchor: Span | None = None

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, job: str | None = None, parent: Span | None = None) -> Span:
        """Start a span under ``parent``, the thread's open span, or an anchor."""
        stack = self._stack()
        with self._lock:
            if parent is None and job is None:
                if stack:
                    parent = stack[-1]
                else:
                    adopted = getattr(self._local, "adopted", None)
                    if adopted is None:
                        adopted = self._anchors[-1] if self._anchors else self._last_anchor
                        self._local.adopted = adopted
                    parent = adopted
            span = Span(
                id=len(self.spans),
                name=name,
                start=time.perf_counter(),
                parent=parent.id if parent is not None else None,
                job=parent.job if parent is not None else job,
                thread=threading.current_thread().name,
            )
            self.spans.append(span)
        return span

    @contextmanager
    def active(self, span: Span):
        """Make ``span`` the parent of spans this thread opens meanwhile."""
        stack = self._stack()
        stack.append(span)
        anchor = span.name == ANCHOR_SPAN
        if anchor:
            with self._lock:
                self._anchors.append(span)
                self._last_anchor = span
        try:
            yield span
        finally:
            stack.pop()
            if anchor:
                with self._lock:
                    self._anchors.remove(span)

    @contextmanager
    def span(self, name: str, job: str | None = None):
        """Time the enclosed block as one span; a root span if ``job`` is given."""
        span = self.open(name, job=job)
        try:
            with self.active(span):
                yield span
        finally:
            span.end = time.perf_counter()

    def job(self, job_id: str):
        """The root span of one job run in this thread (sequential use)."""
        return self.span(JOB_SPAN, job=job_id)

    def finished(self) -> list[Span]:
        """A snapshot of the spans, with still-running ones closed now."""
        now = time.perf_counter()
        with self._lock:
            spans = list(self.spans)
        return [
            span if span.end is not None else replace(span, end=now)
            for span in spans
        ]


# -- what each wrapper counts from the wrapped call's return value ----------


def _count_events(counts: dict, log) -> None:
    counts["events"] = log.event_count


def _count_candidates(counts: dict, result) -> None:
    counts["groups_checked"] = result.stats.groups_checked
    counts["candidates"] = len(result.groups)


def _count_exclusive(counts: dict, result) -> None:
    _candidates, stats = result
    counts["pairs_checked"] = stats.pairs_checked
    counts["added"] = stats.merges_added + stats.extensions_added


def _count_selection(counts: dict, result) -> None:
    stats = result.stats
    counts["components"] = stats.num_components
    counts["nodes"] = stats.nodes
    counts["cache_hits"] = stats.cache_hits
    counts["cache_misses"] = stats.cache_misses


def _count_used(counts: dict, _solution) -> None:
    counts["used"] = 1


def _count_service(counts: dict, stats: dict) -> None:
    workers = stats.get("workers_total", {})
    parent = stats["parent"]
    counts["artifact_builds"] = parent["artifact_builds"] + workers.get("artifact_builds", 0)
    counts["result_hits"] = parent["results"]["hits"] + workers.get("result_hits", 0)


#: ``(module, attribute path, span name, counter)``: each function is
#: patched where its callers import it.
WRAPPED = (
    ("repro.eventlog.xes", "load", "eventlog.load", _count_events),
    ("repro.eventlog.csv_io", "read_csv", "eventlog.load", _count_events),
    ("repro.core.gecco", "prepare_artifacts", "core.prepare_artifacts", None),
    ("repro.service.executor", "prepare_artifacts", "core.prepare_artifacts", None),
    ("repro.core.gecco", "dfg_candidates", "core.candidates", _count_candidates),
    ("repro.core.gecco", "exhaustive_candidates", "core.candidates", _count_candidates),
    ("repro.core.gecco", "merge_exclusive_candidates", "core.exclusive", _count_exclusive),
    ("repro.selection2", "select_decomposed", "selection2.select", _count_selection),
    ("repro.selection2.pipeline", "presolve", "selection2.presolve", None),
    ("repro.selection2.pipeline", "decompose", "selection2.decompose", None),
    ("repro.selection2.portfolio", "solve_component", ANCHOR_SPAN, _count_used),
    ("repro.selection2.coordinate", "merge_fronts", "selection2.merge_fronts", None),
    ("repro.selection2.portfolio", "SetPartitionSolver.solve", "mip.bnb", None),
    ("repro.selection2.portfolio", "scipy_backend.solve", "mip.highs", None),
    ("repro.selection2.portfolio", "lexmin_optimal_selection", "mip.lexmin", None),
    ("repro.core.gecco", "abstract_log", "core.abstract_log", None),
    ("repro.service.executor", "PoolExecutor.submit", "service.submit", None),
    ("repro.service.executor", "PoolExecutor.stats", "service.stats", _count_service),
    ("repro.service.executor", "SequentialExecutor.stats", "service.stats", _count_service),
)


def _wrap(recorder: SpanRecorder, name: str, fn, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if counter is not None:
                counter(span.counts, result)
            return result

    return wrapper


@contextmanager
def installed(recorder: SpanRecorder):
    """Patch every :data:`WRAPPED` function for the enclosed block."""
    restore = []
    try:
        for module, path, name, counter in WRAPPED:
            owner = importlib.import_module(module)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attribute]
            setattr(owner, attribute, _wrap(recorder, name, original, counter))
            restore.append((owner, attribute, original))
        yield recorder
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


# -- span analysis ----------------------------------------------------------


def _covered(intervals, low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    return children


def self_times(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover.
    """
    children = children_of(spans)
    table: dict[str, dict] = {}
    for span in spans:
        duration = span.end - span.start
        inner = _covered(
            [(child.start, child.end) for child in children.get(span.id, ())],
            span.start,
            span.end,
        )
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - inner
    return table


def job_roots(spans: list[Span]) -> list[Span]:
    return [span for span in spans if span.name == JOB_SPAN]


def coverage(spans: list[Span]) -> float:
    """Share of job wall-clock covered by the layers' top-level spans."""
    children = children_of(spans)
    covered = wall = 0.0
    for root in job_roots(spans):
        wall += root.end - root.start
        covered += _covered(
            [(child.start, child.end) for child in children.get(root.id, ())],
            root.start,
            root.end,
        )
    return covered / wall if wall > 0 else 0.0


# -- per-layer metrics ------------------------------------------------------

#: name -> (unit, better, the end-to-end metric and workload it should move).
LAYER_METRICS = {
    "eventlog.load_s": ("s/job", "lower", "jobs_per_s on big-log-xes"),
    "eventlog.events_per_s": ("1/s", "higher", "jobs_per_s on big-log-xes"),
    "core.prepare_artifacts_s": ("s/job", "lower", "jobs_per_s on big-log-xes"),
    "core.candidates_s": ("s/job", "lower", "jobs_per_s on big-log-xes and collection-exh"),
    "core.groups_checked": ("count/job", "lower", "jobs_per_s on big-log-xes and collection-exh"),
    "core.candidate_yield": ("ratio", "higher", "jobs_per_s on big-log-xes and collection-exh"),
    "core.exclusive_s": ("s/job", "lower", "jobs_per_s on collection-exh"),
    "core.exclusive_pairs_checked": ("count/job", "lower", "jobs_per_s on collection-exh"),
    "core.exclusive_yield": ("ratio", "higher", "jobs_per_s on collection-exh"),
    "selection2.select_s": ("s/job", "lower", "jobs_per_s and job_tail_s on manifest"),
    "selection2.presolve_s": ("s/job", "lower", "jobs_per_s and job_tail_s on manifest"),
    "selection2.solve_component_s": ("s/job", "lower", "jobs_per_s and job_tail_s on manifest"),
    "selection2.components": ("count/job", "higher", "jobs_per_s and job_tail_s on manifest"),
    "selection2.nodes": ("count/job", "lower", "jobs_per_s and job_tail_s on manifest"),
    "selection2.cache_hit_ratio": ("ratio", "higher", "jobs_per_s and job_tail_s on manifest"),
    "mip.bnb_s": ("s/job", "lower", "job_tail_s and cpu_s_per_job on manifest"),
    "mip.highs_s": ("s/job", "lower", "job_tail_s and cpu_s_per_job on manifest"),
    "mip.lexmin_s": ("s/job", "lower", "job_tail_s and cpu_s_per_job on manifest"),
    "mip.race_useful_ratio": ("ratio", "higher", "job_tail_s and cpu_s_per_job on manifest"),
    "core.abstract_log_s": ("s/job", "lower", "jobs_per_s on big-log-xes"),
    "service.busy_share": ("ratio", "higher", "jobs_per_s on manifest-pool2"),
    "service.artifact_builds": ("count/job", "lower", "jobs_per_s on manifest-pool2"),
    "service.result_hit_ratio": ("ratio", "higher", "jobs_per_s on manifest-pool2"),
    "service.warm_pass_s": ("s", "lower", "jobs_per_s on manifest-pool2"),
    "bench.coverage": ("ratio", "higher", "none: the share of job time the trace attributes"),
    "bench.trace_overhead": ("ratio", "lower", "none: the cost of tracing itself"),
}


def _ratio(numerator: float, denominator: float, empty: float = 0.0) -> float:
    return numerator / denominator if denominator else empty


def layer_metrics(
    spans: list[Span],
    jobs: int,
    busy_share: float,
    warm_pass_s: float,
    trace_overhead: float,
) -> dict[str, float]:
    """Every :data:`LAYER_METRICS` value for one traced phase.

    Times and counts are per completed job.  The executor counters come
    from the ``stats()`` call that ends each pass.  A layer that did no
    work in the traced process reads 0: the pipeline of
    ``manifest-pool2`` runs inside pool workers, and ``big-log-xes``
    uses no executor.
    """
    seconds: dict[str, float] = {}
    counts: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in spans:
        seconds[span.name] = seconds.get(span.name, 0.0) + (span.end - span.start)
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counts.items():
            tag = f"{span.name}.{key}"
            counts[tag] = counts.get(tag, 0) + value

    def per_job(value: float) -> float:
        return _ratio(value, jobs)

    solver_runs = calls.get("mip.bnb", 0) + calls.get("mip.highs", 0)
    lookups = counts.get("selection2.select.cache_hits", 0) + counts.get(
        "selection2.select.cache_misses", 0
    )
    return {
        "eventlog.load_s": per_job(seconds.get("eventlog.load", 0.0)),
        "eventlog.events_per_s": _ratio(
            counts.get("eventlog.load.events", 0), seconds.get("eventlog.load", 0.0)
        ),
        "core.prepare_artifacts_s": per_job(seconds.get("core.prepare_artifacts", 0.0)),
        "core.candidates_s": per_job(seconds.get("core.candidates", 0.0)),
        "core.groups_checked": per_job(counts.get("core.candidates.groups_checked", 0)),
        "core.candidate_yield": _ratio(
            counts.get("core.candidates.candidates", 0),
            counts.get("core.candidates.groups_checked", 0),
        ),
        "core.exclusive_s": per_job(seconds.get("core.exclusive", 0.0)),
        "core.exclusive_pairs_checked": per_job(
            counts.get("core.exclusive.pairs_checked", 0)
        ),
        "core.exclusive_yield": _ratio(
            counts.get("core.exclusive.added", 0),
            counts.get("core.exclusive.pairs_checked", 0),
        ),
        "selection2.select_s": per_job(seconds.get("selection2.select", 0.0)),
        "selection2.presolve_s": per_job(seconds.get("selection2.presolve", 0.0)),
        "selection2.solve_component_s": per_job(seconds.get(ANCHOR_SPAN, 0.0)),
        "selection2.components": per_job(counts.get("selection2.select.components", 0)),
        "selection2.nodes": per_job(counts.get("selection2.select.nodes", 0)),
        "selection2.cache_hit_ratio": _ratio(
            counts.get("selection2.select.cache_hits", 0), lookups
        ),
        "mip.bnb_s": per_job(seconds.get("mip.bnb", 0.0)),
        "mip.highs_s": per_job(seconds.get("mip.highs", 0.0)),
        "mip.lexmin_s": per_job(seconds.get("mip.lexmin", 0.0)),
        "mip.race_useful_ratio": _ratio(
            counts.get(f"{ANCHOR_SPAN}.used", 0), solver_runs, empty=1.0
        ),
        "core.abstract_log_s": per_job(seconds.get("core.abstract_log", 0.0)),
        "service.busy_share": busy_share,
        "service.artifact_builds": per_job(counts.get("service.stats.artifact_builds", 0)),
        "service.result_hit_ratio": per_job(counts.get("service.stats.result_hits", 0)),
        "service.warm_pass_s": warm_pass_s,
        "bench.coverage": coverage(spans),
        "bench.trace_overhead": trace_overhead,
    }
