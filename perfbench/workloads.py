"""The benchmark's workloads: seeded inputs, one closed-loop client each.

Every workload turns a seed into input files in a scratch directory and
runs *passes* over a fixed list of requests.  A pass starts from cold
caches (a fresh executor, or a freshly started pool) and submits each
request once.  Seed :data:`DEFAULT_SEED` gives the canonical inputs
whose outputs the reference file pins.  Any other seed shuffles the
trace order of every generated log.  That gives the program different
input bytes, so no cache can carry over from another seed, while the
problems (classes, events, constraints) and thus the work stay the same.
"""

from __future__ import annotations

import hashlib
import os
import random
import resource
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.constraints.parser import parse_constraints
from repro.constraints.sets import ConstraintSet
from repro.core import gecco
from repro.core.gecco import Gecco, GeccoConfig
from repro.datasets import loan_application_log, running_example_log
from repro.datasets.attributes import enrich_log
from repro.datasets.collection import TABLE_III_SPECS, build_log
from repro.datasets.playout import playout
from repro.datasets.process_tree import TreeSpec, random_tree
from repro.eventlog import csv_io, xes
from repro.eventlog.events import EventLog
from repro.experiments.configs import ALL_SET_NAMES, applicable, constraint_set_for_log
from repro.service import (
    AbstractionJob,
    LogRef,
    PoolExecutor,
    SequentialExecutor,
    result_signature,
)

from perfbench.trace import JOB_SPAN

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    """One abstraction problem: a log file, constraints and a config."""

    job_id: str
    log_name: str
    constraints: ConstraintSet
    config: GeccoConfig


@dataclass
class Outcome:
    """What one job produced, reduced to what the checks need."""

    job_id: str
    error: str | None = None
    feasible: bool = False
    groups: tuple = ()
    distance: float | None = None
    digest: str | None = None

    @classmethod
    def of(cls, job_id: str, result=None, error=None, digest=False) -> "Outcome":
        if result is None:
            return cls(job_id, error=error or "no result")
        groups = ()
        if result.grouping is not None:
            groups = tuple(sorted(tuple(sorted(group)) for group in result.grouping.groups))
        return cls(
            job_id,
            feasible=result.feasible,
            groups=groups,
            distance=result.distance,
            digest=(
                hashlib.sha256(result_signature(result).encode()).hexdigest()
                if digest
                else None
            ),
        )

    def output(self) -> tuple:
        """The comparable output: equal across runs of one job."""
        return (self.error, self.feasible, self.groups, self.distance)


@dataclass
class Sample:
    """One timed request, from submit to result, and the jobs it ran."""

    label: str
    latency: float
    outcomes: list[Outcome]
    #: Pipeline seconds (``timings.total``) of the results computed for
    #: this request; 0 for a result served from a cache.
    steps_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(outcome.error is None for outcome in self.outcomes)


@dataclass
class PassResult:
    samples: list[Sample]
    wall_s: float
    cpu_s: float
    workers: int = 1
    warm_s: float = 0.0


@dataclass
class Inputs:
    """A set-up workload: input files, jobs, and started pools."""

    paths: dict[str, Path]
    jobs: list[Job]
    pools: list = field(default_factory=list)


def _cpu_self() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _cpu_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def seeded(log: EventLog, seed: int) -> EventLog:
    """The log as the program receives it under ``seed``."""
    if seed == DEFAULT_SEED:
        return log
    traces = list(log.traces)
    random.Random(seed).shuffle(traces)
    return EventLog(traces, log.attributes)


def write_log(log: EventLog, path: Path) -> Path:
    if path.suffix == ".xes":
        xes.dump(log, path)
    else:
        csv_io.write_csv(log, path)
    return path


def read_log(path: Path) -> EventLog:
    """Read an input file the way ``repro abstract`` does."""
    if path.suffix == ".xes":
        return xes.load(path)
    return csv_io.read_csv(path)


def _request(job: Job, refs: dict) -> AbstractionJob:
    return AbstractionJob(
        log=refs[job.log_name],
        constraints=job.constraints,
        config=job.config,
        job_id=job.job_id,
    )


class Workload:
    """Base: a sequential pass over the jobs; subclasses define inputs."""

    name = ""
    why = ""
    #: Seconds one pass takes on the reference 2-core host; a run makes
    #: ``round(seconds / nominal_pass_s)`` passes, at least one.
    nominal_pass_s = 1.0
    #: Passes an untraced run needs for ``job_tail_s`` to sit clear of
    #: the gap between the workload's fast and slow jobs.
    min_passes = 1
    #: Whether :meth:`setup` starts a pool per pass.
    uses_pool = False

    def __init__(self, tiny: bool = False):
        self.tiny = tiny

    def passes(self, seconds: float, traced: bool) -> int:
        """Passes per phase.  A traced run reports no tail, so it needs
        only as many passes as the time allows."""
        wanted = max(1, round(seconds / self.nominal_pass_s))
        return wanted if traced else max(self.min_passes, wanted)

    def setup(self, seed: int, directory: Path, pools: int) -> Inputs:
        raise NotImplementedError

    def run_pass(self, inputs: Inputs, recorder, digests: bool) -> PassResult:
        """Jobs one by one through a fresh :class:`SequentialExecutor`.

        The clock runs only while a job runs; the benchmark's own
        bookkeeping between jobs (output digests) is excluded.
        """
        executor = SequentialExecutor()
        refs = {name: LogRef.path(str(path)) for name, path in inputs.paths.items()}
        samples, wall, cpu = [], 0.0, 0.0
        for job in inputs.jobs:
            result = error = None
            cpu_before = _cpu_self()
            started = time.perf_counter()
            try:
                if recorder is None:
                    handle = executor.submit(_request(job, refs))
                    result = handle.result()
                else:
                    with recorder.job(job.job_id):
                        handle = executor.submit(_request(job, refs))
                        result = handle.result()
            except Exception as exc:  # a failed job is counted, not fatal
                error = _error(exc)
            latency = time.perf_counter() - started
            cpu += _cpu_self() - cpu_before
            wall += latency
            steps = result.timings.total if result is not None and not handle.cached else 0.0
            outcome = Outcome.of(job.job_id, result, error, digests)
            samples.append(Sample(job.job_id, latency, [outcome], steps))
        executor.stats()
        return PassResult(samples, wall, cpu)

    def close(self, inputs: Inputs) -> None:
        for pool in inputs.pools:
            pool.shutdown(wait=True)
        inputs.pools.clear()


# -- manifest ---------------------------------------------------------------


def manifest_rows(tiny: bool = False) -> list[dict]:
    """The 20-job batch manifest (``benchmarks/run_perf.py``, full size).

    Pinned here so that the benchmark's inputs change only with the
    benchmark.  ``tiny`` keeps the running-example rows.
    """
    logs = ("running_example",) if tiny else ("running_example", "loan:60")
    rows = []
    for log in logs:
        for bound in (2, 3, 4, 5, 6):
            rows.append(
                {
                    "id": f"{log}/size{bound}",
                    "log": log,
                    "constraints": [{"type": "max_group_size", "bound": bound}],
                }
            )
        for bound in (3, 4, 5, 6, 7):
            rows.append(
                {
                    "id": f"{log}/groups{bound}",
                    "log": log,
                    "constraints": [
                        {"type": "max_group_size", "bound": 8},
                        {"type": "max_groups", "bound": bound},
                    ],
                }
            )
    return rows


def _manifest_inputs(seed: int, directory: Path, tiny: bool) -> Inputs:
    builders = {
        "running_example": running_example_log,
        "loan:60": lambda: loan_application_log(num_traces=60),
    }
    rows = manifest_rows(tiny)
    paths = {}
    for name in dict.fromkeys(row["log"] for row in rows):
        path = directory / (name.replace(":", "_") + ".xes")
        paths[name] = write_log(seeded(builders[name](), seed), path)
    config = GeccoConfig(beam_width="auto")
    jobs = [
        Job(row["id"], row["log"], parse_constraints(row["constraints"]), config)
        for row in rows
    ]
    return Inputs(paths, jobs)


class Manifest(Workload):
    name = "manifest"
    why = (
        "the 20-job running-example + loan:60 batch run one by one; "
        "Step 2 (selection2 and mip) takes about 90% of its time"
    )
    nominal_pass_s = 14.0
    min_passes = 2

    def setup(self, seed, directory, pools):
        return _manifest_inputs(seed, directory, self.tiny)


class ManifestPool2(Workload):
    """The manifest submitted at once to a 2-worker pool, cold then warm."""

    name = "manifest-pool2"
    why = (
        "the same 20 jobs submitted at once to a 2-worker PoolExecutor, cold "
        "then warm; the only workload that exercises the service layer"
    )
    nominal_pass_s = 15.0
    min_passes = 2
    uses_pool = True
    workers = 2

    def setup(self, seed, directory, pools):
        inputs = _manifest_inputs(seed, directory, self.tiny)
        for _ in range(pools):
            pool = PoolExecutor(workers=self.workers)
            inputs.pools.append(pool)
            # Start both worker processes now, not on the first job.
            calls = [pool.submit_call(_ready) for _ in range(self.workers)]
            for call in calls:
                call.result()
        return inputs

    def run_pass(self, inputs, recorder, digests):
        pool = inputs.pools.pop(0)
        refs = {name: LogRef.path(str(path)) for name, path in inputs.paths.items()}
        cpu_before, children_before = _cpu_self(), _cpu_children()
        started = time.perf_counter()
        try:
            finished = self._submit_all(pool, inputs.jobs, refs, recorder)
            warm_started = time.perf_counter()
            finished += self._submit_all(pool, inputs.jobs, refs, recorder)
            ended = time.perf_counter()
            pool.stats()
        finally:
            pool.shutdown(wait=True)  # reap the workers: their CPU is counted
        cpu = _cpu_self() - cpu_before + _cpu_children() - children_before
        samples = [
            Sample(
                job.job_id,
                latency,
                [Outcome.of(job.job_id, result, error, digests)],
                result.timings.total if result is not None and not cached else 0.0,
            )
            for job, latency, result, error, cached in finished
        ]
        return PassResult(samples, ended - started, cpu, self.workers, ended - warm_started)

    @staticmethod
    def _submit_all(pool, jobs, refs, recorder) -> list[tuple]:
        """Submit every job at once; return each one's result and latency."""
        submitted = []
        for job in jobs:
            root = None if recorder is None else recorder.open(JOB_SPAN, job=job.job_id)
            started = time.perf_counter()
            if root is None:
                handle = pool.submit(_request(job, refs))
            else:
                with recorder.active(root):
                    handle = pool.submit(_request(job, refs))
            submitted.append((job, started, handle, root))

        def wait(entry):
            job, started, handle, root = entry
            try:
                result, error = handle.result(), None
            except Exception as exc:  # a failed job is counted, not fatal
                result, error = None, _error(exc)
            ended = time.perf_counter()
            if root is not None:
                root.end = ended
            return job, ended - started, result, error, handle.cached

        with ThreadPoolExecutor(max_workers=len(submitted)) as waiters:
            return list(waiters.map(wait, submitted))


def _ready(cache=None):
    """Pool call that starts a worker process and holds it briefly, so
    that the next call goes to the other worker."""
    del cache
    time.sleep(0.02)
    return os.getpid()


# -- collection-exh -----------------------------------------------------------


class CollectionExh(Workload):
    """Table V problems under Exh on every third Table III log."""

    name = "collection-exh"
    why = (
        "Table V problems under Exh on every third Table III log x 10 sets (50 jobs); "
        "Alg. 3 is the largest layer and instance sets use the attribute kernels"
    )
    nominal_pass_s = 10.0

    def setup(self, seed, directory, pools):
        specs = TABLE_III_SPECS[::3]
        if self.tiny:
            specs = [spec for spec in specs if spec.name == "credit"]
        paths, logs = {}, {}
        for spec in specs:
            log = seeded(build_log(spec, max_traces=50, max_classes=10), seed)
            logs[spec.name] = log
            paths[spec.name] = write_log(log, directory / f"{spec.name}.xes")
        # candidate_timeout stays None: outputs must not depend on speed.
        config = GeccoConfig.exhaustive()
        jobs = [
            Job(f"{set_name}/{log_name}", log_name, constraint_set_for_log(set_name, log), config)
            for set_name in ALL_SET_NAMES
            for log_name, log in logs.items()
            if applicable(set_name, log)
        ]
        return Inputs(paths, jobs)


# -- big-log-xes --------------------------------------------------------------


def _synthetic(tree_seed: int, num_traces: int) -> EventLog:
    tree = random_tree(TreeSpec(num_activities=12), seed=tree_seed)
    return enrich_log(playout(tree, num_traces, seed=tree_seed), seed=tree_seed)


class BigLogXes(Workload):
    """One request per large log file: read it, prepare, run four sets."""

    name = "big-log-xes"
    why = (
        "per log file: read it, prepare the artifacts, run DFGk under A, N, BL1, "
        "BL3; three 12-class x 3000-trace logs, where ingest and per-event work dominate"
    )
    nominal_pass_s = 7.0
    #: (file name, process-tree seed): 10066, 16104 and 21985 events.
    LOGS = (("log10k.xes", 11), ("log16k.csv", 8), ("log22k.xes", 1))
    SETS = ("A", "N", "BL1", "BL3")

    def setup(self, seed, directory, pools):
        num_traces = 100 if self.tiny else 3000
        paths, jobs = {}, []
        config = GeccoConfig.dfg_adaptive()
        for file_name, tree_seed in self.LOGS:
            log = seeded(_synthetic(tree_seed, num_traces), seed)
            name = f"tiny-{file_name}" if self.tiny else file_name
            paths[name] = write_log(log, directory / name)
            jobs += [
                Job(f"{name}/{set_name}", name, constraint_set_for_log(set_name, log), config)
                for set_name in self.SETS
            ]
            del log  # keep one generated log in memory at a time
        return Inputs(paths, jobs)

    def run_pass(self, inputs, recorder, digests):
        samples, wall, cpu = [], 0.0, 0.0
        for name, path in inputs.paths.items():
            jobs = [job for job in inputs.jobs if job.log_name == name]
            results, error = [], None
            cpu_before = _cpu_self()
            started = time.perf_counter()
            try:
                if recorder is None:
                    results = self._abstract_file(path, jobs)
                else:
                    with recorder.job(name):
                        results = self._abstract_file(path, jobs)
            except Exception as exc:  # a failed request is counted, not fatal
                error = _error(exc)
            latency = time.perf_counter() - started
            cpu += _cpu_self() - cpu_before
            wall += latency
            outcomes = [
                Outcome.of(job.job_id, result, error, digests)
                for job, result in zip(jobs, results or [None] * len(jobs))
            ]
            steps = sum(result.timings.total for result in results)
            samples.append(Sample(name, latency, outcomes, steps))
            del results
        return PassResult(samples, wall, cpu)

    @staticmethod
    def _abstract_file(path: Path, jobs: list[Job]) -> list:
        log = read_log(path)
        artifacts = gecco.prepare_artifacts(log, jobs[0].config)
        return [Gecco(job.constraints, job.config).abstract(log, artifacts) for job in jobs]


WORKLOADS = {
    workload.name: workload
    for workload in (Manifest, CollectionExh, BigLogXes, ManifestPool2)
}
