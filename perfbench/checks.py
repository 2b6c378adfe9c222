"""Output checks: every job's result is verified after the timed phase.

For every seed, each feasible grouping must be an exact cover of the
log's classes within the constraint set's group-count bounds, every
group must pass the pure-Python :class:`GroupChecker`, and the reported
distance must equal Eq. 1 recomputed by the pure-Python
:class:`DistanceFunction`.  All outcomes of one job (across passes and
between the untraced and the traced phase) must agree.  On the default
seed each job's ``result_signature`` digest must match the reference
file kept with the benchmark.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from repro.core.checker import GroupChecker
from repro.core.distance import DistanceFunction
from repro.core.instances import InstanceIndex

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Workloads that run the same jobs as another one share its reference.
REFERENCE_OF = {"manifest-pool2": "manifest"}


def load_reference(workload: str) -> dict[str, str]:
    """Job id -> ``result_signature`` sha256 on the default seed."""
    data = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return data["workloads"].get(REFERENCE_OF.get(workload, workload), {})


def check_grouping(outcome, log, constraints, config) -> str | None:
    """Why a feasible outcome is wrong, or ``None`` when it is right."""
    groups = [frozenset(group) for group in outcome.groups]
    if sum(len(group) for group in groups) != len(log.classes) or (
        frozenset().union(*groups) != log.classes
    ):
        return "grouping is not an exact cover of the log's classes"
    count = len(groups)
    if constraints.min_groups is not None and count < constraints.min_groups:
        return f"{count} groups, below min_groups={constraints.min_groups}"
    if constraints.max_groups is not None and count > constraints.max_groups:
        return f"{count} groups, above max_groups={constraints.max_groups}"
    index = InstanceIndex(log, policy=config.instance_policy)
    checker = GroupChecker(log, constraints, index)
    for group in groups:
        if not checker.holds(group):
            return f"group {sorted(group)} violates the constraints"
    if config.distance == "eq1":
        expected = DistanceFunction(log, index).grouping_distance(groups)
        if not math.isclose(outcome.distance, expected, rel_tol=1e-9, abs_tol=1e-12):
            return f"distance {outcome.distance!r} != Eq. 1 {expected!r}"
    return None


def check_outcomes(outcomes, jobs, read_log, reference) -> dict[str, str]:
    """Job id -> failure reason, for every job that failed a check.

    ``outcomes`` holds every outcome of the run; ``read_log(job)``
    returns the job's input log as the program read it; ``reference``
    maps the ids of the jobs whose signature is checked to the expected
    digest (``None`` when the reference file lacks the job).
    """
    by_job: dict[str, list] = {}
    for outcome in outcomes:
        by_job.setdefault(outcome.job_id, []).append(outcome)
    failures: dict[str, str] = {}
    for job in jobs:
        runs = by_job.get(job.job_id, [])
        if not runs:
            continue
        first = runs[0]
        errors = [run.error for run in runs if run.error]
        if errors:
            failures[job.job_id] = errors[0]
        elif any(run.output() != first.output() for run in runs):
            failures[job.job_id] = "outputs differ between runs of the job"
        elif len({run.digest for run in runs if run.digest is not None}) > 1:
            failures[job.job_id] = "result signatures differ between runs of the job"
        elif job.job_id in reference and first.digest != reference[job.job_id]:
            failures[job.job_id] = "result signature differs from the reference"
        elif first.feasible:
            reason = check_grouping(first, read_log(job), job.constraints, job.config)
            if reason is not None:
                failures[job.job_id] = reason
    return failures
