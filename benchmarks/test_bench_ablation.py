"""Ablations of GECCO's design choices (DESIGN.md §6).

Not a paper table — these benches quantify the knobs the paper
motivates qualitatively:

* beam width k: candidate count and quality vs. runtime (behind DFGk),
* exclusive-candidate merging on/off (behind Alg. 3),
* Step-2 backend: HiGHS vs. own branch-and-bound,
* instance-splitting policy: repeat-split vs. none.
"""

import time

import pytest

from conftest import write_result

from repro.core.checker import GroupChecker
from repro.core.dfg_candidates import dfg_candidates
from repro.core.distance import DistanceFunction
from repro.core.exclusive import merge_exclusive_candidates
from repro.core.gecco import Gecco, GeccoConfig
from repro.core.instances import InstanceIndex
from repro.core.selection import select_optimal_grouping
from repro.experiments.configs import constraint_set_for_log
from repro.experiments.tables import format_table


@pytest.fixture(scope="module")
def ablation_log(collection):
    return collection["bpic17"]


@pytest.fixture(scope="module")
def ablation_constraints(ablation_log):
    return constraint_set_for_log("A", ablation_log)


def test_beam_width_sweep(ablation_log, ablation_constraints, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows, seconds = [], []
    for k in (5, 10, 25, 50, 100, None):
        started = time.perf_counter()
        gecco = Gecco(
            ablation_constraints,
            GeccoConfig(strategy="dfg", beam_width=k),
        )
        result = gecco.abstract(ablation_log)
        elapsed = time.perf_counter() - started
        rows.append(
            [
                "inf" if k is None else k,
                result.num_candidates,
                len(result.grouping) if result.feasible else "-",
                round(result.distance, 3) if result.feasible else "-",
            ]
        )
        seconds.append(round(elapsed, 3))
    rendered = format_table(
        ["k", "candidates", "|G|", "dist"],
        rows,
        title="Ablation: beam width (DFG-based candidates)",
    )
    write_result("ablation_beam_width.txt", rendered)
    print("\n" + rendered)
    print("seconds:", seconds)

    # Wider beams can only improve (or match) the achieved distance.
    distances = [row[3] for row in rows if row[3] != "-"]
    assert distances == sorted(distances, reverse=True) or len(set(distances)) <= 2


def test_exclusive_merging_ablation(running_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    from repro.constraints import ConstraintSet, MaxDistinctClassAttribute
    from repro.eventlog.events import ROLE_KEY

    constraints = ConstraintSet([MaxDistinctClassAttribute(ROLE_KEY, 1)])
    with_merge = Gecco(
        constraints, GeccoConfig(exclusive_merging=True)
    ).abstract(running_log)
    without = Gecco(
        constraints, GeccoConfig(exclusive_merging=False)
    ).abstract(running_log)
    rendered = format_table(
        ["exclusive merging", "candidates", "|G|", "dist"],
        [
            ["on", with_merge.num_candidates, len(with_merge.grouping),
             round(with_merge.distance, 3)],
            ["off", without.num_candidates, len(without.grouping),
             round(without.distance, 3)],
        ],
        title="Ablation: Alg. 3 exclusive-candidate merging (running example)",
    )
    write_result("ablation_exclusive.txt", rendered)
    print("\n" + rendered)
    assert with_merge.distance <= without.distance


def test_solver_backend_ablation(ablation_log, ablation_constraints, benchmark):
    checker = GroupChecker(ablation_log, ablation_constraints)
    distance = DistanceFunction(ablation_log, checker.instances)
    candidates = dfg_candidates(
        ablation_log, ablation_constraints, checker=checker
    ).groups
    candidates, _ = merge_exclusive_candidates(ablation_log, candidates, checker)

    results = {}
    timings = {}
    for backend in ("scipy", "bnb"):
        started = time.perf_counter()
        results[backend] = select_optimal_grouping(
            ablation_log, candidates, distance, backend=backend
        )
        timings[backend] = time.perf_counter() - started
    rendered = format_table(
        ["backend", "objective"],
        [[backend, round(results[backend].objective, 4)] for backend in ("scipy", "bnb")],
        title=f"Ablation: Step-2 backend ({len(candidates)} candidates)",
    )
    write_result("ablation_solver.txt", rendered)
    print("\n" + rendered)
    print("seconds:", {backend: round(timings[backend], 3) for backend in timings})
    assert results["scipy"].objective == pytest.approx(
        results["bnb"].objective, abs=1e-6
    )

    benchmark(
        select_optimal_grouping, ablation_log, candidates, distance, backend="scipy"
    )


def test_instance_policy_ablation(running_log, benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = []
    for policy in ("repeat", "none"):
        index = InstanceIndex(running_log, policy=policy)
        count = index.count(frozenset({"rcp", "ckc", "ckt"}))
        distance = DistanceFunction(running_log, index)
        dist = distance.group_distance({"rcp", "ckc", "ckt"})
        rows.append([policy, count, round(dist, 4)])
    rendered = format_table(
        ["policy", "|inst(L, g_clrk1)|", "dist(g_clrk1)"],
        rows,
        title="Ablation: instance-splitting policy (running example)",
    )
    write_result("ablation_instance_policy.txt", rendered)
    print("\n" + rendered)
    by_policy = {row[0]: row for row in rows}
    # Repeat-split detects the recurring behavior in sigma_4: 5 instances;
    # without splitting the projection is one instance per trace: 4.
    assert by_policy["repeat"][1] == 5
    assert by_policy["none"][1] == 4
