"""Solver conformance & property harness for the Step-2 frontier.

Locks down the three solver-frontier behaviors:

* **LP-relaxation bound admissibility** — the dual-price lower bound of
  :class:`~repro.mip.branch_and_bound.SetPartitionSolver` never exceeds
  the true optimum on hypothesis-generated weighted set-partitioning
  instances, so enabling it can never change the returned selection.
* **Backend conformance** — ``bnb``, ``bnb + LP``, and HiGHS produce
  byte-identical canonical groupings (the lex-min tie-break) for every
  instance, including tied costs, Eq. 5 count bounds, and infeasible
  programs.
* **Race determinism** — the parallel bnb-vs-HiGHS race returns the
  same grouping under any seeded delay/fault schedule, including
  mid-solve cancellation of the losing branch-and-bound.
* **Exact lex-min search** — :func:`lexmin_optimal_selection` returns
  the brute-force lex-min optimum on tie-dense instances (no scipy
  needed), and the same positions as the earlier budgeted search on the
  ``loan:60`` manifest programs.
"""

from __future__ import annotations

import random
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import SolverError
from repro.mip import scipy_backend
from repro.mip.branch_and_bound import (
    SetPartitionSolver,
    SolverCancelled,
    lexmin_optimal_selection,
)
from repro.mip.result import SolverStatus
from repro.selection2 import Component, solve_component
from repro.selection2.portfolio import race_component
from repro.selection2.stats import SelectionStats

needs_scipy = pytest.mark.skipif(
    not scipy_backend.HAVE_SCIPY, reason="scipy (HiGHS) not installed"
)


# -- instance generation & reference oracle -----------------------------


def brute_force(classes, candidates, costs, min_count=None, max_count=None):
    """``(cost, lex-min positions)`` of the optimal exact cover, or ``None``.

    Exhaustive enumeration over candidate subsets; costs are multiples
    of 0.5 so equal-cost comparisons are float-exact and the lex-min
    argmin among the optima is well-defined.
    """
    universe = frozenset(classes)
    n = len(candidates)
    best = None
    for bits in range(1 << n):
        positions = [i for i in range(n) if bits >> i & 1]
        if min_count is not None and len(positions) < min_count:
            continue
        if max_count is not None and len(positions) > max_count:
            continue
        covered: set = set()
        total = 0.0
        disjoint = True
        for position in positions:
            if covered & candidates[position]:
                disjoint = False
                break
            covered |= candidates[position]
            total += costs[position]
        if not disjoint or covered != universe:
            continue
        if (
            best is None
            or total < best[0]
            or (total == best[0] and positions < best[1])
        ):
            best = (total, positions)
    return best


@st.composite
def partition_instances(draw):
    """Random weighted set-partitioning instances, biased toward ties.

    Candidates are in the repo's canonical order (sorted by sorted
    member tuple); costs come from a small half-integer grid so
    equal-cost optima are common and the lex-min tie-break is
    exercised, not just tolerated.
    """
    num_classes = draw(st.integers(min_value=2, max_value=6))
    classes = [f"c{i}" for i in range(num_classes)]
    groups = draw(
        st.lists(
            st.sets(st.sampled_from(classes), min_size=1),
            min_size=1,
            max_size=10,
        )
    )
    if draw(st.booleans()):
        groups.extend({cls} for cls in classes)  # guarantee feasibility
    candidates = sorted(
        {frozenset(group) for group in groups}, key=lambda g: sorted(g)
    )
    costs = [
        draw(st.integers(min_value=0, max_value=6)) / 2.0 for _ in candidates
    ]
    max_count = draw(
        st.one_of(st.none(), st.integers(min_value=1, max_value=num_classes))
    )
    return classes, candidates, costs, max_count


def _component(classes, candidates, costs) -> Component:
    return Component(
        classes=tuple(classes),
        candidates=tuple(candidates),
        costs=tuple(costs),
    )


def _dense_instance(num_classes=14, num_candidates=160, seed=7):
    """A dense instance whose bnb tree is big enough for LP cuts."""
    rng = random.Random(seed)
    classes = [f"c{i:02d}" for i in range(num_classes)]
    candidates = [frozenset([cls]) for cls in classes]
    seen = set(candidates)
    while len(candidates) < num_candidates:
        group = frozenset(rng.sample(classes, rng.randint(2, 4)))
        if group not in seen:
            seen.add(group)
            candidates.append(group)
    costs = [round(rng.uniform(1.0, 6.0) * 2) / 2.0 for _ in candidates]
    return classes, candidates, costs


def _canonical_positions(solver_result, classes, candidates, costs, max_count):
    positions = sorted(
        int(name[1:])
        for name in solver_result.selected()
        if name.startswith("g")
    )
    return lexmin_optimal_selection(
        sorted(classes),
        list(candidates),
        list(costs),
        target=sum(costs[position] for position in positions),
        max_count=max_count,
    )


# -- LP bound admissibility ---------------------------------------------


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_lp_bound_is_admissible(instance):
    classes, candidates, costs, max_count = instance
    reference = brute_force(classes, candidates, costs, max_count=max_count)
    solver = SetPartitionSolver(
        universe=classes,
        candidates=candidates,
        costs=costs,
        max_count=max_count,
    )
    solver._solve_lp_relaxation()
    if solver._dual is None:
        return  # LP unavailable/failed: nothing to certify
    root_bound = solver._dual_bound(frozenset())
    if reference is not None:
        # Admissibility at the root: the dual bound never exceeds the
        # optimum, so the optimum itself is never pruned.
        assert root_bound <= reference[0] + 1e-9


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_lp_bound_preserves_exact_solution(instance):
    classes, candidates, costs, max_count = instance
    plain = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        max_count=max_count,
    ).solve()
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        max_count=max_count, lp_bound=True,
    ).solve()
    assert plain.status is bounded.status
    if plain.status is SolverStatus.OPTIMAL:
        assert _canonical_positions(
            plain, classes, candidates, costs, max_count
        ) == _canonical_positions(bounded, classes, candidates, costs, max_count)
        assert bounded.nodes_explored <= plain.nodes_explored


def test_lp_bound_strictly_reduces_nodes():
    if not scipy_backend.HAVE_SCIPY:
        pytest.skip("scipy (HiGHS) not installed")
    classes, candidates, costs = _dense_instance()
    plain = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs
    ).solve()
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs, lp_bound=True
    ).solve()
    assert plain.status is SolverStatus.OPTIMAL
    assert bounded.status is SolverStatus.OPTIMAL
    assert bounded.objective == pytest.approx(plain.objective)
    assert bounded.lp_bound_cuts > 0
    assert bounded.nodes_explored < plain.nodes_explored
    assert plain.lp_bound_cuts == 0


def test_lp_bound_off_without_scipy(monkeypatch):
    """The LP path degrades to the cost-share bound when scipy is absent."""
    monkeypatch.setattr(scipy_backend, "HAVE_SCIPY", False)
    classes, candidates, costs = _dense_instance(num_classes=8, num_candidates=40)
    solver = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs, lp_bound=True
    )
    outcome = solver.solve()
    assert outcome.status is SolverStatus.OPTIMAL
    assert outcome.lp_bound_cuts == 0
    assert solver._dual is None


# -- backend conformance (bnb ± LP ≡ HiGHS, lex-min stability) ----------


@needs_scipy
@settings(max_examples=60, deadline=None)
@given(partition_instances())
def test_backends_byte_identical(instance):
    classes, candidates, costs, max_count = instance
    component = _component(classes, candidates, costs)
    reference = brute_force(classes, candidates, costs, max_count=max_count)
    outcomes = {
        backend: solve_component(component, backend=backend, max_count=max_count)
        for backend in ("bnb", "scipy", "auto")
    }
    bounded = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        max_count=max_count, lp_bound=True,
    ).solve()

    if reference is None:
        for backend, solution in outcomes.items():
            assert solution.status == SolverStatus.INFEASIBLE.value, backend
        assert bounded.status is SolverStatus.INFEASIBLE
        return

    expected_cost, expected_positions = reference
    expected_groups = tuple(
        tuple(sorted(candidates[position])) for position in expected_positions
    )
    for backend, solution in outcomes.items():
        assert solution.is_optimal, backend
        assert solution.objective == pytest.approx(expected_cost), backend
        # Byte-identical groupings: the canonical lex-min optimum,
        # regardless of which backend (or race) produced it.
        assert solution.groups == expected_groups, backend
    assert _canonical_positions(
        bounded, classes, candidates, costs, max_count
    ) == list(expected_positions)


@needs_scipy
@settings(max_examples=40, deadline=None)
@given(partition_instances(), st.randoms(use_true_random=False))
def test_lexmin_stable_under_candidate_shuffle(instance, rng):
    """The selected *groups* ignore the order candidates were generated in.

    Any presentation order, once canonically sorted (as every call site
    sorts), yields the same lex-min optimum — ties are broken by group
    content, never by arrival order.
    """
    classes, candidates, costs, max_count = instance
    paired = list(zip(candidates, costs))
    rng.shuffle(paired)
    resorted = sorted(paired, key=lambda pair: sorted(pair[0]))
    shuffled = _component(
        classes, [pair[0] for pair in resorted], [pair[1] for pair in resorted]
    )
    original = solve_component(
        _component(classes, candidates, costs), backend="bnb", max_count=max_count
    )
    again = solve_component(shuffled, backend="bnb", max_count=max_count)
    assert original.status == again.status
    assert original.groups == again.groups


# -- exact lex-min search -----------------------------------------------


@st.composite
def tie_dense_instances(draw):
    """Instances whose costs come from {0.5, 1.0, 1.5}: optima tie often."""
    num_classes = draw(st.integers(min_value=2, max_value=6))
    classes = [f"c{i}" for i in range(num_classes)]
    groups = draw(
        st.lists(
            st.sets(st.sampled_from(classes), min_size=1, max_size=3),
            min_size=1,
            max_size=10,
        )
    )
    if draw(st.booleans()):
        groups.extend({cls} for cls in classes)
    candidates = sorted(
        {frozenset(group) for group in groups}, key=lambda g: sorted(g)
    )
    costs = [draw(st.sampled_from((0.5, 1.0, 1.5))) for _ in candidates]
    bound = st.one_of(st.none(), st.integers(min_value=1, max_value=num_classes))
    return classes, candidates, costs, draw(bound), draw(bound)


@settings(max_examples=300, deadline=None)
@given(tie_dense_instances())
def test_lexmin_matches_brute_force_on_ties(instance):
    classes, candidates, costs, min_count, max_count = instance
    reference = brute_force(classes, candidates, costs, min_count, max_count)
    if reference is None:
        return
    expected_cost, expected_positions = reference
    assert lexmin_optimal_selection(
        classes, candidates, costs, target=expected_cost,
        min_count=min_count, max_count=max_count,
    ) == expected_positions
    # Below the optimum no selection qualifies: the search says so
    # instead of returning a partial or budget-dependent answer.
    with pytest.raises(SolverError):
        lexmin_optimal_selection(
            classes, candidates, costs, target=expected_cost - 0.5,
            min_count=min_count, max_count=max_count,
        )


#: ``loan_application_log(num_traces=60)`` manifest rows -> the lex-min
#: positions the earlier node-budgeted search returned for their
#: Step-2 programs (one component each: 138/215/298/390/613 candidates).
LOAN60_LEXMIN = {
    (("max_group_size", 3),): [6, 13, 23, 31, 34, 46, 56, 63, 111],
    (("max_group_size", 4),): [12, 33, 59, 87, 116, 128, 168],
    (("max_group_size", 5),): [31, 69, 103, 135, 204, 245],
    (("max_group_size", 6),): [16, 125, 166, 248, 335],
    **{
        (("max_group_size", 8), ("max_groups", bound)): [60, 313, 367, 472]
        for bound in (4, 5, 6, 7)
    },
}


def test_lexmin_regression_on_loan60_programs(monkeypatch):
    from repro.constraints.parser import parse_constraints
    from repro.core.gecco import Gecco, GeccoConfig, prepare_artifacts
    from repro.datasets import loan_application_log
    from repro.selection2 import portfolio

    calls = []

    def recording(*args, **kwargs):
        positions = lexmin_optimal_selection(*args, **kwargs)
        calls.append(positions)
        return positions

    monkeypatch.setattr(portfolio, "lexmin_optimal_selection", recording)
    log = loan_application_log(num_traces=60)
    config = GeccoConfig(beam_width="auto")
    artifacts = prepare_artifacts(log, config)
    for row, expected in LOAN60_LEXMIN.items():
        constraints = parse_constraints(
            [{"type": kind, "bound": bound} for kind, bound in row]
        )
        calls.clear()
        result = Gecco(constraints, config).abstract(log, artifacts=artifacts)
        assert result.feasible, row
        # One canonicalization per component, even when it was raced.
        assert calls == [expected], row


# -- race determinism ---------------------------------------------------


class ChaosSchedule:
    """Seeded per-backend delay/fault injection for the race seam."""

    def __init__(self, delays=None, faults=()):
        self.delays = delays or {}
        self.faults = frozenset(faults)
        self.invoked: list[str] = []

    def __call__(self, name: str) -> None:
        self.invoked.append(name)
        if name in self.faults:
            raise RuntimeError(f"chaos fault injected into {name!r}")
        delay = self.delays.get(name, 0.0)
        if delay:
            time.sleep(delay)


@needs_scipy
def test_race_grouping_invariant_to_finish_order():
    classes, candidates, costs = _dense_instance(num_classes=9, num_candidates=48)
    component = _component(classes, candidates, costs)
    baseline = solve_component(component, backend="scipy")
    assert baseline.is_optimal

    schedules = [ChaosSchedule()]
    for seed in range(6):
        rng = random.Random(seed)
        schedules.append(
            ChaosSchedule(
                delays={
                    "bnb": rng.uniform(0.0, 0.02),
                    "scipy": rng.uniform(0.0, 0.02),
                }
            )
        )
    # One racer faulting must concede the race, not corrupt it.
    schedules.append(ChaosSchedule(faults=("bnb",)))
    schedules.append(ChaosSchedule(faults=("scipy",)))

    for schedule in schedules:
        raced = race_component(component, chaos=schedule)
        assert raced.raced
        assert raced.race_winner in ("bnb", "scipy")
        assert raced.is_optimal
        assert raced.groups == baseline.groups, vars(schedule)
        assert set(schedule.invoked) == {"bnb", "scipy"}


@needs_scipy
def test_race_survives_midsolve_cancellation():
    """A losing bnb deep in its tree is cancelled without changing groups."""
    classes, candidates, costs = _dense_instance(
        num_classes=16, num_candidates=220, seed=11
    )
    component = _component(classes, candidates, costs)
    baseline = solve_component(component, backend="scipy")
    raced = race_component(
        component, chaos=ChaosSchedule(delays={"bnb": 0.001})
    )
    assert raced.is_optimal
    assert raced.groups == baseline.groups


@needs_scipy
def test_race_both_backends_fail():
    classes, candidates, costs = _dense_instance(num_classes=5, num_candidates=12)
    component = _component(classes, candidates, costs)
    with pytest.raises(SolverError):
        race_component(
            component, chaos=ChaosSchedule(faults=("bnb", "scipy"))
        )


def test_cancel_event_aborts_search():
    classes, candidates, costs = _dense_instance()
    cancel = threading.Event()
    cancel.set()
    solver = SetPartitionSolver(
        universe=classes, candidates=candidates, costs=costs,
        cancel_event=cancel,
    )
    with pytest.raises(SolverCancelled):
        solver.solve()


@needs_scipy
def test_forced_race_through_solve_component():
    classes, candidates, costs = _dense_instance(num_classes=8, num_candidates=30)
    component = _component(classes, candidates, costs)
    sequential = solve_component(component, backend="auto", race=False)
    raced = solve_component(component, backend="auto", race=True)
    # ``auto`` keeps small components on warm bnb even when racing is
    # allowed; force the race path directly for the comparison too.
    direct = race_component(component)
    assert sequential.is_optimal and direct.is_optimal
    assert sequential.groups == raced.groups == direct.groups


# -- stats surfacing ----------------------------------------------------


def test_selection_stats_fold_race_and_lp_counters():
    stats = SelectionStats()
    from repro.selection2.portfolio import ComponentSolution

    stats.record_solution(
        ComponentSolution(
            status=SolverStatus.OPTIMAL.value,
            groups=(("a",),),
            objective=1.0,
            nodes=7,
            lp_cuts=3,
            raced=True,
            race_winner="scipy",
        )
    )
    stats.record_solution(
        ComponentSolution(
            status=SolverStatus.OPTIMAL.value,
            groups=(("b",),),
            objective=1.0,
            nodes=5,
        )
    )
    rendered = stats.as_dict()
    assert rendered["nodes_explored"] == 12
    assert rendered["lp_bound_cuts"] == 3
    assert rendered["races"] == 1
    assert rendered["race_winner"] == {"scipy": 1}
    back = SelectionStats.from_dict(rendered)
    assert back.nodes == 12
    assert back.lp_bound_cuts == 3
    assert back.races == 1
    assert back.race_winner == {"scipy": 1}
