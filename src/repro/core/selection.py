"""Step 2: selecting an optimal grouping from the candidates (paper §V-C).

Given the candidate groups of Step 1, this module builds the bipartite
candidate/class structure (Fig. 7) and solves the weighted
set-partitioning MIP

    minimize    Σ dist(g_i) · selected_i
    subject to  every event class covered by exactly one selected group
                (Eqs. 3–4), and optional bounds on the number of
                selected groups (Eq. 5),

with one of two backends:

* ``"scipy"`` — the paper-literal binary program (including the
  auxiliary ``covered`` variables of Eqs. 3–4) handed to HiGHS via
  :mod:`repro.mip.scipy_backend`; this is the Gurobi stand-in;
* ``"bnb"`` — the specialized branch-and-bound set-partitioning solver
  of :mod:`repro.mip.branch_and_bound`.

Both backends are exact; tests cross-check their objectives.  When the
problem is infeasible the paper's behavior is reproduced upstream:
GECCO returns the original log plus an infeasibility report.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.distance import DistanceFunction
from repro.core.grouping import Grouping
from repro.eventlog.events import EventLog
from repro.exceptions import SolverError
from repro.mip.branch_and_bound import SetPartitionSolver, lexmin_optimal_selection
from repro.mip.model import EQ, GE, LE, BinaryProgram
from repro.mip.result import SolverStatus
from repro.mip import scipy_backend

#: Supported Step-2 backends.
BACKENDS = ("scipy", "bnb")

#: Accepted ``GeccoConfig.solver`` values: the exact backends plus
#: ``"auto"``, which lets the portfolio of
#: :mod:`repro.selection2.portfolio` pick per program (or per component
#: in decomposed mode).
SOLVER_CHOICES = BACKENDS + ("auto",)


@dataclass
class SelectionResult:
    """Outcome of Step 2."""

    grouping: Grouping | None
    objective: float | None
    status: SolverStatus
    seconds: float = 0.0
    num_candidates: int = 0
    solver_message: str = ""
    #: The backend that ran (``"scipy"`` or ``"bnb"``; the requested
    #: name for decomposed solves, which may mix backends per component).
    backend: str = ""
    #: Branch-and-bound nodes explored (0 when HiGHS solved).
    nodes: int = 0
    #: Prunes decided only by the LP-relaxation dual bound (bnb only).
    lp_cuts: int = 0

    @property
    def feasible(self) -> bool:
        return self.status is SolverStatus.OPTIMAL and self.grouping is not None


def build_program(
    candidates: list[frozenset[str]],
    costs: list[float],
    universe: frozenset[str],
    min_groups: int | None = None,
    max_groups: int | None = None,
) -> BinaryProgram:
    """Build the paper-literal binary program (Eqs. 3–5).

    Variables ``g<i>`` select candidate groups; variables ``c<j>`` mark
    classes as covered.  Eq. 4 ties the two (each class is covered by
    exactly the number of selected groups containing it — forced to one
    by binarity), Eq. 3 requires all classes covered.
    """
    program = BinaryProgram()
    class_order = sorted(universe)
    for position, cost in enumerate(costs):
        program.add_variable(f"g{position}", cost)
    for j, _cls in enumerate(class_order):
        program.add_variable(f"c{j}", 0.0)

    # Eq. 3: Σ covered_cj = |C_L|
    program.add_constraint(
        {f"c{j}": 1.0 for j in range(len(class_order))},
        EQ,
        float(len(class_order)),
        name="all-covered",
    )
    # Eq. 4: Σ_{(g_i, c_j) ∈ E} selected_gi = covered_cj  ∀ c_j
    for j, cls in enumerate(class_order):
        coefficients = {
            f"g{i}": 1.0
            for i, candidate in enumerate(candidates)
            if cls in candidate
        }
        coefficients[f"c{j}"] = -1.0
        program.add_constraint(coefficients, EQ, 0.0, name=f"cover[{cls}]")
    # Eq. 5: bounds on the number of selected groups.
    selector = {f"g{i}": 1.0 for i in range(len(candidates))}
    if max_groups is not None:
        program.add_constraint(dict(selector), LE, float(max_groups), name="max-groups")
    if min_groups is not None:
        program.add_constraint(dict(selector), GE, float(min_groups), name="min-groups")
    return program


def select_optimal_grouping(
    log: EventLog,
    candidates: set[frozenset[str]],
    distance: DistanceFunction,
    min_groups: int | None = None,
    max_groups: int | None = None,
    backend: str = "scipy",
    time_limit: float | None = None,
) -> SelectionResult:
    """Pick the distance-minimal exact cover among ``candidates``.

    ``backend="auto"`` defers the scipy-vs-bnb choice to the portfolio
    heuristic of :mod:`repro.selection2.portfolio` based on the
    program's size.
    """
    if backend not in SOLVER_CHOICES:
        raise SolverError(
            f"unknown Step-2 backend {backend!r}; use one of {SOLVER_CHOICES}"
        )
    started = time.perf_counter()
    universe = log.classes
    ordered = sorted(candidates, key=lambda group: sorted(group))
    costs = [distance.group_distance(group) for group in ordered]
    if backend == "auto":
        from repro.selection2.portfolio import choose_backend

        backend = choose_backend(len(universe), len(ordered))

    if backend == "bnb":
        solver = SetPartitionSolver(
            universe=sorted(universe),
            candidates=ordered,
            costs=costs,
            min_count=min_groups,
            max_count=max_groups,
        )
        outcome = solver.solve()
    else:
        program = build_program(ordered, costs, universe, min_groups, max_groups)
        outcome = scipy_backend.solve(program, time_limit=time_limit)

    elapsed = time.perf_counter() - started
    if outcome.status is not SolverStatus.OPTIMAL:
        return SelectionResult(
            grouping=None,
            objective=None,
            status=outcome.status,
            seconds=elapsed,
            num_candidates=len(ordered),
            solver_message=outcome.message,
            backend=backend,
            nodes=outcome.nodes_explored,
            lp_cuts=outcome.lp_bound_cuts,
        )

    positions = sorted(
        int(name[1:]) for name in outcome.selected() if name.startswith("g")
    )
    # Canonical tie-break: equal-cost optima exist, and which one a
    # backend returns depends on matrix layout — replace the backend's
    # pick with the lexicographically-smallest optimal selection so
    # scipy/bnb and monolithic/decomposed all agree byte-for-byte.
    positions = lexmin_optimal_selection(
        sorted(universe),
        ordered,
        costs,
        target=sum(costs[position] for position in positions),
        min_count=min_groups,
        max_count=max_groups,
    )
    selected = [ordered[position] for position in positions]
    grouping = Grouping(selected, universe)
    objective = sum(distance.group_distance(group) for group in selected)
    return SelectionResult(
        grouping=grouping,
        objective=objective,
        status=SolverStatus.OPTIMAL,
        seconds=elapsed,
        num_candidates=len(ordered),
        solver_message=outcome.message,
        backend=backend,
        nodes=outcome.nodes_explored,
        lp_cuts=outcome.lp_bound_cuts,
    )
