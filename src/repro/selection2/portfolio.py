"""Solver portfolio: pick or race ``bnb`` vs ``scipy`` per component.

Each overlap-graph component is a small weighted set-partitioning
program.  Which backend wins depends on its shape:

* the specialized branch-and-bound solver
  (:mod:`repro.mip.branch_and_bound`) has near-zero call overhead and
  dominates on small or tightly-constrained components;
* HiGHS (:mod:`repro.mip.scipy_backend`) pays a fixed model-building
  cost per call but scales to large, dense components where the
  branch-and-bound frontier explodes.

``backend="auto"`` runs small components on a warm-started, node- and
time-capped branch-and-bound (now with the lazy LP-relaxation bound of
:mod:`repro.mip.branch_and_bound`).  When that cap blows — and on every
large component, where the portfolio previously went straight to
HiGHS — the two backends **race in true parallel**
(:func:`race_component`): branch-and-bound on one thread (cancellable
at node-interval granularity), HiGHS on another (its native solve
releases the GIL, so both genuinely run at once).  The first backend to
produce a *usable* result wins and the loser is cancelled.

**Deterministic winner rule.**  The raced result can never depend on
which thread finishes first: a result is *usable* when it is a proven
optimum or a proof of infeasibility, from either backend.  The racers
return their raw optima; only the winner's is then canonicalized
through :func:`lexmin_optimal_selection`, an exact search with no
budget, so whichever backend wins, the component resolves to the same
lex-min optimum.  A backend that fails outright simply concedes to the
other.  Only diagnostic fields (``race_winner``, ``nodes``,
``backend``) record which thread actually came first.

Auto-mode branch-and-bound runs start from a greedy incumbent (cheapest
cost-per-class exact cover), which tightens the initial upper bound and
prunes most of the tree on easy components.  Explicitly requested
backends run exactly like the monolithic path — cold, uncapped,
sequential — so decomposed and monolithic solves stay byte-identical
per backend.
"""

from __future__ import annotations

import atexit
import math
import threading
from dataclasses import dataclass, field, replace

from repro.exceptions import SolverError
from repro.mip import scipy_backend
from repro.mip.branch_and_bound import (
    SetPartitionSolver,
    SolverCancelled,
    lexmin_optimal_selection,
)
from repro.mip.result import SolverResult, SolverStatus
from repro.selection2.decompose import Component

#: Components with at most this many candidates go to branch-and-bound
#: in ``auto`` mode.
AUTO_BNB_MAX_CANDIDATES = 96

#: Node budget for the ``auto``-mode branch-and-bound attempt; exceeding
#: it escalates to the parallel race instead of failing.
AUTO_BNB_NODE_LIMIT = 200_000

#: Deterministic preference order when both racers have already
#: finished by the time the result is collected.
_RACE_ORDER = ("bnb", "scipy")

#: Racer threads abandoned mid-solve (a losing HiGHS run cannot be
#: cancelled).  Joined at interpreter exit so no thread is still inside
#: native solver code during teardown, which can abort the process.
_orphan_lock = threading.Lock()
_orphans: "list[threading.Thread]" = []


def _adopt_orphan(thread: threading.Thread) -> None:
    with _orphan_lock:
        _orphans[:] = [t for t in _orphans if t.is_alive()]
        if thread.is_alive():
            _orphans.append(thread)


@atexit.register
def _reap_orphans(timeout: float = 30.0) -> None:
    with _orphan_lock:
        pending, _orphans[:] = list(_orphans), []
    for thread in pending:
        thread.join(timeout=timeout)


@dataclass(frozen=True)
class ComponentSolution:
    """Outcome of solving one component (possibly count-constrained).

    ``groups`` are the selected candidate groups as sorted tuples (the
    representation is cache- and pickle-friendly); ``objective`` is
    their summed cost; ``nodes`` counts branch-and-bound nodes (0 for
    HiGHS); ``backend`` names the solver that produced the solution.
    ``lp_cuts`` counts prunes decided only by the LP-relaxation bound;
    ``raced``/``race_winner`` are diagnostic race accounting.  An
    optimal solution's groups are always the canonical lex-min optimum.
    """

    status: str
    groups: tuple[tuple[str, ...], ...] = ()
    objective: float | None = None
    nodes: int = 0
    backend: str = ""
    message: str = ""
    lp_cuts: int = 0
    raced: bool = False
    race_winner: str = ""

    @property
    def is_optimal(self) -> bool:
        """Whether the component was solved to proven optimality."""
        return self.status == SolverStatus.OPTIMAL.value


def choose_backend(num_classes: int, num_candidates: int) -> str:
    """``auto``-mode heuristic: branch-and-bound for small components.

    Without scipy every component goes to the dependency-free
    branch-and-bound solver (slower on large dense components, but the
    pipeline stays fully functional).
    """
    del num_classes  # the candidate count dominates the bnb frontier
    if not scipy_backend.HAVE_SCIPY:
        return "bnb"
    return "bnb" if num_candidates <= AUTO_BNB_MAX_CANDIDATES else "scipy"


def greedy_incumbent(
    component: Component,
    min_count: int | None = None,
    max_count: int | None = None,
) -> tuple[list[int], float] | None:
    """A feasible exact cover by cheapest cost-per-class greedy choice.

    Repeatedly selects, among candidates fully inside the uncovered
    classes, the one with the lowest cost share (ties broken by sorted
    member tuple for determinism).  Returns ``(positions, cost)`` or
    ``None`` when the greedy run dead-ends or violates the count
    bounds — the incumbent is an upper bound only, never required.
    """
    uncovered = set(component.classes)
    chosen: list[int] = []
    total = 0.0
    while uncovered:
        best: tuple[float, tuple[str, ...], int] | None = None
        for position, (group, cost) in enumerate(
            zip(component.candidates, component.costs)
        ):
            if not group <= uncovered:
                continue
            key = (cost / len(group), tuple(sorted(group)), position)
            if best is None or key < best:
                best = key
        if best is None:
            return None
        position = best[2]
        chosen.append(position)
        total += component.costs[position]
        uncovered -= component.candidates[position]
    if min_count is not None and len(chosen) < min_count:
        return None
    if max_count is not None and len(chosen) > max_count:
        return None
    return chosen, total


def _from_solver_result(
    outcome,
    component: Component,
    backend: str,
    min_count: int | None,
    max_count: int | None,
) -> ComponentSolution:
    if outcome.status is not SolverStatus.OPTIMAL:
        return ComponentSolution(
            status=outcome.status.value,
            nodes=outcome.nodes_explored,
            backend=backend,
            message=outcome.message,
            lp_cuts=outcome.lp_bound_cuts,
        )
    positions = sorted(
        int(name[1:]) for name in outcome.selected() if name.startswith("g")
    )
    # Canonical tie-break (see lexmin_optimal_selection): per-component
    # lex-min selections compose to the global lex-min, which is what
    # the monolithic path returns — so equal-cost optima cannot make
    # decomposed and monolithic solves diverge.
    positions = lexmin_optimal_selection(
        component.classes,
        list(component.candidates),
        list(component.costs),
        target=sum(component.costs[position] for position in positions),
        min_count=min_count,
        max_count=max_count,
    )
    groups = tuple(
        tuple(sorted(component.candidates[position])) for position in positions
    )
    return ComponentSolution(
        status=SolverStatus.OPTIMAL.value,
        groups=groups,
        objective=sum(component.costs[position] for position in positions),
        nodes=outcome.nodes_explored,
        backend=backend,
        message=outcome.message,
        lp_cuts=outcome.lp_bound_cuts,
    )


def _bnb_outcome(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    node_limit: int | None = None,
    time_limit: float | None = None,
    warm_start: bool = False,
    cancel_event=None,
) -> SolverResult:
    """Raw branch-and-bound result (the optimum is not canonicalized)."""
    incumbent = (
        greedy_incumbent(component, min_count, max_count) if warm_start else None
    )
    solver = SetPartitionSolver(
        universe=list(component.classes),
        candidates=list(component.candidates),
        costs=list(component.costs),
        min_count=min_count,
        max_count=max_count,
        incumbent=incumbent,
        time_limit=time_limit,
        cancel_event=cancel_event,
        **({"node_limit": node_limit} if node_limit is not None else {}),
    )
    return solver.solve()


def _solve_bnb(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    **options,
) -> ComponentSolution:
    return _from_solver_result(
        _bnb_outcome(component, min_count, max_count, **options),
        component, "bnb", min_count, max_count,
    )


def _scipy_outcome(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    time_limit: float | None,
) -> SolverResult:
    """Raw HiGHS result (the optimum is not canonicalized)."""
    from repro.core.selection import build_program

    program = build_program(
        list(component.candidates),
        list(component.costs),
        frozenset(component.classes),
        min_groups=min_count,
        max_groups=max_count,
    )
    return scipy_backend.solve(program, time_limit=time_limit)


def _solve_scipy(
    component: Component,
    min_count: int | None,
    max_count: int | None,
    time_limit: float | None,
) -> ComponentSolution:
    return _from_solver_result(
        _scipy_outcome(component, min_count, max_count, time_limit),
        component, "scipy", min_count, max_count,
    )


#: Racer outcomes that may decide the race: either backend's optimum
#: canonicalizes to the same selection, and infeasibility is a proof.
_USABLE = (SolverStatus.OPTIMAL, SolverStatus.INFEASIBLE)


def race_component(
    component: Component,
    min_count: int | None = None,
    max_count: int | None = None,
    time_limit: float | None = None,
    chaos=None,
) -> ComponentSolution:
    """Race branch-and-bound against HiGHS in true parallel.

    One thread runs the warm-started, LP-bounded branch-and-bound
    (cooperatively cancellable via :class:`threading.Event`), the other
    HiGHS (whose native solve releases the GIL).  The first finisher
    with an optimum or an infeasibility proof decides the component,
    and only its optimum is canonicalized (once, after the race); the
    losing branch-and-bound is cancelled at its next node-interval
    check, while a losing HiGHS solve is abandoned to its daemon
    thread.  A racer that fails outright concedes; both failing raises
    the combined :class:`SolverError`.

    ``chaos`` is a test seam: a callable invoked as ``chaos(name)``
    inside each racer thread before its solve, letting the race
    determinism suite inject seeded delays and faults per backend.
    """
    if not scipy_backend.HAVE_SCIPY:
        return _solve_bnb(
            component, min_count, max_count,
            time_limit=time_limit, warm_start=True,
        )
    cancel = threading.Event()
    finished = threading.Condition()
    outcomes: dict[str, "SolverResult | BaseException"] = {}

    def _racer(name, solve):
        outcome: "SolverResult | BaseException"
        try:
            if chaos is not None:
                chaos(name)
            outcome = solve()
        except BaseException as error:  # noqa: BLE001 - relayed to the waiter
            outcome = error
        with finished:
            outcomes[name] = outcome
            finished.notify_all()

    racers = {
        "bnb": lambda: _bnb_outcome(
            component, min_count, max_count,
            time_limit=time_limit, warm_start=True, cancel_event=cancel,
        ),
        "scipy": lambda: _scipy_outcome(component, min_count, max_count, time_limit),
    }
    threads = {
        name: threading.Thread(
            target=_racer, args=(name, solve),
            name=f"gecco-race-{name}", daemon=True,
        )
        for name, solve in racers.items()
    }
    for thread in threads.values():
        thread.start()

    winner: str | None = None
    with finished:
        while True:
            for name in _RACE_ORDER:
                outcome = outcomes.get(name)
                if isinstance(outcome, SolverResult) and outcome.status in _USABLE:
                    winner = name
                    break
            if winner is not None or len(outcomes) == len(racers):
                break
            finished.wait()
    cancel.set()
    if winner is None:
        # Neither produced a usable result (both have finished).  Prefer
        # reporting a real solver outcome (e.g. both timed out) over a
        # race artifact.
        reported = [
            name for name in _RACE_ORDER if isinstance(outcomes[name], SolverResult)
        ]
        if not reported:
            errors = "; ".join(
                f"{name}: {outcomes[name]}" for name in _RACE_ORDER
            )
            raise SolverError(f"both race backends failed ({errors})")
        winner = reported[0]
    # Let the cancelled branch-and-bound unwind (it reacts within one
    # node interval); an unfinished HiGHS solve is left to its daemon
    # thread (reaped at interpreter exit) and its late result discarded.
    if winner != "bnb":
        threads["bnb"].join(timeout=30.0)
    else:
        _adopt_orphan(threads["scipy"])
    # Canonicalize once, here, rather than in both racer threads.
    solution = _from_solver_result(
        outcomes[winner], component, winner, min_count, max_count
    )
    return replace(solution, raced=True, race_winner=winner)


def solve_component(
    component: Component,
    backend: str = "scipy",
    min_count: int | None = None,
    max_count: int | None = None,
    time_limit: float | None = None,
    deadline=None,
    race: bool | None = None,
    race_chaos=None,
) -> ComponentSolution:
    """Solve one component with the requested backend (or the portfolio).

    ``backend`` is ``"scipy"``, ``"bnb"``, or ``"auto"``.  Explicit
    backends replicate the monolithic solver behavior exactly (no warm
    start, default node limit, HiGHS-only time limits).  ``"auto"``
    runs small components on a warm-started, node- and time-capped
    branch-and-bound; large components — and small ones whose node cap
    blows — go to the parallel race of :func:`race_component` (``race``
    forces the race on/off; the default follows this auto policy).

    ``deadline`` (a :class:`~repro.service.resilience.Deadline`) checks
    the remaining end-to-end budget at entry and caps ``time_limit`` to
    it — including on the otherwise-uncapped explicit ``"bnb"`` path.
    A solve that runs out of the capped budget fails typed
    (:class:`~repro.service.resilience.DeadlineExceeded`), never by
    degrading the solution: any solve that *finishes* returns exactly
    what the unbudgeted run would.
    """
    if backend not in ("bnb", "scipy", "auto"):
        raise SolverError(
            f"unknown component backend {backend!r}; use 'scipy', 'bnb', or 'auto'"
        )
    bnb_time_limit = None
    if deadline is not None:
        deadline.check("component solve")
        time_limit = deadline.cap(time_limit)
        bnb_time_limit = time_limit
    try:
        if backend == "bnb":
            return _solve_bnb(
                component, min_count, max_count, time_limit=bnb_time_limit
            )
        if backend == "scipy":
            return _solve_scipy(component, min_count, max_count, time_limit)
        racing = race if race is not None else scipy_backend.HAVE_SCIPY
        if choose_backend(component.num_classes, component.num_candidates) == "bnb":
            try:
                return _solve_bnb(
                    component,
                    min_count,
                    max_count,
                    node_limit=AUTO_BNB_NODE_LIMIT if scipy_backend.HAVE_SCIPY else None,
                    time_limit=time_limit,
                    warm_start=True,
                )
            except SolverCancelled:
                raise
            except SolverError:
                # Node/time budget exhausted: escalate to the race
                # (previously: sequential HiGHS fallback).
                if racing:
                    return race_component(
                        component, min_count, max_count,
                        time_limit=time_limit, chaos=race_chaos,
                    )
        elif racing:
            return race_component(
                component, min_count, max_count,
                time_limit=time_limit, chaos=race_chaos,
            )
        return _solve_scipy(component, min_count, max_count, time_limit)
    except SolverError:
        # A budget-exhausted solver under a deadline cap is a deadline
        # failure, not a solver defect — surface it typed.
        if deadline is not None and deadline.expired():
            from repro.service.resilience import DeadlineExceeded

            raise DeadlineExceeded(
                "component solve exhausted the deadline budget"
            ) from None
        raise


def count_bounds(component: Component) -> tuple[int, int]:
    """Feasible-count envelope ``(k_min, k_max)`` of a component.

    Any exact cover uses at least ``⌈classes / largest candidate⌉`` and
    at most ``|classes|`` groups; counts outside the envelope need not
    be enumerated when building Eq. 5 Pareto fronts.
    """
    largest = max((len(group) for group in component.candidates), default=1)
    k_min = math.ceil(component.num_classes / largest) if component.num_classes else 0
    return k_min, component.num_classes
