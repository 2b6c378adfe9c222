"""Self-contained branch-and-bound solver for weighted set partitioning.

GECCO's Step-2 MIP is a *weighted exact cover*: pick disjoint candidate
groups covering every event class exactly once at minimal total
distance, optionally with bounds on the number of picked groups
(paper Eqs. 3–5).  This solver exploits that structure directly and
serves both as a Gurobi-free fallback and as an independent oracle to
cross-check the HiGHS backend in tests.

Search strategy
---------------
* **Branching**: always extend the uncovered class with the fewest
  compatible candidates (minimum-remaining-values), trying candidates
  in ascending cost-per-class order so good incumbents appear early.
* **Bounding**: the cost of covering the remaining classes is bounded
  from below by the sum, over uncovered classes, of the cheapest
  *cost share* ``cost(g)/|g|`` among candidates containing the class —
  admissible because any partition charges each class exactly its
  group's share, which is at least the class's minimum share.
* **LP-relaxation bounding** (scipy-gated): on programs where the
  search survives past an activation node budget, the LP relaxation of
  the covering program is solved once and its per-class dual prices
  ``y`` replace the cost shares wherever they are tighter.  Corrected
  to exact dual feasibility (``Σ_{c∈g} y_c ≤ cost(g)`` for every
  candidate, re-verified with :func:`math.fsum` and shaved by a
  float-summation safety margin), the prices bound any exact cover of
  the remaining classes from below by ``Σ_{c uncovered} y_c`` — an
  admissible bound that prunes far deeper than cost shares on dense
  components.  Without scipy the solver silently keeps the cost-share
  bound; either way the returned selection is *identical* (an
  admissible bound never prunes the first optimum in DFS order, and
  adoption requires strict improvement).
* **Cardinality pruning**: a partial solution with ``m`` groups is
  pruned when ``m`` exceeds the maximum, when even one group per
  remaining class cannot reach the minimum, or when the remaining
  classes cannot be covered with few enough groups given the largest
  candidate size.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Sequence

from repro.exceptions import SolverError
from repro.mip.result import SolverResult, SolverStatus

#: How often (in nodes) the search checks its wall-clock deadline and
#: cooperative cancellation event.
_TIME_CHECK_INTERVAL = 1024

#: ``lp_bound=None`` (auto) solves the LP relaxation only once the
#: search has burned this many nodes: easy instances never pay the
#: linprog call, hard ones amortize it over deep pruning.
LP_ACTIVATION_NODES = 2048


class SolverCancelled(SolverError):
    """The search was cooperatively cancelled (portfolio race lost)."""


class SetPartitionSolver:
    """Branch-and-bound solver for one weighted set-partitioning instance.

    Parameters
    ----------
    universe:
        Event classes that must each be covered exactly once.
    candidates:
        Candidate groups (subsets of the universe).
    costs:
        Cost per candidate, parallel to ``candidates``.  Costs must be
        non-negative for the bound to be admissible.
    min_count / max_count:
        Optional bounds on the number of selected candidates.
    node_limit:
        Safety valve on explored search nodes.
    incumbent:
        Optional warm start ``(positions, cost)`` — a known feasible
        selection (e.g. a greedy cover) whose cost seeds the upper
        bound, so the search starts pruning immediately.  The incumbent
        is validated (disjoint, exactly covering, within the count
        bounds); the search returns it unchanged only when nothing
        strictly cheaper exists.
    time_limit:
        Optional wall-clock budget in seconds; exceeding it raises
        :class:`SolverError` (the portfolio layer catches this and
        falls back to another backend).
    lp_bound:
        ``True`` solves the LP relaxation up front for dual-price
        bounds, ``False`` keeps the cost-share bound only, ``None``
        (default) activates the LP lazily after
        :data:`LP_ACTIVATION_NODES` search nodes.  Ignored (cost-share
        only) when scipy is unavailable; the returned selection is
        identical in every case.
    cancel_event:
        Optional :class:`threading.Event`; once set, the search raises
        :class:`SolverCancelled` at the next node-interval check (the
        portfolio race uses this for first-finisher cancellation).
    """

    def __init__(
        self,
        universe: Sequence[str],
        candidates: Sequence[frozenset[str]],
        costs: Sequence[float],
        min_count: int | None = None,
        max_count: int | None = None,
        node_limit: int = 2_000_000,
        incumbent: "tuple[Sequence[int], float] | None" = None,
        time_limit: float | None = None,
        lp_bound: bool | None = None,
        cancel_event=None,
    ):
        if len(candidates) != len(costs):
            raise SolverError("candidates and costs must have equal length")
        if any(cost < 0 for cost in costs):
            raise SolverError("set-partition costs must be non-negative")
        self.universe = tuple(sorted(set(universe)))
        self.candidates = [frozenset(candidate) for candidate in candidates]
        for candidate in self.candidates:
            if not candidate <= set(self.universe):
                raise SolverError(
                    f"candidate {sorted(candidate)} is not a subset of the universe"
                )
            if not candidate:
                raise SolverError("empty candidate group")
        self.costs = [float(cost) for cost in costs]
        self.min_count = min_count
        self.max_count = max_count
        self.node_limit = node_limit

        self._by_class: dict[str, list[int]] = {cls: [] for cls in self.universe}
        for position, candidate in enumerate(self.candidates):
            for cls in candidate:
                self._by_class[cls].append(position)
        # Candidates per class in ascending cost-per-class order.
        for cls, positions in self._by_class.items():
            positions.sort(key=lambda p: self.costs[p] / len(self.candidates[p]))
        self._min_share = {
            cls: min(
                (self.costs[p] / len(self.candidates[p]) for p in positions),
                default=math.inf,
            )
            for cls, positions in self._by_class.items()
        }
        self._max_candidate_size = max(
            (len(candidate) for candidate in self.candidates), default=1
        )

        self._best_cost = math.inf
        self._best_selection: list[int] | None = None
        self._nodes = 0
        self._time_limit = time_limit
        self._deadline: float | None = None
        self._cancel = cancel_event
        self._lp_bound = lp_bound
        self._lp_tried = False
        self._lp_cuts = 0
        #: ``cls -> dual price`` once the LP relaxation has been solved
        #: and corrected to exact dual feasibility; ``None`` before.
        self._dual: dict[str, float] | None = None
        self._dual_slack = 0.0
        if incumbent is not None:
            self._adopt_incumbent(incumbent)

    def _adopt_incumbent(self, incumbent: "tuple[Sequence[int], float]") -> None:
        """Validate a warm-start selection and seed the upper bound."""
        positions = list(incumbent[0])
        covered: set[str] = set()
        cost = 0.0
        for position in positions:
            if not 0 <= position < len(self.candidates):
                raise SolverError(f"incumbent references candidate {position}")
            group = self.candidates[position]
            if covered & group:
                raise SolverError("incumbent selection is not disjoint")
            covered |= group
            cost += self.costs[position]
        if covered != set(self.universe):
            raise SolverError("incumbent selection does not cover the universe")
        if self.min_count is not None and len(positions) < self.min_count:
            raise SolverError("incumbent selection violates min_count")
        if self.max_count is not None and len(positions) > self.max_count:
            raise SolverError("incumbent selection violates max_count")
        self._best_cost = cost
        self._best_selection = positions

    # -- public API ----------------------------------------------------------

    def solve(self) -> SolverResult:
        """Run the search; returns an optimal selection or infeasibility."""
        if any(not positions for positions in self._by_class.values()):
            missing = [cls for cls, pos in self._by_class.items() if not pos]
            return SolverResult(
                SolverStatus.INFEASIBLE,
                message=f"classes without covering candidate: {missing}",
            )
        if not self.universe:
            feasible_empty = (self.min_count or 0) <= 0
            if feasible_empty:
                return SolverResult(SolverStatus.OPTIMAL, objective=0.0, values={})
            return SolverResult(
                SolverStatus.INFEASIBLE, message="empty universe cannot meet min_count"
            )
        if self._time_limit is not None:
            self._deadline = time.perf_counter() + self._time_limit
        if self._lp_bound is True:
            self._solve_lp_relaxation()
        self._search(frozenset(), [], 0.0)
        if self._best_selection is None:
            return SolverResult(
                SolverStatus.INFEASIBLE,
                nodes_explored=self._nodes,
                lp_bound_cuts=self._lp_cuts,
                message="exhausted search without feasible partition",
            )
        values = {f"g{p}": 0 for p in range(len(self.candidates))}
        for position in self._best_selection:
            values[f"g{position}"] = 1
        return SolverResult(
            SolverStatus.OPTIMAL,
            objective=self._best_cost,
            values=values,
            nodes_explored=self._nodes,
            lp_bound_cuts=self._lp_cuts,
        )

    def selected_groups(self, result: SolverResult) -> list[frozenset[str]]:
        """Decode a result's selected variables back into groups."""
        return [
            self.candidates[int(name[1:])]
            for name in result.selected()
        ]

    # -- LP-relaxation bound -------------------------------------------------

    def _solve_lp_relaxation(self) -> None:
        """Solve the covering LP once and keep corrected dual prices.

        Count bounds are deliberately left out of the relaxation: they
        only shrink the feasible set, so the covering duals stay an
        admissible lower bound for the bounded program too.  Any
        failure (scipy missing, LP numerically troubled) leaves
        ``self._dual`` unset and the cost-share bound in charge.
        """
        self._lp_tried = True
        from repro.mip import scipy_backend

        if not scipy_backend.HAVE_SCIPY or not self.candidates:
            return
        np = scipy_backend.np
        try:
            from scipy.optimize import linprog

            class_row = {cls: row for row, cls in enumerate(self.universe)}
            matrix = np.zeros((len(self.universe), len(self.candidates)))
            for position, candidate in enumerate(self.candidates):
                for cls in candidate:
                    matrix[class_row[cls], position] = 1.0
            outcome = linprog(
                np.asarray(self.costs, dtype=float),
                A_eq=matrix,
                b_eq=np.ones(len(self.universe)),
                bounds=(0, None),
                method="highs",
            )
            if outcome.status != 0 or outcome.eqlin is None:
                return
            prices = {
                cls: float(outcome.eqlin.marginals[row])
                for cls, row in class_row.items()
            }
        except Exception:  # pragma: no cover - defensive: LP is optional
            return
        # Correct to exact dual feasibility: for every violated
        # candidate spread the violation over its members (each member
        # absorbs the worst per-class share among its violated groups,
        # so every group's total reduction covers its own violation),
        # then shave the fsum-measured residual off every class.
        reduction = {cls: 0.0 for cls in self.universe}
        for position, candidate in enumerate(self.candidates):
            slack = self.costs[position] - math.fsum(
                prices[cls] for cls in candidate
            )
            if slack < 0:
                per_class = -slack / len(candidate)
                for cls in candidate:
                    if per_class > reduction[cls]:
                        reduction[cls] = per_class
        prices = {cls: prices[cls] - reduction[cls] for cls in self.universe}
        residual = 0.0
        for position, candidate in enumerate(self.candidates):
            slack = self.costs[position] - math.fsum(
                prices[cls] for cls in candidate
            )
            if -slack > residual:
                residual = -slack
        if residual > 0.0:
            prices = {cls: value - residual for cls, value in prices.items()}
        # Per-node bounds use a plain (not fsum) accumulation; reserve
        # a rigorous sequential-summation error margin for it.
        scale = math.fsum(abs(value) for value in prices.values())
        self._dual_slack = (
            4.0 * (len(self.universe) + 1) * sys.float_info.epsilon * scale
        )
        self._dual = prices

    # -- search --------------------------------------------------------------

    def _lower_bound(self, covered: frozenset[str]) -> float:
        return sum(
            self._min_share[cls] for cls in self.universe if cls not in covered
        )

    def _dual_bound(self, covered: frozenset[str]) -> float:
        dual = self._dual
        assert dual is not None
        return (
            sum(dual[cls] for cls in self.universe if cls not in covered)
            - self._dual_slack
        )

    def _cardinality_prunes(self, covered: frozenset[str], count: int) -> bool:
        remaining = len(self.universe) - len(covered)
        if self.max_count is not None:
            # Even the largest candidates cannot cover the rest within budget.
            needed = math.ceil(remaining / self._max_candidate_size)
            if count + needed > self.max_count:
                return True
        if self.min_count is not None:
            # Each further group covers at least one class.
            if count + remaining < self.min_count:
                return True
        return False

    def _search(
        self, covered: frozenset[str], selection: list[int], cost: float
    ) -> None:
        self._nodes += 1
        if self._nodes > self.node_limit:
            raise SolverError(
                f"branch-and-bound node limit ({self.node_limit}) exceeded"
            )
        if self._nodes % _TIME_CHECK_INTERVAL == 0:
            if self._cancel is not None and self._cancel.is_set():
                raise SolverCancelled("branch-and-bound search cancelled")
            if (
                self._deadline is not None
                and time.perf_counter() > self._deadline
            ):
                raise SolverError(
                    f"branch-and-bound time limit ({self._time_limit}s) exceeded"
                )
        if (
            self._lp_bound is None
            and not self._lp_tried
            and self._nodes >= LP_ACTIVATION_NODES
        ):
            self._solve_lp_relaxation()
        if len(covered) == len(self.universe):
            count = len(selection)
            if self.min_count is not None and count < self.min_count:
                return
            if self.max_count is not None and count > self.max_count:
                return
            if cost < self._best_cost:
                self._best_cost = cost
                self._best_selection = list(selection)
            return
        share_bound = self._lower_bound(covered)
        bound = share_bound
        if self._dual is not None:
            dual_bound = self._dual_bound(covered)
            if dual_bound > bound:
                bound = dual_bound
        if cost + bound >= self._best_cost:
            if cost + share_bound < self._best_cost:
                self._lp_cuts += 1  # only the LP price made this prune
            return
        if self._cardinality_prunes(covered, len(selection)):
            return

        # Branch on the uncovered class with the fewest compatible options.
        branch_class = None
        branch_options: list[int] | None = None
        for cls in self.universe:
            if cls in covered:
                continue
            options = [
                position
                for position in self._by_class[cls]
                if not (self.candidates[position] & covered)
            ]
            if not options:
                return  # dead end: class can no longer be covered
            if branch_options is None or len(options) < len(branch_options):
                branch_class, branch_options = cls, options
                if len(options) == 1:
                    break
        assert branch_options is not None and branch_class is not None
        for position in branch_options:
            candidate = self.candidates[position]
            selection.append(position)
            self._search(covered | candidate, selection, cost + self.costs[position])
            selection.pop()


def lexmin_optimal_selection(
    universe: Sequence[str],
    candidates: Sequence[frozenset[str]],
    costs: Sequence[float],
    target: float,
    min_count: int | None = None,
    max_count: int | None = None,
    tolerance: float = 1e-9,
) -> list[int]:
    """The lexicographically-smallest optimal selection of a solved program.

    Given the proven optimal objective ``target`` of a weighted
    set-partitioning program, find — among all selections of cost
    ``<= target + tolerance`` that exactly cover ``universe`` within the
    count bounds — the one whose sorted candidate positions are
    lexicographically smallest.  This is the **canonical tie-break**
    shared by the monolithic and decomposed Step-2 paths: equal-cost
    optima exist in real programs, different solvers (or the same
    solver on a permuted matrix) break them differently, and the
    byte-identity contract between the paths needs one deterministic
    winner.  Because the first difference between two unions of
    disjoint-support selections lies inside their symmetric difference,
    per-component lex-min selections compose to the global lex-min —
    canonicalizing each overlap component independently yields exactly
    this function's answer on the full program.

    An exact bitmask search with no budget: classes are bits in sorted
    order, candidates and the covered set are ints.  It runs depth-first
    over positions in ascending order, trying *include* before
    *exclude*, so the first selection it reaches is the lex-min.  Every
    prune only cuts subtrees holding no selection of cost ``<= target +
    tolerance``:

    * **coverage horizon** — the union of the candidates at positions
      ``>= p`` must cover every uncovered class;
    * **cost bound** — each uncovered class costs at least its minimum
      cost share ``cost(g)/|g|`` over candidates at positions ``>= p``
      (any exact cover charges each class exactly its group's share);
    * **count envelope** — the remaining classes must fit the count
      bounds.

    Candidates overlapping the covered set are skipped without
    re-evaluating these tests.  Raises :class:`SolverError` when no
    selection meets ``target`` (the caller passed a cost below the
    optimum).
    """
    ordered_classes = sorted(set(universe))
    total = len(ordered_classes)
    if not total:
        return []
    index_of = {cls: index for index, cls in enumerate(ordered_classes)}
    full = (1 << total) - 1
    count = len(candidates)
    masks = [
        sum(1 << index_of[cls] for cls in candidate) for candidate in candidates
    ]
    sizes = [len(candidate) for candidate in candidates]
    largest = max(sizes, default=1)
    limit = target + tolerance
    # Suffix tables, built once: ``reach[p]`` is the union of the masks
    # at positions >= p; ``shares[p][i]`` is class i's minimum cost share
    # over those positions (inf when none covers it).
    reach = [0] * (count + 1)
    shares: list[list[float]] = [[math.inf] * total]
    for position in range(count - 1, -1, -1):
        reach[position] = reach[position + 1] | masks[position]
        row = list(shares[-1])
        share = costs[position] / sizes[position]
        for cls in candidates[position]:
            index = index_of[cls]
            if share < row[index]:
                row[index] = share
        shares.append(row)
    shares.reverse()

    def _search(position, covered, remaining, selected, cost, selection):
        # The exclude branch iterates (recursing per skipped candidate
        # would overflow the stack on large programs); only the include
        # branch recurses, bounding the depth by the partition size.
        while True:
            if remaining == 0:
                if min_count is not None and selected < min_count:
                    return None
                if max_count is not None and selected > max_count:
                    return None
                return list(selection)
            while position < count and masks[position] & covered:
                position += 1
            if position == count:
                return None
            uncovered = full ^ covered
            if uncovered & ~reach[position]:
                return None  # some class can no longer be covered
            if (
                max_count is not None
                and selected + math.ceil(remaining / largest) > max_count
            ):
                return None
            if min_count is not None and selected + remaining < min_count:
                return None
            row = shares[position]
            bound = 0.0
            while uncovered:
                low = uncovered & -uncovered
                bound += row[low.bit_length() - 1]
                uncovered ^= low
            if cost + bound > limit:
                return None
            step = cost + costs[position]
            if step <= limit:
                selection.append(position)
                found = _search(
                    position + 1,
                    covered | masks[position],
                    remaining - sizes[position],
                    selected + 1,
                    step,
                    selection,
                )
                if found is not None:
                    return found
                selection.pop()
            position += 1

    found = _search(0, 0, total, 0, 0.0, [])
    if found is None:
        raise SolverError(
            f"no selection of cost <= {target!r} covers the universe"
        )
    return found
