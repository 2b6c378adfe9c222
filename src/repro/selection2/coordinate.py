"""Coordination layer: exact Eq. 5 bounds across components.

The global cardinality bounds of paper Eq. 5 (``min_groups`` /
``max_groups``) couple otherwise-independent components: the *total*
number of selected groups is bounded, not each component's.  The exact
remedy implemented here is per-component count enumeration followed by
a knapsack-style merge:

1. for each component, build a **Pareto front** — for every feasible
   group count ``k`` in the component's envelope, the minimum-cost
   exact cover using exactly ``k`` groups (a count-constrained solve of
   the same component program);
2. **merge** the fronts with a dynamic program over the running total
   count, picking one ``k`` per component so the total lands inside
   ``[min_total, max_total]`` at minimum summed cost.

Both steps are exact, so the recombined selection is a provably optimal
solution of the bounded program.  Ties are broken deterministically and
consistently with the monolithic path's canonical tie-break
(:func:`repro.mip.branch_and_bound.lexmin_optimal_selection`, an exact
bitmask search with no budget, so every front entry is already its
count's lex-min optimum): lowest cost first, then — via ``order_key`` —
the lexicographically smallest merged selection in global candidate
order.  Because components have disjoint candidate supports, comparing
merged position tuples per allocation picks exactly the global lex-min
optimum.
"""

from __future__ import annotations

from repro.selection2.portfolio import ComponentSolution


def merge_fronts(
    fronts: list[dict[int, ComponentSolution]],
    min_total: int | None,
    max_total: int | None,
    order_key=None,
) -> list[int] | None:
    """Pick one count per component meeting the global Eq. 5 bounds.

    ``fronts[i]`` maps feasible group counts of component ``i`` to the
    count-constrained optimum (only optimal entries are consulted).
    ``order_key(solution)`` renders a solution's selected candidates as
    a sortable tuple (global candidate positions); equal-cost
    allocations are resolved toward the lexicographically smallest
    merged selection.  Without ``order_key``, ties fall back to the
    smallest count tuple.  Returns the chosen count per component, or
    ``None`` when no combination lands inside ``[min_total, max_total]``.
    """
    #: running total count -> (cost, merged order tuple, counts so far)
    table: dict[int, tuple[float, tuple, tuple[int, ...]]] = {0: (0.0, (), ())}
    for front in fronts:
        entries = sorted(
            (k, solution)
            for k, solution in front.items()
            if solution.is_optimal
        )
        if not entries:
            return None
        merged: dict[int, tuple[float, tuple, tuple[int, ...]]] = {}
        for total, (cost, order, counts) in table.items():
            for k, solution in entries:
                extension = tuple(order_key(solution)) if order_key else (k,)
                candidate = (
                    cost + solution.objective,
                    tuple(sorted(order + extension)),
                    counts + (k,),
                )
                key = total + k
                best = merged.get(key)
                if best is None or candidate < best:
                    merged[key] = candidate
        table = merged
        if max_total is not None:
            table = {
                total: entry for total, entry in table.items() if total <= max_total
            }
        if not table:
            return None

    feasible = [
        (cost, order, counts)
        for total, (cost, order, counts) in table.items()
        if (min_total is None or total >= min_total)
        and (max_total is None or total <= max_total)
    ]
    if not feasible:
        return None
    _cost, _order, counts = min(feasible)
    return list(counts)
