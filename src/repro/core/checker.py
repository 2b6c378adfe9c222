"""Shared, memoized evaluation of the ``holds(g, L, R)`` predicate.

Both candidate-generation algorithms check the same groups against the
same constraint set, and the MIP selection re-validates the chosen
grouping.  :class:`GroupChecker` centralizes this: it owns the log's
class-attribute view, shares an :class:`~repro.core.instances.InstanceIndex`
with the distance function, evaluates class-based constraints before
instance-based ones (the paper's cost ordering), and memoizes verdicts
per group.

On the compiled engine (a
:class:`~repro.core.encoding.CompiledInstanceIndex`) instance-based
constraints are evaluated by the vectorized kernels of
:mod:`repro.core.columns` — segment reductions over the instance spans
and the log's attribute columns, no :class:`~repro.eventlog.events.Event`
materialization — with an automatic per-constraint fallback to the
reference path when a constraint type has no kernel or a column cannot
represent the attribute faithfully.  Verdicts are identical either way.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.constraints.sets import ConstraintSet, class_attribute_view
from repro.core.instances import InstanceIndex
from repro.eventlog.events import EventLog


class _LazyClassAttributeView(Mapping):
    """A class-attribute view that scans the log on first real access.

    Building the view walks every event attribute of the log; constraint
    sets that never inspect class attributes (pure size bounds,
    cannot-links) should not pay for it.  The wrapper is handed to the
    constraints in place of the plain dict and materializes lazily.
    """

    __slots__ = ("_log", "_view")

    def __init__(self, log: EventLog):
        self._log = log
        self._view = None

    def _materialized(self):
        if self._view is None:
            self._view = class_attribute_view(self._log)
        return self._view

    def __getitem__(self, key):
        return self._materialized()[key]

    def __iter__(self):
        return iter(self._materialized())

    def __len__(self):
        return len(self._materialized())


class GroupChecker:
    """Memoized ``holds`` evaluation for one log and constraint set."""

    def __init__(
        self,
        log: EventLog,
        constraints: ConstraintSet,
        instance_index: InstanceIndex | None = None,
    ):
        self.log = log
        self.constraints = constraints
        self.instances = instance_index or InstanceIndex(log)
        self.class_attributes = _LazyClassAttributeView(log)
        self._cache: dict[frozenset[str], bool] = {}
        self.checks_performed = 0
        #: ``[(constraint, kernel | None), ...]`` on the compiled
        #: engine; ``None`` when instance checks run on the reference
        #: event-materialized path.
        self._instance_plan = None
        #: Constraint checks answered by a columnar kernel vs. by
        #: materialized events (introspection/tests).
        self.kernel_checks = 0
        self.fallback_checks = 0
        if constraints.instance_based:
            from repro.core import encoding

            if isinstance(self.instances, encoding.CompiledInstanceIndex):
                from repro.core.columns import compile_instance_kernels

                self._instance_plan = compile_instance_kernels(
                    constraints.instance_based, self.instances.compiled
                )

    def _instance_constraints_hold(self, group: frozenset[str]) -> bool:
        """All instance-based constraints, kernels first.

        Constraints are evaluated in set order with the same
        short-circuiting as the reference conjunction; each one uses
        its columnar kernel when available and falls back to the
        materialized-event path otherwise (identical verdicts).
        """
        if self._instance_plan is None:
            return self.constraints.check_instance_constraints(
                group, self.instances.events(group)
            )
        stats = self.instances.stats(group)
        events = None
        for constraint, kernel in self._instance_plan:
            verdict = kernel(stats, group) if kernel is not None else None
            if verdict is None:
                if events is None:
                    events = self.instances.events(group)
                self.fallback_checks += 1
                verdict = constraint.check_instances(events, group)
            else:
                self.kernel_checks += 1
            if not verdict:
                return False
        return True

    def _instance_level(self, groups: list[frozenset[str]]) -> list[bool]:
        """Instance-constraint verdicts for several groups, batched.

        Constraints run in set order with the sequential path's
        short-circuiting — a group that fails one constraint is never
        evaluated against later ones — so verdicts *and* the
        ``kernel_checks``/``fallback_checks`` totals match looping
        :meth:`_instance_constraints_hold` over the groups exactly.
        The only difference is dispatch: each group-free columnar
        kernel runs one segment reduction over the stacked instance
        spans of all still-undecided groups
        (:func:`~repro.core.columns.stack_instances`) instead of one
        reduction per group.
        """
        if self._instance_plan is None:
            return [
                self.constraints.check_instance_constraints(
                    group, self.instances.events(group)
                )
                for group in groups
            ]
        from repro.core.columns import stack_instances

        verdicts = [True] * len(groups)
        alive = list(range(len(groups)))
        stats_list = [self.instances.stats(group) for group in groups]
        events_list: list = [None] * len(groups)
        for constraint, kernel in self._instance_plan:
            if not alive:
                break
            batched: dict[int, bool] | None = None
            if kernel is not None and kernel.group_free:
                populated = [
                    index for index in alive if len(stats_list[index])
                ]
                if len(populated) > 1:
                    stacked = stack_instances(
                        [stats_list[index] for index in populated]
                    )
                    rows = kernel.verdict_array(stacked, None)
                    if rows is not None:
                        offsets = stacked.offsets
                        batched = {}
                        for k, index in enumerate(populated):
                            lo, hi = int(offsets[k]), int(offsets[k + 1])
                            batched[index] = kernel.reduce(
                                rows[lo:hi], hi - lo
                            )
            survivors = []
            for index in alive:
                if batched is not None:
                    # Absent from the stack ⇒ no instances ⇒ vacuously
                    # satisfied, same as the per-group kernel.
                    verdict = batched.get(index, True)
                    self.kernel_checks += 1
                else:
                    verdict = (
                        kernel(stats_list[index], groups[index])
                        if kernel is not None
                        else None
                    )
                    if verdict is None:
                        if events_list[index] is None:
                            events_list[index] = self.instances.events(
                                groups[index]
                            )
                        self.fallback_checks += 1
                        verdict = constraint.check_instances(
                            events_list[index], groups[index]
                        )
                    else:
                        self.kernel_checks += 1
                if verdict:
                    survivors.append(index)
                else:
                    verdicts[index] = False
            alive = survivors
        return verdicts

    def check_level(
        self, entries: list[tuple[frozenset[str], bool]]
    ) -> list[bool]:
        """Verdicts for one search level, instance kernels batched.

        ``entries`` is ``[(group, skip_class_checks), ...]`` with
        distinct groups; the flag is set when a satisfying strict
        subset is already known (monotonic mode), in which case
        class-based checks are skipped exactly like
        :meth:`holds_given_satisfying_subset`.  Returns one bool per
        entry.  Verdicts, memoization, and every counter are identical
        to looping :meth:`holds` /
        :meth:`holds_given_satisfying_subset` over the level — only
        the instance-kernel dispatch is batched
        (see :meth:`_instance_level`).
        """
        results: list[bool] = [False] * len(entries)
        pending: list[int] = []
        instance_based = bool(self.constraints.instance_based)
        for position, (group, skip_class) in enumerate(entries):
            cached = self._cache.get(group)
            if cached is not None:
                results[position] = cached
                continue
            if skip_class:
                if not instance_based:
                    # Identical to holds_given_satisfying_subset():
                    # the skipped class-based monotonic constraints
                    # are guaranteed satisfied by the subset.
                    self._cache[group] = True
                    results[position] = True
                    continue
                self.checks_performed += 1
                pending.append(position)
                continue
            self.checks_performed += 1
            verdict = self.constraints.check_class_constraints(
                group, self.class_attributes
            )
            if not verdict or not instance_based:
                self._cache[group] = verdict
                results[position] = verdict
                continue
            pending.append(position)

        if pending:
            groups = [entries[position][0] for position in pending]
            for position, verdict in zip(pending, self._instance_level(groups)):
                self._cache[entries[position][0]] = verdict
                results[position] = verdict
        return results

    def holds(self, group: Iterable[str]) -> bool:
        """Whether ``group`` satisfies all per-group constraints."""
        group = frozenset(group)
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        self.checks_performed += 1
        verdict = self.constraints.check_class_constraints(
            group, self.class_attributes
        )
        if verdict and self.constraints.instance_based:
            verdict = self._instance_constraints_hold(group)
        self._cache[group] = verdict
        return verdict

    def holds_given_satisfying_subset(self, group: Iterable[str]) -> bool:
        """``holds`` given that a strict subset already satisfies everything.

        In the monotonic checking mode the paper skips *all* validation
        for supergroups of satisfying groups (Alg. 1 line 5).  That is
        sound for class-based monotonic constraints, but under the
        projection instantiation of ``inst`` it is unsound for
        instance-based ones: adding a class creates *new* instances in
        traces that contain none of the subset's classes (e.g. adding
        ``prio`` to ``{ckt}`` creates a singleton ``⟨prio⟩`` instance in
        σ1), and those can violate a "monotonic" aggregate lower bound.
        We therefore skip only the class-based checks and always
        re-validate the instance-based constraints, which keeps the
        guarantee that every candidate satisfies R.
        """
        group = frozenset(group)
        cached = self._cache.get(group)
        if cached is not None:
            return cached
        if self.constraints.instance_based:
            self.checks_performed += 1
            verdict = self._instance_constraints_hold(group)
        else:
            verdict = True
        # Identical to full holds(): the skipped class-based monotonic
        # constraints are guaranteed satisfied by the subset.
        self._cache[group] = verdict
        return verdict

    def holds_class_only(self, group: Iterable[str]) -> bool:
        """Class-based constraints only (Alg. 3 line 11: ``holds(g, L, R_C)``).

        Merging exclusive groups cannot newly violate instance-based
        constraints (their instances are exactly the union of the parts'
        instances), so Algorithm 3 skips the log pass.
        """
        return self.constraints.check_class_constraints(
            frozenset(group), self.class_attributes
        )

    def count_violations(
        self, constraint, group: frozenset[str]
    ) -> tuple[int, int] | None:
        """``(violating, total)`` instances of ``group`` under ``constraint``.

        Counted from the constraint's columnar kernel, judging each
        instance as ``constraint.check_instance`` does (a loose wrapper
        judges by its wrapped constraint).  ``None`` on the reference
        engine, for a constraint without a kernel, or when its column
        is unavailable; the caller then materializes the events.
        """
        if self._instance_plan is None:
            return None
        kernel = next(
            (kernel for owner, kernel in self._instance_plan if owner is constraint),
            None,
        )
        if kernel is None:
            return None
        stats = self.instances.stats(group)
        if not len(stats):
            return 0, 0
        violated = kernel.violations(stats, group)
        return None if violated is None else (violated, len(stats))

    def cache_size(self) -> int:
        """Number of memoized group verdicts (introspection/tests)."""
        return len(self._cache)
