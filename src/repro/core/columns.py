"""Per-event attribute columns and vectorized instance-constraint kernels.

Instance-based constraint checking (``R_I``, paper §IV-A / Table II) is
the last Step-1 hot path that still materializes
:class:`~repro.eventlog.events.Event` lists: every ``holds`` evaluation
walks each instance's events, reading attribute dicts one lookup at a
time.  This module removes the object layer the same way
:mod:`repro.core.encoding` did for instance detection — one compilation
pass per (log, attribute key), then segment reductions over flat arrays:

* :class:`AttributeColumns` lazily builds, per attribute key, arrays
  aligned to the compiled log's CSR event buffer: a **numeric column**
  (float64 values + carrier mask, the domain of ``sum/avg/min/max``), a
  **presence column** (the domain of ``count``), an **interned code
  column** (dense IDs for distinct-value counting over values of any
  hashable type), and one **timestamp column** (exact integer
  microseconds since an epoch + the original ``datetime`` objects, the
  domain of duration/gap constraints and of Step-3 provenance stamps).
* :func:`compile_instance_kernels` turns a constraint list into
  per-constraint kernels evaluating ``holds`` verdicts as segment
  reductions over a group's instance spans
  (:meth:`~repro.core.encoding.GroupInstances.segments`), with the
  paper semantics preserved exactly: vacuous satisfaction when an
  instance has no carrier of the attribute, and
  :class:`~repro.constraints.base.AtLeastFraction` loose wrappers.

**Bitwise identity.**  Kernel verdicts must equal the reference
implementation's on every input, so each aggregate replays the
reference arithmetic:

* ``min``/``max``/``count``/``distinct`` and the integer-microsecond
  duration/gap reductions are order-independent and exact;
* ``sum``/``avg`` are *certified*: the vectorized segment sum (whose
  summation order numpy does not guarantee) decides the threshold
  comparison only when it clears the threshold by more than a rigorous
  floating-point error bound; instances inside the margin — and any
  instance with non-finite values — are re-summed left-to-right exactly
  like the reference loop;
* instances whose carrier values contain NaN fall back to the
  reference's (order-dependent) ``min``/``max`` Python semantics.

A column that cannot faithfully represent a key's values — unhashable
values for ``distinct``, out-of-float-range ints, a log mixing naive
and aware timestamps — reports itself unavailable, and the checker
falls back to the materialized-event path for that constraint only.
"""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np

from repro.constraints.base import AtLeastFraction
from repro.constraints.instancebased import (
    MaxConsecutiveGap,
    MaxDistinctInstanceAttribute,
    MaxEventsPerClass,
    MaxInstanceAggregate,
    MaxInstanceDuration,
    MinDistinctInstanceAttribute,
    MinEventsPerClass,
    MinInstanceAggregate,
    MinInstanceDuration,
)
from repro.eventlog.events import TIMESTAMP_KEY

#: Aware/naive epochs for the exact microsecond encoding; which one a
#: log uses is decided by its first timestamp (mixing disables the
#: column, mirroring the reference's inability to compare the two).
_EPOCH_AWARE = datetime(1970, 1, 1, tzinfo=timezone.utc)
_EPOCH_NAIVE = datetime(1970, 1, 1)

#: Integer deltas beyond float64's exact-integer range (spans over
#: ~285 years in microseconds) are re-divided with exact Python
#: integer/float arithmetic instead of the vectorized cast.
_EXACT_FLOAT_INT = 1 << 53

#: Safety factor on the sequential-vs-pairwise summation error bound;
#: the bound itself is computed from rounded quantities, so certify
#: comparisons only well clear of the threshold.
_SUM_MARGIN_SAFETY = 4.0

_EPS = float(np.finfo(np.float64).eps)


class _NumericColumn:
    """float64 values + carrier mask for one attribute key."""

    __slots__ = ("values", "mask")

    def __init__(self, values, mask):
        self.values = values
        self.mask = mask


class _CodeColumn:
    """Interned value codes (dense ints) + carrier mask for one key."""

    __slots__ = ("codes", "mask", "num_codes")

    def __init__(self, codes, mask, num_codes):
        self.codes = codes
        self.mask = mask
        self.num_codes = num_codes


class _TimestampColumn:
    """Exact integer microseconds + the original datetime objects.

    ``mask`` marks ``datetime``-valued stamps — the domain of the
    duration/gap constraint kernels, matching the reference aggregates'
    ``isinstance(..., datetime)`` filter.  ``has_foreign_stamps``
    records that some event carries a non-``None``, non-``datetime``
    timestamp value: Step-3 provenance follows the reference's weaker
    ``timestamp is not None`` test there, so the compiled abstraction
    must fall back to the reference path for such logs.
    """

    __slots__ = ("us", "mask", "objects", "has_foreign_stamps")

    def __init__(self, us, mask, objects, has_foreign_stamps=False):
        self.us = us
        self.mask = mask
        self.objects = objects
        self.has_foreign_stamps = has_foreign_stamps


class AttributeColumns:
    """Lazily built per-key attribute columns of one compiled log.

    Every accessor returns ``None`` when the column cannot represent
    the key faithfully (the caller then falls back to the
    materialized-event path); results — including failures — are
    cached, so each key is compiled at most once.
    """

    def __init__(self, compiled):
        self.compiled = compiled
        self._numeric: dict[str, _NumericColumn | None] = {}
        self._presence: dict[str, np.ndarray] = {}
        self._codes: dict[str, _CodeColumn | None] = {}
        self._timestamps: _TimestampColumn | None | bool = False

    def _events(self):
        for trace in self.compiled.log:
            yield from trace

    def numeric(self, key: str) -> _NumericColumn | None:
        """Numeric values of ``key`` (bools excluded, like the reference)."""
        if key not in self._numeric:
            total = int(self.compiled.all_ids.size)
            values = np.zeros(total, dtype=np.float64)
            mask = np.zeros(total, dtype=bool)
            column: _NumericColumn | None = _NumericColumn(values, mask)
            try:
                for index, event in enumerate(self._events()):
                    value = event.attributes.get(key)
                    if isinstance(value, bool) or not isinstance(
                        value, (int, float)
                    ):
                        continue
                    values[index] = float(value)
                    mask[index] = True
            except (OverflowError, ValueError):
                # An int outside float range: the reference raises when
                # (and only when) the carrying group is actually checked
                # — keep that behavior by refusing to compile the key.
                column = None
            self._numeric[key] = column
        return self._numeric[key]

    def presence(self, key: str) -> np.ndarray:
        """Boolean carrier mask of ``key`` (any value type)."""
        column = self._presence.get(key)
        if column is None:
            total = int(self.compiled.all_ids.size)
            column = np.zeros(total, dtype=bool)
            for index, event in enumerate(self._events()):
                if key in event.attributes:
                    column[index] = True
            self._presence[key] = column
        return column

    def codes(self, key: str) -> _CodeColumn | None:
        """Values of ``key`` interned to dense integer codes.

        Interning uses dict identity semantics — the same hash/equality
        as the reference's ``set`` — so per-instance distinct counts
        match exactly (including cross-type equalities like ``1 ==
        1.0``).  Unhashable values make the column unavailable.
        """
        if key not in self._codes:
            total = int(self.compiled.all_ids.size)
            codes = np.zeros(total, dtype=np.int64)
            mask = np.zeros(total, dtype=bool)
            interned: dict = {}
            column: _CodeColumn | None
            try:
                for index, event in enumerate(self._events()):
                    if key not in event.attributes:
                        continue
                    value = event.attributes[key]
                    code = interned.setdefault(value, len(interned))
                    codes[index] = code
                    mask[index] = True
                column = _CodeColumn(codes, mask, len(interned))
            except TypeError:
                column = None
            self._codes[key] = column
        return self._codes[key]

    def timestamps(self) -> _TimestampColumn | None:
        """The log's timestamps as exact integer microseconds.

        ``(a - b).total_seconds()`` in CPython divides the delta's
        integer microseconds by ``10**6``; encoding each stamp as
        integer microseconds since a fixed epoch reproduces that
        division bitwise.  A log mixing naive and aware datetimes has
        no common epoch — the column reports unavailable and duration
        constraints / Step-3 stamps fall back to the reference path.
        """
        if self._timestamps is False:
            total = int(self.compiled.all_ids.size)
            us = np.zeros(total, dtype=np.int64)
            mask = np.zeros(total, dtype=bool)
            objects: list = [None] * total
            epoch = None
            foreign = False
            column: _TimestampColumn | None = None
            for index, event in enumerate(self._events()):
                value = event.attributes.get(TIMESTAMP_KEY)
                if not isinstance(value, datetime):
                    if value is not None:
                        foreign = True
                    continue
                aware = value.tzinfo is not None
                if epoch is None:
                    epoch = _EPOCH_AWARE if aware else _EPOCH_NAIVE
                elif aware != (epoch is _EPOCH_AWARE):
                    break  # mixed naive/aware: no common timeline
                delta = value - epoch
                us[index] = (
                    delta.days * 86400 + delta.seconds
                ) * 10**6 + delta.microseconds
                mask[index] = True
                objects[index] = value
            else:
                column = _TimestampColumn(us, mask, objects, foreign)
            self._timestamps = column
        return self._timestamps


# -- segment-reduction helpers -----------------------------------------


def _segment_sums(flags, values, starts):
    """Per-instance carrier counts and (pairwise) sums over carriers."""
    counts = np.add.reduceat(flags.astype(np.int64), starts)
    sums = np.add.reduceat(np.where(flags, values, 0.0), starts)
    return counts, sums


def _segment_extreme(flags, values, starts, maximum):
    """Per-instance min/max over carriers (sentinel-filled, exact)."""
    if maximum:
        filled = np.where(flags, values, -np.inf)
        return np.maximum.reduceat(filled, starts)
    filled = np.where(flags, values, np.inf)
    return np.minimum.reduceat(filled, starts)


def _distinct_counts(seg_ids, codes, flags, num_codes, num_instances):
    """Per-instance distinct-code counts over carrier hits.

    Dedup via an explicit sort + boundary scan: exact like
    ``np.unique`` but without its hash-table path, which dominates on
    the large stacked key arrays of frontier-batched checking.
    """
    keys = seg_ids[flags] * np.int64(num_codes + 1) + codes[flags]
    if keys.size == 0:
        return np.zeros(num_instances, dtype=np.int64)
    keys.sort()
    boundaries = np.empty(keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    return np.bincount(
        keys[boundaries] // np.int64(num_codes + 1), minlength=num_instances
    )


def _sorted_unique_counts(keys):
    """``np.unique(keys, return_counts=True)`` via sort + boundary scan.

    ``keys`` must be a fresh array (it is sorted in place).  Avoids
    numpy's hash-table unique, which dominates on the large stacked
    key arrays of frontier-batched checking.
    """
    if keys.size == 0:
        return keys, np.zeros(0, dtype=np.int64)
    keys.sort()
    boundaries = np.empty(keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    firsts = np.flatnonzero(boundaries)
    multiplicity = np.empty(firsts.size, dtype=np.int64)
    multiplicity[:-1] = firsts[1:] - firsts[:-1]
    multiplicity[-1] = keys.size - firsts[-1]
    return keys[firsts], multiplicity


def _sequential_sum(values) -> float:
    """Left-to-right float accumulation, exactly like the reference."""
    total = 0.0
    for value in values:
        total += value
    return total


def _python_values(column, stats, starts, counts, index):
    """One instance's carrier values as the reference's float list."""
    lo = int(starts[index])
    hi = lo + int(counts[index])
    hits = stats.hit_ids[lo:hi]
    flags = column.mask[hits]
    return column.values[hits][flags].tolist()


# -- per-instance verdict builders -------------------------------------
#
# Each builder returns ``fn(stats, group) -> bool ndarray | None`` with
# one verdict per instance; ``None`` means the needed column is
# unavailable and the constraint must use the event-materialized path.


def _aggregate_verdicts(columns, key, how, threshold, lower):
    compare = (lambda v, t: v >= t) if lower else (lambda v, t: v <= t)

    def verdicts(stats, group):
        starts, counts = stats.segments()
        hits = stats.hit_ids
        num_instances = counts.size

        if how == "count":
            present = columns.presence(key)[hits]
            observed = np.add.reduceat(
                present.astype(np.int64), starts
            ).astype(np.float64)
            return compare(observed, threshold)

        if how == "distinct":
            column = columns.codes(key)
            if column is None:
                return None
            seg_ids = np.repeat(
                np.arange(num_instances, dtype=np.int64), counts
            )
            observed = _distinct_counts(
                seg_ids, column.codes[hits], column.mask[hits],
                column.num_codes, num_instances,
            ).astype(np.float64)
            return compare(observed, threshold)

        column = columns.numeric(key)
        if column is None:
            return None
        flags = column.mask[hits]
        values = column.values[hits]
        carriers, sums = _segment_sums(flags, values, starts)
        vacuous = carriers == 0

        if how in ("min", "max"):
            extremes = _segment_extreme(flags, values, starts, how == "max")
            result = vacuous | compare(extremes, threshold)
            # NaN carriers: the reference's min()/max() is
            # order-dependent — replay it per affected instance.
            nan_hits = np.add.reduceat(
                (flags & np.isnan(values)).astype(np.int64), starts
            )
            for index in np.flatnonzero(nan_hits):
                instance = _python_values(column, stats, starts, counts, index)
                value = min(instance) if how == "min" else max(instance)
                result[index] = compare(value, threshold)
            return result

        # how in ("sum", "avg"): certify the pairwise sums against a
        # rigorous sequential-summation error bound; instances inside
        # the margin are re-summed left-to-right like the reference.
        abs_sums = np.add.reduceat(
            np.where(flags, np.abs(values), 0.0), starts
        )
        margins = _SUM_MARGIN_SAFETY * _EPS * carriers * abs_sums
        if how == "avg":
            observed = np.divide(
                sums, carriers, out=np.zeros_like(sums),
                where=~vacuous,
            )
            margins = np.divide(
                margins, carriers, out=margins, where=~vacuous
            )
        else:
            observed = sums
        result = vacuous | compare(observed, threshold)
        uncertain = ~vacuous & (
            ~np.isfinite(observed)
            | ~np.isfinite(margins)
            | (np.abs(observed - threshold) <= margins)
        )
        for index in np.flatnonzero(uncertain):
            instance = _python_values(column, stats, starts, counts, index)
            value = _sequential_sum(instance)
            if how == "avg":
                value = value / len(instance)
            result[index] = compare(value, threshold)
        return result

    return verdicts


def _distinct_bound_verdicts(columns, key, bound, lower):
    def verdicts(stats, group):
        column = columns.codes(key)
        if column is None:
            return None
        starts, counts = stats.segments()
        hits = stats.hit_ids
        num_instances = counts.size
        seg_ids = np.repeat(np.arange(num_instances, dtype=np.int64), counts)
        observed = _distinct_counts(
            seg_ids, column.codes[hits], column.mask[hits],
            column.num_codes, num_instances,
        )
        return observed >= bound if lower else observed <= bound

    return verdicts


def _exact_seconds(deltas):
    """``microseconds / 10**6`` with the reference's exact rounding.

    The vectorized int64→float64 cast is exact below 2**53; larger
    deltas (285+-year spans) are re-divided with Python's
    correctly-rounded int/int division, matching ``total_seconds()``.
    """
    seconds = deltas / np.float64(10**6)
    huge = np.abs(deltas) >= _EXACT_FLOAT_INT
    for index in np.flatnonzero(huge):
        seconds[index] = int(deltas[index]) / 10**6
    return seconds


def _duration_verdicts(columns, seconds, lower):
    def verdicts(stats, group):
        column = columns.timestamps()
        if column is None:
            return None
        starts, counts = stats.segments()
        hits = stats.hit_ids
        flags = column.mask[hits]
        us = column.us[hits]
        carriers = np.add.reduceat(flags.astype(np.int64), starts)
        highs = np.maximum.reduceat(
            np.where(flags, us, np.iinfo(np.int64).min), starts
        )
        lows = np.minimum.reduceat(
            np.where(flags, us, np.iinfo(np.int64).max), starts
        )
        vacuous = carriers == 0
        deltas = np.zeros(carriers.size, dtype=np.int64)
        live = ~vacuous
        deltas[live] = highs[live] - lows[live]
        spans = _exact_seconds(deltas)
        if lower:
            return vacuous | (spans >= seconds)
        return vacuous | (spans <= seconds)

    return verdicts


def _gap_verdicts(columns, seconds):
    def verdicts(stats, group):
        column = columns.timestamps()
        if column is None:
            return None
        starts, counts = stats.segments()
        hits = stats.hit_ids
        num_instances = counts.size
        flags = column.mask[hits]
        seg_ids = np.repeat(np.arange(num_instances, dtype=np.int64), counts)
        stamped_segs = seg_ids[flags]
        stamped_us = column.us[hits][flags]
        carriers = np.bincount(stamped_segs, minlength=num_instances)
        result = np.ones(num_instances, dtype=bool)
        if stamped_us.size < 2:
            return result
        gaps = stamped_us[1:] - stamped_us[:-1]
        within = stamped_segs[1:] == stamped_segs[:-1]
        worst = np.full(num_instances, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(worst, stamped_segs[1:][within], gaps[within])
        measured = carriers >= 2
        result[measured] = (
            _exact_seconds(worst[measured]) <= seconds
        )
        return result

    return verdicts


def _events_per_class_verdicts(compiled, bound, minimum, classes):
    def verdicts(stats, group):
        starts, counts = stats.segments()
        hits = stats.hit_ids
        num_instances = counts.size
        num_classes = np.int64(compiled.num_classes + 1)
        seg_ids = np.repeat(np.arange(num_instances, dtype=np.int64), counts)
        keys = seg_ids * num_classes + compiled.all_ids[hits]
        unique, multiplicity = _sorted_unique_counts(keys)
        owners = unique // num_classes
        if not minimum:
            worst = np.zeros(num_instances, dtype=np.int64)
            np.maximum.at(worst, owners, multiplicity)
            return worst <= bound
        targets = group if classes is None else (classes & group)
        if not targets:
            return np.ones(num_instances, dtype=bool)
        if any(cls not in compiled.class_to_id for cls in targets):
            # A target class foreign to the log never reaches ``bound``.
            return np.zeros(num_instances, dtype=bool)
        target_ids = np.asarray(
            sorted(compiled.class_to_id[cls] for cls in targets),
            dtype=np.int64,
        )
        satisfied = np.isin(unique % num_classes, target_ids) & (
            multiplicity >= bound
        )
        met = np.bincount(owners[satisfied], minlength=num_instances)
        return met == len(targets)

    return verdicts


#: Constraint types with an exact kernel; subclasses may override the
#: check methods, so only these *exact* types dispatch to kernels.
def _instance_verdict_builder(constraint, columns, compiled):
    kind = type(constraint)
    if kind is MinInstanceAggregate:
        return _aggregate_verdicts(
            columns, constraint.key, constraint.how, constraint.threshold, True
        )
    if kind is MaxInstanceAggregate:
        return _aggregate_verdicts(
            columns, constraint.key, constraint.how, constraint.threshold, False
        )
    if kind is MaxDistinctInstanceAttribute:
        return _distinct_bound_verdicts(
            columns, constraint.key, constraint.bound, False
        )
    if kind is MinDistinctInstanceAttribute:
        return _distinct_bound_verdicts(
            columns, constraint.key, constraint.bound, True
        )
    if kind is MaxInstanceDuration:
        return _duration_verdicts(columns, constraint.seconds, False)
    if kind is MinInstanceDuration:
        return _duration_verdicts(columns, constraint.seconds, True)
    if kind is MaxConsecutiveGap:
        return _gap_verdicts(columns, constraint.seconds)
    if kind is MaxEventsPerClass:
        return _events_per_class_verdicts(
            compiled, constraint.bound, False, None
        )
    if kind is MinEventsPerClass:
        return _events_per_class_verdicts(
            compiled, constraint.bound, True, constraint.classes
        )
    return None


def _per_instance_builder(constraint, columns, compiled):
    """The per-instance predicate, unwrapping nested loose wrappers.

    ``AtLeastFraction.check_instances`` judges each instance with the
    *wrapped* constraint's ``check_instance`` — recursively, for nested
    wrappers — so the innermost constraint supplies the predicate.
    """
    if type(constraint) is AtLeastFraction:
        return _per_instance_builder(constraint.inner, columns, compiled)
    return _instance_verdict_builder(constraint, columns, compiled)


class InstanceKernel:
    """One instance constraint compiled to segment reductions.

    Calling the kernel evaluates one group (``kernel(stats, group) ->
    bool | None``, ``None`` meaning the needed column is unavailable
    and the caller must fall back to the materialized-event path).
    :meth:`verdict_array` and :meth:`reduce` expose the two halves
    separately so :meth:`~repro.core.checker.GroupChecker.check_level`
    can run the per-instance verdicts once over a whole frontier
    level's *stacked* instance spans and reduce per group afterwards.

    ``group_free`` marks kernels whose verdict builders never read the
    ``group`` argument — every kernel except
    :class:`~repro.constraints.instancebased.MinEventsPerClass`, whose
    target classes depend on the group being checked.  Only group-free
    kernels may be evaluated over a stack.
    """

    __slots__ = ("_verdicts", "fraction", "group_free")

    def __init__(self, verdicts, fraction=None, group_free=True):
        self._verdicts = verdicts
        #: ``AtLeastFraction`` threshold, or ``None`` for plain
        #: all-instances conjunction.
        self.fraction = fraction
        self.group_free = group_free

    def verdict_array(self, stats, group):
        """Per-instance verdicts (``None``: column unavailable)."""
        return self._verdicts(stats, group)

    def violations(self, stats, group) -> int | None:
        """Instances whose own verdict is false (``None``: column unavailable)."""
        verdicts = self._verdicts(stats, group)
        if verdicts is None:
            return None
        return len(stats) - int(np.count_nonzero(verdicts))

    def reduce(self, verdicts, num_instances: int) -> bool:
        """Fold per-instance verdicts into one group verdict."""
        if self.fraction is None:
            return bool(verdicts.all())
        satisfied = int(np.count_nonzero(verdicts))
        return satisfied / num_instances >= self.fraction

    def __call__(self, stats, group):
        num_instances = len(stats)
        if not num_instances:
            return True  # no instances: vacuously satisfied (§IV-A)
        verdicts = self._verdicts(stats, group)
        if verdicts is None:
            return None
        return self.reduce(verdicts, num_instances)


class StackedInstances:
    """Concatenated instance spans of several groups (one search level).

    Exposes the same ``hit_ids`` / ``segments()`` / ``len()`` surface
    as :class:`~repro.core.encoding.GroupInstances`, so every
    group-free verdict builder runs unchanged over the stack: all of
    their reductions are segment-local and instance segments never
    straddle group boundaries, hence per-instance verdicts over the
    stack equal the per-group verdict arrays concatenated.  (The
    certified ``sum``/``avg`` comparisons stay bitwise-faithful too:
    any instance whose vectorized sum lands inside the error margin is
    re-summed sequentially either way.)

    ``offsets`` maps stacked verdict rows back to groups: group ``k``
    owns rows ``offsets[k] : offsets[k + 1]``.
    """

    __slots__ = ("hit_ids", "offsets", "_starts", "_counts")

    def __init__(self, hit_ids, starts, counts, offsets):
        self.hit_ids = hit_ids
        self.offsets = offsets
        self._starts = starts
        self._counts = counts

    def __len__(self) -> int:
        return int(self._counts.size)

    def segments(self):
        """``(starts, counts)`` span arrays, one entry per instance."""
        return self._starts, self._counts


def stack_instances(stats_list) -> StackedInstances:
    """Stack per-group :class:`GroupInstances` for one batched kernel run."""
    hit_arrays = []
    starts_arrays = []
    counts_arrays = []
    offsets = np.zeros(len(stats_list) + 1, dtype=np.int64)
    hit_base = 0
    for index, stats in enumerate(stats_list):
        starts, counts = stats.segments()
        hits = np.asarray(stats.hit_ids, dtype=np.int64)
        hit_arrays.append(hits)
        starts_arrays.append(starts + hit_base)
        counts_arrays.append(counts)
        hit_base += int(hits.size)
        offsets[index + 1] = offsets[index] + counts.size
    return StackedInstances(
        np.concatenate(hit_arrays),
        np.concatenate(starts_arrays),
        np.concatenate(counts_arrays),
        offsets,
    )


def _innermost(constraint):
    """The wrapped constraint under (possibly nested) loose wrappers."""
    while type(constraint) is AtLeastFraction:
        constraint = constraint.inner
    return constraint


def compile_instance_kernels(constraints, compiled):
    """Compile each instance constraint to a group-verdict kernel.

    Returns ``[(constraint, kernel | None), ...]`` in evaluation order,
    each kernel an :class:`InstanceKernel`.  A ``None`` verdict at
    runtime means the needed column is unavailable for this log and the
    caller must fall back to ``constraint.check_instances`` on
    materialized events (behavior is then identical by construction).
    Constraints of unknown (sub)types get no kernel at all.
    """
    columns = compiled.columns()
    plan = []
    for constraint in constraints:
        builder = None
        group_free = type(_innermost(constraint)) is not MinEventsPerClass
        if type(constraint) is AtLeastFraction:
            verdicts = _per_instance_builder(constraint, columns, compiled)
            if verdicts is not None:
                builder = InstanceKernel(
                    verdicts,
                    fraction=constraint.fraction,
                    group_free=group_free,
                )
        else:
            verdicts = _instance_verdict_builder(constraint, columns, compiled)
            if verdicts is not None:
                builder = InstanceKernel(verdicts, group_free=group_free)
        plan.append((constraint, builder))
    return plan
