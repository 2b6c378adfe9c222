"""CSV import/export for event logs.

Many public logs (and most quick experiments) live in flat CSV files
with one row per event.  This module converts between such files and
:class:`~repro.eventlog.events.EventLog`, grouping rows into traces by a
case-id column and ordering events by a timestamp column when present.

The reader is a single :func:`csv.reader` loop over a column plan fixed
by the header.  Each attribute cell is coerced to the first of bool,
int, float or an ISO timestamp that parses it (else it stays text); a
bounded per-column memo keyed by the cell text answers repeated values,
which is most cells of categorical columns, without re-parsing them.
"""

from __future__ import annotations

import csv
import io
import os
from datetime import datetime
from typing import Any, IO

from repro.eventlog.events import (
    CLASS_KEY,
    TIMESTAMP_KEY,
    Event,
    EventLog,
    Trace,
    _ensure_datetime,
)
from repro.exceptions import EventLogError

#: Default column names, matching the common pm4py CSV conventions.
DEFAULT_CASE_COLUMN = "case:concept:name"
DEFAULT_CLASS_COLUMN = CLASS_KEY
DEFAULT_TIMESTAMP_COLUMN = TIMESTAMP_KEY

#: Distinct cell texts remembered per column; a categorical column (a
#: role, a resource) is coerced once per value, a column of unique
#: values stops filling its memo here.
_MEMO_LIMIT = 4096
_UNSEEN = object()


def _coerce(raw: str) -> Any:
    """Parse a CSV cell into int, float, bool, datetime or string.

    The result is that of trying, in order: empty (``None``), ``true`` /
    ``false``, ``int``, ``float``, then an ISO timestamp, else the
    stripped text.  Two shortcuts skip attempts that cannot succeed:
    ``int`` and ``float`` never accept a ``:`` (so such a cell is a
    timestamp or text), and ``int`` never accepts a ``.``.
    """
    text = raw.strip()
    if text == "":
        return None
    if ":" in text:
        return _ensure_datetime(text)
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if "." not in text:
        try:
            return int(text)
        except ValueError:
            pass
    try:
        return float(text)
    except ValueError:
        pass
    return _ensure_datetime(text)


def read_csv(
    source: str | os.PathLike | IO,
    case_column: str = DEFAULT_CASE_COLUMN,
    class_column: str = DEFAULT_CLASS_COLUMN,
    timestamp_column: str = DEFAULT_TIMESTAMP_COLUMN,
    sort_by_timestamp: bool = True,
) -> EventLog:
    """Read a one-row-per-event CSV file into an :class:`EventLog`.

    Parameters
    ----------
    source:
        Path or readable text file object.
    case_column / class_column / timestamp_column:
        Column names for the case identifier, event class and timestamp.
        The timestamp column is optional in the data; all remaining
        columns become event attributes.
    sort_by_timestamp:
        When ``True`` (default) and the timestamp column exists, events
        within a case are sorted by timestamp (stable: file order breaks
        ties).

    Blank lines are skipped, a row shorter than the header lacks its
    trailing cells, and a row longer than the header is an error.  When
    a header name repeats, its last column supplies the value and its
    first position orders the attributes.
    """
    if hasattr(source, "read"):
        handle = source
        close = False
    else:
        handle = open(source, newline="", encoding="utf-8")
        close = True
    try:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None:
            raise EventLogError("CSV source has no header row")
        if case_column not in header:
            raise EventLogError(f"CSV is missing case column {case_column!r}")
        if class_column not in header:
            raise EventLogError(f"CSV is missing class column {class_column!r}")
        if case_column == class_column:
            raise EventLogError(f"case and class column are both {case_column!r}")
        # Name -> last index, in first-occurrence order.
        columns = dict(zip(header, range(len(header))))
        case_index = columns.pop(case_column)
        class_index = columns.pop(class_column)
        attribute_columns = [(key, index, {}) for key, index in columns.items()]
        width = len(header)
        cases: dict[str, list[Event]] = {}
        for row in reader:
            if not row:
                continue
            if len(row) > width:
                raise EventLogError(
                    f"CSV line {reader.line_num} has {len(row)} cells, "
                    f"the header has {width}"
                )
            if len(row) < width:
                row += [None] * (width - len(row))
            case_id = row[case_index]
            event_class = row[class_index]
            if event_class is None or event_class == "":
                raise EventLogError(f"row in case {case_id!r} has empty event class")
            attributes: dict[str, Any] = {}
            for key, index, memo in attribute_columns:
                raw = row[index]
                if raw is None:
                    continue
                value = memo.get(raw, _UNSEEN)
                if value is _UNSEEN:
                    value = _coerce(raw)
                    # A shared NaN would equal itself where distinct ones
                    # do not (distinct-value counts, dict keys).
                    if len(memo) < _MEMO_LIMIT and value == value:
                        memo[raw] = value
                if value is not None:
                    attributes[key] = value
            if timestamp_column in attributes and timestamp_column != TIMESTAMP_KEY:
                attributes[TIMESTAMP_KEY] = attributes.pop(timestamp_column)
            events = cases.get(case_id)
            if events is None:
                events = cases[case_id] = []
            events.append(Event(event_class, attributes))
    finally:
        if close:
            handle.close()

    traces = []
    for case_id, events in cases.items():
        if sort_by_timestamp and all(event.timestamp is not None for event in events):
            events = sorted(
                enumerate(events), key=lambda pair: (pair[1].timestamp, pair[0])
            )
            events = [event for _, event in events]
        traces.append(Trace(events, {CLASS_KEY: case_id}))
    return EventLog(traces)


def write_csv(
    log: EventLog,
    target: str | os.PathLike | IO,
    case_column: str = DEFAULT_CASE_COLUMN,
    class_column: str = DEFAULT_CLASS_COLUMN,
) -> None:
    """Write ``log`` as a one-row-per-event CSV file.

    The column set is the union of all event attribute keys, emitted in
    sorted order after the case and class columns.
    """
    attribute_keys: set[str] = set()
    for trace in log:
        for event in trace:
            attribute_keys.update(event.attributes)
    columns = [case_column, class_column] + sorted(attribute_keys)

    if hasattr(target, "write"):
        handle = target
        close = False
    else:
        handle = open(target, "w", newline="", encoding="utf-8")
        close = True
    try:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for index, trace in enumerate(log):
            case_id = trace.case_id or f"case_{index}"
            for event in trace:
                row = {case_column: case_id, class_column: event.event_class}
                for key, value in event.attributes.items():
                    if isinstance(value, datetime):
                        row[key] = value.isoformat()
                    else:
                        row[key] = value
                writer.writerow(row)
    finally:
        if close:
            handle.close()


def csv_roundtrip(log: EventLog) -> EventLog:
    """Serialize ``log`` to CSV text and parse it back (testing helper)."""
    buffer = io.StringIO()
    write_csv(log, buffer)
    buffer.seek(0)
    return read_csv(buffer)
