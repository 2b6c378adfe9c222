"""Reference readers and writer for the ingest differential tests.

These are the tree-based XES reader/writer and the ``csv.DictReader``
CSV reader that :mod:`repro.eventlog.xes` and
:mod:`repro.eventlog.csv_io` replaced with streaming code.  They are
kept here, unchanged in behavior, only as oracles: the streaming
implementations must return equal logs (key for key, in dict insertion
order), raise the same errors, and write byte-identical XES text.
"""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from datetime import datetime, timezone
from typing import Any

from repro.eventlog.events import (
    CLASS_KEY,
    TIMESTAMP_KEY,
    Event,
    EventLog,
    Trace,
    _ensure_datetime,
)
from repro.exceptions import EventLogError, XESParseError

_XES_TAGS = {"string", "int", "float", "boolean", "date", "id"}


# -- XES reader ---------------------------------------------------------------


def _parse_value(tag: str, raw: str) -> Any:
    if tag == "string" or tag == "id":
        return raw
    if tag == "int":
        try:
            return int(raw)
        except ValueError as exc:
            raise XESParseError(f"invalid int attribute value {raw!r}") from exc
    if tag == "float":
        try:
            return float(raw)
        except ValueError as exc:
            raise XESParseError(f"invalid float attribute value {raw!r}") from exc
    if tag == "boolean":
        return raw.strip().lower() == "true"
    if tag == "date":
        text = raw.strip()
        if text.endswith("Z"):
            text = text[:-1] + "+00:00"
        try:
            stamp = datetime.fromisoformat(text)
        except ValueError as exc:
            raise XESParseError(f"invalid date attribute value {raw!r}") from exc
        if stamp.tzinfo is None:
            stamp = stamp.replace(tzinfo=timezone.utc)
        return stamp
    raise XESParseError(f"unsupported XES attribute tag {tag!r}")


def _strip_namespace(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def _collect_attributes(element: ET.Element, prefix: str = "") -> dict[str, Any]:
    attributes: dict[str, Any] = {}
    for child in element:
        tag = _strip_namespace(child.tag)
        if tag not in _XES_TAGS:
            continue
        key = child.get("key")
        if key is None:
            raise XESParseError(f"XES attribute element <{tag}> without key")
        value = child.get("value")
        if value is None:
            raise XESParseError(f"XES attribute {key!r} without value")
        full_key = f"{prefix}{key}"
        attributes[full_key] = _parse_value(tag, value)
        if len(child):
            attributes.update(_collect_attributes(child, prefix=f"{full_key}:"))
    return attributes


def _log_from_root(root: ET.Element) -> EventLog:
    if _strip_namespace(root.tag) != "log":
        raise XESParseError(f"expected <log> root element, got <{root.tag}>")
    log_attributes = _collect_attributes(root)
    traces = []
    for trace_element in root:
        if _strip_namespace(trace_element.tag) != "trace":
            continue
        trace_attributes = _collect_attributes(trace_element)
        events = []
        for event_element in trace_element:
            if _strip_namespace(event_element.tag) != "event":
                continue
            event_attributes = _collect_attributes(event_element)
            event_class = event_attributes.pop(CLASS_KEY, None)
            if event_class is None:
                raise XESParseError("event without concept:name attribute")
            events.append(Event(str(event_class), event_attributes))
        traces.append(Trace(events, trace_attributes))
    return EventLog(traces, log_attributes)


def tree_loads(text) -> EventLog:
    """The tree reader on a document string (or bytes)."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XESParseError(f"malformed XML: {exc}") from exc
    return _log_from_root(root)


def tree_load(source) -> EventLog:
    """The tree reader on a path or file object."""
    try:
        tree = ET.parse(source)
    except ET.ParseError as exc:
        raise XESParseError(f"malformed XML: {exc}") from exc
    except OSError as exc:
        raise XESParseError(f"cannot read XES source: {exc}") from exc
    return _log_from_root(tree.getroot())


# -- XES writer ---------------------------------------------------------------


def _attribute_element(key: str, value: Any) -> ET.Element:
    if isinstance(value, bool):
        tag, text = "boolean", "true" if value else "false"
    elif isinstance(value, int):
        tag, text = "int", str(value)
    elif isinstance(value, float):
        tag, text = "float", repr(value)
    elif isinstance(value, datetime):
        stamp = value if value.tzinfo else value.replace(tzinfo=timezone.utc)
        tag, text = "date", stamp.isoformat()
    else:
        tag, text = "string", str(value)
    return ET.Element(tag, {"key": key, "value": text})


def tree_dumps(log: EventLog) -> str:
    """The tree writer: build the element tree, indent, serialize."""
    root = ET.Element("log", {"xes.version": "1.0"})
    for key, value in sorted(log.attributes.items()):
        root.append(_attribute_element(key, value))
    for trace in log:
        trace_element = ET.SubElement(root, "trace")
        for key, value in sorted(trace.attributes.items()):
            trace_element.append(_attribute_element(key, value))
        for event in trace:
            event_element = ET.SubElement(trace_element, "event")
            event_element.append(_attribute_element(CLASS_KEY, event.event_class))
            for key, value in sorted(event.attributes.items()):
                event_element.append(_attribute_element(key, value))
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True)


# -- CSV reader ---------------------------------------------------------------


def cascade(raw: str) -> Any:
    """The exception-driven coercion: bool, int, float, datetime, str."""
    text = raw.strip()
    if text == "":
        return None
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return _ensure_datetime(text)


def dictreader_read_csv(
    handle,
    case_column: str = "case:concept:name",
    class_column: str = CLASS_KEY,
    timestamp_column: str = TIMESTAMP_KEY,
    sort_by_timestamp: bool = True,
) -> EventLog:
    """The ``csv.DictReader`` reader on a text file object."""
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        raise EventLogError("CSV source has no header row")
    if case_column not in reader.fieldnames:
        raise EventLogError(f"CSV is missing case column {case_column!r}")
    if class_column not in reader.fieldnames:
        raise EventLogError(f"CSV is missing class column {class_column!r}")
    cases: dict[str, list[Event]] = {}
    case_order: list[str] = []
    for row in reader:
        case_id = row.pop(case_column)
        event_class = row.pop(class_column)
        if event_class is None or event_class == "":
            raise EventLogError(f"row in case {case_id!r} has empty event class")
        attributes: dict[str, Any] = {}
        for key, raw in row.items():
            if raw is None:
                continue
            value = cascade(raw)
            if value is not None:
                attributes[key] = value
        if timestamp_column in attributes and timestamp_column != TIMESTAMP_KEY:
            attributes[TIMESTAMP_KEY] = attributes.pop(timestamp_column)
        if case_id not in cases:
            cases[case_id] = []
            case_order.append(case_id)
        cases[case_id].append(Event(event_class, attributes))
    traces = []
    for case_id in case_order:
        events = cases[case_id]
        if sort_by_timestamp and all(event.timestamp is not None for event in events):
            events = sorted(
                enumerate(events), key=lambda pair: (pair[1].timestamp, pair[0])
            )
            events = [event for _, event in events]
        traces.append(Trace(events, {CLASS_KEY: case_id}))
    return EventLog(traces)
