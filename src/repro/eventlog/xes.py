"""Streaming XES import and export.

The paper's implementation relies on PM4Py for event-log handling; since
this reproduction implements its own substrate, this module provides a
self-contained reader/writer for the XES interchange format (IEEE
1849-2016) covering the attribute kinds GECCO needs: ``string``,
``int``, ``float``, ``boolean`` and ``date``.  Nested/list attributes
are flattened with a ``parent:child`` key convention on import and are
not re-nested on export, which is lossless for every log this package
produces.

The reader is an :mod:`xml.parsers.expat` push parser: it keeps one
stack frame per open element and builds each
:class:`~repro.eventlog.events.Event` at its ``</event>`` and each
:class:`~repro.eventlog.events.Trace` at its ``</trace>``, so no
element tree is ever materialized.  Attributes of the log, a trace or
an event come only from their direct ``string``/``int``/``float``/
``boolean``/``date``/``id`` children (nested ones flatten as
``parent:child``); the subtrees of every other element — ``<global>``,
``<extension>``, ``<list>``, a stray ``<event>`` — are skipped.  A
document with several faults reports the one a depth-first walk of its
tree meets first (the log's own attributes, then each trace's
attributes before its events), and malformed XML anywhere takes
precedence over every content fault.

The writer emits the indented document text directly, in the layout of
``xml.etree.ElementTree.indent`` + ``tostring``.
"""

from __future__ import annotations

import os
from datetime import datetime, timezone
from typing import Any, IO
from xml.parsers import expat

from repro.eventlog.events import CLASS_KEY, Event, EventLog, Trace
from repro.exceptions import EventLogError, XESParseError

_XES_TAGS = {"string", "int", "float", "boolean", "date", "id"}

#: Bytes (or characters) requested per ``read`` from a file object.
_READ_SIZE = 1 << 16

#: Attribute-value escapes, exactly as ``xml.etree`` serializes them.
_ESCAPES = str.maketrans(
    {
        "&": "&amp;",
        "<": "&lt;",
        ">": "&gt;",
        '"': "&quot;",
        "\r": "&#13;",
        "\n": "&#10;",
        "\t": "&#09;",
    }
)

#: Frame kinds of the reader's element stack.
_DOCUMENT, _LOG, _TRACE, _EVENT, _ATTRIBUTE, _SKIP = range(6)
_SKIP_FRAME = (_SKIP, None, "", ())


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


class _LogBuilder:
    """Expat handlers that build an :class:`EventLog` as the XML streams.

    Each stack frame is ``(kind, attributes, key prefix, fault rank)``:
    the dict that receives the frame's XES attributes, the
    ``parent:`` prefix nested attributes get, and where a fault inside
    the frame ranks in the order a depth-first tree walk would meet it.
    Content faults are recorded, not raised, so the parse still runs to
    the end (a later well-formedness error wins) and the walk's first
    fault is the one reported.
    """

    def __init__(self):
        self.parser = expat.ParserCreate(namespace_separator="}")
        self.parser.StartElementHandler = self._start
        self.parser.EndElementHandler = self._end
        self.parser.SkippedEntityHandler = self._skipped_entity
        #: The document frame at the bottom holds the log's attributes.
        self._stack: list[tuple] = [(_DOCUMENT, {}, "", (1,))]
        self._local_names: dict[str, str] = {}
        self._traces: list[Trace] = []
        self._events: list[Event] = []
        self._fault: Exception | None = None
        self._fault_rank: tuple = ()

    def _record(self, fault: Exception, rank: tuple) -> None:
        if self._fault is None or rank < self._fault_rank:
            self._fault, self._fault_rank = fault, rank

    def _start(self, name: str, attrs: dict[str, str]) -> None:
        stack = self._stack
        frame = stack[-1]
        kind = frame[0]
        if kind == _SKIP:
            stack.append(frame)
            return
        tag = self._local_names.get(name)
        if tag is None:
            tag = self._local_names[name] = name.rpartition("}")[2]
        if tag in _XES_TAGS and kind != _DOCUMENT:
            _kind, target, prefix, rank = frame
            key = attrs.get("key")
            if key is None:
                self._record(
                    XESParseError(f"XES attribute element <{tag}> without key"), rank
                )
            elif (value := attrs.get("value")) is None:
                self._record(XESParseError(f"XES attribute {key!r} without value"), rank)
            else:
                full_key = prefix + key
                try:
                    target[full_key] = _parse_value(tag, value)
                except XESParseError as fault:
                    self._record(fault, rank)
                stack.append((_ATTRIBUTE, target, full_key + ":", rank))
                return
            # Nothing below a keyless or valueless attribute is read.
            stack.append(_SKIP_FRAME)
        elif kind == _TRACE and tag == "event":
            stack.append((_EVENT, {}, "", frame[3][:2] + (1,)))
        elif kind == _LOG and tag == "trace":
            self._events = []
            stack.append((_TRACE, {}, "", (2, len(self._traces), 0)))
        elif kind == _DOCUMENT:
            if tag == "log":
                stack.append((_LOG,) + frame[1:])
            else:
                shown = "{" + name if "}" in name else name
                self._record(
                    XESParseError(f"expected <log> root element, got <{shown}>"), (0,)
                )
                stack.append(_SKIP_FRAME)
        else:
            stack.append(_SKIP_FRAME)

    def _end(self, name: str) -> None:
        kind, attributes, _prefix, rank = self._stack.pop()
        if kind == _EVENT:
            event_class = attributes.pop(CLASS_KEY, None)
            if event_class is None:
                self._record(XESParseError("event without concept:name attribute"), rank)
                return
            try:
                self._events.append(Event(str(event_class), attributes))
            except EventLogError as fault:
                self._record(fault, rank)
        elif kind == _TRACE:
            self._traces.append(Trace(self._events, attributes))

    def _skipped_entity(self, name: str, is_parameter_entity: bool) -> None:
        if not is_parameter_entity:
            line, column = self.parser.CurrentLineNumber, self.parser.CurrentColumnNumber
            raise XESParseError(
                f"malformed XML: undefined entity &{name};: line {line}, column {column}"
            )

    def feed(self, data, final: bool = False) -> None:
        """Push one chunk of the document through the parser."""
        try:
            self.parser.Parse(data, final)
        except expat.ExpatError as exc:
            raise XESParseError(f"malformed XML: {exc}") from exc

    def result(self) -> EventLog:
        """The parsed log, or the first fault of the document."""
        if self._fault is not None:
            raise self._fault
        return EventLog(self._traces, self._stack[0][1])


def loads(text: str | bytes) -> EventLog:
    """Parse an XES document from a string into an :class:`EventLog`."""
    builder = _LogBuilder()
    builder.feed(text, final=True)
    return builder.result()


def load(source: str | os.PathLike | IO) -> EventLog:
    """Parse an XES document from a path or file object.

    File objects may be binary or text mode; text chunks are encoded as
    UTF-8 before parsing.
    """
    try:
        if hasattr(source, "read"):
            return _load_stream(source)
        with open(source, "rb") as handle:
            return _load_stream(handle)
    except OSError as exc:
        raise XESParseError(f"cannot read XES source: {exc}") from exc


def _load_stream(handle: IO) -> EventLog:
    builder = _LogBuilder()
    while chunk := handle.read(_READ_SIZE):
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        builder.feed(chunk)
    builder.feed(b"", final=True)
    return builder.result()


def _attribute(key: str, value: Any) -> str:
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
    return f'<{tag} key="{key.translate(_ESCAPES)}" value="{text.translate(_ESCAPES)}" />'


def dumps(log: EventLog) -> str:
    """Serialize ``log`` to an XES document string.

    Attributes are written in key order, the class of each event first;
    every element sits on its own line, indented two spaces per level.
    """
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n<log xes.version=\"1.0\""]
    if not log.attributes and not len(log):
        parts.append(" />")
        return "".join(parts)
    parts.append(">")
    for key, value in sorted(log.attributes.items()):
        parts.append("\n  " + _attribute(key, value))
    for trace in log:
        if not trace.attributes and not len(trace):
            parts.append("\n  <trace />")
            continue
        parts.append("\n  <trace>")
        for key, value in sorted(trace.attributes.items()):
            parts.append("\n    " + _attribute(key, value))
        for event in trace:
            parts.append("\n    <event>\n      " + _attribute(CLASS_KEY, event.event_class))
            for key, value in sorted(event.attributes.items()):
                parts.append("\n      " + _attribute(key, value))
            parts.append("\n    </event>")
        parts.append("\n  </trace>")
    parts.append("\n</log>")
    return "".join(parts)


def dump(log: EventLog, target: str | os.PathLike | IO) -> None:
    """Serialize ``log`` to an XES file (path or binary file object)."""
    text = dumps(log)
    if hasattr(target, "write"):
        data = text
        try:
            target.write(data)
        except TypeError:
            target.write(data.encode("utf-8"))
        return
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
