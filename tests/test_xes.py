"""Unit tests for XES import/export."""

import io
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings, strategies as st

from repro.eventlog import xes
from repro.eventlog.events import Event, EventLog, Trace
from repro.exceptions import XESParseError
from tests.ingest_oracle import tree_dumps, tree_load, tree_loads

SAMPLE = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
  <string key="concept:name" value="sample"/>
  <trace>
    <string key="concept:name" value="case_1"/>
    <event>
      <string key="concept:name" value="register"/>
      <string key="org:role" value="clerk"/>
      <int key="items" value="3"/>
      <float key="cost" value="12.5"/>
      <boolean key="rush" value="true"/>
      <date key="time:timestamp" value="2021-06-01T09:00:00+00:00"/>
    </event>
    <event>
      <string key="concept:name" value="ship"/>
      <date key="time:timestamp" value="2021-06-01T10:00:00Z"/>
    </event>
  </trace>
</log>
"""


class TestLoads:
    def test_parses_structure(self):
        log = xes.loads(SAMPLE)
        assert len(log) == 1
        assert log.attributes["concept:name"] == "sample"
        assert log[0].case_id == "case_1"
        assert log[0].classes == ["register", "ship"]

    def test_value_types(self):
        event = xes.loads(SAMPLE)[0][0]
        assert event["org:role"] == "clerk"
        assert event["items"] == 3
        assert event["cost"] == 12.5
        assert event["rush"] is True
        assert event.timestamp == datetime(2021, 6, 1, 9, tzinfo=timezone.utc)

    def test_z_suffix_timestamp(self):
        event = xes.loads(SAMPLE)[0][1]
        assert event.timestamp == datetime(2021, 6, 1, 10, tzinfo=timezone.utc)

    def test_rejects_bad_xml(self):
        with pytest.raises(XESParseError):
            xes.loads("<log><trace>")

    def test_rejects_wrong_root(self):
        with pytest.raises(XESParseError):
            xes.loads("<notalog/>")

    def test_rejects_event_without_class(self):
        doc = '<log><trace><event><string key="x" value="y"/></event></trace></log>'
        with pytest.raises(XESParseError):
            xes.loads(doc)

    def test_rejects_bad_int(self):
        doc = '<log><trace><event><string key="concept:name" value="a"/><int key="n" value="zz"/></event></trace></log>'
        with pytest.raises(XESParseError):
            xes.loads(doc)

    def test_rejects_bad_date(self):
        doc = '<log><trace><event><string key="concept:name" value="a"/><date key="time:timestamp" value="yesterday"/></event></trace></log>'
        with pytest.raises(XESParseError):
            xes.loads(doc)

    def test_nested_attributes_flattened(self):
        doc = (
            '<log><trace><event><string key="concept:name" value="a"/>'
            '<string key="outer" value="1"><string key="inner" value="2"/></string>'
            "</event></trace></log>"
        )
        event = xes.loads(doc)[0][0]
        assert event["outer"] == "1"
        assert event["outer:inner"] == "2"

    def test_namespaced_tags_supported(self):
        doc = (
            '<log xmlns="http://www.xes-standard.org/"><trace><event>'
            '<string key="concept:name" value="a"/></event></trace></log>'
        )
        assert xes.loads(doc)[0].classes == ["a"]


class TestRoundtrip:
    def test_roundtrip_preserves_log(self, running_log):
        recovered = xes.loads(xes.dumps(running_log))
        assert len(recovered) == len(running_log)
        for original, parsed in zip(running_log, recovered):
            assert parsed.classes == original.classes
            for event_a, event_b in zip(original, parsed):
                assert event_a.attributes == event_b.attributes

    def test_roundtrip_via_file(self, tmp_path, running_log):
        path = tmp_path / "log.xes"
        xes.dump(running_log, path)
        recovered = xes.load(path)
        assert len(recovered) == len(running_log)
        assert recovered.classes == running_log.classes

    def test_bool_and_numbers_roundtrip(self):
        log = EventLog(
            [Trace([Event("a", {"flag": False, "n": 7, "x": 0.25})])]
        )
        event = xes.loads(xes.dumps(log))[0][0]
        assert event["flag"] is False
        assert event["n"] == 7
        assert event["x"] == 0.25

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(XESParseError):
            xes.load(tmp_path / "missing.xes")


# -- differential tests against the tree reader/writer -------------------------

_NS = "http://www.xes-standard.org/"

#: Raw ``value=`` texts per attribute tag that parse, and ones that do not.
_VALUES = {
    "string": ["x", "a &amp; b", "&lt;t&gt; &quot;q&quot;", "l&#10;m&#13;n&#9;o", " pad ", "é", "&who;"],
    "id": ["id-1", ""],
    "int": ["3", "-7", "+7", "1_000", " 12 "],
    "float": ["0.25", "1e3", "nan", "-inf", " 2.5 "],
    "boolean": ["true", "FALSE", " True ", "yes"],
    "date": ["2021-06-01T09:00:00Z", "2021-06-01T09:00:00.5+02:00", " 2021-06-01 ", "2021-06-01T09:00:00"],
}
_BAD_VALUES = {"int": ["zz", ""], "float": ["oops"], "date": ["yesterday"]}
_KEYS = ["concept:name", "org:role", "cost", "k", "k:n", "a&amp;b"]
#: Elements whose whole subtree every reader skips.
_IGNORED = [
    '<global scope="event"><string key="concept:name" value="G"/></global>',
    '<extension name="Concept" prefix="concept" uri="http://x/concept.xesext"/>',
    '<list key="l"><string key="z" value="1"/></list>',
    "<classifier/>",
    "<!-- a comment --><?pi data?>",
]


def _rare(draw):
    """True about once in twenty draws (hypothesis favours boundary values)."""
    return draw(st.integers(0, 19)) == 13


@st.composite
def _attribute(draw, depth=0):
    """``(tag, element head, children)``; about one in twenty is faulty."""
    tag = draw(st.sampled_from(sorted(_VALUES)))
    parts = [tag]
    fault = _rare(draw)
    if not fault or draw(st.booleans()):
        parts.append(f'key="{draw(st.sampled_from(_KEYS))}"')
    if not fault or draw(st.booleans()):
        pool = _BAD_VALUES.get(tag, []) if fault else []
        parts.append(f'value="{draw(st.sampled_from(pool or _VALUES[tag]))}"')
    children = []
    if depth < 2 and draw(st.integers(0, 3)) == 0:
        children = draw(st.lists(_attribute(depth + 1), max_size=2))
        if draw(st.integers(0, 3)) == 0:
            children.append(draw(st.sampled_from(_IGNORED)))
    return (tag, " ".join(parts), children)


@st.composite
def _xes_document(draw):
    """An XES document (text, encoding) exercising the reader's rules."""
    prefix = draw(st.sampled_from(["", "x:"]))

    def render(node):
        if isinstance(node, str):
            return node
        tag, head, children = node
        tag_prefix = prefix if draw(st.booleans()) else ""
        head = head.replace(tag, tag_prefix + tag, 1)
        if not children:
            return f"<{head}/>"
        inner = "".join(render(child) for child in children)
        return f"<{head}>{inner}</{tag_prefix}{tag}>"

    def attributes(with_class):
        nodes = draw(st.lists(_attribute(), max_size=3))
        if with_class:
            nodes.insert(0, ("string", 'string key="concept:name" value="act"', []))
        if draw(st.integers(0, 5)) == 0:
            nodes.append(draw(st.sampled_from(_IGNORED)))
        draw(st.randoms()).shuffle(nodes)
        return "".join(render(node) for node in nodes)

    traces = []
    for _ in range(draw(st.integers(0, 3))):
        events = []
        for _ in range(draw(st.integers(0, 3))):
            with_class = not _rare(draw)
            events.append(f"<{prefix}event>{attributes(with_class)}</{prefix}event>")
        body = events + [attributes(False)]
        if draw(st.integers(0, 6)) == 0:
            body.append(f"<{prefix}trace><{prefix}event/></{prefix}trace>")
        draw(st.randoms()).shuffle(body)
        traces.append(f"<{prefix}trace>{''.join(body)}</{prefix}trace>")
    body = traces + [attributes(False)]
    if draw(st.integers(0, 6)) == 0:
        body.append(f"<{prefix}event>{attributes(True)}</{prefix}event>")
    draw(st.randoms()).shuffle(body)

    root = "notlog" if _rare(draw) else "log"
    namespaces = f' xmlns="{_NS}"' if draw(st.booleans()) else ""
    if prefix:
        namespaces += f' xmlns:x="{_NS}"'
    document = f'<{prefix}{root}{namespaces} xes.version="1.0">{"".join(body)}</{prefix}{root}>'
    if "&who;" in document:
        document = '<!DOCTYPE log [<!ENTITY who "W &amp; co">]>' + document
    encoding = draw(st.sampled_from([None, "UTF-8", "ISO-8859-1"]))
    if encoding is not None:
        document = f'<?xml version="1.0" encoding="{encoding}"?>\n' + document
    if draw(st.integers(0, 9)) == 0:
        document = "\ufeff" + document
    if _rare(draw):
        document = document[: draw(st.integers(0, len(document)))]
    return document, encoding or "utf-8"


def _outcome(call, source):
    """A log as typed ``(key, value)`` rows in insertion order, or the error."""
    try:
        log = call(source)
    except Exception as exc:  # both readers must fail alike
        return type(exc).__name__, str(exc)

    def rows(attributes):
        return [(key, type(value).__name__, repr(value)) for key, value in attributes.items()]

    return rows(log.attributes), [
        (rows(trace.attributes), [(event.event_class, rows(event.attributes)) for event in trace])
        for trace in log
    ]


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("xes")


class TestStreamingReaderMatchesTreeReader:
    @given(document=_xes_document())
    @settings(max_examples=200, deadline=None)
    def test_every_source_kind(self, document, scratch_dir):
        text, encoding = document
        if text.startswith("\ufeff") and encoding != "utf-8":
            data = text.encode("utf-8")
        else:
            data = text.encode(encoding, "xmlcharrefreplace")
        path = scratch_dir / "doc.xes"
        path.write_bytes(data)
        cases = [
            (xes.loads, tree_loads, lambda: text),
            (xes.loads, tree_loads, lambda: data),
            (xes.load, tree_load, lambda: path),
            (xes.load, tree_load, lambda: str(path)),
            (xes.load, tree_load, lambda: io.BytesIO(data)),
            (xes.load, tree_load, lambda: io.StringIO(text)),
        ]
        for streaming, tree, source in cases:
            assert _outcome(streaming, source()) == _outcome(tree, source())

    def test_text_mode_file_object(self, running_log):
        text = xes.dumps(running_log)
        assert _outcome(xes.load, io.StringIO(text)) == _outcome(tree_load, io.StringIO(text))
        assert _outcome(xes.load, io.StringIO(text))[1]

    def test_duplicate_keys_keep_first_position_last_value(self):
        doc = (
            '<log><trace><event><string key="a" value="1"/><string key="concept:name" value="e"/>'
            '<string key="b" value="2"/><int key="a" value="3"/>'
            '<string key="b" value="x"><string key="c" value="4"/></string>'
            '<string key="b:c" value="5"/></event></trace></log>'
        )
        event = xes.loads(doc)[0][0]
        assert list(event.attributes.items()) == [("a", 3), ("b", "x"), ("b:c", "5")]
        assert _outcome(xes.loads, doc) == _outcome(tree_loads, doc)

    def test_first_fault_in_tree_order_wins(self):
        # The tree walk reads the log's attributes before any trace and a
        # trace's attributes before its events, whatever the document order.
        doc = (
            '<log><trace><event><int key="concept:name" value="zz"/></event>'
            '<float key="t" value="bad"/></trace><date key="d" value="never"/></log>'
        )
        with pytest.raises(XESParseError, match="date"):
            xes.loads(doc)
        assert _outcome(xes.loads, doc) == _outcome(tree_loads, doc)
        doc = doc.replace('<date key="d" value="never"/>', "")
        with pytest.raises(XESParseError, match="float"):
            xes.loads(doc)

    def test_malformed_xml_beats_content_faults(self):
        doc = '<notlog><trace><event><int key="n" value="zz"/></event></trace></log>'
        with pytest.raises(XESParseError, match="malformed XML: mismatched tag"):
            xes.loads(doc)
        assert _outcome(xes.loads, doc) == _outcome(tree_loads, doc)

    def test_unreadable_source(self, tmp_path):
        with pytest.raises(XESParseError, match="cannot read XES source"):
            xes.load(tmp_path)


_TEXT = st.text(alphabet=st.sampled_from('ab &<>"\'\n\r\té€\x00'), max_size=6)
_VALUE = st.one_of(
    _TEXT,
    st.integers(-(10**20), 10**20),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.datetimes(timezones=st.one_of(st.none(), st.timezones())),
)
_ATTRIBUTES = st.dictionaries(_TEXT, _VALUE, max_size=3)
_LOG = st.builds(
    EventLog,
    st.lists(
        st.builds(
            Trace,
            st.lists(st.builds(Event, _TEXT.filter(bool), _ATTRIBUTES), max_size=3),
            _ATTRIBUTES,
        ),
        max_size=3,
    ),
    _ATTRIBUTES,
)


class TestStreamingWriterMatchesTreeWriter:
    @given(log=_LOG)
    @settings(max_examples=200, deadline=None)
    def test_byte_identical(self, log):
        assert xes.dumps(log) == tree_dumps(log)

    def test_escaping(self):
        log = EventLog([Trace([Event("a&b", {"k<": '& < > " \n \r \t'})])])
        text = xes.dumps(log)
        assert text == tree_dumps(log)
        assert 'value="&amp; &lt; &gt; &quot; &#10; &#13; &#09;"' in text
        assert xes.loads(text)[0][0]["k<"] == '& < > " \n \r \t'

    def test_running_example_byte_identical(self, running_log):
        assert xes.dumps(running_log) == tree_dumps(running_log)

    def test_empty_log(self):
        assert xes.dumps(EventLog()) == tree_dumps(EventLog())
