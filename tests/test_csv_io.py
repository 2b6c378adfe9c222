"""Unit tests for CSV import/export."""

import csv
import io
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.eventlog import csv_io
from repro.eventlog.events import TIMESTAMP_KEY
from repro.exceptions import EventLogError
from tests.ingest_oracle import cascade, dictreader_read_csv

CSV_TEXT = """case:concept:name,concept:name,time:timestamp,cost,rush
c1,register,2021-06-01T09:00:00+00:00,12.5,true
c1,ship,2021-06-01T10:00:00+00:00,3,false
c2,register,2021-06-02T09:00:00+00:00,7.25,true
"""


class TestReadCsv:
    def test_groups_rows_into_cases(self):
        log = csv_io.read_csv(io.StringIO(CSV_TEXT))
        assert len(log) == 2
        assert log[0].classes == ["register", "ship"]
        assert log[1].classes == ["register"]

    def test_value_coercion(self):
        log = csv_io.read_csv(io.StringIO(CSV_TEXT))
        event = log[0][0]
        assert event["cost"] == 12.5
        assert event["rush"] is True
        assert event.timestamp is not None

    def test_int_coercion(self):
        log = csv_io.read_csv(io.StringIO(CSV_TEXT))
        assert log[0][1]["cost"] == 3

    def test_sorts_by_timestamp(self):
        shuffled = (
            "case:concept:name,concept:name,time:timestamp\n"
            "c1,second,2021-06-01T10:00:00+00:00\n"
            "c1,first,2021-06-01T09:00:00+00:00\n"
        )
        log = csv_io.read_csv(io.StringIO(shuffled))
        assert log[0].classes == ["first", "second"]

    def test_no_sort_when_disabled(self):
        shuffled = (
            "case:concept:name,concept:name,time:timestamp\n"
            "c1,second,2021-06-01T10:00:00+00:00\n"
            "c1,first,2021-06-01T09:00:00+00:00\n"
        )
        log = csv_io.read_csv(io.StringIO(shuffled), sort_by_timestamp=False)
        assert log[0].classes == ["second", "first"]

    def test_missing_case_column(self):
        with pytest.raises(EventLogError):
            csv_io.read_csv(io.StringIO("concept:name\nregister\n"))

    def test_missing_class_column(self):
        with pytest.raises(EventLogError):
            csv_io.read_csv(io.StringIO("case:concept:name\nc1\n"))

    def test_empty_class_rejected(self):
        text = "case:concept:name,concept:name\nc1,\n"
        with pytest.raises(EventLogError):
            csv_io.read_csv(io.StringIO(text))

    def test_no_header(self):
        with pytest.raises(EventLogError):
            csv_io.read_csv(io.StringIO(""))

    def test_custom_columns(self):
        text = "case,activity\nc1,a\nc1,b\n"
        log = csv_io.read_csv(
            io.StringIO(text), case_column="case", class_column="activity"
        )
        assert log[0].classes == ["a", "b"]


class TestWriteCsv:
    def test_roundtrip(self, running_log):
        recovered = csv_io.csv_roundtrip(running_log)
        assert len(recovered) == len(running_log)
        for original, parsed in zip(running_log, recovered):
            assert parsed.classes == original.classes
            for event_a, event_b in zip(original, parsed):
                assert event_b["org:role"] == event_a["org:role"]
                assert event_b["duration"] == event_a["duration"]
                assert event_b.timestamp == event_a.timestamp

    def test_write_to_path(self, tmp_path, running_log):
        path = tmp_path / "log.csv"
        csv_io.write_csv(running_log, path)
        log = csv_io.read_csv(path)
        assert len(log) == len(running_log)

    def test_timestamp_column_rename(self):
        text = "case:concept:name,concept:name,ts\nc1,a,2021-06-01T09:00:00+00:00\n"
        log = csv_io.read_csv(io.StringIO(text), timestamp_column="ts")
        assert TIMESTAMP_KEY in log[0][0].attributes


# -- differential tests against the DictReader reader ------------------------

#: Cells whose coercion is easy to get subtly wrong.
_TRICKY = [
    "1_000", "+7", "-0", "٣", "١٢.٥", "nan", "-inf", "Infinity", "TRUE", "false",
    "  42  ", " 3.5", "1.", ".5", "1e5", "1e-5", "-2.5E+3", "0x1F", "20210601", "12:30",
    "2021-06-01", "2021-06-01T09:00:00", "2021-06-01T09:00:00+02:00",
    " 2021-06-01 09:00:00Z ", "abc", "", " ", "a,b", 'q"q',
]
_CELL = st.one_of(st.sampled_from(_TRICKY), st.text(max_size=5))


def _same_value(a, b):
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return type(a) is type(b) and a == b


class TestCoercionMatchesCascade:
    @given(raw=_CELL)
    @settings(max_examples=500, deadline=None)
    def test_same_value_and_type(self, raw):
        assert _same_value(csv_io._coerce(raw), cascade(raw))

    @pytest.mark.parametrize("raw", _TRICKY)
    def test_tricky_cells(self, raw):
        assert _same_value(csv_io._coerce(raw), cascade(raw))


@st.composite
def _csv_document(draw):
    extra = draw(st.lists(st.sampled_from(["time:timestamp", "cost", "role", "x"]), max_size=4))
    header = ["case:concept:name", "concept:name"] + extra
    draw(st.randoms()).shuffle(header)
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        row = []
        for name in header:
            if name == "case:concept:name":
                row.append(draw(st.sampled_from(["c1", "c2", "c3"])))
            elif name == "concept:name":
                row.append(draw(st.sampled_from(["a", "b", "c"])))
            elif name == "time:timestamp":
                row.append(draw(st.sampled_from(
                    ["2021-06-01T09:00:00", "2021-06-01T08:00:00+00:00", "2021-06-02", "7"]
                )))
            else:
                row.append(draw(_CELL))
        if draw(st.integers(0, 9)) == 7:
            row = row[: draw(st.integers(1, len(row)))]
        lines.append(row)
        if draw(st.integers(0, 9)) == 7:
            lines.append([])
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    for row in lines:
        if row:
            writer.writerow(row)
        else:
            buffer.write("\r\n")
    return buffer.getvalue()


def _outcome(read, text, **options):
    try:
        log = read(io.StringIO(text), **options)
    except Exception as exc:  # both readers must fail alike
        return type(exc).__name__, str(exc)

    def rows(attributes):
        return [(key, type(value).__name__, repr(value)) for key, value in attributes.items()]

    return [
        (rows(trace.attributes), [(event.event_class, rows(event.attributes)) for event in trace])
        for trace in log
    ]


class TestReaderMatchesDictReader:
    @given(text=_csv_document(), sort=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equal_logs(self, text, sort):
        assert _outcome(csv_io.read_csv, text, sort_by_timestamp=sort) == _outcome(
            dictreader_read_csv, text, sort_by_timestamp=sort
        )

    @given(text=_csv_document())
    @settings(max_examples=50, deadline=None)
    def test_renamed_timestamp_column(self, text):
        text = text.replace("time:timestamp", "x", 1)
        assert _outcome(csv_io.read_csv, text, timestamp_column="x") == _outcome(
            dictreader_read_csv, text, timestamp_column="x"
        )

    def test_path_source(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(CSV_TEXT, encoding="utf-8")
        assert _outcome(lambda _: csv_io.read_csv(path), CSV_TEXT) == _outcome(
            dictreader_read_csv, CSV_TEXT
        )


class TestRowShapes:
    HEADER = "case:concept:name,concept:name,cost,role\n"

    def test_long_row_names_its_line(self):
        text = self.HEADER + "c1,a,1,r\nc1,b,2,r,extra\n"
        with pytest.raises(EventLogError, match="CSV line 3 has 5 cells"):
            csv_io.read_csv(io.StringIO(text))

    def test_short_row_skips_missing_cells(self):
        log = csv_io.read_csv(io.StringIO(self.HEADER + "c1,a,5\n"))
        assert log[0][0].attributes == {"cost": 5}

    def test_short_row_without_class_rejected(self):
        with pytest.raises(EventLogError, match="empty event class"):
            csv_io.read_csv(io.StringIO(self.HEADER + "c1\n"))

    def test_blank_lines_skipped(self):
        log = csv_io.read_csv(io.StringIO(self.HEADER + "\nc1,a,1,r\n\n\nc1,b,2,r\n"))
        assert log[0].classes == ["a", "b"]

    def test_duplicate_header_last_column_wins_first_position(self):
        text = "case:concept:name,x,concept:name,y,x\nc1,1,a,2,3\n"
        event = csv_io.read_csv(io.StringIO(text))[0][0]
        assert list(event.attributes.items()) == [("x", 3), ("y", 2)]
        assert _outcome(csv_io.read_csv, text) == _outcome(dictreader_read_csv, text)

    def test_nan_cells_stay_distinct_objects(self):
        log = csv_io.read_csv(io.StringIO(self.HEADER + "c1,a,nan,r\nc1,b,nan,r\n"))
        first, second = (event["cost"] for event in log[0])
        assert first is not second
