"""Parsing, mark encoding, windowing, and list-file round trips."""
import dataclasses
import datetime as dt
import gc
import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailcast.ingest import (
    DateWindow,
    Direction,
    EmptyListError,
    EventSpec,
    MarkParseError,
    PerformanceList,
    RawMark,
    Unit,
    build_performance_list,
    decode_mark,
    encode_mark,
    format_raw_mark,
    format_seconds,
    load_performance_list,
    parse_time,
    read_list_file,
    write_list_file,
)
from tailcast.emprior import two_pass_fit
from tailcast.sampler import SamplerConfig
from tailcast.synth import sample_tail, tail_performance_list, write_corpus

import oracles


def test_parse_time_known_values():
    assert parse_time("2:03:38") == 7418.0
    assert parse_time("9.58") == 9.58
    assert parse_time("1:41.01") == pytest.approx(101.01, abs=1e-12)
    assert parse_time("65:50") == 3950.0  # leading field may exceed 59
    assert parse_time(" 12:00 ") == 720.0


@pytest.mark.parametrize("bad", ["", "1:75", "1:2:3:4", "x", "3:", ":30", "1:05:61", "-5"])
def test_parse_time_rejects(bad):
    with pytest.raises(MarkParseError):
        parse_time(bad)


# Fields valid and not, at and past 60, padded, and in full-width and
# Arabic-Indic digits, which the \d of a str pattern and float() both read.
_TIME_TOKENS = ["", "0", "7", "00", "59", "60", "65", "9.58", "59.99", "60.0", "1.", ".5",
                "1e3", "+3", "-1", "1_0", "x", " 7", "7 ", "１２", "٣.٥", "5\n"]


def test_parse_time_matches_the_oracle():
    texts = [":".join(parts) for n in (1, 2, 3)
             for parts in itertools.product(_TIME_TOKENS, repeat=n)]
    texts += ["1:2:3:4", " 1:05:00 ", "\t59.5\n", "1::2", ":::"]

    def outcome(parse, text):
        try:
            return parse(text)
        except MarkParseError as exc:
            return str(exc)

    for text in texts:
        assert outcome(parse_time, text) == outcome(oracles.parse_time, text), text


def test_format_seconds():
    assert format_seconds(9.58) == "9.58"
    assert format_seconds(206.0) == "3:26.00"
    assert format_seconds(7418.0) == "2:03:38.00"
    assert format_seconds(59.999) == "1:00.00"  # rounds up across the minute


@given(st.floats(0.01, 4 * 3600.0))
@settings(max_examples=300)
def test_parse_format_roundtrip(t):
    # two decimals: within half a hundredth, to the rounding of t * 100
    assert abs(parse_time(format_seconds(t)) - t) <= 0.005 + 1e-9


def test_encode_mark_examples():
    run = EventSpec.running("r")
    jump = EventSpec.field("f")
    assert encode_mark(run, 100.0) == pytest.approx(4.605170185988092)
    assert encode_mark(jump, 1.0) == 0.0
    assert encode_mark(jump, 895.0) == pytest.approx(-6.796824, abs=1e-6)
    with pytest.raises(ValueError):
        encode_mark(run, 0.0)
    with pytest.raises(ValueError):
        encode_mark(jump, -3.0)


@given(st.floats(1e-6, 1e8))
def test_encode_decode_roundtrip(v):
    for spec in (EventSpec.running("r"), EventSpec.field("f")):
        assert decode_mark(spec, encode_mark(spec, v)) == pytest.approx(v, rel=1e-12)


@given(st.floats(0.5, 1e5), st.floats(0.5, 1e5))
@example(a=100000.0, b=99999.99999999999)
@example(a=99999.99999999999, b=100000.0)
def test_encoding_order_isomorphism(a, b):
    # A better raw mark is never encoded worse, and a strictly smaller
    # transformed mark means a strictly better raw one. Strict order both
    # ways holds only when the marks differ by more than rounding: adjacent
    # doubles such as the pinned pair share one logarithm.
    run = EventSpec.running("r")
    jump = EventSpec.field("f")
    for spec, better in ((run, a < b), (jump, a > b)):
        x_a, x_b = encode_mark(spec, a), encode_mark(spec, b)
        if better:
            assert x_a <= x_b
        if x_a < x_b:
            assert better
        if abs(a - b) > 1e-12 * max(a, b):
            assert better == (x_a < x_b)


def test_event_spec_validation():
    with pytest.raises(ValueError):
        EventSpec("x", Direction.LOWER_IS_BETTER, Unit.CENTIMETERS)
    with pytest.raises(ValueError):
        EventSpec("x", Direction.HIGHER_IS_BETTER, Unit.SECONDS)
    with pytest.raises(ValueError):
        EventSpec("", Direction.LOWER_IS_BETTER, Unit.SECONDS)
    # an id names its fit file: no path separator or control character
    for event_id in ("../../escaped", "sub/m0800", "a\\b", "a\tb", "a\nb", "a\x00b", "a\x1fb",
                     "a\x7fb"):
        with pytest.raises(ValueError, match="may not hold"):
            EventSpec.running(event_id)
    for event_id in ("..", "m0100 (copy)", "İ1mile", "a\x80b"):
        assert EventSpec.field(event_id).event_id == event_id


def test_format_raw_mark():
    assert format_raw_mark(EventSpec.running("r"), 7418.0) == "2:03:38.00"
    assert format_raw_mark(EventSpec.field("f"), 895.0) == "8.95"


def test_date_window():
    w = DateWindow.calendar_years(2001, 2003)
    assert w.contains(dt.date(2001, 1, 1))
    assert w.contains(dt.date(2003, 12, 31))
    assert not w.contains(dt.date(2004, 1, 1))
    assert not w.contains(dt.date(2000, 12, 31))

    before = DateWindow.before(2008)
    assert before.contains(dt.date(1950, 3, 1))
    assert not before.contains(dt.date(2008, 1, 1))

    five = DateWindow.years_before(2008, 5)
    assert five.start == dt.date(2003, 1, 1)
    assert five.end == dt.date(2008, 1, 1)

    with pytest.raises(ValueError):
        DateWindow.calendar_years(2005, 2004)
    # a window holds whole calendar years
    with pytest.raises(ValueError):
        DateWindow(dt.date(2015, 6, 1), dt.date(2020, 1, 1))
    with pytest.raises(ValueError):
        DateWindow(None, dt.date(2020, 1, 2))


def test_performance_list_t_m():
    run = EventSpec.running("m100")
    d = dt.date
    records = [RawMark(10.0 + i / 100.0, d(2009 + i, 3 + i, 1)) for i in range(10)]
    # a window with a start: its whole calendar years, not its days / 365.25
    five = build_performance_list(run, records, window=DateWindow.years_before(2019, 5))
    assert five.t_m == 5.0
    three = build_performance_list(run, records, window=DateWindow.calendar_years(2018, 2020))
    assert three.t_m == 3.0
    # no start: the span of the record dates
    before = build_performance_list(run, records, window=DateWindow.before(2019))
    assert before.t_m == (d(2018, 12, 1) - d(2009, 3, 1)).days / 365.25
    unbounded = build_performance_list(run, records)
    assert unbounded.t_m == (d(2018, 12, 1) - d(2009, 3, 1)).days / 365.25
    # floored at one year for a list dated within one year
    within = build_performance_list(run, [RawMark(10.0, d(2012, 2, 1)),
                                          RawMark(10.1, d(2012, 9, 1))])
    assert within.t_m == 1.0


def _sprint_records():
    d = dt.date
    return [
        RawMark(9.69, d(2008, 8, 16), "bolt"),
        RawMark(9.58, d(2009, 8, 16), "bolt"),
        RawMark(9.72, d(2008, 5, 31), "bolt"),
    ]


def test_build_performance_list_ordering():
    run = EventSpec.running("m100")
    data = build_performance_list(run, _sprint_records())
    assert data.n_k == 3
    assert [r.value for r in data.records] == [9.58, 9.69, 9.72]
    assert data.marks == tuple(math.log(v) for v in (9.58, 9.69, 9.72))
    assert data.w_k == math.log(9.72)
    assert data.best == math.log(9.58)


def test_build_performance_list_field_ordering():
    jump = EventSpec.field("lj")
    d = dt.date
    data = build_performance_list(
        jump, [RawMark(890.0, d(1991, 8, 30)), RawMark(895.0, d(1991, 8, 30))]
    )
    assert data.marks == (-math.log(895.0), -math.log(890.0))
    assert data.w_k == -math.log(890.0)


def test_build_performance_list_ties_kept():
    run = EventSpec.running("m100")
    d = dt.date
    records = [RawMark(9.79, d(2012, 8, 5), "a"), RawMark(9.79, d(2015, 8, 23), "b")]
    data = build_performance_list(run, records)
    assert data.n_k == 2
    assert data.marks[0] == data.marks[1]
    # date breaks the tie in record ordering
    assert [r.athlete for r in data.records] == ["a", "b"]
    # on one mark and date the athlete decides, then the input order
    day = d(2016, 8, 14)
    tied = [RawMark(9.81, day, "z"), RawMark(9.81, day, "c"), RawMark(9.81, day),
            RawMark(9.81, day, "c"), RawMark(9.80, day, "q")]
    data = build_performance_list(run, tied)
    assert data.records == (tied[4], tied[2], tied[1], tied[3], tied[0])
    assert data.marks == tuple(math.log(r.value) for r in data.records)


def test_build_performance_list_windowing():
    run = EventSpec.running("m100")
    w = DateWindow.calendar_years(2008, 2008)
    data = build_performance_list(run, _sprint_records(), window=w)
    assert data.n_k == 2
    assert data.window is w
    with pytest.raises(EmptyListError):
        build_performance_list(run, _sprint_records(), window=DateWindow.calendar_years(1999, 2000))


def test_build_performance_list_record_is_the_best_before_the_window_end():
    run = EventSpec.running("m100")
    d = dt.date
    records = [*_sprint_records(), RawMark(9.50, d(2005, 6, 1)), RawMark(9.40, d(2012, 6, 1))]
    # all data: the record is the best mark
    assert build_performance_list(run, records).record == math.log(9.40)
    # 2008 only: the 2005 mark is older than the window and still the record
    # then; the 2012 mark comes after it
    only_2008 = build_performance_list(run, records, window=DateWindow.calendar_years(2008, 2008))
    assert only_2008.best == math.log(9.69)
    assert only_2008.record == math.log(9.50)
    # before 2009: nothing left out of the window is older
    before = build_performance_list(run, records, window=DateWindow.before(2009))
    assert before.record == before.best == math.log(9.50)
    # the best mark of the window is the record when nothing earlier beats it
    late = build_performance_list(run, records, window=DateWindow.calendar_years(2009, 2012))
    assert late.record == late.best == math.log(9.40)


def _window_edge_records():
    d = dt.date
    return [
        RawMark(10.00, d(2010, 1, 1), "start edge"),
        RawMark(10.05, d(2013, 1, 1), "end edge"),
        RawMark(10.05, d(2012, 12, 31)),
        # ties on mark and date, and on the athlete too
        RawMark(10.10, d(2011, 6, 1), "b"),
        RawMark(10.10, d(2011, 6, 1), "a"),
        RawMark(10.10, d(2011, 6, 1), "a"),
        RawMark(10.20, d(2009, 12, 31)),
        # before 2010 and better than every mark of 2010-2012
        RawMark(9.90, d(2005, 7, 1)),
        # after 2012 and better still: never the record of a window that ends before it
        RawMark(9.80, d(2014, 7, 1)),
    ]


EDGE_EVENTS = [EventSpec.running("m100"), EventSpec.field("lj")]


@pytest.mark.parametrize("reverse", [False, True], ids=["given", "reversed"])
@pytest.mark.parametrize("event", EDGE_EVENTS, ids=lambda e: e.event_id)
@pytest.mark.parametrize("window", [
    None,
    DateWindow.calendar_years(2010, 2012),
    DateWindow.calendar_years(2013, 2013),
    DateWindow.calendar_years(2014, 2014),
    DateWindow.years_before(2010, 1),
    DateWindow.before(2010),
    DateWindow.before(2013),
    DateWindow.before(2030),
], ids=["none", "2010-2012", "2013", "2014", "2009", "before-2010", "before-2013",
        "before-2030"])
def test_build_performance_list_and_within_match_the_oracle(window, event, reverse):
    records = _window_edge_records()[::-1] if reverse else _window_edge_records()
    want = oracles.build_performance_list(event, records, window)
    built = [build_performance_list(event, records, window)]
    if window is not None:
        built.append(build_performance_list(event, records).within(window))
    for got in built:
        assert got.records == want.records
        assert got.marks == want.marks
        assert got.record == want.record
        assert got.window == want.window
        assert got.t_m == oracles.t_m(want)


@pytest.mark.parametrize("event", EDGE_EVENTS, ids=lambda e: e.event_id)
@pytest.mark.parametrize("window", [DateWindow.calendar_years(2020, 2021),
                                    DateWindow.before(2005)], ids=["after", "before"])
def test_an_empty_window_is_refused_as_the_oracle_refuses(window, event):
    records = _window_edge_records()
    with pytest.raises(EmptyListError) as want:
        oracles.build_performance_list(event, records, window)
    with pytest.raises(EmptyListError) as built:
        build_performance_list(event, records, window)
    with pytest.raises(EmptyListError) as cut:
        build_performance_list(event, records).within(window)
    assert str(built.value) == str(cut.value) == str(want.value)


def test_within_refuses_a_windowed_list():
    data = build_performance_list(EventSpec.running("m100"), _window_edge_records(),
                                  window=DateWindow.before(2013))
    with pytest.raises(ValueError, match="^m100: the list is already cut to"):
        data.within(DateWindow.calendar_years(2010, 2011))


def test_list_file_roundtrip(tmp_path):
    run = EventSpec.running("m100", display_name="100 m")
    path = tmp_path / "m100.tsv"
    write_list_file(path, run, _sprint_records())
    event, records = read_list_file(path)
    assert event == run
    assert records == sorted(_sprint_records(), key=lambda r: r.date) or records == _sprint_records()
    # second trip is byte-identical
    again = tmp_path / "again.tsv"
    write_list_file(again, event, records)
    assert again.read_bytes() == path.read_bytes()


def test_load_performance_list_matches_manual(tmp_path):
    run = EventSpec.running("m100")
    path = tmp_path / "m100.tsv"
    write_list_file(path, run, _sprint_records())
    loaded = load_performance_list(path)
    manual = build_performance_list(run, _sprint_records())
    assert loaded.marks == manual.marks
    with pytest.raises(EmptyListError):
        load_performance_list(path, window=DateWindow.calendar_years(1990, 1991))


def test_list_file_with_a_byte_order_mark(tmp_path):
    # spreadsheet exports often start with one; it is not part of the header
    run = EventSpec.running("m100")
    plain = tmp_path / "m100.tsv"
    write_list_file(plain, run, _sprint_records())
    bom = tmp_path / "bom.tsv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_list_file(bom) == read_list_file(plain)
    assert load_performance_list(bom) == load_performance_list(plain)


def test_read_list_file_meters_scaled(tmp_path):
    path = tmp_path / "lj.tsv"
    path.write_text(
        "# event=lj\n# unit=m\n# direction=higher\n"
        "8.95\t1991-08-30\tpowell\n8.90\t1968-10-18\tbeamon\n",
        encoding="utf-8",
    )
    event, records = read_list_file(path)
    assert event.unit is Unit.CENTIMETERS
    assert sorted(r.value for r in records) == pytest.approx([890.0, 895.0])


def test_read_list_file_header_errors(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("# unit=s\n9.58\t2009-08-16\n", encoding="utf-8")
    with pytest.raises(MarkParseError):
        read_list_file(path)  # no direction
    path.write_text("# direction=lower\n9.58\t2009-08-16\n", encoding="utf-8")
    with pytest.raises(MarkParseError):
        read_list_file(path)  # no unit
    path.write_text("# unit=s\n# direction=lower\n9.58\n", encoding="utf-8")
    with pytest.raises(MarkParseError):
        read_list_file(path)  # record missing date
    path.write_text("# unit=s\n# direction=lower\n9.58\t16-08-2009\n", encoding="utf-8")
    with pytest.raises(MarkParseError):
        read_list_file(path)


@pytest.mark.parametrize("day", ["20190105", "2019-W01-1", "2019-1-05", "２０１９-01-05",
                                 "2019-02-29"])
def test_only_an_ascii_yyyy_mm_dd_date_is_read(tmp_path, day):
    # date.fromisoformat reads the compact forms on Python 3.11 and not on
    # 3.10; a list file reads the same on every version
    path = tmp_path / "bad.tsv"
    path.write_text(f"# unit=s\n# direction=lower\n9.58\t2009-08-16\n9.69\t{day}\n",
                    encoding="utf-8")
    message = f"^bad.tsv:4: invalid ISO date '{day}'$"
    with pytest.raises(MarkParseError, match=message):
        read_list_file(path)
    with pytest.raises(MarkParseError, match=message):
        load_performance_list(path)


@pytest.mark.parametrize("row", ["0\t2019-13-01", "-1\t20190105\tx", "x\t2019-13-01",
                                 "inf\t2019-01-01", "0", "8.0\t2019-02-29\t"])
def test_a_row_is_refused_for_its_first_bad_field_as_the_oracle_refuses(tmp_path, row):
    # the value is read first, then the date, then the value checked positive
    path = tmp_path / "lj.tsv"
    path.write_text(f"# unit=m\n# direction=higher\n8.95\t1991-08-30\n{row}\n",
                    encoding="utf-8")
    with pytest.raises(MarkParseError) as want:
        oracles.read_list_file(path)
    for read in (read_list_file, load_performance_list):
        with pytest.raises(MarkParseError) as got:
            read(path)
        assert str(got.value) == str(want.value)


def test_lists_are_equal_when_their_columns_are():
    run = EventSpec.running("m100")
    data = build_performance_list(run, _window_edge_records())
    assert data == build_performance_list(run, _window_edge_records()[::-1])
    for other in (dataclasses.replace(data, days=data.days + 1),
                  dataclasses.replace(data, values=data.values * 2.0),
                  dataclasses.replace(data, athletes=None),
                  dataclasses.replace(data, marks=data.marks[::-1]),
                  dataclasses.replace(data, record=data.marks[1]),
                  data.within(DateWindow.before(2030)),
                  build_performance_list(EventSpec.field("m100"), _window_edge_records())):
        assert data != other


def test_reserialization_idempotent(tmp_path):
    # loading our own serialization reproduces the same PerformanceList
    run = EventSpec.running("m100")
    first = build_performance_list(run, _sprint_records())
    path = tmp_path / "m100.tsv"
    write_list_file(path, first.event, first.records)
    second = load_performance_list(path)
    assert second.marks == first.marks
    assert second.records == first.records


# List files for the property below. Each is one of four kinds of marks,
# its athletes absent, present or mixed, with ties on mark and on date, an
# optional byte-order mark, and at most one bad field.
_KINDS = {
    # kind: (unit token, direction, a mark's text from an integer, bad mark texts)
    "seconds": ("s", "lower", lambda v: f"{v / 100:.2f}", ["x", "1:75", "-5", "0", ""]),
    "hms": ("s", "lower", lambda v: f"{v // 3600}:{v // 60 % 60:02d}:{v % 60:02d}",
            ["2:61:00", "2::00", "1:2:3:4", "0:00:00"]),
    "meters": ("m", "higher", lambda v: f"{v / 100:.2f}", ["8,95", "-8.0", "0", "nan", "inf"]),
    "centimetres": ("cm", "higher", lambda v: str(v), ["x", "-1", "1e999"]),
}
_MARK_RANGE = {"seconds": (950, 1010), "hms": (7400, 7440), "meters": (800, 840),
               "centimetres": (800, 840)}
_BAD_DATES = ["20190105", "2019-W01-1", "2019-13-01", "16-08-2009", "2019-02-29", ""]
_BAD_HEADERS = [("direction", None), ("unit", None), ("direction", "sideways"),
                ("unit", "ft"), ("event", "a/b")]
_WINDOWS = [None, DateWindow.calendar_years(2009, 2010), DateWindow.calendar_years(2012, 2012),
            DateWindow.before(2011), DateWindow.years_before(2014, 3),
            DateWindow.calendar_years(2030, 2031)]


@st.composite
def _list_files(draw):
    kind = draw(st.sampled_from(sorted(_KINDS)))
    unit, direction, text_of, bad_marks = _KINDS[kind]
    header = {"event": "ev", "unit": unit, "direction": direction}
    # rows draw from a few marks and dates, so both tie
    marks = draw(st.lists(st.integers(*_MARK_RANGE[kind]), min_size=1, max_size=6))
    days = draw(st.lists(st.integers(0, 6 * 366), min_size=1, max_size=5))
    names = {"absent": st.none(), "present": st.sampled_from(["a", "b", " c "]),
             "mixed": st.sampled_from([None, None, "a", "b"])}[draw(st.sampled_from(
                 ["absent", "present", "mixed"]))]
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        cells = [text_of(draw(st.sampled_from(marks))),
                 (dt.date(2008, 1, 1) + dt.timedelta(days=draw(st.sampled_from(days))))
                 .isoformat()]
        athlete = draw(names)
        if athlete is not None or draw(st.booleans()):
            cells.append(athlete or "")
        rows.append(cells)
    bad = draw(st.sampled_from([None, None, None, None, "mark", "date", "cells", "header"]))
    at = draw(st.integers(0, len(rows) - 1))
    if bad == "mark":
        rows[at][0] = draw(st.sampled_from(bad_marks))
    elif bad == "date":
        rows[at][1] = draw(st.sampled_from(_BAD_DATES))
    elif bad == "cells":
        rows[at] = rows[at][:1]
    elif bad == "header":
        key, value = draw(st.sampled_from(_BAD_HEADERS))
        header.pop(key)
        if value is not None:
            header[key] = value
    lines = [f"# {key}={value}" for key, value in header.items()]
    lines += ["\t".join(cells) for cells in rows]
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + "\n".join(lines) + "\n", draw(st.sampled_from(_WINDOWS))


def _outcome(call, *args):
    """What a call returns, or the type and text of the error it raises."""
    try:
        return call(*args)
    except (MarkParseError, EmptyListError) as exc:
        return type(exc), str(exc)


def _columns(load, *args):
    """What a list loader gives: the list's columns and fields, or the
    type and text of the error it raises."""
    data = _outcome(load, *args)
    if not isinstance(data, PerformanceList):
        return data
    return (data.event, data.marks, data.values.tolist(), data.days.tolist(), data.athletes,
            data.records, data.record, data.window, data.t_m)


@given(_list_files())
@example(file=("# unit=s\n# direction=lower\n9.90\t2009-05-01\n9.80\t2012-05-01\tb\n"
               "9.95\t2010-05-01\t\n", DateWindow.calendar_years(2009, 2010)))
@settings(max_examples=400, derandomize=True, database=None, deadline=None)
def test_load_performance_list_matches_the_line_by_line_oracle(tmp_path_factory, file):
    text, window = file
    path = tmp_path_factory.mktemp("lists") / "ev.tsv"
    path.write_text(text, encoding="utf-8")
    assert _outcome(read_list_file, path) == _outcome(oracles.read_list_file, path)
    assert _columns(load_performance_list, path, window) == _columns(
        oracles.load_performance_list, path, window)
    if window is not None:
        assert _columns(lambda: load_performance_list(path).within(window)) == _columns(
            lambda: oracles.build_performance_list(*oracles.read_list_file(path), window))


_GUARD_CONFIG = SamplerConfig(burn_in_steps=300, batches=120, batch_len=10, chains=2,
                              pool_size=200, seed=17)


def _synthetic_lists(n_events=4, keep=300):
    return [tail_performance_list(EventSpec.running(f"ev{i}"),
                                  sample_tail(40 + i, math.log(11.0), 0.03, 20 * keep, keep),
                                  2001, 2020, seed=140 + i) for i in range(n_events)]


def test_no_path_of_a_fit_builds_the_records(tmp_path):
    # a list is held as columns: records are built only when read
    made = _synthetic_lists()
    paths = write_corpus(tmp_path, made)
    loaded = [load_performance_list(path) for path in paths]
    cut = [data.within(DateWindow.years_before(2020, 5)) for data in loaded]
    two_pass_fit(cut, _GUARD_CONFIG)
    for data in made + loaded + cut:
        assert "records" not in vars(data), data.event.event_id


def test_a_list_retains_under_64_bytes_per_mark(tmp_path):
    # the columns cost 48 bytes a mark (a float object and its tuple slot,
    # 8-byte value and day ordinal); RawMark records cost about 200
    n = 20_000
    event = EventSpec.running("ev")
    tail = sample_tail(5, math.log(11.0), 0.03, 5 * n, n)
    made = tail_performance_list(event, tail, 2001, 2020, seed=6)
    (path,) = write_corpus(tmp_path, [made])
    records = list(made.iter_records())
    builders = {
        "tail_performance_list": lambda: tail_performance_list(event, tail, 2001, 2020, seed=6),
        "load_performance_list": lambda: load_performance_list(path),
        "build_performance_list": lambda: build_performance_list(event, records),
        "within": lambda: made.within(DateWindow.calendar_years(2005, 2016)),
    }
    for name, build in builders.items():
        build()  # first calls fill caches of re, numpy and the like
        gc.collect()
        tracemalloc.start()
        try:
            data = build()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert data.n_k > n // 2
        assert retained / data.n_k < 64, (name, retained / data.n_k)
