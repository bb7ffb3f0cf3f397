"""Parsing, mark encoding, windowing, and list-file round trips."""
import datetime as dt
import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailcast.ingest import (
    DateWindow,
    Direction,
    EmptyListError,
    EventSpec,
    MarkParseError,
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


def test_reserialization_idempotent(tmp_path):
    # loading our own serialization reproduces the same PerformanceList
    run = EventSpec.running("m100")
    first = build_performance_list(run, _sprint_records())
    path = tmp_path / "m100.tsv"
    write_list_file(path, first.event, first.records)
    second = load_performance_list(path)
    assert second.marks == first.marks
    assert second.records == first.records
