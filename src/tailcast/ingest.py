"""Performance-list ingestion and mark encoding.

Marks are normalized into a transformed space where lower is always
better: x = ln(seconds) for running events, x = -ln(centimeters) for
field events. Every downstream module works in that space and only
decodes back to raw units at the presentation edge. A PerformanceList's
worst retained mark w_k is the tail model's truncation point; the list
carries no other.

A list is held as aligned columns, best first: its transformed marks,
raw values, day ordinals and athletes. Every list file is read by one
column parser, and every list is built by `PerformanceList.from_columns`;
`RawMark` records are built only when something reads
`PerformanceList.records` or calls `read_list_file`. A list cuts itself
to a date window with one mask of its day ordinals
(`PerformanceList.within`, `marks_in`).
"""
from __future__ import annotations

import datetime as dt
import enum
import functools
import math
import re
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import distcore
from .errors import TailcastError

TransformedMark = float


class MarkParseError(TailcastError):
    """A mark, date or header field could not be parsed."""


class EmptyListError(TailcastError):
    """No records survived windowing; there is nothing to fit."""


class Direction(enum.Enum):
    LOWER_IS_BETTER = "lower"
    HIGHER_IS_BETTER = "higher"


class Unit(enum.Enum):
    SECONDS = "s"
    CENTIMETERS = "cm"


# An event id is the stem of its fit file, `<out>/fits/<event id>.fit`, and a
# field of every tab-separated output: it holds no path separator, tab or
# other control character.
_NOT_IN_A_FILE_NAME = re.compile(r"[/\\\x00-\x1f\x7f]")


@dataclass(frozen=True)
class EventSpec:
    """Identity and mark semantics of one athletic event."""

    event_id: str
    direction: Direction
    unit: Unit
    display_name: str = ""

    def __post_init__(self) -> None:
        if not self.event_id:
            raise ValueError("event_id must be nonempty")
        if _NOT_IN_A_FILE_NAME.search(self.event_id):
            raise ValueError(f"event_id {self.event_id!r} names the event's fit file, so it "
                             "may not hold '/', '\\' or a control character")
        pairs = {
            Direction.LOWER_IS_BETTER: Unit.SECONDS,
            Direction.HIGHER_IS_BETTER: Unit.CENTIMETERS,
        }
        if pairs[self.direction] is not self.unit:
            raise ValueError(
                f"{self.event_id}: direction {self.direction.value} pairs with "
                f"unit {pairs[self.direction].value}, not {self.unit.value}"
            )

    @staticmethod
    def running(event_id: str, display_name: str = "") -> "EventSpec":
        return EventSpec(event_id, Direction.LOWER_IS_BETTER, Unit.SECONDS, display_name)

    @staticmethod
    def field(event_id: str, display_name: str = "") -> "EventSpec":
        return EventSpec(event_id, Direction.HIGHER_IS_BETTER, Unit.CENTIMETERS, display_name)


@dataclass(frozen=True)
class RawMark:
    value: float
    date: dt.date
    athlete: str | None = None

    def __post_init__(self) -> None:
        _check_value(self.value)


def _check_value(value: float) -> None:
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"mark value must be positive, got {value}")


@dataclass(frozen=True)
class DateWindow:
    """Half-open interval [start, end) of whole calendar years: both bounds
    fall on January 1. start=None means unbounded."""

    start: dt.date | None
    end: dt.date

    def __post_init__(self) -> None:
        if any(b is not None and (b.month, b.day) != (1, 1) for b in (self.start, self.end)):
            raise ValueError(f"window bounds must fall on January 1, got {self}")

    def contains(self, day: dt.date) -> bool:
        if self.start is not None and day < self.start:
            return False
        return day < self.end

    @staticmethod
    def calendar_years(first_year: int, last_year: int) -> "DateWindow":
        """Whole calendar years first_year..last_year inclusive."""
        if last_year < first_year:
            raise ValueError("last_year must be >= first_year")
        return DateWindow(dt.date(first_year, 1, 1), dt.date(last_year + 1, 1, 1))

    @staticmethod
    def years_before(cutoff_year: int, span: int) -> "DateWindow":
        """The `span` whole calendar years immediately before cutoff_year."""
        return DateWindow(dt.date(cutoff_year - span, 1, 1), dt.date(cutoff_year, 1, 1))

    @staticmethod
    def before(cutoff_year: int) -> "DateWindow":
        return DateWindow(None, dt.date(cutoff_year, 1, 1))


# The fields of a `[[H:]M:]S[.fff]` time, in order, with the pattern each must match.
_TIME_FIELDS = (("hours", re.compile(r"\d+")), ("minutes", re.compile(r"\d+")),
                ("seconds", re.compile(r"\d+(\.\d+)?")))


def parse_time(text: str) -> float:
    """Total seconds of a `[[H:]M:]S[.fff]` string.

    Only the leading field may reach 60; "65:50" is minutes:seconds.
    """
    parts = text.strip().split(":")
    if len(parts) > 3 or "" in parts:
        raise MarkParseError(f"malformed time {text!r}")
    total = 0.0
    for i, ((name, pattern), part) in enumerate(zip(_TIME_FIELDS[3 - len(parts):], parts)):
        if not pattern.fullmatch(part):
            raise MarkParseError(f"invalid {name} field {part!r} in {text!r}")
        value = float(part)
        if i and value >= 60.0:
            raise MarkParseError(f"{name} field {part!r} must be < 60 in {text!r}")
        total = total * 60.0 + value
    return total


def format_seconds(seconds: float) -> str:
    """Canonical `h:mm:ss.ff` form, dropping leading zero fields."""
    if seconds < 0.0:
        raise ValueError("seconds must be nonnegative")
    whole, frac = divmod(round(seconds * 100), 100)
    h, rem = divmod(whole, 3600)
    m, s = divmod(rem, 60)
    if h:
        return f"{h}:{m:02d}:{s:02d}.{frac:02d}"
    if m:
        return f"{m}:{s:02d}.{frac:02d}"
    return f"{s}.{frac:02d}"


def format_raw_mark(event: EventSpec, value: float) -> str:
    """Event-native presentation: times as h:mm:ss.ff, distances in meters."""
    if event.unit is Unit.SECONDS:
        return format_seconds(value)
    return f"{value / 100.0:.2f}"


def encode_mark(event: EventSpec, value: float) -> TransformedMark:
    """Map a raw mark into transformed space (smaller is better)."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"mark value must be positive, got {value}")
    x = math.log(value)
    return x if event.direction is Direction.LOWER_IS_BETTER else -x


def decode_mark(event: EventSpec, x: TransformedMark) -> float:
    if event.direction is Direction.LOWER_IS_BETTER:
        return math.exp(x)
    return math.exp(-x)


@dataclass(frozen=True, eq=False)
class PerformanceList:
    """One event's observed tail, held as aligned columns sorted best
    (smallest x) first: the transformed marks, a tuple of floats; their raw
    values, a float64 array; their dates as day ordinals, an int64 array;
    and their athletes, a tuple, or None when no mark names one. Ties sort
    by date, then athlete, then input order. The worst retained mark w_k
    is the truncation point of the tail model. `record` is the event's
    record as of the window's end: the best mark dated before it, inside
    the window or not. Build a list with `from_columns`; two lists are
    equal when their columns are."""

    event: EventSpec
    marks: tuple[TransformedMark, ...]
    values: np.ndarray
    days: np.ndarray
    athletes: tuple[str | None, ...] | None
    record: TransformedMark
    window: DateWindow | None = None

    def __post_init__(self) -> None:
        self.values.flags.writeable = False
        self.days.flags.writeable = False

    @classmethod
    def from_columns(cls, event: EventSpec, values: Sequence[float], days: Sequence[int],
                     athletes: Sequence[str | None] | None = None) -> "PerformanceList":
        """The list of these marks, given in any order: raw values, day
        ordinals and athletes (None: no mark names one), aligned. Each value
        is encoded once; the record is the best mark."""
        n = len(values)
        if not n:
            raise EmptyListError(f"{event.event_id}: no records inside the requested window")
        marks = [encode_mark(event, v) for v in values]
        names = athletes if athletes is not None else [None] * n
        # sorted is stable, so full ties keep their input order
        order = sorted(range(n), key=lambda i: (marks[i], days[i], names[i] or ""))
        index = np.array(order, dtype=np.intp)
        return cls(event=event, marks=tuple(marks[i] for i in order),
                   values=np.asarray(values, dtype=np.float64)[index],
                   days=np.asarray(days, dtype=np.int64)[index],
                   athletes=_named(names[i] for i in order), record=marks[order[0]])

    @property
    def n_k(self) -> int:
        return len(self.marks)

    @property
    def w_k(self) -> float:
        return self.marks[-1]

    @property
    def best(self) -> float:
        return self.marks[0]

    def iter_records(self) -> Iterator[RawMark]:
        """The marks as RawMarks, best first, each built as it is read and
        kept nowhere: for one pass, such as writing the list to a file."""
        names = self.athletes or (None,) * self.n_k
        for value, day, name in zip(self.values.tolist(), self.days.tolist(), names):
            yield RawMark(value, dt.date.fromordinal(day), name)

    @functools.cached_property
    def records(self) -> tuple[RawMark, ...]:
        """The marks as RawMarks, best first: built on first read and kept."""
        return tuple(self.iter_records())

    @functools.cached_property
    def grid_columns(self):
        """The list's weak-prior grid summed per log N column
        (distcore.grid_columns), scored on first use and kept: pass 1 and
        the pass-2 proposal both read it through distcore.grid_posterior."""
        return distcore.grid_columns(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PerformanceList):
            return NotImplemented
        return (self.event == other.event and self.marks == other.marks
                and np.array_equal(self.values, other.values)
                and np.array_equal(self.days, other.days) and self.athletes == other.athletes
                and self.record == other.record and self.window == other.window)

    def _masks(self, window: DateWindow) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the marks dated before the window's end and inside the window."""
        before_end = self.days < window.end.toordinal()
        return before_end, before_end & (self.days >= (window.start or dt.date.min).toordinal())

    @property
    def t_m(self) -> float:
        """Years the list spans: its window's whole years if the window has a
        start, else the span of its mark dates, floored at one year."""
        if self.window is not None and self.window.start is not None:
            return float(self.window.end.year - self.window.start.year)
        return max(int(self.days.max() - self.days.min()) / 365.25, 1.0)

    def marks_in(self, window: DateWindow) -> list[TransformedMark]:
        """The marks dated inside the half-open window [start, end), best first."""
        return list(compress(self.marks, self._masks(window)[1].tolist()))

    def within(self, window: DateWindow) -> "PerformanceList":
        """This list cut to `window`: every column cut to the marks dated
        inside it, in order, and as record its best mark dated before the
        window's end. Only a list with no window is cut, so that record is
        taken over every mark of the event."""
        if self.window is not None:
            raise ValueError(f"{self.event.event_id}: the list is already cut to {self.window}; "
                             "only a list with no window can be cut")
        before_end, inside = self._masks(window)
        keep = inside.tolist()
        if not any(keep):
            raise EmptyListError(f"{self.event.event_id}: no records inside the requested window")
        return PerformanceList(
            event=self.event, marks=tuple(compress(self.marks, keep)),
            values=self.values[inside], days=self.days[inside],
            athletes=None if self.athletes is None else _named(compress(self.athletes, keep)),
            record=self.marks[int(before_end.argmax())], window=window)


def _named(athletes: Iterable[str | None]) -> tuple[str | None, ...] | None:
    """The athletes column: these athletes as a tuple, or None if none is named."""
    names = tuple(athletes)
    return names if any(name is not None for name in names) else None


def build_performance_list(event: EventSpec, records: Sequence[RawMark],
                           window: DateWindow | None = None) -> PerformanceList:
    """Order records into a PerformanceList (PerformanceList.from_columns),
    cut to `window` (PerformanceList.within) if one is given.

    Ties are kept as repeated values (they are real, especially in sprints).
    The list's record is its best mark dated before the window's end.
    """
    data = PerformanceList.from_columns(event, [r.value for r in records],
                                        [r.date.toordinal() for r in records],
                                        [r.athlete for r in records])
    return data if window is None else data.within(window)


_UNIT_TOKENS = {
    "s": (Unit.SECONDS, 1.0),
    "sec": (Unit.SECONDS, 1.0),
    "seconds": (Unit.SECONDS, 1.0),
    "cm": (Unit.CENTIMETERS, 1.0),
    "centimeters": (Unit.CENTIMETERS, 1.0),
    "m": (Unit.CENTIMETERS, 100.0),
    "meters": (Unit.CENTIMETERS, 100.0),
}
_DIRECTION_TOKENS = {
    "lower": Direction.LOWER_IS_BETTER,
    "higher": Direction.HIGHER_IS_BETTER,
}


def _parse_value(text: str, unit: Unit, scale: float) -> float:
    if unit is Unit.SECONDS:
        return parse_time(text)
    try:
        v = float(text)
    except ValueError as exc:
        raise MarkParseError(f"invalid mark value {text!r}") from exc
    return v * scale


# Exactly an ASCII `YYYY-MM-DD` date. date.fromisoformat reads more forms on
# some Python versions than on others (3.11 reads 20190105 and 2019-W01-1,
# 3.10 neither), and a list file must read the same on every version.
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def _parse_day(text: str) -> int:
    """The day ordinal of a `YYYY-MM-DD` date."""
    if _ISO_DATE.fullmatch(text):
        try:
            return dt.date.fromisoformat(text).toordinal()
        except ValueError:
            pass
    raise MarkParseError(f"invalid ISO date {text!r}")


def _read_columns(path: str | Path) -> tuple[EventSpec, list[float], list[int],
                                               list[str | None]]:
    """The event of a canonical list file and its rows as columns, in file
    order: raw values in the internal unit, day ordinals and athletes.

    A row is checked field by field: its value, then its date, then that
    the value is a positive mark; a refusal names the file and the line.
    """
    path = Path(path)
    header: dict[str, str] = {}
    header_lines: dict[str, int] = {}
    rows: list[tuple[int, str, str, str | None]] = []
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise MarkParseError(f"{path.name}: not UTF-8 text ({exc.reason} at byte "
                             f"{exc.start})") from None
    except OSError as exc:
        raise MarkParseError(f"{path.name}: cannot be read: {exc.strerror or exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
                header_lines[key.strip()] = lineno
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            raise MarkParseError(f"{path.name}:{lineno}: expected value<TAB>date, got {line!r}")
        athlete = cells[2].strip() if len(cells) > 2 else ""
        rows.append((lineno, cells[0].strip(), cells[1].strip(), athlete or None))

    try:
        direction = _DIRECTION_TOKENS[header.get("direction", "").lower()]
    except KeyError:
        raise MarkParseError(f"{path.name}: header must declare direction=lower|higher")
    unit_token = header.get("unit", "").lower()
    if unit_token not in _UNIT_TOKENS:
        raise MarkParseError(f"{path.name}: header must declare unit= one of {sorted(_UNIT_TOKENS)}")
    unit, scale = _UNIT_TOKENS[unit_token]
    event_id = header.get("event", path.stem)
    try:
        event = EventSpec(event_id, direction, unit, header.get("display_name", ""))
    except ValueError as exc:
        # name the last of the header lines that declare the event
        lineno = max(header_lines[k] for k in ("event", "unit", "direction") if k in header_lines)
        raise MarkParseError(f"{path.name}:{lineno}: {exc}") from None

    values: list[float] = []
    days: list[int] = []
    athletes: list[str | None] = []
    for lineno, value_text, date_text, athlete in rows:
        try:
            value = _parse_value(value_text, unit, scale)
            day = _parse_day(date_text)
            _check_value(value)
        except (MarkParseError, ValueError) as exc:
            raise MarkParseError(f"{path.name}:{lineno}: {exc}") from None
        values.append(value)
        days.append(day)
        athletes.append(athlete)
    return event, values, days, athletes


def read_list_file(path: str | Path) -> tuple[EventSpec, list[RawMark]]:
    """Read a canonical tab-separated list file as its event and records,
    in file order.

    Header lines start with `#` and carry `key=value` pairs; records are
    `value<TAB>YYYY-MM-DD<TAB>athlete?`. Meter-valued files are scaled to
    centimeters here, so callers always see the internal unit. A file that
    cannot be read, or is not UTF-8 text, raises MarkParseError naming it.
    """
    event, values, days, athletes = _read_columns(path)
    return event, [RawMark(value, dt.date.fromordinal(day), athlete)
                   for value, day, athlete in zip(values, days, athletes)]


def load_performance_list(path: str | Path, window: DateWindow | None = None) -> PerformanceList:
    """Load one event's list from a canonical list file (the format of
    read_list_file), cut to `window` if one is given. It builds no RawMark."""
    event, values, days, athletes = _read_columns(path)
    try:
        data = PerformanceList.from_columns(event, values, days, athletes)
        return data if window is None else data.within(window)
    except EmptyListError:
        raise EmptyListError(
            f"{event.event_id}: no records from {Path(path).name} inside the requested window"
        )


def write_list_file(path: str | Path, event: EventSpec, records: Iterable[RawMark]) -> None:
    """Serialize records in the canonical format read_list_file accepts.

    Values are written with full float precision so a load/write/load trip
    is lossless.
    """
    lines = [
        f"# event={event.event_id}",
        f"# unit={event.unit.value}",
        f"# direction={event.direction.value}",
    ]
    if event.display_name:
        lines.append(f"# display_name={event.display_name}")
    for r in records:
        cells = [repr(r.value), r.date.isoformat()]
        if r.athlete:
            cells.append(r.athlete)
        lines.append("\t".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
