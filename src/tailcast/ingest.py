"""Performance-list ingestion and mark encoding.

Marks are normalized into a transformed space where lower is always
better: x = ln(seconds) for running events, x = -ln(centimeters) for
field events. Every downstream module works in that space and only
decodes back to raw units at the presentation edge. A PerformanceList's
worst retained mark w_k is the tail model's truncation point; the list
carries no other. A list cuts itself to a date window with one mask of
its records' day ordinals (`PerformanceList.within`, `marks_in`).
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
        if not (math.isfinite(self.value) and self.value > 0.0):
            raise ValueError(f"mark value must be positive, got {self.value}")


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


@dataclass(frozen=True)
class PerformanceList:
    """One event's observed tail. Records and transformed marks are kept
    aligned and sorted best (smallest x) first; the worst retained mark
    w_k is the truncation point of the tail model. `record` is the event's
    record as of the window's end: the best mark dated before it, inside
    the window or not."""

    event: EventSpec
    records: tuple[RawMark, ...]
    marks: tuple[TransformedMark, ...]
    record: TransformedMark
    window: DateWindow | None = None

    @property
    def n_k(self) -> int:
        return len(self.marks)

    @property
    def w_k(self) -> float:
        return self.marks[-1]

    @property
    def best(self) -> float:
        return self.marks[0]

    @functools.cached_property
    def grid_columns(self):
        """The list's weak-prior grid summed per log N column
        (distcore.grid_columns), scored on first use and kept: pass 1 and
        the pass-2 proposal both read it through distcore.grid_posterior."""
        return distcore.grid_columns(self)

    @functools.cached_property
    def _days(self) -> np.ndarray:
        """Each record's date as a day ordinal, aligned with `marks`."""
        return np.fromiter((r.date.toordinal() for r in self.records), dtype=np.int64,
                           count=len(self.records))

    def _masks(self, window: DateWindow) -> tuple[np.ndarray, np.ndarray]:
        """Masks of the records dated before the window's end and inside the window."""
        before_end = self._days < window.end.toordinal()
        return before_end, before_end & (self._days >= (window.start or dt.date.min).toordinal())

    @property
    def t_m(self) -> float:
        """Years the list spans: its window's whole years if the window has a
        start, else the span of its record dates, floored at one year."""
        if self.window is not None and self.window.start is not None:
            return float(self.window.end.year - self.window.start.year)
        return max(int(self._days.max() - self._days.min()) / 365.25, 1.0)

    def marks_in(self, window: DateWindow) -> list[TransformedMark]:
        """The marks dated inside the half-open window [start, end), best first."""
        return list(compress(self.marks, self._masks(window)[1].tolist()))

    def within(self, window: DateWindow) -> "PerformanceList":
        """This list cut to `window`: its records dated inside it, in order, and
        as record its best mark dated before the window's end. Only a list with
        no window is cut, so that record is taken over every mark of the event."""
        if self.window is not None:
            raise ValueError(f"{self.event.event_id}: the list is already cut to {self.window}; "
                             "only a list with no window can be cut")
        before_end, inside = self._masks(window)
        keep = inside.tolist()
        if not any(keep):
            raise EmptyListError(f"{self.event.event_id}: no records inside the requested window")
        return PerformanceList(event=self.event, records=tuple(compress(self.records, keep)),
                               marks=tuple(compress(self.marks, keep)),
                               record=self.marks[int(before_end.argmax())], window=window)


def build_performance_list(event: EventSpec, records: list[RawMark],
                           window: DateWindow | None = None) -> PerformanceList:
    """Encode and order records into a PerformanceList, cut to `window`
    (PerformanceList.within) if one is given.

    Ties are kept as repeated values (they are real, especially in sprints).
    The list's record is its best mark dated before the window's end.
    """
    if not records:
        raise EmptyListError(f"{event.event_id}: no records inside the requested window")
    # i keeps full ties in input order, as a stable sort would
    decorated = sorted((encode_mark(event, r.value), r.date, r.athlete or "", i)
                       for i, r in enumerate(records))
    data = PerformanceList(event=event, records=tuple(records[d[3]] for d in decorated),
                           marks=tuple(d[0] for d in decorated), record=decorated[0][0])
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


def _parse_iso_date(text: str) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise MarkParseError(f"invalid ISO date {text!r}") from exc


def read_list_file(path: str | Path) -> tuple[EventSpec, list[RawMark]]:
    """Read a canonical tab-separated list file.

    Header lines start with `#` and carry `key=value` pairs; records are
    `value<TAB>ISO-date<TAB>athlete?`. Meter-valued files are scaled to
    centimeters here, so callers always see the internal unit. A file that
    cannot be read, or is not UTF-8 text, raises MarkParseError naming it.
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
        line = line.rstrip("\n")
        if not line.strip():
            continue
        if line.lstrip().startswith("#"):
            body = line.lstrip()[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                header[key.strip()] = value.strip()
                header_lines[key.strip()] = lineno
            continue
        cells = line.split("\t")
        if len(cells) < 2:
            raise MarkParseError(f"{path.name}:{lineno}: expected value<TAB>date, got {line!r}")
        athlete = cells[2].strip() if len(cells) > 2 and cells[2].strip() else None
        rows.append((lineno, cells[0].strip(), cells[1].strip(), athlete))

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

    records = []
    for lineno, value_text, date_text, athlete in rows:
        try:
            value = _parse_value(value_text, unit, scale)
            records.append(RawMark(value=value, date=_parse_iso_date(date_text), athlete=athlete))
        except (MarkParseError, ValueError) as exc:
            raise MarkParseError(f"{path.name}:{lineno}: {exc}") from None
    return event, records


def load_performance_list(path: str | Path, window: DateWindow | None = None) -> PerformanceList:
    """Load, window and encode one event's list from a canonical file."""
    event, records = read_list_file(path)
    try:
        return build_performance_list(event, records, window=window)
    except EmptyListError:
        raise EmptyListError(
            f"{event.event_id}: no records from {Path(path).name} inside the requested window"
        )


def write_list_file(path: str | Path, event: EventSpec, records: list[RawMark] | tuple) -> None:
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
