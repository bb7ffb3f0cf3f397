"""Backtesting harness: fit before a cutoff, forecast, score against reality.

Each event is refitted using only data dated before the cutoff year, in one
of two modes (all prior data, or exactly the prior five years). Predictions
for held-out evaluation windows are then correlated with realized outcomes:
exceedance counts over reference marks, improvements of the window best over
those references, and record-breaking indicators. Every outcome of an event
and window comes from one list, the event's marks inside that window, which
is sorted best first like the PerformanceList it is read from.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .emprior import HyperPrior, InsufficientEvents, two_pass_fit
from .ingest import DateWindow, EmptyListError, PerformanceList, build_performance_list
from .sampler import SamplerConfig
from .stats import (
    UndefinedCorrelation,
    expected_best,
    expected_exceedances,
    pearson,
    record_probability,
)

ALLOWED_RANKS = (10, 25, 50, 100)


class DataMode(enum.Enum):
    ALL_PRIOR = "all"
    FIVE_YEARS = "five-years"


def fit_window(mode: DataMode, cutoff_year: int | None) -> DateWindow | None:
    """Ingestion window of a fit on the data before cutoff_year.

    Five-year mode takes exactly the five years before the cutoff, so its
    lists span 5 years (PerformanceList.t_m); otherwise all data before the
    cutoff (all data, without one), and each list's data span decides.
    """
    if mode is DataMode.FIVE_YEARS:
        return DateWindow.years_before(cutoff_year, 5)
    if cutoff_year is None:
        return None
    return DateWindow.before(cutoff_year)


@dataclass(frozen=True)
class BacktestSpec:
    """What to hold out and what to predict."""

    cutoff_year: int
    windows: tuple[int, ...] = (1, 2, 5, 12)
    data_mode: DataMode = DataMode.ALL_PRIOR
    reference_ranks: tuple[int, ...] = ALLOWED_RANKS

    def __post_init__(self) -> None:
        if not self.windows:
            raise ValueError("need at least one evaluation window")
        if any(not isinstance(w, int) or w < 1 for w in self.windows):
            raise ValueError(f"window lengths must be whole years >= 1, got {self.windows}")
        bad = [r for r in self.reference_ranks if r not in ALLOWED_RANKS]
        if bad or not self.reference_ranks:
            raise ValueError(f"reference_ranks must be a nonempty subset of {ALLOWED_RANKS}")
        try:
            fit_window(self.data_mode, self.cutoff_year)
            for length in self.windows:
                self.evaluation_window(length)
        except (ValueError, OverflowError):
            raise ValueError(f"cutoff_year {self.cutoff_year} is out of range: the fit window "
                             "and every evaluation window must fall within years 1 to 9999"
                             ) from None

    def evaluation_window(self, length: int) -> DateWindow:
        return DateWindow.calendar_years(self.cutoff_year, self.cutoff_year + length - 1)


@dataclass(frozen=True)
class BacktestCell:
    """One correlation: a statistic over one window (and rank, if ranked)."""

    statistic: str
    window_years: int
    rank: int | None
    event_ids: tuple[str, ...]
    predicted: tuple[float, ...]
    actual: tuple[float, ...]
    pearson_r: float | None
    note: str = ""

    @property
    def valid(self) -> bool:
        return self.pearson_r is not None


@dataclass(frozen=True)
class BacktestReport:
    spec: BacktestSpec
    prior: HyperPrior
    cells: tuple[BacktestCell, ...]
    event_notes: tuple[tuple[str, str], ...]

    def cell(self, statistic: str, window_years: int, rank: int | None = None) -> BacktestCell:
        for c in self.cells:
            if (c.statistic, c.window_years, c.rank) == (statistic, window_years, rank):
                return c
        raise KeyError(f"no cell for ({statistic}, {window_years}, {rank})")


def _correlate(statistic: str, window_years: int, rank: int | None,
               rows: list[tuple[str, float, float]]) -> BacktestCell:
    rows = sorted(rows)
    ids = tuple(e for e, _, _ in rows)
    predicted = tuple(p for _, p, _ in rows)
    actual = tuple(a for _, _, a in rows)
    note = ""
    r = None
    if len(rows) < 3:
        note = f"only {len(rows)} events with outcomes"
    else:
        try:
            r = pearson(predicted, actual)
        except UndefinedCorrelation as exc:
            note = str(exc)
    return BacktestCell(
        statistic=statistic,
        window_years=window_years,
        rank=rank,
        event_ids=ids,
        predicted=predicted,
        actual=actual,
        pearson_r=r,
        note=note,
    )


def _add_note(notes: dict[str, str], event_id: str, message: str) -> None:
    if event_id in notes:
        notes[event_id] = f"{notes[event_id]}; {message}"
    else:
        notes[event_id] = message


def _dated_marks(data: PerformanceList) -> tuple[np.ndarray, np.ndarray]:
    """The list's marks, best first, and their dates as day ordinals."""
    days = np.fromiter((record.date.toordinal() for record in data.records),
                       dtype=np.int64, count=len(data.records))
    return np.array(data.marks, dtype=np.float64), days


def _marks_in(dated: tuple[np.ndarray, np.ndarray], window: DateWindow) -> list[float]:
    """The marks dated inside the half-open window [start, end), best first."""
    marks, days = dated
    inside = days < window.end.toordinal()
    if window.start is not None:
        inside &= days >= window.start.toordinal()
    return marks[inside].tolist()


def run_backtest(corpus, spec: BacktestSpec, config: SamplerConfig) -> BacktestReport:
    """Fit pre-cutoff data for every event, then correlate forecasts with reality.

    `corpus` is an iterable of full-history PerformanceLists with distinct
    event ids. Events whose pre-cutoff slice is empty or whose fit fails are
    dropped with a note; forecasting proceeds even on unconverged fits
    (noted per event).
    """
    full: dict[str, PerformanceList] = {}
    for data in corpus:
        if data.event.event_id in full:
            raise ValueError(f"two lists have event id {data.event.event_id!r}")
        full[data.event.event_id] = data
    notes: dict[str, str] = {}

    window = fit_window(spec.data_mode, spec.cutoff_year)
    pre_lists = []
    for event_id in sorted(full):
        data = full[event_id]
        try:
            pre_lists.append(
                build_performance_list(data.event, list(data.records), window=window)
            )
        except EmptyListError:
            _add_note(notes, event_id, "no marks before cutoff")
    if len(pre_lists) < 4:
        raise InsufficientEvents(
            f"backtest needs >= 4 events with pre-cutoff data, have {len(pre_lists)}"
        )

    result = two_pass_fit(pre_lists, config)
    for event_id, msg in sorted(result.failures.items()):
        _add_note(notes, event_id, f"fit failed: {msg}")

    for event_id, fit in result.fits.items():
        if not fit.converged:
            _add_note(notes, event_id, f"forecast from unconverged fit (mpsrf={fit.mpsrf:.3f})")

    # The rank-r reference is the r-th best mark before the cutoff, and the
    # record to break is the best one, whatever the data mode fitted on.
    before_cutoff = DateWindow.before(spec.cutoff_year)
    dated = {event_id: _dated_marks(full[event_id]) for event_id in result.fits}
    references: dict[str, list[float]] = {}
    for event_id in result.fits:
        references[event_id] = _marks_in(dated[event_id], before_cutoff)
        too_deep = [r for r in sorted(spec.reference_ranks) if r > len(references[event_id])]
        if too_deep:
            _add_note(notes, event_id, f"fewer than {too_deep[0]} marks before cutoff")

    cells: list[BacktestCell] = []
    for length in spec.windows:
        window = spec.evaluation_window(length)
        held_out = {event_id: _marks_in(dated[event_id], window) for event_id in result.fits}
        expected_best_x = {
            event_id: expected_best(fit, float(length)).x for event_id, fit in result.fits.items()
        }
        for rank in spec.reference_ranks:
            exceed_rows: list[tuple[str, float, float]] = []
            improv_rows: list[tuple[str, float, float]] = []
            for event_id, fit in result.fits.items():
                if rank > len(references[event_id]):
                    continue
                ref = references[event_id][rank - 1]
                marks = held_out[event_id]
                predicted_count = float(length) * expected_exceedances(fit, ref)
                # strictly better than the reference: ties do not count
                exceed_rows.append((event_id, predicted_count, float(bisect_left(marks, ref))))
                if marks:
                    improv_rows.append(
                        (event_id, ref - expected_best_x[event_id], ref - marks[0])
                    )
            cells.append(_correlate("exceedances", length, rank, exceed_rows))
            cells.append(_correlate("improvement", length, rank, improv_rows))

        record_rows: list[tuple[str, float, float]] = []
        for event_id, fit in result.fits.items():
            record_mark = references[event_id][0]
            marks = held_out[event_id]
            occurred = bool(marks) and marks[0] < record_mark
            record_rows.append(
                (event_id, record_probability(fit, record_mark, float(length)), float(occurred))
            )
        cells.append(_correlate("record", length, None, record_rows))

    return BacktestReport(
        spec=spec,
        prior=result.prior,
        cells=tuple(cells),
        event_notes=tuple(sorted(notes.items())),
    )


def render_report_table(report: BacktestReport) -> str:
    """Human-readable summary: one block per statistic, windows by ranks."""
    ranks = list(report.spec.reference_ranks)
    lines = [
        f"backtest cutoff={report.spec.cutoff_year} mode={report.spec.data_mode.value}",
        f"prior: mu_N={report.prior.mu_N:.4f} sigma2_N={report.prior.sigma2_N:.4f} "
        f"({report.prior.provenance.value})",
        "",
    ]

    def fmt(cell: BacktestCell) -> str:
        if cell.pearson_r is None:
            return "invalid"
        return f"{cell.pearson_r:.3f}"

    for statistic in ("exceedances", "improvement"):
        lines.append(f"[{statistic}] Pearson r, windows x reference ranks")
        header = ["window"] + [f"rank{r}" for r in ranks]
        widths = [max(8, len(h)) for h in header]
        rows = [header]
        for length in report.spec.windows:
            row = [f"{length}y"]
            for rank in ranks:
                row.append(fmt(report.cell(statistic, length, rank)))
            rows.append(row)
        for row in rows:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        lines.append("")

    lines.append("[record] Pearson r, probability vs occurred")
    for length in report.spec.windows:
        lines.append(f"  {length}y".ljust(10) + fmt(report.cell("record", length)))
    if report.event_notes:
        lines.append("")
        lines.append("notes:")
        for event_id, note in report.event_notes:
            lines.append(f"  {event_id}: {note}")
    return "\n".join(lines) + "\n"


def render_summary_records(report: BacktestReport) -> str:
    """Machine-readable per-cell records."""
    lines = ["statistic\twindow_years\trank\tn_events\tpearson\tnote"]
    for c in report.cells:
        rank = "" if c.rank is None else str(c.rank)
        r = "" if c.pearson_r is None else repr(c.pearson_r)
        lines.append(f"{c.statistic}\t{c.window_years}\t{rank}\t{len(c.event_ids)}\t{r}\t{c.note}")
    return "\n".join(lines) + "\n"


def render_detail_records(report: BacktestReport) -> str:
    """Machine-readable per-event predicted/actual pairs for every cell."""
    lines = ["statistic\twindow_years\trank\tevent\tpredicted\tactual"]
    for c in report.cells:
        rank = "" if c.rank is None else str(c.rank)
        for event_id, p, a in zip(c.event_ids, c.predicted, c.actual):
            lines.append(f"{c.statistic}\t{c.window_years}\t{rank}\t{event_id}\t{p!r}\t{a!r}")
    return "\n".join(lines) + "\n"
