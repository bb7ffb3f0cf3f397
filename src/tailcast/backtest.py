"""Backtesting harness: fit before a cutoff, forecast, score against reality.

Each event is refitted using only data dated before the cutoff year, in one
of two modes (all prior data, or exactly the prior five years). Predictions
for held-out evaluation windows are then correlated with realized outcomes:
exceedance counts over reference marks, improvements of the window best over
those references, and record-breaking indicators. Every list here is a cut
of an event's full list by date: `within` the fit window for its fit, and its
marks in a window (`marks_in`, best first) for its references and outcomes.
"""
from __future__ import annotations

import enum
from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass

from .emprior import HyperPrior, InsufficientEvents, two_pass_fit
from .ingest import DateWindow, EmptyListError, PerformanceList
# Not called here: perfbench/tracing.py wraps build_performance_list under this name.
from .ingest import build_performance_list  # noqa: F401
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


def run_backtest(corpus, spec: BacktestSpec, config: SamplerConfig) -> BacktestReport:
    """Fit pre-cutoff data for every event, then correlate forecasts with reality.

    `corpus` is an iterable of full-history PerformanceLists, with no
    window and with distinct event ids. Events whose pre-cutoff slice is
    empty or whose fit fails are dropped with a note; forecasting proceeds
    even on unconverged fits (noted per event).
    """
    full: dict[str, PerformanceList] = {}
    for data in corpus:
        if data.event.event_id in full:
            raise ValueError(f"two lists have event id {data.event.event_id!r}")
        full[data.event.event_id] = data
    notes: defaultdict[str, list[str]] = defaultdict(list)

    window = fit_window(spec.data_mode, spec.cutoff_year)
    pre_lists = []
    for event_id in sorted(full):
        try:
            pre_lists.append(full[event_id].within(window))
        except EmptyListError:
            notes[event_id].append("no marks before cutoff")
    if len(pre_lists) < 4:
        raise InsufficientEvents(
            f"backtest needs >= 4 events with pre-cutoff data, have {len(pre_lists)}"
        )

    result = two_pass_fit(pre_lists, config)
    for event_id, msg in sorted(result.failures.items()):
        notes[event_id].append(f"fit failed: {msg}")

    # The rank-r reference is the r-th best mark before the cutoff, and the
    # record to break is the best one, whatever the data mode fitted on. Each
    # event keeps its references, its marks in each evaluation window and,
    # per rank its list reaches, its exceedance rate, which no window changes.
    before_cutoff = DateWindow.before(spec.cutoff_year)
    windows = [spec.evaluation_window(length) for length in spec.windows]
    events = {}
    for event_id, fit in result.fits.items():
        if not fit.converged:
            notes[event_id].append(f"forecast from unconverged fit (mpsrf={fit.mpsrf:.3f})")
        data = full[event_id]
        refs = data.marks_in(before_cutoff)
        too_deep = [r for r in sorted(spec.reference_ranks) if r > len(refs)]
        if too_deep:
            notes[event_id].append(f"fewer than {too_deep[0]} marks before cutoff")
        rates = {r: expected_exceedances(fit, refs[r - 1])
                 for r in spec.reference_ranks if r <= len(refs)}
        events[event_id] = (fit, refs, [data.marks_in(w) for w in windows], rates)

    cells: list[BacktestCell] = []
    for w, length in enumerate(spec.windows):
        best_x = {e: expected_best(fit, float(length)).x for e, fit in result.fits.items()}
        for rank in spec.reference_ranks:
            exceed_rows: list[tuple[str, float, float]] = []
            improv_rows: list[tuple[str, float, float]] = []
            for event_id, (_, refs, held_out, rates) in events.items():
                if rank not in rates:
                    continue
                ref, marks = refs[rank - 1], held_out[w]
                # strictly better than the reference: ties do not count
                exceed_rows.append(
                    (event_id, float(length) * rates[rank], float(bisect_left(marks, ref)))
                )
                if marks:
                    improv_rows.append((event_id, ref - best_x[event_id], ref - marks[0]))
            cells.append(_correlate("exceedances", length, rank, exceed_rows))
            cells.append(_correlate("improvement", length, rank, improv_rows))

        record_rows: list[tuple[str, float, float]] = []
        for event_id, (fit, refs, held_out, _) in events.items():
            marks = held_out[w]
            occurred = bool(marks) and marks[0] < refs[0]
            record_rows.append(
                (event_id, record_probability(fit, refs[0], float(length)), float(occurred))
            )
        cells.append(_correlate("record", length, None, record_rows))

    return BacktestReport(
        spec=spec,
        prior=result.prior,
        cells=tuple(cells),
        event_notes=tuple(sorted((e, "; ".join(n)) for e, n in notes.items())),
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
