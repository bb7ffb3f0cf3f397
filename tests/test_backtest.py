"""Holdout evaluation: references, realized outcomes, report assembly."""
import math
from datetime import date

import numpy as np
import pytest

from tailcast.backtest import (
    ALLOWED_RANKS,
    BacktestCell,
    BacktestReport,
    BacktestSpec,
    DataMode,
    MissingOutcome,
    fit_window,
    realized_exceedances,
    realized_improvement,
    render_detail_records,
    render_report_table,
    render_summary_records,
    run_backtest,
)
from tailcast.emprior import InsufficientEvents, Provenance
from tailcast.ingest import DateWindow, EventSpec, RawMark, build_performance_list
from tailcast.sampler import SamplerConfig
from tailcast.stats import ReferenceMark, pearson, reference_mark
from tailcast.synth import sample_tail, tail_performance_list

from conftest import running_event

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033
CUTOFF = 2020

CONFIG = SamplerConfig(
    burn_in_steps=300, batches=120, batch_len=10, chains=2, pool_size=200, seed=23
)


def test_spec_validation():
    spec = BacktestSpec(cutoff_year=CUTOFF)
    assert spec.windows == (1, 2, 5, 12)
    assert spec.reference_ranks == ALLOWED_RANKS
    assert spec.cutoff_date == date(CUTOFF, 1, 1)
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, windows=())
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, windows=(0,))
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, reference_ranks=(10, 37))
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, reference_ranks=())


def test_spec_windows():
    assert fit_window(DataMode.ALL_PRIOR, CUTOFF) == (DateWindow.before(CUTOFF), None)
    assert fit_window(DataMode.ALL_PRIOR, None) == (None, None)
    assert fit_window(DataMode.FIVE_YEARS, CUTOFF) == (DateWindow.years_before(CUTOFF, 5), 5.0)

    allp = BacktestSpec(cutoff_year=CUTOFF)

    evaluation = allp.evaluation_window(2)
    assert evaluation.contains(date(2020, 1, 1))
    assert evaluation.contains(date(2021, 12, 31))
    assert not evaluation.contains(date(2019, 12, 31))
    assert not evaluation.contains(date(2022, 1, 1))


def _hand_list():
    spec = running_event()
    records = [
        RawMark(9.58, date(2020, 8, 16)),
        RawMark(9.69, date(2020, 6, 16)),
        RawMark(9.72, date(2019, 5, 31)),
        RawMark(9.72, date(2020, 7, 1)),  # exact tie with the reference
        RawMark(9.80, date(2020, 9, 1)),
        RawMark(9.90, date(2018, 9, 1)),
    ]
    return build_performance_list(spec, records)


def test_realized_exceedances_strict():
    data = _hand_list()
    window = DateWindow.calendar_years(2020, 2021)
    ref = ReferenceMark("ev100m", rank=1, mark=math.log(9.72), as_of=date(2020, 1, 1))
    # 9.58 and 9.69 beat the reference; the tie at 9.72 must not count
    assert realized_exceedances(data, ref, window) == 2

    unreachable = ReferenceMark("ev100m", 1, math.log(9.00), as_of=date(2020, 1, 1))
    assert realized_exceedances(data, unreachable, window) == 0

    worst = ReferenceMark("ev100m", 1, math.log(9.80), as_of=date(2020, 1, 1))
    in_window = [9.58, 9.69, 9.72, 9.80]
    assert realized_exceedances(data, worst, window) == len(in_window) - 1

    stranger = ReferenceMark("other", 1, math.log(9.72), as_of=date(2020, 1, 1))
    with pytest.raises(ValueError):
        realized_exceedances(data, stranger, window)


def test_realized_improvement_values():
    data = _hand_list()
    window = DateWindow.calendar_years(2020, 2021)
    ref = ReferenceMark("ev100m", 1, math.log(9.72), as_of=date(2020, 1, 1))
    got = realized_improvement(data, ref, window)
    assert got == pytest.approx(-math.log(9.58 / 9.72), rel=1e-12)
    assert got == pytest.approx(0.01451, abs=1e-5)

    equal = ReferenceMark("ev100m", 1, math.log(9.58), as_of=date(2020, 1, 1))
    assert realized_improvement(data, equal, window) == pytest.approx(0.0, abs=1e-15)

    better = ReferenceMark("ev100m", 1, math.log(9.40), as_of=date(2020, 1, 1))
    assert realized_improvement(data, better, window) < 0.0

    with pytest.raises(MissingOutcome):
        realized_improvement(data, ref, DateWindow.calendar_years(1930, 1931))
    with pytest.raises(ValueError):
        realized_improvement(
            data, ReferenceMark("other", 1, 2.0, as_of=date(2020, 1, 1)), window
        )


def test_report_cell_lookup():
    cell = BacktestCell(
        statistic="exceedances", window_years=2, rank=10,
        event_ids=("a", "b", "c"), predicted=(1.0, 2.0, 3.0),
        actual=(1.0, 2.5, 2.8), pearson_r=0.9,
    )
    invalid = BacktestCell(
        statistic="record", window_years=2, rank=None,
        event_ids=("a", "b", "c"), predicted=(0.1, 0.2, 0.3),
        actual=(0.0, 0.0, 0.0), pearson_r=None, note="zero variance",
    )
    report = BacktestReport(
        spec=BacktestSpec(cutoff_year=CUTOFF, windows=(2,), reference_ranks=(10,)),
        prior=__import__("tailcast.emprior", fromlist=["HyperPrior"]).HyperPrior.weakly_informative(),
        cells=(cell, invalid),
        event_notes=(),
    )
    assert report.cell("exceedances", 2, 10) is cell
    assert cell.valid and not invalid.valid
    with pytest.raises(KeyError):
        report.cell("exceedances", 5, 10)


def varied_span_corpus(extra_post_cutoff=False):
    """Five full-history events whose pre-cutoff spans differ 5x.

    Span drives the fitted per-year rate (same population over fewer years
    means more attempts per year), so predicted exceedance counts genuinely
    vary between events instead of collapsing to a constant.
    """
    corpus = []
    for i, span in enumerate((4, 8, 12, 16, 20)):
        spec = EventSpec.running(f"run{span:02d}")
        tail = sample_tail(400 + i, MU_STAR, SIGMA_STAR, 20_000, 120)
        data = tail_performance_list(spec, tail, CUTOFF - span, 2021, seed=500 + i)
        if extra_post_cutoff:
            best_raw = math.exp(data.best * 0.999)  # slightly better than any mark
            extra = [
                RawMark(best_raw, date(2020, 6, 15)),
                RawMark(best_raw * 1.001, date(2021, 6, 15)),
            ]
            data = build_performance_list(spec, list(data.records) + extra)
        corpus.append(data)
    return corpus


@pytest.fixture(scope="module")
def small_report():
    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(1, 2), reference_ranks=(10, 25))
    return run_backtest(varied_span_corpus(), spec, CONFIG)


def test_run_backtest_structure(small_report):
    report = small_report
    assert report.prior.provenance is Provenance.EMPIRICAL
    # exceedances and improvement per (window, rank), record per window
    assert len(report.cells) == 2 * 2 * 2 + 2
    for statistic in ("exceedances", "improvement"):
        for window in (1, 2):
            for rank in (10, 25):
                cell = report.cell(statistic, window, rank)
                assert len(cell.event_ids) == len(cell.predicted) == len(cell.actual)
                assert cell.event_ids == tuple(sorted(cell.event_ids))
    for window in (1, 2):
        record = report.cell("record", window)
        assert all(0.0 <= p <= 1.0 for p in record.predicted)
        assert set(record.actual) <= {0.0, 1.0}


def test_run_backtest_exceedances_track_reality(small_report):
    cell = small_report.cell("exceedances", 2, 10)
    assert cell.valid
    assert len(cell.event_ids) == 5
    assert cell.pearson_r > 0.3
    # label shuffling destroys the alignment the correlation measures
    rng = np.random.default_rng(7)
    shuffled = [
        abs(pearson(rng.permutation(cell.predicted), cell.actual))
        for _ in range(200)
    ]
    assert float(np.mean(shuffled)) < abs(cell.pearson_r)


def test_run_backtest_deterministic(small_report):
    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(1, 2), reference_ranks=(10, 25))
    again = run_backtest(reversed(varied_span_corpus()), spec, CONFIG)
    assert again.cells == small_report.cells
    assert again.prior == small_report.prior


def test_run_backtest_ignores_post_cutoff_data(small_report):
    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(1, 2), reference_ranks=(10, 25))
    injected = run_backtest(varied_span_corpus(extra_post_cutoff=True), spec, CONFIG)
    changed = False
    for cell in small_report.cells:
        twin = injected.cell(cell.statistic, cell.window_years, cell.rank)
        assert twin.predicted == cell.predicted  # fits untouched by the future
        changed = changed or twin.actual != cell.actual
    assert changed  # the injected marks did land in the evaluation windows


def test_run_backtest_needs_four_pre_cutoff_events():
    corpus = varied_span_corpus()[:3]
    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(1,), reference_ranks=(10,))
    with pytest.raises(InsufficientEvents):
        run_backtest(corpus, spec, CONFIG)


def test_run_backtest_flags_degenerate_outcomes():
    # every future mark is worse than the rank-10 reference, so the actual
    # exceedance vector is identically zero and the correlation is undefined
    corpus = []
    for i in range(4):
        spec = EventSpec.running(f"flat{i}")
        tail = sample_tail(700 + i, MU_STAR, SIGMA_STAR, 5_000, 30)
        data = tail_performance_list(spec, tail, 2008, 2019, seed=800 + i)
        slow = math.exp(data.w_k + 0.05)
        extra = [RawMark(slow, date(2020, 7, 1)), RawMark(slow * 1.01, date(2021, 7, 1))]
        corpus.append(build_performance_list(spec, list(data.records) + extra))

    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(2,), reference_ranks=(10,))
    report = run_backtest(corpus, spec, CONFIG)
    cell = report.cell("exceedances", 2, 10)
    assert not cell.valid
    assert set(cell.actual) == {0.0}
    assert "variance" in cell.note

    record = report.cell("record", 2)
    assert not record.valid  # no records fell either


def test_renders(small_report):
    table = render_report_table(small_report)
    assert f"cutoff={CUTOFF}" in table
    assert "[exceedances]" in table and "[record]" in table
    assert "rank10" in table and "rank25" in table

    summary = render_summary_records(small_report)
    lines = summary.strip().split("\n")
    assert lines[0] == "statistic\twindow_years\trank\tn_events\tpearson\tnote"
    assert len(lines) == 1 + len(small_report.cells)

    detail = render_detail_records(small_report)
    head, *rows = detail.strip().split("\n")
    assert head == "statistic\twindow_years\trank\tevent\tpredicted\tactual"
    assert len(rows) == sum(len(c.event_ids) for c in small_report.cells)
    # ties back to the cell values exactly
    first = rows[0].split("\t")
    cell0 = small_report.cells[0]
    assert first[3] == cell0.event_ids[0]
    assert float(first[4]) == cell0.predicted[0]
