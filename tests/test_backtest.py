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
    _dated_marks,
    _marks_in,
    fit_window,
    render_detail_records,
    render_report_table,
    render_summary_records,
    run_backtest,
)
from tailcast.emprior import InsufficientEvents, Provenance
from tailcast.ingest import DateWindow, EventSpec, RawMark, build_performance_list
from tailcast.sampler import SamplerConfig
from tailcast.stats import pearson
from tailcast.synth import sample_tail, tail_performance_list

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
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, windows=())
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, windows=(0,))
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, reference_ranks=(10, 37))
    with pytest.raises(ValueError):
        BacktestSpec(cutoff_year=CUTOFF, reference_ranks=())


@pytest.mark.parametrize("cutoff, windows, mode", [
    (9999, (2,), DataMode.ALL_PRIOR),
    (9999, (1,), DataMode.ALL_PRIOR),
    (0, (1,), DataMode.ALL_PRIOR),
    (5, (1,), DataMode.FIVE_YEARS),
    (10**30, (1,), DataMode.ALL_PRIOR),
])
def test_spec_refuses_a_window_outside_the_calendar(cutoff, windows, mode):
    # a library caller fails here, before any fit runs
    with pytest.raises(ValueError, match=f"^cutoff_year {cutoff} is out of range"):
        BacktestSpec(cutoff_year=cutoff, windows=windows, data_mode=mode)


def test_spec_takes_the_calendar_edges():
    BacktestSpec(cutoff_year=9998, windows=(1,))
    BacktestSpec(cutoff_year=1, windows=(1,))
    BacktestSpec(cutoff_year=6, windows=(1,), data_mode=DataMode.FIVE_YEARS)


def test_spec_windows():
    assert fit_window(DataMode.ALL_PRIOR, CUTOFF) == DateWindow.before(CUTOFF)
    assert fit_window(DataMode.ALL_PRIOR, None) is None
    assert fit_window(DataMode.FIVE_YEARS, CUTOFF) == DateWindow.years_before(CUTOFF, 5)

    allp = BacktestSpec(cutoff_year=CUTOFF)

    evaluation = allp.evaluation_window(2)
    assert evaluation.contains(date(2020, 1, 1))
    assert evaluation.contains(date(2021, 12, 31))
    assert not evaluation.contains(date(2019, 12, 31))
    assert not evaluation.contains(date(2022, 1, 1))


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


def test_run_backtest_refuses_a_repeated_event_id():
    corpus = varied_span_corpus()
    spec = BacktestSpec(cutoff_year=CUTOFF, windows=(1,), reference_ranks=(10,))
    with pytest.raises(ValueError, match="'run08'"):
        run_backtest(corpus + [corpus[1]], spec, CONFIG)


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


OUTCOME_SPEC = dict(cutoff_year=CUTOFF, windows=(1, 2), reference_ranks=(10, 50))


def outcome_corpus():
    """Five events whose held-out years exercise each outcome rule.

    - `wide`: 120 marks dated 2000-2021, an ordinary event.
    - `tie`: 120 marks before the cutoff; its only 2020 mark equals its
      rank-10 reference, and its 2021 mark equals its rank-3 mark.
    - `slow`: 30 marks before the cutoff, fewer than rank 50; its 2020 and
      2021 marks are slower than anything before.
    - `quiet`: 120 marks before the cutoff, none in 2020, and one in 2021
      that ties its best mark, so no record.
    - `old`: 120 marks dated 2000-2019 and a best mark from 2005. Its 2020
      mark beats every mark of 2015-2019 but not the 2005 one, so no record
      in either data mode.
    """
    def synthetic(i, event_id, n, first_year, last_year):
        tail = sample_tail(900 + i, MU_STAR, SIGMA_STAR, 20_000, n)
        return tail_performance_list(EventSpec.running(event_id), tail,
                                     first_year, last_year, seed=950 + i)

    def with_marks(data, extra):
        return build_performance_list(data.event, list(data.records) + extra)

    wide = synthetic(0, "wide", 120, 2000, 2021)
    tie = synthetic(1, "tie", 120, 2000, 2019)
    tie = with_marks(tie, [RawMark(tie.records[9].value, date(2020, 5, 1)),
                           RawMark(tie.records[2].value, date(2021, 5, 1))])
    slow = synthetic(2, "slow", 30, 2012, 2019)
    worst = slow.records[-1].value
    slow = with_marks(slow, [RawMark(worst * 1.01, date(2020, 7, 1)),
                             RawMark(worst * 1.02, date(2021, 7, 1))])
    quiet = synthetic(3, "quiet", 120, 2000, 2019)
    quiet = with_marks(quiet, [RawMark(quiet.records[0].value, date(2021, 3, 1))])
    old = synthetic(4, "old", 120, 2000, 2019)
    best = old.records[0].value
    old = with_marks(old, [RawMark(best * 0.98, date(2005, 6, 1)),
                           RawMark(best * 0.99, date(2020, 6, 1))])
    return [wide, tie, slow, quiet, old]


def brute_force_actual(data, statistic, length, rank):
    """One cell's realized value for one event by a plain loop over the
    records, or None when the event has no row in that cell."""
    before, held = [], []
    for record, x in zip(data.records, data.marks):
        year = record.date.year
        if year < CUTOFF:
            before.append(x)
        elif year < CUTOFF + length:
            held.append(x)
    if statistic == "record":
        return float(any(x < min(before) for x in held))
    if len(before) < rank:
        return None
    reference = sorted(before)[rank - 1]
    if statistic == "exceedances":
        return float(sum(1 for x in held if x < reference))
    return reference - min(held) if held else None


@pytest.fixture(scope="module", params=list(DataMode), ids=lambda m: m.value)
def outcome_report(request):
    spec = BacktestSpec(data_mode=request.param, **OUTCOME_SPEC)
    return run_backtest(outcome_corpus(), spec, CONFIG)


@pytest.mark.parametrize("window", [
    DateWindow.before(2019),
    DateWindow.calendar_years(2018, 2018),
    DateWindow.calendar_years(2018, 2020),
    DateWindow.years_before(2030, 2),
], ids=["before", "one-year", "three-years", "empty"])
def test_marks_in_matches_the_date_loop(window):
    # marks dated on each window edge: the start is inside, the end is not
    data = outcome_corpus()[0]
    edges = [RawMark(data.records[i].value, day) for i, day in enumerate(
        [date(2018, 1, 1), date(2019, 1, 1), date(2017, 12, 31), date(2020, 12, 31),
         date(2021, 1, 1)])]
    data = build_performance_list(data.event, list(data.records) + edges)
    want = [x for record, x in zip(data.records, data.marks) if window.contains(record.date)]
    assert _marks_in(_dated_marks(data), window) == want


def test_run_backtest_actuals_match_brute_force(outcome_report):
    assert "fit failed" not in str(outcome_report.event_notes)
    corpus = outcome_corpus()
    assert len(outcome_report.cells) == 2 * (2 * 2 + 1)
    for cell in outcome_report.cells:
        expected = []
        for data in sorted(corpus, key=lambda d: d.event.event_id):
            actual = brute_force_actual(data, cell.statistic, cell.window_years, cell.rank)
            if actual is not None:
                expected.append((data.event.event_id, actual))
        assert list(zip(cell.event_ids, cell.actual)) == expected, cell


def test_run_backtest_ties_are_not_exceedances(outcome_report):
    (tie,) = [d for d in outcome_corpus() if d.event.event_id == "tie"]
    before = [x for r, x in zip(tie.records, tie.marks) if r.date.year < CUTOFF]
    (in_2020,) = [x for r, x in zip(tie.records, tie.marks) if r.date.year == CUTOFF]
    assert in_2020 == before[9]  # the 2020 mark ties the rank-10 reference
    exceed = outcome_report.cell("exceedances", 1, 10)
    assert exceed.actual[exceed.event_ids.index("tie")] == 0.0
    improvement = outcome_report.cell("improvement", 1, 10)
    assert improvement.actual[improvement.event_ids.index("tie")] == 0.0
    two_years = outcome_report.cell("exceedances", 2, 10)
    assert two_years.actual[two_years.event_ids.index("tie")] == 1.0  # the rank-3 tie


def test_run_backtest_negative_improvement(outcome_report):
    for length in (1, 2):
        cell = outcome_report.cell("improvement", length, 10)
        assert cell.actual[cell.event_ids.index("slow")] < 0.0


def test_run_backtest_empty_window_keeps_a_zero_exceedance(outcome_report):
    for rank in (10, 50):
        exceed = outcome_report.cell("exceedances", 1, rank)
        assert exceed.actual[exceed.event_ids.index("quiet")] == 0.0
        assert "quiet" not in outcome_report.cell("improvement", 1, rank).event_ids
        assert "quiet" in outcome_report.cell("improvement", 2, rank).event_ids
    record = outcome_report.cell("record", 1)
    assert record.actual[record.event_ids.index("quiet")] == 0.0


def test_run_backtest_record_is_the_best_mark_before_the_cutoff(outcome_report):
    # `old`'s 2020 mark beats its five-year best but not its 2005 best, which
    # is the record to break in both data modes.
    (old,) = [d for d in outcome_corpus() if d.event.event_id == "old"]
    recent = build_performance_list(old.event, list(old.records),
                                    window=DateWindow.years_before(CUTOFF, 5))
    (in_2020,) = [x for r, x in zip(old.records, old.marks) if r.date.year == CUTOFF]
    assert old.marks[0] < in_2020 < recent.marks[0]
    for length in (1, 2):
        record = outcome_report.cell("record", length)
        assert record.actual[record.event_ids.index("old")] == 0.0


def test_run_backtest_notes_a_rank_deeper_than_the_list(outcome_report):
    notes = dict(outcome_report.event_notes)
    assert "fewer than 50 marks before cutoff" in notes["slow"]
    assert all("fewer than" not in notes.get(e, "") for e in ("wide", "tie", "quiet"))
    for statistic in ("exceedances", "improvement"):
        for length in (1, 2):
            assert "slow" in outcome_report.cell(statistic, length, 10).event_ids
            assert "slow" not in outcome_report.cell(statistic, length, 50).event_ids


def test_run_backtest_references_use_all_prior_data(outcome_report):
    # A five-year fit sees 2015-2019 only, but in both modes the reference is
    # the rank-th best mark of all the data before the cutoff.
    (wide,) = [d for d in outcome_corpus() if d.event.event_id == "wide"]
    recent = build_performance_list(wide.event, list(wide.records),
                                    window=DateWindow.years_before(CUTOFF, 5))
    all_prior = [x for r, x in zip(wide.records, wide.marks) if r.date.year < CUTOFF]
    assert recent.marks[9] != all_prior[9]
    held = [x for r, x in zip(wide.records, wide.marks) if r.date.year == CUTOFF]
    cell = outcome_report.cell("improvement", 1, 10)
    assert cell.actual[cell.event_ids.index("wide")] == all_prior[9] - min(held)
