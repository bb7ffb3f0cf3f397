"""End-to-end command tests: fit, tables, forecast, backtest, validate-data."""
import dataclasses
import datetime
import json
import math
import re

import pytest

from tailcast import backtest, cli
from tailcast.cli import _SAMPLER_KEYS, DATA_ENV, UsageError, _parse_points, main, mile_partner
from tailcast.fitfile import load_fit
from tailcast.ingest import EventSpec, RawMark, format_raw_mark, write_list_file
from tailcast.sampler import SamplerConfig
from tailcast.stats import DEFAULT_POINT_GRID
from tailcast.synth import sample_tail, tail_performance_list, write_corpus

from conftest import fail_every_init

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033

SPEED = ["--chains", "2", "--batches", "80", "--burn-in", "1000", "--pool-size", "160"]


def build_corpus(root):
    data_dir = root / "data"
    lists = []
    mile_sizes = {"w1mile": 15}  # short list, as mile lists tend to be
    for i, event_id in enumerate(
        ["m0100", "m0200", "m0400", "m0800", "w1500m", "w1mile"]
    ):
        keep = mile_sizes.get(event_id, 130)
        spec = EventSpec.running(event_id)
        tail = sample_tail(600 + i, MU_STAR, SIGMA_STAR, 20_000, keep)
        lists.append(tail_performance_list(spec, tail, 2006, 2020, seed=650 + i))
    write_corpus(data_dir, lists)
    return data_dir


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data_dir = build_corpus(root)
    out_dir = root / "out"
    code = main(["fit", "--data", str(data_dir), "--out", str(out_dir),
                 "--seed", "5", *SPEED])
    assert code == 0
    return data_dir, out_dir


def test_fit_artifacts(workspace):
    data_dir, out_dir = workspace
    fit_files = sorted(p.name for p in (out_dir / "fits").glob("*.fit"))
    assert fit_files == [
        "m0100.fit", "m0200.fit", "m0400.fit", "m0800.fit",
        "w1500m.fit", "w1mile.fit",
    ]
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == "fit"
    assert manifest["seed"] == 5
    assert manifest["mode"] == "all"
    assert manifest["cutoff"] is None
    assert manifest["prior"]["kind"] == "empirical"
    assert manifest["prior"]["provenance"] == "empirical"
    assert len(manifest["prior"]["contributing_events"]) == 6
    assert manifest["events"] == sorted(manifest["events"])
    assert set(manifest["mpsrf"]) == set(manifest["events"])
    assert all(t > 0 for t in manifest["t_m"].values())
    assert set(manifest["sampler"]) == {
        "burn_in_steps", "batches", "batch_len", "chains", "pool_size",
    }


def test_fit_rerun_is_byte_identical(workspace, tmp_path):
    data_dir, out_dir = workspace
    twin = tmp_path / "twin"
    code = main(["fit", "--data", str(data_dir), "--out", str(twin),
                 "--seed", "5", *SPEED])
    assert code == 0
    assert (twin / "manifest.json").read_bytes() == (out_dir / "manifest.json").read_bytes()
    for path in sorted((out_dir / "fits").glob("*.fit")):
        assert (twin / "fits" / path.name).read_bytes() == path.read_bytes()


def test_fit_notes_an_event_that_failed_pass_2(workspace, tmp_path, monkeypatch):
    # The note is the text perfbench's fit-failure count reads; the other
    # events fit as they do without the failure.
    data_dir, out_dir = workspace
    fail_every_init(monkeypatch, "m0800")
    out = tmp_path / "failed"
    assert main(["fit", "--data", str(data_dir), "--out", str(out), "--seed", "5", *SPEED]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["notes"]["m0800"] == "fit failed: pass 2: m0800: 2 of 2 chains failed"
    assert "m0800" not in manifest["events"]
    for event_id in manifest["events"]:
        name = f"{event_id}.fit"
        assert (out / "fits" / name).read_bytes() == (out_dir / "fits" / name).read_bytes()


def test_fit_five_years_mode(workspace, tmp_path):
    data_dir, _ = workspace
    out = tmp_path / "five"
    code = main(["fit", "--data", str(data_dir), "--out", str(out),
                 "--mode", "five-years", "--cutoff", "2018", "--seed", "5", *SPEED])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["mode"] == "five-years"
    assert manifest["cutoff"] == 2018
    assert len(manifest["events"]) >= 4
    assert all(value == 5.0 for value in manifest["t_m"].values())


def test_five_year_forecast_breaks_the_older_record(tmp_path):
    # The event's record, set in 2005, is older than the five years
    # 2013-2017 that a five-year fit with cutoff 2018 reads.
    spec = EventSpec.running("m1500")
    tail = sample_tail(610, MU_STAR, SIGMA_STAR, 20_000, 130)
    records = list(tail_performance_list(spec, tail, 2006, 2020, seed=660).records)
    record = RawMark(value=records[0].value * 0.98, date=datetime.date(2005, 6, 1))
    (tmp_path / "data").mkdir()
    write_list_file(tmp_path / "data" / "m1500.tsv", spec, [record, *records])
    common = ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "out")]
    assert main(["fit", *common, "--mode", "five-years", "--cutoff", "2018",
                 "--prior", "weak", *SPEED]) == 0
    assert main(["forecast", *common]) == 0
    header, row = (tmp_path / "out" / "forecast.tsv").read_text().splitlines()
    assert header.split("\t")[1] == "record"
    recent = min(r.value for r in records if 2013 <= r.date.year <= 2017)
    assert format_raw_mark(spec, recent) != format_raw_mark(spec, record.value)
    assert row.split("\t")[1] == format_raw_mark(spec, record.value)


def test_weak_prior_bounds_a_fifteen_mark_fit(tmp_path, capsys):
    # Fifteen marks barely identify N. Under the old near-flat weak prior
    # (variance e^20) this list's fit ran out to log N = 155 with mpsrf 1.61;
    # the sd-2 weak prior must hold it. Bounds fixed before the first run.
    spec = EventSpec.running("w10000m")
    tail = sample_tail(7105, math.log(2100.0), 0.050, 3_000, 15)
    write_corpus(tmp_path / "data", [tail_performance_list(spec, tail, 2012, 2020, seed=7155)])
    out = tmp_path / "out"
    assert main(["fit", "--data", str(tmp_path / "data"), "--out", str(out),
                 "--prior", "weak", "--seed", "12"]) == 0
    fit = load_fit(out / "fits" / "w10000m.fit")
    with capsys.disabled():
        print(f"\n15-mark weak-prior fit: mpsrf {fit.mpsrf:.3f}, pooled log N "
              f"{fit.pooled_logN.min():.2f} to {fit.pooled_logN.max():.2f}")
    assert fit.mpsrf < 1.1
    assert fit.pooled_logN.max() <= 20.0


def test_fit_empirical_needs_four_events(workspace, tmp_path, capsys):
    data_dir, _ = workspace
    code = main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "o"),
                 "--events", "m0100", *SPEED])
    assert code == 1
    err = capsys.readouterr().err
    assert "--prior weak" in err


def test_fit_refuses_a_corpus_it_cannot_fit(workspace, tmp_path, capsys, monkeypatch):
    data_dir, _ = workspace
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "x.tsv").write_text("# unit=s\n9.58\t2009-08-16\n")
    capsys.readouterr()
    assert main(["fit", "--data", str(broken), "--out", str(tmp_path / "a")]) == 1
    assert capsys.readouterr().err.splitlines()[1:] == ["error: no usable events"]
    fail_every_init(monkeypatch, "m0100")
    assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "b"),
                 "--events", "m0100", "--prior", "weak", *SPEED]) == 1
    assert capsys.readouterr().err.splitlines() == ["error: every fit failed"]
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_fit_weak_prior_single_event(workspace, tmp_path):
    data_dir, _ = workspace
    out = tmp_path / "weak"
    code = main(["fit", "--data", str(data_dir), "--out", str(out),
                 "--events", "m0100", "--prior", "weak", *SPEED])
    assert code == 0
    assert [p.name for p in (out / "fits").glob("*.fit")] == ["m0100.fit"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["prior"]["kind"] == "weak"
    assert manifest["prior"]["provenance"] == "weak"


def test_tables_output(workspace, capsys):
    data_dir, out_dir = workspace
    code = main(["tables", "--data", str(data_dir), "--out", str(out_dir)])
    assert code == 0
    err = capsys.readouterr().err
    assert "low-data" in err and "w1mile" in err

    lines = (out_dir / "tables.tsv").read_text().strip().split("\n")
    header = lines[0].split("\t")
    assert header[0] == "event" and header[-1] == "flags"
    grid = [int(p) for p in header[1:-1]]
    assert tuple(grid) == DEFAULT_POINT_GRID

    # marks are written with two decimals, so the doubling ratio between the
    # 1200 and 1300 columns only holds to the file's quantisation, not to the
    # raw-score precision checked in test_stats
    ratio = 2.0 ** (100.0 / 1300.0)
    col_1200 = header.index("1200")
    col_1300 = header.index("1300")
    for line in lines[1:]:
        cells = line.split("\t")
        assert cells[-1] in ("", "low_data")
        got = float(cells[col_1200]) / float(cells[col_1300])
        assert got == pytest.approx(ratio, rel=2e-3)
    flagged = [line.split("\t")[0] for line in lines[1:] if line.endswith("low_data")]
    assert flagged == ["w1mile"]


def test_tables_missing_mile_partner_warns(workspace, tmp_path, capsys):
    data_dir, out_dir = workspace
    out = tmp_path / "solo"
    out.mkdir()
    (out / "fits").mkdir()
    source = out_dir / "fits" / "w1mile.fit"
    (out / "fits" / "w1mile.fit").write_bytes(source.read_bytes())
    code = main(["tables", "--data", str(data_dir), "--out", str(out)])
    assert code == 0
    assert "no w1500m fit to borrow" in capsys.readouterr().err


def test_tables_mile_row_does_not_depend_on_events(workspace, tmp_path):
    # The mile borrows its partner's population whether or not --events
    # selects the partner's row.
    data_dir, out_dir = workspace
    out = tmp_path / "select"
    (out / "fits").mkdir(parents=True)
    for path in (out_dir / "fits").glob("*.fit"):
        (out / "fits" / path.name).write_bytes(path.read_bytes())
    common = ["--data", str(data_dir), "--out", str(out)]
    assert main(["tables", *common]) == 0
    every = (out / "tables.tsv").read_text().splitlines()
    assert main(["tables", *common, "--events", "w1mile"]) == 0
    alone = (out / "tables.tsv").read_text().splitlines()
    assert len(alone) == 2 and alone[1].startswith("w1mile\t")
    assert alone[1] in every


def test_tables_names_the_stale_fit_file(workspace, tmp_path, capsys):
    data_dir, out_dir = workspace
    out = tmp_path / "stale"
    (out / "fits").mkdir(parents=True)
    for path in (out_dir / "fits").glob("*.fit"):
        (out / "fits" / path.name).write_bytes(path.read_bytes())
    stale = out / "fits" / "m0400.fit"
    lines = stale.read_text().splitlines()
    stale.write_text("\n".join(["#tailcast-fit/2", lines[1], "#columns chain_id"]) + "\n")
    capsys.readouterr()
    assert main(["tables", "--data", str(data_dir), "--out", str(out)]) == 1
    assert f"error: {stale}: first line must be '#tailcast-fit/10'" in capsys.readouterr().err


def test_two_fit_files_of_one_event_are_refused(workspace, tmp_path, capsys):
    data_dir, out_dir = workspace
    fits = tmp_path / "copy" / "fits"
    fits.mkdir(parents=True)
    for name in ("m0100.fit", "m0100 (copy).fit"):
        (fits / name).write_bytes((out_dir / "fits" / "m0100.fit").read_bytes())
    capsys.readouterr()
    assert main(["tables", "--data", str(data_dir), "--out", str(fits.parent)]) == 2
    assert (f"error: event id 'm0100' is declared by both {fits / 'm0100 (copy).fit'} "
            f"and {fits / 'm0100.fit'}") in capsys.readouterr().err
    assert not (fits.parent / "tables.tsv").exists()
    # an id named twice in --events selects its one file once
    assert main(["tables", "--data", str(data_dir), "--out", str(fits.parent),
                 "--events", "m0100,m0100"]) == 0


@pytest.mark.parametrize("pools", [("60", "80"), ("80", "60")],
                         ids=["partner-smaller", "partner-larger"])
def test_tables_mile_borrows_from_a_partner_of_other_pool_size(workspace, tmp_path, capsys,
                                                               pools):
    # A mile and a 1500 m pooled to different sizes pair their first
    # min(n, m) draws, so the mile still borrows; its row does not depend on
    # whether --events selects the partner's.
    data_dir, _ = workspace
    out = tmp_path / "pools"
    common = ["--data", str(data_dir), "--out", str(out)]
    short = ["--prior", "weak", "--chains", "2", "--batches", "40", "--burn-in", "300"]
    for event_id, pool in zip(("w1500m", "w1mile"), pools):
        assert main(["fit", *common, "--events", event_id, "--pool-size", pool, *short]) == 0
    capsys.readouterr()
    assert main(["tables", *common]) == 0
    assert "to borrow" not in capsys.readouterr().err
    both = (out / "tables.tsv").read_text().splitlines()
    assert main(["tables", *common, "--events", "w1mile"]) == 0
    alone = (out / "tables.tsv").read_text().splitlines()
    assert [line.split("\t")[0] for line in both] == ["event", "w1500m", "w1mile"]
    assert both[2] == alone[1]
    (out / "fits" / "w1500m.fit").unlink()
    assert main(["tables", *common]) == 0
    assert "no w1500m fit to borrow" in capsys.readouterr().err
    assert (out / "tables.tsv").read_text().splitlines()[1] != both[2]


def test_tables_mile_partner_too_small_to_borrow_warns(tmp_path, capsys):
    # Every pooled N of this 1500 m fit is under 2 n_k of the 2000-mark mile,
    # so no borrowed draw keeps the mile's identity in-domain, and the mile
    # row is built from its own draws, as when the partner is missing.
    lists = [
        tail_performance_list(EventSpec.running("m1500m"),
                              sample_tail(1, math.log(215.0), 0.03, 300, 250), 2006, 2020, seed=2),
        tail_performance_list(EventSpec.running("m1mile"),
                              sample_tail(3, math.log(232.0), 0.03, 20_000, 2000), 2006, 2020,
                              seed=4),
    ]
    write_corpus(tmp_path / "data", lists)
    out = tmp_path / "out"
    common = ["--data", str(tmp_path / "data"), "--out", str(out)]
    assert main(["fit", *common, "--prior", "weak", "--chains", "2", "--batches", "40",
                 "--burn-in", "300", "--pool-size", "80"]) == 0
    assert load_fit(out / "fits" / "m1500m.fit").pooled_logN.max() < math.log(2 * 2000)
    capsys.readouterr()
    assert main(["tables", *common]) == 0
    assert ("warning: m1mile: no m1500m population draw keeps the tail-mass identity "
            "in-domain; using its own") in capsys.readouterr().err
    mile = (out / "tables.tsv").read_text().splitlines()[2]
    (out / "fits" / "m1500m.fit").unlink()
    assert main(["tables", *common]) == 0
    assert "no m1500m fit to borrow" in capsys.readouterr().err
    assert (out / "tables.tsv").read_text().splitlines()[1] == mile


def test_forecast_output(workspace):
    data_dir, out_dir = workspace
    code = main(["forecast", "--data", str(data_dir), "--out", str(out_dir),
                 "--tf", "2"])
    assert code == 0
    lines = (out_dir / "forecast.tsv").read_text().splitlines()
    assert lines[0] == "event\trecord\tp_break\texpected_best"
    assert len(lines) == 7
    probs = []
    for line in lines[1:]:
        event_id, record_text, p_text, best_text = line.split("\t")
        assert re.fullmatch(r"\d\.\d{2}e[+-]\d{2}", p_text)
        assert record_text and best_text
        probs.append(float(p_text))
    assert probs == sorted(probs)


def test_forecast_zero_horizon(workspace, tmp_path):
    data_dir, out_dir = workspace
    out = tmp_path / "zero"
    out.mkdir()
    (out / "fits").mkdir()
    for path in (out_dir / "fits").glob("*.fit"):
        (out / "fits" / path.name).write_bytes(path.read_bytes())
    code = main(["forecast", "--data", str(data_dir), "--out", str(out), "--tf", "0"])
    assert code == 0
    lines = (out / "forecast.tsv").read_text().splitlines()
    for line in lines[1:]:
        _, _, p_text, best_text = line.split("\t")
        assert float(p_text) == 0.0
        assert best_text == ""


@pytest.mark.parametrize("t_f", ["1e306", "1e-300"])
def test_forecast_refuses_a_horizon_outside_the_range_of_m(workspace, tmp_path, capsys, t_f):
    # M = t_f N / t_m overflows at 1e306 and falls below 1e-17 at 1e-300
    data_dir, out_dir = workspace
    out = tmp_path / "far"
    (out / "fits").mkdir(parents=True)
    for path in (out_dir / "fits").glob("*.fit"):
        (out / "fits" / path.name).write_bytes(path.read_bytes())
    capsys.readouterr()
    assert main(["forecast", "--data", str(data_dir), "--out", str(out), "--tf", t_f]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: m0100: a horizon of t_f = {float(t_f):g} years "), err
    assert "Traceback" not in err
    assert not (out / "forecast.tsv").exists()


def test_backtest_command(workspace, tmp_path):
    data_dir, _ = workspace
    out = tmp_path / "bt"
    code = main(["backtest", "--data", str(data_dir), "--out", str(out),
                 "--cutoff", "2018", "--windows", "1,2", "--ranks", "10,25",
                 "--seed", "5", *SPEED])
    assert code == 0
    assert (out / "backtest.txt").is_file()
    assert (out / "backtest_detail.tsv").is_file()
    lines = (out / "backtest_summary.tsv").read_text().strip().split("\n")
    assert lines[0] == "statistic\twindow_years\trank\tn_events\tpearson\tnote"
    ranks = {line.split("\t")[2] for line in lines[1:]}
    assert ranks <= {"10", "25", ""}
    # exceedances + improvement per (window, rank) plus record per window
    assert len(lines) - 1 == 2 * 2 * 2 + 2


def test_backtest_too_few_pre_cutoff_events(tmp_path, capsys):
    # Five events, two of which start after the cutoff: a clean error, no traceback.
    lists = []
    for i, (event_id, first_year) in enumerate(
        [("m0100", 2006), ("m0200", 2006), ("m0400", 2006), ("m0800", 2019), ("w1500m", 2019)]
    ):
        tail = sample_tail(600 + i, MU_STAR, SIGMA_STAR, 20_000, 40)
        lists.append(tail_performance_list(EventSpec.running(event_id), tail,
                                           first_year, 2020, seed=650 + i))
    data_dir = tmp_path / "data"
    write_corpus(data_dir, lists)
    code = main(["backtest", "--data", str(data_dir), "--out", str(tmp_path / "bt"),
                 "--cutoff", "2018", "--windows", "1", "--ranks", "10", *SPEED])
    assert code == 1
    err = capsys.readouterr().err
    assert "error: backtest needs >= 4 events with pre-cutoff data, have 3" in err
    assert "Traceback" not in err


def test_backtest_needs_cutoff(workspace):
    data_dir, _ = workspace
    assert main(["backtest", "--data", str(data_dir), "--out", "unused"]) == 2


def test_backtest_refuses_the_weak_prior(workspace, tmp_path, capsys):
    # backtest always fits with the empirical prior, so asking for another
    # is a usage error rather than a setting it would ignore
    data_dir, _ = workspace
    out = tmp_path / "bt"
    assert main(["backtest", "--data", str(data_dir), "--out", str(out),
                 "--cutoff", "2018", "--prior", "weak", *SPEED]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error: ") and "--prior weak" in line
    assert not out.exists()


def test_validate_data(workspace, tmp_path, capsys):
    data_dir, _ = workspace
    assert main(["validate-data", "--data", str(data_dir)]) == 0
    out = capsys.readouterr().out
    ok_lines = [l for l in out.strip().split("\n") if "\tOK\t" in l]
    assert len(ok_lines) == 6
    assert all("n=" in l and "span=" in l for l in ok_lines)

    bad_dir = tmp_path / "bad"
    bad_dir.mkdir()
    (bad_dir / "broken.tsv").write_text("# unit=s\n9.58\t2009-08-16\n")
    assert main(["validate-data", "--data", str(bad_dir)]) == 1
    assert "ERROR" in capsys.readouterr().out


def test_validate_data_prints_the_span_a_fit_uses(tmp_path, capsys):
    # Record dates spanning under 4 years, in a five-year window: a fit of
    # the list spans the window's 5.0 years, and validate-data says so.
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    (data_dir / "short.tsv").write_text(
        "# event=short\n# unit=s\n# direction=lower\n"
        "10.01\t2015-03-01\n10.05\t2016-07-14\n10.10\t2018-11-20\n")
    assert main(["validate-data", "--data", str(data_dir),
                 "--mode", "five-years", "--cutoff", "2019"]) == 0
    (row,) = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert row[:2] == ["short", "OK"]
    assert "span=5.0y" in row


def test_duplicate_event_ids_are_refused(tmp_path, capsys):
    # Two files declaring one event id: fit and backtest refuse to pick one,
    # and validate-data flags the second file.
    tail = sample_tail(600, MU_STAR, SIGMA_STAR, 20_000, 40)
    data_dir = tmp_path / "data"
    (path,) = write_corpus(data_dir, [tail_performance_list(EventSpec.running("same"), tail,
                                                            2006, 2020, seed=650)])
    a, b = data_dir / "a.tsv", data_dir / "b.tsv"
    path.rename(a)
    b.write_bytes(a.read_bytes())
    for command in (["fit", "--prior", "weak"], ["backtest", "--cutoff", "2015"]):
        out_dir = tmp_path / command[0]
        assert main([*command, "--data", str(data_dir), "--out", str(out_dir), *SPEED]) == 2
        err = capsys.readouterr().err
        assert "event id 'same' is declared by both" in err
        assert str(a) in err and str(b) in err
        assert not out_dir.exists()
    assert main(["validate-data", "--data", str(data_dir)]) == 1
    rows = [line.split("\t") for line in capsys.readouterr().out.splitlines()]
    assert [row[:2] for row in rows] == [["a", "OK"], ["b", "ERROR"]]
    assert str(a) in rows[1][2]


@pytest.mark.parametrize("command", ["validate-data", "fit"])
def test_malformed_data_files_are_reported_not_raised(tmp_path, capsys, command):
    # A header pairing seconds with higher-is-better, non-positive or
    # non-finite marks, and a file that cannot be read or decoded, are data
    # errors naming the file, not tracebacks.
    tail = sample_tail(600, MU_STAR, SIGMA_STAR, 20_000, 40)
    data_dir = tmp_path / "data"
    write_corpus(data_dir, [tail_performance_list(EventSpec.running("good"), tail,
                                                  2006, 2020, seed=650)])
    (data_dir / "hdr.tsv").write_text("# event=hdr\n# unit=s\n# direction=higher\n"
                                      "9.58\t2009-08-16\n")
    bad = {"hdr": "hdr.tsv:3:"}
    good_text = (data_dir / "good.tsv").read_text()
    (data_dir / "esc.tsv").write_text(good_text.replace("# event=good", "# event=../../esc"))
    bad["esc"] = "esc.tsv:3:"
    for name, value in (("zero", "0"), ("neg", "-5"), ("nan", "nan"), ("inf", "inf")):
        (data_dir / f"{name}.tsv").write_text(
            f"# event={name}\n# unit=cm\n# direction=higher\n"
            f"812\t2009-08-16\n{value}\t2010-06-01\n"
        )
        bad[name] = f"{name}.tsv:5:"
    # a file that is not UTF-8 text, and a directory that globs as a list file
    (data_dir / "latin.tsv").write_bytes(good_text.replace("good", "latin").encode("utf-8")
                                         + "caf\u00e9\t2010-06-01\n".encode("latin-1"))
    bad["latin"] = "latin.tsv: not UTF-8 text"
    (data_dir / "dir.tsv").mkdir()
    bad["dir"] = "dir.tsv: cannot be read"
    out_dir = tmp_path / "out"
    code = main([command, "--data", str(data_dir), "--out", str(out_dir),
                 "--prior", "weak", *SPEED] if command == "fit"
                else [command, "--data", str(data_dir)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert [p for p in tmp_path.rglob("*.fit") if p.parent != out_dir / "fits"] == []
    if command == "validate-data":
        assert code == 1
        rows = {row.split("\t")[0]: row.split("\t")[1:] for row in out.splitlines()}
        assert rows["good"][0] == "OK"
        for name, where in bad.items():
            assert rows[name][0] == "ERROR" and rows[name][1].startswith(where)
    else:
        assert code == 0
        assert [p.name for p in (out_dir / "fits").glob("*.fit")] == ["good.fit"]
        for name, where in bad.items():
            assert f"warning: skipping {name}: {where}" in err


def test_usage_errors(workspace, tmp_path, capsys):
    data_dir, out_dir = workspace
    assert main(["fit", "--data", str(tmp_path / "nowhere")]) == 2
    assert main(["fit", "--data", str(data_dir), "--events", "nosuch"]) == 2
    assert main(["fit", "--data", str(data_dir), "--mode", "five-years"]) == 2
    assert main(["tables", "--data", str(data_dir), "--out", str(out_dir),
                 "--points", "100:50:10"]) == 2
    fresh = tmp_path / "noFits"
    assert main(["tables", "--data", str(data_dir), "--out", str(fresh)]) == 2
    a_file = tmp_path / "a-file"
    a_file.write_text("")
    assert main(["fit", "--data", str(data_dir), "--out", str(a_file)]) == 2
    assert main(["backtest", "--data", str(data_dir), "--out", str(a_file),
                 "--cutoff", "2018"]) == 2
    capsys.readouterr()
    for command in ("tables", "forecast"):
        assert main([command, "--out", str(a_file)]) == 2
        assert capsys.readouterr().err == f"error: --out {a_file}: {a_file} is not a directory\n"
    latin = tmp_path / "latin.cfg"
    latin.write_bytes("seed = 5\n# caf\u00e9\n".encode("latin-1"))
    assert main(["fit", "--config", str(latin), "--data", str(data_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: config file {latin} is not UTF-8 text")


@pytest.mark.parametrize("command, blocked, kind", [
    (["fit", "--prior", "weak", *SPEED], "fits", "not a directory"),
    (["forecast"], "forecast.tsv", "a directory"),
], ids=["fit", "forecast"])
def test_an_output_that_cannot_be_written_is_refused_first(workspace, tmp_path, capsys,
                                                           command, blocked, kind):
    # An output path of the wrong kind is one error before any work, not a
    # traceback after it.
    data_dir, out_dir = workspace
    out = tmp_path / "out"
    if blocked == "fits":
        out.mkdir()
        (out / blocked).write_text("")
    else:
        _copy_fits(out_dir, out)
        (out / blocked).mkdir()
    assert main([*command, "--data", str(data_dir), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out / blocked}: it is {kind}\n"
    assert sorted(p.name for p in out.iterdir()) == sorted({"fits", blocked})


@pytest.mark.parametrize("command, extra, config", [
    ("fit", [], "seed = abc"),
    ("fit", [], "cutoff = abc"),
    ("fit", [], "tf = abc"),
    ("tables", ["--points", "10,abc"], ""),
    ("backtest", ["--cutoff", "2015", "--windows", "0"], ""),
    ("backtest", ["--cutoff", "2015", "--ranks", "7"], ""),
    ("forecast", ["--tf", "nan"], ""),
    ("forecast", ["--tf", "inf"], ""),
    ("fit", ["--burn-in", "2"], ""),
    ("fit", ["--seed", "-1"], ""),
    ("fit", ["--chains", "1"], ""),
    ("fit", ["--batches", "9"], ""),
    ("fit", ["--seed", "1" + "0" * 309], ""),
    ("fit", ["--burn-in", "1" + "0" * 400], ""),
])
def test_bad_values_are_usage_errors(workspace, tmp_path, capsys, command, extra, config):
    data_dir, out_dir = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    assert main([command, "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(out_dir), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("cutoff", "abc"), ("tf", "abc"), ("mode", "bogus"), ("prior", "bogus"),
    ("chains", "x"),
])
def test_a_flag_and_its_config_key_give_one_error(tmp_path, capsys, key, value):
    config = tmp_path / "run.cfg"
    config.write_text(f"{key} = {value}\n")
    common = ["fit", "--data", str(tmp_path), "--out", str(tmp_path / "out")]
    lines = []
    for given in (["--" + key, value], ["--config", str(config)]):
        assert main([*common, *given]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        lines.append(line)
    assert lines[0] == lines[1]
    assert lines[0].startswith("error: ") and repr(value) in lines[0]


def _copy_fits(out_dir, to):
    (to / "fits").mkdir(parents=True)
    for path in (out_dir / "fits").glob("*.fit"):
        (to / "fits" / path.name).write_bytes(path.read_bytes())


@pytest.mark.parametrize("command, name", [(["tables"], "tables.tsv"),
                                           (["forecast", "--tf", "2"], "forecast.tsv")])
def test_reading_fits_needs_no_data_directory(workspace, tmp_path, monkeypatch, command, name):
    data_dir, out_dir = workspace
    out = tmp_path / "out"
    _copy_fits(out_dir, out)
    assert main([*command, "--data", str(data_dir), "--out", str(out)]) == 0
    with_data = (out / name).read_bytes()
    (out / name).unlink()
    monkeypatch.delenv(DATA_ENV, raising=False)
    assert main([*command, "--out", str(out)]) == 0
    assert (out / name).read_bytes() == with_data


@pytest.mark.parametrize("command, cutoff", [
    (["validate-data"], "0"),
    (["fit", "--mode", "five-years"], "5"),
    (["fit"], "10000"),
    (["fit"], "1" + "0" * 30),
    (["backtest", "--windows", "1,2"], "9999"),
], ids=["validate-zero", "five-years-five", "fit-10000", "fit-overflow", "backtest-9999"])
def test_a_cutoff_outside_the_calendar_is_a_usage_error(workspace, tmp_path, capsys,
                                                        monkeypatch, command, cutoff):
    # refused before any data file is read or any event fitted
    def never(*args, **kwargs):
        raise AssertionError("reached past the cutoff check")

    for name in ("load_performance_list", "two_pass_fit", "fit_events"):
        monkeypatch.setattr(cli, name, never)
    monkeypatch.setattr(backtest, "two_pass_fit", never)
    data_dir, _ = workspace
    out = tmp_path / "out"
    code = main([*command, "--data", str(data_dir), "--out", str(out), "--cutoff", cutoff])
    out_text, err = capsys.readouterr()
    assert code == 2
    (line,) = err.splitlines()
    assert line.startswith("error: ") and cutoff in line
    assert "Traceback" not in out_text + err
    assert not out.exists()


# (metadata field, the JSON text written as its value, why loading refuses it)
CORRUPTED_FIELDS = [
    ("t_m", "0.0", "t_m must be a positive number of years, got 0.0"),
    ("record_x", '"2.4"', "record_x: expected float, got '2.4'"),
    # json.dumps writes math.nan as NaN, and Python's json module reads it back
    ("record_x", "NaN", "NaN is not a finite number"),
    ("record_x", "1" + "0" * 400, "an integer of 401 digits is too large for a float"),
    ("event_id", '"../m0400"', "event_id '../m0400' names the event's fit file, so it may "
                               "not hold '/', '\\' or a control character"),
]


@pytest.mark.parametrize("command", ["tables", "forecast"])
@pytest.mark.parametrize("field, literal, message", CORRUPTED_FIELDS,
                         ids=["t_m-zero", "record_x-string", "record_x-nan",
                              "record_x-401-digits", "event_id-path"])
def test_a_corrupted_fit_file_is_refused(workspace, tmp_path, capsys, field, literal, message,
                                         command):
    _, out_dir = workspace
    out = tmp_path / "out"
    _copy_fits(out_dir, out)
    bad = out / "fits" / "m0400.fit"
    text = bad.read_text()
    (value,) = re.findall(f'"{field}": ("[^"]*"|[^,}}]+)', text)
    bad.write_text(text.replace(f'"{field}": {value}', f'"{field}": {literal}'))
    assert f'"{field}": {literal}' in bad.read_text()
    capsys.readouterr()
    assert main([command, "--out", str(out)]) == 1
    out_text, err = capsys.readouterr()
    assert err.splitlines() == [f"error: {bad}: metadata is missing or malformed: {message}"]
    assert "Traceback" not in out_text + err
    assert not (out / f"{command}.tsv").exists()


@pytest.mark.parametrize("kind, mu, points", [("running", MU_STAR, "-2000000"),
                                              ("field", -math.log(812.0), "2000000")],
                         ids=["running", "field"])
def test_a_point_total_worth_no_mark_is_refused(tmp_path, capsys, kind, mu, points):
    # Each total is worth a mark past the largest float: a time for a
    # running event, a distance for a field event.
    spec = getattr(EventSpec, kind)("e1")
    tail = sample_tail(600, mu, SIGMA_STAR, 20_000, 40)
    write_corpus(tmp_path / "data", [tail_performance_list(spec, tail, 2006, 2020, seed=650)])
    out = tmp_path / "out"
    assert main(["fit", "--data", str(tmp_path / "data"), "--out", str(out),
                 "--prior", "weak", *SPEED]) == 0
    capsys.readouterr()
    assert main(["tables", "--out", str(out), f"--points={points}"]) == 1
    out_text, err = capsys.readouterr()
    assert err.splitlines() == [
        f"error: e1: a total of {points} points is worth no positive, finite mark"]
    assert "Traceback" not in out_text + err
    assert not (out / "tables.tsv").exists()


def test_config_file_and_flag_precedence(workspace, tmp_path):
    data_dir, _ = workspace
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {data_dir}\nseed = 9\nprior = weak\nevents = m0100\n"
        "chains = 2\nbatches = 80\nburn_in = 1000\npool_size = 160\n"
    )
    out_a = tmp_path / "a"
    assert main(["fit", "--config", str(config), "--out", str(out_a)]) == 0
    assert json.loads((out_a / "manifest.json").read_text())["seed"] == 9

    out_b = tmp_path / "b"
    assert main(["fit", "--config", str(config), "--out", str(out_b),
                 "--seed", "4"]) == 0
    assert json.loads((out_b / "manifest.json").read_text())["seed"] == 4

    bad = tmp_path / "bad.cfg"
    bad.write_text("no_such_key = 1\n")
    assert main(["fit", "--config", str(bad), "--data", str(data_dir)]) == 2


def test_config_file_with_a_byte_order_mark(workspace, tmp_path, capsys):
    # spreadsheet exports often start with one; the first key still resolves
    data_dir, _ = workspace
    config = tmp_path / "bom.cfg"
    config.write_text(f"\ufeffdata = {data_dir}\n", encoding="utf-8")
    assert main(["validate-data", "--config", str(config)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 6


def test_config_file_batch_len(workspace, tmp_path):
    data_dir, _ = workspace
    config = tmp_path / "run.cfg"
    config.write_text(
        f"data = {data_dir}\nprior = weak\nevents = m0100\nbatch_len = 10\n"
        "chains = 2\nbatches = 80\nburn_in = 1000\npool_size = 160\n"
    )
    out = tmp_path / "out"
    assert main(["fit", "--config", str(config), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["sampler"]["batch_len"] == 10


def test_env_var_supplies_data_dir(workspace, tmp_path, monkeypatch, capsys):
    data_dir, _ = workspace
    monkeypatch.setenv(DATA_ENV, str(data_dir))
    assert main(["validate-data"]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 6

    monkeypatch.delenv(DATA_ENV)
    assert main(["validate-data"]) == 2


def test_parse_points():
    assert _parse_points("0:1400:50") == DEFAULT_POINT_GRID
    assert _parse_points("800,1300,1000") == (800, 1300, 1000)
    with pytest.raises(UsageError):
        _parse_points("1:2:3:4")
    with pytest.raises(UsageError):
        _parse_points("100:50:10")


def test_every_sampler_setting_has_a_config_key():
    # a SamplerConfig field that no key, flag or seed sets is a knob nothing uses
    fields = {f.name for f in dataclasses.fields(SamplerConfig)}
    assert fields == {field for field, _ in _SAMPLER_KEYS.values()} | {"seed"}


def test_mile_partner_mapping():
    assert mile_partner("w1mile") == "w1500m"
    assert mile_partner("W1MILE") == "W1500m"
    assert mile_partner("m0800") is None
    # a letter whose lowercase is longer must not shift where the id is cut
    assert mile_partner("İ1mile") == "İ1500m"
    assert mile_partner("İİ1mile") == "İİ1500m"
    assert mile_partner("x1mileİ") == "x1500mİ"


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_runs_the_handler_bound_when_it_is_called(workspace, tmp_path, monkeypatch):
    # a tracer rebinds cli.cmd_* after the parser exists; main must run its wrapper
    data_dir, _ = workspace
    assert main(["validate-data", "--data", str(data_dir)]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_forecast", lambda cfg: seen.append(cfg) or 7)
    assert main(["forecast", "--out", str(tmp_path), "--tf", "3"]) == 7
    assert [cfg.t_f for cfg in seen] == [3.0]


def test_an_unknown_flag_is_refused_each_time(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as refused:
            main(["forecast", "--no-such-flag"])
        assert refused.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: tailcast")
        assert err[-1] == "tailcast: error: unrecognized arguments: --no-such-flag"
