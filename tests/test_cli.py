"""End-to-end command tests: fit, tables, forecast, backtest, validate-data."""
import json
import math
import re

import pytest

from tailcast.cli import DATA_ENV, UsageError, _parse_points, main, mile_partner
from tailcast.ingest import EventSpec
from tailcast.stats import DEFAULT_POINT_GRID
from tailcast.synth import sample_tail, tail_performance_list, write_corpus

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
        "burn_in_steps", "batches", "batch_len", "chains", "step_scale", "pool_size",
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


def test_fit_empirical_needs_four_events(workspace, tmp_path, capsys):
    data_dir, _ = workspace
    code = main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "o"),
                 "--events", "m0100", *SPEED])
    assert code == 1
    err = capsys.readouterr().err
    assert "--prior weak" in err


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


def test_usage_errors(workspace, tmp_path, capsys):
    data_dir, out_dir = workspace
    assert main(["fit", "--data", str(tmp_path / "nowhere")]) == 2
    assert main(["fit", "--data", str(data_dir), "--events", "nosuch"]) == 2
    assert main(["fit", "--data", str(data_dir), "--mode", "five-years"]) == 2
    assert main(["tables", "--data", str(data_dir), "--out", str(out_dir),
                 "--points", "100:50:10"]) == 2
    fresh = tmp_path / "noFits"
    assert main(["tables", "--data", str(data_dir), "--out", str(fresh)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, extra, config", [
    ("fit", [], "seed = abc"),
    ("fit", [], "cutoff = abc"),
    ("fit", [], "tf = abc"),
    ("tables", ["--points", "10,abc"], ""),
    ("backtest", ["--cutoff", "2015", "--windows", "0"], ""),
    ("backtest", ["--cutoff", "2015", "--ranks", "7"], ""),
    ("forecast", ["--tf", "nan"], ""),
    ("forecast", ["--tf", "inf"], ""),
])
def test_bad_values_are_usage_errors(workspace, tmp_path, capsys, command, extra, config):
    data_dir, out_dir = workspace
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    assert main([command, "--config", str(cfg), "--data", str(data_dir),
                 "--out", str(out_dir), *extra]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_fit_rejects_unusable_step_scale(workspace, tmp_path, capsys):
    data_dir, _ = workspace
    for bad in ("0", "nan", "inf"):
        assert main(["fit", "--data", str(data_dir), "--out", str(tmp_path / "out"),
                     "--prior", "weak", "--events", "m0100", "--step-scale", bad]) == 2
        assert "bad sampler settings" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_mile_partner_mapping():
    assert mile_partner("w1mile") == "w1500m"
    assert mile_partner("W1MILE") == "W1500m"
    assert mile_partner("m0800") is None
