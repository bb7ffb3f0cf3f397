"""The three benchmark workloads: inputs made from a seed, one cycle of calls, checks.

Each workload has a `setup` that builds its inputs (timed as set-up, never as
work) and a `cycle` that issues its calls one after another, as a single
caller that waits for each result. A cycle returns its timings, the
operations it attempted and failed, the quality ratios of its outputs, a
sha256 over its output artifacts, and the correctness problems it found.
Repeating a cycle at one seed must reproduce the same digest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from tailcast import backtest as backtest_mod
from tailcast import cli
from tailcast.backtest import BacktestSpec
from tailcast.emprior import expected_population
from tailcast.fitfile import dumps, load_fit
from tailcast.ingest import Direction, EventSpec, parse_time
from tailcast.sampler import SamplerConfig
from tailcast.synth import sample_tail, tail_performance_list, write_corpus

MU_STAR = math.log(11.28)
SIGMA_STAR = 0.033
REPORT_HORIZONS = (1, 2, 5, 12)


@dataclass(frozen=True)
class Size:
    """Everything that scales a workload; `full` is the benchmark, `tiny` the self-test."""

    corpus_events: int
    corpus_flags: tuple[str, ...]
    backtest_runs: int
    backtest_config: SamplerConfig
    report_keep_scale: float
    report_flags: tuple[str, ...]


SIZES = {
    "full": Size(
        corpus_events=8,
        corpus_flags=(),
        backtest_runs=6,
        backtest_config=SamplerConfig(burn_in_steps=1000, batches=150, batch_len=10,
                                      chains=2, pool_size=300),
        report_keep_scale=1.0,
        report_flags=(),
    ),
    "tiny": Size(
        corpus_events=4,
        corpus_flags=("--chains", "2", "--batches", "40", "--burn-in", "300",
                      "--pool-size", "80"),
        backtest_runs=1,
        backtest_config=SamplerConfig(burn_in_steps=300, batches=40, batch_len=10,
                                      chains=2, pool_size=80),
        report_keep_scale=0.25,
        report_flags=("--chains", "2", "--batches", "40", "--burn-in", "300",
                      "--pool-size", "80"),
    ),
}


@dataclass
class Cycle:
    """What one cycle did: timings (op_s is the wall of all its timed calls),
    operation accounting, quality ratios, digest and correctness problems."""

    timings: dict[str, float] = field(default_factory=dict)
    op_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    quality: dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problems: list[str] = field(default_factory=list)

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def run_cli(args: list[str], cycle: Cycle) -> float:
    """One in-process `tailcast` invocation; counts as one operation."""
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(args)
    elapsed = time.perf_counter() - t0
    cycle.op_s += elapsed
    cycle.ops(1, int(code != 0))
    if code != 0:
        cycle.problems.append(f"tailcast {args[0]} exited {code}: {sink.getvalue().strip()}")
    return elapsed


def digest_files(root: Path, names: list[str]) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update(name.encode() + b"\0")
        h.update((root / name).read_bytes() + b"\0")
    return h.hexdigest()


def parse_mark(event: EventSpec, text: str) -> float:
    """A mark as the CLI prints it (h:mm:ss.ff or meters) back to raw units."""
    if event.direction is Direction.LOWER_IS_BETTER:
        return parse_time(text)
    return float(text) * 100.0


def better_or_equal(event: EventSpec, a: float, b: float) -> bool:
    """Raw mark a is at least as good as raw mark b."""
    return a <= b if event.direction is Direction.LOWER_IS_BETTER else a >= b


def read_tsv(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def count_fit_failures(notes: dict[str, str]) -> int:
    """Failed event fits, per pass, from the notes `tailcast fit` writes."""
    failed = 0
    for note in notes.values():
        if not note.startswith("fit failed: "):
            continue
        msg = note[len("fit failed: "):]
        failed += int(not msg.startswith("pass 2: ")) + int("pass 2: " in msg)
    return failed


def check_tables(path: Path, events: dict[str, EventSpec], cycle: Cycle) -> dict[str, list[str]]:
    """Rows of tables.tsv; counts one operation per fitted event and checks each row."""
    rows = read_tsv(path)
    header, body = rows[0], {r[0]: r for r in rows[1:]}
    points = [int(p) for p in header[1:-1]]
    if points != sorted(points):
        cycle.problems.append("tables.tsv: point grid out of order")
    missing = sorted(set(events) - set(body))
    cycle.ops(len(events), len(missing))
    for event_id in missing:
        cycle.problems.append(f"tables.tsv: no row for fitted event {event_id}")
    for event_id, row in body.items():
        event = events.get(event_id)
        if event is None or len(row) != len(header):
            cycle.problems.append(f"tables.tsv: malformed row {row[:2]}")
            continue
        marks = [parse_mark(event, text) for text in row[1:-1]]
        if not all(better_or_equal(event, b, a) for a, b in zip(marks, marks[1:])):
            cycle.problems.append(f"tables.tsv: {event_id} marks do not improve with points")
    return body


def check_forecast(path: Path, events: dict[str, EventSpec], lists, cycle: Cycle):
    """Rows of one forecast.tsv as {event: (p_break, raw expected best)}."""
    rows = read_tsv(path)
    body = {r[0]: r for r in rows[1:]}
    missing = sorted(set(events) - set(body))
    cycle.ops(len(events), len(missing))
    for event_id in missing:
        cycle.problems.append(f"{path.name}: no row for fitted event {event_id}")
    out = {}
    for event_id, row in body.items():
        event = events.get(event_id)
        if event is None or len(row) != 4:
            cycle.problems.append(f"{path.name}: malformed row {row[:2]}")
            continue
        p = float(row[2])
        best = parse_mark(event, row[3])
        worst = lists[event_id].records[-1].value
        if not 0.0 <= p <= 1.0:
            cycle.problems.append(f"{path.name}: {event_id} p_break {p} outside [0, 1]")
        if not better_or_equal(event, best, worst):
            cycle.problems.append(f"{path.name}: {event_id} expected best {row[3]} is worse "
                                  "than the worst listed mark")
        out[event_id] = (p, best)
    return out


def check_fits(out: Path, cycle: Cycle) -> dict:
    """Every fit file loads and re-serializes to the same bytes; returns the fits."""
    fits = {}
    for path in sorted((out / "fits").glob("*.fit")):
        fit = load_fit(path)
        if dumps(fit) != path.read_text(encoding="utf-8"):
            cycle.problems.append(f"{path.name}: fit file does not round-trip losslessly")
        fits[fit.event_id] = fit
    return fits


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, workdir: Path):
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self) -> Cycle:
        raise NotImplementedError


class CorpusWorkload(Workload):
    """Criterion-5 recovery corpus: fit (empirical prior), tables, forecast --tf 2."""

    name = "corpus"

    def setup(self) -> None:
        self.data = self.workdir / "data"
        shutil.rmtree(self.data, ignore_errors=True)
        base = 1000 * self.seed
        self.lists = {}
        for i in range(self.size.corpus_events):
            tail = sample_tail(base + 55 + i, MU_STAR, SIGMA_STAR, 20_000, 500)
            data = tail_performance_list(EventSpec.running(f"syn{i}"), tail, 2001, 2020,
                                         seed=base + 155 + i)
            self.lists[data.event.event_id] = data
        write_corpus(self.data, self.lists.values())

    def cycle(self) -> Cycle:
        c = Cycle()
        out = self.workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        common = ["--data", str(self.data), "--out", str(out)]
        c.timings["fit_s"] = run_cli(["fit", *common, "--seed", str(7 + self.seed),
                                      *self.size.corpus_flags], c)
        c.timings["tables_s"] = run_cli(["tables", *common], c)
        c.timings["forecast_s"] = run_cli(["forecast", *common, "--tf", "2"], c)
        if c.failed:
            return c

        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        c.ops(2 * len(self.lists), count_fit_failures(manifest["notes"]))
        fits = check_fits(out, c)
        events = {e: self.lists[e].event for e in manifest["events"]}
        check_tables(out / "tables.tsv", events, c)
        check_forecast(out / "forecast.tsv", events, self.lists, c)

        recovered = sum(
            abs(float(fit.pooled_mu.mean()) - MU_STAR) <= 3.0 * float(fit.pooled_mu.std(ddof=1))
            and 2_000.0 <= expected_population(fit) <= 200_000.0
            for fit in fits.values()
        )
        c.quality["converged_frac"] = sum(manifest["converged"].values()) / len(self.lists)
        c.quality["recovery_frac"] = recovered / len(self.lists)
        names = ["manifest.json", "tables.tsv", "forecast.tsv"] + [
            f"fits/{p.name}" for p in sorted((out / "fits").glob("*.fit"))]
        c.digest = digest_files(out, names)
        return c


BACKTEST_SPANS = (4, 6, 8, 12, 16, 20)


class BacktestWorkload(Workload):
    """Criterion-9 recipe with four windows and four ranks, several runs per cycle."""

    name = "backtest"
    spec = BacktestSpec(cutoff_year=2020, windows=(1, 2, 5, 12), reference_ranks=(10, 25, 50, 100))

    def setup(self) -> None:
        self.runs = []
        for r in range(self.size.backtest_runs):
            run = self.size.backtest_runs * self.seed + r
            lists = []
            for span in BACKTEST_SPANS:
                tail = sample_tail(1000 * run + span, MU_STAR, SIGMA_STAR, 20_000, 280)
                lists.append(tail_performance_list(
                    EventSpec.running(f"run{span:02d}"), tail, 2020 - span, 2021,
                    seed=1_000_000 + 1000 * run + span))
            self.runs.append((lists, replace(self.size.backtest_config, seed=900 + run)))

    def cycle(self) -> Cycle:
        c = Cycle()
        out = self.workdir / "backtest"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        wall = 0.0
        hits = converged = fitted = 0
        names = []
        n_cells = 2 * len(self.spec.windows) * len(self.spec.reference_ranks) + len(self.spec.windows)
        for i, (lists, config) in enumerate(self.runs):
            t0 = time.perf_counter()
            report = backtest_mod.run_backtest(lists, self.spec, config)
            wall += time.perf_counter() - t0
            notes = dict(report.event_notes)
            fit_failures = count_fit_failures(notes)
            run_fitted = sum(not notes.get(d.event.event_id, "").startswith("fit failed")
                             for d in lists)
            unconverged = sum("forecast from unconverged fit" in n for n in notes.values())
            best_failures = sum(n.count("expected_best failed") for n in notes.values())
            invalid = sum(not cell.valid for cell in report.cells)
            c.ops(1, 0)                                   # the run_backtest call
            c.ops(2 * len(lists), fit_failures)           # event fits, per pass
            c.ops(run_fitted * len(self.spec.windows), best_failures)  # forecast rows
            c.ops(len(report.cells), invalid)             # cells
            if len(report.cells) != n_cells:
                c.problems.append(f"run {i}: {len(report.cells)} cells, expected {n_cells}")
            for cell in report.cells:
                if cell.valid and not -1.0 - 1e-12 <= cell.pearson_r <= 1.0 + 1e-12:
                    c.problems.append(f"run {i}: pearson r {cell.pearson_r} outside [-1, 1]")
            cell = report.cell("exceedances", 2, 100)
            hits += cell.valid and cell.pearson_r > 0.6
            fitted += run_fitted
            converged += run_fitted - unconverged
            for render in ("render_summary_records", "render_detail_records",
                           "render_report_table"):
                name = f"run{i}_{render[len('render_'):]}.tsv"
                (out / name).write_text(getattr(backtest_mod, render)(report), encoding="utf-8")
                names.append(name)
        c.timings["backtest_s"] = c.op_s = wall
        c.quality["converged_frac"] = converged / max(fitted, 1)
        c.quality["backtest_hit_frac"] = hits / len(self.runs)
        c.digest = digest_files(out, names)
        return c


# (event id, field event?, mu, sigma, population, list size, first year)
REPORT_EVENTS = (
    ("m1500m", False, math.log(225.0), 0.030, 50_000, 400, 1990),
    ("m1mile", False, math.log(225.0 * 1.0797), 0.030, 50_000, 150, 1990),
    ("m0100", False, math.log(11.28), 0.033, 200_000, 2000, 2001),
    ("wLJ", True, -math.log(560.0), 0.060, 20_000, 300, 1995),
    ("mSP", True, -math.log(1500.0), 0.080, 5_000, 60, 2000),
    ("w10000m", False, math.log(2100.0), 0.050, 3_000, 15, 2012),
)


class ReportWorkload(Workload):
    """Read side: repeated tables and forecasts over fits made once in set-up."""

    name = "report"

    def setup(self) -> None:
        self.data = self.workdir / "data"
        self.out = self.workdir / "out"
        for d in (self.data, self.out):
            shutil.rmtree(d, ignore_errors=True)
        base = 7000 + 100 * self.seed
        self.lists = {}
        for i, (event_id, is_field, mu, sigma, pop, keep, first) in enumerate(REPORT_EVENTS):
            event = EventSpec.field(event_id) if is_field else EventSpec.running(event_id)
            keep = max(15, round(keep * self.size.report_keep_scale))
            tail = sample_tail(base + i, mu, sigma, pop, keep)
            self.lists[event_id] = tail_performance_list(event, tail, first, 2020,
                                                         seed=base + 50 + i)
        write_corpus(self.data, self.lists.values())
        setup = Cycle()
        run_cli(["fit", "--data", str(self.data), "--out", str(self.out), "--prior", "weak",
                 "--seed", str(11 + self.seed), *self.size.report_flags], setup)
        if setup.problems:
            raise RuntimeError("; ".join(setup.problems))
        self.fit_names = [f"fits/{p.name}" for p in sorted((self.out / "fits").glob("*.fit"))]
        self.events = {e: d.event for e, d in self.lists.items()}

    def cycle(self) -> Cycle:
        c = Cycle()
        common = ["--data", str(self.data), "--out", str(self.out)]
        c.timings["tables_s"] = run_cli(["tables", *common], c)
        forecast_walls = []
        for tf in REPORT_HORIZONS:
            forecast_walls.append(run_cli(["forecast", *common, "--tf", str(tf)], c))
            if (self.out / "forecast.tsv").exists():
                (self.out / "forecast.tsv").replace(self.out / f"forecast_tf{tf}.tsv")
        c.timings["forecast_s"] = float(np.mean(forecast_walls))
        if c.failed:
            return c

        body = check_tables(self.out / "tables.tsv", self.events, c)
        flagged = sorted(e for e, row in body.items() if row[-1] == "low_data")
        expected = sorted(e for e, d in self.lists.items() if d.n_k < 20)
        if flagged != expected:
            c.problems.append(f"tables.tsv: low_data flags {flagged}, expected {expected}")
        by_tf = [check_forecast(self.out / f"forecast_tf{tf}.tsv", self.events, self.lists, c)
                 for tf in REPORT_HORIZONS]
        for event_id, event in self.events.items():
            rows = [f[event_id] for f in by_tf if event_id in f]
            ps = [p for p, _ in rows]
            bests = [b for _, b in rows]
            if ps != sorted(ps):
                c.problems.append(f"forecast: {event_id} p_break falls as the horizon grows")
            if not all(better_or_equal(event, b, a) for a, b in zip(bests, bests[1:])):
                c.problems.append(f"forecast: {event_id} expected best worsens as the horizon grows")
        names = ["manifest.json", *self.fit_names, "tables.tsv",
                 *(f"forecast_tf{tf}.tsv" for tf in REPORT_HORIZONS)]
        c.digest = digest_files(self.out, names)
        return c


WORKLOADS = {w.name: w for w in (CorpusWorkload, BacktestWorkload, ReportWorkload)}
