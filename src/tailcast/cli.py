"""Command-line pipeline: ingest data, fit posteriors, emit reports.

Subcommands compose through the filesystem: `fit` persists one tailcast-fit/2
file per event plus a manifest, and `tables`, `forecast` read those fits back
instead of refitting. All outputs are deterministic for a fixed seed; no
command writes timestamps.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .backtest import (
    BacktestSpec,
    DataMode,
    render_detail_records,
    render_report_table,
    render_summary_records,
    run_backtest,
)
from .emprior import HyperPrior, InsufficientEvents, fit_corpus, two_pass_fit
from .errors import TailcastError
from .fitfile import atomic_write_text, load_fit, save_fit
from .ingest import DateWindow, decode_mark, format_raw_mark, load_performance_list
from .sampler import FitResult, SamplerConfig
# Not called here: perfbench/tracing.py wraps fit_event under this name.
from .sampler import fit_event  # noqa: F401
from .stats import (
    DEFAULT_POINT_GRID,
    ForecastContext,
    build_score_table,
    expected_best,
    record_probability,
    render_score_tables,
)

DATA_ENV = "TAILCAST_DATA"


class UsageError(TailcastError):
    """Bad flags, config keys, or selections; exits with status 2."""


@dataclass(frozen=True)
class RunConfig:
    data_dir: Path
    out_dir: Path
    events: tuple[str, ...] | None
    mode: DataMode
    cutoff: int | None
    t_f: float
    seed: int
    prior: str
    points: tuple[int, ...]
    windows: tuple[int, ...]
    ranks: tuple[int, ...]
    sampler: SamplerConfig


def _number(kind, name: str, text):
    """kind(text) for kind int or float, a bad value being a usage error."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{name}: expected {kind.__name__}, got {text!r}") from None


def _parse_points(text: str) -> tuple[int, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"point grid must be lo:hi:step or a comma list, got {text!r}")
        lo, hi, step = (_number(int, "points entry", p) for p in parts)
        if step < 1 or hi < lo:
            raise UsageError(f"bad point grid {text!r}")
        return tuple(range(lo, hi + 1, step))
    return _parse_int_list("points", text)


def _parse_int_list(name: str, text: str) -> tuple[int, ...]:
    return tuple(_number(int, f"{name} entry", p) for p in text.split(","))


# Config key -> (SamplerConfig field, help of its --flag, or None for a
# config-file-only key). The flag is the key with "-" for "_".
_SAMPLER_KEYS = {
    "chains": ("chains", "MCMC chains per event"),
    "batches": ("batches", "retained draws per chain"),
    "batch_len": ("batch_len", None),
    "burn_in": ("burn_in_steps", "steps per tuning round"),
    "pool_size": ("pool_size", "pooled draw count"),
    "step_scale": ("step_scale", "initial proposal scale"),
}
_CONFIG_KEYS = {
    "data", "out", "events", "mode", "cutoff", "tf", "seed", "prior",
    "points", "windows", "ranks", *_SAMPLER_KEYS,
}


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> RunConfig:
    file_values: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        file_values = _read_config_file(path)

    def pick(flag, key: str, default):
        if flag is not None:
            return flag
        if key in file_values:
            return file_values[key]
        return default

    data = pick(args.data, "data", os.environ.get(DATA_ENV))
    if data is None:
        raise UsageError(f"no data directory: pass --data or set {DATA_ENV}")
    data_dir = Path(data)
    if not data_dir.is_dir():
        raise UsageError(f"data directory not found: {data_dir}")
    out_dir = Path(pick(args.out, "out", "out"))

    events_text = pick(args.events, "events", "all")
    if events_text == "all":
        events = None
    else:
        events = tuple(e.strip() for e in str(events_text).split(",") if e.strip())
        if not events:
            raise UsageError("event selection is empty")

    mode_text = str(pick(args.mode, "mode", "all"))
    try:
        mode = DataMode(mode_text)
    except ValueError:
        raise UsageError(f"mode must be 'all' or 'five-years', got {mode_text!r}") from None

    cutoff = pick(args.cutoff, "cutoff", None)
    cutoff = None if cutoff is None else _number(int, "cutoff", cutoff)
    if mode is DataMode.FIVE_YEARS and cutoff is None:
        raise UsageError("--mode five-years needs --cutoff")

    t_f = _number(float, "tf", pick(args.tf, "tf", 1.0))
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise UsageError(f"--tf must be finite and >= 0, got {t_f}")
    seed = _number(int, "seed", pick(args.seed, "seed", 0))
    prior = str(pick(args.prior, "prior", "empirical"))
    if prior not in ("weak", "empirical"):
        raise UsageError(f"--prior must be 'weak' or 'empirical', got {prior!r}")

    points = _parse_points(pick(getattr(args, "points", None), "points", "0:1400:50"))
    windows = _parse_int_list("windows", pick(getattr(args, "windows", None), "windows",
                                              "1,2,5,12"))
    ranks = _parse_int_list("ranks", pick(getattr(args, "ranks", None), "ranks",
                                          "10,25,50,100"))

    base = SamplerConfig()
    settings = {}
    for key, (field, _) in _SAMPLER_KEYS.items():
        default = getattr(base, field)
        settings[field] = _number(type(default), key,
                                  pick(getattr(args, key, None), key, default))
    try:
        sampler = SamplerConfig(seed=seed, **settings)
    except ValueError as exc:
        raise UsageError(f"bad sampler settings: {exc}") from None

    return RunConfig(
        data_dir=data_dir,
        out_dir=out_dir,
        events=events,
        mode=mode,
        cutoff=cutoff,
        t_f=t_f,
        seed=seed,
        prior=prior,
        points=points,
        windows=windows,
        ranks=ranks,
        sampler=sampler,
    )


def _data_files(cfg: RunConfig) -> list[Path]:
    files = sorted(cfg.data_dir.glob("*.tsv"))
    if cfg.events is None:
        if not files:
            raise UsageError(f"no .tsv data files in {cfg.data_dir}")
        return files
    by_stem = {p.stem: p for p in files}
    missing = [e for e in cfg.events if e not in by_stem]
    if missing:
        raise UsageError(f"events not found in {cfg.data_dir}: {', '.join(missing)}")
    return [by_stem[e] for e in cfg.events]


def _fit_window(cfg: RunConfig) -> tuple[DateWindow | None, float | None]:
    """Ingestion window and forced t_m implied by mode/cutoff."""
    if cfg.mode is DataMode.FIVE_YEARS:
        return DateWindow.years_before(cfg.cutoff, 5), 5.0
    if cfg.cutoff is not None:
        return DateWindow.before(cfg.cutoff), None
    return None, None


def _load_corpus(cfg: RunConfig, window: DateWindow | None):
    lists = []
    skipped: dict[str, str] = {}
    for path in _data_files(cfg):
        try:
            lists.append(load_performance_list(path, window=window))
        except TailcastError as exc:
            skipped[path.stem] = str(exc)
    return lists, skipped


def _write_json(path: Path, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def cmd_fit(cfg: RunConfig) -> int:
    window, t_m = _fit_window(cfg)
    lists, skipped = _load_corpus(cfg, window)
    for event_id, reason in sorted(skipped.items()):
        print(f"warning: skipping {event_id}: {reason}", file=sys.stderr)
    if not lists:
        print("error: no usable events", file=sys.stderr)
        return 1

    notes = dict(skipped)
    if cfg.prior == "weak":
        prior = HyperPrior.weakly_informative()
        fits, failures = fit_corpus(lists, prior, cfg.sampler, t_m)
    else:
        try:
            result = two_pass_fit(lists, cfg.sampler, t_m=t_m)
        except InsufficientEvents as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("hint: rerun with --prior weak to fit without the empirical prior",
                  file=sys.stderr)
            return 1
        prior, fits, failures = result.prior, result.fits, result.failures
    for event_id, msg in failures.items():
        notes[event_id] = f"fit failed: {msg}"

    if not fits:
        print("error: every fit failed", file=sys.stderr)
        return 1

    fits_dir = cfg.out_dir / "fits"
    fits_dir.mkdir(parents=True, exist_ok=True)
    for event_id in sorted(fits):
        save_fit(fits[event_id], fits_dir / f"{event_id}.fit")

    manifest = {
        "command": "fit",
        "seed": cfg.seed,
        "mode": cfg.mode.value,
        "cutoff": cfg.cutoff,
        "prior": {
            "kind": cfg.prior,
            "mu_N": prior.mu_N,
            "sigma2_N": prior.sigma2_N,
            "provenance": prior.provenance.value,
            "contributing_events": list(prior.contributing_events),
        },
        "events": sorted(fits),
        "t_m": {e: fits[e].meta.t_m for e in sorted(fits)},
        "mpsrf": {e: fits[e].mpsrf for e in sorted(fits)},
        "converged": {e: fits[e].converged for e in sorted(fits)},
        "notes": {e: notes[e] for e in sorted(notes)},
        "sampler": {field: getattr(cfg.sampler, field) for field, _ in _SAMPLER_KEYS.values()},
    }
    _write_json(cfg.out_dir / "manifest.json", manifest)
    laggards = [e for e in sorted(fits) if not fits[e].converged]
    if laggards:
        print(f"warning: unconverged fits: {', '.join(laggards)}", file=sys.stderr)
    print(f"fit {len(fits)} events -> {fits_dir}")
    return 0


def _load_fits(cfg: RunConfig) -> dict[str, FitResult]:
    fits_dir = cfg.out_dir / "fits"
    files = sorted(fits_dir.glob("*.fit"))
    if cfg.events is not None:
        by_stem = {p.stem: p for p in files}
        missing = [e for e in cfg.events if e not in by_stem]
        if missing:
            raise UsageError(f"no fit files for: {', '.join(missing)} (run `tailcast fit`)")
        files = [by_stem[e] for e in cfg.events]
    if not files:
        raise UsageError(f"no fit files in {fits_dir} (run `tailcast fit` first)")
    fits = {}
    for path in files:
        fit = load_fit(path)
        fits[fit.event_id] = fit
    return fits


def _context(fit: FitResult, t_f: float) -> ForecastContext:
    if not fit.converged:
        print(f"warning: {fit.event_id}: forecasting from an unconverged fit "
              f"(mpsrf={fit.mpsrf:.3f})", file=sys.stderr)
    return ForecastContext(fit, t_f=t_f, force=True)


def mile_partner(event_id: str) -> str | None:
    """Event whose population draws a mile event borrows, if any."""
    lower = event_id.lower()
    idx = lower.find("1mile")
    if idx < 0:
        return None
    return event_id[:idx] + "1500m" + event_id[idx + len("1mile"):]


def cmd_tables(cfg: RunConfig) -> int:
    fits = _load_fits(cfg)
    tables = []
    for event_id in sorted(fits):
        ctx = _context(fits[event_id], cfg.t_f)
        population_logN = None
        partner = mile_partner(event_id)
        if partner is not None:
            if partner in fits:
                population_logN = fits[partner].pooled_logN
            else:
                print(f"warning: {event_id}: no {partner} fit to borrow a population "
                      "from; using its own", file=sys.stderr)
        tables.append(build_score_table(ctx, cfg.points, population_logN=population_logN))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "tables.tsv"
    atomic_write_text(out_path, render_score_tables(tables))
    flagged = [t.event_id for t in tables if t.low_data]
    if flagged:
        print(f"warning: low-data events (n_k < 20): {', '.join(flagged)}", file=sys.stderr)
    print(f"wrote {out_path}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    fits = _load_fits(cfg)
    rows = []
    for event_id in sorted(fits):
        fit = fits[event_id]
        ctx = _context(fit, cfg.t_f)
        record_x = fit.meta.best_x
        p = record_probability(ctx, record_x)
        if cfg.t_f > 0.0:
            best = expected_best(ctx)
            best_text = format_raw_mark(fit.meta.event, best.raw)
        else:
            best_text = ""
        record_text = format_raw_mark(fit.meta.event, decode_mark(fit.meta.event, record_x))
        rows.append((p, event_id, record_text, best_text))
    rows.sort(key=lambda r: (r[0], r[1]))
    lines = ["event\trecord\tp_break\texpected_best"]
    for p, event_id, record_text, best_text in rows:
        lines.append(f"{event_id}\t{record_text}\t{p:.2e}\t{best_text}")
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "forecast.tsv"
    atomic_write_text(out_path, "\n".join(lines) + "\n")
    print(f"wrote {out_path}")
    return 0


def cmd_backtest(cfg: RunConfig) -> int:
    if cfg.cutoff is None:
        raise UsageError("backtest needs --cutoff")
    try:
        spec = BacktestSpec(
            cutoff_year=cfg.cutoff,
            windows=cfg.windows,
            data_mode=cfg.mode,
            reference_ranks=cfg.ranks,
        )
    except ValueError as exc:
        raise UsageError(f"bad backtest settings: {exc}") from None
    lists, skipped = _load_corpus(cfg, window=None)
    for event_id, reason in sorted(skipped.items()):
        print(f"warning: skipping {event_id}: {reason}", file=sys.stderr)
    try:
        report = run_backtest(lists, spec, cfg.sampler)
    except InsufficientEvents as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_text(cfg.out_dir / "backtest.txt", render_report_table(report))
    atomic_write_text(cfg.out_dir / "backtest_summary.tsv", render_summary_records(report))
    atomic_write_text(cfg.out_dir / "backtest_detail.tsv", render_detail_records(report))
    invalid = [c for c in report.cells if not c.valid]
    if invalid:
        print(f"warning: {len(invalid)} of {len(report.cells)} cells invalid",
              file=sys.stderr)
    print(f"wrote {cfg.out_dir / 'backtest.txt'}")
    return 0


def cmd_validate_data(cfg: RunConfig) -> int:
    window, _ = _fit_window(cfg)
    failures = 0
    for path in _data_files(cfg):
        try:
            data = load_performance_list(path, window=window)
        except TailcastError as exc:
            print(f"{path.stem}\tERROR\t{exc}")
            failures += 1
            continue
        event = data.event
        print(
            f"{path.stem}\tOK\tn={data.n_k}"
            f"\tbest={format_raw_mark(event, data.records[0].value)}"
            f"\tworst={format_raw_mark(event, data.records[-1].value)}"
            f"\tspan={data.span_years():.1f}y"
            f"\t{event.direction.value}/{event.unit.value}"
        )
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailcast",
        description="Fit performance-list tails and forecast records and scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--data", help=f"data directory (default: ${DATA_ENV})")
        p.add_argument("--out", help="output directory (default: ./out)")
        p.add_argument("--events", help="comma-separated event ids, or 'all'")
        p.add_argument("--mode", choices=["all", "five-years"], help="ingestion window mode")
        p.add_argument("--cutoff", type=int, help="cutoff year (data strictly before)")
        p.add_argument("--tf", type=float, help="forecast horizon in years")
        p.add_argument("--seed", type=int, help="base RNG seed")
        p.add_argument("--prior", choices=["weak", "empirical"], help="population prior")
        base = SamplerConfig()
        for key, (field, text) in _SAMPLER_KEYS.items():
            if text is not None:
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               type=type(getattr(base, field)), help=text)

    p_fit = sub.add_parser("fit", help="fit every event and persist the posteriors")
    add_common(p_fit)
    p_fit.set_defaults(handler=cmd_fit)

    p_tables = sub.add_parser("tables", help="emit scoring tables from persisted fits")
    add_common(p_tables)
    p_tables.add_argument("--points", help="point grid, lo:hi:step or comma list")
    p_tables.set_defaults(handler=cmd_tables)

    p_forecast = sub.add_parser("forecast", help="record probabilities and expected bests")
    add_common(p_forecast)
    p_forecast.set_defaults(handler=cmd_forecast)

    p_backtest = sub.add_parser("backtest", help="fit before a cutoff and score forecasts")
    add_common(p_backtest)
    p_backtest.add_argument("--windows", help="evaluation window lengths, e.g. 1,2,5,12")
    p_backtest.add_argument("--ranks", help="reference ranks, subset of 10,25,50,100")
    p_backtest.set_defaults(handler=cmd_backtest)

    p_validate = sub.add_parser("validate-data", help="parse and summarize the data files")
    add_common(p_validate)
    p_validate.set_defaults(handler=cmd_validate_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve(args)
        return args.handler(cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TailcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
