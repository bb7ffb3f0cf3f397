"""Command-line pipeline: ingest data, fit posteriors, emit reports.

Subcommands compose through the filesystem: `fit` persists one tailcast-fit/10
file per event plus a manifest, and `tables`, `forecast` read those fits back
instead of refitting, and hand each FitResult to the statistics (a mile's
table takes `borrow_population` of its 1500 m partner's draws). All outputs
are deterministic for a fixed seed; no command writes timestamps.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from .backtest import (
    BacktestSpec,
    DataMode,
    fit_window,
    render_detail_records,
    render_report_table,
    render_summary_records,
    run_backtest,
)
from .emprior import HyperPrior, InsufficientEvents, two_pass_fit
from .errors import TailcastError
from .fitfile import atomic_write_text, load_fit, save_fit
from .ingest import DateWindow, decode_mark, format_raw_mark, load_performance_list
from .sampler import FitResult, SamplerConfig, fit_events
# Not called here: perfbench/tracing.py wraps fit_event under this name.
from .sampler import fit_event  # noqa: F401
from .stats import (
    DEFAULT_POINT_GRID,
    NoBorrowedPopulation,
    borrow_population,
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
    data_dir: Path | None
    out_dir: Path
    events: tuple[str, ...] | None
    mode: DataMode
    cutoff: int | None
    window: DateWindow | None
    t_f: float
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
    "batches": ("batches", "retained draws per chain (default 100: with 10 chains, every "
                           "one of the 1000 pooled)"),
    "batch_len": ("batch_len", None),
    "burn_in": ("burn_in_steps", "steps per tuning round"),
    "pool_size": ("pool_size", "pooled draw count"),
}
_CONFIG_KEYS = {
    "data", "out", "events", "mode", "cutoff", "tf", "seed", "prior",
    "points", "windows", "ranks", *_SAMPLER_KEYS,
}


def _read_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = path.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file {path} is not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    """Every flag and config key, converted and checked here by one rule."""
    file_values: dict[str, str] = {}
    if args.config is not None:
        path = Path(args.config)
        if not path.is_file():
            raise UsageError(f"config file not found: {path}")
        file_values = _read_config_file(path)

    def pick(key: str, default=None, kind=None):
        """The flag, else the config key, else the default; as `kind` if given."""
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key, default)
        return value if kind is None or value is None else _number(kind, key, value)

    data = pick("data", os.environ.get(DATA_ENV))
    events_text = pick("events", "all")
    if events_text == "all":
        events = None
    else:
        names = (e.strip() for e in events_text.split(","))
        events = tuple(dict.fromkeys(e for e in names if e))  # once each, in order
        if not events:
            raise UsageError("event selection is empty")

    mode_text = pick("mode", "all")
    try:
        mode = DataMode(mode_text)
    except ValueError:
        raise UsageError(f"mode must be 'all' or 'five-years', got {mode_text!r}") from None

    cutoff = pick("cutoff", kind=int)
    if mode is DataMode.FIVE_YEARS and cutoff is None:
        raise UsageError("--mode five-years needs --cutoff")
    try:
        window = fit_window(mode, cutoff)
    except (ValueError, OverflowError):
        raise UsageError(f"cutoff {cutoff} is out of range: the fit window must fall "
                         "within years 1 to 9999") from None

    t_f = pick("tf", 1.0, float)
    if not (math.isfinite(t_f) and t_f >= 0.0):
        raise UsageError(f"--tf must be finite and >= 0, got {t_f}")
    prior = pick("prior", "empirical")
    if prior not in ("weak", "empirical"):
        raise UsageError(f"--prior must be 'weak' or 'empirical', got {prior!r}")

    points = pick("points")
    base = SamplerConfig()
    settings = {field: pick(key, getattr(base, field), type(getattr(base, field)))
                for key, (field, _) in _SAMPLER_KEYS.items()}
    try:
        sampler = SamplerConfig(seed=pick("seed", 0, int), **settings)
    except ValueError as exc:
        raise UsageError(f"bad sampler settings: {exc}") from None

    return RunConfig(
        data_dir=None if data is None else Path(data),
        out_dir=Path(pick("out", "out")),
        events=events,
        mode=mode,
        cutoff=cutoff,
        window=window,
        t_f=t_f,
        prior=prior,
        points=DEFAULT_POINT_GRID if points is None else _parse_points(points),
        windows=_parse_int_list("windows", pick("windows", "1,2,5,12")),
        ranks=_parse_int_list("ranks", pick("ranks", "10,25,50,100")),
        sampler=sampler,
    )


def _select(files: list[Path], events, missing, empty: str) -> list[Path]:
    """The files --events names, in its order, or all; raises missing(ids) or empty."""
    if events is not None:
        by_stem = {p.stem: p for p in files}
        absent = [e for e in events if e not in by_stem]
        if absent:
            raise UsageError(missing(", ".join(absent)))
        files = [by_stem[e] for e in events]
    if not files:
        raise UsageError(empty)
    return files


def _data_files(cfg: RunConfig) -> list[Path]:
    if cfg.data_dir is None:
        raise UsageError(f"no data directory: pass --data or set {DATA_ENV}")
    if not cfg.data_dir.is_dir():
        raise UsageError(f"data directory not found: {cfg.data_dir}")
    return _select(sorted(cfg.data_dir.glob("*.tsv")), cfg.events,
                   lambda ids: f"events not found in {cfg.data_dir}: {ids}",
                   f"no .tsv data files in {cfg.data_dir}")


def _duplicate_event(data, path: Path, seen: dict[str, Path]) -> str | None:
    """Why `data`, read from `path`, clashes with an earlier file, or None;
    records its event id in `seen` (event id -> file) otherwise."""
    event_id = data.event.event_id
    if event_id in seen:
        return f"event id {event_id!r} is declared by both {seen[event_id]} and {path}"
    seen[event_id] = path
    return None


def _load_corpus(cfg: RunConfig, window: DateWindow | None):
    lists = []
    skipped: dict[str, str] = {}
    seen: dict[str, Path] = {}
    for path in _data_files(cfg):
        try:
            data = load_performance_list(path, window=window)
        except TailcastError as exc:
            skipped[path.stem] = str(exc)
            continue
        clash = _duplicate_event(data, path, seen)
        if clash is not None:
            raise UsageError(clash)
        lists.append(data)
    for event_id, reason in sorted(skipped.items()):
        print(f"warning: skipping {event_id}: {reason}", file=sys.stderr)
    return lists, skipped


def _check_out_dir(cfg: RunConfig, *outputs: str) -> None:
    """Refuse, before any work, an --out that is or lies under a non-directory,
    and a command's output in it that exists as the wrong kind: a file
    output that is a directory, or a directory output (its name ending in
    "/") that is not."""
    for path in (cfg.out_dir, *cfg.out_dir.parents):
        if path.exists():
            if not path.is_dir():
                raise UsageError(f"--out {cfg.out_dir}: {path} is not a directory")
            break
    for name in outputs:
        path = cfg.out_dir / name
        if path.exists() and path.is_dir() != name.endswith("/"):
            raise TailcastError(f"cannot write {path}: it is "
                                f"{'a' if path.is_dir() else 'not a'} directory")


def cmd_fit(cfg: RunConfig) -> int:
    _check_out_dir(cfg, "fits/", "manifest.json")
    lists, skipped = _load_corpus(cfg, cfg.window)
    if not lists:
        raise TailcastError("no usable events")

    notes = dict(skipped)
    if cfg.prior == "weak":
        prior = HyperPrior.weakly_informative()
        fits, failures = fit_events(lists, prior, cfg.sampler)
    else:
        try:
            result = two_pass_fit(lists, cfg.sampler)
        except InsufficientEvents as exc:
            print(f"error: {exc}", file=sys.stderr)
            print("hint: rerun with --prior weak to fit without the empirical prior",
                  file=sys.stderr)
            return 1
        prior, fits, failures = result.prior, result.fits, result.failures
    for event_id, msg in failures.items():
        notes[event_id] = f"fit failed: {msg}"

    if not fits:
        raise TailcastError("every fit failed")

    fits_dir = cfg.out_dir / "fits"
    fits_dir.mkdir(parents=True, exist_ok=True)
    for event_id in sorted(fits):
        save_fit(fits[event_id], fits_dir / f"{event_id}.fit")

    manifest = {
        "command": "fit",
        "seed": cfg.sampler.seed,
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
    atomic_write_text(cfg.out_dir / "manifest.json",
                      json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    laggards = [e for e in sorted(fits) if not fits[e].converged]
    if laggards:
        print(f"warning: unconverged fits: {', '.join(laggards)}", file=sys.stderr)
    print(f"fit {len(fits)} events -> {fits_dir}")
    return 0


def _load_fits(cfg: RunConfig) -> dict[str, FitResult]:
    fits_dir = cfg.out_dir / "fits"
    files = _select(sorted(fits_dir.glob("*.fit")), cfg.events,
                    lambda ids: f"no fit files for: {ids} (run `tailcast fit`)",
                    f"no fit files in {fits_dir} (run `tailcast fit` first)")
    fits = {}
    seen: dict[str, Path] = {}
    for path in files:
        fit = load_fit(path)
        clash = _duplicate_event(fit.meta, path, seen)
        if clash is not None:
            raise UsageError(clash)
        fits[fit.event_id] = fit
    return fits


def _warn_unconverged(fit: FitResult) -> None:
    if not fit.converged:
        print(f"warning: {fit.event_id}: forecasting from an unconverged fit "
              f"(mpsrf={fit.mpsrf:.3f})", file=sys.stderr)


def mile_partner(event_id: str) -> str | None:
    """Event whose population draws a mile event borrows, if any."""
    match = re.search("1mile", event_id, re.IGNORECASE | re.ASCII)
    if match is None:
        return None
    return event_id[:match.start()] + "1500m" + event_id[match.end():]


def cmd_tables(cfg: RunConfig) -> int:
    _check_out_dir(cfg, "tables.tsv")
    fits = _load_fits(cfg)
    tables = []
    for event_id in sorted(fits):
        fit = fits[event_id]
        _warn_unconverged(fit)
        partner = mile_partner(event_id)
        if partner is not None:
            # The partner's fit is read even when --events leaves its row out.
            borrowed = fits.get(partner)
            partner_path = cfg.out_dir / "fits" / f"{partner}.fit"
            if borrowed is None and partner_path.is_file():
                borrowed = load_fit(partner_path)
            if borrowed is None:
                print(f"warning: {event_id}: no {partner} fit to borrow a population "
                      "from; using its own", file=sys.stderr)
            else:
                try:
                    fit = borrow_population(fit, borrowed.pooled_logN)
                except NoBorrowedPopulation:
                    print(f"warning: {event_id}: no {partner} population draw keeps the "
                          "tail-mass identity in-domain; using its own", file=sys.stderr)
        tables.append(build_score_table(fit, cfg.points))
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    out_path = cfg.out_dir / "tables.tsv"
    atomic_write_text(out_path, render_score_tables(tables))
    flagged = [t.event_id for t in tables if t.low_data]
    if flagged:
        print(f"warning: low-data events (n_k < 20): {', '.join(flagged)}", file=sys.stderr)
    print(f"wrote {out_path}")
    return 0


def cmd_forecast(cfg: RunConfig) -> int:
    _check_out_dir(cfg, "forecast.tsv")
    fits = _load_fits(cfg)
    rows = []
    for event_id in sorted(fits):
        fit = fits[event_id]
        _warn_unconverged(fit)
        record_x = fit.meta.record_x
        p = record_probability(fit, record_x, cfg.t_f)
        if cfg.t_f > 0.0:
            best = expected_best(fit, cfg.t_f)
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
    if cfg.prior != "empirical":
        raise UsageError(f"backtest fits with the empirical prior only, not --prior {cfg.prior}")
    try:
        spec = BacktestSpec(
            cutoff_year=cfg.cutoff,
            windows=cfg.windows,
            data_mode=cfg.mode,
            reference_ranks=cfg.ranks,
        )
    except ValueError as exc:
        raise UsageError(f"bad backtest settings: {exc}") from None
    _check_out_dir(cfg, "backtest.txt", "backtest_summary.tsv", "backtest_detail.tsv")
    lists, _ = _load_corpus(cfg, window=None)
    report = run_backtest(lists, spec, cfg.sampler)
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
    failures = 0
    seen: dict[str, Path] = {}
    for path in _data_files(cfg):
        try:
            data = load_performance_list(path, window=cfg.window)
        except TailcastError as exc:
            error = str(exc)
        else:
            error = _duplicate_event(data, path, seen)
        if error is not None:
            print(f"{path.stem}\tERROR\t{error}")
            failures += 1
            continue
        event = data.event
        print(
            f"{path.stem}\tOK\tn={data.n_k}"
            f"\tbest={format_raw_mark(event, data.records[0].value)}"
            f"\tworst={format_raw_mark(event, data.records[-1].value)}"
            f"\tspan={data.t_m:.1f}y"
            f"\t{event.direction.value}/{event.unit.value}"
        )
    return 1 if failures else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: it reads only
    module constants. It binds no handler (see main)."""
    # The options every subcommand takes, defined once and shared as a parent:
    # names and help only, as _resolve converts and checks every value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    common.add_argument("--data", help=f"data directory (default: ${DATA_ENV})")
    common.add_argument("--out", help="output directory (default: ./out)")
    common.add_argument("--events", help="comma-separated event ids, or 'all'")
    common.add_argument("--mode", help="ingestion window mode: all or five-years")
    common.add_argument("--cutoff", help="cutoff year (data strictly before)")
    common.add_argument("--tf", help="forecast horizon in years, finite and >= 0")
    common.add_argument("--seed", help="base RNG seed, a whole number >= 0")
    common.add_argument("--prior", help="population prior: weak or empirical")
    for key, (_, text) in _SAMPLER_KEYS.items():
        if text is not None:
            common.add_argument("--" + key.replace("_", "-"), dest=key, help=text)

    parser = argparse.ArgumentParser(
        prog="tailcast",
        description="Fit performance-list tails and forecast records and scores.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("fit", parents=[common], help="fit every event and persist the posteriors")
    p_tables = sub.add_parser("tables", parents=[common],
                              help="emit scoring tables from persisted fits")
    p_tables.add_argument("--points", help="point grid, lo:hi:step or comma list")
    sub.add_parser("forecast", parents=[common], help="record probabilities and expected bests")
    p_backtest = sub.add_parser("backtest", parents=[common],
                                help="fit before a cutoff and score forecasts")
    p_backtest.add_argument("--windows", help="evaluation window lengths, e.g. 1,2,5,12")
    p_backtest.add_argument("--ranks", help="reference ranks, subset of 10,25,50,100")
    sub.add_parser("validate-data", parents=[common], help="parse and summarize the data files")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a cmd_* rebound after the parser was built
    # (as a tracer wraps them) is the one that runs.
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    # The one place a refused input becomes an `error:` line and an exit status.
    try:
        cfg = _resolve(args)
        return handler(cfg)
    except TailcastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
