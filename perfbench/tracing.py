"""Per-layer tracing of tailcast from outside the package.

Every tailcast module imports its callees with `from .x import y`, so a
function is wrapped under each name it is looked up by (for example both
`tailcast.emprior.fit_event` and `tailcast.cli.fit_event`). Wrappers keep
spans in memory as (name, start, end, parent, error) and a few exact
counters; `Tracer.metrics` turns them into the per-layer metrics once the
traced work is over. A layer's self time is its span minus the time its
direct child spans cover.
"""
from __future__ import annotations

import json
import math
import os
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from tailcast import backtest, cli, distcore, emprior, ingest, sampler, stats

# (module, attribute, span name) for every wrapped lookup site.
SPANS = (
    (cli, "cmd_fit", "cli.fit"),
    (cli, "cmd_tables", "cli.tables"),
    (cli, "cmd_forecast", "cli.forecast"),
    (cli, "load_performance_list", "ingest.load"),
    (ingest, "build_performance_list", "ingest.build_list"),
    (backtest, "build_performance_list", "ingest.build_list"),
    (cli, "two_pass_fit", "emprior.two_pass"),
    (backtest, "two_pass_fit", "emprior.two_pass"),
    (emprior, "robust_hyperprior", "emprior.hyperprior"),
    (cli, "fit_event", "sampler.fit_event"),
    (emprior, "fit_event", "sampler.fit_event"),
    (sampler, "tune_burn_in", "sampler.burn_in"),
    (sampler, "run_chain", "sampler.sample"),
    (sampler, "gelman_rubin_mpsrf", "sampler.mpsrf"),
    (cli, "save_fit", "fitfile.save"),
    (cli, "load_fit", "fitfile.load"),
    (cli, "build_score_table", "stats.build_score_table"),
    (stats, "anchor_mark", "stats.anchor_mark"),
    (cli, "expected_best", "stats.expected_best"),
    (backtest, "expected_best", "stats.expected_best"),
    (cli, "record_probability", "stats.record_probability"),
    (backtest, "record_probability", "stats.record_probability"),
    (backtest, "expected_exceedances", "stats.expected_exceedances"),
    (backtest, "run_backtest", "backtest.run"),
)

STATS_FAILURES = ("IntegrationUnstable", "AnchorNotFound")
TARGET_BATCH = 200
TARGET_REPEATS = 5
MPSRF_CAP = 1e6


# Every per-layer metric: name -> (unit, better). The traced run reports all of
# them on every workload; a layer a workload does not reach reads 0.
LAYER_METRICS = {
    "distcore.target_calls": ("count", "lower"),
    "distcore.target_us": ("us", "lower"),
    "sampler.fit_event_calls": ("count", "lower"),
    "sampler.fit_event_p50_s": ("s", "lower"),
    "sampler.fit_event_tail_s": ("s", "lower"),
    "sampler.fit_event_tail_pct": ("%", "higher"),
    "sampler.burn_in_s": ("s", "lower"),
    "sampler.burn_in_rounds": ("count", "lower"),
    "sampler.retunes": ("count", "lower"),
    "sampler.sample_s": ("s", "lower"),
    "sampler.sample_steps": ("count", "lower"),
    "sampler.us_per_burn_in_step": ("us", "lower"),
    "sampler.us_per_sample_step": ("us", "lower"),
    "sampler.retained_step_frac": ("ratio", "higher"),
    "sampler.accept_rate_p50": ("ratio", "higher"),
    "sampler.mpsrf_p50": ("ratio", "lower"),
    "sampler.mpsrf_max": ("ratio", "lower"),
    "sampler.chains_failed": ("count", "lower"),
    "sampler.mpsrf_s": ("s", "lower"),
    "emprior.two_pass_s": ("s", "lower"),
    "emprior.self_s": ("s", "lower"),
    "emprior.hyperprior_s": ("s", "lower"),
    "stats.expected_best_calls": ("count", "lower"),
    "stats.expected_best_s": ("s", "lower"),
    "stats.expected_best_p50_ms": ("ms", "lower"),
    "stats.expected_best_tail_ms": ("ms", "lower"),
    "stats.expected_best_tail_pct": ("%", "higher"),
    "stats.cdf_points": ("count", "lower"),
    "stats.anchor_mark_s": ("s", "lower"),
    "stats.build_score_table_s": ("s", "lower"),
    "stats.record_probability_s": ("s", "lower"),
    "stats.expected_exceedances_s": ("s", "lower"),
    "stats.failures": ("count", "lower"),
    "fitfile.load_calls": ("count", "lower"),
    "fitfile.load_s": ("s", "lower"),
    "fitfile.bytes_read": ("bytes", "lower"),
    "fitfile.load_mb_per_s": ("MB/s", "higher"),
    "fitfile.save_calls": ("count", "lower"),
    "fitfile.save_s": ("s", "lower"),
    "fitfile.bytes_written": ("bytes", "lower"),
    "ingest.load_s": ("s", "lower"),
    "ingest.marks_loaded": ("count", "higher"),
    "ingest.build_list_s": ("s", "lower"),
    "backtest.run_s": ("s", "lower"),
    "backtest.self_s": ("s", "lower"),
    "backtest.cells": ("count", "higher"),
    "backtest.cells_invalid": ("count", "lower"),
    "cli.fit_self_s": ("s", "lower"),
    "cli.report_self_s": ("s", "lower"),
    "trace.untraced_s": ("s", "lower"),
    "trace.traced_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it (0 if none)."""
    return max(0, math.floor(100.0 * (n - 10) / n)) if n > 10 else 0


class Tracer:
    """Spans and counters of one traced stretch of work."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index, error]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, list[float]] = defaultdict(list)
        self.fitted: list[tuple] = []        # (data, prior, FitResult) per fit_event
        self._target_calls = [0]
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "sampler.fit_event": self._on_fit_event,
            "sampler.sample": self._on_sample,
            "sampler.mpsrf": self._on_mpsrf,
            "fitfile.load": self._on_load,
            "fitfile.save": self._on_save,
            "ingest.load": self._on_ingest,
            "backtest.run": self._on_backtest,
        }
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(name, getattr(module, attr), hooks.get(name)))
        self._patch(sampler, "make_log_posterior", self._counted_target(sampler.make_log_posterior))
        self._patch(sampler, "_run_steps", self._counted_steps(sampler._run_steps))
        self._patch(stats, "log_std_normal_cdf", self._counted_cdf(stats.log_std_normal_cdf))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn, hook):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            result = exc = None
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = record[4] = error
                raise
            finally:
                record[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    hook(args, result, exc)

        return wrapper

    def _counted_target(self, make):
        calls = self._target_calls

        def make_log_posterior(data, prior):
            target = make(data, prior)

            def counted(theta):
                calls[0] += 1
                return target(theta)

            return counted

        return make_log_posterior

    def _counted_steps(self, run_steps):
        spans, stack, counts = self.spans, self.stack, self.counts

        def counted(target, state, lp, n_steps, scales, rng):
            parent = spans[stack[-1]][0] if stack else ""
            if parent == "sampler.burn_in":
                counts["burn_in_rounds"] += 1
                counts["burn_in_steps"] += n_steps
            elif parent == "sampler.sample":
                counts["sample_steps"] += n_steps
            return run_steps(target, state, lp, n_steps, scales, rng)

        return counted

    def _counted_cdf(self, cdf):
        counts = self.counts

        def counted(z):
            counts["cdf_points"] += int(np.size(z))
            return cdf(z)

        return counted

    # -- hooks: (args, result, exception) ---------------------------------------

    def _on_fit_event(self, args, fit, exc):
        if exc is None:
            self.fitted.append((args[0], args[1], fit))
            self.counts["chains_failed"] += len(fit.meta.failed_chains)
        elif isinstance(exc, sampler.FitFailed):
            self.counts["chains_failed"] += args[2].chains

    def _on_sample(self, args, chain, exc):
        if exc is None:
            self.values["accept_rate"].append(chain.accept_rate)

    def _on_mpsrf(self, args, value, exc):
        if exc is None:
            self.values["mpsrf"].append(min(value, MPSRF_CAP))

    def _on_load(self, args, fit, exc):
        if exc is None:
            self.counts["bytes_read"] += os.path.getsize(args[0])

    def _on_save(self, args, result, exc):
        if exc is None:
            self.counts["bytes_written"] += os.path.getsize(args[1])

    def _on_ingest(self, args, data, exc):
        if exc is None:
            self.counts["marks_loaded"] += data.n_k

    def _on_backtest(self, args, report, exc):
        if exc is None:
            self.counts["cells"] += len(report.cells)
            self.counts["cells_invalid"] += sum(not c.valid for c in report.cells)

    # -- reduction ------------------------------------------------------------

    def durations(self, *names: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] in names]

    def total(self, *names: str) -> float:
        return float(sum(self.durations(*names)))

    def self_time(self, *names: str) -> float:
        covered = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return float(sum(s[2] - s[1] - covered[i]
                         for i, s in enumerate(self.spans) if s[0] in names))

    def target_us(self) -> float:
        """Median over fitted events of one target evaluation, at that event's draws."""
        per_event = []
        for data, prior, fit in self.fitted:
            target = distcore.make_log_posterior(data, prior)
            thetas = [(float(m), float(y)) for m, y in
                      zip(fit.pooled_mu[:TARGET_BATCH], fit.pooled_logN[:TARGET_BATCH])]
            best = math.inf
            for _ in range(TARGET_REPEATS):
                t0 = time.perf_counter()
                for theta in thetas:
                    target(theta)
                best = min(best, time.perf_counter() - t0)
            per_event.append(best / len(thetas) * 1e6)
        return float(np.median(per_event)) if per_event else 0.0

    def metrics(self) -> dict[str, float]:
        c, v = self.counts, self.values
        fit_d = self.durations("sampler.fit_event")
        best_d = self.durations("stats.expected_best")
        burn_s, sample_s = self.total("sampler.burn_in"), self.total("sampler.sample")
        steps = c["burn_in_steps"] + c["sample_steps"]
        load_s = self.total("fitfile.load")
        stats_failures = sum(
            1 for s in self.spans
            if s[0].startswith("stats.") and s[4] is not None
            and type(s[4]).__name__ in STATS_FAILURES
            and not (s[3] >= 0 and self.spans[s[3]][0].startswith("stats."))
        )

        def pct(values, q, scale=1.0):
            return float(np.percentile(values, q)) * scale if values else 0.0

        return {
            "distcore.target_calls": self._target_calls[0],
            "distcore.target_us": self.target_us(),
            "sampler.fit_event_calls": len(fit_d),
            "sampler.fit_event_p50_s": pct(fit_d, 50),
            "sampler.fit_event_tail_s": pct(fit_d, tail_percentile(len(fit_d))),
            "sampler.fit_event_tail_pct": tail_percentile(len(fit_d)),
            "sampler.burn_in_s": burn_s,
            "sampler.burn_in_rounds": c["burn_in_rounds"],
            "sampler.retunes": c["burn_in_rounds"] - len(self.durations("sampler.burn_in")),
            "sampler.sample_s": sample_s,
            "sampler.sample_steps": c["sample_steps"],
            "sampler.us_per_burn_in_step": burn_s / c["burn_in_steps"] * 1e6 if c["burn_in_steps"] else 0.0,
            "sampler.us_per_sample_step": sample_s / c["sample_steps"] * 1e6 if c["sample_steps"] else 0.0,
            "sampler.retained_step_frac": c["sample_steps"] / steps if steps else 0.0,
            "sampler.accept_rate_p50": pct(v["accept_rate"], 50),
            "sampler.mpsrf_p50": pct(v["mpsrf"], 50),
            "sampler.mpsrf_max": max(v["mpsrf"], default=0.0),
            "sampler.chains_failed": c["chains_failed"],
            "sampler.mpsrf_s": self.total("sampler.mpsrf"),
            "emprior.two_pass_s": self.total("emprior.two_pass"),
            "emprior.self_s": self.self_time("emprior.two_pass"),
            "emprior.hyperprior_s": self.total("emprior.hyperprior"),
            "stats.expected_best_calls": len(best_d),
            "stats.expected_best_s": float(sum(best_d)),
            "stats.expected_best_p50_ms": pct(best_d, 50, 1e3),
            "stats.expected_best_tail_ms": pct(best_d, tail_percentile(len(best_d)), 1e3),
            "stats.expected_best_tail_pct": tail_percentile(len(best_d)),
            "stats.cdf_points": c["cdf_points"],
            "stats.anchor_mark_s": self.total("stats.anchor_mark"),
            "stats.build_score_table_s": self.total("stats.build_score_table"),
            "stats.record_probability_s": self.total("stats.record_probability"),
            "stats.expected_exceedances_s": self.total("stats.expected_exceedances"),
            "stats.failures": stats_failures,
            "fitfile.load_calls": len(self.durations("fitfile.load")),
            "fitfile.load_s": load_s,
            "fitfile.bytes_read": c["bytes_read"],
            "fitfile.load_mb_per_s": c["bytes_read"] / load_s / 1e6 if load_s else 0.0,
            "fitfile.save_calls": len(self.durations("fitfile.save")),
            "fitfile.save_s": self.total("fitfile.save"),
            "fitfile.bytes_written": c["bytes_written"],
            "ingest.load_s": self.total("ingest.load"),
            "ingest.marks_loaded": c["marks_loaded"],
            "ingest.build_list_s": self.total("ingest.build_list"),
            "backtest.run_s": self.total("backtest.run"),
            "backtest.self_s": self.self_time("backtest.run"),
            "backtest.cells": c["cells"],
            "backtest.cells_invalid": c["cells_invalid"],
            "cli.fit_self_s": self.self_time("cli.fit"),
            "cli.report_self_s": self.self_time("cli.tables", "cli.forecast"),
        }

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines, times relative to the first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, error) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "parent": parent,
                    "start_s": start - t0, "end_s": end - t0,
                    "error": None if error is None else type(error).__name__,
                }) + "\n")
