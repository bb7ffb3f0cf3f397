#!/usr/bin/env python3
"""Write a BENCH_<n>_<label>.json: the benchmark run in alternating pairs
against a parent checkout.

    python3 tools/bench_snapshot.py --number N --label LABEL --parent DIR [--pairs 10]

For each workload of BENCHMARK.json at seeds 3 and 5, runs
`perfbench/run.py` unchanged and untraced, N times in this checkout (the
change) and N times in the --parent checkout, alternating: pair i runs the
change first when i is even and the parent first when it is odd. Each side
has its own --workdir, kept for the whole snapshot, so perfbench's digest
check compares every run of a side with its first. Each run measures 10
cycles: its --seconds is 10 x the workload's NOMINAL_CYCLE_S, read from the
side's own perfbench/run.py, which turns --seconds back into a cycle count;
the file records both and each run's cycles. Standard library only.

The file holds every run's end-to-end metrics and digest; per metric, each
side's median and quartiles (statistics.quantiles, exclusive method), the
change's wins, ties and whether the gain is resolved by the pair rule
(wins in at least 9 of 10 pairs and medians apart by more than the parent's
interquartile range); the host; the Python, numpy and scipy versions;
numpy's SIMD level and the OpenBLAS core, both of which fix the digests.
Each side's checkout is named by `git rev-parse HEAD` and whether
`git status --porcelain` lists anything (`dirty`), beside perfbench's
source digest. A `quality` section runs `corpus` once per side at seeds
0 to 9, one cycle each at the `run_seconds` of BENCHMARK.json, and keeps
each run's converged_frac and recovery_frac, with each side's default
SamplerConfig and its lane-steps per chain (burn_in_steps + batches x
batch_len). A `work_counts` section holds, per
side, the log-posterior kernel calls and scored points of one fit_events
run at the `backtest` workload's config and at the defaults, and the
lane-steps of burn-in and of sampling of each run_lanes call and of each
fit, counted in a child process in that side's checkout: exact counts,
which do not drift with the host as times do.
Files are added, never rewritten: the script refuses an existing name.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (3, 5)
CYCLES = 10
QUALITY_SEEDS = range(10)
QUALITY = ("converged_frac", "recovery_frac")

# numpy's baseline and dispatched SIMD extensions, as numpy.show_runtime()
# lists them, read without threadpoolctl.
_SIMD_PROBE = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
print(json.dumps({"baseline": list(__cpu_baseline__),
                  "found": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
                  "not_found": [f for f in __cpu_dispatch__ if not __cpu_features__.get(f)]}))
"""


def numpy_simd() -> dict:
    out = subprocess.run([sys.executable, "-c", _SIMD_PROBE], capture_output=True,
                         text=True, check=True)
    return json.loads(out.stdout)


def openblas_core() -> str | None:
    """The OpenBLAS kernel numpy loads, as OPENBLAS_VERBOSE=2 prints it."""
    out = subprocess.run([sys.executable, "-c", "import numpy"], capture_output=True,
                         text=True, env={**os.environ, "OPENBLAS_VERBOSE": "2"})
    for line in (out.stdout + out.stderr).splitlines():
        if line.startswith("Core:"):
            return line.split(":", 1)[1].strip()
    return None


def git_state(checkout: Path) -> dict:
    """The checkout's HEAD and whether its tree differs from it; nulls outside git."""
    def git(*args):
        out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return out.stdout if out.returncode == 0 else None

    head = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git_commit": head.strip() if head else None,
            "dirty": bool(status.strip()) if status is not None else None}


# The checkout's default SamplerConfig, imported from its own src/.
_CONFIG_PROBE = """
import dataclasses, json, sys
sys.path.insert(0, "src")
from tailcast.sampler import SamplerConfig
print(json.dumps(dataclasses.asdict(SamplerConfig())))
"""


# The checkout's nominal cycle time per workload, read from its perfbench/run.py.
_NOMINAL_PROBE = """
import json, sys
sys.path.insert(0, "perfbench")
from run import NOMINAL_CYCLE_S
print(json.dumps(NOMINAL_CYCLE_S))
"""


def run_seconds(checkout: Path) -> dict[str, float]:
    """Per workload, the --seconds that make perfbench/run.py in `checkout`
    measure CYCLES cycles."""
    out = subprocess.run([sys.executable, "-c", _NOMINAL_PROBE], cwd=checkout,
                         capture_output=True, text=True, check=True)
    return {workload: CYCLES * nominal for workload, nominal in json.loads(out.stdout).items()}


def default_config(checkout: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _CONFIG_PROBE], cwd=checkout,
                         capture_output=True, text=True, check=True)
    config = json.loads(out.stdout)
    return {**config, "lane_steps_per_chain":
            config["burn_in_steps"] + config["batches"] * config["batch_len"]}


# Exact work of one fit_events run in the checkout's own src/: the lists of
# the first run of perfbench's `backtest` workload at seed 3, fitted under
# the weak prior at that workload's config and at the default SamplerConfig,
# each from fresh lists, so each count includes their grids. Every kernel
# distcore.make_lane_log_posterior makes counts its calls and scored points:
# kernels over one list (grids and chain starts) apart from the lane kernel
# of the chains that fit_events samples. Each run_lanes call counts its
# lane-steps (lanes x batches x batch_len): burn-in, then sampling. Each fit's
# sampled chains each run burn_in_steps, then batches x batch_len steps.
_WORK_PROBE = """
import dataclasses, json, sys
from pathlib import Path
sys.path[:0] = ["src", "perfbench"]
from tailcast import distcore, sampler
from tailcast.distcore import HyperPrior
from tailcast.sampler import SamplerConfig, fit_events
from workloads import SIZES, WORKLOADS

make = distcore.make_lane_log_posterior
counts = {}


def counting(lists, prior):
    target = make(lists, prior)
    tally = counts.setdefault("one_list" if len(lists) == 1 else "lanes",
                              {"calls": 0, "points": 0})

    def counted(mu, log_n_pop, out=None):
        out = target(mu, log_n_pop, out)
        tally["calls"] += 1
        tally["points"] += out.size
        return out

    return counted


distcore.make_lane_log_posterior = sampler.make_lane_log_posterior = counting
run_lanes = sampler.run_lanes
lane_steps = []


def counting_lanes(target, starts, scales, rngs, batches, batch_len):
    lane_steps.append(starts.shape[1] * batches * batch_len)
    return run_lanes(target, starts, scales, rngs, batches, batch_len)


sampler.run_lanes = counting_lanes
result = {}
for name in ("backtest", "default"):
    workload = WORKLOADS["backtest"](3, SIZES["full"], Path("."))
    workload.setup()
    lists, config = workload.runs[0]
    if name == "default":
        config = SamplerConfig()
    counts.clear()
    lane_steps.clear()
    fits, _ = fit_events(lists, HyperPrior.weakly_informative(), config)
    per_fit = {event_id: {"burn_in": len(fit.meta.chains) * config.burn_in_steps,
                          "sampling": len(fit.meta.chains) * config.batches * config.batch_len}
               for event_id, fit in fits.items()}
    result[name] = {"config": dataclasses.asdict(config), "events": len(lists),
                    "fitted": len(fits), **counts, "run_lanes_lane_steps": list(lane_steps),
                    "lane_steps_per_fit": per_fit}
print(json.dumps(result))
"""


def work_counts(checkout: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _WORK_PROBE], cwd=checkout,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def run_once(checkout: Path, workdir: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced perfbench run in `checkout`; its end-to-end metrics and result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", "--workdir", str(workdir)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} in {checkout} exited {out.returncode}:\n"
                         f"{out.stderr}")
    line = json.loads(out.stdout.strip().splitlines()[-1])
    result = json.loads((workdir / "results" / f"{workload}-full-seed{seed}-trace0.json")
                        .read_text())
    return {
        "metrics": {name: m["value"] for name, m in line["metrics"].items()},
        "correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
        "cycles": result["cycles"], "digest": result["digest"],
        "quality": {name: result["metrics"][name]["value"] for name in QUALITY
                    if name in result["metrics"]},
        "meta": result["meta"],
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's quartiles, the change's wins and ties, and
    whether the gain is resolved by the pair rule."""
    summary = {}
    for name, direction in better.items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (c - p) < 0 for c, p in zip(change, parent))
        ties = sum(c == p for c, p in zip(change, parent))
        pq, cq = quartiles(parent), quartiles(change)
        gain = sign * (pq["median"] - cq["median"])
        summary[name] = {
            "parent": pq, "change": cq, "change_wins": wins, "ties": ties,
            "median_change_frac": (cq["median"] - pq["median"]) / pq["median"]
            if pq["median"] else None,
            "gain_resolved": wins >= 0.9 * len(pairs) and gain > pq["q3"] - pq["q1"],
        }
    return summary


def quality(sides: dict[str, Path], scratch: Path, seconds: float) -> dict:
    """One `corpus` run per side and seed of QUALITY_SEEDS: its quality ratios,
    their means, and the side's default SamplerConfig."""
    section = {"workload": "corpus", "seeds": list(QUALITY_SEEDS)}
    for side, checkout in sides.items():
        runs = [run_once(checkout, scratch / f"{side}-quality", "corpus", seed, seconds)
                for seed in QUALITY_SEEDS]
        ratios = {name: [r["quality"][name] for r in runs] for name in QUALITY}
        section[side] = {
            "default_config": default_config(checkout), **ratios,
            "mean": {name: statistics.fmean(values) for name, values in ratios.items()},
            "digests": [r["digest"] for r in runs],
        }
        print(f"quality {side}: " + ", ".join(
            f"{name} {value:.4f}" for name, value in section[side]["mean"].items()),
            file=sys.stderr)
    return section


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--number", type=int, required=True, help="n of BENCH_<n>_<label>.json")
    parser.add_argument("--label", required=True, help="label of BENCH_<n>_<label>.json")
    parser.add_argument("--parent", type=Path, required=True, help="the parent's checkout")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    target = ROOT / f"BENCH_{args.number}_{args.label}.json"
    if target.exists():
        raise SystemExit(f"error: {target.name} exists; add a new file instead")
    parent = args.parent.resolve()
    if not (parent / "perfbench" / "run.py").is_file():
        raise SystemExit(f"error: no perfbench/run.py under {parent}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {"change": ROOT, "parent": parent}
    seconds = {side: run_seconds(checkout) for side, checkout in sides.items()}

    snapshot = {
        "number": args.number, "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds T "
                   "--trace 0 --workdir DIR",
        "cycles_per_run": CYCLES, "seconds": seconds,
        "pairs": args.pairs, "order": "pair i runs the change first when i is even",
        "numpy_simd": numpy_simd(), "openblas_core": openblas_core(),
        "work_counts": {side: work_counts(checkout) for side, checkout in sides.items()},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_snapshot.") as scratch:
        for workload in [w["name"] for w in benchmark["workloads"]]:
            for seed in SEEDS:
                workdirs = {side: Path(scratch) / f"{side}-{workload}-seed{seed}"
                            for side in sides}
                pairs = []
                for i in range(args.pairs):
                    order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
                    pair = {"pair": i, "first": order[0]}
                    for side in order:
                        pair[side] = run_once(sides[side], workdirs[side], workload, seed,
                                              seconds[side][workload])
                        if pair[side]["cycles"] != CYCLES:
                            raise SystemExit(f"error: a {side} {workload} run measured "
                                             f"{pair[side]['cycles']} cycles, not {CYCLES}")
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {i}: " + ", ".join(
                        f"{side} cycle_s {pair[side]['metrics']['cycle_s']:.4f}"
                        for side in order), file=sys.stderr)
                metas = {side: [p[side].pop("meta") for p in pairs][0] for side in sides}
                snapshot.setdefault("host", metas["change"]["host"])
                for key in ("python", "numpy", "scipy"):
                    snapshot.setdefault(key, metas["change"][key])
                snapshot.setdefault("checkouts", {
                    side: {**git_state(sides[side]),
                           "source_sha256": metas[side]["source_sha256"]}
                    for side in sides})
                snapshot["workloads"].setdefault(workload, {})[f"seed{seed}"] = {
                    "digests": {side: sorted({p[side]["digest"] for p in pairs})
                                for side in sides},
                    "summary": summarize(pairs, better),
                    "runs": pairs,
                }
        snapshot["quality"] = quality(sides, Path(scratch), benchmark["run_seconds"])
    target.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
