#!/usr/bin/env python3
"""Write a BENCH_<n>_<label>.json: the benchmark run in alternating pairs
against a parent checkout.

    python3 tools/bench_snapshot.py --number N --label LABEL --parent DIR [--pairs 10]

For each workload of BENCHMARK.json at seeds 3 and 5, runs
`perfbench/run.py` unchanged, untraced and at the `run_seconds` of
BENCHMARK.json, N times in this checkout (the change) and N times in the
--parent checkout, alternating: pair i runs the
change first when i is even and the parent first when it is odd. Each side
has its own --workdir, kept for the whole snapshot, so perfbench's digest
check compares every run of a side with its first. Standard library only.

The file holds every run's end-to-end metrics and digest; per metric, each
side's median and quartiles (statistics.quantiles, exclusive method), the
change's wins, ties and whether the gain is resolved by the pair rule
(wins in at least 9 of 10 pairs and medians apart by more than the parent's
interquartile range); the host; the Python, numpy and scipy versions;
numpy's SIMD level and the OpenBLAS core, both of which fix the digests.
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
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {"change": ROOT, "parent": parent}

    snapshot = {
        "number": args.number, "label": args.label,
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
                   "--trace 0 --workdir DIR",
        "pairs": args.pairs, "order": "pair i runs the change first when i is even",
        "numpy_simd": numpy_simd(), "openblas_core": openblas_core(),
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
                                              seconds)
                    pairs.append(pair)
                    print(f"{workload} seed {seed} pair {i}: " + ", ".join(
                        f"{side} cycle_s {pair[side]['metrics']['cycle_s']:.4f}"
                        for side in order), file=sys.stderr)
                metas = {side: [p[side].pop("meta") for p in pairs][0] for side in sides}
                snapshot.setdefault("host", metas["change"]["host"])
                for key in ("python", "numpy", "scipy"):
                    snapshot.setdefault(key, metas["change"][key])
                snapshot.setdefault("checkouts", {
                    side: {"git_commit": metas[side]["git_commit"],
                           "source_sha256": metas[side]["source_sha256"]}
                    for side in sides})
                snapshot["workloads"].setdefault(workload, {})[f"seed{seed}"] = {
                    "digests": {side: sorted({p[side]["digest"] for p in pairs})
                                for side in sides},
                    "summary": summarize(pairs, better),
                    "runs": pairs,
                }
    target.write_text(json.dumps(snapshot, indent=1) + "\n")
    print(f"wrote {target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
