#!/usr/bin/env python3
"""Run one benchmark workload against the tailcast sources of this checkout.

    python3 perfbench/run.py --workload corpus|backtest|report --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--workdir DIR]

With --trace 0 the workload is set up several times and runs
round(S / nominal cycle time) cycles (at least one), spread over the
set-ups, and the end-to-end metrics are reported. The number of cycles
depends only on the arguments, never on how fast this host is, so the
operations attempted and failed are the same in every run at one seed. With
--trace 1 the workload is set up once, a fixed number of cycles runs untraced
and then again traced, and the per-layer metrics are reported together with
the tracing overhead. Every metric is
printed by name with its unit; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. A results file
with the run's metadata and every metric is written under the work
directory (default: .perfbench_work at the checkout root).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

# One caller in one process: keep numeric libraries from starting thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUPS = {"corpus": 9, "backtest": 9, "report": 2}
# Wall time of one cycle on the reference host of README.md; --seconds is
# turned into a cycle count with it.
NOMINAL_CYCLE_S = {"corpus": 44.0, "backtest": 5.7, "report": 1.55}
TRACE_CYCLES = {"corpus": 1, "backtest": 1, "report": 3}

# name: (unit, better) for everything the untraced run prints; the first four
# are the end-to-end metrics of BENCHMARK.json and go into the JSON line.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "cycle_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}
NAMED = {
    "corpus": {"fit_s": ("s", "lower"), "converged_frac": ("ratio", "higher"),
               "recovery_frac": ("ratio", "higher")},
    "backtest": {"backtest_s": ("s", "lower"), "converged_frac": ("ratio", "higher"),
                 "backtest_hit_frac": ("ratio", "higher")},
    "report": {"tables_s": ("s", "lower"), "forecast_s": ("s", "lower")},
}


def import_tailcast():
    """Import tailcast from this checkout's src/, never from anywhere else."""
    if not (SRC / "tailcast" / "__init__.py").is_file():
        raise SystemExit(f"error: no tailcast sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tailcast
    if Path(tailcast.__file__).resolve().parent != (SRC / "tailcast").resolve():
        raise SystemExit(f"error: imported tailcast from {tailcast.__file__}, not {SRC}")
    return tailcast


def source_digest() -> str:
    """sha256 over the package and the benchmark sources, which together fix every output."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "tailcast").rglob("*.py"), *BENCH.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_info() -> dict:
    info = {"cpu_count": os.cpu_count(), "cpu_model": platform.processor() or None,
            "mem_total_mb": None, "platform": platform.platform()}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                info["mem_total_mb"] = round(int(line.split()[1]) / 1024)
                break
    except OSError:
        pass
    return info


def run_metadata(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "host": host_info(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(), "source_sha256": source_digest(),
    }


def check_digest(store: Path, key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same sources and seed recorded."""
    known = json.loads(store.read_text()) if store.is_file() else {}
    if key in known:
        if known[key] != digest:
            return f"digest {digest[:16]} differs from {known[key][:16]} of an earlier run"
        return None
    known[key] = digest
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    tmp.replace(store)
    return None


def timed_setup(workload, setup_times: list[float]) -> None:
    t0 = time.perf_counter()
    workload.setup()
    setup_times.append(time.perf_counter() - t0)


def cycle_count(workload: str, seconds: float) -> int:
    """Cycles an untraced run measures: about `seconds` of them on the reference host."""
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def measure(workload, setups: int, count: int) -> tuple[list[float], list]:
    """Set up `setups` times and run `count` cycles, spread evenly over the
    set-ups, so the cycles sample the whole run instead of one stretch of it."""
    setup_times, cycles = [], []
    for i in range(setups):
        timed_setup(workload, setup_times)
        while len(cycles) < count * (i + 1) // setups or (i == 0 and not cycles):
            cycles.append(workload.cycle())
    return setup_times, cycles


def run(args) -> dict:
    """Run one workload as the arguments say; returns the full result."""
    from tracing import LAYER_METRICS, Tracer
    from workloads import SIZES, WORKLOADS

    workdir = Path(args.workdir)
    run_dir = workdir / f"{args.workload}-{args.size}-seed{args.seed}"
    run_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], run_dir)

    problems: list[str] = []
    metrics: dict[str, float] = {}
    tracer = None
    if args.trace:
        setup_times: list[float] = []
        timed_setup(workload, setup_times)
        count = TRACE_CYCLES[args.workload]
        untraced = [workload.cycle() for _ in range(count)]
        tracer = Tracer()
        tracer.install()
        try:
            cycles = [workload.cycle() for _ in range(count)]
        finally:
            tracer.uninstall()
        if {c.digest for c in untraced} != {c.digest for c in cycles}:
            problems.append("traced and untraced cycles produced different digests")
        metrics.update(tracer.metrics())
        untraced_s = statistics.median(c.op_s for c in untraced)
        traced_s = statistics.median(c.op_s for c in cycles)
        metrics.update({
            "trace.untraced_s": untraced_s, "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_frac": (traced_s - untraced_s) / untraced_s,
        })
        units = {name: LAYER_METRICS[name][0] for name in metrics}
    else:
        setup_times, cycles = measure(workload, SETUPS[args.workload],
                                      cycle_count(args.workload, args.seconds))

    attempted = sum(c.attempted for c in cycles)
    failed = sum(c.failed for c in cycles)
    for c in cycles:
        problems.extend(c.problems)
    digests = {c.digest for c in cycles}
    if len(digests) != 1:
        problems.append(f"repeated cycles produced {len(digests)} different digests")
    digest = cycles[0].digest
    if digest:
        key = f"{source_digest()}/{args.workload}/{args.size}/seed{args.seed}"
        mismatch = check_digest(workdir / "digests.json", key, digest)
        if mismatch:
            problems.append(mismatch)

    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["cycle_s"] = statistics.median(c.op_s for c in cycles)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["ok_frac"] = 1.0 - failed / attempted
        for name in NAMED[args.workload]:
            if name.endswith("_s"):
                metrics[name] = statistics.median(c.timings[name] for c in cycles)
            else:
                metrics[name] = cycles[0].quality.get(name, 0.0)  # absent if a call failed
        metrics["fail_frac"] = failed / attempted
        units = {name: unit for name, (unit, _) in
                 {**END_TO_END, **NAMED[args.workload], "fail_frac": ("ratio", "lower")}.items()}

    result = {
        "meta": run_metadata(args),
        "correct": not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "digest": digest, "cycles": len(cycles),
        "setup_times_s": setup_times,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    results = workdir / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"{stem}-spans.jsonl")
    return result


def contract_line(result: dict, trace: bool) -> dict:
    """The JSON object of the last output line: end-to-end or per-layer metrics only."""
    metrics = result["metrics"]
    names = list(metrics) if trace else list(END_TO_END)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": {n: metrics[n] for n in names}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", default=str(ROOT / ".perfbench_work"))
    args = parser.parse_args(argv)

    import_tailcast()
    result = run(args)
    print(f"workload={args.workload} seed={args.seed} size={args.size} trace={args.trace} "
          f"cycles={result['cycles']} digest={result['digest'][:16]}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}")
    print(json.dumps(contract_line(result, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
