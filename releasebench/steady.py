"""Steadiness report: run one workload k times and summarise each metric.

    python3 releasebench/steady.py --workload cold_release --runs 5
    python3 releasebench/steady.py --workload served_append --runs 10 --vary-seed
    python3 releasebench/steady.py --workload warm_release --runs 3 --traced

For every end-to-end metric it prints the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``), the spread (quartile
distance over the median) and that spread as a share of the metric's bound
in ``BENCHMARK.json``; ``!`` marks a spread above a third of its bound.

By default every run uses the same seed, so ``fm_runs_per_release`` and
``released_population_mean`` must repeat exactly; a run where either does
not is flagged.  ``--vary-seed`` gives run i the seed ``seed + i``, as a
set of runs across seeds would.  ``--traced`` adds one traced run and
prints its per-layer metrics and the tracing overhead: traced minus
untraced ``release_p50_ms`` on the same seed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("fm_runs_per_release", "released_population_mean")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (exit {proc.returncode}):\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    detail = json.loads(lines[-2][len("DETAIL "):])
    return {"detail": detail, "result": json.loads(lines[-1])}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--vary-seed", action="store_true")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]

    runs = []
    for i in range(args.runs):
        seed = args.seed + i if args.vary_seed else args.seed
        runs.append(run_once(args.workload, seed, seconds, 0))
        result = runs[-1]["result"]
        print(
            f"run {i + 1}/{args.runs} seed {seed}: correct={result['correct']} "
            f"attempted={result['attempted']} failed={result['failed']}",
            flush=True,
        )

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':>26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
    for metric in spec["end_to_end"]:
        values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
        median, q1, q3, rel = spread(values)
        share = rel / metric["bound"]
        mark = " !" if share > 1 / 3 and metric["name"] != "setup_s" else ""
        print(f"{metric['name']:>26} {median:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f} {share:7.3f}{mark}")
        print(f"{'':>26} runs: {' '.join(f'{v:.4g}' for v in values)}")
    for name in ("fm_runs_per_release", "append_p50_ms"):
        values = [r["detail"]["extra"][name] for r in runs]
        if any(values):
            median, q1, q3, rel = spread(values)
            print(f"{name:>26} {median:12.4f} {q1:12.4f} {q3:12.4f} {rel:8.4f}")
    shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
    print(f"failed/attempted per run: {sorted(shares)}")

    if not args.vary_seed:
        for name in EXACT:
            first = _exact(runs[0], name)
            for i, r in enumerate(runs[1:], start=2):
                if _exact(r, name) != first:
                    print(f"FLAG run {i}: {name} = {_exact(r, name)!r}, run 1 had {first!r}")

    if args.traced:
        traced = run_once(args.workload, args.seed, seconds, 1)
        print("\nper-layer metrics (traced run):")
        for name, metric in traced["result"]["metrics"].items():
            print(f"{name:>28} {metric['value']:14.4f} {metric['unit']}")
        untraced = statistics.median(
            r["result"]["metrics"]["release_p50_ms"]["value"]
            for r in runs
            if r["detail"]["seed"] == args.seed
        )
        with_trace = traced["detail"]["metrics"]["release_p50_ms"]
        print(
            f"tracing overhead: release_p50_ms {with_trace:.3f} traced - "
            f"{untraced:.3f} untraced = {with_trace - untraced:+.3f} ms"
        )
    return 0


def _exact(run: dict, name: str):
    if name in run["result"]["metrics"]:
        return run["result"]["metrics"][name]["value"]
    return run["detail"]["extra"][name]


if __name__ == "__main__":
    sys.exit(main())
