"""The PCOR release benchmark: run one workload and print its metrics.

    python3 releasebench/run.py --workload cold_release --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workload runs in a fresh interpreter
(``worker.py``), so ``setup_s`` covers everything from interpreter start to
the first timed release, ``import repro`` included.  An untraced run sets
the program up ``SETUPS`` times and reports the median: the timed worker's
own set-up, and set-up-only workers started while the timed phase is paused
between its chunks, so the timed phase spans the whole run.  ``--trace 1`` wraps the program's public calls
in timing spans and reports the per-layer metrics instead.

The metric names, units and the split into end-to-end and per-layer
metrics come from ``BENCHMARK.json`` at the repository root.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it, ``DETAIL <json>``, holds
the per-operation counts and the workload-only figures.  The exit code is
not 0 when the workload could not run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_release", "warm_release", "served_append")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: Every process this run starts is killed after this many seconds.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


class Worker:
    """One ``worker.py`` process, killed at the run's deadline."""

    def __init__(self, args, deadline: float, chunks: int = 1, setup_only: bool = False):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--chunks", str(chunks),
        ]
        if setup_only:
            cmd.append("--setup-only")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )
        self.timer = threading.Timer(max(0.0, deadline - started), self.proc.kill)
        self.timer.start()
        line = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - started
        if line.strip() != "READY":
            self.finish()
            raise BenchError(f"{args.workload} set-up failed (exit code {self.proc.returncode})")

    def resume(self) -> str:
        """Let the worker go on; its next line (``PAUSED`` or the result)."""
        self.proc.stdin.write("GO\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def finish(self) -> str:
        """Wait for the worker to end; its remaining stdout."""
        try:
            out, _ = self.proc.communicate()
        finally:
            self.timer.cancel()
        return out


def load_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def run(args) -> dict:
    end_to_end, per_layer = load_metrics()
    deadline = time.perf_counter() + DEADLINE_S
    # An untraced run times SETUPS set-ups: the timed worker's own, and the
    # set-up-only workers run while the timed phase is paused between its
    # chunks.
    setups_wanted = 1 if args.trace else SETUPS
    worker = Worker(args, deadline, chunks=setups_wanted)
    setups = [worker.setup_s]
    line = worker.resume()
    while line.strip() == "PAUSED":
        if len(setups) < setups_wanted:
            extra = Worker(args, deadline, setup_only=True)
            extra.finish()
            setups.append(extra.setup_s)
        line = worker.resume()
    out = line + worker.finish()
    if worker.proc.returncode != 0:
        raise BenchError(f"{args.workload} failed (exit code {worker.proc.returncode})")
    lines = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if not lines:
        raise BenchError(f"{args.workload} printed no result")
    report = json.loads(lines[-1][len("RESULT "):])
    while len(setups) < setups_wanted:
        extra = Worker(args, deadline, setup_only=True)
        extra.finish()
        setups.append(extra.setup_s)
    if not args.trace:
        report["metrics"]["setup_s"] = statistics.median(setups)
    measured = report["per_layer"] if args.trace else report["metrics"]
    wanted = per_layer if args.trace else end_to_end
    metrics = {}
    for metric in wanted:
        if metric["name"] not in measured:
            raise BenchError(f"{args.workload} did not measure {metric['name']}")
        metrics[metric["name"]] = {"value": measured[metric["name"]], "unit": metric["unit"]}
    ops = report["ops"]
    return {
        "detail": {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "setups_s": setups,
            "ops": ops,
            "metrics": report["metrics"],
            "extra": report["extra"],
            "problems": report["problems"],
        },
        "result": {
            "correct": bool(report["correct"]),
            "attempted": sum(kind["attempted"] for kind in ops.values()),
            "failed": sum(kind["failed"] for kind in ops.values()),
            "metrics": metrics,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; re-check with 2)")
    parser.add_argument("--seconds", type=float, default=20.0, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args)
    except BenchError as exc:
        print(f"releasebench: {exc}", file=sys.stderr)
        return 1
    detail, result = outcome["detail"], outcome["result"]
    for kind, ops in detail["ops"].items():
        print(f"{kind:>8}: {ops['attempted']} attempted, {ops['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"{name:>28} {metric['value']:14.4f} {metric['unit']}")
    for problem in detail["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print("DETAIL " + json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
