"""One workload in a fresh interpreter; started by ``run.py``.

Protocol on stdout: ``READY`` once the program's set-up is done (the
parent times set-up up to this line); then, after the parent writes a line
to stdin, the timed phase runs and the last line is ``RESULT <json>``.
With ``--chunks N`` the timed phase stops ``N - 1`` times, printing
``PAUSED`` and waiting for another line on stdin (see ``Pacer``).  With
``--setup-only`` the worker tears down and exits after ``READY``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--chunks", type=int, default=1)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, Pacer

    workload = WORKLOADS[args.workload]()
    # The program's set-up: ``import repro`` happens inside.
    workload.setup()
    print("READY", flush=True)
    try:
        if args.setup_only:
            return 0
        sys.stdin.readline()
        tracer = None
        if args.trace:
            from tracing import Tracer

            tracer = Tracer().install()
        run = workload.run(args.seed, Pacer(args.seconds, args.chunks), tracer)
        report = run.report(tracer)
    finally:
        workload.teardown()
    print("RESULT " + json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
