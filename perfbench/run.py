"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload design_cold --seed 1 --seconds 20 --trace 0

Run from the repository root.  ``--trace 0`` prints every end-to-end
metric; ``--trace 1`` makes a traced run and prints the per-layer
metrics (the self-time table, whose rows add up to the traced lane
time).  The last line of standard output is the result as JSON::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The run also writes the machine fingerprint, metrics and self-time
table to ``.perfbench/results/``.  It exits 1 when any result was wrong
and 2 when it cannot run at all (no program, a forbidden environment
variable, a process that would not start).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: a run that has not finished by then is killed (the contract is 180 s)
HARD_LIMIT_S = 170


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout(f"run exceeded {HARD_LIMIT_S}s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design_cold", "serve_warm", "fleet_mixed"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import procs
    from perfbench.workloads import WORKLOADS, Run

    try:
        procs.check_environment()
    except procs.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    procs.clear_repro_env()
    procs.pin()
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(HARD_LIMIT_S)
    run = Run(ROOT, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    try:
        outcome = WORKLOADS[args.workload](run)
    except (procs.BenchError, _Timeout) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 2
    finally:
        signal.alarm(0)
        run.close()

    correct = outcome.failed == 0 and outcome.attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "elapsed_s": time.perf_counter() - started,
        "machine": procs.fingerprint(ROOT),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in outcome.metrics.items()},
        "self_time_ms": {k: v * 1000.0 for k, v in outcome.table.items()},
        "errors": outcome.errors,
    }
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh, indent=2)

    print(f"machine: {json.dumps(record['machine'])}")
    for metric, (value, unit) in outcome.metrics.items():
        print(f"{args.workload:12s} {metric:28s} {value:14.4f} {unit}")
    if outcome.table:
        wall = sum(outcome.table.values())
        print(f"self-time table ({args.workload}), rows sum to "
              f"{wall * 1000:.1f} ms of lane time:")
        for layer, value in sorted(outcome.table.items(),
                                   key=lambda kv: -kv[1]):
            print(f"  {layer:18s} {value * 1000:12.1f} ms "
                  f"{100 * value / wall if wall else 0:6.1f}%")
    for error in outcome.errors:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.path[0] = ROOT
    sys.exit(main())
