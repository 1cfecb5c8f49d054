"""Cold capacity of the ``fleet_mixed`` fleet beside its read lane.

    python3 perfbench/capacity.py --seed 1 --depth 8

Boots the fleet ``fleet_mixed`` measures (journaled router, two peered
``serve --workers 2`` runners, all on one CPU as in the benchmark),
runs one closed-loop read lane on the cached set, and on the other lane
keeps ``--depth`` of the fleet's cold jobs outstanding, polled as
``ReproClient.run_flow`` polls.  It prints the cold jobs completed per
second from ``RAMP_S`` after the start until the stream of cold jobs
runs out; ``workloads.FLEET_COLD_RATE`` is set from this figure.  Cold
results are not checked here; reads are.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: seconds left out at the start, while the runners start their flow
#: worker processes
RAMP_S = 5.0
#: length of the read lane and cap on the cold lane (one stream of cold
#: jobs runs out after about 20 s at the measured rate)
SECONDS = 30.0


def saturate(client, specs, depth: int, deadline: float):
    """Keep ``depth`` jobs outstanding until ``deadline`` or the last
    spec is submitted; return the completion times and the time the
    queue stopped being kept full."""
    from repro.service.scheduler import JobResultPending

    pending = iter(specs)
    outstanding = {}                 # job id -> time of its next poll
    done = []
    while time.perf_counter() < deadline:
        for spec in itertools.islice(pending, depth - len(outstanding)):
            outstanding[client.submit(**spec)["id"]] = time.perf_counter()
        if len(outstanding) < depth:
            break                    # specs exhausted
        for job_id, poll_at in list(outstanding.items()):
            if poll_at > time.perf_counter():
                continue
            try:
                client.result(job_id)
            except JobResultPending:
                outstanding[job_id] = (time.perf_counter()
                                       + client.poll_interval_s)
                continue
            del outstanding[job_id]
            done.append(time.perf_counter())
        wait = min(outstanding.values()) - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
    return done, time.perf_counter()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--depth", type=int, default=8)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import jobs, procs
    from perfbench.loadgen import LoadGen, Tally, closed_loop, \
        counting_client
    from perfbench.workloads import DRAWS, Run, _boot_fleet, reference

    procs.check_environment()
    procs.clear_repro_env()
    procs.pin()
    run = Run(ROOT, args.seed, SECONDS, False)
    try:
        warm = jobs.warm_set(args.seed, "fleet-read")
        ref_cache = run.path("refcache")
        refs = reference(warm, ref_cache)
        fleet = _boot_fleet(run, ref_cache, warm, refs, False, Tally())
        reads, out = Tally(), []
        gen = LoadGen(procs.nproc())
        start = time.perf_counter()
        deadline = start + SECONDS
        gen.lane(lambda: closed_loop(
            counting_client(fleet.front.url, reads),
            jobs.skewed_draw(warm, args.seed, "lane0", DRAWS), refs,
            reads, deadline=deadline), "reader")
        # one stream of cold jobs, as fresh as the benchmark's: a later
        # stream would repeat its workload sizes and reuse profiles
        gen.lane(lambda: out.extend(saturate(
            counting_client(fleet.front.url, Tally()),
            jobs.fleet_cold_jobs(args.seed, "capacity"),
            args.depth, deadline)), "writer")
        gen.join(SECONDS + 120)
    finally:
        run.close()
    done, full_until = out
    window = full_until - (start + RAMP_S)
    print(json.dumps({
        "cold_per_s": sum(start + RAMP_S <= t <= full_until
                          for t in done) / window,
        "window_s": window,
        "reads_per_s": len(reads.latencies) / SECONDS,
        "read_failures": reads.failed + reads.wrong,
        "depth": args.depth,
        "machine": procs.fingerprint(ROOT),
    }))
    return 0


if __name__ == "__main__":
    sys.path[0] = ROOT
    sys.exit(main())
