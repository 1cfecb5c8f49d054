"""The ``design_cold`` process under test.

    python perfbench/cold_worker.py <cache_dir> <traced 0|1>

An in-process ``repro.api.open_service(workers=1, cache_dir=...)``
driven by one closed-loop client, timed on :func:`unstolen_clock`.  It speaks JSON lines with the
benchmark: after set-up (import, service, warm-up flows) it prints
``{"ready": ...}``; it then reads one command, either ``{"cmd": "exit"}``
or ``{"cmd": "run", ...}`` (job specs, seconds, block size, an optional
job count, cache re-reads per flow, seed and oracle sample), prints
the outcome, and exits on the next line it reads.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def oracle_failures(results, indices):
    """Run every synthesizable design of the sampled results against its
    app's numpy oracle; return (designs checked, failure messages)."""
    checked, failures = 0, []
    for i in indices:
        if i >= len(results):
            continue
        spec, result = results[i]
        app = result.app
        for design in result.designs:
            if not design.synthesizable:
                continue
            workload = app.workload(spec["scale"])
            try:
                design.ast.execute(workload)
                app.check_outputs(workload)
            except Exception as exc:          # noqa: BLE001 - reported
                failures.append(f"{design.label} @ {spec}: {exc}")
            checked += 1
    return checked, failures


def unstolen_clock():
    """A clock that stands still while the hypervisor runs other guests
    on this process's CPU.

    The process is pinned to one CPU and runs one flow at a time, all
    computation, so every tick stolen from that CPU is a tick the flow
    waited; the clock leaves it out.  Unpinned, it is ``perf_counter``.
    """
    from perfbench.loadgen import stolen_seconds

    if stolen_seconds() is None:
        return time.perf_counter
    return lambda: time.perf_counter() - stolen_seconds()


def run(service, cache_dir, cmd, tracer):
    from repro import obs
    from repro.service import FlowJob
    from repro.service.cache import ResultCache

    from perfbench.compare import fingerprint

    cache = ResultCache(cache_dir)
    rng = random.Random(f"{cmd['seed']}:reread")
    max_jobs = cmd.get("max_jobs")
    cold, warm, results, errors = [], [], [], []
    wrong = 0
    metrics_before = obs.REGISTRY.to_prometheus()
    snap_before = tracer.snapshot() if tracer else None
    clock = unstolen_clock()
    started = clock()
    deadline = started + cmd["seconds"]
    # however much the host steals, the run ends within 1.5 times its
    # length on the wall clock
    wall_limit = time.perf_counter() + 1.5 * cmd["seconds"]
    block = cmd["block"]
    for spec in cmd["jobs"]:
        # a timed run ends on a block boundary, so every run measures
        # the same mix of cheap and costly flows
        if (len(cold) >= max_jobs) if max_jobs is not None else (
                len(cold) % block == 0 and (
                    clock() >= deadline
                    or time.perf_counter() >= wall_limit)):
            break
        t0 = clock()
        try:
            result = service.run(FlowJob(**spec))
        except Exception as exc:              # noqa: BLE001 - counted
            errors.append(f"{spec}: {exc!r}")
            continue
        cold.append(clock() - t0)
        results.append((spec, result))
        for _ in range(cmd["rereads"]):
            # through the persisted entry (file, checksum, decode): the
            # service itself would hand back the object it holds
            i = rng.randrange(len(results))
            t0 = clock()
            again = cache.get(FlowJob(**results[i][0]).key())
            warm.append(clock() - t0)
            if again is None or fingerprint(again) != fingerprint(
                    results[i][1]):
                wrong += 1
    wall = clock() - started
    snap_after = tracer.snapshot() if tracer else None
    metrics_after = obs.REGISTRY.to_prometheus()
    checked, failures = oracle_failures(results, cmd["oracle"])
    return {"cold_s": cold, "warm_s": warm, "wall_s": wall,
            "errors": errors, "warm_wrong": wrong,
            "oracle_checked": checked, "oracle_failures": failures,
            "metrics_before": metrics_before,
            "metrics_after": metrics_after,
            "snap_before": snap_before, "snap_after": snap_after}


def main() -> None:
    cache_dir, traced = sys.argv[1], sys.argv[2] == "1"
    started = time.perf_counter()
    import repro.api as api
    from repro.service import FlowJob
    import_s = time.perf_counter() - started
    tracer = None
    if traced:
        from perfbench.node import start_tracing
        tracer = start_tracing()
    from perfbench.jobs import warmup_jobs

    service = api.open_service(workers=1, cache_dir=cache_dir)
    try:
        for spec in warmup_jobs():
            service.run(FlowJob(**spec))
        emit({"ready": True, "import_s": import_s})
        cmd = json.loads(sys.stdin.readline() or '{"cmd": "exit"}')
        if cmd["cmd"] == "run":
            emit(run(service, cache_dir, cmd, tracer))
            sys.stdin.readline()
    finally:
        service.close()


if __name__ == "__main__":
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    main()
