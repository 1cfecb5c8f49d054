"""The three workloads: ``design_cold``, ``serve_warm``, ``fleet_mixed``.

Each workload function takes a :class:`Run` and returns an
:class:`Outcome`.  An untraced run sets up ``SETUP_TRIALS`` times
(keeping the last set-up for measurement), measures for ``seconds`` and
reports the end-to-end metrics.  A traced run makes an untraced pass
over half the time, then repeats the same requests with every process
under test traced, and reports the per-layer metrics.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from perfbench import jobs, layers, tracing
from perfbench.compare import fingerprint
from perfbench.loadgen import (LoadGen, Tally, closed_loop, counting_client,
                               median, open_loop, percentile, run_stats,
                               spec_key, stolen_between, windowed_stats)
from perfbench.procs import (BenchError, Proc, free_port, nproc,
                             parse_prometheus, python_argv, read_json_line,
                             scrape)

#: set-ups per untraced run; ``setup_s`` is their median
SETUP_TRIALS = 3
#: re-reads of already-generated results from the result cache (file,
#: checksum, decode) per cold flow
REREADS = 4
#: cold jobs whose designs are run against the numpy oracle
ORACLE_SAMPLE = 2
#: fleet_mixed cold-job arrival rate, 13-30% of the fleet's cold
#: capacity beside one read lane: ``perfbench/capacity.py`` measured
#: 3.2-3.8 jobs/s on one CPU of a 2-vCPU Xeon VM while its host was
#: busy, and 7.5 when it was calm.  At 1.6 jobs/s the cold jobs
#: overlapped so often that their p50 spread 23% between runs.  A run
#: takes whole blocks of jobs at this rate (``jobs.cold_count``): 30
#: jobs in 30 s.
FLEET_COLD_RATE = 1.0
#: flow workers per fleet runner; more than one runs flows in worker
#: processes, off the interpreter lock of the runner's request loop
FLEET_WORKERS = 2
#: closed-loop draws generated per lane (far more than a run uses)
DRAWS = 200_000


class Run:
    """One benchmark invocation: seed, duration, scratch space, children."""

    def __init__(self, root: str, seed: int, seconds: float, traced: bool):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.tmp = os.path.join(root, ".perfbench", "tmp",
                                f"{os.getpid()}")
        self._n = itertools.count()
        self.trace_dir = self.path("trace")
        os.makedirs(self.trace_dir)
        self.procs: List[Proc] = []
        self.local_tracer: Optional[tracing.Tracer] = None

    def path(self, name: str) -> str:
        return os.path.join(self.tmp, f"{name}-{next(self._n)}")

    def launch(self, args: List[str], traced: bool, port: int) -> Proc:
        env = {"PERFBENCH_TRACE_DIR": self.trace_dir} if traced else None
        proc = Proc(python_argv(self.root, traced, args), self.root,
                    env=env, url=f"http://127.0.0.1:{port}",
                    log_path=self.path("log"))
        self.procs.append(proc)
        return proc

    def stop(self, procs: List[Proc]) -> None:
        for proc in reversed(procs):
            proc.stop()
            self.procs.remove(proc)

    def close(self) -> None:
        self.stop(list(self.procs))
        shutil.rmtree(self.tmp, ignore_errors=True)

    def trace_locally(self) -> tracing.Tracer:
        """Trace this process's client layers (once; wrappers stay)."""
        if self.local_tracer is None:
            from perfbench.node import start_tracing
            self.local_tracer = start_tracing()
        return self.local_tracer


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.table: Dict[str, float] = {}

    def add(self, tally: Tally) -> None:
        self.attempted += tally.attempted
        self.failed += tally.failed + tally.wrong
        self.errors.extend(tally.errors)


# ----------------------------------------------------------------------
# Shared pieces
# ----------------------------------------------------------------------

def _ms(seconds: float) -> float:
    return seconds * 1000.0


def end_to_end(setups: List[float], flows: Tuple[float, float, float],
               warm: Tuple[float, float, float],
               rss_mb: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics; ``flows`` and ``warm`` are ``(per
    second, p50, p90)`` in seconds (see :mod:`perfbench.loadgen`)."""
    return {
        "setup_s": (median(setups), "s"),
        "flows_per_s": (flows[0], "1/s"),
        "flow_p50_ms": (_ms(flows[1]), "ms"),
        "flow_p90_ms": (_ms(flows[2]), "ms"),
        "warm_rps": (warm[0], "1/s"),
        "warm_p50_ms": (_ms(warm[1]), "ms"),
        "warm_p90_ms": (_ms(warm[2]), "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def reference(specs: List[Dict], cache_dir: Optional[str]
              ) -> Dict[str, Tuple]:
    """Fingerprints of a library run of every spec (the oracle the
    served results are compared with), on ``nproc`` pool workers; with
    ``cache_dir`` the results also land in that cache, ready to be
    served."""
    import repro.api as api
    from repro.service import FlowJob

    with api.open_service(workers=nproc(), cache_dir=cache_dir) as service:
        submitted = [(spec, service.submit(FlowJob(**spec)))
                     for spec in specs]
        return {spec_key(spec): fingerprint(pending.result())
                for spec, pending in submitted}


def _delta(before, after, name, label=""):
    return (sum(v for lab, v in after.get(name, ()) if label in lab)
            - sum(v for lab, v in before.get(name, ()) if label in lab))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _result_bytes(cache_dirs: List[str]) -> float:
    sizes = []
    for cache in cache_dirs:
        for dirpath, _, names in os.walk(cache):
            if os.path.basename(dirpath).startswith("."):
                continue
            # entries are named "<64 hex digits of the key>.json"
            sizes += [os.path.getsize(os.path.join(dirpath, n))
                      for n in names if n.endswith(".json")
                      and len(n) == 69]
    return sum(sizes) / len(sizes) if sizes else 0.0


def per_layer(merged: Dict, lane_s: float, prom: List[Tuple[Dict, Dict]],
              extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """The traced run's per-layer metrics.

    ``merged`` is the summed tracer delta of every traced process,
    ``lane_s`` the summed latency of every timed request, ``prom`` the
    (before, after) Prometheus samples of every process under test.
    """
    table = tracing.self_time_table(merged, lane_s)
    out: Dict[str, Tuple[float, str]] = {}
    for layer, metric in layers.ROW_METRICS.items():
        out[metric] = (_ms(table.get(layer, 0.0)), "ms")

    def d(name, label=""):
        return sum(_delta(b, a, name, label) for b, a in prom)

    hits = d("repro_profile_cache_total", 'tier="memory"') + d(
        "repro_profile_cache_total", 'tier="disk"')
    cache_hits = d("repro_service_events_total", "cache_hit")
    calls = merged["calls"]
    out.update({
        "meta.parse.calls": (calls.get("meta.parse", 0), "count"),
        "lang.exec.calls": (d("repro_exec_total"), "count"),
        "lang.exec.fallbacks": (d("repro_exec_fallback_total"), "count"),
        "analysis.profile.hit_ratio": (
            _ratio(hits, hits + d("repro_profile_cache_total",
                                  'tier="miss"')), "ratio"),
        "transforms.calls": (calls.get("transforms", 0), "count"),
        "flow.dse.points": (d("repro_dse_points_total"), "count"),
        "cache.hit_ratio": (_ratio(cache_hits, cache_hits + d(
            "repro_service_events_total", "cache_miss")), "ratio"),
        "service.queue_wait_ms": (_ms(_ratio(
            d("repro_scheduler_queue_wait_seconds_sum"),
            d("repro_scheduler_queue_wait_seconds_count"))), "ms"),
        "service.dedup_joins": (d("repro_scheduler_dedup_joins_total"),
                                "count"),
        "fleet.steals": (d("repro_fleet_steals_total"), "count"),
        "fleet.reroutes": (d("repro_fleet_reroutes_total"), "count"),
        "fleet.peer_fetches": (d("repro_fleet_peer_fetch_total"), "count"),
        "fleet.journal_records": (d("repro_journal_records_total"),
                                  "count"),
        "fleet.journal_fsyncs": (d("repro_journal_fsyncs_total"), "count"),
        "other.self_ms": (_ms(table["other"]), "ms"),
        "trace.wall_ms": (_ms(lane_s), "ms"),
    })
    defaults = {name: (0.0, unit) for name, unit, *_ in layers.METRICS}
    defaults.update(out)
    for name, value in extra.items():
        defaults[name] = (value, defaults[name][1])
    return defaults


def _request_delta(before: Dict, after: Dict, name: str,
                   label: str = "") -> float:
    """Delta of ``name`` over request routes: probes and scrapes of
    the benchmark and the router are left out."""
    def total(samples):
        return sum(v for labels, v in samples.get(name, ())
                   if label in labels and not any(
                       f'route="{r}"' in labels
                       for r in layers.BACKGROUND_ROUTES))
    return total(after) - total(before)


def _http_extra(backends: List[Proc], prom_front: Tuple[Dict, Dict],
                prom_backends: List[Tuple[Dict, Dict]],
                jobs_done: int) -> Dict[str, float]:
    """HTTP-layer metrics: requests at the front door, server-side time
    on the processes that serve designs, and ``/healthz`` latency."""
    import urllib.request

    def front(status=""):
        return _request_delta(*prom_front, "repro_http_requests_total",
                              status)

    server_s = sum(_request_delta(b, a, "repro_http_request_seconds_sum")
                   for b, a in prom_backends)
    served = sum(_request_delta(b, a, "repro_http_request_seconds_count")
                 for b, a in prom_backends)
    healthz = []
    for _ in range(20):
        t0 = time.perf_counter()
        with urllib.request.urlopen(backends[0].url + "/healthz",
                                    timeout=10) as resp:
            resp.read()
        healthz.append(time.perf_counter() - t0)
    return {
        "http.requests_per_job": _ratio(front(), jobs_done),
        "http.refused": front('status="429"') + front('status="503"'),
        "http.server_ms": _ms(_ratio(server_s, served)),
        "http.healthz_ms": _ms(median(healthz)),
    }


# ----------------------------------------------------------------------
# design_cold
# ----------------------------------------------------------------------

def _cold_worker(run: Run, traced: bool) -> Tuple[Proc, float, Dict]:
    cache = run.path("cache")
    argv = [sys.executable,
            os.path.join(run.root, "perfbench", "cold_worker.py"),
            cache, "1" if traced else "0"]
    proc = Proc(argv, run.root, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, log_path=run.path("log"))
    run.procs.append(proc)
    ready = read_json_line(proc.popen.stdout, "cold worker set-up")
    return proc, time.perf_counter() - proc.started, ready


def _send(proc: Proc, obj: Dict) -> None:
    proc.popen.stdin.write((json.dumps(obj) + "\n").encode())
    proc.popen.stdin.flush()


def _cold_pass(run: Run, traced: bool, trials: int, seconds: float,
               max_jobs: Optional[int]):
    setups = []
    for trial in range(trials):
        proc, setup_s, ready = _cold_worker(run, traced)
        setups.append(setup_s)
        if trial < trials - 1:
            _send(proc, {"cmd": "exit"})
            run.stop([proc])
    specs = list(itertools.islice(jobs.cold_jobs(run.seed), 600))
    _send(proc, {"cmd": "run", "jobs": specs, "seconds": seconds,
                 "block": 2 * len(jobs.APPS),
                 "max_jobs": max_jobs, "rereads": REREADS,
                 "seed": run.seed,
                 "oracle": jobs.oracle_sample(run.seed, ORACLE_SAMPLE,
                                              limit=20)})
    out = read_json_line(proc.popen.stdout, "cold worker run")
    out["rss_mb"] = proc.peak_rss_mb()
    out["setups"] = setups
    out["import_s"] = ready["import_s"]
    out["cache_dir"] = proc.popen.args[2]
    _send(proc, {"cmd": "exit"})
    out["result_bytes"] = _result_bytes([out["cache_dir"]])
    run.stop([proc])
    return out


def _cold_outcome(out: Dict) -> Outcome:
    outcome = Outcome()
    outcome.attempted = len(out["cold_s"]) + len(out["warm_s"]) + len(
        out["errors"])
    outcome.failed = (len(out["errors"]) + out["warm_wrong"]
                      + len(out["oracle_failures"]))
    outcome.errors = out["errors"][:5] + out["oracle_failures"][:5]
    if out["warm_wrong"]:
        outcome.errors.append(f"{out['warm_wrong']} re-reads differed "
                              f"from the flow that generated them")
    if not out["oracle_checked"]:
        outcome.failed += 1
        outcome.errors.append("no design reached the oracle check")
    return outcome


def design_cold(run: Run) -> Outcome:
    if not run.traced:
        out = _cold_pass(run, False, SETUP_TRIALS, run.seconds, None)
        outcome = _cold_outcome(out)
        outcome.metrics = end_to_end(
            out["setups"], run_stats(out["cold_s"], out["wall_s"]),
            run_stats(out["warm_s"], out["wall_s"]), out["rss_mb"])
        return outcome
    plain = _cold_pass(run, False, 1, run.seconds / 2, None)
    traced = _cold_pass(run, True, 1, 0, len(plain["cold_s"]))
    outcome = _cold_outcome(traced)
    lane_s = sum(traced["cold_s"]) + sum(traced["warm_s"])
    merged = tracing.delta(traced["snap_before"], traced["snap_after"])
    prom = [(parse_prometheus(traced["metrics_before"]),
             parse_prometheus(traced["metrics_after"]))]
    outcome.metrics = per_layer(merged, lane_s, prom, {
        "startup.import_s": traced["import_s"],
        "startup.boot_s": plain["setups"][0],
        "serialize.result_bytes": traced["result_bytes"],
        "obs.trace_overhead_ratio": _ratio(
            lane_s, sum(plain["cold_s"]) + sum(plain["warm_s"])),
    })
    outcome.table = tracing.self_time_table(merged, lane_s)
    return outcome


# ----------------------------------------------------------------------
# serve_warm
# ----------------------------------------------------------------------

class Fleet:
    """The processes of one set-up: ``front`` takes the requests."""

    def __init__(self, front: Proc, procs: List[Proc], setup_s: float,
                 boot_s: float, caches: List[str]):
        self.front = front
        self.procs = procs
        self.setup_s = setup_s
        self.boot_s = boot_s
        self.caches = caches

    @property
    def backends(self) -> List[Proc]:
        return [p for p in self.procs if p is not self.front] or [self.front]

    def rss_mb(self) -> float:
        return sum(p.peak_rss_mb() for p in self.procs)


def _warm_up(url: str, specs: List[Dict], refs: Dict, tally: Tally) -> None:
    client = counting_client(url, tally)
    closed_loop(client, specs, refs, tally, count=len(specs))


def _copy_cache(run: Run, ref_cache: str) -> str:
    cache = run.path("cache")
    shutil.copytree(ref_cache, cache)
    return cache


def _boot_server(run: Run, ref_cache: str, warm: List[Dict], refs: Dict,
                 traced: bool, tally: Tally) -> Fleet:
    cache = _copy_cache(run, ref_cache)
    port = free_port()
    started = time.perf_counter()
    server = run.launch(["serve", "--host", "127.0.0.1", "--port",
                         str(port), "--workers", "1", "--cache-dir", cache],
                        traced, port)
    boot_s = server.wait_http()
    _warm_up(server.url, warm, refs, tally)
    return Fleet(server, [server], time.perf_counter() - started, boot_s,
                 [cache])


def _boot_fleet(run: Run, ref_cache: str, warm: List[Dict], refs: Dict,
                traced: bool, tally: Tally) -> Fleet:
    caches = [_copy_cache(run, ref_cache) for _ in range(2)]
    ports = [free_port() for _ in range(3)]
    urls = [f"http://127.0.0.1:{p}" for p in ports]
    started = time.perf_counter()
    runners = [run.launch(["serve", "--host", "127.0.0.1", "--port",
                           str(ports[i]), "--workers", str(FLEET_WORKERS),
                           "--cache-dir",
                           caches[i], "--peers", urls[1 - i]], traced,
                          ports[i]) for i in range(2)]
    for runner in runners:
        runner.wait_http()
    router = run.launch(["router", "--host", "127.0.0.1", "--port",
                         str(ports[2]), "--runners", ",".join(urls[:2]),
                         "--journal-dir", run.path("journal")], traced,
                        ports[2])
    boot_s = router.wait_http(
        ready=lambda h: h.get("fleet", {}).get("healthy") == 2)
    _warm_up(router.url, warm, refs, tally)
    return Fleet(router, [*runners, router], time.perf_counter() - started,
                 boot_s, caches)


def _snapshot(run: Run, fleet: Fleet, name: str) -> Dict:
    """Tracer snapshots by pid (this process under 0) and /metrics."""
    snaps = tracing.request_snapshots(run.trace_dir, name,
                                      [p.pid for p in fleet.procs])
    snaps[0] = run.local_tracer.snapshot()
    return {"snaps": snaps,
            "prom": [scrape(p.url, "/metrics?local=1") for p in fleet.procs]}


def _traced_metrics(run: Run, fleet: Fleet, before: Dict, after: Dict,
                    lane_s: float, jobs_done: int,
                    extra: Dict[str, float]) -> Tuple[Dict, Dict]:
    # a flow worker forked during the pass has no "before": it started
    # from zero
    merged = tracing.merge(
        tracing.delta(before["snaps"].get(pid, tracing.EMPTY), snap)
        for pid, snap in after["snaps"].items())
    prom = list(zip(before["prom"], after["prom"]))
    extra = dict(extra)
    extra.update(_http_extra(
        fleet.backends, prom[fleet.procs.index(fleet.front)],
        [pair for pair, p in zip(prom, fleet.procs) if p in fleet.backends],
        jobs_done))
    extra["startup.import_s"] = before["snaps"][fleet.front.pid]["import_s"]
    extra["serialize.result_bytes"] = _result_bytes(fleet.caches)
    metrics = per_layer(merged, lane_s, prom, extra)
    return metrics, tracing.self_time_table(merged, lane_s)


class _Pass:
    """What one pass of the lanes observed."""

    def __init__(self, reads: List[Tally], cold: Tally,
                 lateness: List[float], start: float, wall_s: float,
                 steal: List[Tuple[float, float]]):
        self.reads = reads
        self.cold = cold
        self.lateness = lateness
        self.start = start
        self.wall_s = wall_s
        self.steal = steal

    @property
    def tallies(self) -> List[Tally]:
        return [*self.reads, self.cold]

    def lane_s(self) -> float:
        return sum(sum(t.latencies) for t in self.tallies)


def _served(run: Run, boot: str, warm: List[Dict],
            schedule: List[Tuple[float, Dict]]) -> Outcome:
    """The body shared by ``serve_warm`` and ``fleet_mixed``.

    ``warm`` specs are served from a cache warmed before launch and read
    on closed-loop lanes (the ``warm_*`` figures).  With a ``schedule``
    of ``(due, spec)`` cold jobs, one lane submits them open-loop (the
    ``flow_*`` figures) while the other lanes keep reading.
    """
    outcome = Outcome()
    ref_cache = run.path("refcache")
    refs = reference(warm, ref_cache)
    refs.update(reference([spec for _, spec in schedule], None))
    readers = nproc() - 1 if schedule else nproc()
    draws = [jobs.skewed_draw(warm, run.seed, f"lane{i}", DRAWS)
             for i in range(readers)]

    def measure(fleet: Fleet, seconds: float, counts=None) -> _Pass:
        """One pass: closed-loop readers for ``seconds`` or ``counts``
        reads each, beside the open-loop ``schedule``."""
        reads = [Tally() for _ in range(readers)]
        cold, lateness = Tally(), []
        gen = LoadGen(nproc())
        start = time.perf_counter()
        for i in range(readers):
            client = counting_client(fleet.front.url, reads[i])
            gen.lane(lambda c=client, i=i: closed_loop(
                c, draws[i], refs, reads[i],
                deadline=None if counts else start + seconds,
                count=counts[i] if counts else None), f"reader{i}")
        if schedule:
            client = counting_client(fleet.front.url, cold)
            gen.lane(lambda: open_loop(client, schedule, refs, cold,
                                       start, lateness), "writer")
        gen.join(seconds + 150)
        return _Pass(reads, cold, lateness, start,
                     time.perf_counter() - start, gen.steal)

    boot_fn = _boot_fleet if boot == "fleet" else _boot_server
    warmup = Tally()
    if not run.traced:
        fleets = []
        for trial in range(SETUP_TRIALS):
            fleet = boot_fn(run, ref_cache, warm, refs, False, warmup)
            fleets.append(fleet)
            if trial < SETUP_TRIALS - 1:
                run.stop(fleet.procs)
        done = measure(fleet, run.seconds)
        warm_stats = windowed_stats(done.reads, done.start, run.seconds,
                                    steal=done.steal)
        # cold jobs share the CPU with the read lane, which keeps it
        # busy: the host's steal over a job's life delayed the job
        cold_s = [latency - stolen_between(done.steal, end - latency, end)
                  for latency, end in zip(done.cold.latencies,
                                          done.cold.ends)]
        flows = run_stats(cold_s, done.wall_s) if schedule else warm_stats
        outcome.metrics = end_to_end([f.setup_s for f in fleets], flows,
                                     warm_stats, fleet.rss_mb())
        run.stop(fleet.procs)
    else:
        fleet = boot_fn(run, ref_cache, warm, refs, False, warmup)
        plain = measure(fleet, run.seconds / 2)
        extra = {"startup.boot_s": fleet.boot_s}
        if boot == "fleet":
            extra["fleet.hop_ms"] = _hop_ms(fleet, warm)
        run.stop(fleet.procs)
        run.trace_locally()
        fleet = boot_fn(run, ref_cache, warm, refs, True, warmup)
        before = _snapshot(run, fleet, "start")
        done = measure(fleet, run.seconds / 2,
                       [t.attempted for t in plain.reads])
        after = _snapshot(run, fleet, "end")
        lane_s = done.lane_s()
        extra["obs.trace_overhead_ratio"] = _ratio(lane_s, plain.lane_s())
        extra["client.retries"] = sum(t.retries for t in done.tallies)
        if done.lateness:
            extra["loadgen.lateness_ms"] = _ms(percentile(done.lateness,
                                                          90))
        served = sum(len(t.latencies) for t in done.tallies)
        outcome.metrics, outcome.table = _traced_metrics(
            run, fleet, before, after, lane_s, served, extra)
        run.stop(fleet.procs)
    outcome.add(warmup)
    for tally in done.tallies:
        outcome.add(tally)
    return outcome


def _hop_ms(fleet: Fleet, warm: List[Dict], rounds: int = 3) -> float:
    """Routed minus direct-to-owner latency of cached ``run_flow`` calls
    on the same keys (medians)."""
    import urllib.error
    import urllib.request

    from repro.client import ReproClient
    from repro.service import FlowJob

    runners = [p for p in fleet.procs if p is not fleet.front]
    routed_client = ReproClient(fleet.front.url)
    routed, direct = [], []
    for spec in warm:
        key = FlowJob(**spec).key()
        owner = None
        for runner in runners:
            try:
                with urllib.request.urlopen(f"{runner.url}/v1/jobs/{key}",
                                            timeout=10):
                    owner = runner
                    break
            except urllib.error.HTTPError:
                continue
        if owner is None:
            raise BenchError(f"no runner owns cached job {spec}")
        owner_client = ReproClient(owner.url)
        for _ in range(rounds):
            for client, sink in ((routed_client, routed),
                                 (owner_client, direct)):
                t0 = time.perf_counter()
                client.run_flow(**spec)
                sink.append(time.perf_counter() - t0)
    return _ms(median(routed) - median(direct))


def serve_warm(run: Run) -> Outcome:
    return _served(run, "server", jobs.warm_set(run.seed), [])


def fleet_mixed(run: Run) -> Outcome:
    # a traced run measures each of its two passes for half the time
    seconds = run.seconds / 2 if run.traced else run.seconds
    offsets = jobs.arrival_offsets(
        run.seed, jobs.cold_count(FLEET_COLD_RATE, seconds), seconds)
    cold = jobs.fleet_cold_jobs(run.seed)
    return _served(run, "fleet", jobs.warm_set(run.seed, "fleet-read"),
                   list(zip(offsets, cold)))


WORKLOADS = {
    "design_cold": design_cold,
    "serve_warm": serve_warm,
    "fleet_mixed": fleet_mixed,
}
