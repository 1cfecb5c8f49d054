"""Load generation: closed-loop and open-loop lanes on capped threads.

All load comes from one process.  A :class:`LoadGen` runs at most
``max_threads`` lanes (``nproc`` by default), one thread each, and a
lane makes one request at a time over the one-request-per-connection
HTTP client, so the benchmark never holds more threads or connections
than the machine has cores.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench.compare import fingerprint, mismatches

#: seconds between steal samples while lanes run
STEAL_SAMPLE_S = 0.1


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100)."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def run_stats(latencies: Sequence[float], wall_s: float
              ) -> Tuple[float, float, float]:
    """``(per second, p50, p90)`` of a whole run's latencies."""
    return (len(latencies) / wall_s, percentile(latencies, 50),
            percentile(latencies, 90))


_CLOCK_TICKS = (os.sysconf("SC_CLK_TCK")
                if hasattr(os, "sysconf") else 100)


def steal_seconds(cpu: int) -> Optional[float]:
    """CPU time the hypervisor has so far given to other guests instead
    of CPU ``cpu`` (its ``steal`` column in ``/proc/stat``), or ``None``
    where the system does not report it."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == f"cpu{cpu}":
                    return int(fields[8]) / _CLOCK_TICKS
    except (OSError, IndexError, ValueError):
        pass
    return None


def stolen_seconds() -> Optional[float]:
    """:func:`steal_seconds` of the one CPU this process is pinned to
    (``procs.pin``), or ``None`` when it may run on more."""
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:
        return None
    return steal_seconds(next(iter(cpus))) if len(cpus) == 1 else None


def stolen_between(samples: Sequence[Tuple[float, float]], t0: float,
                   t1: float) -> float:
    """Steal between ``t0`` and ``t1``, interpolated from
    ``(perf_counter, stolen_seconds())`` samples (0 without two)."""
    if len(samples) < 2:
        return 0.0
    times = [s[0] for s in samples]

    def at(t):
        i = min(max(bisect.bisect_left(times, t), 1), len(samples) - 1)
        (ta, sa), (tb, sb) = samples[i - 1], samples[i]
        if tb <= ta:
            return sb
        return sa + (sb - sa) * min(max((t - ta) / (tb - ta), 0.0), 1.0)
    return at(t1) - at(t0)


def windowed_stats(tallies: Sequence["Tally"], start: float,
                   seconds: float, window_s: float = 1.0,
                   steal: Sequence[Tuple[float, float]] = ()
                   ) -> Tuple[float, float, float]:
    """``(per second, p50, p90)`` of fast requests, each the median over
    the run's whole ``window_s`` windows of that window's figure, on
    the time the hypervisor left the benchmark's CPU.

    The ``steal`` samples give the CPU time the host took from that CPU
    in each window.  Everything under test runs on that one CPU and the
    closed-loop lanes keep it busy, so stealing a share of a window
    slows the window's requests by that share: the window's rate is
    taken over its unstolen time and its latencies are scaled by the
    unstolen share.  A host that stalls the machine for a few seconds
    spoils a few windows, not the run; a change that slows every
    request moves every window.
    """
    windows: Dict[int, List[float]] = {}
    whole = int(seconds // window_s)
    for tally in tallies:
        for latency, end in zip(tally.latencies, tally.ends):
            index = int((end - start) // window_s)
            if 0 <= index < whole:
                windows.setdefault(index, []).append(latency)
    rates, p50s, p90s = [], [], []
    for index in range(whole):
        row = windows.get(index, [])
        unstolen = window_s - stolen_between(
            steal, start + index * window_s, start + (index + 1) * window_s)
        if unstolen <= 0:
            continue
        rates.append(len(row) / unstolen)
        if row:
            share = unstolen / window_s
            p50s.append(percentile(row, 50) * share)
            p90s.append(percentile(row, 90) * share)
    if not p50s:
        raise ValueError("no request completed within a whole window")
    return median(rates), median(p50s), median(p90s)


class Tally:
    """What one lane observed: latencies, failures, wrong results."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        #: completion time (``perf_counter``) of each latency
        self.ends: List[float] = []
        self.failed = 0
        self.wrong = 0
        self.retries = 0
        self.errors: List[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.failed

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, got, want_fp: Tuple, what: str) -> None:
        diff = mismatches(fingerprint(got), want_fp)
        if diff:
            self.wrong += 1
            if len(self.errors) < 5:
                self.errors.append(f"{what}: {'; '.join(diff[:3])}")


class LoadGen:
    """Runs lanes on at most ``max_threads`` threads."""

    def __init__(self, max_threads: int):
        self.max_threads = max_threads
        self._threads: List[threading.Thread] = []
        self._failures: List[BaseException] = []
        #: ``(perf_counter, stolen_seconds())`` taken while lanes ran
        self.steal: List[Tuple[float, float]] = []

    def lane(self, fn: Callable[[], None], name: str) -> None:
        if len(self._threads) >= self.max_threads:
            raise RuntimeError(f"load generator capped at "
                               f"{self.max_threads} threads")

        def body():
            try:
                fn()
            except BaseException as exc:      # noqa: BLE001 - re-raised
                self._failures.append(exc)

        thread = threading.Thread(target=body, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def join(self, timeout_s: float) -> None:
        """Wait for every lane, sampling :func:`stolen_seconds` into
        ``self.steal`` every ``STEAL_SAMPLE_S`` while they run."""
        deadline = time.monotonic() + timeout_s
        self._sample()
        for thread in self._threads:
            while thread.is_alive() and time.monotonic() < deadline:
                thread.join(min(STEAL_SAMPLE_S, max(0.0,
                                              deadline - time.monotonic())))
                self._sample()
            if thread.is_alive():
                raise RuntimeError(f"lane {thread.name} did not finish "
                                   f"within {timeout_s}s")
        if self._failures:
            raise self._failures[0]

    def _sample(self) -> None:
        steal = stolen_seconds()
        if steal is not None:
            self.steal.append((time.perf_counter(), steal))


def counting_client(url: str, tally: Tally):
    """A ``ReproClient`` whose retries are counted in ``tally``.

    Every retry (after a connect error or a retryable refusal) draws
    its delay from ``_jittered``, once; ``run_flow``'s result polls
    sleep a fixed interval and are not counted.
    """
    from repro.client import ReproClient

    client = ReproClient(url, timeout_s=60.0, max_wait_s=120.0)
    jittered = client._jittered

    def counted(delay: float) -> float:
        tally.retries += 1
        return jittered(delay)

    client._jittered = counted
    return client


def closed_loop(client, specs: Sequence[Dict], refs: Dict[str, Tuple],
                tally: Tally, deadline: Optional[float] = None,
                count: Optional[int] = None) -> None:
    """Call ``run_flow`` on ``specs`` in order, one at a time, until the
    deadline passes or ``count`` calls were made; check each result
    against ``refs`` (fingerprints keyed by :func:`spec_key`)."""
    clock = time.perf_counter
    for i, spec in enumerate(specs):
        if count is not None and i >= count:
            return
        if count is None and clock() >= deadline:
            return
        t0 = clock()
        try:
            record = client.run_flow(**spec)
        except Exception as exc:              # noqa: BLE001 - counted
            tally.fail(f"{spec}: {exc!r}")
            continue
        end = clock()
        tally.latencies.append(end - t0)
        tally.ends.append(end)
        tally.check(record, refs[spec_key(spec)], f"read {spec}")
    if count is not None and count > len(specs):
        raise RuntimeError("closed loop ran out of specs")


def open_loop(client, schedule: Sequence[Tuple[float, Dict]],
              refs: Dict[str, Tuple], tally: Tally, start: float,
              lateness: List[float], drain_s: float = 60.0) -> None:
    """Submit each ``(due, spec)`` at ``start + due`` regardless of what
    is outstanding, and time each job from when it was due to when the
    fleet finished it.

    Each outstanding job is polled as ``ReproClient.run_flow`` polls
    it: once right after the submit, then ``client.poll_interval_s``
    after each pending answer, so the fleet sees the requests a real
    client would send.  The finish time is the job record's
    ``created_s + wall_s`` (the same machine's clock), read once the
    result is in: a poll only bounds it to within an interval, and a
    client following the job's event stream sees the finish itself.
    """
    from repro.service.scheduler import JobResultPending

    clock = time.perf_counter
    interval = client.poll_interval_s
    wall_start = start + (time.time() - clock())
    #: job id -> (spec, due, time of its next poll)
    outstanding: Dict[str, Tuple[Dict, float, float]] = {}
    i = 0
    give_up = None
    while i < len(schedule) or outstanding:
        now = clock()
        if i < len(schedule) and start + schedule[i][0] <= now:
            due, spec = schedule[i]
            i += 1
            lateness.append(now - (start + due))
            try:
                job_id = client.submit(**spec)["id"]
                outstanding[job_id] = (spec, due, clock())
            except Exception as exc:          # noqa: BLE001 - counted
                tally.fail(f"submit {spec}: {exc!r}")
            continue
        if i >= len(schedule):
            give_up = give_up or now + drain_s
            if now > give_up:
                for spec, *_ in outstanding.values():
                    tally.fail(f"{spec}: no result within {drain_s}s")
                return
        for job_id, (spec, due, poll_at) in list(outstanding.items()):
            if poll_at > clock():
                continue
            try:
                record = client.result(job_id)
                job = client.status(job_id)
                finished = job["created_s"] + job["wall_s"]
            except JobResultPending:
                outstanding[job_id] = (spec, due, clock() + interval)
                continue
            except Exception as exc:          # noqa: BLE001 - counted
                del outstanding[job_id]
                tally.fail(f"{spec}: {exc!r}")
                continue
            del outstanding[job_id]
            latency = finished - (wall_start + due)
            tally.latencies.append(latency)
            tally.ends.append(start + due + latency)
            tally.check(record, refs[spec_key(spec)], f"cold {spec}")
        wake = [poll_at for _, _, poll_at in outstanding.values()]
        if i < len(schedule):
            wake.append(start + schedule[i][0])
        wait = min(wake, default=clock() + interval) - clock()
        if wait > 0:
            time.sleep(wait)


def spec_key(spec: Dict) -> str:
    return f"{spec['app']}/{spec['mode']}/{spec['scale']}"
