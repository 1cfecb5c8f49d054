"""The load generator stays within nproc threads and connections."""

import http.server
import threading
import time
import urllib.request

import pytest

from perfbench.loadgen import (LoadGen, Tally, closed_loop, counting_client,
                               open_loop, percentile, spec_key,
                               stolen_between, windowed_stats)
from perfbench.procs import nproc


class _Record:
    app_name, mode, selected_target, reference_time_s = "kmeans", "m", None, 1.0
    designs = ()


class _CountingHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        server = self.server
        with server.lock:
            server.active += 1
            server.peak = max(server.peak, server.active)
        time.sleep(0.002)
        self.send_response(200)
        self.send_header("Content-Length", "2")
        self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(b"{}")
        with server.lock:
            server.active -= 1

    def log_message(self, *args):
        pass


class _HttpClient:
    """Stands in for ReproClient: one blocking request per call, with
    the number of connections open across all clients counted."""

    lock = threading.Lock()
    open_now = 0
    open_peak = 0

    def __init__(self, url):
        self.url = url

    def run_flow(self, **spec):
        cls = type(self)
        with cls.lock:
            cls.open_now += 1
            cls.open_peak = max(cls.open_peak, cls.open_now)
        try:
            with urllib.request.urlopen(self.url, timeout=10) as resp:
                resp.read()
        finally:
            with cls.lock:
                cls.open_now -= 1
        return _Record()


@pytest.fixture
def counting_server():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                             _CountingHandler)
    server.lock, server.active, server.peak = threading.Lock(), 0, 0
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_lanes_are_capped_at_nproc():
    gen = LoadGen(nproc())
    for i in range(nproc()):
        gen.lane(lambda: None, f"lane{i}")
    with pytest.raises(RuntimeError, match="capped"):
        gen.lane(lambda: None, "one-too-many")
    gen.join(10)


def test_closed_loop_lanes_never_exceed_nproc_connections(counting_server):
    url = f"http://127.0.0.1:{counting_server.server_address[1]}/"
    spec = {"app": "kmeans", "mode": "m", "scale": 1.0}
    refs = {spec_key(spec): ((_Record.app_name, "m", None, 1.0, ()))}
    before = threading.active_count()
    gen = LoadGen(nproc())
    tallies = [Tally() for _ in range(nproc())]
    peak_threads = []
    deadline = time.perf_counter() + 0.5
    for i, tally in enumerate(tallies):
        gen.lane(lambda t=tally: closed_loop(
            _HttpClient(url), [spec] * 100000, refs, t, deadline=deadline),
            f"lane{i}")
    while time.perf_counter() < deadline:
        peak_threads.append(threading.active_count() - before)
        time.sleep(0.01)
    gen.join(10)
    assert _HttpClient.open_peak <= nproc()
    # lane threads, plus the test server's handler threads
    assert max(peak_threads) <= nproc() + counting_server.peak
    assert all(t.latencies and not t.failed and not t.wrong
               for t in tallies)


def test_open_loop_times_jobs_from_their_due_time():
    from repro.service.scheduler import JobResultPending

    class FakeClient:
        poll_interval_s = 0.01

        def __init__(self):
            self.submitted = {}
            self.polls = []

        def submit(self, **spec):
            self.submitted[spec["app"]] = time.perf_counter()
            return {"id": spec["app"]}

        def result(self, job_id):
            self.polls.append(time.perf_counter())
            if time.perf_counter() - self.submitted[job_id] < 0.05:
                raise JobResultPending(job_id, "running", 0, 0.0)
            return _Record()

        def status(self, job_id):
            # submitted 0.05 s after start, finished 0.05 s later
            created = time.time() - (time.perf_counter()
                                     - self.submitted[job_id])
            return {"created_s": created, "wall_s": 0.05}

    spec = {"app": "kmeans", "mode": "m", "scale": 1.0}
    refs = {spec_key(spec): ((_Record.app_name, "m", None, 1.0, ()))}
    tally, lateness = Tally(), []
    client = FakeClient()
    start = time.perf_counter()
    open_loop(client, [(0.05, spec)], refs, tally, start, lateness)
    assert len(tally.latencies) == 1 and tally.failed == 0
    # from due to finish, not to the poll that saw it
    assert tally.latencies[0] == pytest.approx(0.05 + lateness[0], abs=0.01)
    assert len(lateness) == 1 and lateness[0] >= 0
    # polled as run_flow polls: no faster than the client's interval
    gaps = [b - a for a, b in zip(client.polls, client.polls[1:])]
    assert gaps and min(gaps) >= FakeClient.poll_interval_s


def test_counting_client_counts_retries_not_polls():
    from repro.service.scheduler import JobResultPending

    tally = Tally()
    client = counting_client("http://127.0.0.1:9", tally)
    client.poll_interval_s = 0.0
    answers = [(429, {"error": {"code": "overloaded",
                                "retry_after_s": 0}}, {}),
               (200, {"id": "job"}, {})]
    client._request_once = lambda method, path, payload=None: \
        answers.pop(0)
    pending = [JobResultPending("job", "running", 0, 0.0)] * 3

    def result(job_id):
        if pending:
            raise pending.pop()
        return _Record()

    client.result = result
    assert isinstance(client.run_flow("kmeans"), _Record)
    assert tally.retries == 1


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 90) == 5


def test_windowed_stats_shrug_off_a_stalled_window():
    tally = Tally()
    start = 100.0
    for second in range(10):
        latency = 0.5 if second == 3 else 0.01   # one stalled second
        for i in range(20):
            tally.latencies.append(latency)
            tally.ends.append(start + second + i / 20)
    rate, p50, p90 = windowed_stats([tally], start, 10)
    assert rate == 20 and p50 == 0.01 and p90 == 0.01
    # a change that slows every request moves every window
    for i in range(len(tally.latencies)):
        tally.latencies[i] *= 2
    assert windowed_stats([tally], start, 10)[1] == 0.02


def test_windowed_stats_leave_out_stolen_time():
    tally = Tally()
    start = 100.0
    for second in range(9):
        # the host takes half of seconds 0-5: half the requests, each
        # twice as slow
        n, latency = (10, 0.02) if second < 6 else (20, 0.01)
        for i in range(n):
            tally.latencies.append(latency)
            tally.ends.append(start + second + i / n)
    samples = [(start + i, min(i, 6) * 0.5) for i in range(10)]
    assert windowed_stats([tally], start, 9)[:2] == (10, 0.02)
    assert windowed_stats([tally], start, 9, steal=samples) == \
        (20, 0.01, 0.01)


def test_stolen_between_interpolates_samples():
    samples = [(0.0, 1.0), (1.0, 1.5), (2.0, 1.5)]
    assert stolen_between(samples, 0.0, 2.0) == 0.5
    assert stolen_between(samples, 0.5, 1.0) == 0.25
    assert stolen_between([], 0.0, 2.0) == 0.0
