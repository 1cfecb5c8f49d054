"""Self-time accounting on synthetic span trees."""

import asyncio
import asyncio.base_events
import sys
import types

import pytest

from perfbench import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_nested_tree_adds_up_to_the_wall():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)
    root = tracer.enter("analysis")             # 0 .. 10
    clock.now = 2.0
    exec_span = tracer.enter("lang.exec")       # 2 .. 6
    clock.now = 3.0
    batch = tracer.enter("lang.batch")          # 3 .. 4
    clock.now = 4.0
    tracer.exit(batch)
    clock.now = 6.0
    tracer.exit(exec_span)
    clock.now = 7.0
    wire = tracer.enter(tracing.WIRE)           # 7 .. 8, a remote wait
    clock.now = 8.0
    tracer.exit(wire)
    clock.now = 10.0
    tracer.exit(root)
    snap = tracer.snapshot()
    assert snap["self_s"] == {"analysis": 5.0, "lang.exec": 3.0,
                              "lang.batch": 1.0, tracing.WIRE: 1.0}
    table = tracing.self_time_table(snap, wall_s=12.0)
    assert tracing.WIRE not in table
    assert table["other"] == pytest.approx(3.0)
    assert sum(table.values()) == pytest.approx(12.0)


def test_background_routes_are_not_rows():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock, background_tags=("healthz",))
    span = tracer.enter("server")
    tracer.tag("healthz")
    clock.now = 1.0
    tracer.exit(span)
    span = tracer.enter("server")
    tracer.tag("result")
    clock.now = 3.0
    tracer.exit(span)
    table = tracing.self_time_table(tracer.snapshot(), wall_s=2.0)
    assert table == {"server": 2.0, "other": 0.0}


def _fake_module(clock):
    mod = types.ModuleType("repro_fake_layers")

    def execute_unit():
        clock.now += 3.0

    def analyze():
        clock.now += 1.0
        mod.execute_unit()            # nested run, as analyses make them
        clock.now += 1.0

    def dse():
        mod.analyze()
        mod.execute_unit()
        clock.now += 2.0

    mod.execute_unit, mod.analyze, mod.dse = execute_unit, analyze, dse
    for fn in (execute_unit, analyze, dse):
        fn.__module__ = mod.__name__
    return mod


def test_execute_unit_inside_analysis_and_dse_counts_once_under_lang():
    clock = FakeClock()
    mod = _fake_module(clock)
    sys.modules[mod.__name__] = mod
    try:
        tracer = tracing.Tracer(clock=clock)
        tracing.install(tracer, [
            ("lang.exec", "repro_fake_layers:execute_unit"),
            ("analysis", "repro_fake_layers:analyze"),
            ("flow.dse", "repro_fake_layers:dse"),
        ])
        mod.dse()
    finally:
        del sys.modules[mod.__name__]
    snap = tracer.snapshot()
    assert snap["self_s"] == {"lang.exec": 6.0, "analysis": 2.0,
                              "flow.dse": 2.0}
    assert snap["calls"] == {"lang.exec": 2, "analysis": 1, "flow.dse": 1}


@pytest.fixture
def propagated_context():
    base = asyncio.base_events.BaseEventLoop
    original = base.run_in_executor
    tracing.propagate_context_into_executors()
    yield
    base.run_in_executor = original


def test_executor_calls_nest_under_the_awaiting_async_span(
        propagated_context):
    tracer = tracing.Tracer()

    def blocking():
        frame = tracer.enter("cache.get")
        try:
            import time
            time.sleep(0.05)
        finally:
            tracer.exit(frame)

    async def handler():
        frame = tracer.enter("server")
        try:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, blocking)
        finally:
            tracer.exit(frame)

    async def main():
        await asyncio.gather(handler(), handler())

    asyncio.run(main())
    snap = tracer.snapshot()
    assert snap["calls"] == {"server": 2, "cache.get": 2}
    assert snap["self_s"]["cache.get"] >= 0.1
    # the executor time is subtracted from the handlers that awaited it
    assert snap["self_s"]["server"] < 0.05


def test_delta_and_merge_of_snapshots():
    before = {"self_s": {"a": 1.0}, "calls": {"a": 2}}
    after = {"self_s": {"a": 3.0, "b": 1.0}, "calls": {"a": 5, "b": 1}}
    d = tracing.delta(before, after)
    assert d == {"self_s": {"a": 2.0, "b": 1.0}, "calls": {"a": 3, "b": 1}}
    merged = tracing.merge([d, d])
    assert merged == {"self_s": {"a": 4.0, "b": 2.0},
                      "calls": {"a": 6, "b": 2}}
