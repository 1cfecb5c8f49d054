"""Per-layer self times, measured from outside the program.

The benchmark never edits the program.  In a traced run it replaces
public functions of the program's modules with wrappers that record a
span per call (see :mod:`perfbench.layers` for which function belongs
to which layer).  Spans nest through a context variable, so nesting
follows the call stack within a thread, across ``await`` within an
asyncio task, and into ``run_in_executor`` calls (whose context is
propagated by :func:`propagate_context_into_executors`).

A span's *self* time is its duration minus the durations of its direct
children.  Self time is charged to the span's layer, so a call nested
in another layer's call counts once, under its own layer: an
``execute_unit`` made inside an analysis or DSE call is charged to
``lang.exec`` and subtracted from the analysis or DSE span.

Two kinds of span are not layer rows:

- ``WIRE`` spans wrap a blocking HTTP exchange.  Their time is spent in
  another process, whose own spans account for it.
- spans tagged with a background route (health probes, metrics and span
  scrapes) are charged to ``background``: that work serves no request.
"""

from __future__ import annotations

import asyncio.base_events
import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: layer of a span that waits on another process
WIRE = "wire"
#: layer charged for spans serving a background route
BACKGROUND = "background"
#: layers that are not rows of the self-time table
NOT_ROWS = (WIRE, BACKGROUND)


class Frame:
    __slots__ = ("layer", "start", "child", "parent", "token", "tag")

    def __init__(self, layer: str, start: float, parent: Optional["Frame"]):
        self.layer = layer
        self.start = start
        self.child = 0.0
        self.parent = parent
        self.token = None
        self.tag: Optional[str] = None


class Tracer:
    """Accumulates self time and call counts per layer."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 background_tags: Iterable[str] = ()):
        self.clock = clock
        self.background_tags = frozenset(background_tags)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_frame", default=None)
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    def enter(self, layer: str) -> Frame:
        frame = Frame(layer, self.clock(), self._current.get())
        frame.token = self._current.set(frame)
        return frame

    def exit(self, frame: Frame) -> None:
        duration = self.clock() - frame.start
        try:
            self._current.reset(frame.token)
        except ValueError:         # token made in another context
            self._current.set(frame.parent)
        layer = (BACKGROUND if frame.tag in self.background_tags
                 else frame.layer)
        with self._lock:
            self.self_s[layer] = (self.self_s.get(layer, 0.0)
                                  + duration - frame.child)
            self.calls[layer] = self.calls.get(layer, 0) + 1
            if frame.parent is not None:
                frame.parent.child += duration

    def tag(self, value: str) -> None:
        """Tag the innermost open span (e.g. with its HTTP route)."""
        frame = self._current.get()
        if frame is not None:
            frame.tag = value

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls)}


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------

def _wrap(tracer: Tracer, fn: Callable, layer: str) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
        traced = traced_async
    else:
        @functools.wraps(fn)
        def traced_sync(*args, **kwargs):
            frame = tracer.enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
        traced = traced_sync
    traced.__perfbench_original__ = fn
    return traced


def _original(fn: Callable) -> Callable:
    return getattr(fn, "__perfbench_original__", fn)


def _wrap_tagging(tracer: Tracer, fn: Callable) -> Callable:
    """Wrap a ``_route`` method so the request span learns its route."""
    @functools.wraps(fn)
    def routed(*args, **kwargs):
        found = fn(*args, **kwargs)
        tracer.tag(found[0])
        return found
    routed.__perfbench_original__ = fn
    return routed


def install(tracer: Tracer, targets: Iterable[Tuple[str, str]],
            route_tags: Iterable[str] = ()) -> List[str]:
    """Wrap every ``(layer, "module:attr")`` target; return their names.

    ``attr`` is a module-level function or ``Class.method``.  A function
    is replaced in its defining module and in every loaded ``repro``
    module that imported it by name; a name that module only re-exports
    is replaced in that module alone (so one module's calls can be
    charged to a layer of their own).  ``route_tags`` names classes
    (``"module:Class"``) whose ``_route`` result tags the request span.
    """
    installed = []
    for layer, target in targets:
        module_name, _, attr = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".", 1)
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, _original(getattr(cls, meth)),
                                     layer))
        else:
            current = getattr(module, attr)
            fn = _original(current)
            traced = _wrap(tracer, fn, layer)
            if getattr(fn, "__module__", None) == module_name:
                for name, mod in list(sys.modules.items()):
                    if ((name == "repro" or name.startswith("repro."))
                            and getattr(mod, attr, None) in (fn, current)):
                        setattr(mod, attr, traced)
            setattr(module, attr, traced)
        installed.append(target)
    for target in route_tags:
        module_name, _, cls_name = target.partition(":")
        cls = getattr(importlib.import_module(module_name), cls_name)
        cls._route = _wrap_tagging(tracer, _original(cls._route))
    return installed


def propagate_context_into_executors() -> None:
    """Make ``loop.run_in_executor`` carry the caller's context, so a
    span opened in an executor thread nests under the awaiting span."""
    base = asyncio.base_events.BaseEventLoop
    original = _original(base.run_in_executor)

    def run_in_executor(self, executor, func, *args):
        return original(self, executor, contextvars.copy_context().run,
                        func, *args)

    run_in_executor.__perfbench_original__ = original
    base.run_in_executor = run_in_executor


# ----------------------------------------------------------------------
# Snapshots across processes
# ----------------------------------------------------------------------

def write_json(path: str, data) -> None:
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(data, fh)
    os.replace(tmp, path)


class SnapshotServer:
    """Answers snapshot requests dropped into a control directory.

    The benchmark creates ``<dir>/req-<name>``; every traced process
    answers with ``<dir>/snap-<name>-<pid>.json`` holding its tracer
    snapshot plus ``extra``.  A polling thread, rather than a signal
    handler, so answering never interrupts a thread holding the lock.
    """

    def __init__(self, tracer: Tracer, directory: str,
                 extra: Optional[Dict] = None, poll_s: float = 0.02):
        self.tracer = tracer
        self.directory = directory
        self.extra = dict(extra or {})
        self.poll_s = poll_s
        self._answered = set()

    def start(self) -> "SnapshotServer":
        threading.Thread(target=self._loop, daemon=True,
                         name="perfbench-snapshots").start()
        return self

    def follow_forks(self) -> None:
        """Trace forked children (process-pool flow workers) too: each
        child starts from zero and answers snapshots under its own pid.
        The tracer's lock is held across the fork, so no child inherits
        it locked."""
        lock = self.tracer._lock

        def in_child():
            lock.release()
            self.tracer.self_s.clear()
            self.tracer.calls.clear()
            SnapshotServer(self.tracer, self.directory, self.extra,
                           self.poll_s).start()

        os.register_at_fork(before=lock.acquire,
                            after_in_parent=lock.release,
                            after_in_child=in_child)

    def _loop(self) -> None:
        while True:
            time.sleep(self.poll_s)
            try:
                names = os.listdir(self.directory)
            except OSError:
                continue
            for entry in names:
                if entry.startswith("req-") and entry not in self._answered:
                    self._answered.add(entry)
                    self.answer(entry[4:])

    def answer(self, name: str) -> None:
        data = self.tracer.snapshot()
        data.update(self.extra)
        data["pid"] = os.getpid()
        write_json(os.path.join(self.directory,
                                f"snap-{name}-{os.getpid()}.json"), data)


def request_snapshots(directory: str, name: str, pids: Iterable[int],
                      timeout_s: float = 20.0,
                      settle_s: float = 0.1) -> Dict[int, Dict]:
    """Ask every traced process for a snapshot; return them by pid.

    Waits for each of ``pids``, then ``settle_s`` more for forked
    children the caller does not know of, and returns every answer.
    """
    prefix = f"snap-{name}-"
    with open(os.path.join(directory, f"req-{name}"), "w"):
        pass
    deadline = time.monotonic() + timeout_s
    missing = set(pids)
    while missing:
        missing = {pid for pid in missing if not os.path.exists(
            os.path.join(directory, f"{prefix}{pid}.json"))}
        if missing and time.monotonic() > deadline:
            raise TimeoutError(f"no trace snapshot from pids {missing}")
        time.sleep(0.01)
    time.sleep(settle_s)
    out = {}
    for entry in os.listdir(directory):
        if entry.startswith(prefix) and entry.endswith(".json"):
            with open(os.path.join(directory, entry)) as fh:
                out[int(entry[len(prefix):-5])] = json.load(fh)
    return out


EMPTY = {"self_s": {}, "calls": {}}


def delta(before: Dict, after: Dict) -> Dict[str, Dict[str, float]]:
    """Per-layer ``after - before`` of two snapshots of one process."""
    out: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}}
    for field in ("self_s", "calls"):
        for layer, value in after[field].items():
            out[field][layer] = value - before[field].get(layer, 0)
    return out


def merge(deltas: Iterable[Dict]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {"self_s": {}, "calls": {}}
    for d in deltas:
        for field in ("self_s", "calls"):
            for layer, value in d[field].items():
                out[field][layer] = out[field].get(layer, 0) + value
    return out


def self_time_table(merged: Dict[str, Dict[str, float]],
                    wall_s: float) -> Dict[str, float]:
    """Layer rows plus ``other`` (in seconds), summing to ``wall_s``.

    ``wall_s`` is the lane time the spans happened within: the summed
    latency of every request the load generator had outstanding.
    """
    rows = {layer: value for layer, value in merged["self_s"].items()
            if layer not in NOT_ROWS}
    rows["other"] = wall_s - sum(rows.values())
    return rows
