"""Processes under test: environment, launch, readiness, memory, stop.

Every process is launched with the ``REPRO_*`` variables cleared, so
only what a workload sets reaches the program.  The benchmark refuses
to run at all when a variable that would replace real flows with
synthetic ones is set in its own environment.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, List, Optional

#: variables that make fleet or flow numbers come from something other
#: than real flows (sleeps, injected faults, the native path, sampling)
FORBIDDEN_ENV = ("REPRO_SIM_LATENCY_S", "REPRO_FAULTS", "REPRO_NATIVE",
                 "REPRO_PROFILE_HZ")


class BenchError(RuntimeError):
    """The benchmark cannot run here (not a result failure)."""


def check_environment(environ=os.environ) -> None:
    bad = [name for name in FORBIDDEN_ENV if environ.get(name)]
    if bad:
        raise BenchError(f"refusing to run with {', '.join(bad)} set: the "
                         f"benchmark measures real flows only")


def clear_repro_env(environ=os.environ) -> None:
    """Drop every ``REPRO_*`` variable (in place)."""
    for name in [n for n in environ if n.startswith("REPRO_")]:
        del environ[name]


def child_env(root: str, extra: Optional[Dict[str, str]] = None
              ) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), root])
    env.update(extra or {})
    return env


# ----------------------------------------------------------------------
# Machine fingerprint
# ----------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _git_commit(root: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def _cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


#: the CPUs this process may use when it starts, before :func:`pin`
_MACHINE_CPUS = _cpus()


def nproc() -> int:
    """CPUs of the machine (as ``nproc`` reports them before
    :func:`pin` narrows this process to one)."""
    return len(_MACHINE_CPUS)


def pin() -> None:
    """Confine this process, and every process it starts from now on,
    to one CPU, where the system allows it.

    On a virtual machine whose host is shared, a request that crosses
    processes on two virtual CPUs often wakes an idle one, and the
    host schedules that wake-up behind its other guests: under a busy
    host the request path of ``serve_warm`` ran 2-3 times slower while
    plain computation slowed by a sixth.  On one CPU every hand-off
    is a context switch on a CPU that is already running.
    """
    try:
        os.sched_setaffinity(0, {_MACHINE_CPUS[0]})
    except (AttributeError, OSError):
        pass


def fingerprint(root: str) -> Dict[str, object]:
    import numpy

    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "source_sha256_16": _source_digest(root),
    }


# ----------------------------------------------------------------------
# Launch and supervision
# ----------------------------------------------------------------------

def free_port() -> int:
    import socket

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Proc:
    """One child process under test."""

    def __init__(self, argv: List[str], root: str,
                 env: Optional[Dict[str, str]] = None,
                 url: Optional[str] = None, stdin=None, stdout=None,
                 log_path: Optional[str] = None):
        self.url = url
        self.started = time.perf_counter()
        self._log = open(log_path, "wb") if log_path else subprocess.DEVNULL
        self.popen = subprocess.Popen(
            argv, cwd=root, env=child_env(root, env),
            stdin=stdin if stdin is not None else subprocess.DEVNULL,
            stdout=stdout if stdout is not None else self._log,
            stderr=self._log)

    @property
    def pid(self) -> int:
        return self.popen.pid

    def wait_http(self, timeout_s: float = 60.0,
                  ready: Optional[Callable[[Dict], bool]] = None) -> float:
        """Block until ``/healthz`` answers 200 (and its JSON satisfies
        ``ready`` when given); return seconds since launch."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.popen.poll() is not None:
                raise BenchError(f"{self.url} exited with "
                                 f"{self.popen.returncode} before ready")
            try:
                with urllib.request.urlopen(self.url + "/healthz",
                                            timeout=2.0) as resp:
                    body = json.loads(resp.read().decode("utf-8"))
                if ready is None or ready(body):
                    return time.perf_counter() - self.started
            except (urllib.error.URLError, OSError, ValueError):
                pass
            time.sleep(0.01)
        raise BenchError(f"{self.url} not ready within {timeout_s}s")

    def tree(self) -> List[int]:
        """This process and its live descendants (flow worker pools)."""
        return [self.pid, *descendants(self.pid)]

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) of the process and its live
        descendants, in MiB."""
        return sum(_vm_hwm_kb(pid) for pid in self.tree()) / 1024.0

    def stop(self, timeout_s: float = 20.0) -> None:
        """SIGTERM, wait, SIGKILL if it will not go."""
        if self.popen.poll() is None:
            self.popen.send_signal(signal.SIGTERM)
            try:
                self.popen.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                self.popen.kill()
                self.popen.wait(timeout=10)
        for stream in (self.popen.stdin, self.popen.stdout):
            if stream is not None:
                stream.close()
        if self._log is not subprocess.DEVNULL:
            self._log.close()


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid``, from ``/proc/<n>/stat`` parent ids."""
    parents: Dict[int, int] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after ")"
        parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        children = [c for c, p in parents.items() if p == parent]
        found += children
        frontier += children
    return found


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def python_argv(root: str, traced: bool, args: List[str]) -> List[str]:
    """``python -m repro ...`` as is, or through the tracing bootstrap."""
    if traced:
        return [sys.executable, os.path.join(root, "perfbench", "node.py"),
                *args]
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# Prometheus text
# ----------------------------------------------------------------------

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)")


def parse_prometheus(text: str) -> Dict[str, List[tuple]]:
    """``{metric: [(labels_text, value), ...]}`` of a text exposition."""
    out: Dict[str, List[tuple]] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line)
        if match:
            name, labels, value = match.groups()
            try:
                out.setdefault(name, []).append((labels or "",
                                                 float(value)))
            except ValueError:
                continue
    return out


def scrape(url: str, path: str = "/metrics") -> Dict[str, List[tuple]]:
    with urllib.request.urlopen(url + path, timeout=10) as resp:
        return parse_prometheus(resp.read().decode("utf-8"))


def read_json_line(stream, what: str) -> Dict:
    """Next JSON line from a child's stdout."""
    line = stream.readline()
    if not line:
        raise BenchError(f"{what}: child closed its output")
    return json.loads(line)
