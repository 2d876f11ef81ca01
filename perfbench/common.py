"""Shared plumbing of the benchmark: statistics, spans, host fingerprint,
and a throwaway ``python -m repro serve`` process driven over raw HTTP.

Everything here runs in the benchmark process; the program under test
is imported from ``src/`` of the checkout (synthesis workload) or run
as a subprocess (service workloads).
"""

from __future__ import annotations

import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

#: Root of the checkout the benchmark runs from (the working directory).
ROOT = Path.cwd()
SRC = ROOT / "src"
#: Scratch space of the benchmark inside the checkout (git-ignored).
WORK = ROOT / ".perfbench"


def program_env() -> dict[str, str]:
    """Environment for subprocesses that import the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    return env


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: list[float]) -> float:
    return statistics.median(values)


def metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": float(value), "unit": unit}


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """In-memory spans around calls into the program's layers.

    A span's self time is its duration minus the time its children
    cover.  Children of one span never overlap here (each layer call
    returns before the next starts), so coverage is their summed
    duration clipped to the parent.
    """

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, request: str | None = None) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, 0.0, parent=parent, request=request)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: int | None = None,
        request: str | None = None,
    ) -> int:
        """Record a span reconstructed from timestamps; returns its index."""
        self.spans.append(Span(name, start, end, parent, request))
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        return [
            max(0.0, span.duration - covered[index])
            for index, span in enumerate(self.spans)
        ]

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (count, summed duration, summed self time)``."""
        out: dict[str, tuple[int, float, float]] = {}
        for span, own in zip(self.spans, self.self_times()):
            count, total, self_total = out.get(span.name, (0, 0.0, 0.0))
            out[span.name] = (count + 1, total + span.duration, self_total + own)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                stream.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                        }
                    )
                    + "\n"
                )


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _fsync_rate(directory: Path, seconds: float = 0.25) -> float:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "fsync-probe"
    record = b"x" * 200 + b"\n"
    count = 0
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            os.write(fd, record)
            os.fsync(fd)
            count += 1
        elapsed = time.perf_counter() - start
    finally:
        os.close(fd)
        path.unlink()
    return count / elapsed


def _calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop (interpreter speed)."""
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        table: dict[int, int] = {}
        for index in range(200_000):
            total += index * index % 7
            table[index & 1023] = total
        samples.append(time.perf_counter() - start)
    return median(samples)


def host_fingerprint() -> dict[str, Any]:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a declared dependency
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "fsync_per_s": _fsync_rate(WORK),
        "calib_s": _calibration_seconds(),
    }


# ----------------------------------------------------------------------
# In-run reference
# ----------------------------------------------------------------------
#: Median reference times on the host the bounds were set on (2 AMD
#: EPYC vCPUs, Python 3.11, a virtual disk).  They only fix the scale
#: of the normalised figures; they never change.
CPU_NOMINAL_S = 2.5e-3
JOURNAL_NOMINAL_S = 90e-6


def _cpu_task(scale: int = 50) -> int:
    """Fixed interpreter work shaped like the program's: small dicts,
    JSON round trips, string keys, integer arithmetic.  One unit of
    *scale* takes about 45 us on the nominal host."""
    records = [{"id": f"j{k:06d}", "seq": k, "tags": [k % 7, k % 11]} for k in range(18 * scale)]
    parsed = json.loads(json.dumps(records, sort_keys=True))
    index: dict[int, list[str]] = {}
    for record in parsed:
        index.setdefault(record["seq"] % 31, []).append(record["id"])
    total = 0
    for k in range(900 * scale):
        total += k * k % 7
    return total + len(index)


class Reference:
    """A fixed task of the benchmark's own, timed again and again
    through a run, between the measured requests.

    The speed of this shared host drifts for minutes at a time (a core
    or the disk is slower while a neighbour is busy), by more than a
    bound allows.  A workload multiplies its rates (and divides its
    times) by :meth:`factor`, the reference time of the run over its
    nominal value, so runs made at different times compare.  The CPU
    task (the default) is timed in thread CPU time, which waiting for a
    core does not inflate.  The journal task (``journal=True``), for
    workloads whose requests wait on the disk, is the wall time of an
    ingested item's shape: 45 us of interpreter work and a 200-byte
    append with fsync.  Both run with the cyclic garbage collector off:
    its passes would scan the program's heap in this process and tie
    the task's time to it.
    """

    def __init__(self, journal: bool = False) -> None:
        self.samples: list[float] = []
        self.nominal = JOURNAL_NOMINAL_S if journal else CPU_NOMINAL_S
        self._path = WORK / f"reference-{os.getpid()}" if journal else None
        self._fd: int | None = None

    def sample(self, repeats: int = 2) -> None:
        gc.disable()
        try:
            if self._path is None:
                for _ in range(repeats):
                    start = time.thread_time()
                    _cpu_task()
                    self.samples.append(time.thread_time() - start)
            else:
                self._journal(8 * repeats)
        finally:
            gc.enable()

    def _journal(self, items: int) -> None:
        if self._fd is None:
            self._fd = os.open(self._path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        record = (json.dumps({"kind": "job", "id": "j000000", "pad": "x" * 200}) + "\n").encode()
        for _ in range(items):
            start = time.perf_counter()
            _cpu_task(1)
            os.write(self._fd, record)
            os.fsync(self._fd)
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Host slowness against nominal: above 1 on a slower host."""
        return median(self.samples) / self.nominal

    def describe(self) -> str:
        kind = "cpu" if self._path is None else "journal"
        return (
            f"reference {kind} median {median(self.samples) * 1e6:.1f} us over "
            f"{len(self.samples)} samples, host factor {self.factor():.3f}"
        )

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._path is not None and self._path.exists():
            self._path.unlink()


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as stream:
            for line in stream:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _children(pid: int) -> list[int]:
    """Direct children of *pid*, forked by any of its threads (a
    ``children`` file lists only the children of its own thread)."""
    found: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children", encoding="ascii") as f:
                found.extend(int(token) for token in f.read().split())
        except OSError:
            pass
    return found


def process_tree(pid: int) -> list[int]:
    """*pid* and all its descendants."""
    tree = [pid]
    for each in tree:
        tree.extend(_children(each))
    return tree


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak RSS (VmHWM) of a process and all its descendants."""
    return sum(_status_kb(each, "VmHWM") for each in process_tree(pid)) / 1024.0


# ----------------------------------------------------------------------
# Processes the benchmark leaves behind
# ----------------------------------------------------------------------
def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a worker whose parent ended before
    it becomes a child here that :func:`reap` can wait for."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _ended(pid: int) -> bool:
    """Whether *pid* is gone, reaping it if it is a child that ended."""
    try:
        done, _ = os.waitpid(pid, os.WNOHANG)
        if done == pid:
            return True
    except ChildProcessError:
        pass  # not a child: look at it in /proc
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as f:
            return f.read().rsplit(")", 1)[1].split()[0] in ("Z", "X")
    except (OSError, IndexError):
        return True


def await_exit(pids: list[int], grace: float) -> list[int]:
    """Wait up to *grace* seconds for *pids* to end, then kill the rest
    and wait for them too; returns the pids that had to be killed."""
    deadline = time.monotonic() + grace
    alive = [pid for pid in pids if not _ended(pid)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.01)
        alive = [pid for pid in alive if not _ended(pid)]
    for pid in alive:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    pending = list(alive)
    while pending:
        time.sleep(0.01)
        pending = [pid for pid in pending if not _ended(pid)]
    return alive


def reap(grace: float = 10.0) -> list[int]:
    """Wait for every process this one started (and every orphan it
    adopted), killing those still running after *grace* seconds."""
    killed: list[int] = []
    while True:
        children = [pid for pid in _children(os.getpid()) if not _ended(pid)]
        if not children:
            return killed
        killed.extend(await_exit(children, grace))


# ----------------------------------------------------------------------
# Raw HTTP over keep-alive sockets
# ----------------------------------------------------------------------
def http_request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body


def take_response(buffer: bytes) -> tuple[int, bytes, bytes] | None:
    """Split one complete response off *buffer*: ``(status, body, rest)``."""
    end = buffer.find(b"\r\n\r\n")
    if end < 0:
        return None
    head = buffer[:end]
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
            break
    start = end + 4
    if len(buffer) < start + length:
        return None
    status = int(head[9:12])
    return status, buffer[start : start + length], buffer[start + length :]


class Connection:
    """One blocking keep-alive connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = b""

    def close(self) -> None:
        self.sock.close()

    def read_response(self) -> tuple[int, bytes]:
        while True:
            parsed = take_response(self.buffer)
            if parsed is not None:
                status, body, self.buffer = parsed
                return status, body
            chunk = self.sock.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self.buffer += chunk

    def call(self, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
        self.sock.sendall(http_request(method, path, body))
        return self.read_response()

    def json(self, method: str, path: str, document: Any = None) -> tuple[int, Any]:
        body = b"" if document is None else json.dumps(document).encode()
        status, raw = self.call(method, path, body)
        return status, json.loads(raw)


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` on a free port with throwaway state."""

    def __init__(self, name: str, extra: list[str] | None = None) -> None:
        self.state = WORK / f"state-{name}-{os.getpid()}"
        self.extra = list(extra or [])
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.setup_s = 0.0

    def start(self, timeout: float = 60.0) -> "ServerProcess":
        shutil.rmtree(self.state, ignore_errors=True)
        self.state.mkdir(parents=True)
        log = open(self.state / "server.log", "wb")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--state-dir", str(self.state / "serve"),
                "--ledger", str(self.state / "ledger.jsonl"),
                *self.extra,
            ],
            cwd=str(ROOT),
            env=program_env(),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
        log.close()
        marker = b"listening on http://127.0.0.1:"
        while True:
            text = (self.state / "server.log").read_bytes()
            at = text.find(marker)
            if at >= 0 and b" " in text[at + len(marker):]:
                self.port = int(text[at + len(marker):].split(b" ", 1)[0])
                break
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text.decode()}")
            if time.perf_counter() - started > timeout:
                raise RuntimeError("server did not start in time")
            time.sleep(0.002)
        while True:
            try:
                conn = Connection(self.port)
                try:
                    status, body = conn.json("GET", "/healthz")
                finally:
                    conn.close()
                if status == 200 and body.get("status") == "ok":
                    break
            except OSError:
                pass
            if time.perf_counter() - started > timeout:
                raise RuntimeError("server never answered /healthz")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - started
        return self

    def peak_rss_mb(self) -> float:
        assert self.proc is not None
        return tree_peak_rss_mb(self.proc.pid)

    def cpu_seconds(self) -> float:
        """CPU time of the server process so far, summed over its live
        threads.  ``schedstat`` counts nanoseconds on the CPU, where the
        ``utime``/``stime`` of ``stat`` are sampled at the clock tick."""
        assert self.proc is not None
        total = 0
        for task in os.listdir(f"/proc/{self.proc.pid}/task"):
            try:
                with open(f"/proc/{self.proc.pid}/task/{task}/schedstat", encoding="ascii") as f:
                    total += int(f.read().split()[0])
            except OSError:
                pass  # the thread ended
        return total / 1e9

    def stop(self) -> None:
        """Shut the server down and wait for it and every process it
        started (its pool workers) to end."""
        if self.proc is None:
            return
        tree = process_tree(self.proc.pid)[1:]
        if self.proc.poll() is None:
            try:
                conn = Connection(self.port)
                try:
                    conn.call("POST", "/admin/shutdown")
                finally:
                    conn.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        await_exit(tree, grace=30.0)
        self.proc = None
        shutil.rmtree(self.state, ignore_errors=True)


def measure_server_setup(
    name: str, repeats: int, reference: Reference, extra: list[str] | None = None
) -> list[float]:
    """Boot-to-healthy times of *repeats* throwaway servers, with a
    *reference* sample after each."""
    times = []
    for index in range(repeats):
        server = ServerProcess(f"{name}-setup{index}", extra)
        try:
            times.append(server.start().setup_s)
        finally:
            server.stop()
        reference.sample()
    return times
