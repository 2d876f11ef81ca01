"""Journal group commit: one fsync per grouped append, crash-safe.

:meth:`JobQueue.submit_many` journals every job it creates with one
write and one fsync.  This module pins the fsync count (the gate that
fails if group commit regresses), the rollback of a failed append, the
crash consistency of a grouped append cut at every byte, and — with a
real ``python -m repro serve`` killed by SIGKILL under pipelined
``/jobs/batch`` load — that every job acknowledged ``queued`` survives
the crash.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve.jobs import JobQueue, QueueFullError, read_journal


DOC = {"benchmark": "PCR", "parameters": {"seed": 1}}
SRC = Path(__file__).resolve().parents[2] / "src"


def _items(n: int, prefix: str = "b", job_id=None):
    return [
        (DOC, f"{prefix}{i:063d}", f"{prefix}{i:063d}", job_id)
        for i in range(n)
    ]


def _state(queue: JobQueue):
    return [
        (job.job_id, job.status, job.attempts) for job in queue.jobs()
    ]


class FsyncCounter:
    def __init__(self, monkeypatch):
        self.calls = 0
        real = os.fsync

        def counting(fd):
            self.calls += 1
            return real(fd)

        monkeypatch.setattr(os, "fsync", counting)

    def delta(self, action) -> int:
        before = self.calls
        action()
        return self.calls - before


class TestFsyncCount:
    def test_one_fsync_per_grouped_append(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "journal.jsonl", limit=1000)
        fsyncs = FsyncCounter(monkeypatch)
        assert fsyncs.delta(lambda: queue.submit_many(_items(32))) == 1
        assert queue.depth == 32

    def test_one_fsync_per_lifecycle_transition(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "journal.jsonl", limit=1000)
        fsyncs = FsyncCounter(monkeypatch)
        assert fsyncs.delta(lambda: queue.submit(DOC, "d" * 64, "d" * 64)) == 1
        claimed = []
        assert fsyncs.delta(lambda: claimed.append(queue.claim())) == 1
        assert fsyncs.delta(lambda: queue.finish(claimed[0].job_id)) == 1

    def test_nothing_created_writes_nothing(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "journal.jsonl", limit=1)
        queue.submit(DOC, "a" * 64, "a" * 64, job_id="known")
        fsyncs = FsyncCounter(monkeypatch)
        outcomes = []
        assert fsyncs.delta(lambda: outcomes.extend(queue.submit_many(
            [(DOC, "a" * 64, "a" * 64, "known"), (DOC, "b" * 64, "b" * 64, None)]
        ))) == 0
        assert outcomes[0][1] is False
        assert isinstance(outcomes[1], QueueFullError)
        assert queue.journal_lines == 1


class TestSubmitMany:
    def test_outcomes_follow_submission_order(self, tmp_path):
        queue = JobQueue(tmp_path / "journal.jsonl", limit=3)
        outcomes = queue.submit_many(
            [
                (DOC, "a" * 64, "a" * 64, "x"),
                (DOC, "b" * 64, "b" * 64, "x"),  # same id: the first wins
                (DOC, "c" * 64, "c" * 64, None),
                (DOC, "d" * 64, "d" * 64, None),
                (DOC, "e" * 64, "e" * 64, None),  # pending bound reached
                (DOC, "f" * 64, "f" * 64, "x"),  # idempotent even when full
            ]
        )
        first, again, third, fourth, full, last = outcomes
        assert first[1] is True and first[0].job_id == "x"
        assert again == (first[0], False)
        assert third[1] and third[0].job_id.startswith("j000001-")
        assert fourth[1] and fourth[0].job_id.startswith("j000002-")
        assert isinstance(full, QueueFullError)
        assert last == (first[0], False)
        replayed = JobQueue(queue.journal_path, limit=3)
        assert _state(replayed) == _state(queue)
        assert [job.digest for job in replayed.jobs()] == [
            "a" * 64, "c" * 64, "d" * 64,
        ]


class TestFailedAppendRollsBack:
    def test_fsync_error_leaves_queue_unchanged(self, tmp_path, monkeypatch):
        queue = JobQueue(tmp_path / "journal.jsonl", limit=100)
        queue.submit_many(_items(3, prefix="p"))
        before = (queue.depth, _state(queue), queue.journal_lines)
        journal_bytes = queue.journal_path.read_bytes()

        def broken(fd):
            raise OSError(5, "injected fsync failure")

        with monkeypatch.context() as patch:
            patch.setattr(os, "fsync", broken)
            with pytest.raises(OSError):
                queue.submit_many(_items(4, prefix="q"))
            with pytest.raises(OSError):
                queue.submit(DOC, "s" * 64, "s" * 64)
        assert (queue.depth, _state(queue), queue.journal_lines) == before
        # The failed bytes were truncated away, so replay agrees.
        assert queue.journal_path.read_bytes() == journal_bytes
        assert queue._journal_stream is None

        job, created = queue.submit(DOC, "t" * 64, "t" * 64)
        assert created and job.job_id.startswith("j000004-")
        assert queue.depth == 4
        replayed = JobQueue(queue.journal_path, limit=100)
        assert _state(replayed) == _state(queue)


class TestGroupedAppendCrash:
    def test_every_cut_replays_a_prefix_of_the_batch(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal, limit=100)
        queue.submit_many(_items(2, prefix="p"))
        queue.finish(queue.claim().job_id)
        pre_state = _state(queue)
        pre_size = journal.stat().st_size
        batch = [
            job.job_id
            for job, _ in queue.submit_many(_items(5, prefix="q"))
        ]
        data = journal.read_bytes()
        assert data.count(b"\n") == len(read_journal(journal))
        for cut in range(pre_size, len(data) + 1):
            # A fresh file per cut: re-truncating one file that replay
            # just fsynced is slow on journaling filesystems.
            crashed = tmp_path / f"crashed-{cut}.jsonl"
            crashed.write_bytes(data[:cut])
            replayed = JobQueue(crashed, limit=100)
            state = _state(replayed)
            assert state[: len(pre_state)] == pre_state, cut
            survivors = [job_id for job_id, _, _ in state[len(pre_state):]]
            assert survivors == batch[: len(survivors)], cut
            # A cut inside a line loses exactly that line; a cut just
            # before a newline keeps the (complete) line it ends.
            whole_lines = data[pre_size:cut].count(b"\n")
            complete_tail = data[cut:cut + 1] == b"\n"
            assert len(survivors) == whole_lines + complete_tail, cut
            for job in replayed.jobs()[len(pre_state):]:
                assert job.status == "queued" and job.document == DOC
                assert len(job.digest) == 64 and job.cache_key == job.digest

    def test_append_after_a_torn_tail_survives_the_next_replay(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        queue = JobQueue(journal, limit=100)
        queue.submit_many(_items(3))
        data = journal.read_bytes()
        journal.write_bytes(data[: len(data) - 20])  # torn final line
        reborn = JobQueue(journal, limit=100)
        assert reborn.depth == 2
        job, _ = reborn.submit(DOC, "n" * 64, "n" * 64)
        again = JobQueue(journal, limit=100)
        assert again.get(job.job_id) is not None
        assert again.depth == 3


def _read_response(stream) -> tuple[int, bytes]:
    status_line = stream.readline()
    if not status_line:
        raise ConnectionError("connection closed")
    status = int(status_line.split()[1])
    length = 0
    while True:
        line = stream.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    body = stream.read(length)
    if len(body) < length:
        raise ConnectionError("truncated response")
    return status, body


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        "\r\n"
    ).encode() + body


def _boot(state_dir: Path, log_path: Path) -> tuple[subprocess.Popen, int]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--jobs", "1", "--no-ledger", "--no-heartbeats",
                "--queue-limit", "1000000", "--state-dir", str(state_dir),
            ],
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=log,
        )
    marker = b"listening on http://127.0.0.1:"
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        text = log_path.read_bytes()
        at = text.find(marker)
        if at >= 0 and b" " in text[at + len(marker):]:
            return proc, int(text[at + len(marker):].split(b" ", 1)[0])
        if proc.poll() is not None:
            break
        time.sleep(0.02)
    proc.kill()
    proc.wait()
    raise AssertionError(f"server did not start:\n{log_path.read_text()}")


class TestSigkillUnderBatchLoad:
    BATCH = 16
    DEPTH = 2

    def _load_then_kill(self, state_dir, log_path, rng, seed_base):
        """Pipeline batches at a fresh server, SIGKILL it at a random
        moment; returns the job ids acknowledged ``queued``."""
        proc, port = _boot(state_dir, log_path)
        acked: list[str] = []
        try:
            sock = socket.create_connection(("127.0.0.1", port), timeout=30)
            stream = sock.makefile("rb")
            sock.sendall(_request("POST", "/admin/pause"))
            assert _read_response(stream)[0] == 200
            kill_at = time.monotonic() + rng.uniform(0.05, 0.4)
            sent = inflight = 0
            while True:
                while inflight < self.DEPTH:
                    items = ",".join(
                        json.dumps({"benchmark": "PCR",
                                    "parameters": {"seed": seed_base + sent + k}})
                        for k in range(self.BATCH)
                    )
                    sock.sendall(_request(
                        "POST", "/jobs/batch", ('{"jobs":[%s]}' % items).encode()
                    ))
                    sent += self.BATCH
                    inflight += 1
                if acked and time.monotonic() >= kill_at:
                    break
                status, body = _read_response(stream)
                inflight -= 1
                assert status == 200
                for entry in json.loads(body)["jobs"]:
                    assert entry["status"] == "queued", entry
                    acked.append(entry["job_id"])
            # The kill lands while DEPTH batches are in flight.
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            sock.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return acked

    def test_acknowledged_jobs_survive_sigkill(self, tmp_path):
        rng = random.Random(1301)
        state_dir = tmp_path / "serve"
        acked: list[str] = []
        for round_index in range(2):
            # The second boot replays the killed journal (a torn tail
            # included) and must keep appending after it.
            this_round = self._load_then_kill(
                state_dir, tmp_path / f"server-{round_index}.log",
                rng, 10_000 * (round_index + 1),
            )
            assert this_round, "no batch was acknowledged before the kill"
            acked += this_round
            # Reboot: the server's queue replays this journal at start.
            replayed = JobQueue(state_dir / "journal.jsonl", limit=10**6)
            for job_id in acked:
                assert replayed.get(job_id) is not None, job_id
            # This round's server was paused throughout; an earlier
            # round's jobs may have run after the reboot before the
            # pause reached it.
            for job_id in this_round:
                assert replayed.get(job_id).status == "queued", job_id
            replayed.close()
