"""End-to-end HTTP tests: a real server on an ephemeral port.

The fixture boots :class:`~repro.serve.server.SynthesisServer` with an
inline (``pool_jobs=1``) executor and throwaway state, talks to it over
real TCP via :class:`~repro.serve.client.ServeClient` (and raw
``http.client`` where byte-level assertions matter), and drains it on
teardown.
"""

from __future__ import annotations

import asyncio
import json
import threading
from http.client import HTTPConnection

import pytest

from repro.serve.client import ServeClient
from repro.serve.server import ServeConfig, SynthesisServer


PCR = {"benchmark": "PCR", "parameters": {"seed": 1}}


class _Harness:
    def __init__(self, tmp_path, **config_overrides):
        defaults = dict(
            port=0,
            pool_jobs=1,
            inflight=1,
            state_dir=tmp_path / "serve",
            ledger=tmp_path / "ledger.jsonl",
        )
        defaults.update(config_overrides)
        self.config = ServeConfig(**defaults)
        self.server = SynthesisServer(self.config)
        self.thread = threading.Thread(
            target=lambda: asyncio.run(
                self.server.run(install_signal_handlers=False)
            ),
            daemon=True,
        )

    def start(self) -> "_Harness":
        self.thread.start()
        assert self.server.ready.wait(30.0), "server failed to start"
        self.client = ServeClient(
            f"http://127.0.0.1:{self.server.bound_port}"
        )
        return self

    def stop(self) -> None:
        if self.thread.is_alive():
            self.server.request_shutdown()
            self.thread.join(timeout=30.0)
        assert not self.thread.is_alive(), "server failed to drain"

    def raw(self, method: str, path: str, body=None):
        """One raw HTTP exchange; returns (status, headers, bytes)."""
        connection = HTTPConnection(
            "127.0.0.1", self.server.bound_port, timeout=120
        )
        try:
            payload = None if body is None else json.dumps(body).encode()
            connection.request(
                method, path, body=payload,
                headers={"Content-Type": "application/json"}
                if payload else {},
            )
            response = connection.getresponse()
            return (
                response.status,
                {k.lower(): v for k, v in response.getheaders()},
                response.read(),
            )
        finally:
            connection.close()


@pytest.fixture
def harness(tmp_path):
    instance = _Harness(tmp_path).start()
    yield instance
    instance.stop()


class TestSubmitAndCache:
    def test_cold_then_cached_byte_identical(self, harness):
        status, _, first = harness.raw("POST", "/jobs?wait=120", PCR)
        assert status == 200
        cold = json.loads(first)
        assert cold["status"] == "done" and cold["cached"] is False

        status, _, second = harness.raw("POST", "/jobs", PCR)
        assert status == 200
        hit = json.loads(second)
        assert hit["cached"] is True

        # The acceptance bar: the cached result is byte-identical.  The
        # response embeds the result with canonical serialisation, so
        # the raw bytes of the "result" object must match exactly.
        def result_bytes(raw: bytes) -> bytes:
            # Slice the balanced "result" object out of the envelope.
            text = raw.decode("utf-8")
            start = text.index('"result":') + len('"result":')
            depth = 0
            for i in range(start, len(text)):
                if text[i] == "{":
                    depth += 1
                elif text[i] == "}":
                    depth -= 1
                    if depth == 0:
                        return text[start: i + 1].encode()
            raise AssertionError("unbalanced result object")

        assert result_bytes(first) == result_bytes(second)
        # And a third hit matches the second.
        _, _, third = harness.raw("POST", "/jobs", PCR)
        assert result_bytes(second) == result_bytes(third)

    def test_cache_counters_track_hits(self, harness):
        harness.raw("POST", "/jobs?wait=120", PCR)
        harness.raw("POST", "/jobs", PCR)
        harness.raw("POST", "/jobs", PCR)
        stats = harness.client.stats()
        assert stats["cache"]["hits"] == 2
        assert stats["cache"]["misses"] == 1
        assert stats["counters"]["serve.cache_hits"] == 2
        assert stats["counters"]["serve.jobs_done"] == 1

    def test_different_seeds_are_different_jobs(self, harness):
        a = harness.client.submit(
            {"benchmark": "PCR", "parameters": {"seed": 1}}, wait=120
        )[2]
        b = harness.client.submit(
            {"benchmark": "PCR", "parameters": {"seed": 2}}, wait=120
        )[2]
        assert a["digest"] != b["digest"]
        assert not a["cached"] and not b["cached"]

    def test_ledger_records_are_tagged_serve(self, harness, tmp_path):
        harness.client.submit(PCR, wait=120)
        records = [
            json.loads(line)
            for line in (tmp_path / "ledger.jsonl")
            .read_text()
            .splitlines()
        ]
        assert len(records) == 1
        assert records[0]["source"] == "serve"
        assert records[0]["benchmark"] == "PCR"
        assert "job_id" in records[0]


class TestJobLifecycle:
    def test_no_wait_returns_202_then_result_via_status(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        assert status == 202
        accepted = json.loads(body)
        assert accepted["status"] == "queued"
        final = harness.client.wait_for(accepted["job_id"], timeout=120)
        assert final["status"] == "done"
        assert final["result"]["benchmark"] == "PCR"

    def test_client_job_id_is_idempotent(self, harness):
        doc = {**PCR, "job_id": "mine-1"}
        first = harness.client.submit(doc, wait=120)[2]
        assert first["job_id"] == "mine-1"
        # Resubmitting the same id returns the same (finished) job.
        status, _, body = harness.raw("POST", "/jobs", doc)
        # Finished + cache entry exists → served from cache.
        again = json.loads(body)
        assert status == 200
        assert again["status"] == "done"

    def test_unknown_job_is_404(self, harness):
        status, _, _ = harness.raw("GET", "/jobs/ghost")
        assert status == 404

    def test_invalid_submission_is_400(self, harness):
        for bad in (
            {"benchmark": "NoSuch"},
            {"benchmark": "PCR", "parameters": {"jobs": 4}},
            {"benchmark": "PCR", "nonsense": 1},
            [1, 2, 3],
        ):
            status, _, body = harness.raw("POST", "/jobs", bad)
            assert status == 400, bad
            assert "error" in json.loads(body)

    def test_garbage_body_is_400(self, harness):
        connection = HTTPConnection(
            "127.0.0.1", harness.server.bound_port, timeout=30
        )
        try:
            connection.request("POST", "/jobs", body=b"{not json")
            assert connection.getresponse().status == 400
        finally:
            connection.close()

    def test_events_stream_reaches_done(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        kinds = [
            event.get("event")
            for event in harness.client.events(job_id)
        ]
        assert kinds[0] == "queued"
        assert "started" in kinds
        assert kinds[-2:] == ["done", "end"] or kinds[-1] == "end"


class TestBackpressure:
    def test_full_queue_gets_429_and_no_accepted_job_is_lost(self, tmp_path):
        harness = _Harness(tmp_path, queue_limit=1).start()
        try:
            outcomes = []
            for seed in range(1, 7):
                status, headers, body = harness.raw(
                    "POST",
                    "/jobs",
                    {"benchmark": "PCR", "parameters": {"seed": seed}},
                )
                outcomes.append((status, headers, json.loads(body)))
                if seed == 1:
                    # Hold the queue once the first job is in: without
                    # this, a job that finishes before the next few
                    # POSTs arrive (they share the GIL with the inline
                    # executor) leaves the queue never full.
                    assert harness.raw("POST", "/admin/pause")[0] == 200
            rejected = [o for o in outcomes if o[0] == 429]
            accepted = [o for o in outcomes if o[0] == 202]
            assert rejected, "queue_limit=1 never produced a 429"
            for _, headers, body in rejected:
                assert int(headers["retry-after"]) >= 1
                assert body["retry_after"] >= 1
            assert harness.raw("POST", "/admin/resume")[0] == 200
            # Every accepted job must reach a terminal state.
            for _, _, body in accepted:
                final = harness.client.wait_for(
                    body["job_id"], timeout=120
                )
                assert final["status"] == "done"
            stats = harness.client.stats()
            assert stats["counters"]["serve.jobs_rejected"] == len(rejected)
        finally:
            harness.stop()

    def test_batch_reports_per_item_outcomes(self, tmp_path):
        harness = _Harness(tmp_path, queue_limit=2).start()
        try:
            batch = [
                {"benchmark": "PCR", "parameters": {"seed": s}}
                for s in range(1, 6)
            ] + [{"benchmark": "NoSuch"}]
            response = harness.client.submit_batch(batch)
            entries = response["jobs"]
            assert len(entries) == 6
            statuses = [e["status"] for e in entries]
            assert statuses == ["queued"] * 2 + ["rejected"] * 3 + ["invalid"]
            assert response["accepted"] == 2
            assert response["rejected"] == 4
            for entry in entries:
                if entry["status"] in ("queued", "running"):
                    final = harness.client.wait_for(
                        entry["job_id"], timeout=120
                    )
                    assert final["status"] == "done"
        finally:
            harness.stop()


def _seeded(*seeds):
    return [{"benchmark": "PCR", "parameters": {"seed": s}} for s in seeds]


class TestBatchSemantics:
    """Per-item verdicts of ``POST /jobs/batch`` with the dispatcher
    paused, so every queued item stays queued."""

    @pytest.fixture
    def paused(self, tmp_path):
        instance = _Harness(tmp_path, queue_limit=4).start()
        assert instance.raw("POST", "/admin/pause")[0] == 200
        yield instance
        instance.stop()

    def test_same_job_id_twice_in_one_body(self, paused):
        first, second = ({**PCR, "job_id": "twice"}, {**PCR, "job_id": "twice"})
        response = paused.client.submit_batch([first, second])
        created, existing = response["jobs"]
        assert created["job_id"] == existing["job_id"] == "twice"
        assert created["status"] == existing["status"] == "queued"
        assert response["accepted"] == 2 and response["rejected"] == 0
        counters = paused.client.stats()["counters"]
        assert counters["serve.jobs_accepted"] == 1
        assert paused.client.stats()["queue"]["depth"] == 1

    def test_queue_filling_mid_batch(self, paused, tmp_path):
        from repro.serve.jobs import read_journal

        response = paused.client.submit_batch(_seeded(*range(1, 8)))
        entries = response["jobs"]
        assert [e["status"] for e in entries] == ["queued"] * 4 + ["rejected"] * 3
        for entry in entries[4:]:
            assert entry["retry_after"] >= 1 and "full" in entry["error"]
        journaled = [
            record["id"]
            for record in read_journal(tmp_path / "serve" / "journal.jsonl")
            if record["kind"] == "job"
        ]
        assert journaled == [e["job_id"] for e in entries[:4]]
        assert (response["accepted"], response["rejected"]) == (4, 3)

    def test_hits_invalid_and_queued_keep_their_order(self, tmp_path):
        harness = _Harness(tmp_path).start()
        try:
            warm = harness.client.submit(PCR, wait=120)[2]
            assert warm["status"] == "done"
            assert harness.raw("POST", "/admin/pause")[0] == 200
            before = harness.client.stats()["counters"]
            batch = [
                PCR, {"benchmark": "NoSuch"}, *_seeded(2),
                PCR, {"benchmark": "PCR", "bogus": 1}, *_seeded(3),
            ]
            response = harness.client.submit_batch(batch)
            entries = response["jobs"]
            assert [e["status"] for e in entries] == [
                "done", "invalid", "queued", "done", "invalid", "queued",
            ]
            assert [e.get("cached") for e in entries] == [
                True, None, False, True, None, False,
            ]
            assert entries[0]["result"] == warm["result"]
            assert entries[3]["result"] == warm["result"]
            assert (
                response["accepted"], response["cached"], response["rejected"]
            ) == (2, 2, 2)
            after = harness.client.stats()["counters"]

            def delta(name):
                return after.get(name, 0) - before.get(name, 0)

            assert delta("serve.cache_hits") == 2
            assert delta("serve.cache_misses") == 2
            assert delta("serve.jobs_accepted") == 2
        finally:
            harness.stop()

    def test_stats_counters_match_item_tallies(self, paused):
        batch = _seeded(1, 2, 3) + [{"benchmark": "NoSuch"}] + _seeded(4, 5, 6)
        response = paused.client.submit_batch(batch)
        statuses = [e["status"] for e in response["jobs"]]
        assert statuses == ["queued"] * 3 + ["invalid"] + ["queued", "rejected", "rejected"]
        counters = paused.client.stats()["counters"]
        assert counters["serve.jobs_accepted"] == statuses.count("queued")
        assert counters["serve.cache_misses"] == 6
        assert counters["serve.jobs_rejected"] == statuses.count("rejected")

    def test_one_fsync_per_batch_body(self, tmp_path, monkeypatch):
        """The group-commit gate: a 32-item body costs one fsync."""
        import os

        harness = _Harness(tmp_path, queue_limit=1000).start()
        try:
            assert harness.raw("POST", "/admin/pause")[0] == 200
            calls = []
            real = os.fsync
            monkeypatch.setattr(
                os, "fsync", lambda fd: (calls.append(fd), real(fd))[1]
            )
            response = harness.client.submit_batch(_seeded(*range(1, 33)))
            assert response["accepted"] == 32
            assert len(calls) == 1
            status, _, _ = harness.raw("POST", "/jobs", _seeded(99)[0])
            assert status == 202
            assert len(calls) == 2
        finally:
            harness.stop()


class TestSubmitCli:
    def test_run_submit_prints_metrics_and_cache_marker(
        self, harness, capsys
    ):
        from repro.serve.client import run_submit

        url = f"http://127.0.0.1:{harness.server.bound_port}"
        assert run_submit(["PCR", "--seed", "1", "--url", url]) == 0
        cold = capsys.readouterr().out
        assert cold.startswith("PCR: ")
        assert "execution_time_s=" in cold
        assert "(cached)" not in cold

        assert run_submit(["PCR", "--seed", "1", "--url", url]) == 0
        hot = capsys.readouterr().out
        assert hot.startswith("PCR (cached): ")
        # The replayed metrics line is identical to the original's.
        assert hot.split(": ", 1)[1] == cold.split(": ", 1)[1]


class TestRestart:
    def test_cache_and_journal_survive_reboot(self, tmp_path):
        first = _Harness(tmp_path).start()
        try:
            cold = first.client.submit(PCR, wait=120)[2]
            job_id = cold["job_id"]
            assert cold["status"] == "done"
        finally:
            first.stop()

        second = _Harness(tmp_path).start()
        try:
            # Journal replay: the finished job's status is queryable.
            status = second.client.job(job_id)
            assert status["status"] == "done"
            # Cache replay: resubmission is a (disk-warmed) hit.
            hit = second.client.submit(PCR)[2]
            assert hit["cached"] is True
            assert (
                json.dumps(
                    hit["result"], sort_keys=True, separators=(",", ":")
                )
                == json.dumps(
                    cold["result"], sort_keys=True, separators=(",", ":")
                )
            )
        finally:
            second.stop()


class TestOperational:
    def test_healthz(self, harness):
        health = harness.client.healthz()
        assert health == {"status": "ok", "draining": False}

    def test_stats_shape(self, harness):
        stats = harness.client.stats()
        assert set(stats) >= {
            "uptime_s", "draining", "queue", "cache", "pool",
            "counters", "gauges", "histograms",
        }
        assert stats["queue"]["limit"] == harness.config.queue_limit
        assert stats["pool"]["jobs"] == 1

    def test_unknown_route_is_404(self, harness):
        assert harness.raw("GET", "/nope")[0] == 404

    def test_admin_shutdown_drains(self, tmp_path):
        harness = _Harness(tmp_path).start()
        response = harness.client.shutdown()
        assert response == {"status": "draining"}
        harness.thread.join(timeout=30.0)
        assert not harness.thread.is_alive()


class TestRetryAfterJitter:
    """Unit tests against an idle (never started) server so the hint's
    base is the configured fallback, not a live histogram mean."""

    @pytest.fixture()
    def idle_server(self, tmp_path):
        return SynthesisServer(
            ServeConfig(
                port=0,
                state_dir=tmp_path / "serve",
                retry_after=40.0,
            )
        )

    def test_deterministic_per_key(self, idle_server):
        first = idle_server._retry_after("job-abc")
        assert first == idle_server._retry_after("job-abc")
        assert first >= 1

    def test_jitter_stays_within_half_of_base(self, idle_server):
        import math

        base = idle_server.config.retry_after
        for key in (f"k{i}" for i in range(32)):
            value = idle_server._retry_after(key)
            assert base <= value <= math.ceil(base * 1.5)

    def test_keys_spread_the_herd(self, idle_server):
        values = {
            idle_server._retry_after(f"key-{i}") for i in range(32)
        }
        assert len(values) > 4, "jitter never separated the herd"

    def test_keyless_hint_is_the_plain_mean(self, idle_server):
        assert idle_server._retry_after() == idle_server.config.retry_after


class TestKeepAlive:
    def test_client_reuses_the_connection(self, harness):
        client = harness.client
        client.healthz()
        first = client._connection
        assert first is not None
        client.stats()
        assert client._connection is first

    def test_close_then_reconnect(self, harness):
        client = harness.client
        client.healthz()
        client.close()
        assert client._connection is None
        assert client.healthz()["status"] == "ok"


class TestCacheEndpoint:
    def test_raw_entry_matches_result_bytes(self, harness):
        body = harness.client.submit(PCR, wait=120)[2]
        digest = body["digest"]
        status, _, raw = harness.raw("GET", f"/cache/{digest}")
        assert status == 200
        expected = json.dumps(
            body["result"], sort_keys=True, separators=(",", ":")
        ).encode()
        assert raw == expected

    def test_unknown_key_is_404(self, harness):
        assert harness.raw("GET", "/cache/" + "0" * 64)[0] == 404

    def test_hostile_key_is_400(self, harness):
        assert harness.raw("GET", "/cache/..%2Fescape")[0] == 400


class TestPauseResume:
    def test_paused_accepts_but_does_not_execute(self, tmp_path):
        import time as _time

        harness = _Harness(tmp_path).start()
        try:
            assert harness.raw("POST", "/admin/pause")[0] == 200
            status, _, body = harness.raw("POST", "/jobs", PCR)
            assert status == 202
            job_id = json.loads(body)["job_id"]
            _time.sleep(0.4)
            assert harness.client.job(job_id)["status"] == "queued"
            assert harness.client.stats()["paused"] is True

            assert harness.raw("POST", "/admin/resume")[0] == 200
            final = harness.client.wait_for(job_id, timeout=120)
            assert final["status"] == "done"
        finally:
            harness.stop()


class TestSseResume:
    def test_start_resumes_at_exact_index(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)
        full = list(harness.client.events(job_id))
        assert [e["i"] for e in full] == list(range(len(full)))
        resume_at = full[1]["i"]
        resumed = list(harness.client.events(job_id, start=resume_at))
        assert [e["i"] for e in resumed] == [
            e["i"] for e in full[1:]
        ]
        # Resuming past the end still delivers the terminal frame.
        tail = list(harness.client.events(job_id, start=full[-1]["i"]))
        assert tail[-1]["event"] == "end"

    def test_malformed_start_is_400(self, harness):
        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)
        assert harness.raw("GET", f"/jobs/{job_id}/events?start=x")[0] == 400
        assert harness.raw(
            "GET", f"/jobs/{job_id}/events?start=-1"
        )[0] == 400

    def test_follow_events_survives_dropped_connections(self, harness):
        """The reconnect loop resumes mid-stream without losing or
        repeating a frame — in particular the terminal ``done``."""
        from repro.serve.client import ServeUnavailableError

        status, _, body = harness.raw("POST", "/jobs", PCR)
        job_id = json.loads(body)["job_id"]
        harness.client.wait_for(job_id, timeout=120)

        client = harness.client
        real_events = client.events
        calls = []

        def flaky_events(job_id, start=0):
            calls.append(start)
            frames = list(real_events(job_id, start=start))
            if len(calls) == 1:
                # First connection dies after two frames.
                yield from frames[:2]
                raise ServeUnavailableError("injected drop")
            yield from frames

        client.events = flaky_events
        try:
            followed = list(client.follow_events(job_id))
        finally:
            del client.events
        full = list(real_events(job_id))
        assert [e["i"] for e in followed] == [e["i"] for e in full]
        assert followed[-1]["event"] == "end"
        # The reconnect resumed exactly after the last seen frame.
        assert calls == [0, 2]


class TestEvictionEndToEnd:
    def test_evicted_entry_resynthesises_byte_identical(self, tmp_path):
        """--cache-limit satellite: after LRU eviction the service
        re-synthesises the evicted submission and serves byte-identical
        result text (determinism makes eviction safe)."""
        harness = _Harness(tmp_path, cache_limit=1).start()
        try:
            first = harness.raw("POST", "/jobs?wait=120", PCR)[2]
            other = {"benchmark": "PCR", "parameters": {"seed": 9}}
            harness.raw("POST", "/jobs?wait=120", other)
            stats = harness.client.stats()
            assert stats["cache"]["evictions"] >= 1
            assert stats["counters"]["serve.cache_evictions"] >= 1
            assert stats["cache"]["entries"] == 1

            # PCR seed=1 was evicted: this is a fresh synthesis …
            status, _, again = harness.raw("POST", "/jobs?wait=120", PCR)
            assert status == 200
            assert json.loads(again)["cached"] is False

            # … but the result object is byte-for-byte the original.
            def result_bytes(raw: bytes) -> bytes:
                text = raw.decode("utf-8")
                start = text.index('"result":') + len('"result":')
                depth = 0
                for i in range(start, len(text)):
                    if text[i] == "{":
                        depth += 1
                    elif text[i] == "}":
                        depth -= 1
                        if depth == 0:
                            return text[start: i + 1].encode()
                raise AssertionError("unbalanced result object")

            first_result = json.loads(result_bytes(first))
            again_result = json.loads(result_bytes(again))
            assert (
                first_result["solution_digest"]
                == again_result["solution_digest"]
            )
            assert first_result["metrics"].keys() == (
                again_result["metrics"].keys()
            )
            for key, value in first_result["metrics"].items():
                if key != "cpu_time_s":
                    assert again_result["metrics"][key] == value, key
        finally:
            harness.stop()
