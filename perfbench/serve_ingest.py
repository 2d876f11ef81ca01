"""``serve-ingest``: the write path, with execution paused.

The dispatcher is paused (``POST /admin/pause``) and ``--queue-limit``
is far above what a run can send, so every submission must be accepted
(a 429 is a real failure) and stay queued.  One keep-alive connection
keeps ``DEPTH`` pipelined ``/jobs/batch`` bodies of ``BATCH`` distinct
benchmark submissions in flight (a closed loop with pipelining); the
ack latency of a batch runs from its send to its response.  A second
connection adds nothing but a bimodal ack time: the server works one
batch at a time either way, and a batch then waits behind one or two
others depending on how the two connections interleave.  Each
accepted item costs a parse, a digest and a journal append with fsync;
the cache and synthesis are bypassed.  The run is cut into 0.5 s
windows, each drained before the journal reference task
(``common.Reference``) runs.
"""

from __future__ import annotations

import json
import random
import tempfile
import time
from pathlib import Path

import gates
from common import (
    WORK, Connection, Reference, ServerProcess, Tracer, http_request, measure_server_setup,
    median, metric, percentile,
)
from outcome import Outcome

BATCH = 32
DEPTH = 2
QUEUE_LIMIT = 100_000_000
SETUPS = 5
#: Length of one ingest window; the reference task runs between windows.
WINDOW_S = 0.5
#: Server memory is read once this many items are queued, so the
#: figure does not grow with the ingest rate.
RSS_AT_ITEMS = 40_000
#: Per-layer metrics of layers this workload never reaches (reported 0):
#: synthesis, the cache's reads and writes, execution and the ladder.
UNREACHED = frozenset({
    "assay.load_ms", "schedule.self_s", "schedule.ops_per_s", "place.self_s",
    "place.trials_per_s", "place.accept_ratio", "route.self_s",
    "route.postponed_frac", "core.metrics_ms", "core.digest_ms",
    "core.serialise_ms", "check.self_s", "check.violations", "cache.get_us",
    "cache.put_us", "queue.wait_ms", "executor.exec_ms", "executor.dispatch_ms",
    "cold.p50_s", "cold.p90_s", "quality.makespan_mean_s",
    "quality.channel_mm_mean", "loadgen.late_p99_ms", "loadgen.max_rate_rps",
})
#: Queued jobs looked up one by one after the run.
SPOT_CHECKS = 64
TABLE1 = ("PCR", "IVD", "CPA", "Synthetic1", "Synthetic2", "Synthetic3", "Synthetic4")
#: The traced run fails when more than this share of an unloaded batch
#: ack (median over rounds) is outside the parse and journal-submit
#: layers.  It measured 0.19-0.31 over five seeds: the server's
#: per-item bookkeeping (event log, gauges, dispatcher kick) and the
#: batch's HTTP and JSON framing.
RESIDUE_LIMIT = 0.45


def item(seed_base: int, index: int) -> str:
    return '{"benchmark":"%s","parameters":{"seed":%d}}' % (
        TABLE1[index % len(TABLE1)], seed_base + index,
    )


def batch_request(seed_base: int, first: int) -> bytes:
    items = ",".join(item(seed_base, first + k) for k in range(BATCH))
    return http_request("POST", "/jobs/batch", ('{"jobs":[%s]}' % items).encode())


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    seed_base = random.Random(seed).randrange(10**6, 10**9)
    extra = ["--queue-limit", str(QUEUE_LIMIT)]
    setup_reference = Reference()
    setup = measure_server_setup("ingest", SETUPS - 1, setup_reference, extra)
    server = ServerProcess("ingest", extra).start()
    setup.append(server.setup_s)
    setup_reference.sample()
    conn: Connection | None = None
    job_ids: list[str] = []
    acks: list[float] = []
    rss = 0.0
    reference = Reference(journal=True)
    try:
        conn = Connection(server.port)
        status, _ = conn.call("POST", "/admin/pause")
        if status != 200:
            raise RuntimeError(f"pause answered {status}")
        next_item = 0
        elapsed = 0.0
        run_end = time.perf_counter() + seconds
        while time.perf_counter() < run_end:
            # One window of pipelined batches, drained, then the
            # reference task while the server is idle.
            inflight: list[float] = []
            start = last_ack = time.perf_counter()
            stop = min(start + WINDOW_S, run_end)
            while True:
                while len(inflight) < DEPTH and time.perf_counter() < stop:
                    conn.sock.sendall(batch_request(seed_base, next_item))
                    next_item += BATCH
                    inflight.append(time.perf_counter())
                if not inflight:
                    break
                status, body = conn.read_response()
                last_ack = time.perf_counter()
                acks.append(last_ack - inflight.pop(0))
                entries = json.loads(body).get("jobs", []) if status == 200 else []
                for entry in entries:
                    errors = gates.ingest_item_gate(entry)
                    out.record(errors)
                    if not errors:
                        job_ids.append(entry["job_id"])
                for _ in range(BATCH - len(entries)):
                    out.record([f"batch answered {status}"])
                if not rss and len(job_ids) >= RSS_AT_ITEMS:
                    rss = server.peak_rss_mb()
            elapsed += last_ack - start
            reference.sample()
        if not rss:
            rss = server.peak_rss_mb()
        _, stats = conn.json("GET", "/stats")
        out.record(gates.still_queued_gate(stats, len(job_ids)))
        for job_id in random.Random(seed).sample(job_ids, min(SPOT_CHECKS, len(job_ids))):
            _, status_doc = conn.json("GET", f"/jobs/{job_id}")
            out.record(gates.job_status_gate(status_doc, "queued"))
        if trace:
            _layers(out, conn, seed_base, next_item, stats)
    finally:
        if conn is not None:
            conn.close()
        server.stop()
        reference.close()

    items_per_s = len(job_ids) / elapsed
    out.note(
        f"serve-ingest: sent {next_item} items in {len(acks)} batches, "
        f"queued {len(job_ids)}, measured {items_per_s:.0f} items/s, ack p50/p95/p99 "
        + "/".join(f"{percentile(acks, q) * 1e3:.2f}" for q in (50, 95, 99)) + " ms; "
        + reference.describe()
        + f"; set-up median {median(setup):.4f} s, set-up {setup_reference.describe()}"
    )
    if not trace:
        # Rates and times at the nominal host speed (common.Reference).
        factor = reference.factor()
        out.metrics = {
            "setup_s": metric(median(setup) / setup_reference.factor(), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "throughput_per_s": metric(items_per_s * factor, "1/s"),
            "p50_ms": metric(percentile(acks, 50) * 1e3 / factor, "ms"),
        }
        return out
    out.metrics["e2e.tail_ms"] = metric(percentile(acks, 99) * 1e3, "ms")
    out.metrics["host.speed_factor"] = metric(reference.factor(), "ratio")
    return out


def _layers(out: Outcome, conn: Connection, seed_base: int, first: int, stats: dict,
            rounds: int = 60) -> None:
    """Unloaded batch acks, interleaved with the parse and journal
    submit of as many items in process, untraced and traced, so all
    three sample the host at the same moments."""
    from repro.serve.jobs import JobQueue
    from repro.serve.protocol import parse_submission

    for index in range(len(TABLE1)):
        parse_submission(json.loads(item(seed_base, index)))  # per-benchmark set-up
    tracer = Tracer()
    plain = traced = 0.0
    residues_s: list[float] = []
    residue_fracs: list[float] = []
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        plain_queue = JobQueue(Path(scratch) / "plain.jsonl", limit=QUEUE_LIMIT)
        traced_queue = JobQueue(Path(scratch) / "traced.jsonl", limit=QUEUE_LIMIT)
        for round_index in range(rounds):
            began = time.perf_counter()
            conn.sock.sendall(batch_request(seed_base, first + round_index * BATCH))
            status, body = conn.read_response()
            ack = time.perf_counter() - began
            entries = json.loads(body).get("jobs", [])
            if status != 200 or any(gates.ingest_item_gate(e) for e in entries):
                raise RuntimeError("unloaded ingest batch was not fully queued")
            documents = [
                json.loads(item(seed_base, 10**8 + round_index * BATCH + k)) for k in range(BATCH)
            ]
            began = time.perf_counter()
            for document in documents:
                sub = parse_submission(document)
                plain_queue.submit(sub.document, digest=sub.digest, cache_key=sub.cache_key)
            plain += time.perf_counter() - began
            began = time.perf_counter()
            mark = len(tracer.spans)
            for document in documents:
                with tracer.span("item", str(document["parameters"]["seed"])):
                    with tracer.span("protocol.parse"):
                        sub = parse_submission(document)
                    with tracer.span("jobs.submit"):
                        traced_queue.submit(sub.document, digest=sub.digest, cache_key=sub.cache_key)
            traced += time.perf_counter() - began
            layers = sum(span.duration for span in tracer.spans[mark:] if span.name != "item")
            residues_s.append(ack - layers)
            residue_fracs.append((ack - layers) / ack)
    tracer.write(WORK / "trace-serve-ingest.jsonl")
    totals = tracer.totals()
    items = rounds * BATCH
    residue = median(residue_fracs)
    if residue > RESIDUE_LIMIT:
        out.fail(f"serve-ingest: residue {residue:.3f} above {RESIDUE_LIMIT}")
    cache_stats = stats.get("cache", {})
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    out.metrics = {
        "protocol.parse_us": metric(totals["protocol.parse"][2] / items * 1e6, "us"),
        "jobs.submit_us": metric(totals["jobs.submit"][2] / items * 1e6, "us"),
        "http.residue_us": metric(median(residues_s) * 1e6, "us"),
        "cache.hit_ratio": metric(cache_stats.get("hits", 0) / max(1, lookups), "ratio"),
        "trace.residue_frac": metric(residue, "ratio"),
        "trace.overhead_frac": metric(traced / plain - 1.0, "ratio"),
    }
