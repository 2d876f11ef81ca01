"""``serve-mixed``: cache hits competing with cold synthesis for the CPUs.

One server at default pool width.  An open-loop sender on two
keep-alive connections runs two streams:

* **hit** — at a fixed nominal rate, repeats of submissions warmed
  beforehand, so every request is answered from the result cache;
* **cold** — fresh generated inline assays of Table I size (7-55
  operations) at a fixed 7 jobs/s, about half the default pool's
  capacity on a 2-CPU host, submitted without ``?wait``; each goes
  journal -> queue -> pool -> synthesis -> cache.

Requests are written at their due time whether or not earlier answers
have arrived (HTTP/1.1 pipelining), and every latency is taken from the
due time.  The nominal phase runs in 1 s segments, each scaled by its
own host factor (``SENDER_NOMINAL_S``).  In the traced run the nominal
phase is followed by a ladder on which the hit rate climbs (the cold
rate stays fixed) to find the highest rate that meets the latency
limit.  Cold completion times come from ``GET /jobs/{id}``.
"""

from __future__ import annotations

import json
import random
import select
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Any

import gates
import synth
from common import (
    WORK, Connection, Reference, ServerProcess, Tracer, http_request, measure_server_setup,
    median, metric, percentile, take_response,
)
from outcome import Outcome

#: Hit rate of the nominal phase (requests/s over both connections),
#: well below the knee so the latency reflects service, not queueing.
NOMINAL_RATE = 1000.0
#: A ladder step passes when hit p99 stays under this limit, no request
#: fails and every answer arrives within ``GRACE_S`` of the step's end.
LIMIT_MS = 50.0
GRACE_S = 0.25
STEP_S = 1.0
#: Ladder rates grow by this factor until a step fails, then bisect.
LADDER_GROWTH = 1.5
#: CPU time the sender spends per request of the nominal phase on the
#: nominal host.  The server's CPU time per request drifts with the host
#: (7991-9091 requests per server CPU-second over seeds 71-75), and the
#: sender's, which does the same kind of work (socket calls, HTTP
#: framing, a byte compare) on the same host at the same moments,
#: follows it: their product varied 472k-496k.  Scaling by the sender's
#: time keeps the program's own share.  A CPU task timed between
#: segments of the phase did not follow the server.
SENDER_NOMINAL_S = 55e-6
#: The nominal phase runs in segments of this length, each scaled by its
#: own host factor, so a burst of contention moves a few segments only.
SEGMENT_S = 1.0
#: Share of the measuring time given to the nominal phase.
NOMINAL_SHARE = 0.55
#: Cold jobs per second: about half the capacity of the default
#: two-worker pool on a 2-CPU host (13-18 jobs/s measured through the
#: service).  Fixed, so the offered load does not change with the code
#: under test; standard error reports each run's measured capacity.
COLD_RATE = 7.0
#: Distinct warmed submissions the hit stream repeats.
HIT_KEYS = 8
#: Sizes of the fixed (seed-independent) cold jobs that warm the pool
#: and measure its capacity.
PROBE_SIZES = (7, 14, 21, 28, 35, 42, 49, 55)
SETUPS = 5
TABLE1 = ("PCR", "IVD", "CPA", "Synthetic1", "Synthetic2", "Synthetic3", "Synthetic4")
#: The traced run fails when more than this share of a cold request's
#: latency is outside the accept, queue-wait and synthesis layers.
RESIDUE_LIMIT = 0.35
#: Cold requests re-run traced in process for the layer metrics.
TRACED_COLD = 24
#: Per-layer metrics of layers this workload never reaches: none.
UNREACHED = frozenset()


@dataclass
class Sent:
    due: float
    kind: str
    index: int
    sent: float = 0.0
    done: float = 0.0
    body: bytes = b""
    errors: tuple[str, ...] = ("no response",)

    @property
    def ok(self) -> bool:
        return not self.errors


def cold_problems(seed: int, first: int, count: int) -> list[synth.Problem]:
    """Cold problems ``first .. first+count-1`` of the seed's stream."""
    problems = []
    for index in range(first, first + count):
        rng = random.Random(seed * 1_000_003 + index)
        size = rng.randint(7, 55)
        allocation = synth.table1_allocation(size)
        name = f"cold-{seed}-{index}"
        problems.append(
            synth.Problem(name, synth.generate_assay(name, size, allocation, rng.getrandbits(32)), allocation)
        )
    return problems


class OpenLoop:
    """Single-threaded open-loop sender over two pipelined connections."""

    def __init__(self, conns: list[Connection], hit_bodies: list[bytes], first_hits: list[bytes]) -> None:
        self.conns = conns
        self.hit_requests = [http_request("POST", "/jobs", body) for body in hit_bodies]
        self.first_hits = first_hits

    def drive(self, requests: list[Sent], cold_payloads: list[bytes], stop_after: float) -> None:
        socks = [conn.sock for conn in self.conns]
        pending: list[list[Sent]] = [[] for _ in socks]
        heads = [0 for _ in socks]
        count = len(requests)
        i = 0
        while True:
            now = time.perf_counter()
            while i < count and requests[i].due <= now:
                req = requests[i]
                lane = i % len(socks)
                raw = self.hit_requests[req.index] if req.kind == "hit" else cold_payloads[req.index]
                socks[lane].sendall(raw)
                req.sent = now = time.perf_counter()
                pending[lane].append(req)
                i += 1
            if i >= count and all(heads[k] == len(pending[k]) for k in range(len(socks))):
                return
            if now > stop_after:
                return  # unanswered requests stay failed
            timeout = max(0.0, requests[i].due - now) if i < count else 0.05
            readable, _, _ = select.select(socks, [], [], timeout)
            for lane, sock in enumerate(socks):
                if sock not in readable:
                    continue
                conn = self.conns[lane]
                chunk = sock.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed a load connection")
                conn.buffer += chunk
                while True:
                    parsed = take_response(conn.buffer)
                    if parsed is None:
                        break
                    status, body, conn.buffer = parsed
                    req = pending[lane][heads[lane]]
                    heads[lane] += 1
                    req.done = time.perf_counter()
                    if req.kind == "hit":
                        req.errors = tuple(gates.hit_gate(self.first_hits[req.index], body, status))
                    else:
                        req.errors = () if status == 202 else (f"cold submit answered {status}",)
                        req.body = body


def schedule(start: float, seconds: float, hit_rate: float, cold_rate: float, cold_from: int) -> list[Sent]:
    requests = [
        Sent(start + k / hit_rate, "hit", k % HIT_KEYS)
        for k in range(int(seconds * hit_rate))
    ]
    if cold_rate > 0:
        requests += [
            Sent(start + (k + 0.5) / cold_rate, "cold", cold_from + k)
            for k in range(int(seconds * cold_rate))
        ]
    requests.sort(key=lambda r: r.due)
    return requests


def _step_ok(hits: list[Sent], step_end: float) -> bool:
    if not hits or any(not r.ok for r in hits):
        return False
    if max(r.done for r in hits) > step_end + GRACE_S:
        return False
    return percentile([r.done - r.due for r in hits], 99) * 1e3 <= LIMIT_MS


def _ladder(out: Outcome, loop: OpenLoop, passed_rate: float, budget: float,
            cold_rate: float, cold_payloads: list[bytes], sent: list[Sent]) -> float:
    """Highest hit rate passing a step: grow until a step fails, then
    bisect.  Appends every step's requests to *sent*."""
    budget_end = time.perf_counter() + budget
    next_cold = sum(1 for r in sent if r.kind == "cold")
    low, high = passed_rate, None
    rate = NOMINAL_RATE * LADDER_GROWTH
    while (time.perf_counter() + STEP_S < budget_end
           and next_cold + cold_rate * STEP_S < len(cold_payloads)):
        start = time.perf_counter() + 0.05
        step = schedule(start, STEP_S, rate, cold_rate, next_cold)
        loop.drive(step, cold_payloads, start + STEP_S + 10)
        sent.extend(step)
        next_cold += sum(1 for r in step if r.kind == "cold")
        hits = [r for r in step if r.kind == "hit"]
        passed = _step_ok(hits, start + STEP_S)
        out.note(
            f"serve-mixed ladder step {rate:.0f}/s: {_counts(step)}, hit p99 "
            f"{percentile([r.done - r.due for r in hits], 99) * 1e3:.2f} ms, "
            f"{'pass' if passed else 'fail'}"
        )
        if passed:
            low = max(low, rate)
        else:
            high = rate if high is None else min(high, rate)
        rate = rate * LADDER_GROWTH if high is None else (low * high) ** 0.5
    return low


def _counts(requests: list[Sent]) -> str:
    """Sent, succeeded and failed requests per stream."""
    parts = []
    for kind in ("hit", "cold"):
        mine = [r for r in requests if r.kind == kind]
        ok = sum(r.ok for r in mine)
        parts.append(f"{kind} sent {len(mine)} ok {ok} failed {len(mine) - ok}")
    return "; ".join(parts)


def _local_execute(document: dict[str, Any]) -> tuple[str, float]:
    """In-process ``execute_submission`` on a cold document (pool task)."""
    from repro.serve.executor import JobTask, execute_submission

    start = time.perf_counter()
    outcome = execute_submission(JobTask(document=document))
    return outcome.result_text, time.perf_counter() - start


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    out = Outcome()
    rng = random.Random(seed)
    hit_docs = [
        {"benchmark": TABLE1[k % len(TABLE1)], "parameters": {"seed": rng.randrange(1, 10**6)}}
        for k in range(HIT_KEYS)
    ]
    hit_bodies = [json.dumps(doc).encode() for doc in hit_docs]
    probes = [
        synth.Problem(
            f"probe-{size}",
            synth.generate_assay(f"probe-{size}", size, synth.table1_allocation(size), size),
            synth.table1_allocation(size),
        )
        for size in PROBE_SIZES
    ]

    setup_reference = Reference()
    setup = measure_server_setup("mixed", SETUPS - 1, setup_reference)
    server = ServerProcess("mixed").start()
    setup.append(server.setup_s)
    setup_reference.sample()
    conns: list[Connection] = []
    try:
        conns = [Connection(server.port), Connection(server.port)]
        control = conns[0]
        # Warm the hit keys: synthesize each once, then keep the first hit.
        ids = [control.json("POST", "/jobs", doc)[1]["job_id"] for doc in hit_docs]
        for job_id in ids:
            control.json("GET", f"/jobs/{job_id}?wait=120")
        first_hits = []
        for body in hit_bodies:
            status, raw = control.call("POST", "/jobs", body)
            if status != 200 or not json.loads(raw).get("cached"):
                raise RuntimeError(f"warm hit failed: {status} {raw[:200]!r}")
            first_hits.append(raw)
        # Pool capacity from a burst of cold jobs (also warms the pool).
        probe_ids = [
            control.json("POST", "/jobs", problem.submission())[1]["job_id"]
            for problem in probes
        ]
        exec_times = []
        for job_id in probe_ids:
            _, status = control.json("GET", f"/jobs/{job_id}?wait=120")
            exec_times.append(status["finished"] - status["started"])
        _, stats = control.json("GET", "/stats")
        capacity = stats["pool"]["jobs"] * len(exec_times) / sum(exec_times)
        cold_rate = COLD_RATE
        cold_count = int(cold_rate * seconds) + 2
        cold = cold_problems(seed, 0, cold_count)
        cold_docs = [p.submission(seed=k) for k, p in enumerate(cold)]
        cold_payloads = [http_request("POST", "/jobs", json.dumps(d).encode()) for d in cold_docs]

        loop = OpenLoop(conns, hit_bodies, first_hits)
        wall0, perf0 = time.time(), time.perf_counter()
        nominal_s = seconds * NOMINAL_SHARE if trace else seconds
        count = max(1, round(nominal_s / SEGMENT_S))
        segment_s = nominal_s / count
        nominal: list[Sent] = []
        # (requests, server CPU seconds, sender CPU seconds) per segment
        segments: list[tuple[list[Sent], float, float]] = []
        nominal_ok = True
        for _ in range(count):
            start = time.perf_counter() + 0.005
            part = schedule(start, segment_s, NOMINAL_RATE, cold_rate,
                            sum(1 for r in nominal if r.kind == "cold"))
            cpu0, sender0 = server.cpu_seconds(), time.thread_time()
            loop.drive(part, cold_payloads, start + segment_s + 30)
            segments.append((part, server.cpu_seconds() - cpu0, time.thread_time() - sender0))
            nominal_ok &= _step_ok([r for r in part if r.kind == "hit"], start + segment_s)
            nominal.extend(part)
        sent = list(nominal)
        nominal_hits = [r for r in nominal if r.kind == "hit"]

        max_rate = NOMINAL_RATE if nominal_ok else 0.0
        if trace:
            max_rate = _ladder(out, loop, max_rate, seconds - nominal_s, cold_rate,
                               cold_payloads, sent)

        # Cold completions, from the server's own job timestamps.
        colds = [r for r in sent if r.kind == "cold"]
        jobs = {}
        for req in colds:
            if not req.ok:
                continue
            job_id = json.loads(req.body)["job_id"]
            _, status = control.json("GET", f"/jobs/{job_id}?wait=120")
            jobs[req.index] = status
        _, stats = control.json("GET", "/stats")
        rss = server.peak_rss_mb()
        unloaded = _unloaded_hits(control, hit_bodies, first_hits) if trace else []
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    # Gates: every hit byte-identical, every cold result equal to an
    # in-process run of the same document.
    for req in sent:
        if req.kind == "hit":
            out.record(list(req.errors))
    local: dict[int, tuple[str, float]] = {}
    indices = sorted(jobs)
    # Fork: "spawn" would also start a resource tracker, a process that
    # ends only after this one has.
    with ProcessPoolExecutor(max_workers=2, mp_context=get_context("fork")) as pool:
        for index, result in zip(indices, pool.map(_local_execute, [cold_docs[i] for i in indices])):
            local[index] = result
    for req in colds:
        status = jobs.get(req.index)
        if status is None:
            out.record(list(req.errors))
            continue
        errors = gates.job_status_gate(status, "done")
        if not errors:
            errors = gates.service_result_gate(status["result"], json.loads(local[req.index][0]))
        out.record(errors)

    hit_lat = [(r.done - r.due) * 1e3 for r in nominal_hits if r.ok]
    late = [(r.sent - r.due) * 1e3 for r in nominal]
    late_p50, late_p99 = percentile(late, 50), percentile(late, 99)
    hit_p50 = percentile(hit_lat, 50)
    hit_p99 = percentile(hit_lat, 99)
    out.note(
        f"serve-mixed nominal phase: {_counts(nominal)}; cold rate {cold_rate:.1f}/s "
        f"of a measured capacity of {capacity:.1f}/s; "
        f"sender late p50/p99 {late_p50:.3f}/{late_p99:.3f} ms"
    )
    if late_p50 > 0.5 * hit_p50 or late_p99 > 0.5 * hit_p99:
        out.note(
            f"serve-mixed: FLAG sender lateness p50/p99 {late_p50:.3f}/{late_p99:.3f} ms "
            f"is not well below hit p50/p99 {hit_p50:.3f}/{hit_p99:.3f} ms"
        )
    # Per segment, requests per server CPU-second and hit p50, each
    # scaled by the segment's host factor: the sender's own CPU time
    # per request against nominal (see SENDER_NOMINAL_S).  The run
    # reports their medians.
    factors, rates, p50s = [], [], []
    for part, server_cpu, sender_cpu in segments:
        factor = sender_cpu / len(part) / SENDER_NOMINAL_S
        factors.append(factor)
        rates.append(sum(r.ok for r in part) / server_cpu * factor)
        p50s.append(percentile(
            [(r.done - r.due) * 1e3 for r in part if r.kind == "hit" and r.ok], 50
        ) / factor)
    factor = median(factors)
    out.note(
        f"serve-mixed: measured {sum(r.ok for r in nominal) / sum(c for _, c, _ in segments):.0f} "
        f"requests per server CPU-second, hit p50 {hit_p50:.4f} ms; median segment "
        f"host factor {factor:.3f}; set-up median {median(setup):.4f} s, "
        f"set-up {setup_reference.describe()}"
    )
    if not trace:
        # Rates and times at the nominal host speed.
        out.metrics = {
            "setup_s": metric(median(setup) / setup_reference.factor(), "s"),
            "peak_rss_mb": metric(rss, "MB"),
            "throughput_per_s": metric(median(rates), "1/s"),
            "p50_ms": metric(median(p50s), "ms"),
        }
        return out
    out = _layers(out, seed, hit_docs, cold, cold_docs, colds, jobs, local, stats,
                  unloaded, late_p99, max_rate, wall0, perf0)
    out.metrics["e2e.tail_ms"] = metric(hit_p99, "ms")
    out.metrics["host.speed_factor"] = metric(factor, "ratio")
    return out


def _unloaded_hits(conn: Connection, bodies: list[bytes], first: list[bytes], count: int = 600) -> list[float]:
    """Closed-loop hit latencies on one idle connection (seconds)."""
    times = []
    for k in range(count):
        start = time.perf_counter()
        status, body = conn.call("POST", "/jobs", bodies[k % len(bodies)])
        times.append(time.perf_counter() - start)
        if status != 200 or body != first[k % len(bodies)]:
            raise RuntimeError("unloaded hit differs from the first response")
    return times


def _mean_us(call, repeats: int) -> float:
    start = time.perf_counter()
    for _ in range(repeats):
        call()
    return (time.perf_counter() - start) / repeats * 1e6


def _layers(out, seed, hit_docs, cold, cold_docs, colds, jobs, local, stats,
            unloaded, late_p99, max_rate, wall0, perf0) -> Outcome:
    from repro.serve.cache import ResultCache
    from repro.serve.http import dumps_with_raw
    from repro.serve.jobs import JobQueue
    from repro.serve.protocol import parse_submission

    tracer = Tracer()
    # Cold requests: spans rebuilt from the server's timestamps, plus
    # the same documents traced layer by layer in process.
    due_wall = {r.index: wall0 + (r.due - perf0) for r in colds}
    latency, waits, execs, dispatch = [], [], [], []
    residues, overhead = [], []
    quality = []
    violations = 0
    traced_indices = sorted(jobs)[:TRACED_COLD]
    for index in sorted(jobs):
        status = jobs[index]
        if status.get("status") != "done":
            continue
        due = due_wall[index]
        root = tracer.add("cold.request", due, status["finished"], request=status["job_id"])
        tracer.add("cold.accept", due, status["created"], root)
        tracer.add("queue.wait", status["created"], status["started"], root)
        tracer.add("executor.exec", status["started"], status["finished"], root)
        latency.append(status["finished"] - due)
        waits.append(status["started"] - status["created"])
        execs.append(status["finished"] - status["started"])
        dispatch.append(execs[-1] - local[index][1])
        if index in traced_indices:
            mark = len(tracer.spans)
            plain = synth.solve(cold[index], seed=index)
            solved = synth.solve_traced(cold[index], tracer, status["job_id"], seed=index)
            layer_self = sum(tracer.self_times()[mark + 1:])
            report = synth.check_traced(solved.result, tracer, status["job_id"])
            violations += report.error_count
            for message in gates.checker_gate(report):
                out.fail(f"traced {status['job_id']}: {message}")
            for message in gates.service_result_gate(status["result"], json.loads(solved.text)):
                out.fail(f"traced {status['job_id']}: {message}")
            attributed = (status["started"] - due) + layer_self
            residues.append((latency[-1] - attributed) / latency[-1])
            overhead.append(solved.seconds / plain.seconds - 1.0)
            quality.append(solved)
    tracer.write(WORK / "trace-serve-mixed.jsonl")
    totals = tracer.totals()
    traced = len(quality)

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    # Hit path layers, in process on the same documents.
    parse_us = _mean_us(lambda: parse_submission(hit_docs[0]), 2000)
    text = local[min(local)][0]
    with tempfile.TemporaryDirectory(dir=WORK) as scratch:
        cache = ResultCache(Path(scratch) / "cache")
        keys = [f"{k:064x}" for k in range(200)]
        start = time.perf_counter()
        for key in keys:
            cache.put(key, text)
        put_us = (time.perf_counter() - start) / len(keys) * 1e6
        get_us = _mean_us(lambda: cache.get(keys[7]), 2000)
        queue = JobQueue(Path(scratch) / "journal.jsonl", limit=10**6)
        docs = [parse_submission(d) for d in cold_docs[:200]]
        start = time.perf_counter()
        for sub in docs:
            queue.submit(sub.document, digest=sub.digest, cache_key=sub.cache_key)
        submit_us = (time.perf_counter() - start) / len(docs) * 1e6
    payload = {"job_id": None, "status": "done", "cached": True, "digest": "0" * 64}
    dumps_us = _mean_us(lambda: dumps_with_raw(payload, {"result": text}), 2000)
    hit_unloaded_us = percentile(unloaded, 50) * 1e6
    cache_stats = stats.get("cache", {})
    lookups = cache_stats.get("hits", 0) + cache_stats.get("misses", 0)
    residue = median(residues)
    if residue > RESIDUE_LIMIT:
        out.fail(f"serve-mixed: cold residue {residue:.3f} above {RESIDUE_LIMIT}")
    stats_sum = {key: sum(s.stats[key] for s in quality) for key in quality[0].stats}
    out.metrics = {
        "assay.load_ms": metric(self_s("assay.load") / traced * 1e3, "ms"),
        "schedule.self_s": metric(self_s("schedule") / traced, "s"),
        "schedule.ops_per_s": metric(stats_sum["operations"] / self_s("schedule"), "1/s"),
        "place.self_s": metric(self_s("place") / traced, "s"),
        "place.trials_per_s": metric(stats_sum["trials"] / self_s("place"), "1/s"),
        "place.accept_ratio": metric(stats_sum["accepted"] / stats_sum["trials"], "ratio"),
        "route.self_s": metric(self_s("route") / traced, "s"),
        "route.postponed_frac": metric(stats_sum["postponed"] / max(1, stats_sum["paths"]), "ratio"),
        "core.metrics_ms": metric(self_s("core.metrics") / traced * 1e3, "ms"),
        "core.digest_ms": metric(self_s("core.digest") / traced * 1e3, "ms"),
        "core.serialise_ms": metric(self_s("core.serialise") / traced * 1e3, "ms"),
        "check.self_s": metric(self_s("check") / traced, "s"),
        "check.violations": metric(violations, "count"),
        "protocol.parse_us": metric(parse_us, "us"),
        "cache.get_us": metric(get_us, "us"),
        "cache.put_us": metric(put_us, "us"),
        "cache.hit_ratio": metric(cache_stats.get("hits", 0) / max(1, lookups), "ratio"),
        "http.residue_us": metric(hit_unloaded_us - parse_us - get_us - dumps_us, "us"),
        "jobs.submit_us": metric(submit_us, "us"),
        "queue.wait_ms": metric(sum(waits) / len(waits) * 1e3, "ms"),
        "executor.exec_ms": metric(sum(execs) / len(execs) * 1e3, "ms"),
        "executor.dispatch_ms": metric(sum(dispatch) / len(dispatch) * 1e3, "ms"),
        "cold.p50_s": metric(percentile(latency, 50), "s"),
        "cold.p90_s": metric(percentile(latency, 90), "s"),
        "quality.makespan_mean_s": metric(
            sum(s.result.metrics.execution_time for s in quality) / traced, "s"
        ),
        "quality.channel_mm_mean": metric(
            sum(s.result.metrics.total_channel_length_mm for s in quality) / traced, "mm"
        ),
        "loadgen.late_p99_ms": metric(late_p99, "ms"),
        "loadgen.max_rate_rps": metric(max_rate, "1/s"),
        "trace.residue_frac": metric(residue, "ratio"),
        "trace.overhead_frac": metric(median(overhead), "ratio"),
    }
    return out
