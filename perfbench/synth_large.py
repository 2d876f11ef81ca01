"""``synth-large``: a closed loop of large synthesis requests in process.

The only workload where schedule, place and route all carry real
weight (README.md has the layer table).  One client solves the seed's
problem set in order, then starts over, until the measuring time is
used up at the end of a pass; every problem is solved equally often.
Repeats of a problem must reproduce its first solution digest exactly.
"""

from __future__ import annotations

import subprocess
import sys
import time

import gates
import synth
from common import (
    WORK, Reference, Tracer, median, metric, percentile, program_env,
    self_peak_rss_mb,
)
from outcome import Outcome

#: Distinct problems per run (sizes 150-250 operations).
PROBLEMS = 32
#: Tail percentile of the solve time (traced run): with 32 untraced
#: solves, p80 is the highest percentile that keeps six samples beyond.
TAIL = 80
#: Library start-ups timed per run for ``setup_s``.
SETUPS = 5
#: The traced run fails when more than this share of a request's time
#: is outside every layer span.
RESIDUE_LIMIT = 0.05
#: Per-layer metrics of layers this workload never reaches (reported 0).
UNREACHED = frozenset({
    "protocol.parse_us", "cache.get_us", "cache.put_us", "cache.hit_ratio",
    "http.residue_us", "jobs.submit_us", "queue.wait_ms", "executor.exec_ms",
    "executor.dispatch_ms", "cold.p50_s", "cold.p90_s", "loadgen.late_p99_ms",
    "loadgen.max_rate_rps",
})

_READY = (
    "import repro.core.synthesizer, repro.serve.protocol, repro.check, "
    "repro.core.io; print('ready')"
)


def _setup_times(reference: Reference) -> list[float]:
    times = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", _READY],
            env=program_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=120, check=True,
        )
        if done.stdout.strip() != b"ready":
            raise RuntimeError(done.stderr.decode())
        times.append(time.perf_counter() - start)
        reference.sample()
    return times


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.check import check_result

    out = Outcome()
    problems = synth.large_problems(seed, PROBLEMS)
    setup_reference = Reference()
    setup = _setup_times(setup_reference)
    # Import the program and let lazy set-up finish before timing.
    synth.solve(min(problems, key=lambda p: p.operations))
    if trace:
        return _traced(problems, out)

    first: dict[int, str] = {}
    solve_times: list[float] = []
    reference = Reference()
    index = 0
    # Whole passes over the problem set, so every run solves the same
    # spread of sizes.
    while sum(solve_times) < seconds or index % len(problems):
        position = index % len(problems)
        problem = problems[position]
        solved = synth.solve(problem)
        solve_times.append(solved.seconds)
        digest = gates.solution_digest(solved.result)
        errors = gates.digest_gate(
            first.setdefault(position, digest), digest, f"{problem.name} repeat"
        )
        if index < len(problems):
            errors += gates.checker_gate(check_result(solved.result))
        out.record(errors)
        reference.sample()
        index += 1

    # Rates and times at the nominal host speed (see common.Reference).
    factor = reference.factor()
    problems_per_s = len(solve_times) / sum(solve_times)
    solve_p50_ms = median(solve_times) * 1e3
    out.metrics = {
        "setup_s": metric(median(setup) / setup_reference.factor(), "s"),
        "peak_rss_mb": metric(self_peak_rss_mb(), "MB"),
        "throughput_per_s": metric(problems_per_s * factor, "1/s"),
        "p50_ms": metric(solve_p50_ms / factor, "ms"),
    }
    out.note(
        f"synth-large: {len(solve_times)} solves of {len(problems)} problems, "
        f"measured {problems_per_s:.3f} problems/s, solve p50 {solve_p50_ms:.1f} ms; "
        + reference.describe()
        + f"; set-up median {median(setup):.4f} s, set-up {setup_reference.describe()}"
    )
    return out


def _traced(problems: list[synth.Problem], out: Outcome) -> Outcome:
    """Untraced pass, then the same problems traced layer by layer."""
    reference = Reference()
    plain = []
    for problem in problems:
        plain.append(synth.solve(problem))
        reference.sample()
    tracer = Tracer()
    traced = []
    violations = 0
    for problem, untraced in zip(problems, plain):
        solved = synth.solve_traced(problem, tracer, problem.name)
        report = synth.check_traced(solved.result, tracer, problem.name)
        violations += report.error_count
        out.record(
            gates.checker_gate(report)
            + gates.digest_gate(
                gates.solution_digest(untraced.result),
                gates.solution_digest(solved.result),
                f"{problem.name} traced",
            )
        )
        traced.append(solved)
    tracer.write(WORK / "trace-synth-large.jsonl")

    totals = tracer.totals()
    count = len(problems)

    def self_s(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[2]

    stats = {key: sum(s.stats[key] for s in traced) for key in traced[0].stats}
    requests = totals["request"]
    residue = requests[2] / requests[1]
    if residue > RESIDUE_LIMIT:
        out.fail(f"synth-large: residue {residue:.3f} above {RESIDUE_LIMIT}")
    plain_total = sum(s.seconds for s in plain)
    metrics_doc = [s.result.metrics for s in traced]
    out.metrics = {
        "assay.load_ms": metric(self_s("assay.load") / count * 1e3, "ms"),
        "schedule.self_s": metric(self_s("schedule") / count, "s"),
        "schedule.ops_per_s": metric(stats["operations"] / self_s("schedule"), "1/s"),
        "place.self_s": metric(self_s("place") / count, "s"),
        "place.trials_per_s": metric(stats["trials"] / self_s("place"), "1/s"),
        "place.accept_ratio": metric(stats["accepted"] / stats["trials"], "ratio"),
        "route.self_s": metric(self_s("route") / count, "s"),
        "route.postponed_frac": metric(stats["postponed"] / max(1, stats["paths"]), "ratio"),
        "core.metrics_ms": metric(self_s("core.metrics") / count * 1e3, "ms"),
        "core.digest_ms": metric(self_s("core.digest") / count * 1e3, "ms"),
        "core.serialise_ms": metric(self_s("core.serialise") / count * 1e3, "ms"),
        "check.self_s": metric(self_s("check") / count, "s"),
        "check.violations": metric(violations, "count"),
        "quality.makespan_mean_s": metric(
            sum(m.execution_time for m in metrics_doc) / count, "s"
        ),
        "quality.channel_mm_mean": metric(
            sum(m.total_channel_length_mm for m in metrics_doc) / count, "mm"
        ),
        "trace.residue_frac": metric(residue, "ratio"),
        "trace.overhead_frac": metric(requests[1] / plain_total - 1.0, "ratio"),
        "e2e.tail_ms": metric(percentile([s.seconds for s in plain], TAIL) * 1e3, "ms"),
        "host.speed_factor": metric(reference.factor(), "ratio"),
    }
    return out
