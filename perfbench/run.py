"""The repository benchmark: one command, three workloads, one schema.

Run from the root of a checkout::

    python3 perfbench/run.py --workload synth-large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` runs the
traced variant and reports the per-layer metrics.  The last line of
standard output is the result object; the line before it is the host
fingerprint.  The exit code is 1 when any correctness gate failed.
See README.md for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path

WORKLOADS = ("synth-large", "serve-mixed", "serve-ingest")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
}

PER_LAYER = {
    "assay.load_ms": "ms",
    "schedule.self_s": "s",
    "schedule.ops_per_s": "1/s",
    "place.self_s": "s",
    "place.trials_per_s": "1/s",
    "place.accept_ratio": "ratio",
    "route.self_s": "s",
    "route.postponed_frac": "ratio",
    "core.metrics_ms": "ms",
    "core.digest_ms": "ms",
    "core.serialise_ms": "ms",
    "check.self_s": "s",
    "check.violations": "count",
    "protocol.parse_us": "us",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "cache.hit_ratio": "ratio",
    "http.residue_us": "us",
    "jobs.submit_us": "us",
    "queue.wait_ms": "ms",
    "executor.exec_ms": "ms",
    "executor.dispatch_ms": "ms",
    "cold.p50_s": "s",
    "cold.p90_s": "s",
    "quality.makespan_mean_s": "s",
    "quality.channel_mm_mean": "mm",
    "loadgen.late_p99_ms": "ms",
    "loadgen.max_rate_rps": "1/s",
    "e2e.tail_ms": "ms",
    "trace.residue_frac": "ratio",
    "trace.overhead_frac": "ratio",
    "host.nproc": "count",
    "host.fsync_per_s": "1/s",
    "host.calib_s": "s",
    "host.speed_factor": "ratio",
}


def _terminate(signum: int, frame: object) -> None:
    """On SIGTERM, unwind so that every server and worker is stopped."""
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(
            "error: run from the root of a checkout; src/repro is missing",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(src))

    from common import WORK, adopt_orphans, host_fingerprint, metric, reap

    adopt_orphans()
    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    started = time.perf_counter()
    host = host_fingerprint()
    if args.workload == "synth-large":
        import synth_large as workload
    elif args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import serve_ingest as workload
    try:
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        killed = reap()
        if killed:
            print(f"killed {len(killed)} processes left running: {killed}", file=sys.stderr)

    wanted = PER_LAYER if args.trace else END_TO_END
    metrics = outcome.metrics
    if args.trace:
        metrics.update(
            {
                "host.nproc": metric(host["nproc"], "count"),
                "host.fsync_per_s": metric(host["fsync_per_s"], "1/s"),
                "host.calib_s": metric(host["calib_s"], "s"),
            }
        )
        # A layer the workload's requests never reach did no work; any
        # other layer it did not measure is an error below.
        for name in workload.UNREACHED:
            if name in metrics:
                raise RuntimeError(f"{name} is listed as unreached but was measured")
            metrics[name] = metric(0.0, PER_LAYER[name])
    missing = sorted(set(wanted) - set(metrics))
    if missing:
        raise RuntimeError(f"workload did not measure {missing}")
    for message in outcome.errors[:20]:
        print(f"gate failed: {message}", file=sys.stderr)
    print(
        f"{args.workload}: {outcome.attempted} operations, {outcome.failed} "
        f"failed, {time.perf_counter() - started:.1f}s wall",
        file=sys.stderr,
    )
    correct = not outcome.errors
    print(json.dumps({"host": host}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {name: metrics[name] for name in wanted},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
