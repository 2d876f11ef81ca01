"""``python -m repro.experiments bench`` — engine perf comparison.

Two tiers, selected by ``--scale``:

* ``--scale table1`` (default) times every requested benchmark through
  the full pipeline once per *placement* engine (reference vs
  incremental) and writes the ``BENCH_pr3.json`` artifact.
* ``--scale large`` times the scale tier (Scale50/100/200 synthetic
  assays, where routing dominates) once per *routing* engine
  (reference vs ``flat``) and writes the ``BENCH_pr7.json`` artifact;
  the comparison carries path digests, so a routing-parity break fails
  the run.

A third tier, ``--portfolio N``, replaces the engine comparison with
the solver comparison: a successive-halving race of ``N``
heterogeneous SA arms versus classic ``restarts = N/2`` multi-start at
the same total candidate budget (see ``docs/PERFORMANCE.md``).  It
writes the ``BENCH_pr8.json`` artifact and exits non-zero unless the
race is strictly better on energy-per-CPU-second, bit-identical
across ``--jobs`` levels, and clean under the strict checker.

Both tiers also record the per-search A* latency distribution
(``astar.search_seconds`` — count/mean/p50/p90/p99/max from the
in-memory histogram, see ``docs/OBSERVABILITY.md``) in each run's
payload; the route table prints the fast engine's p99.  ``--throughput
BATCH`` additionally measures raw SA placement throughput (legal
candidate moves evaluated per second, every placement engine, batch at
BATCH candidates per step) and attaches the section to the artifact.
The committed ``BENCH_pr6.json`` artifact is the route tier rerun with
``--output BENCH_pr6.json`` after latency histograms landed;
``BENCH_pr7.json`` is the same tier after the vectorized routing
kernels and the numpy batch SA kernel landed, with the throughput
section.

Options::

    --scale TIER         table1 (placement engines) or large (routing
                         engines over the scale tier)
    --quick              smallest-benchmark subset, fewer repeats (CI)
    --benchmarks A B     explicit benchmark subset
    --seed N             annealer seed shared by both engines
    --repeat N           timed repetitions per engine; the median is
                         reported with the min/max spread alongside
                         (--repeats is accepted as an alias)
    --jobs N             worker processes for the per-benchmark fan-out
                         (0 = one per CPU); results are identical for
                         every value
    --scaling JOBS...    also wall-clock the suite at these job levels
                         (e.g. --scaling 1 2 4) and record the rows
    --multistart N       also record best-of-N-restarts placement
                         energy vs the single run per benchmark
    --check MODE         design-rule audit of every timed run: off,
                         report (default; violation counts land in the
                         table and artifact), or strict (fail on any
                         violation)
    --throughput BATCH   also measure raw SA placement throughput
                         (moves/sec per engine; batch at BATCH
                         candidates per step) and record the section
    --portfolio N        run the portfolio tier: N racing arms vs
                         equal-budget multi-start on Scale100/200
                         (--rungs sets the halving rungs)
    --output PATH        JSON artifact path (default: BENCH_pr3.json,
                         or BENCH_pr7.json with --scale large)
    --require-speedup B  exit non-zero if the optimised engine is
                         slower than the reference on benchmark B
                         (placement phase on the table1 tier, routing
                         phase on the large tier)

Exit codes: 0 on success; 1 when a ``--require-speedup`` gate fails,
the paired engines disagree on any best energy / path digest (which
the parity guarantees forbid), a multi-start energy degrades below
the single run (which the seed-derivation scheme forbids), or the
batch placement engine's energy lands above the serial engines' on a
``--throughput`` row (which the never-worse guarantee forbids).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.benchmarks.registry import SCALE_ORDER, TABLE1_ORDER, benchmark_names
from repro.check.report import CHECK_MODES
from repro.perf.harness import (
    measure_jobs_scaling,
    measure_multistart,
    measure_placement_throughput,
    measure_portfolio,
    run_route_suite,
    run_suite,
)
from repro.perf.report import (
    comparisons_to_payload,
    portfolio_rows_to_payload,
    render_bench_table,
    render_multistart_table,
    render_portfolio_table,
    render_route_table,
    render_scaling_table,
    render_throughput_table,
    route_comparisons_to_payload,
    write_bench_json,
)

__all__ = ["build_parser", "run", "main"]

#: Subset exercised by ``--quick``: the smallest benchmark (the CI
#: gate's subject), a mid-size one, and one large enough to show the
#: incremental engine's asymptotic win.
QUICK_BENCHMARKS = ("PCR", "IVD", "CPA")

#: ``--quick`` subset of the scale tier: large enough for the routing
#: phase to dominate, small enough for a CI job.
QUICK_SCALE_BENCHMARKS = ("Scale50", "Scale100")

#: Default artifact name; the trailing tag names the PR that introduced
#: the numbers, so successive optimisation PRs each leave their own
#: trajectory point in-tree.
DEFAULT_OUTPUT = "BENCH_pr3.json"

#: Default artifact for the routing-engine tier (``--scale large``).
DEFAULT_ROUTE_OUTPUT = "BENCH_pr7.json"

#: Benchmarks the ``--multistart`` section covers by default (two
#: Table I rows, per the multi-start acceptance check).
MULTISTART_BENCHMARKS = ("PCR", "IVD")

#: Benchmark the ``--throughput`` section covers by default: the
#: largest scale-tier assay, where the batch kernel's vectorization win
#: is most visible.
THROUGHPUT_BENCHMARKS = ("Scale200",)

#: Benchmarks the ``--portfolio`` tier gates on: the two largest scale
#: assays, where CPU efficiency is what matters.
PORTFOLIO_BENCHMARKS = ("Scale100", "Scale200")

#: ``--quick`` subset of the portfolio tier (CI smoke).
QUICK_PORTFOLIO_BENCHMARKS = ("Scale50",)

#: Default artifact for the portfolio tier (``--portfolio``).
DEFAULT_PORTFOLIO_OUTPUT = "BENCH_pr8.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments bench",
        description=(
            "Time the SA placement engines (reference vs incremental) "
            "across benchmarks and write the BENCH JSON artifact."
        ),
    )
    parser.add_argument(
        "--scale",
        choices=("table1", "large"),
        default="table1",
        help="benchmark tier: table1 compares the placement engines on "
             "the paper's rows, large compares the routing engines "
             "(reference vs the fast engine) on the Scale50/100/200 "
             "synthetic assays (default: table1)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help=f"run only {', '.join(QUICK_BENCHMARKS)} with 2 repeats "
             f"({', '.join(QUICK_SCALE_BENCHMARKS)} with --scale large)",
    )
    parser.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        choices=benchmark_names(),
        help="explicit benchmark subset (default: all Table I rows)",
    )
    parser.add_argument("--seed", type=int, default=1,
                        help="annealer seed for both engines (default: 1)")
    parser.add_argument("--repeat", "--repeats", dest="repeat", type=int,
                        default=None,
                        help="timed repetitions per engine; the median is "
                             "kept and the min/max spread recorded "
                             "(default: 3, or 2 with --quick)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the benchmark fan-out; "
                             "results are identical for every value "
                             "(default: 1, 0 = one per CPU)")
    parser.add_argument("--scaling", nargs="+", type=int, metavar="JOBS",
                        default=None,
                        help="also wall-clock the suite at these job "
                             "levels (e.g. --scaling 1 2 4) and record "
                             "the rows in the artifact")
    parser.add_argument("--multistart", type=int, metavar="N", default=None,
                        help="also record best-of-N-restarts placement "
                             "energy vs the single run")
    parser.add_argument("--multistart-benchmarks", nargs="+", metavar="NAME",
                        default=None, choices=benchmark_names(),
                        help="benchmarks for the --multistart section "
                             f"(default: {', '.join(MULTISTART_BENCHMARKS)})")
    parser.add_argument("--throughput", type=int, metavar="BATCH",
                        default=None,
                        help="also measure raw SA placement throughput "
                             "(moves/sec) for every placement engine, "
                             "with the batch engine at BATCH candidates "
                             "per step, and record the section")
    parser.add_argument("--throughput-benchmarks", nargs="+", metavar="NAME",
                        default=None, choices=benchmark_names(),
                        help="benchmarks for the --throughput section "
                             f"(default: {', '.join(THROUGHPUT_BENCHMARKS)})")
    parser.add_argument("--serve", action="store_true",
                        help="run the service tier instead: boot a "
                             "synthesis server, measure cold submission "
                             "latency then concurrent cache-hit latency/"
                             "throughput, and gate on the cache-hit "
                             "speedup (artifact: BENCH_pr9.json; see "
                             "docs/SERVICE.md)")
    parser.add_argument("--shards", type=int, metavar="N", default=None,
                        choices=(1, 2, 4),
                        help="with --serve: benchmark the sharded tier "
                             "instead — boot shard counts up to N behind "
                             "the digest-routing front, verify byte/digest "
                             "identity across serving paths, and measure "
                             "loaded throughput per shard count "
                             "(artifact: BENCH_pr10.json; see "
                             "docs/SERVICE.md \"Scaling out\")")
    parser.add_argument("--portfolio", type=int, metavar="N", default=None,
                        help="run the portfolio tier instead: race N "
                             "successive-halving arms against equal-budget "
                             "multi-start (restarts = N/2) on "
                             f"{', '.join(PORTFOLIO_BENCHMARKS)}, gate on "
                             "strictly better energy-per-CPU-second, "
                             "jobs-determinism, and the strict checker")
    parser.add_argument("--rungs", type=int, default=3,
                        help="successive-halving rungs for --portfolio "
                             "(default: 3)")
    parser.add_argument("--check",
                        choices=CHECK_MODES,
                        default="report",
                        help="audit every timed run with the independent "
                             "design-rule checker and record the violation "
                             "counts in the table and artifact "
                             "(default: report)")
    parser.add_argument("--output", type=Path, default=None,
                        help=f"JSON artifact path (default: {DEFAULT_OUTPUT}, "
                             f"or {DEFAULT_ROUTE_OUTPUT} with --scale large)")
    parser.add_argument(
        "--require-speedup", metavar="NAME", default=None,
        choices=benchmark_names(),
        help="exit non-zero when the optimised engine is slower than "
             "the reference on this benchmark (CI gate); gates the "
             "placement phase on the table1 tier and the routing phase "
             "on the large tier",
    )
    return parser


def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    if args.serve:
        if args.shards is not None:
            from repro.serve.loadgen import run_shard_bench

            return run_shard_bench(
                max_shards=args.shards, quick=args.quick,
                output=args.output,
            )
        from repro.serve.loadgen import run_serve_bench

        return run_serve_bench(quick=args.quick, output=args.output)
    if args.shards is not None:
        build_parser().error("--shards requires --serve")
    if args.portfolio is not None:
        return _run_portfolio_tier(args)
    if args.benchmarks is not None:
        names = tuple(args.benchmarks)
    elif args.scale == "large":
        names = QUICK_SCALE_BENCHMARKS if args.quick else SCALE_ORDER
    elif args.quick:
        names = QUICK_BENCHMARKS
    else:
        names = TABLE1_ORDER
    repeats = args.repeat if args.repeat is not None else (2 if args.quick else 3)
    if args.require_speedup is not None and args.require_speedup not in names:
        names = names + (args.require_speedup,)
    if args.output is None:
        args.output = Path(
            DEFAULT_ROUTE_OUTPUT if args.scale == "large" else DEFAULT_OUTPUT
        )

    if args.scale == "large":
        return _run_route_tier(args, names, repeats)

    comparisons = run_suite(
        names, seed=args.seed, repeats=repeats, jobs=args.jobs,
        check=args.check,
    )
    print(render_bench_table(comparisons))

    scaling = None
    if args.scaling is not None:
        scaling = measure_jobs_scaling(
            names, jobs_levels=tuple(args.scaling), seed=args.seed,
            repeats=min(repeats, 2),
        )
        print()
        print(render_scaling_table(scaling))

    multistart = None
    if args.multistart is not None:
        multistart_names = tuple(
            args.multistart_benchmarks or MULTISTART_BENCHMARKS
        )
        multistart = measure_multistart(
            multistart_names, restarts=args.multistart, seed=args.seed,
            jobs=args.jobs,
        )
        print()
        print(render_multistart_table(multistart))

    throughput = _measure_throughput(args)

    payload = comparisons_to_payload(
        comparisons,
        label=args.output.stem,
        quick=args.quick,
        jobs=args.jobs,
        jobs_scaling=scaling,
        multistart=multistart,
        placement_throughput=throughput,
    )
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")

    status = 0
    mismatched = [c.benchmark for c in comparisons if not c.energies_match]
    if mismatched:
        print(
            "error: engines disagree on best energy for: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        status = 1
    if multistart is not None:
        degraded = [r["benchmark"] for r in multistart if not r["non_degraded"]]
        if degraded:
            print(
                "error: multi-start energy degraded below the single run "
                "for: " + ", ".join(degraded),
                file=sys.stderr,
            )
            status = 1
    if args.require_speedup is not None:
        gate = next(
            c for c in comparisons if c.benchmark == args.require_speedup
        )
        if gate.place_speedup < 1.0:
            print(
                f"error: incremental engine slower than reference on "
                f"{gate.benchmark} "
                f"({gate.incremental.place_time:.3f}s vs "
                f"{gate.reference.place_time:.3f}s)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"speedup gate OK: {gate.benchmark} placement "
                f"{gate.place_speedup:.2f}x"
            )
    status = max(status, _check_throughput(throughput))
    return status


def _measure_throughput(args) -> list[dict] | None:
    """The optional ``--throughput`` section, shared by both tiers."""
    if args.throughput is None:
        return None
    throughput_names = tuple(
        args.throughput_benchmarks or THROUGHPUT_BENCHMARKS
    )
    rows = measure_placement_throughput(
        throughput_names, seed=args.seed, batch_size=args.throughput
    )
    print()
    print(render_throughput_table(rows))
    return rows


def _check_throughput(rows: list[dict] | None) -> int:
    """Never-worse gate over the ``--throughput`` rows (0 ok, 1 fail)."""
    if rows is None:
        return 0
    worse = [row["benchmark"] for row in rows if not row["batch_never_worse"]]
    if worse:
        print(
            "error: batch engine energy degraded below the serial "
            "engines on: " + ", ".join(worse),
            file=sys.stderr,
        )
        return 1
    return 0


def _run_portfolio_tier(args) -> int:
    """The ``--portfolio N`` branch: racing vs equal-budget multi-start.

    Exit 1 when any row fails a gate: the race must be strictly more
    energy-per-CPU-second efficient than ``restarts = N/2`` classic
    multi-start at the same candidate budget, bit-identical across
    worker counts, and clean under the strict design-rule checker.
    """
    if args.benchmarks is not None:
        names = tuple(args.benchmarks)
    elif args.quick:
        names = QUICK_PORTFOLIO_BENCHMARKS
    else:
        names = PORTFOLIO_BENCHMARKS
    output = args.output or Path(DEFAULT_PORTFOLIO_OUTPUT)

    rows = measure_portfolio(
        names,
        arms=args.portfolio,
        rungs=args.rungs,
        seed=args.seed,
        check=args.check != "off",
    )
    print(render_portfolio_table(rows))

    payload = portfolio_rows_to_payload(
        rows, label=output.stem, quick=args.quick
    )
    write_bench_json(output, payload)
    print(f"\nwrote {output}")

    status = 0
    slower = [r["benchmark"] for r in rows if not r["portfolio_better"]]
    if slower:
        print(
            "error: portfolio race less CPU-efficient than equal-budget "
            "multi-start on: " + ", ".join(slower),
            file=sys.stderr,
        )
        status = 1
    drifting = [
        r["benchmark"] for r in rows if not r["deterministic_across_jobs"]
    ]
    if drifting:
        print(
            "error: portfolio result varies across --jobs on: "
            + ", ".join(drifting),
            file=sys.stderr,
        )
        status = 1
    dirty = [r["benchmark"] for r in rows if r["checker_clean"] is False]
    if dirty:
        print(
            "error: portfolio pipeline failed the strict checker on: "
            + ", ".join(dirty),
            file=sys.stderr,
        )
        status = 1
    if status == 0:
        print(
            f"portfolio gate OK: {len(rows)} benchmark(s), "
            "better e/cpu-s, jobs-deterministic"
            + ("" if args.check == "off" else ", checker-clean")
        )
    return status


def _run_route_tier(args, names: tuple[str, ...], repeats: int) -> int:
    """The ``--scale large`` branch: reference vs fast routing engine."""
    comparisons = run_route_suite(
        names, seed=args.seed, repeats=repeats, jobs=args.jobs,
        check=args.check,
    )
    print(render_route_table(comparisons))

    throughput = _measure_throughput(args)

    payload = route_comparisons_to_payload(
        comparisons,
        label=args.output.stem,
        quick=args.quick,
        jobs=args.jobs,
        placement_throughput=throughput,
    )
    write_bench_json(args.output, payload)
    print(f"\nwrote {args.output}")

    status = 0
    mismatched = [c.benchmark for c in comparisons if not c.paths_match]
    if mismatched:
        print(
            "error: routing engines disagree on paths for: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        status = 1
    if args.require_speedup is not None:
        gate = next(
            c for c in comparisons if c.benchmark == args.require_speedup
        )
        if gate.route_speedup < 1.0:
            print(
                "error: flat engine slower than "
                f"reference on {gate.benchmark} "
                f"({gate.flat.route_time:.3f}s vs "
                f"{gate.reference.route_time:.3f}s)",
                file=sys.stderr,
            )
            status = 1
        else:
            print(
                f"speedup gate OK: {gate.benchmark} routing "
                f"{gate.route_speedup:.2f}x"
            )
    status = max(status, _check_throughput(throughput))
    return status


def main(argv: list[str] | None = None) -> None:  # pragma: no cover
    raise SystemExit(run(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":  # pragma: no cover
    main()
