"""Benchmark timing harness: pipeline runs per placement engine.

Each measured run executes the *full* proposed flow
(:func:`~repro.core.synthesizer.synthesize_problem`) so the timings are
the ones users see, and reads the per-phase durations from
``SynthesisResult.phase_times`` — the same :mod:`repro.obs` span
measurements the ``--profile`` report shows.  Runs are repeated and the
**median** per phase is reported, with the min/max spread kept
alongside: a single sample (or even the min alone) makes speedup gates
flaky on noisy machines, while the median plus spread both damps
outliers and makes the noise level itself visible in the committed
artifact.

The harness also records the best placement energy of every run: the
incremental and reference engines are bit-compatible (see
:mod:`repro.place.annealing`), so equal seeds must give equal energies
— the comparison carries that check alongside the speedup, making a
silent divergence impossible to miss in the committed artifact.

Two further measurements feed the ``BENCH_*.json`` artifact:

* :func:`measure_jobs_scaling` — wall-clock of the whole suite at
  several ``--jobs`` levels (the process-pool fan-out of
  :mod:`repro.parallel`), normalised against the serial run.
* :func:`measure_multistart` — best-of-``restarts`` placement energy
  versus the single-run energy, which can never be worse because
  restart 0 keeps the base seed.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from statistics import median

from repro.benchmarks.registry import SCALE_ORDER, TABLE1_ORDER, get_benchmark
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem
from repro.obs.instrument import Instrumentation
from repro.parallel.pool import run_tasks
from repro.place.annealing import PLACEMENT_ENGINES
from repro.place.energy import build_connection_priorities, placement_energy
from repro.route.router import DEFAULT_ROUTE_ENGINE, ROUTE_ENGINES

__all__ = [
    "BenchRun",
    "BenchComparison",
    "RouteBenchComparison",
    "run_engine",
    "run_suite",
    "run_route_suite",
    "measure_jobs_scaling",
    "measure_multistart",
    "measure_placement_throughput",
    "measure_portfolio",
]


@dataclass(frozen=True)
class BenchRun:
    """Timing of one benchmark under one placement engine."""

    benchmark: str
    engine: str
    seed: int
    repeats: int
    #: Best placement energy of the seeded run (engine-independent by
    #: the parity guarantee).
    placement_energy: float
    #: Median per-phase wall-clock seconds over the repeats.
    phase_times: dict[str, float]
    #: Median end-to-end wall-clock seconds over the repeats.
    total_time: float
    #: Fastest/slowest observation per phase (the repeat spread).
    phase_min: dict[str, float] = field(default_factory=dict)
    phase_max: dict[str, float] = field(default_factory=dict)
    total_min: float | None = None
    total_max: float | None = None
    #: Design-rule violations found by :mod:`repro.check`; ``None`` when
    #: the run was not audited (``check="off"``).
    violations: int | None = None
    #: Routing engine the run used (see :mod:`repro.route.flat`).
    route_engine: str = DEFAULT_ROUTE_ENGINE
    #: SHA-256 over every routed path's ``(task_id, cells, slot,
    #: postponement)`` — equal digests mean byte-identical routing.
    paths_digest: str | None = None
    #: Number of transport tasks the router had to postpone, and the
    #: summed slide distance (seconds) of those postponements.
    postponed_tasks: int = 0
    postponement_total: float = 0.0
    #: Percentile summary of per-search A* latency across all repeats
    #: (the ``astar.search_seconds`` histogram: count/mean/p50/p90/p99/
    #: max); ``None`` on legacy artifacts.
    route_search_seconds: dict | None = None
    #: SA move totals over all repeats (the ``sa.moves_*`` counters)
    #: and the resulting placement throughput — legal candidate moves
    #: evaluated per second of placement phase; ``None`` on legacy
    #: artifacts.
    moves_proposed: int = 0
    moves_accepted: int = 0
    moves_per_second: float | None = None

    @property
    def place_time(self) -> float:
        return self.phase_times.get("place", 0.0)

    @property
    def route_time(self) -> float:
        return self.phase_times.get("route", 0.0)


@dataclass(frozen=True)
class BenchComparison:
    """Reference vs incremental engine on one benchmark."""

    benchmark: str
    reference: BenchRun
    incremental: BenchRun

    @property
    def place_speedup(self) -> float:
        """Placement-phase speedup of the incremental engine."""
        if self.incremental.place_time <= 0:
            return float("inf")
        return self.reference.place_time / self.incremental.place_time

    @property
    def total_speedup(self) -> float:
        """End-to-end pipeline speedup of the incremental engine."""
        if self.incremental.total_time <= 0:
            return float("inf")
        return self.reference.total_time / self.incremental.total_time

    @property
    def energies_match(self) -> bool:
        """Whether both engines reached the identical best energy."""
        return self.reference.placement_energy == self.incremental.placement_energy


@dataclass(frozen=True)
class RouteBenchComparison:
    """Reference vs flat routing engine on one benchmark."""

    benchmark: str
    reference: BenchRun
    flat: BenchRun

    @property
    def route_speedup(self) -> float:
        """Routing-phase speedup of the flat engine."""
        if self.flat.route_time <= 0:
            return float("inf")
        return self.reference.route_time / self.flat.route_time

    @property
    def total_speedup(self) -> float:
        """End-to-end pipeline speedup of the flat engine."""
        if self.flat.total_time <= 0:
            return float("inf")
        return self.reference.total_time / self.flat.total_time

    @property
    def paths_match(self) -> bool:
        """Whether both engines produced byte-identical routing.

        Compares the SHA-256 digests over every routed path's
        ``(task_id, cells, slot, postponement)``.
        """
        return (
            self.reference.paths_digest is not None
            and self.reference.paths_digest == self.flat.paths_digest
        )


def _paths_digest(routing) -> str:
    """SHA-256 fingerprint of every routed path, in routing order.

    Covers exactly the observable routing outcome — task identity, the
    cell sequence, the claimed occupation slot, and any postponement —
    so two runs share a digest iff their routing is byte-identical.
    """
    digest = hashlib.sha256()
    for path in routing.paths:
        record = (
            path.task.task_id,
            tuple((c.x, c.y) for c in path.cells),
            (path.slot.start, path.slot.end),
            path.postponement,
        )
        digest.update(repr(record).encode("utf-8"))
    return digest.hexdigest()


def run_engine(
    name: str,
    engine: str,
    seed: int = 1,
    repeats: int = 3,
    check: str = "off",
    route_engine: str = DEFAULT_ROUTE_ENGINE,
) -> BenchRun:
    """Time benchmark *name* under *engine*; median over *repeats* runs.

    With ``check="report"`` every measured run is also audited by the
    independent design-rule checker and the violation count is recorded
    (the ``check`` phase then shows up in the phase timings — identical
    for both engines, so speedup comparisons stay fair).
    *route_engine* selects the routing engine the same way the
    ``--route-engine`` CLI flag does; the run records a digest of every
    routed path so engine comparisons can assert byte-identical routing.
    """
    if engine not in PLACEMENT_ENGINES:
        raise ValueError(
            f"unknown placement engine {engine!r}; "
            f"expected one of {PLACEMENT_ENGINES}"
        )
    if route_engine not in ROUTE_ENGINES:
        raise ValueError(
            f"unknown route engine {route_engine!r}; "
            f"expected one of {ROUTE_ENGINES}"
        )
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    case = get_benchmark(name)
    params = SynthesisParameters(
        seed=seed, placement_engine=engine, route_engine=route_engine,
        check=check,
    )
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=params
    )
    phase_samples: dict[str, list[float]] = {}
    total_samples: list[float] = []
    energy = 0.0
    violations: int | None = None
    paths_digest: str | None = None
    postponed_tasks = 0
    postponement_total = 0.0
    # One NullSink instrumentation across all repeats: no events flow,
    # but the in-memory aggregates — including the A* search-latency
    # histogram — accumulate every repeat's samples.
    instrumentation = Instrumentation()
    for _ in range(repeats):
        result = synthesize_problem(problem, instrumentation=instrumentation)
        if result.check_report is not None:
            violations = result.check_report.error_count
        for phase, duration in result.phase_times.items():
            phase_samples.setdefault(phase, []).append(duration)
        total_samples.append(result.metrics.cpu_time)
        # Deterministic across repeats (same seed); recomputing from the
        # result keeps the check independent of the annealer's own
        # energy bookkeeping.
        priorities = build_connection_priorities(
            result.schedule, beta=params.beta, gamma=params.gamma
        )
        energy = placement_energy(result.placement, priorities)
        paths_digest = _paths_digest(result.routing)
        postponed = [p.postponement for p in result.routing.paths if p.postponement > 0]
        postponed_tasks = len(postponed)
        postponement_total = sum(postponed)
    search_latency = instrumentation.histogram("astar.search_seconds")
    moves_proposed = int(instrumentation.counters.get("sa.moves_proposed", 0))
    moves_accepted = int(instrumentation.counters.get("sa.moves_accepted", 0))
    place_seconds = sum(phase_samples.get("place", []))
    return BenchRun(
        benchmark=name,
        engine=engine,
        seed=seed,
        repeats=repeats,
        placement_energy=energy,
        phase_times={p: median(s) for p, s in phase_samples.items()},
        total_time=median(total_samples),
        phase_min={p: min(s) for p, s in phase_samples.items()},
        phase_max={p: max(s) for p, s in phase_samples.items()},
        total_min=min(total_samples),
        total_max=max(total_samples),
        violations=violations,
        route_engine=route_engine,
        paths_digest=paths_digest,
        postponed_tasks=postponed_tasks,
        postponement_total=postponement_total,
        route_search_seconds=(
            search_latency.summary() if search_latency is not None else None
        ),
        moves_proposed=moves_proposed,
        moves_accepted=moves_accepted,
        moves_per_second=(
            moves_proposed / place_seconds if place_seconds > 0 else None
        ),
    )


def _engine_worker(payload: tuple[str, str, int, int, str]) -> BenchRun:
    """Pool entry point: one (benchmark, engine) timing task."""
    name, engine, seed, repeats, check = payload
    return run_engine(name, engine, seed=seed, repeats=repeats, check=check)


def run_suite(
    names: tuple[str, ...] | list[str] = TABLE1_ORDER,
    seed: int = 1,
    repeats: int = 3,
    jobs: int = 1,
    check: str = "off",
) -> list[BenchComparison]:
    """Time every benchmark under both engines, paired for comparison.

    ``jobs > 1`` fans the per-(benchmark, engine) syntheses out over a
    process pool; pairing happens in submission order, so the returned
    comparisons are identical for every job count.  Note that pooled
    *timings* are only meaningful when the machine has idle cores —
    concurrent workers contend for CPU, which is why the scaling
    measurement (:func:`measure_jobs_scaling`) reports wall-clock of
    the whole suite rather than per-run times.
    """
    tasks = [
        (name, engine, seed, repeats, check)
        for name in names
        for engine in ("reference", "incremental")
    ]
    runs = run_tasks(_engine_worker, tasks, jobs=jobs)
    comparisons = []
    for i in range(0, len(runs), 2):
        comparisons.append(
            BenchComparison(
                benchmark=runs[i].benchmark,
                reference=runs[i],
                incremental=runs[i + 1],
            )
        )
    return comparisons


def _route_worker(payload: tuple[str, str, int, int, str]) -> BenchRun:
    """Pool entry point: one (benchmark, route_engine) timing task."""
    name, route_engine, seed, repeats, check = payload
    return run_engine(
        name, "incremental", seed=seed, repeats=repeats, check=check,
        route_engine=route_engine,
    )


def run_route_suite(
    names: tuple[str, ...] | list[str] = SCALE_ORDER,
    seed: int = 1,
    repeats: int = 3,
    jobs: int = 1,
    check: str = "off",
    fast_engine: str = "flat",
) -> list[RouteBenchComparison]:
    """Time every benchmark under reference vs *fast_engine* routing.

    The placement engine is pinned to ``incremental`` on both sides so
    the comparison isolates the routing phase; the scale tier
    (:data:`~repro.benchmarks.registry.SCALE_ORDER`) is the default
    name set because that is where routing dominates the pipeline.
    *fast_engine* (``"flat"`` by default) fills each comparison's
    ``flat`` side.
    Each comparison carries the path digests of both runs, so a parity
    break surfaces as ``paths_match=False`` in the committed artifact.
    """
    tasks = [
        (name, route_engine, seed, repeats, check)
        for name in names
        for route_engine in ("reference", fast_engine)
    ]
    runs = run_tasks(_route_worker, tasks, jobs=jobs)
    comparisons = []
    for i in range(0, len(runs), 2):
        comparisons.append(
            RouteBenchComparison(
                benchmark=runs[i].benchmark,
                reference=runs[i],
                flat=runs[i + 1],
            )
        )
    return comparisons


def measure_jobs_scaling(
    names: tuple[str, ...] | list[str],
    jobs_levels: tuple[int, ...] | list[int] = (1, 2, 4),
    seed: int = 1,
    repeats: int = 1,
) -> list[dict]:
    """Wall-clock the suite at each ``--jobs`` level.

    Returns one row per level: the end-to-end wall-clock seconds of
    :func:`run_suite` and the speedup versus the first (serial) level.
    The host CPU count is recorded with the rows — fan-out cannot beat
    the serial run on a single-core machine, and the artifact should
    say so rather than mislead.
    """
    rows: list[dict] = []
    baseline: float | None = None
    for jobs in jobs_levels:
        started = time.perf_counter()
        run_suite(names, seed=seed, repeats=repeats, jobs=jobs)
        wall = time.perf_counter() - started
        if baseline is None:
            baseline = wall
        rows.append(
            {
                "jobs": jobs,
                "wall_s": round(wall, 6),
                "speedup_vs_serial": round(baseline / wall, 3) if wall > 0 else None,
                "cpu_count": os.cpu_count(),
            }
        )
    return rows


def measure_multistart(
    names: tuple[str, ...] | list[str],
    restarts: int = 4,
    seed: int = 1,
    jobs: int = 1,
) -> list[dict]:
    """Best-of-*restarts* placement energy versus the single run.

    Because restart 0 reuses the base seed (see
    :func:`repro.parallel.multistart_seeds`), the multi-start energy is
    ≤ the single-run energy by construction; the row records both plus
    the relative improvement.
    """
    rows: list[dict] = []
    for name in names:
        case = get_benchmark(name)
        energies: dict[int, float] = {}
        for n in (1, restarts):
            params = SynthesisParameters(seed=seed, restarts=n, jobs=jobs)
            problem = SynthesisProblem(
                assay=case.assay, allocation=case.allocation, parameters=params
            )
            result = synthesize_problem(problem)
            priorities = build_connection_priorities(
                result.schedule, beta=params.beta, gamma=params.gamma
            )
            energies[n] = placement_energy(result.placement, priorities)
        single, multi = energies[1], energies[restarts]
        rows.append(
            {
                "benchmark": name,
                "seed": seed,
                "restarts": restarts,
                "single_energy": single,
                "multistart_energy": multi,
                "improvement_pct": (
                    round((single - multi) / single * 100.0, 3)
                    if single > 0
                    else 0.0
                ),
                "non_degraded": multi <= single,
            }
        )
    return rows


def measure_placement_throughput(
    names: tuple[str, ...] | list[str],
    seed: int = 1,
    batch_size: int = 64,
) -> list[dict]:
    """Raw SA move throughput of every placement engine, per benchmark.

    Times :func:`~repro.place.annealing.anneal_placement` alone (no
    routing, no pipeline overhead) so the rows measure the kernels, not
    the phases.  The throughput unit is *legal candidate moves
    evaluated per second* — ``AnnealingResult.trials`` over the
    annealing wall-clock.  Each row also records the final energy and
    whether the batch engine's energy is never worse than the
    serial engines' (which share one energy by the parity guarantee);
    the batch engine runs at *batch_size* candidates per step, recorded
    in the row.
    """
    from dataclasses import replace as _replace

    from repro.place.annealing import anneal_placement
    from repro.schedule.list_scheduler import schedule_assay

    rows: list[dict] = []
    for name in names:
        case = get_benchmark(name)
        params = SynthesisParameters(seed=seed)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=params
        )
        schedule = schedule_assay(
            problem.assay, problem.allocation, params.transport_time
        )
        priorities = build_connection_priorities(
            schedule, beta=params.beta, gamma=params.gamma
        )
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        annealing = params.annealing()
        measured: dict[str, dict] = {}
        for engine in PLACEMENT_ENGINES:
            engine_params = (
                _replace(annealing, batch_size=batch_size)
                if engine == "batch"
                else annealing
            )
            started = time.perf_counter()
            result = anneal_placement(
                grid, footprints, priorities,
                parameters=engine_params, seed=seed, engine=engine,
            )
            wall = time.perf_counter() - started
            measured[engine] = {
                "trials": result.trials,
                "seconds": round(wall, 6),
                "moves_per_second": (
                    round(result.trials / wall, 1) if wall > 0 else None
                ),
                "energy": result.energy,
            }
        reference_rate = measured["reference"]["moves_per_second"] or 0.0
        batch_rate = measured["batch"]["moves_per_second"] or 0.0
        rows.append(
            {
                "benchmark": name,
                "seed": seed,
                "batch_size": batch_size,
                "engines": measured,
                "batch_vs_reference": (
                    round(batch_rate / reference_rate, 2)
                    if reference_rate
                    else None
                ),
                "batch_never_worse": (
                    measured["batch"]["energy"]
                    <= measured["incremental"]["energy"]
                ),
            }
        )
    return rows


def measure_portfolio(
    names: tuple[str, ...] | list[str],
    arms: int = 8,
    rungs: int = 3,
    seed: int = 1,
    determinism_jobs: tuple[int, ...] = (1, 4),
    check: bool = True,
) -> list[dict]:
    """Portfolio racing versus equal-budget multi-start, per benchmark.

    The comparison holds the **total move budget** fixed, counted in
    candidate evaluations (batch arms evaluate ``K`` candidates per
    iteration and get ``budget // K`` iterations): with halving kills
    over *rungs* rungs, an ``n``-arm race plans — for the default
    ``rungs=3`` and even ``n`` — exactly ``n/2`` full schedules'
    worth of candidates.  The multi-start side therefore runs
    ``restarts = n/2`` classic full anneals.  Both sides are measured
    at ``jobs=1`` with ``time.process_time`` so the figures are pure
    CPU seconds, unaffected by pool scheduling.

    Efficiency is ``(E_init - E_best) / cpu_seconds`` with a **shared**
    ``E_init``: the base-seed random initial placement's energy, which
    is by construction both arm 0's and restart 0's starting point —
    so the two efficiencies divide the same numerator scale and the
    ratio is meaningful.

    Each row additionally verifies the racer's determinism contract
    (identical winner energy and blocks across *determinism_jobs*) and,
    with *check* on, runs the full portfolio pipeline under the strict
    independent checker (``checker_clean`` records the verdict).
    """
    import random as random_module
    from dataclasses import replace as _replace

    from repro.parallel.multistart import anneal_multistart
    from repro.parallel.portfolio import race_portfolio, resolve_arms
    from repro.place.energy import placement_energy as _placement_energy
    from repro.place.moves import random_placement
    from repro.schedule.list_scheduler import schedule_assay

    rows: list[dict] = []
    for name in names:
        case = get_benchmark(name)
        params = SynthesisParameters(seed=seed)
        problem = SynthesisProblem(
            assay=case.assay, allocation=case.allocation, parameters=params
        )
        schedule = schedule_assay(
            problem.assay, problem.allocation, params.transport_time
        )
        priorities = build_connection_priorities(
            schedule, beta=params.beta, gamma=params.gamma
        )
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        annealing = params.annealing()
        arm_set = resolve_arms(arms, base_seed=seed)

        # Shared efficiency reference: the base-seed random initial
        # placement both solvers start restart/arm 0 from.
        initial = random_placement(grid, footprints, random_module.Random(seed))
        init_ref = _placement_energy(initial, priorities)

        raced = race_portfolio(
            grid, footprints, priorities, arm_set,
            parameters=annealing, rungs=rungs, jobs=1,
        )
        portfolio_cpu = raced.summary["total_cpu_seconds"]
        portfolio_candidates = sum(
            a["candidates"] for a in raced.summary["arms"]
        )
        portfolio_eff = (
            (init_ref - raced.result.energy) / portfolio_cpu
            if portfolio_cpu > 0 else 0.0
        )

        restarts = max(1, arms // 2)
        cpu_started = time.process_time()
        multi = anneal_multistart(
            grid, footprints, priorities,
            parameters=annealing, base_seed=seed,
            restarts=restarts, jobs=1, engine="incremental",
        )
        multistart_cpu = time.process_time() - cpu_started
        multistart_candidates = restarts * annealing.total_iterations
        multistart_eff = (
            (init_ref - multi.energy) / multistart_cpu
            if multistart_cpu > 0 else 0.0
        )

        deterministic = True
        baseline_blocks = raced.result.placement.blocks()
        for jobs in determinism_jobs:
            again = race_portfolio(
                grid, footprints, priorities, arm_set,
                parameters=annealing, rungs=rungs, jobs=jobs,
            )
            if (
                again.result.energy != raced.result.energy
                or again.result.placement.blocks() != baseline_blocks
                or again.summary["winner"] != raced.summary["winner"]
            ):
                deterministic = False

        checker_clean = None
        if check:
            strict_problem = SynthesisProblem(
                assay=case.assay,
                allocation=case.allocation,
                parameters=_replace(
                    params, portfolio=arms, rungs=rungs, check="strict"
                ),
            )
            from repro.errors import CheckError

            try:
                synthesize_problem(strict_problem)
            except CheckError:
                checker_clean = False
            else:
                checker_clean = True

        rows.append(
            {
                "benchmark": name,
                "seed": seed,
                "arms": arms,
                "rungs": rungs,
                "restarts_equal_budget": restarts,
                "initial_energy_ref": init_ref,
                "portfolio": {
                    "energy": raced.result.energy,
                    "cpu_seconds": round(portfolio_cpu, 6),
                    "candidates": portfolio_candidates,
                    "efficiency": round(portfolio_eff, 3),
                    "winner": raced.summary["winner"],
                    "winner_spec": raced.summary["winner_spec"],
                    "kills": {
                        a["arm_id"]: a["killed_at_rung"]
                        for a in raced.summary["arms"]
                    },
                },
                "multistart": {
                    "energy": multi.energy,
                    "cpu_seconds": round(multistart_cpu, 6),
                    "candidates": multistart_candidates,
                    "efficiency": round(multistart_eff, 3),
                },
                "efficiency_ratio": (
                    round(portfolio_eff / multistart_eff, 3)
                    if multistart_eff > 0 else None
                ),
                "portfolio_better": portfolio_eff > multistart_eff,
                "deterministic_across_jobs": deterministic,
                "determinism_jobs": list(determinism_jobs),
                "checker_clean": checker_clean,
            }
        )
    return rows
