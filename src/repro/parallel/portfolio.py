"""Successive-halving portfolio racing for the SA placer.

Multi-start (:mod:`repro.parallel.multistart`) runs ``N`` identical
anneals to completion and keeps the best — even when half the restarts
are visibly losing by the first convergence checkpoint.  This module
replaces that with a *raced portfolio*: a heterogeneous set of anneal
configurations (**arms** — different temperature schedules, move
mixes, greedy-BA initial placements, incremental vs batch kernels with
varying ``K``) advances through deterministic checkpoint **rungs**, and
at every rung the bottom half is killed, so CPU concentrates on the
configurations that are actually winning.

The mechanics:

* **Arms** are parsed from a compact grammar
  (``engine[:key=value]*``, comma-separated — see :func:`parse_arms`)
  or synthesised from the default palette (:func:`default_arms`).
  Arm ``k`` anneals from the seed
  :func:`~repro.parallel.multistart.derive_seed` gives restart ``k``,
  so arm 0 with default settings walks *exactly* the single-run
  trajectory — the racer's floor is the plain anneal, and the shared
  initial energy anchors cross-solver efficiency comparisons.
* **Rungs** are cumulative *candidate-evaluation* budgets derived
  from the *base* schedule's total (:func:`rung_budgets`): rung ``r``
  of ``R`` pauses every live arm at ``total >> (R - r)`` evaluated
  candidate moves (the last rung runs to the full budget).  For
  incremental arms one inner-loop iteration is one candidate; a batch
  arm evaluates ``K`` candidates per iteration, so it gets
  ``budget // K`` iterations (and, by default, ``imax // K``
  iterations per temperature level — the same candidate count and
  temperature sweep as everyone else).  Arms pause only at
  temperature-step boundaries, and the checkpoint seam
  (:mod:`repro.place.annealing`) guarantees a paused-and-resumed arm
  walks bit-identically to an uninterrupted one, so the rung energies
  are a pure function of the arm set.
* **Kills** rank live arms under the total order
  ``(checkpoint energy, seed, arm_id)`` and keep the top
  ``(live + 1) // 2``.  The order is total (arm ids are unique), so
  the kill sequence — and hence the winner — is bit-reproducible for
  a fixed arm set and *independent of* ``jobs``: worker count only
  changes scheduling, never results.
* **Transport** rides :class:`~repro.parallel.pool.PoolSession`: one
  worker pool serves every rung, checkpoints travel out as payloads
  and back as results under the ``ReproError``-as-data contract, and
  the slots freed by killed arms are reabsorbed by the next wave's
  survivors.

Telemetry: every rung emits a ``portfolio.rung`` event (budget,
survivors, checkpoint energies), every kill a ``portfolio.kill``
event; per-arm convergence traces are worker-namespaced by arm index
and replayed into traced runs; live progress rows are labelled with
arm ids.  ``PortfolioResult.summary`` is the ledger payload — winning
arm, rungs survived, CPU spent, and the
``energy_per_cpu_second`` efficiency the bench gate compares against
plain multi-start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace as dataclass_replace

from repro.errors import PlacementError
from repro.obs.events import Event
from repro.obs.instrument import Instrumentation, InstrumentationSnapshot
from repro.obs.live import HeartbeatSpec, active_monitor
from repro.obs.sinks import RecordingSink, Sink, TeeSink
from repro.parallel.multistart import derive_seed
from repro.parallel.pool import PoolSession, resolve_jobs
from repro.place.annealing import (
    AnnealCheckpoint,
    AnnealingParameters,
    AnnealingResult,
    anneal_resume,
    anneal_start,
)
from repro.place.energy import ConnectionPriorities
from repro.place.grid import ChipGrid

__all__ = [
    "ArmOutcome",
    "PortfolioArm",
    "PortfolioResult",
    "default_arms",
    "parse_arms",
    "race_portfolio",
    "resolve_arms",
    "rung_budgets",
]

_ENGINE_ALIASES = {
    "inc": "incremental",
    "incremental": "incremental",
    "batch": "batch",
}
_ENGINE_SHORT = {"incremental": "inc", "batch": "batch"}

#: Arm configurations cycled by :func:`default_arms` (numpy present).
DEFAULT_PALETTE = (
    "inc",
    "batch:k=16",
    "inc:init=greedy",
    "inc:w=2/1/1",
    "batch:k=64",
    "inc:cool=0.8",
    "inc:T0=1000",
    "batch:k=32:init=greedy",
)

#: Correction-pass budget for ``init=greedy`` arm seeds.  Two of the
#: full BA correction's 10 passes capture most of its wirelength gain
#: and leave the real correction to the anneal itself.
GREEDY_INIT_PASSES = 2

#: Pure-python palette used when numpy (the batch kernel) is absent.
FALLBACK_PALETTE = (
    "inc",
    "inc:w=1/2/1",
    "inc:init=greedy",
    "inc:w=2/1/1",
    "inc:cool=0.8",
    "inc:T0=1000",
    "inc:cool=0.95",
    "inc:w=1/1/2",
)


@dataclass(frozen=True)
class PortfolioArm:
    """One raced anneal configuration (picklable).

    ``arm_id`` is ``a<index, zero-padded>:<engine>`` — the zero padding
    makes lexicographic order match launch order, so the
    ``(energy, seed, arm_id)`` kill ranking is total and stable.
    Schedule fields left ``None`` inherit the base
    :class:`~repro.place.annealing.AnnealingParameters`.
    """

    arm_id: str
    spec: str
    engine: str
    seed: int
    batch_size: int | None = None
    initial_temperature: float | None = None
    min_temperature: float | None = None
    cooling_rate: float | None = None
    iterations_per_temperature: int | None = None
    init: str = "random"
    move_weights: tuple[float, float, float] | None = None

    def parameters(self, base: AnnealingParameters) -> AnnealingParameters:
        """The arm's schedule: *base* with this arm's overrides applied.

        A batch arm evaluates ``batch_size`` candidates per inner-loop
        iteration, so unless ``imax`` is overridden explicitly its
        iterations-per-temperature default to
        ``base.imax // batch_size`` — every arm then proposes the same
        number of *candidates* per temperature level and sweeps the
        same temperature range, which is what makes the racer's
        candidate-evaluation budgets comparable across engines.
        """
        overrides: dict[str, object] = {"move_weights": self.move_weights}
        k = 1
        if self.engine == "batch":
            k = (
                self.batch_size if self.batch_size is not None
                else base.batch_size
            )
            overrides["batch_size"] = k
        else:
            overrides["batch_size"] = 1
        for name in (
            "initial_temperature",
            "min_temperature",
            "cooling_rate",
            "iterations_per_temperature",
        ):
            value = getattr(self, name)
            if value is not None:
                overrides[name] = value
        if k > 1 and self.iterations_per_temperature is None:
            overrides["iterations_per_temperature"] = max(
                1, base.iterations_per_temperature // k
            )
        return dataclass_replace(base, **overrides)

    def candidates_per_iteration(self, base: AnnealingParameters) -> int:
        """Candidate moves one inner-loop iteration of this arm evaluates."""
        return self.parameters(base).batch_size


def _parse_weights(text: str) -> tuple[float, float, float]:
    parts = text.split("/")
    if len(parts) != 3:
        raise PlacementError(
            f"move weights must be three '/'-separated numbers "
            f"(translate/swap/rotate), got {text!r}"
        )
    try:
        weights = tuple(float(p) for p in parts)
    except ValueError as error:
        raise PlacementError(f"bad move weights {text!r}: {error}") from None
    return weights  # AnnealingParameters validates signs and the sum


def _parse_arm_token(token: str, index: int, seed: int) -> PortfolioArm:
    parts = token.strip().split(":")
    engine_alias = parts[0].strip().lower()
    engine = _ENGINE_ALIASES.get(engine_alias)
    if engine is None:
        raise PlacementError(
            f"arm {index}: unknown engine {parts[0]!r} "
            f"(expected one of {sorted(set(_ENGINE_ALIASES))})"
        )
    fields: dict[str, object] = {}
    canonical: list[str] = [_ENGINE_SHORT[engine]]
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if not sep or not value:
            raise PlacementError(
                f"arm {index}: expected key=value, got {part!r}"
            )
        try:
            if key == "k":
                if engine != "batch":
                    raise PlacementError(
                        f"arm {index}: k= only applies to the batch engine"
                    )
                fields["batch_size"] = int(value)
            elif key == "t0":
                fields["initial_temperature"] = float(value)
            elif key == "tmin":
                fields["min_temperature"] = float(value)
            elif key == "cool":
                fields["cooling_rate"] = float(value)
            elif key == "imax":
                fields["iterations_per_temperature"] = int(value)
            elif key == "init":
                if value not in ("random", "greedy"):
                    raise PlacementError(
                        f"arm {index}: init must be random or greedy, "
                        f"got {value!r}"
                    )
                fields["init"] = value
            elif key == "w":
                fields["move_weights"] = _parse_weights(value)
            else:
                raise PlacementError(
                    f"arm {index}: unknown arm key {key!r} (expected one "
                    f"of k, T0, Tmin, cool, imax, init, w)"
                )
        except ValueError as error:
            raise PlacementError(
                f"arm {index}: bad value in {part!r}: {error}"
            ) from None
        canonical.append(f"{key}={value}")
    return PortfolioArm(
        arm_id=f"a{index:03d}:{_ENGINE_SHORT[engine]}",
        spec=":".join(canonical),
        engine=engine,
        seed=seed,
        **fields,  # type: ignore[arg-type]
    )


def parse_arms(
    spec: str,
    base_seed: int = 0,
    seed_derivation: str = "legacy",
) -> tuple[PortfolioArm, ...]:
    """Parse a comma-separated arm-spec string into arms.

    Grammar (case-insensitive keys)::

        arms   := arm ("," arm)*
        arm    := engine (":" key "=" value)*
        engine := "inc" | "batch"
        key    := "k"                  # batch lanes (batch engine only)
                | "T0" | "Tmin"        # temperature schedule overrides
                | "cool" | "imax"
                | "init"               # "random" (default) | "greedy"
                | "w"                  # move mix "t/s/r", e.g. 2/1/1

    Arm ``k`` gets the same derived seed restart ``k`` would (arm 0
    keeps the base seed).  Invalid schedule values surface as
    :class:`~repro.errors.PlacementError` at parse time via
    :class:`~repro.place.annealing.AnnealingParameters` validation.
    """
    tokens = [token for token in spec.split(",") if token.strip()]
    if not tokens:
        raise PlacementError("empty portfolio arm spec")
    arms = tuple(
        _parse_arm_token(token, i, derive_seed(base_seed, i, seed_derivation))
        for i, token in enumerate(tokens)
    )
    # Validate schedule overrides eagerly (wrong cool/T0 combos raise
    # here, at configuration time, not inside a pool worker).
    base = AnnealingParameters()
    for arm in arms:
        arm.parameters(base)
    return arms


def default_arms(count: int) -> str:
    """The default heterogeneous arm-spec string for *count* arms.

    Cycles :data:`DEFAULT_PALETTE`; without numpy the batch kernel is
    unavailable, so :data:`FALLBACK_PALETTE` (pure-python variants)
    is cycled instead.  Beyond one palette cycle, configurations repeat
    but seeds keep diverging — repeats degrade to plain multi-start of
    the best-looking configs, never to wasted duplicates.
    """
    if count < 1:
        raise PlacementError(f"portfolio needs >= 1 arm, got {count}")
    try:
        import numpy  # noqa: F401

        palette = DEFAULT_PALETTE
    except ImportError:  # pragma: no cover - the test image ships numpy
        palette = FALLBACK_PALETTE
    return ",".join(palette[i % len(palette)] for i in range(count))


def resolve_arms(
    portfolio: int,
    arms: str = "",
    base_seed: int = 0,
    seed_derivation: str = "legacy",
) -> tuple[PortfolioArm, ...]:
    """Turn the ``(portfolio, arms)`` parameter pair into arm objects.

    An explicit *arms* spec wins (its length must match *portfolio*
    when both are given); otherwise the default palette supplies
    *portfolio* arms.
    """
    if arms:
        parsed = parse_arms(arms, base_seed, seed_derivation)
        if portfolio and portfolio != len(parsed):
            raise PlacementError(
                f"--portfolio {portfolio} disagrees with --arms "
                f"({len(parsed)} arm specs)"
            )
        return parsed
    return parse_arms(default_arms(portfolio), base_seed, seed_derivation)


def rung_budgets(total_iterations: int, rungs: int) -> tuple[int, ...]:
    """Cumulative candidate budgets of each rung (last = full budget).

    Rung ``r`` (1-based) of ``R`` pauses arms at
    ``total >> (R - r)`` evaluated candidate moves: successive rungs
    double the budget and the final rung always equals the full
    schedule, so survivors of the last kill run to completion.  For
    the incremental engine one candidate is one inner-loop iteration;
    batch arms divide the budget by their lane count.
    """
    if rungs < 1:
        raise PlacementError(f"rungs must be >= 1, got {rungs}")
    if total_iterations < 1:
        raise PlacementError(
            f"total iteration budget must be >= 1, got {total_iterations}"
        )
    return tuple(
        max(1, total_iterations >> (rungs - r)) for r in range(1, rungs + 1)
    )


# ----------------------------------------------------------------------
# Pool payloads / results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ArmRungTask:
    """Picklable description of one arm's advance to one rung budget."""

    arm: PortfolioArm
    parameters: AnnealingParameters
    priorities: ConnectionPriorities
    until_iterations: int
    #: ``None`` on the first rung — the worker starts the anneal.
    checkpoint: AnnealCheckpoint | None = None
    grid: ChipGrid | None = None
    footprints: dict[str, tuple[int, int]] | None = None
    #: Pre-built initial placement for ``init=greedy`` arms — computed
    #: once in the parent and shared, so N greedy arms pay the BA
    #: construction cost once, not N times.
    initial: object | None = None
    #: Arm index — the event/snapshot worker namespace.
    index: int = 0
    capture_events: bool = False
    heartbeat: HeartbeatSpec | None = None


@dataclass(frozen=True)
class ArmOutcome:
    """One arm's state after a rung (the pool result payload)."""

    arm: PortfolioArm
    checkpoint: AnnealCheckpoint
    #: CPU seconds this rung cost (``time.process_time`` delta in the
    #: worker) — the unit the efficiency gate sums.
    cpu_seconds: float
    snapshot: InstrumentationSnapshot
    events: tuple[Event, ...] = ()


def _run_arm_rung(task: _ArmRungTask) -> ArmOutcome:
    """Worker entry point: start or resume one arm up to the rung budget."""
    cpu_started = time.process_time()
    recorder: RecordingSink | None = None
    sinks: list[Sink] = []
    if task.capture_events:
        recorder = RecordingSink()
        sinks.append(recorder)
    relay = task.heartbeat.build() if task.heartbeat is not None else None
    if relay is not None:
        sinks.append(relay)
    sink: Sink | None
    if not sinks:
        sink = None
    elif len(sinks) == 1:
        sink = sinks[0]
    else:
        sink = TeeSink(*sinks)
    instr = Instrumentation(sink=sink, worker=task.index)
    try:
        checkpoint = task.checkpoint
        if checkpoint is None:
            initial = task.initial
            if initial is None and task.arm.init == "greedy":
                # Fallback for direct callers — race_portfolio always
                # pre-builds and shares the greedy start.
                from repro.place.greedy import greedy_placement

                initial = greedy_placement(
                    task.grid,
                    task.footprints,
                    list(task.priorities.priorities),
                    max_passes=GREEDY_INIT_PASSES,
                )
            checkpoint = anneal_start(
                task.grid,
                task.footprints,
                task.priorities,
                task.parameters,
                seed=task.arm.seed,
                engine=task.arm.engine,
                initial=initial,
            )
        checkpoint = anneal_resume(
            checkpoint,
            task.priorities,
            task.parameters,
            until_iterations=task.until_iterations,
            instrumentation=instr,
        )
    finally:
        if relay is not None:
            relay.close()
    return ArmOutcome(
        arm=task.arm,
        checkpoint=checkpoint,
        cpu_seconds=time.process_time() - cpu_started,
        snapshot=instr.snapshot(),
        events=tuple(recorder.events) if recorder is not None else (),
    )


@dataclass(frozen=True)
class PortfolioResult:
    """The race's outcome: the winning anneal plus the audit trail."""

    result: AnnealingResult
    winner: PortfolioArm
    #: Ledger/bench payload (plain JSON-able types only).
    summary: dict


def _rank_key(outcome: ArmOutcome) -> tuple[float, int, str]:
    """The racer's total order: energy, then seed, then arm id."""
    return (
        outcome.checkpoint.best_energy,
        outcome.arm.seed,
        outcome.arm.arm_id,
    )


def race_portfolio(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    arms: tuple[PortfolioArm, ...],
    parameters: AnnealingParameters | None = None,
    rungs: int = 3,
    jobs: int = 1,
    instrumentation: Instrumentation | None = None,
) -> PortfolioResult:
    """Race *arms* under successive halving; return the winning anneal.

    Determinism contract: the result is a pure function of
    ``(arms, parameters, rungs)`` — ``jobs`` only changes which worker
    advances which arm, never an energy, a kill, or the winner.  The
    winner's reported energy is an exact scalar Eq. 3 evaluation of its
    best placement (batch checkpoints rank by their running vectorized
    energy, which is never reported outward).
    """
    if not arms:
        raise PlacementError("portfolio race needs at least one arm")
    ids = [arm.arm_id for arm in arms]
    if len(set(ids)) != len(ids):
        raise PlacementError(f"duplicate arm ids in portfolio: {ids}")
    params = parameters or AnnealingParameters()
    budgets = rung_budgets(params.total_iterations, rungs)
    capture = instrumentation is not None and instrumentation.active
    monitor = active_monitor()

    arm_params = {arm.arm_id: arm.parameters(params) for arm in arms}
    # The rung budgets count *candidate evaluations*.  A batch arm
    # evaluates batch_size candidates per inner-loop iteration, so its
    # iteration budget is the rung budget divided by its lane count —
    # every arm burns the same number of candidate moves per rung,
    # which is what makes checkpoint energies and the efficiency gate
    # comparable across engines.
    lanes = {
        arm.arm_id: arm_params[arm.arm_id].batch_size for arm in arms
    }
    # One shared greedy start for every init=greedy arm, built here so
    # the BA construction cost is paid once — but charged to the race's
    # CPU total all the same (the efficiency gate must not hide it).
    greedy_initial = None
    greedy_cpu = 0.0
    if any(arm.init == "greedy" for arm in arms):
        from repro.place.greedy import greedy_placement

        greedy_started = time.process_time()
        greedy_initial = greedy_placement(
            grid,
            footprints,
            list(priorities.priorities),
            max_passes=GREEDY_INIT_PASSES,
        )
        greedy_cpu = time.process_time() - greedy_started
    live: list[tuple[int, PortfolioArm]] = list(enumerate(arms))
    states: dict[str, ArmOutcome] = {}
    cpu_by_arm: dict[str, float] = {arm.arm_id: 0.0 for arm in arms}
    killed_at: dict[str, int] = {}
    replays: list[tuple[float, tuple[Event, ...]]] = []

    with PoolSession(jobs=min(resolve_jobs(jobs), len(arms))) as session:
        for rung_index, budget in enumerate(budgets, start=1):
            dispatch_t = (
                instrumentation.now() if instrumentation is not None else 0.0
            )
            tasks = [
                _ArmRungTask(
                    arm=arm,
                    parameters=arm_params[arm.arm_id],
                    priorities=priorities,
                    until_iterations=max(1, budget // lanes[arm.arm_id]),
                    checkpoint=(
                        states[arm.arm_id].checkpoint
                        if arm.arm_id in states
                        else None
                    ),
                    grid=grid,
                    footprints=footprints,
                    initial=(
                        greedy_initial if arm.init == "greedy" else None
                    ),
                    index=index,
                    capture_events=capture,
                    heartbeat=(
                        monitor.spec_for(
                            worker=index, seed=arm.seed, label=arm.arm_id
                        )
                        if monitor is not None and monitor.queue is not None
                        else None
                    ),
                )
                for index, arm in live
            ]
            outcomes = session.run(_run_arm_rung, tasks)
            for (index, arm), outcome in zip(live, outcomes):
                states[arm.arm_id] = outcome
                cpu_by_arm[arm.arm_id] += outcome.cpu_seconds
                if instrumentation is not None:
                    instrumentation.absorb(outcome.snapshot, worker=index)
                if capture:
                    replays.append((dispatch_t, outcome.events))
            ranked = sorted(
                (states[arm.arm_id] for _, arm in live), key=_rank_key
            )
            if instrumentation is not None:
                instrumentation.count("portfolio.rungs")
                instrumentation.event(
                    "portfolio.rung",
                    rung=rung_index,
                    budget=budget,
                    survivors=[o.arm.arm_id for o in ranked],
                    energies={
                        o.arm.arm_id: o.checkpoint.best_energy for o in ranked
                    },
                )
            if rung_index < len(budgets) and len(ranked) > 1:
                keep = (len(ranked) + 1) // 2
                for outcome in ranked[keep:]:
                    killed_at[outcome.arm.arm_id] = rung_index
                    if instrumentation is not None:
                        instrumentation.count("portfolio.kills")
                        instrumentation.event(
                            "portfolio.kill",
                            rung=rung_index,
                            arm=outcome.arm.arm_id,
                            energy=outcome.checkpoint.best_energy,
                            seed=outcome.arm.seed,
                        )
                kept_ids = {o.arm.arm_id for o in ranked[:keep]}
                live = [
                    (index, arm) for index, arm in live
                    if arm.arm_id in kept_ids
                ]

    if capture:
        sink = instrumentation.sink
        for shift, events in replays:
            for event in events:
                sink.emit(dataclass_replace(event, time=event.time + shift))

    final_ranked = sorted(
        (states[arm.arm_id] for _, arm in live), key=_rank_key
    )
    winner_outcome = final_ranked[0]
    winner = winner_outcome.arm
    cp = winner_outcome.checkpoint
    # Checkpoint energies are exact Eq. 3 values on every engine.
    result = AnnealingResult(
        placement=cp.best_placement,
        energy=cp.best_energy,
        initial_energy=cp.initial_energy,
        accepted_moves=cp.accepted_moves,
        trials=cp.trials,
        energy_trace=list(cp.energy_trace),
        seed=winner.seed,
    )
    total_cpu = sum(cpu_by_arm.values()) + greedy_cpu
    improvement = result.initial_energy - result.energy
    summary = {
        "arms": [
            {
                "arm_id": arm.arm_id,
                "spec": arm.spec,
                "seed": arm.seed,
                "killed_at_rung": killed_at.get(arm.arm_id),
                "best_energy": states[arm.arm_id].checkpoint.best_energy,
                "iterations": states[arm.arm_id].checkpoint.iterations_done,
                "candidates": (
                    states[arm.arm_id].checkpoint.iterations_done
                    * lanes[arm.arm_id]
                ),
                "cpu_seconds": cpu_by_arm[arm.arm_id],
            }
            for arm in arms
        ],
        "rungs": len(budgets),
        "rung_budgets": list(budgets),
        "winner": winner.arm_id,
        "winner_spec": winner.spec,
        "winner_seed": winner.seed,
        "rungs_survived": len(budgets) - (killed_at.get(winner.arm_id, 0)),
        "greedy_init_cpu_seconds": greedy_cpu,
        "energy": result.energy,
        "initial_energy": result.initial_energy,
        "total_cpu_seconds": total_cpu,
        "energy_per_cpu_second": (
            improvement / total_cpu if total_cpu > 0 else 0.0
        ),
    }
    if instrumentation is not None:
        instrumentation.gauge("portfolio.arms", len(arms))
        instrumentation.gauge(
            "portfolio.winner_energy", result.energy
        )
        instrumentation.event(
            "portfolio.winner",
            arm=winner.arm_id,
            spec=winner.spec,
            seed=winner.seed,
            energy=result.energy,
            total_cpu_seconds=total_cpu,
        )
    return PortfolioResult(result=result, winner=winner, summary=summary)
