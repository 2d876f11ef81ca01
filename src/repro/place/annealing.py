"""Simulated-annealing placement (Algorithm 2, lines 1–8).

The annealer follows the paper's schedule exactly: start from a random
legal placement at temperature ``T0``; at each temperature perform
``Imax`` move trials, accepting an uphill move of cost ``Δ`` with
probability ``e^(−Δ/T)``; cool by ``T ← α·T`` until ``T ≤ Tmin``.
Defaults are the paper's: ``T0=10000, Tmin=1.0, α=0.9, Imax=150``.

The best placement ever seen is returned (not merely the final one) —
standard practice that only improves on the paper's description.

Two interchangeable engines implement the move loop:

* ``engine="incremental"`` (default) — the
  :class:`~repro.place.incremental.PlacementWorkspace`: in-place
  apply/undo moves, row-bitmask legality, and delta energy over only
  the nets incident to the moved components.
* ``engine="reference"`` — the original immutable path (one new
  :class:`~repro.place.placement.Placement`, full legality scan, and
  full Eq. 3 evaluation per trial), kept as the correctness oracle.

A third engine, ``engine="batch"`` (:mod:`repro.place.batch`),
vectorizes the move loop with numpy: per step it proposes
``batch_size`` candidate moves, evaluates every delta as array ops,
and applies Metropolis acceptance to the greedily-best candidate.  At
``batch_size=1`` it delegates to the incremental loop and is therefore
bit-identical to the engines above; at larger batch sizes it explores
more and trades the bit-level contract for a never-worse-energy gate
(see the batch module docstring for the RNG-stream contract).

Both engines consume the seeded RNG through the *identical* draw
sequence and make identical accept/reject decisions, so a given seed
yields the same best placement and the same best energy.  This holds by
construction: Eq. 3 is exact integer arithmetic (see
:mod:`repro.place.energy`), so the incremental engine's delta over the
moved nets *is* the reference engine's difference of two full
evaluations.  The parity tests in ``tests/place/test_incremental.py``
assert this.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter

from repro.errors import PlacementError
from repro.obs.instrument import Instrumentation
from repro.place.energy import (
    ENERGY_UNIT,
    ConnectionPriorities,
    energy_units,
    placement_energy,
)
from repro.place.grid import ChipGrid
from repro.place.incremental import PlacementWorkspace
from repro.place.moves import random_move, random_placement
from repro.place.placement import Placement

__all__ = [
    "AnnealCheckpoint",
    "AnnealingParameters",
    "AnnealingResult",
    "anneal_placement",
    "anneal_resume",
    "anneal_start",
    "checkpoint_result",
    "PLACEMENT_ENGINES",
]

#: Valid values of :func:`anneal_placement`'s ``engine`` parameter.
#: ``"batch"`` is the numpy best-of-K kernel of :mod:`repro.place.batch`;
#: at ``batch_size=1`` it delegates to the incremental loop and is
#: bit-identical to ``"incremental"``.
PLACEMENT_ENGINES = ("incremental", "batch", "reference")

#: Move kinds in the reference sampler's tuple order — the incremental
#: sampler draws from this tuple so both engines consume the RNG
#: identically (``rng.choice`` on any length-3 sequence draws the same
#: underlying integer).
_MOVE_KINDS = ("translate", "swap", "rotate")
#: Integer codes of :data:`_MOVE_KINDS` for the sampler's hot loop
#: (``rng.choices`` draws the same numbers whatever the population).
_KIND_CODES = (0, 1, 2)
#: Largest population ``rng.sample(population, 2)`` draws from with
#: its pool-list branch (CPython's ``setsize``: a larger population
#: switches to the set-based branch with a different second draw).
_SAMPLE_POOL_MAX = 21


@dataclass(frozen=True)
class AnnealingParameters:
    """SA control parameters (paper defaults)."""

    initial_temperature: float = 10_000.0
    min_temperature: float = 1.0
    cooling_rate: float = 0.9
    iterations_per_temperature: int = 150
    #: Candidates proposed per step by the batch engine (``engine=
    #: "batch"``); the other engines ignore it.  ``1`` degenerates to
    #: the incremental engine's exact move loop.
    batch_size: int = 16
    #: Optional move-mix weights ``(translate, swap, rotate)`` for the
    #: incremental and batch engines.  ``None`` (the default) keeps the
    #: uniform reference sampler and its exact RNG draw sequence — the
    #: bit-parity contract between engines only covers that default.
    #: Portfolio arms set this to bias exploration; the reference
    #: engine rejects non-uniform weights rather than silently ignore
    #: them.
    move_weights: tuple[float, float, float] | None = None

    def __post_init__(self) -> None:
        if not 0 < self.cooling_rate < 1:
            raise PlacementError(
                f"cooling rate must be in (0,1), got {self.cooling_rate}"
            )
        if self.initial_temperature <= self.min_temperature:
            raise PlacementError("initial temperature must exceed the minimum")
        if self.min_temperature <= 0:
            raise PlacementError("minimum temperature must be positive")
        if self.iterations_per_temperature <= 0:
            raise PlacementError("Imax must be positive")
        if self.batch_size < 1:
            raise PlacementError(
                f"batch size must be >= 1, got {self.batch_size}"
            )
        if self.move_weights is not None:
            if len(self.move_weights) != len(_MOVE_KINDS):
                raise PlacementError(
                    f"move_weights needs one weight per kind "
                    f"{_MOVE_KINDS}, got {self.move_weights!r}"
                )
            if min(self.move_weights) < 0 or sum(self.move_weights) <= 0:
                raise PlacementError(
                    f"move_weights must be non-negative with a positive "
                    f"sum, got {self.move_weights!r}"
                )

    @property
    def temperature_steps(self) -> int:
        """Number of cooling steps the schedule will take."""
        ratio = math.log(self.min_temperature / self.initial_temperature)
        return max(1, math.ceil(ratio / math.log(self.cooling_rate)))

    @property
    def total_iterations(self) -> int:
        """Total inner-loop move iterations of the full schedule.

        The budget unit of the suspend/resume seam and the portfolio
        racer's rungs: every temperature step proposes exactly
        ``iterations_per_temperature`` candidates on every engine (the
        batch engine evaluates ``batch_size`` lanes *per iteration*,
        which is its arm's privilege, not a different budget unit).
        """
        return self.temperature_steps * self.iterations_per_temperature


@dataclass
class AnnealingResult:
    """Placement plus convergence diagnostics."""

    placement: Placement
    energy: float
    initial_energy: float
    accepted_moves: int
    trials: int
    energy_trace: list[float]
    #: The RNG seed that produced this result; under multi-start
    #: (:func:`repro.parallel.anneal_multistart`) this identifies the
    #: winning restart.
    seed: int | None = None

    @property
    def acceptance_ratio(self) -> float:
        return self.accepted_moves / self.trials if self.trials else 0.0


def anneal_placement(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    seed: int = 0,
    instrumentation: Instrumentation | None = None,
    engine: str = "incremental",
    verify: bool = False,
) -> AnnealingResult:
    """Run the SA placer and return the best placement found.

    Parameters
    ----------
    grid:
        The chip's cell array.
    footprints:
        ``cid -> (width, height)`` in cells for every component.
    priorities:
        Precomputed Eq. 4 connection priorities of the schedule.
    parameters:
        SA knobs; ``None`` selects the paper's defaults.
    seed:
        RNG seed — annealing is fully deterministic given the seed,
        and the same seed gives the same result on either engine.
    instrumentation:
        Optional :class:`~repro.obs.Instrumentation`; receives move
        counters (``sa.moves_*``) and one ``sa.step`` convergence event
        per temperature (temperature, energy, best energy, acceptance
        ratio) — the trace Fig.-style solver papers report.
    engine:
        ``"incremental"`` (default), ``"batch"``, or ``"reference"`` —
        see the module docstring.
    verify:
        Incremental engine only: after every accepted move, assert the
        move's delta equals the change of a from-scratch Eq. 3
        evaluation exactly and the row occupancy masks match the blocks.
        Slow; meant for tests and debugging.
    """
    if engine not in PLACEMENT_ENGINES:
        raise PlacementError(
            f"unknown placement engine {engine!r}; "
            f"expected one of {PLACEMENT_ENGINES}"
        )
    params = parameters or AnnealingParameters()
    if engine == "reference" and params.move_weights is not None:
        raise PlacementError(
            "move_weights is only supported by the incremental and "
            "batch engines; the reference sampler is uniform"
        )
    rng = random.Random(seed)

    current = random_placement(grid, footprints, rng)
    if current is None:
        raise PlacementError(
            f"could not find an initial legal placement of "
            f"{len(footprints)} components on a "
            f"{grid.width}x{grid.height} grid"
        )
    if engine == "reference":
        result = _anneal_reference(
            current, priorities, params, rng, instrumentation
        )
    elif engine == "batch":
        # Imported lazily: the other engines never pay for the numpy
        # import.
        from repro.place.batch import anneal_batch

        result = anneal_batch(
            current, priorities, params, rng, instrumentation, verify=verify
        )
    else:
        result = _anneal_incremental(
            current, priorities, params, rng, instrumentation, verify=verify
        )
    result.seed = seed
    return result


def _flush_step(
    instrumentation: Instrumentation | None,
    temperature: float,
    energy: float,
    best_energy: float,
    step_trials: int,
    step_accepted: int,
    elapsed: float = 0.0,
) -> None:
    """Per-temperature instrumentation flush shared by both engines."""
    if instrumentation is None:
        return
    instrumentation.count("sa.moves_proposed", step_trials)
    instrumentation.count("sa.moves_accepted", step_accepted)
    instrumentation.count("sa.moves_rejected", step_trials - step_accepted)
    instrumentation.count("sa.temperature_steps")
    instrumentation.observe("sa.step_seconds", elapsed)
    instrumentation.event(
        "sa.step",
        temperature=temperature,
        energy=energy,
        best_energy=best_energy,
        acceptance_ratio=(step_accepted / step_trials if step_trials else 0.0),
    )


def _flush_final(
    instrumentation: Instrumentation | None,
    initial_energy: float,
    best_energy: float,
) -> None:
    if instrumentation is None:
        return
    instrumentation.gauge("sa.final_energy", best_energy)
    instrumentation.gauge("sa.initial_energy", initial_energy)


def _anneal_reference(
    current: Placement,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    rng: random.Random,
    instrumentation: Instrumentation | None,
) -> AnnealingResult:
    """The original immutable move loop (full recompute per trial)."""
    current_energy = placement_energy(current, priorities)
    best, best_energy = current, current_energy
    initial_energy = current_energy

    accepted = 0
    trials = 0
    trace: list[float] = []
    temperature = params.initial_temperature
    while temperature > params.min_temperature:
        # Per-temperature tallies are kept in locals and flushed once per
        # cooling step, so instrumentation stays off the per-move path.
        step_started = perf_counter()
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            candidate = random_move(current, rng)
            if candidate is None:
                continue
            step_trials += 1
            candidate_energy = placement_energy(candidate, priorities)
            delta = candidate_energy - current_energy
            if delta < 0 or rng.random() < math.exp(-delta / temperature):
                current, current_energy = candidate, candidate_energy
                step_accepted += 1
                if current_energy < best_energy:
                    best, best_energy = current, current_energy
        accepted += step_accepted
        trials += step_trials
        trace.append(current_energy)
        _flush_step(
            instrumentation, temperature, current_energy, best_energy,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate

    _flush_final(instrumentation, initial_energy, best_energy)
    return AnnealingResult(
        placement=best,
        energy=best_energy,
        initial_energy=initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
    )


def _sample_pending_move(
    workspace: PlacementWorkspace,
    rng: random.Random,
    attempts: int = 20,
    weights: tuple[float, float, float] | None = None,
):
    """Incremental twin of :func:`~repro.place.moves.random_move`.

    With *weights* ``None`` it replicates the reference sampler's RNG
    draw sequence exactly — same move-kind choice, same component
    choices, same ``randint`` bounds, and the same early-return points
    that skip draws — so a shared seed drives both engines through
    identical move proposals.  Non-``None`` weights bias the move-kind
    draw (``rng.choices``) and deliberately leave the bit-parity
    contract: a weighted arm is a *different* deterministic walk.

    The draws are CPython's own, inlined: ``rng.choice(seq)`` and
    ``rng.randint(0, m)`` are one ``_randbelow(n)`` each (``n = len(seq)``
    and ``m + 1``), which takes ``getrandbits(n.bit_length())`` until
    the value is below ``n``; ``rng.sample(components, 2)`` is two
    ``_randbelow`` draws whose bounds depend on its branch (pool list
    up to :data:`_SAMPLE_POOL_MAX` components, a set above).  Calling
    ``getrandbits`` directly consumes the identical Mersenne Twister
    words without the wrappers' frames.
    """
    components = workspace.components()
    count = len(components)
    count_bits = count.bit_length()
    # rng.sample keeps a pool list while the population fits in a
    # small set (n <= 21 for k=2): its second draw is then below n-1.
    pooled = count <= _SAMPLE_POOL_MAX
    second_bits = (count - 1).bit_length() if pooled else count_bits
    getrandbits = rng.getrandbits
    grid_w = workspace.grid.width
    grid_h = workspace.grid.height
    for _ in range(attempts):
        if weights is None:
            kind = getrandbits(2)
            while kind >= 3:
                kind = getrandbits(2)
        else:
            kind = rng.choices(_KIND_CODES, weights=weights, k=1)[0]
        pending = None
        if kind == 0:  # translate
            if count:
                i = getrandbits(count_bits)
                while i >= count:
                    i = getrandbits(count_bits)
                cid = components[i]
                block = workspace.block(cid)
                span_x = grid_w - block.width + 1
                span_y = grid_h - block.height + 1
                if span_x > 0 and span_y > 0:
                    bits = span_x.bit_length()
                    x = getrandbits(bits)
                    while x >= span_x:
                        x = getrandbits(bits)
                    bits = span_y.bit_length()
                    y = getrandbits(bits)
                    while y >= span_y:
                        y = getrandbits(bits)
                    pending = workspace.propose_translate(cid, x, y)
        elif kind == 1:  # swap
            if count >= 2:
                i = getrandbits(count_bits)
                while i >= count:
                    i = getrandbits(count_bits)
                if pooled:
                    # Pool branch: the first pick's slot is refilled
                    # with the last element, then j is drawn below n-1.
                    j = getrandbits(second_bits)
                    while j >= count - 1:
                        j = getrandbits(second_bits)
                    if j == i:
                        j = count - 1
                else:
                    # Set branch: j is redrawn below n until it differs.
                    j = getrandbits(count_bits)
                    while j >= count or j == i:
                        j = getrandbits(count_bits)
                pending = workspace.propose_swap(components[i], components[j])
        else:  # rotate
            if count:
                i = getrandbits(count_bits)
                while i >= count:
                    i = getrandbits(count_bits)
                pending = workspace.propose_rotate(components[i])
        if pending is not None:
            return pending
    return None


def _anneal_incremental(
    current: Placement,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    rng: random.Random,
    instrumentation: Instrumentation | None,
    verify: bool = False,
) -> AnnealingResult:
    """The incremental move loop from *current* to the end of the
    schedule: a resumable anneal run without a pause."""
    start = _step_zero("incremental", None, current, priorities, params, rng)
    return checkpoint_result(
        _resume_incremental_checkpoint(
            start, priorities, params, None, instrumentation, verify=verify
        )
    )


# ----------------------------------------------------------------------
# Suspend/resume seam (the portfolio racer's checkpoint substrate)
# ----------------------------------------------------------------------
@dataclass
class AnnealCheckpoint:
    """Picklable suspended state of one anneal, pausable at step bounds.

    Captures everything the move loop needs to continue bit-exactly:
    the placement, the python RNG state (and the batch kernel's PCG64
    state), the temperature, and the step/iteration counters.  Pauses
    happen only at temperature-step boundaries, and energies are exact
    (a rebuilt workspace starts from the very energy the suspended one
    held), so an anneal split across any number of suspend/resume
    cycles walks the *identical* trajectory as an uninterrupted run —
    the property the resume parity tests pin and the racer's
    determinism contract stands on.

    ``iterations_done`` counts inner-loop move iterations
    (``steps_done * Imax``) — the budget unit of the racer's rungs.
    """

    engine: str
    #: ``None`` for the one-shot engines' unpaused run, whose caller
    #: stamps the seed on the result.
    seed: int | None
    temperature: float
    steps_done: int
    iterations_done: int
    rng_state: tuple
    #: PCG64 ``bit_generator.state`` of the batch kernel, ``None`` for
    #: the incremental engine.
    np_rng_state: dict | None
    placement: Placement
    best_placement: Placement
    current_energy: float
    best_energy: float
    initial_energy: float
    accepted_moves: int
    trials: int
    energy_trace: list[float]
    finished: bool = False


#: Engines the checkpoint seam supports (``reference`` is the immutable
#: oracle and intentionally stays a single uninterruptible run).
RESUMABLE_ENGINES = ("incremental", "batch")


def anneal_start(
    grid: ChipGrid,
    footprints: dict[str, tuple[int, int]],
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    seed: int = 0,
    engine: str = "incremental",
    initial: Placement | None = None,
) -> AnnealCheckpoint:
    """Build the step-zero checkpoint of a resumable anneal.

    *initial* supplies the starting placement (e.g. the greedy-BA
    construction for a ``init=greedy`` portfolio arm); ``None`` samples
    the seeded random placement through the exact RNG draws of
    :func:`anneal_placement`, so a resumable run started here and run
    to completion without pauses reproduces the one-shot engines bit
    for bit.
    """
    params = parameters or AnnealingParameters()
    if engine not in RESUMABLE_ENGINES:
        raise PlacementError(
            f"checkpointable annealing supports engines "
            f"{RESUMABLE_ENGINES}, got {engine!r}"
        )
    rng = random.Random(seed)
    if initial is not None:
        if initial.grid is not grid and (
            initial.grid.width != grid.width
            or initial.grid.height != grid.height
        ):
            raise PlacementError(
                "initial placement was built for a different grid"
            )
        if not initial.is_legal():
            raise PlacementError(
                "initial placement for a resumable anneal must be legal"
            )
        current = initial
    else:
        current = random_placement(grid, footprints, rng)
        if current is None:
            raise PlacementError(
                f"could not find an initial legal placement of "
                f"{len(footprints)} components on a "
                f"{grid.width}x{grid.height} grid"
            )
    np_state: dict | None = None
    if engine == "batch" and params.batch_size > 1:
        # Same draw position as anneal_batch: the 64-bit numpy seed is
        # taken right after the initial placement.
        from repro.place.batch import numpy_rng_state

        np_state = numpy_rng_state(rng.getrandbits(64))
    return _step_zero(engine, seed, current, priorities, params, rng, np_state)


def _step_zero(
    engine: str,
    seed: int | None,
    placement: Placement,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    rng: random.Random,
    np_rng_state: dict | None = None,
) -> AnnealCheckpoint:
    """The checkpoint of an anneal that starts from *placement* with
    *rng* in its current state and has run no step yet."""
    energy = placement_energy(placement, priorities)
    return AnnealCheckpoint(
        engine=engine,
        seed=seed,
        temperature=params.initial_temperature,
        steps_done=0,
        iterations_done=0,
        rng_state=rng.getstate(),
        np_rng_state=np_rng_state,
        placement=placement,
        best_placement=placement,
        current_energy=energy,
        best_energy=energy,
        initial_energy=energy,
        accepted_moves=0,
        trials=0,
        energy_trace=[],
    )


def anneal_resume(
    checkpoint: AnnealCheckpoint,
    priorities: ConnectionPriorities,
    parameters: AnnealingParameters | None = None,
    until_iterations: int | None = None,
    instrumentation: Instrumentation | None = None,
) -> AnnealCheckpoint:
    """Advance a suspended anneal to *until_iterations* (or completion).

    The budget is a *cumulative* inner-loop iteration count; the loop
    pauses at the first temperature-step boundary at or past it, so a
    fixed budget sequence yields the same suspension points — and hence
    the same trajectory — no matter how the work is sliced.  A
    checkpoint that already satisfies the budget (or already finished)
    is returned unchanged.
    """
    params = parameters or AnnealingParameters()
    if checkpoint.finished or (
        until_iterations is not None
        and checkpoint.iterations_done >= until_iterations
    ):
        return checkpoint
    if checkpoint.engine == "batch" and params.batch_size > 1:
        from repro.place.batch import resume_batch

        return resume_batch(
            checkpoint, priorities, params, until_iterations, instrumentation
        )
    return _resume_incremental_checkpoint(
        checkpoint, priorities, params, until_iterations, instrumentation
    )


def checkpoint_result(checkpoint: AnnealCheckpoint) -> AnnealingResult:
    """The :class:`AnnealingResult` view of a (possibly paused) anneal."""
    return AnnealingResult(
        placement=checkpoint.best_placement,
        energy=checkpoint.best_energy,
        initial_energy=checkpoint.initial_energy,
        accepted_moves=checkpoint.accepted_moves,
        trials=checkpoint.trials,
        energy_trace=list(checkpoint.energy_trace),
        seed=checkpoint.seed,
    )


def _resume_incremental_checkpoint(
    cp: AnnealCheckpoint,
    priorities: ConnectionPriorities,
    params: AnnealingParameters,
    until_iterations: int | None,
    instrumentation: Instrumentation | None,
    verify: bool = False,
) -> AnnealCheckpoint:
    """The incremental move loop over a rebuilt workspace.

    Energies are tracked as exact integer counts of
    :data:`~repro.place.energy.ENERGY_UNIT` and scaled to floats only
    where they leave the loop.  The Metropolis test scales the delta
    first, so it sees the same float the reference engine computes.
    """
    workspace = PlacementWorkspace(cp.placement, priorities)
    rng = random.Random()
    rng.setstate(cp.rng_state)
    unit = ENERGY_UNIT
    current = workspace.units
    best = round(cp.best_energy / unit)
    best_blocks = {
        cid: cp.best_placement.block(cid)
        for cid in cp.best_placement.components()
    }
    accepted = cp.accepted_moves
    trials = cp.trials
    trace = list(cp.energy_trace)
    temperature = cp.temperature
    steps_done = cp.steps_done
    iterations_done = cp.iterations_done
    exp = math.exp
    while temperature > params.min_temperature and (
        until_iterations is None or iterations_done < until_iterations
    ):
        step_started = perf_counter()
        step_accepted = 0
        step_trials = 0
        for _ in range(params.iterations_per_temperature):
            pending = _sample_pending_move(
                workspace, rng, weights=params.move_weights
            )
            if pending is None:
                continue
            step_trials += 1
            delta = pending.delta
            if delta < 0 or rng.random() < exp(-(delta * unit) / temperature):
                workspace.commit(pending)
                if verify:
                    realised = energy_units(workspace.snapshot(), priorities)
                    if realised - current != delta:
                        raise PlacementError(
                            f"delta {delta!r} disagrees with realised "
                            f"change {realised - current!r}"
                        )
                    workspace.check_consistency()
                current += delta
                step_accepted += 1
                if current < best:
                    best = current
                    best_blocks = workspace.snapshot_blocks()
        accepted += step_accepted
        trials += step_trials
        trace.append(current * unit)
        _flush_step(
            instrumentation, temperature, current * unit, best * unit,
            step_trials, step_accepted, perf_counter() - step_started,
        )
        temperature *= params.cooling_rate
        steps_done += 1
        iterations_done += params.iterations_per_temperature
    best_energy = best * unit
    finished = temperature <= params.min_temperature
    if finished:
        _flush_final(instrumentation, cp.initial_energy, best_energy)
    return AnnealCheckpoint(
        engine=cp.engine,
        seed=cp.seed,
        temperature=temperature,
        steps_done=steps_done,
        iterations_done=iterations_done,
        rng_state=rng.getstate(),
        np_rng_state=cp.np_rng_state,
        placement=workspace.snapshot(),
        best_placement=Placement(workspace.grid, best_blocks),
        current_energy=current * unit,
        best_energy=best_energy,
        initial_energy=cp.initial_energy,
        accepted_moves=accepted,
        trials=trials,
        energy_trace=trace,
        finished=finished,
    )
