"""Problem definition and synthesis parameters (Section III).

:class:`SynthesisParameters` gathers every knob of the flow with the
paper's published defaults (Section V): ``α=0.9, β=0.6, γ=0.4,
T0=10000, Imax=150, Tmin=1.0, t_c=2.0, w_e=10``.
:class:`SynthesisProblem` is the *Given* triple — assay, component
allocation, and library — bundled with those parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assay.graph import SequencingGraph
from repro.assay.validation import check_assay
from repro.check.report import CHECK_MODES
from repro.components.allocation import Allocation
from repro.components.library import DEFAULT_LIBRARY, ComponentLibrary
from repro.errors import ValidationError
from repro.place.annealing import PLACEMENT_ENGINES, AnnealingParameters
from repro.place.grid import DEFAULT_PITCH_MM, ChipGrid, auto_grid
from repro.route.router import DEFAULT_ROUTE_ENGINE, ROUTE_ENGINES
from repro.units import Millimetres, Seconds

__all__ = ["SynthesisParameters", "SynthesisProblem"]


@dataclass(frozen=True)
class SynthesisParameters:
    """All tunables of the synthesis flow (paper defaults)."""

    #: Constant inter-component transport time ``t_c`` (s).
    transport_time: Seconds = 2.0
    #: Eq. 4 weighting of task concurrency (β).
    beta: float = 0.6
    #: Eq. 4 weighting of residue wash time (γ).
    gamma: float = 0.4
    #: SA initial temperature ``T0``.
    initial_temperature: float = 10_000.0
    #: SA termination temperature ``Tmin``.
    min_temperature: float = 1.0
    #: SA cooling rate ``α``.
    cooling_rate: float = 0.9
    #: SA iterations per temperature ``Imax``.
    iterations_per_temperature: int = 150
    #: Initial routing-cell weight ``w_e``.
    initial_cell_weight: float = 10.0
    #: Physical pitch of one grid cell (mm).
    cell_pitch_mm: Millimetres = DEFAULT_PITCH_MM
    #: Component area / chip area bound used when auto-sizing the grid.
    grid_fill_ratio: float = 0.25
    #: RNG seed for the annealer.
    seed: int = 0
    #: SA engine: ``"incremental"`` (delta-energy workspace),
    #: ``"batch"`` (numpy best-of-K kernel, see
    #: :mod:`repro.place.batch`), or ``"reference"`` (immutable
    #: full-recompute oracle).  Incremental and reference yield
    #: identical seeded results; batch matches them bit for bit at
    #: ``sa_batch_size=1`` and explores K candidates per step above it.
    placement_engine: str = "incremental"
    #: Candidates proposed per SA step by the batch placement engine
    #: (ignored by the other engines).  ``1`` degenerates to the
    #: incremental engine's exact move loop.
    sa_batch_size: int = 16
    #: Routing engine: ``"flat"`` (integer-indexed arrays and numpy
    #: kernels, see :mod:`repro.route.flat`) or ``"reference"`` (the
    #: Cell/dict oracle).  Both yield byte-identical paths, slot plans,
    #: and metrics; the choice only affects runtime.
    route_engine: str = DEFAULT_ROUTE_ENGINE
    #: Independent SA restarts; the best placement wins under the
    #: ``(energy, derived seed)`` total order.  Restart 0 keeps the base
    #: seed, restart ``k`` uses ``seed*1000+k``, so ``restarts=1`` is
    #: exactly the single-anneal pipeline and best-of-N energy is never
    #: worse than the single run.
    restarts: int = 1
    #: Restart-seed derivation: ``"legacy"`` is the original
    #: ``seed*1000+k`` formula (kept as the default for bit-parity;
    #: collides across nearby base seeds), ``"splitmix"`` the
    #: collision-free SplitMix64 mix (see
    #: :func:`repro.parallel.multistart.derive_seed`).  Portfolio arms
    #: derive their seeds through the same scheme.
    seed_derivation: str = "legacy"
    #: Worker processes for fanning restarts out
    #: (:mod:`repro.parallel`); the result is bit-identical for every
    #: value.  ``1`` runs inline, ``0`` means one worker per CPU.
    jobs: int = 1
    #: Portfolio racing (:mod:`repro.parallel.portfolio`): ``0`` keeps
    #: plain multi-start; ``N >= 1`` races ``N`` heterogeneous arms
    #: under successive halving instead of running ``restarts``
    #: identical anneals (``restarts`` is then ignored).
    portfolio: int = 0
    #: Explicit arm-spec string (``engine[:key=value]*``, comma
    #: separated — see :func:`repro.parallel.portfolio.parse_arms`);
    #: empty cycles the default palette.  Implies portfolio mode.
    arms: str = ""
    #: Successive-halving checkpoint rungs for portfolio racing.
    rungs: int = 3
    #: Independent design-rule audit of the finished result
    #: (:mod:`repro.check`): ``"off"`` skips it entirely, ``"report"``
    #: attaches the :class:`~repro.check.report.CheckReport` to the
    #: result, ``"strict"`` additionally raises
    #: :class:`~repro.errors.CheckError` on any violation.
    check: str = "off"

    def __post_init__(self) -> None:
        if self.transport_time < 0:
            raise ValidationError("transport time must be non-negative")
        if self.beta < 0 or self.gamma < 0:
            raise ValidationError("Eq. 4 weights must be non-negative")
        if self.initial_cell_weight < 0:
            raise ValidationError("initial cell weight must be non-negative")
        if self.placement_engine not in PLACEMENT_ENGINES:
            raise ValidationError(
                f"unknown placement engine {self.placement_engine!r}; "
                f"expected one of {PLACEMENT_ENGINES}"
            )
        if self.sa_batch_size < 1:
            raise ValidationError(
                f"sa_batch_size must be >= 1, got {self.sa_batch_size}"
            )
        if self.route_engine not in ROUTE_ENGINES:
            raise ValidationError(
                f"unknown route engine {self.route_engine!r}; "
                f"expected one of {ROUTE_ENGINES}"
            )
        if self.restarts < 1:
            raise ValidationError(
                f"restarts must be >= 1, got {self.restarts}"
            )
        if self.jobs < 0:
            raise ValidationError(
                f"jobs must be >= 1 (or 0 for one per CPU), got {self.jobs}"
            )
        if self.check not in CHECK_MODES:
            raise ValidationError(
                f"unknown check mode {self.check!r}; "
                f"expected one of {CHECK_MODES}"
            )
        # Lazy import: repro.parallel pulls in the pool machinery,
        # which problem construction should not pay for.
        from repro.parallel.multistart import SEED_DERIVATIONS

        if self.seed_derivation not in SEED_DERIVATIONS:
            raise ValidationError(
                f"unknown seed derivation {self.seed_derivation!r}; "
                f"expected one of {SEED_DERIVATIONS}"
            )
        if self.portfolio < 0:
            raise ValidationError(
                f"portfolio must be >= 0 (0 disables racing), "
                f"got {self.portfolio}"
            )
        if self.rungs < 1:
            raise ValidationError(f"rungs must be >= 1, got {self.rungs}")
        if self.arms or self.portfolio:
            # Parse eagerly so a bad arm grammar fails at configuration
            # time, not inside a pool worker mid-race.
            from repro.parallel.portfolio import resolve_arms

            resolve_arms(
                self.portfolio, self.arms, self.seed, self.seed_derivation
            )

    def annealing(self) -> AnnealingParameters:
        """The SA-stage subset of these parameters."""
        return AnnealingParameters(
            initial_temperature=self.initial_temperature,
            min_temperature=self.min_temperature,
            cooling_rate=self.cooling_rate,
            iterations_per_temperature=self.iterations_per_temperature,
            batch_size=self.sa_batch_size,
        )


@dataclass(frozen=True)
class SynthesisProblem:
    """The *Given* of the problem formulation, validated on construction."""

    assay: SequencingGraph
    allocation: Allocation
    library: ComponentLibrary = field(default=DEFAULT_LIBRARY)
    parameters: SynthesisParameters = field(default_factory=SynthesisParameters)
    grid: ChipGrid | None = None

    def __post_init__(self) -> None:
        check_assay(self.assay, self.allocation)

    def resolved_grid(self) -> ChipGrid:
        """The explicit grid, or one auto-sized for the allocation."""
        if self.grid is not None:
            return self.grid
        return auto_grid(
            self.allocation,
            self.library,
            pitch_mm=self.parameters.cell_pitch_mm,
            fill_ratio=self.parameters.grid_fill_ratio,
        )

    def footprints(self) -> dict[str, tuple[int, int]]:
        """``cid -> (width, height)`` for every allocated component."""
        return {
            cid: self.library.footprint(op_type)
            for cid, op_type in self.allocation.iter_components()
        }
