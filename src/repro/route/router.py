"""Transportation-conflict-aware routing (Algorithm 2, lines 9–18).

Tasks are routed in non-decreasing start-time order.  For each task the
improved A* of :mod:`repro.route.astar` searches a path whose *transit*
occupation fits every traversed cell; the path is then given a **slot
plan** assigning each cell the occupation matching its role:

* cells up to the cache cell — ``[depart, arrive + wash)``: the fluid
  passes on its way in, and the wash flow follows;
* the **cache cell** — the path cell closest to the destination that can
  host the plug — ``[depart, consume + wash)``: transport, distributed-
  channel cache, and wash;
* cells past the cache cell — ``[consume − t_c, consume + wash)``: they
  are only traversed when the plug finally moves into the destination.

Committed paths update cell weights to their residue's wash time,
steering later tasks onto channels that are cheap to reuse (increasing
path sharing, exactly as the paper argues).

A defensive postponement fallback exists for saturated layouts: when no
admissible plan exists, the task slides forward in 1-second steps until
one does.  With adequately sized grids the fallback rarely fires for the
conflict-aware router; it is the *primary* correction mechanism of the
baseline router in :mod:`repro.route.baseline_router`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import RoutingError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.astar import find_path
from repro.route.grid_graph import DEFAULT_INITIAL_WEIGHT, RoutingGrid
from repro.route.paths import RoutedPath
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from repro.units import Millimetres, Seconds

__all__ = [
    "ROUTE_ENGINES",
    "DEFAULT_ROUTE_ENGINE",
    "RoutingResult",
    "route_tasks",
    "plan_path_slots",
]

#: Step and budget for the defensive postponement fallback.
_POSTPONE_STEP: Seconds = 1.0
_POSTPONE_LIMIT: int = 1000
#: Consult the flat engine's postponement fast-forward only every this
#: many crawl steps — deep crawls amortise its cost, shallow ones skip it.
_ADVANCE_STRIDE: int = 32
#: Compact the flat engine's interval buffers only every this many tasks.
_RETIRE_STRIDE: int = 8

#: Routing engines: ``"flat"`` (integer-indexed arrays and the numpy
#: kernels of :mod:`repro.route.flat` — admissibility masks,
#: unreachability fast-reject, search arena, postponement fast-forward)
#: and ``"reference"`` (the Cell/dict oracle).  Both produce
#: byte-identical paths, slot plans, and metrics; the choice only
#: affects runtime.
ROUTE_ENGINES = ("flat", "reference")
DEFAULT_ROUTE_ENGINE = "flat"


def _make_engine(placement: Placement, initial_weight: float, engine: str):
    """Build the (grid, path finder) pair for *engine*.

    The flat engine is imported lazily so reference-engine runs never
    pay for it (and the numpy import it performs).
    """
    if engine == "flat":
        from repro.route.flat import FlatRoutingState, find_path_flat

        return FlatRoutingState(placement, initial_weight), find_path_flat
    if engine == "reference":
        return RoutingGrid(placement, initial_weight), find_path
    raise RoutingError(
        f"unknown route engine {engine!r}; expected one of {ROUTE_ENGINES}"
    )


def _finalise_grid(result: RoutingResult, grid) -> None:
    """Install the final grid on *result*, converting flat state.

    The flat engine's routing-time state is replayed into a genuine
    :class:`RoutingGrid` so every downstream consumer sees exactly the
    object a reference-engine run would have produced.
    """
    result.grid = (
        grid.to_routing_grid() if hasattr(grid, "to_routing_grid") else grid
    )


@dataclass
class RoutingResult:
    """All routed paths plus the final routing-grid state."""

    placement: Placement
    paths: list[RoutedPath] = field(default_factory=list)
    grid: RoutingGrid | None = None

    def path_for(self, task_id: str) -> RoutedPath:
        for path in self.paths:
            if path.task.task_id == task_id:
                return path
        raise RoutingError(f"no routed path for task {task_id!r}", task_id=task_id)

    @property
    def total_length_cells(self) -> int:
        """Distinct channel cells used by any task — the physical channel
        network's footprint.  Shared segments count once, which is what
        makes path sharing profitable (Table I's channel-length metric)."""
        assert self.grid is not None
        return len(self.grid.used_cells())

    def total_length_mm(self) -> Millimetres:
        assert self.grid is not None
        return self.grid.grid.length_mm(self.total_length_cells)

    def postponements(self) -> dict[tuple[str, str], Seconds]:
        """Per-edge extra delays (empty for a conflict-free routing)."""
        return {
            (p.task.producer, p.task.consumer): p.postponement
            for p in self.paths
            if p.postponement > 0
        }

    @property
    def total_postponement(self) -> Seconds:
        return sum(p.postponement for p in self.paths)


def _transit_slot(task: TransportTask, delay: Seconds) -> TimeSlot:
    """Transit occupation of *task*, shifted by *delay*."""
    start, end = task.transit_occupation
    return TimeSlot(start + delay, end + delay)


def _cache_slot(task: TransportTask, delay: Seconds) -> TimeSlot:
    """Full (cache-cell) occupation of *task*, shifted by *delay*."""
    start, end = task.occupation
    return TimeSlot(start + delay, end + delay)


def plan_path_slots(
    grid: RoutingGrid,
    cells: tuple[Cell, ...],
    task: TransportTask,
    delay: Seconds,
    avoid_for_cache: set[Cell] | None = None,
) -> list[TimeSlot] | None:
    """Assign each path cell its occupation slot (see module docstring).

    The cache cell is chosen as late (destination-most) as possible, but
    cells in *avoid_for_cache* — typically the component port cells,
    which later tasks must cross — are only used as a last resort: a
    plug parked on a port would block every subsequent arrival at that
    component for its whole cache duration.  Returns ``None`` when no
    cell of the path can host the cache plug or some cell is otherwise
    occupied.
    """
    transit = _transit_slot(task, delay)
    cache = _cache_slot(task, delay)
    travel = task.arrive - task.depart
    tail = TimeSlot(
        max(task.depart + delay, task.consume + delay - travel),
        cache.end,
    )
    avoid = avoid_for_cache or set()
    candidate_order = [
        index
        for index in range(len(cells) - 1, -1, -1)
        if cells[index] not in avoid
    ] + [
        index
        for index in range(len(cells) - 1, -1, -1)
        if cells[index] in avoid
    ]
    for index in candidate_order:
        if not grid.is_free(cells[index], cache):
            continue
        slots: list[TimeSlot] = []
        feasible = True
        for position, cell in enumerate(cells):
            if position < index:
                slot = transit
            elif position == index:
                slot = cache
            else:
                slot = tail
            if position != index and not grid.is_free(cell, slot):
                feasible = False
                break
            slots.append(slot)
        if feasible:
            return slots
    return None


def _route_self_loop(
    grid: RoutingGrid, ports: list[Cell], slot: TimeSlot
) -> tuple[Cell, ...] | None:
    """Path for a task whose source and destination coincide (an evicted
    fluid cached beside, and returning to, its own component): occupy one
    nearby channel cell for the cache duration.

    Port cells themselves are used only as a last resort — a plug parked
    on a port blocks every later arrival at the component — so free
    non-port neighbours of the ports are preferred.
    """
    port_set = set(ports)
    neighbourhood: list[Cell] = []
    seen: set[Cell] = set()
    for port in ports:
        for cell in port.neighbours():
            if cell not in seen and cell not in port_set and grid.is_routable(cell):
                seen.add(cell)
                neighbourhood.append(cell)
    for candidates in (neighbourhood, ports):
        free = [cell for cell in candidates if grid.is_free(cell, slot)]
        if free:
            best = min(free, key=lambda c: (grid.weight(c), c.x, c.y))
            return (best,)
    return None


def route_tasks(
    placement: Placement,
    tasks: list[TransportTask],
    initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    instrumentation: Instrumentation | None = None,
    engine: str = DEFAULT_ROUTE_ENGINE,
) -> RoutingResult:
    """Route *tasks* (Algorithm 2, lines 9–18).

    Tasks are processed in non-decreasing start time (the caller's list
    order is re-sorted defensively).  Raises :class:`RoutingError` when
    even the postponement fallback cannot realise a task.

    *engine* picks the routing core (``"flat"`` or ``"reference"``,
    see :data:`ROUTE_ENGINES`); the returned result is byte-identical
    either way.

    *instrumentation* receives per-task ``route.task`` events plus the
    ``route.tasks_routed`` / ``route.self_loops`` /
    ``route.conflict_retries`` / ``route.postponements`` counters (and
    the A* search statistics via the engine's path finder).
    """
    grid, finder = _make_engine(placement, initial_weight, engine)
    # Engines exposing advance_delay (flat) can prove a span of
    # postponement retries futile — the occupancy flags the failing
    # attempt evaluated are unchanged across it — and let the crawl
    # jump.  The retry counter is bumped by the skipped step count, so
    # counter totals match the plain crawl exactly.
    advance = getattr(grid, "advance_delay", None)
    result = RoutingResult(placement=placement, grid=None)
    ordered = sorted(tasks, key=lambda t: (t.depart, t.task_id))
    # Engines exposing retire_intervals (flat) can drop committed
    # intervals that end before every conflict window any remaining
    # task can ever query — the suffix-minimum of the transit starts
    # bounds those windows from below (delays only push them later).
    # Masks, and therefore paths, are identical with or without this.
    retire = getattr(grid, "retire_intervals", None)
    retire_bounds: list[float] = []
    if retire is not None:
        low = float("inf")
        for task in reversed(ordered):
            low = min(low, task.transit_occupation[0])
            retire_bounds.append(low)
        retire_bounds.reverse()
    # Ports are pure geometry; compute them once per component instead
    # of once per task endpoint.
    port_cache = {
        cid: placement.ports(cid) for cid in placement.components()
    }
    all_ports = {cell for ports in port_cache.values() for cell in ports}
    for task_index, task in enumerate(ordered):
        if retire is not None and task_index % _RETIRE_STRIDE == 0:
            # Any valid bound keeps masks identical; compacting every
            # few tasks captures nearly all of the win at a fraction of
            # the compaction cost.
            retire(retire_bounds[task_index])
        sources = port_cache[task.src_component]
        targets = port_cache[task.dst_component]
        delay = 0.0
        cells: tuple[Cell, ...] | None = None
        slots: list[TimeSlot] | None = None
        step_index = 0
        while step_index < _POSTPONE_LIMIT:
            delay = step_index * _POSTPONE_STEP
            if task.src_component == task.dst_component:
                cells = _route_self_loop(grid, sources, _cache_slot(task, delay))
                slots = [_cache_slot(task, delay)] if cells else None
            else:
                cells = finder(
                    grid,
                    sources,
                    targets,
                    _transit_slot(task, delay),
                    instrumentation=instrumentation,
                )
                slots = (
                    plan_path_slots(
                        grid, cells, task, delay, avoid_for_cache=all_ports
                    )
                    if cells is not None
                    else None
                )
            if slots is not None:
                break
            skip = 1
            if (
                advance is not None
                and step_index
                and step_index % _ADVANCE_STRIDE == 0
            ):
                # Consult the fast-forward only once the crawl is deep:
                # on dense occupancies some flag flips almost every step
                # (the hint is 1) and shallow crawls would pay its cost
                # for nothing, while a crawl heading for the postponement
                # budget gets rescued every stride.
                hint = advance(
                    task, delay, horizon=_POSTPONE_LIMIT - step_index,
                    instrumentation=instrumentation,
                )
                if hint is not None and hint > 1:
                    skip = min(hint, _POSTPONE_LIMIT - step_index)
            step_index += skip
            if instrumentation is not None:
                instrumentation.count("route.conflict_retries", skip)
        if cells is None or slots is None:
            raise RoutingError(
                f"task {task.task_id} ({task.src_component} -> "
                f"{task.dst_component}) could not be routed within the "
                f"postponement budget",
                task_id=task.task_id,
            )
        grid.commit_path(cells, task.task_id, task.fluid, slots, task.wash_time)
        result.paths.append(
            RoutedPath(
                task=task,
                cells=cells,
                slot=_cache_slot(task, delay),
                postponement=delay,
            )
        )
        if instrumentation is not None:
            instrumentation.count("route.tasks_routed")
            if task.src_component == task.dst_component:
                instrumentation.count("route.self_loops")
            if delay > 0:
                # The 1-second-step fallback fired: record it with the
                # slide distance so perf artifacts can show when the
                # fallback — not A* — is eating routing time.
                instrumentation.count("route.postponements")
                instrumentation.event(
                    "route.postponement", task_id=task.task_id, slide=delay
                )
            instrumentation.event(
                "route.task",
                task_id=task.task_id,
                cells=len(cells),
                postponement=delay,
            )
    _finalise_grid(result, grid)
    return result
