"""Construction-by-correction routing — the baseline's router.

Section V describes BA's physical stage as "generating an initial
solution and then correct[ing] those unsatisfactory component
positions/routing paths sequentially".  The router here mirrors that:

1. **Construction** — every task gets a plain shortest path (uniform
   cell cost, no wash-weight guidance, occupation slots ignored).
2. **Correction** — tasks are revisited in start order; when a task's
   occupation slots overlap already-committed slots on shared cells,
   the path is re-routed around the conflict (still with uniform cost —
   BA never uses the wash-time weights that let the proposed router
   share cheap channels), and when no conflict-free detour exists the
   task is *postponed* until its slots fit.

The postponements are exactly the delays the paper attributes to BA in
Section II-C.2 (e.g. the shared segment in Fig. 4(a) forcing the
``o4→o6`` transport to wait for a 10 s wash).  They are returned per
edge so :func:`repro.schedule.retiming.retime_with_delays` can propagate
them into the baseline's final execution time.
"""

from __future__ import annotations

from repro.errors import RoutingError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.astar import find_path
from repro.route.grid_graph import RoutingGrid
from repro.route.paths import RoutedPath
from repro.route.router import (
    DEFAULT_ROUTE_ENGINE,
    ROUTE_ENGINES,
    RoutingResult,
    _ADVANCE_STRIDE,
    _RETIRE_STRIDE,
    _cache_slot,
    _finalise_grid,
    _transit_slot,
    plan_path_slots,
)
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask

__all__ = ["route_tasks_baseline"]

#: Zero-length slot for geometry-only searches (conflicts with nothing).
_GEOMETRY_PROBE = TimeSlot(0.0, 0.0)


def _shortest_path(
    grid: RoutingGrid,
    sources: list[Cell],
    targets: list[Cell],
    instrumentation: Instrumentation | None = None,
) -> tuple[Cell, ...] | None:
    """Uniform-cost shortest path ignoring slots and weights.

    Implemented by running the shared A* on a throwaway zero-weight grid
    view with an always-empty slot: geometry only.
    """
    probe = TimeSlot(0.0, 0.0)  # zero-length slot conflicts with nothing
    return find_path(
        _ZeroWeightView(grid), sources, targets, probe,
        instrumentation=instrumentation,
    )


class _ZeroWeightView:
    """Read-only adapter hiding weights and slots from the A* search."""

    def __init__(self, grid: RoutingGrid):
        self._grid = grid

    def is_routable(self, cell: Cell) -> bool:
        return self._grid.is_routable(cell)

    def is_free(self, cell: Cell, _slot: TimeSlot) -> bool:
        return self._grid.is_routable(cell)

    def weight(self, _cell: Cell) -> float:
        return 0.0


class _UniformCostView:
    """Adapter keeping occupation checks but hiding wash-time weights.

    Used by BA's correction detours: conflict-aware, but with none of
    the weight guidance that makes the proposed router share
    cheap-to-wash channels."""

    def __init__(self, grid: RoutingGrid):
        self._grid = grid

    def is_routable(self, cell: Cell) -> bool:
        return self._grid.is_routable(cell)

    def is_free(self, cell: Cell, slot: TimeSlot) -> bool:
        return self._grid.is_free(cell, slot)

    def weight(self, _cell: Cell) -> float:
        return 0.0


def route_tasks_baseline(
    placement: Placement,
    tasks: list[TransportTask],
    instrumentation: Instrumentation | None = None,
    engine: str = DEFAULT_ROUTE_ENGINE,
) -> RoutingResult:
    """Route *tasks* with the construction-by-correction strategy.

    *engine* picks the routing core (``"flat"`` or ``"reference"``,
    see :data:`~repro.route.router.ROUTE_ENGINES`); results are
    byte-identical either way.

    *instrumentation* receives ``route.tasks_routed``,
    ``route.conflict_retries`` (postponement steps),
    ``route.postponements`` (tasks the fallback actually delayed, with
    the slide distance), and ``route.reroutes`` (accepted correction
    detours), plus the A* statistics of every search.
    """
    if engine == "flat":
        from repro.route.flat import FlatRoutingState, find_path_flat

        grid = FlatRoutingState(placement, initial_weight=0.0)

        def shortest(sources, targets):
            # Geometry only: weights and occupation slots both hidden,
            # like the reference _ZeroWeightView.
            return find_path_flat(
                grid, sources, targets, _GEOMETRY_PROBE,
                instrumentation=instrumentation,
                use_weights=False, use_slots=False,
            )

        def detour(sources, targets, slot):
            # Occupation-aware but uniform-cost, like _UniformCostView.
            return find_path_flat(
                grid, sources, targets, slot,
                instrumentation=instrumentation,
                use_weights=False, use_slots=True,
            )

    elif engine == "reference":
        grid = RoutingGrid(placement, initial_weight=0.0)

        def shortest(sources, targets):
            return _shortest_path(grid, sources, targets, instrumentation)

        def detour(sources, targets, slot):
            return find_path(
                _UniformCostView(grid), sources, targets, slot,
                instrumentation=instrumentation,
            )

    else:
        raise RoutingError(
            f"unknown route engine {engine!r}; expected one of {ROUTE_ENGINES}"
        )
    # The flat engine's postponement fast-forward (see
    # repro.route.flat): skip retry delays whose occupancy flags
    # provably match the failing attempt's, bumping the retry counter
    # by the skipped step count.
    advance = getattr(grid, "advance_delay", None)
    # Interval retirement (flat): drop committed intervals that end
    # before every conflict window the remaining tasks can query — see
    # route_tasks; correction detours probe transit windows only, so
    # the same suffix-minimum bound applies.
    retire = getattr(grid, "retire_intervals", None)
    result = RoutingResult(placement=placement, grid=None)
    ordered = sorted(tasks, key=lambda t: (t.depart, t.task_id))
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
            retire(retire_bounds[task_index])
        sources = port_cache[task.src_component]
        targets = port_cache[task.dst_component]
        if task.src_component == task.dst_component:
            # Self-loop: take the first port regardless of occupation,
            # then correct below like any other path.
            cells: tuple[Cell, ...] | None = (sources[0],)
        else:
            cells = shortest(sources, targets)
        if cells is None:
            raise RoutingError(
                f"task {task.task_id} ({task.src_component} -> "
                f"{task.dst_component}) has no geometric path",
                task_id=task.task_id,
            )
        # Correction: when the constructed path conflicts, first try a
        # detour (uniform cost, occupation-aware), then postpone in
        # 1-second steps until a feasible plan exists.
        delay = 0.0
        crawl_steps = 0
        slots = plan_path_slots(
            grid, cells, task, delay, avoid_for_cache=all_ports
        )
        while slots is None:
            if task.src_component != task.dst_component:
                rerouted = detour(sources, targets, _transit_slot(task, delay))
                if rerouted is not None:
                    candidate = plan_path_slots(
                        grid, rerouted, task, delay, avoid_for_cache=all_ports
                    )
                    if candidate is not None:
                        cells = rerouted
                        slots = candidate
                        if instrumentation is not None:
                            instrumentation.count("route.reroutes")
                        break
            skip = 1
            if (
                advance is not None
                and crawl_steps
                and crawl_steps % _ADVANCE_STRIDE == 0
            ):
                # Deep crawls only — see route_tasks: on dense
                # occupancies the hint is almost always 1 and paying for
                # it every step costs more than the crawl itself.
                hint = advance(task, delay, instrumentation=instrumentation)
                if hint is not None and hint > 1:
                    skip = hint
            crawl_steps += skip
            delay += skip * 1.0
            if instrumentation is not None:
                instrumentation.count("route.conflict_retries", skip)
            slots = plan_path_slots(
                grid, cells, task, delay, avoid_for_cache=all_ports
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
            if delay > 0:
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
