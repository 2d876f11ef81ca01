"""Flat array-backed routing engine (the ``flat`` route engine).

The reference engine (:mod:`repro.route.astar` over
:class:`~repro.route.grid_graph.RoutingGrid`) keeps its state in
``dict``/``set`` structures keyed by :class:`~repro.place.grid.Cell`
tuples and allocates a 4-tuple of neighbour cells on every A*
expansion.  This module is the same algorithm on flat integer-indexed
state:

* a cell is the integer ``y * width + x``;
* the obstacle mask is a :class:`bytearray`, cell weights a plain
  ``list[float]`` — one indexed load instead of a hash probe per
  Eq. 5 term;
* per-cell occupation slots live in :class:`FlatOccupancy`, an
  interval index of parallel sorted ``(starts, ends)`` float lists per
  cell, replacing :class:`~repro.route.timeslots.TimeSlotSet` object
  traffic on the point queries (``is_free``, the commit check and the
  goal-slot test);
* neighbours come from a table precomputed once per grid — no
  ``Cell.neighbours()`` tuple construction per expansion;
* the A* heuristic is a distance map per target set (min Manhattan
  distance, one vectorized reduction), memoized on the state.

The dominant costs of the search sit in numpy kernels:

* **Admissibility masks** — instead of a per-neighbour interval-index
  probe, each search builds one byte mask of inadmissible cells
  (blocked ∪ slot-conflicting): two vectorized comparisons over
  preallocated interval buffers (appended on commit, compacted by
  :meth:`FlatRoutingState.retire_intervals` once an interval can never
  conflict again) flag the conflicting intervals, a scatter maps them
  onto cells, and the expansion loop is then a single byte load per
  neighbour.  The mask evaluates exactly the
  :meth:`FlatOccupancy.conflicts` conditions (interval length, start,
  end against ``EPSILON``), element-wise.
* **Unreachability fast-reject** — on saturated grids most
  conflict-aware searches *fail* (the postponement crawl probes the
  same congested region again and again), and a failing A* must exhaust
  its entire reachable region before giving up.  But failure is
  decidable without the heap or the cost arithmetic: A* can only
  traverse admissible cells, so the search provably returns ``None``
  unless an admissible target is 4-connected to an admissible source.
  Port-level checks (no admissible source, or no admissible target)
  answer most rejects for free; the rest run an early-exit depth-first
  sweep over the mask, which stops at the first admissible target
  reached and, when there is none, only visits the sources'
  congestion-boxed free component.  Only searches that *can* succeed
  pay for the exact A* — which then returns the byte-identical path.
  Fast-rejected searches report ``expanded=0`` in the A* statistics;
  every other observable (paths, slots, postponements) is untouched.
* **Search arena** — the closed/cost/parent arrays are preallocated
  once per state and reset by slice assignment, instead of being
  rebuilt per search — and only once a search has survived the
  fast-reject.  Port index tuples and their target byte masks are
  memoized per port list (the routers reuse one list per component).
* **Postponement fast-forward** — on sparse occupancies the routers'
  1-second postponement crawl re-attempts a failing task against an
  *unchanged* occupancy, sliding only the task's own fixed-shape
  windows.  Each stored interval's conflict flag conjoins two float
  comparisons, each a monotone step function of the delay (the window
  start/end grow monotonically with the delay, IEEE float addition of
  a fixed addend preserves order, so each comparison flips at most
  once), and "some comparison differs from its state at the current
  delay" is therefore a monotone predicate —
  :meth:`FlatRoutingState.advance_delay` binary-searches the first
  integer step at which that comparison signature changes and tells
  the router to skip straight to it.  Delays in between provably
  produce the identical flag state, hence the identical search and
  slot-plan outcome, so path identity (and the
  ``route.conflict_retries`` totals, which the router bumps by the
  skipped step count) is preserved exactly.  On dense occupancies some
  flag flips almost every step; a one-probe early exit keeps the
  mechanism near-free there.

The engine is **bit-compatible** with the reference: identical paths,
slot plans and postponements, and — because committed paths are
replayed through :meth:`FlatRoutingState.to_routing_grid` — an
identical final :class:`~repro.route.grid_graph.RoutingGrid` for the
metrics, checker, wash, and visualisation stages.  The parity tests in
``tests/route/test_flat_parity.py`` pin path-identity across every
benchmark and both flows.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from time import perf_counter
from typing import Iterable

import numpy as np

from repro.assay.fluids import Fluid
from repro.errors import RoutingError, ValidationError
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell
from repro.place.placement import Placement
from repro.route.astar import _flush_search_stats
from repro.route.grid_graph import DEFAULT_INITIAL_WEIGHT, RoutingGrid
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from repro.units import EPSILON, Seconds

__all__ = [
    "FlatOccupancy",
    "FlatRoutingState",
    "find_path_flat",
    "static_tables",
]

#: Default fast-forward horizon, matching the routers' postponement
#: budget (:data:`repro.route.router._POSTPONE_LIMIT`).
_DEFAULT_HORIZON = 1000


#: Per-grid-signature memo of the immutable search tables.  The tie and
#: neighbour tables depend only on ``(width, height)``, yet PR 5 rebuilt
#: both on every :class:`FlatRoutingState` construction — once per SA
#: restart and once per bench repeat.  The memo makes repeated searches
#: on an unchanged grid signature skip the precompute entirely; entries
#: are tiny (a few KB per distinct grid size) and grid sizes are drawn
#: from the benchmark registry, so the cache stays bounded.
_STATIC_TABLES: dict[
    tuple[int, int], tuple[list[int], list[tuple[int, ...]]]
] = {}


def static_tables(
    width: int, height: int
) -> tuple[list[int], list[tuple[int, ...]]]:
    """The ``(ties, neighbours)`` tables of a ``width x height`` grid.

    ``ties[i]`` is the heap tie-break key replicating the reference's
    ``(x, y)`` lexicographic order (``x * height + y``); ``neighbours[i]``
    lists the valid orthogonal neighbours of cell ``i`` in the reference
    ``Cell.neighbours()`` order (E, W, S, N) with off-grid entries
    dropped.  Memoized per grid signature — callers must treat the
    returned lists as immutable.
    """
    key = (width, height)
    cached = _STATIC_TABLES.get(key)
    if cached is not None:
        return cached
    n = width * height
    ties = [(i % width) * height + (i // width) for i in range(n)]
    neighbours: list[tuple[int, ...]] = []
    for i in range(n):
        x = i % width
        y = i // width
        around: list[int] = []
        if x + 1 < width:
            around.append(i + 1)
        if x > 0:
            around.append(i - 1)
        if y + 1 < height:
            around.append(i + width)
        if y > 0:
            around.append(i - width)
        neighbours.append(tuple(around))
    _STATIC_TABLES[key] = (ties, neighbours)
    return ties, neighbours


def _task_windows(
    task: TransportTask, delay: Seconds
) -> tuple[tuple[float, float], ...]:
    """The three occupation windows an attempt at *delay* checks.

    Mirrors :func:`repro.route.router._transit_slot`,
    :func:`~repro.route.router._cache_slot`, and the tail slot built in
    :func:`~repro.route.router.plan_path_slots` — float for float, so
    the fast-forward's flag evaluation sees exactly the windows the
    real attempt would.
    """
    ts, te = task.transit_occupation
    os_, oe = task.occupation
    travel = task.arrive - task.depart
    tail_start = max(task.depart + delay, task.consume + delay - travel)
    return (
        (ts + delay, te + delay),
        (os_ + delay, oe + delay),
        (tail_start, oe + delay),
    )


class FlatOccupancy:
    """Per-cell occupation intervals over flat cell indices.

    Semantically identical to one :class:`~repro.route.timeslots.
    TimeSlotSet` per cell — same half-open ``[start, end)`` intervals,
    same ``EPSILON`` slack at the joints, zero-length slots conflict
    with nothing — but stored as two parallel sorted float lists per
    *touched* cell.  Untouched cells cost one ``is None`` check.  It
    answers the point queries (``is_free``, the commit check, the
    goal-slot test); searches read the vectorized admissibility mask of
    :meth:`FlatRoutingState._admissible_status` instead.
    """

    __slots__ = ("starts", "ends")

    def __init__(self, cell_count: int) -> None:
        self.starts: list[list[float] | None] = [None] * cell_count
        self.ends: list[list[float] | None] = [None] * cell_count

    def conflicts(self, index: int, cs: float, ce: float) -> bool:
        """Whether ``[cs, ce)`` overlaps any stored interval of *index*.

        Mirrors :meth:`TimeSlotSet.conflicts_with` exactly: a
        zero-length candidate (or stored interval) overlaps nothing,
        and the only candidates for overlap are the predecessor by
        start plus successors starting before the candidate ends.
        """
        if ce - cs <= EPSILON:
            return False
        starts = self.starts[index]
        if starts is None:
            return False
        ends = self.ends[index]
        i = bisect_left(starts, cs)
        if i:
            s = starts[i - 1]
            e = ends[i - 1]
            if e - s > EPSILON and s < ce - EPSILON and cs < e - EPSILON:
                return True
        m = len(starts)
        while i < m:
            s = starts[i]
            if s >= ce - EPSILON:
                break
            e = ends[i]
            if e - s > EPSILON and cs < e - EPSILON:
                return True
            i += 1
        return False

    def add(self, index: int, cs: float, ce: float) -> None:
        """Insert ``[cs, ce)``; raises :class:`ValidationError` on overlap."""
        if self.conflicts(index, cs, ce):
            raise ValidationError(
                f"slot [{cs}, {ce}) overlaps an existing occupation"
            )
        starts = self.starts[index]
        if starts is None:
            self.starts[index] = [cs]
            self.ends[index] = [ce]
            return
        i = bisect_left(starts, cs)
        starts.insert(i, cs)
        self.ends[index].insert(i, ce)  # type: ignore[union-attr]

    def intervals(self, index: int) -> list[tuple[float, float]]:
        """The stored ``(start, end)`` pairs of *index*, sorted by start."""
        starts = self.starts[index]
        if starts is None:
            return []
        ends = self.ends[index]
        return list(zip(starts, ends))  # type: ignore[arg-type]


class FlatRoutingState:
    """Routing-time state of the flat engine.

    Exposes the same Cell-based query/commit surface as
    :class:`~repro.route.grid_graph.RoutingGrid` — ``is_routable`` /
    ``is_free`` / ``weight`` / ``commit_path`` — so the slot-planning
    and self-loop code of :mod:`repro.route.router` runs unchanged on
    either engine, while :func:`find_path_flat` reads the flat arrays
    directly.  Committed paths are logged; :meth:`to_routing_grid`
    replays the log through the reference grid's own ``commit_path`` so
    the result handed to metrics/checker/viz is *the same object kind
    in the same state* as a reference-engine run.

    Every committed occupation slot is also appended to a flat interval
    log (the postponement fast-forward's exact input) and to the numpy
    interval buffers the admissibility masks are built from.
    """

    def __init__(
        self,
        placement: Placement,
        initial_weight: float = DEFAULT_INITIAL_WEIGHT,
    ) -> None:
        if initial_weight < 0:
            raise RoutingError(
                f"initial weight must be >= 0, got {initial_weight}"
            )
        self.placement = placement
        self.grid = placement.grid
        self.initial_weight = initial_weight
        width = self.grid.width
        height = self.grid.height
        self.width = width
        self.height = height
        n = width * height
        blocked = bytearray(n)
        for cell in placement.occupied_cells():
            blocked[cell.y * width + cell.x] = 1
        self.blocked = blocked
        self.weights: list[float] = [float(initial_weight)] * n
        self.occupancy = FlatOccupancy(n)
        #: Heap tie-break keys and neighbour table, shared across every
        #: state with the same grid signature (see :func:`static_tables`).
        self.ties, self.neighbours = static_tables(width, height)
        #: Distance-map heuristic memo: target-index tuple -> distance
        #: list.  The heuristic ignores occupation slots (it is a lower
        #: bound over geometry only), so entries stay valid across path
        #: commits; the obstacle mask is fixed at construction, so the
        #: cache lives as long as the state.  If a subclass ever mutates
        #: ``blocked`` it must call :meth:`invalidate_heuristics`.
        self._dist_cache: dict[tuple[int, ...], list[int]] = {}
        indices = np.arange(n, dtype=np.int64)
        self._np_xs = indices % width
        self._np_ys = indices // width
        self._log: list[
            tuple[tuple[Cell, ...], str, Fluid, tuple[TimeSlot, ...], Seconds]
        ] = []
        #: Flat log of every committed occupation interval, appended in
        #: commit order; the numpy mirrors the fast-forward reads are
        #: rebuilt lazily per epoch (one epoch per commit).
        self._int_cells: list[int] = []
        self._int_starts: list[float] = []
        self._int_ends: list[float] = []
        self._epoch = 0
        self._arrays_epoch = -1
        self._arrays: tuple | None = None
        #: Immutable obstacle mask as bytes — the admissibility mask of
        #: every slot-free search, and the base layer of every other.
        self._blocked_bytes = bytes(blocked)
        self._blocked_bool = (
            np.frombuffer(self._blocked_bytes, dtype=np.uint8) != 0
        )
        # Interval buffers for the vectorized mask build (see
        # _admissible_status): preallocated, grown by doubling, appended
        # by commit_path.  Zero-length slots are dropped at append time
        # (they conflict with nothing), and ends are stored with the
        # EPSILON already subtracted — the mask build is then three
        # elementwise ops over warm buffers with no per-query
        # list-to-array conversion.
        self._buf_count = 0
        self._buf_capacity = 1024
        self._buf_cells = np.empty(self._buf_capacity, dtype=np.intp)
        self._buf_starts = np.empty(self._buf_capacity, dtype=np.float64)
        self._buf_ends_eps = np.empty(self._buf_capacity, dtype=np.float64)
        self._flags_a = np.empty(self._buf_capacity, dtype=bool)
        self._flags_b = np.empty(self._buf_capacity, dtype=bool)
        self._conflict_scratch = np.empty(n, dtype=bool)
        self._mask_scratch = np.empty(n, dtype=bool)
        self._mask_memo: tuple[float, float, int, bytes] | None = None
        #: Bounds- and obstacle-filtered port indices, keyed by the
        #: identity of the port list the router passes in.  The routers
        #: compute each component's ports once and reuse the same list
        #: for every task touching the component, so identity is a
        #: stable key for the duration of a routing run; the cached
        #: entry keeps a reference to the list so the id cannot be
        #: recycled while the cache lives.
        self._port_filter_cache: dict[int, tuple[object, tuple[int, ...]]] = {}
        #: Byte masks with 1 at each port index, keyed by the filtered
        #: index tuple — the reachability fast-reject's target test and
        #: the A* goal test both read them (read-only, so sharing one
        #: bytearray per port set is safe).
        self._port_bits_cache: dict[tuple[int, ...], bytearray] = {}
        # Search arena: reset by slice assignment per search instead of
        # reallocating.  The templates hold the reset values.
        inf = float("inf")
        self._inf = inf
        self._inf_list: list[float] = [inf] * n
        self._neg1_list: list[int] = [-1] * n
        self._zero_weights: list[float] = [0.0] * n
        self._acc: list[float] = [inf] * n
        self._parent: list[int] = [-1] * n
        self._status = bytearray(n)

    # ------------------------------------------------------------------
    # Heuristic cache
    # ------------------------------------------------------------------
    def invalidate_heuristics(self) -> None:
        """Drop the memoized distance maps (after an obstacle change)."""
        self._dist_cache.clear()

    def distance_map(
        self,
        target_indices: tuple[int, ...],
        instrumentation: Instrumentation | None = None,
    ) -> list[int]:
        """Min Manhattan distance from every cell to the target set.

        The reference heuristic ignores obstacles (it is a lower bound),
        so this is a pure geometric distance map: one vectorized
        min-reduction over the targets, memoized per target set.  On
        the scale tier the same few target sets (one per component's
        port group) recur across hundreds of searches — Scale200 builds
        1.8k distance maps over only ~34 distinct target sets.  A cache
        hit bumps the ``astar.heuristic_cache_hits`` counter.
        """
        key = tuple(target_indices)
        dist = self._dist_cache.get(key)
        if dist is None:
            width = self.width
            xs = self._np_xs
            ys = self._np_ys
            best = None
            for index in key:
                d = abs(xs - (index % width)) + abs(ys - (index // width))
                if best is None:
                    best = d
                else:
                    np.minimum(best, d, out=best)
            assert best is not None
            dist = best.tolist()
            self._dist_cache[key] = dist
        elif instrumentation is not None:
            instrumentation.count("astar.heuristic_cache_hits")
        return dist

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def index(self, cell: Cell) -> int:
        return cell.y * self.width + cell.x

    def cell(self, index: int) -> Cell:
        return Cell(index % self.width, index // self.width)

    # ------------------------------------------------------------------
    # RoutingGrid-compatible queries (the cold, Cell-based surface)
    # ------------------------------------------------------------------
    def is_routable(self, cell: Cell) -> bool:
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        return not self.blocked[y * self.width + x]

    def weight(self, cell: Cell) -> float:
        return self.weights[cell.y * self.width + cell.x]

    def is_free(self, cell: Cell, slot: TimeSlot) -> bool:
        x, y = cell
        if not (0 <= x < self.width and 0 <= y < self.height):
            return False
        index = y * self.width + x
        if self.blocked[index]:
            return False
        return not self.occupancy.conflicts(index, slot.start, slot.end)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def commit_path(
        self,
        cells: tuple[Cell, ...],
        task_id: str,
        fluid: Fluid,
        slots: list[TimeSlot],
        wash_time: Seconds,
    ) -> None:
        """Claim *cells* for a routed task (mirror of the reference)."""
        if len(slots) != len(cells):
            raise RoutingError(
                f"task {task_id}: {len(slots)} slots for {len(cells)} cells",
                task_id=task_id,
            )
        for cell, slot in zip(cells, slots):
            if not self.is_free(cell, slot):
                raise RoutingError(
                    f"task {task_id}: cell {cell} is not free for slot "
                    f"[{slot.start}, {slot.end})",
                    task_id=task_id,
                )
        width = self.width
        occupancy = self.occupancy
        weights = self.weights
        for cell, slot in zip(cells, slots):
            index = cell.y * width + cell.x
            start = slot.start
            end = slot.end
            occupancy.add(index, start, end)
            weights[index] = wash_time
            self._int_cells.append(index)
            self._int_starts.append(start)
            self._int_ends.append(end)
            if end - start > EPSILON:  # zero-length slots conflict with nothing
                self._buffer_interval(index, start, end)
        self._epoch += 1
        self._log.append((cells, task_id, fluid, tuple(slots), wash_time))

    def _buffer_interval(self, index: int, start: float, end: float) -> None:
        """Append one interval to the mask buffers, doubling when full."""
        count = self._buf_count
        if count == self._buf_capacity:
            self._buf_capacity *= 2
            for name in (
                "_buf_cells", "_buf_starts", "_buf_ends_eps",
                "_flags_a", "_flags_b",
            ):
                grown = np.empty(
                    self._buf_capacity, dtype=getattr(self, name).dtype
                )
                grown[:count] = getattr(self, name)
                setattr(self, name, grown)
        self._buf_cells[count] = index
        self._buf_starts[count] = start
        self._buf_ends_eps[count] = end - EPSILON
        self._buf_count = count + 1

    def retire_intervals(self, bound: Seconds) -> None:
        """Drop buffered intervals that can never conflict again.

        *bound* must be a lower bound on the start of every future
        conflict window this state will be asked about.  The routers
        process tasks in depart order and query only transit windows,
        whose starts never fall below the suffix-minimum of the
        remaining tasks' transit starts — so an interval whose
        (epsilon-adjusted) end is at or before *bound* fails the
        ``end > window_start`` conflict condition of every future query
        and can be dropped from the mask buffers outright.  Masks are
        bit-identical with or without retirement; only the number of
        intervals each vectorized pass touches shrinks (~3x on
        Scale200, where most of the log is history by mid-run).

        The full interval log (``_int_cells`` et al.) is untouched —
        :meth:`advance_delay` keeps evaluating exact flags over
        everything ever committed.
        """
        count = self._buf_count
        if not count:
            return
        keep = self._buf_ends_eps[:count] > bound
        kept = int(keep.sum())
        if kept == count:
            return
        self._buf_cells[:kept] = self._buf_cells[:count][keep]
        self._buf_starts[:kept] = self._buf_starts[:count][keep]
        self._buf_ends_eps[:kept] = self._buf_ends_eps[:count][keep]
        self._buf_count = kept

    def to_routing_grid(self) -> RoutingGrid:
        """Replay the commit log into a reference grid.

        Uses :meth:`RoutingGrid._replay_log`, which reproduces the
        state repeated :meth:`RoutingGrid.commit_path` calls would have
        built — weights, slot sets, and usage history in identical dict
        insertion order, so every downstream consumer (metrics replay,
        checker, fault harness, SVG/ASCII rendering) is engine-blind —
        without paying per-slot validation for commits the live engine
        already validated.
        """
        grid = RoutingGrid(self.placement, self.initial_weight)
        grid._replay_log(self._log)
        return grid

    # ------------------------------------------------------------------
    # Vectorized admissibility
    # ------------------------------------------------------------------
    def _admissible_status(self, cs: float, ce: float, check_slot: bool) -> bytes:
        """Bytes where nonzero = inadmissible (blocked or conflicting).

        Element-wise identical to ``blocked[i] or occupancy.conflicts(i,
        cs, ce)``: an interval conflicts with ``[cs, ce)`` iff it is
        longer than ``EPSILON``, starts before ``ce - EPSILON``, and
        ends after ``cs + EPSILON`` — the exact float comparisons of
        :meth:`FlatOccupancy.conflicts`.

        Every query is one vectorized full pass over the preallocated
        interval buffers (appended by :meth:`commit_path`): two
        elementwise comparisons produce the conflicting-interval flags,
        a fancy-index assignment scatters them onto the cells, and an
        ``or`` with the obstacle mask yields the admissibility bytes.
        On realistic logs (a few thousand intervals) this costs single-
        digit microseconds — flatly, with no window-locality assumption
        for a crawl to break.  A one-entry memo keyed by
        ``(window, epoch)`` catches back-to-back identical queries.
        """
        count = self._buf_count
        if not check_slot or not count:
            return self._blocked_bytes
        memo = self._mask_memo
        if (
            memo is not None
            and memo[0] == cs and memo[1] == ce and memo[2] == self._epoch
        ):
            return memo[3]
        flags = self._flags_a[:count]
        other = self._flags_b[:count]
        np.less(self._buf_starts[:count], ce - EPSILON, out=flags)
        np.greater(self._buf_ends_eps[:count], cs, out=other)
        np.logical_and(flags, other, out=flags)
        conflict = self._conflict_scratch
        conflict[:] = False
        conflict[self._buf_cells[:count][flags]] = True
        mask = np.logical_or(conflict, self._blocked_bool, out=self._mask_scratch)
        result = mask.tobytes()
        self._mask_memo = (cs, ce, self._epoch, result)
        return result

    # ------------------------------------------------------------------
    # Postponement fast-forward
    # ------------------------------------------------------------------
    def _interval_arrays(self):
        """Numpy mirrors of the interval log for the current epoch.

        Returns ``(cells, starts, ends_eps, len_ok, false_flags)`` where
        ``ends_eps`` is ``ends - EPSILON`` (the float every scalar
        conflict check subtracts) and ``len_ok`` masks intervals longer
        than ``EPSILON`` — zero-length slots conflict with nothing.
        """
        if self._arrays_epoch != self._epoch:
            cells = np.array(self._int_cells, dtype=np.int64)
            starts = np.array(self._int_starts, dtype=np.float64)
            ends = np.array(self._int_ends, dtype=np.float64)
            self._arrays = (
                cells,
                starts,
                ends - EPSILON,
                (ends - starts) > EPSILON,
                np.zeros(len(cells), dtype=bool),
            )
            self._arrays_epoch = self._epoch
        return self._arrays

    def _window_flags(self, task: TransportTask, delay: Seconds) -> list:
        """Per-interval conflict flags of every window at *delay*."""
        return [
            opened & closing
            for opened, closing in self._window_signature(task, delay)
        ]

    def _window_signature(self, task: TransportTask, delay: Seconds) -> list:
        """Per-window ``(opened, closing)`` comparison vectors at *delay*.

        ``opened[i]`` is the interval-starts-before-window-end
        comparison (monotone False→True in the delay) and ``closing[i]``
        the interval-ends-after-window-start one (monotone True→False);
        a conflict flag is their conjunction.  The signature determines
        the flag state, and — unlike the flags themselves, which can go
        off→on→off as a window slides past an interval — every
        component flips at most once, which is what makes "the
        signature differs from its base state" binary-searchable.
        """
        cells, starts, ends_eps, len_ok, false_flags = self._interval_arrays()
        signature = []
        for ws, we in _task_windows(task, delay):
            if we - ws <= EPSILON:
                # A window's length is delay-invariant, so a degenerate
                # window conflicts with nothing at every delay.
                signature.append((false_flags, false_flags))
            else:
                signature.append((
                    len_ok & (starts < we - EPSILON),
                    len_ok & (ends_eps > ws),
                ))
        return signature

    def advance_delay(
        self,
        task: TransportTask,
        delay: Seconds,
        horizon: int = _DEFAULT_HORIZON,
        instrumentation: Instrumentation | None = None,
    ) -> int | None:
        """Steps (of 1 s) until the occupancy state seen by *task* can
        change, given that the attempt at *delay* just failed.

        Every retry of the postponement crawl evaluates the same
        committed intervals against the task's windows slid by the
        delay; an attempt's outcome is a pure function of the
        per-interval conflict flags.  A flag itself is *not* monotone
        (a window sliding past an interval takes it off→on→off), but
        each of the two float comparisons it conjoins flips at most
        once — so the binary search runs over that comparison
        *signature* (see :meth:`_window_signature`), with exact
        (vectorized) evaluation at each probe.  Signature-identical
        delays have identical flags, so skipped delays provably
        reproduce the failing attempt and the caller may jump straight
        to the returned step count (at worst a conservative stop where
        a comparison flipped without changing any flag).

        Returns a value in ``[1, horizon]`` — *horizon* itself when no
        flag changes within the budget (the remaining retries are all
        provably futile) — or ``None`` when the horizon is too small to
        skip anything.
        """
        if horizon <= 1:
            return None
        if not self._int_cells:
            # Empty occupancy: the failure cannot involve slot
            # conflicts, so no delay can fix it.
            return horizon
        started = perf_counter()
        array_equal = np.array_equal
        base = self._window_signature(task, delay)

        def differs(k: int) -> bool:
            probe = self._window_signature(task, delay + k * 1.0)
            return any(
                not (array_equal(a[0], b[0]) and array_equal(a[1], b[1]))
                for a, b in zip(base, probe)
            )

        if differs(1):
            # Dense-occupancy common case: some interval boundary is
            # crossed on the very next step.  One probe, no search.
            steps = 1
        elif not differs(horizon):
            steps = horizon
        else:
            lo, hi = 2, horizon
            while lo < hi:
                mid = (lo + hi) // 2
                if differs(mid):
                    hi = mid
                else:
                    lo = mid + 1
            steps = lo
        if instrumentation is not None:
            instrumentation.observe(
                "route.advance_seconds", perf_counter() - started
            )
        return steps


def _port_indices(
    grid: FlatRoutingState,
    ports: Iterable[Cell],
    width: int,
    height: int,
    blocked,
) -> tuple[int, ...]:
    """Bounds- and obstacle-filtered flat indices of a port set.

    Pure geometry (the slot mask is applied by the caller), so the
    result is memoized per port-list identity — the routers pass the
    same per-component list for every task, and the cache entry pins
    the list alive, keeping the id stable.  Non-list iterables are
    filtered directly (they may be single-shot generators).
    """
    if not isinstance(ports, (list, tuple)):
        return tuple(
            y * width + x
            for x, y in ports
            if 0 <= x < width and 0 <= y < height
            and not blocked[y * width + x]
        )
    cache = grid._port_filter_cache
    entry = cache.get(id(ports))
    if entry is None or entry[0] is not ports:
        indices = tuple(
            y * width + x
            for x, y in ports
            if 0 <= x < width and 0 <= y < height
            and not blocked[y * width + x]
        )
        cache[id(ports)] = (ports, indices)
        return indices
    return entry[1]


def find_path_flat(
    grid: FlatRoutingState,
    sources: Iterable[Cell],
    targets: Iterable[Cell],
    slot: TimeSlot,
    goal_slot: TimeSlot | None = None,
    instrumentation: Instrumentation | None = None,
    *,
    use_weights: bool = True,
    use_slots: bool = True,
) -> tuple[Cell, ...] | None:
    """Flat-index twin of :func:`repro.route.astar.find_path`.

    Same Eq. 5 search, same cost arithmetic, same ``(f, (x, y))`` heap
    order (encoded as ``x * height + y``) — returning the identical
    cell path or ``None``.  The admissibility test is precomputed as
    one byte mask, provably failing searches are rejected before the
    heap (see the module docstring), and the per-search arrays come
    from the state's arena.

    ``use_weights=False`` zeroes the ``w(k)`` term and
    ``use_slots=False`` skips occupation checks, replicating the
    baseline router's ``_ZeroWeightView`` / ``_UniformCostView``
    adapters without per-call object indirection.
    """
    started = perf_counter()
    if goal_slot is None:
        goal_slot = slot
    width = grid.width
    height = grid.height
    blocked = grid.blocked
    conflicts = grid.occupancy.conflicts
    cs = slot.start
    ce = slot.end
    check_slot = use_slots and (ce - cs) > EPSILON
    gs = goal_slot.start
    ge = goal_slot.end
    check_goal = use_slots and (ge - gs) > EPSILON

    mask = grid._admissible_status(cs, ce, check_slot)

    target_indices = _port_indices(grid, targets, width, height, blocked)
    source_indices = [i for i in _port_indices(
        grid, sources, width, height, blocked
    ) if not mask[i]]
    free_target = any(not mask[i] for i in target_indices)
    # A* seeds only admissible sources and a goal is accepted only when
    # popped open, so no admissible source — or no admissible target at
    # all — is an immediate provable failure (the second test is what
    # saves the reachability sweep on the saturated-ports common case).
    if not target_indices or not source_indices or not free_target:
        _flush_search_stats(
            instrumentation, expanded=0, reopened=0, found=False,
            elapsed=perf_counter() - started,
        )
        return None

    target_mask = grid._port_bits_cache.get(target_indices)
    if target_mask is None:
        target_mask = bytearray(width * height)
        for index in target_indices:
            target_mask[index] = 1
        grid._port_bits_cache[target_indices] = target_mask

    neighbour_table = grid.neighbours
    if check_slot:
        # Unreachability fast-reject — the big saving on saturated
        # grids.  A* can only traverse admissible cells, so the search
        # provably fails unless an admissible target is 4-connected to
        # an admissible source.  An early-exit depth-first sweep over
        # the mask answers that: successful searches stop at the first
        # admissible target reached, and failing ones only visit the
        # sources' (congestion-boxed, hence small) free component —
        # which is why this beats a full connected-component labelling.
        # Sound in one direction only — reachable searches still run
        # the exact A* below (the goal-slot gate can fail them) — so
        # the returned paths are unchanged.
        visited = bytearray(mask)
        reached = False
        stack: list[int] = []
        for index in source_indices:
            if target_mask[index]:
                reached = True
                break
            visited[index] = 1
            stack.append(index)
        while stack and not reached:
            index = stack.pop()
            for ni in neighbour_table[index]:
                if not visited[ni]:
                    if target_mask[ni]:
                        reached = True
                        break
                    visited[ni] = 1
                    stack.append(ni)
        if not reached:
            _flush_search_stats(
                instrumentation, expanded=0, reopened=0, found=False,
                elapsed=perf_counter() - started,
            )
            return None

    status = grid._status
    status[:] = mask
    dist = grid.distance_map(target_indices, instrumentation)
    weights = grid.weights if use_weights else grid._zero_weights
    ties = grid.ties

    inf = grid._inf
    accumulated = grid._acc
    accumulated[:] = grid._inf_list
    parent = grid._parent
    parent[:] = grid._neg1_list
    open_heap: list[tuple[float, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    expanded = 0
    reopened = 0
    for index in source_indices:
        cost = 1.0 + weights[index]
        if cost < accumulated[index]:
            accumulated[index] = cost
            parent[index] = -1
            heappush(open_heap, (cost + dist[index], ties[index], index))

    path: tuple[Cell, ...] | None = None
    while open_heap:
        _f, _tie, index = heappop(open_heap)
        if status[index]:
            continue
        status[index] = 1  # close
        expanded += 1
        if target_mask[index] and not (
            check_goal and conflicts(index, gs, ge)
        ):
            chain = [index]
            previous = parent[index]
            while previous != -1:
                chain.append(previous)
                previous = parent[previous]
            chain.reverse()
            path = tuple(Cell(i % width, i // width) for i in chain)
            break
        base = accumulated[index] + 1.0
        for ni in neighbour_table[index]:
            # status folds blocked, slot conflicts, and closure into a
            # single byte; a consistent heuristic means a closed
            # neighbour can never improve.
            if status[ni]:
                continue
            cost = base + weights[ni]
            old = accumulated[ni]
            if cost < old:
                if old != inf:
                    reopened += 1
                accumulated[ni] = cost
                parent[ni] = index
                heappush(open_heap, (cost + dist[ni], ties[ni], ni))
    _flush_search_stats(
        instrumentation, expanded=expanded, reopened=reopened,
        found=path is not None, elapsed=perf_counter() - started,
    )
    return path
