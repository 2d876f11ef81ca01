"""Tests for the vectorized kernels of the ``flat`` routing engine.

:mod:`repro.route.flat` answers slot admissibility with numpy masks,
rejects provably failing searches before the heap, retires intervals
that can never conflict again, and fast-forwards the postponement
crawl.  Four layers pin them:

* :func:`~repro.route.flat.find_path_flat` must return the identical
  path as the reference :func:`~repro.route.astar.find_path` with a
  live interval buffer (so every slot-checked search builds a mask) —
  including the fast-reject-sensitive cases (walls, saturated slots)
  and both cost-model switches (``use_weights`` / ``use_slots``).  A
  hypothesis property compares the two finders over random interval
  soups, where most searches fail (the fast-reject's reason to exist).
* :meth:`FlatRoutingState.retire_intervals` must leave every future
  admissibility mask bit-identical while shrinking the buffers.
* :meth:`FlatRoutingState.advance_delay` must match a brute-force scan
  of the per-interval window flags, step by step.
* The admissibility mask must equal the scalar
  :meth:`~repro.route.flat.FlatOccupancy.conflicts` verdict per cell.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.fluids import Fluid
from repro.obs.instrument import Instrumentation
from repro.place.grid import Cell, ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.route.astar import find_path
from repro.route.flat import FlatRoutingState, _task_windows, find_path_flat
from repro.route.grid_graph import RoutingGrid
from repro.route.timeslots import TimeSlot
from repro.schedule.tasks import TransportTask
from repro.units import EPSILON

SLOT = TimeSlot(0.0, 2.0)
FLUID = Fluid("sample", 1e-6)
#: An interval committed far from every search window below, so each
#: slot-checked search runs the vectorized mask build over a non-empty
#: buffer instead of short-cutting to the obstacle mask.
BACKGROUND = TimeSlot(100.0, 101.0)


def commit_both(states, cells, slots, task_id="t1", wash=0.0):
    """Commit one path on every state (reference grid and flat alike)."""
    for state in states:
        state.commit_path(tuple(cells), task_id, FLUID, list(slots), wash)


def make_pair(width=8, height=8, blocks=None, initial_weight=0.0):
    """A (RoutingGrid, FlatRoutingState) pair over one placement, both
    holding the :data:`BACKGROUND` interval on the top-right cell."""
    blocks = blocks or {"Block": PlacedComponent("Block", 0, 0, 1, 1)}
    placement = Placement(ChipGrid(width, height), blocks)
    pair = (
        RoutingGrid(placement, initial_weight=initial_weight),
        FlatRoutingState(placement, initial_weight=initial_weight),
    )
    commit_both(
        pair, [Cell(width - 1, 0)], [BACKGROUND], task_id="background",
        wash=initial_weight,
    )
    return pair


def make_state(width=8, height=8):
    """A bare flat state (no committed interval) for the kernel tests."""
    placement = Placement(
        ChipGrid(width, height), {"Block": PlacedComponent("Block", 0, 0, 1, 1)}
    )
    return FlatRoutingState(placement)


def assert_same_path(reference, flat, sources, targets, slot, goal_slot=None):
    expected = find_path(reference, sources, targets, slot, goal_slot)
    actual = find_path_flat(flat, sources, targets, slot, goal_slot)
    assert actual == expected
    return actual


class _SwitchedView:
    """Reference-grid adapter hiding weights and/or slots, the oracle of
    ``find_path_flat(use_weights=..., use_slots=...)``."""

    def __init__(self, grid, use_weights, use_slots):
        self._grid = grid
        self._use_weights = use_weights
        self._use_slots = use_slots

    def is_routable(self, cell):
        return self._grid.is_routable(cell)

    def is_free(self, cell, slot):
        if self._use_slots:
            return self._grid.is_free(cell, slot)
        return self._grid.is_routable(cell)

    def weight(self, cell):
        return self._grid.weight(cell) if self._use_weights else 0.0


class TestFindPathFlat2Parity:
    def test_straight_line(self):
        reference, flat = make_pair()
        path = assert_same_path(
            reference, flat, [Cell(1, 4)], [Cell(6, 4)], SLOT
        )
        assert path is not None and len(path) == 6

    def test_source_equals_target(self):
        reference, flat = make_pair()
        path = assert_same_path(
            reference, flat, [Cell(3, 3)], [Cell(3, 3)], SLOT
        )
        assert path == (Cell(3, 3),)

    def test_multiple_sources_and_targets(self):
        reference, flat = make_pair()
        assert_same_path(
            reference, flat,
            [Cell(1, 1), Cell(5, 4)], [Cell(6, 4), Cell(6, 6)], SLOT,
        )

    def test_weights_steer_identically(self):
        reference, flat = make_pair(initial_weight=10.0)
        for x in range(1, 7):
            reference._weights[Cell(x, 2)] = 0.5
            flat.weights[flat.index(Cell(x, 2))] = 0.5
        assert_same_path(
            reference, flat, [Cell(1, 4)], [Cell(6, 4)], SLOT
        )

    def test_goal_slot_respected(self):
        reference, flat = make_pair()
        target = Cell(6, 4)
        commit_both((reference, flat), [target], [TimeSlot(10.0, 12.0)])
        assert_same_path(
            reference, flat,
            [Cell(1, 4)], [target, Cell(6, 5)],
            TimeSlot(0.0, 2.0), goal_slot=TimeSlot(9.0, 11.0),
        )

    def test_no_path_behind_wall_fast_rejects(self):
        reference, flat = make_pair(
            7, 7, {"Wall": PlacedComponent("Wall", 3, 0, 1, 7)}
        )
        instrumentation = Instrumentation()
        path = find_path_flat(
            flat, [Cell(1, 1)], [Cell(5, 1)], SLOT,
            instrumentation=instrumentation,
        )
        assert path is None
        assert find_path(reference, [Cell(1, 1)], [Cell(5, 1)], SLOT) is None
        # The wall makes the failure provable without expanding a node.
        assert instrumentation.counters.get("astar.nodes_expanded", 0) == 0

    def test_slot_wall_fast_rejects(self):
        reference, flat = make_pair()
        column = [Cell(3, y) for y in range(8)]
        commit_both((reference, flat), column, [TimeSlot(0.0, 4.0)] * 8)
        instrumentation = Instrumentation()
        path = find_path_flat(
            flat, [Cell(1, 1)], [Cell(5, 1)], TimeSlot(1.0, 3.0),
            instrumentation=instrumentation,
        )
        assert path is None
        assert find_path(
            reference, [Cell(1, 1)], [Cell(5, 1)], TimeSlot(1.0, 3.0)
        ) is None
        assert instrumentation.counters.get("astar.nodes_expanded", 0) == 0

    def test_slot_wall_clears_after_interval(self):
        reference, flat = make_pair()
        column = [Cell(3, y) for y in range(8)]
        commit_both((reference, flat), column, [TimeSlot(0.0, 4.0)] * 8)
        path = assert_same_path(
            reference, flat, [Cell(1, 1)], [Cell(5, 1)], TimeSlot(5.0, 7.0)
        )
        assert path is not None

    @pytest.mark.parametrize("use_weights", [True, False])
    @pytest.mark.parametrize("use_slots", [True, False])
    def test_cost_model_switches(self, use_weights, use_slots):
        reference, flat = make_pair(initial_weight=3.0)
        column = [Cell(3, y) for y in range(6)]
        commit_both((reference, flat), column, [TimeSlot(0.0, 4.0)] * 6)
        window = TimeSlot(1.0, 3.0)
        expected = find_path(
            _SwitchedView(reference, use_weights, use_slots),
            [Cell(1, 1)], [Cell(5, 1)], window,
        )
        actual = find_path_flat(
            flat, [Cell(1, 1)], [Cell(5, 1)], window,
            use_weights=use_weights, use_slots=use_slots,
        )
        assert actual == expected

    def test_heuristic_cache_hits_counted(self):
        _, flat = make_pair()
        instrumentation = Instrumentation()
        targets = [Cell(6, 4)]
        for _ in range(3):
            find_path_flat(
                flat, [Cell(1, 4)], targets, SLOT,
                instrumentation=instrumentation,
            )
        # First search computes the distance map; the two repeats hit.
        assert instrumentation.counters["astar.heuristic_cache_hits"] == 2


_cells = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
_busy = st.lists(
    st.tuples(_cells, st.integers(min_value=0, max_value=6)),
    max_size=30,
)


@settings(max_examples=120, deadline=None)
@given(_busy, _cells, _cells, st.integers(min_value=0, max_value=6))
def test_fast_reject_agrees_with_exhaustive_search(busy, src, dst, probe):
    """flat == reference on random interval soups (mostly failing
    searches).

    The reference finder has no reachability pre-check — it exhausts
    its region before returning ``None`` — so agreement here pins the
    fast-reject's soundness on both verdicts, not just the paths.
    """
    reference, flat = make_pair(6, 6, {"B": PlacedComponent("B", 0, 0, 1, 1)})
    for (x, y), start in busy:
        cell = Cell(x, y)
        if not flat.is_routable(cell):
            continue
        slot = TimeSlot(float(start), float(start) + 3.0)
        if flat.is_free(cell, slot):
            commit_both((reference, flat), [cell], [slot],
                        task_id=f"t{x}{y}{start}")
    window = TimeSlot(float(probe), float(probe) + 2.0)
    assert_same_path(reference, flat, [Cell(*src)], [Cell(*dst)], window)


# ----------------------------------------------------------------------
# Interval retirement
# ----------------------------------------------------------------------

class TestRetireIntervals:
    def _committed_state(self):
        flat = make_state()
        commit_both(
            (flat,),
            [Cell(1, 1), Cell(2, 1), Cell(3, 1)],
            [TimeSlot(0.0, 3.0), TimeSlot(1.0, 4.0), TimeSlot(8.0, 12.0)],
        )
        return flat

    def test_masks_identical_after_retirement(self):
        flat = self._committed_state()
        windows = [(0.5, 2.0), (3.5, 5.0), (9.0, 10.0), (20.0, 21.0)]
        before = [flat._admissible_status(cs, ce, True) for cs, ce in windows]
        flat._mask_memo = None
        # Every future query in this test starts at >= 5.0, so 5.0 is a
        # valid bound: it retires the first two intervals.
        flat.retire_intervals(5.0)
        assert flat._buf_count == 1
        future = [(9.0, 10.0), (20.0, 21.0)]
        after = [flat._admissible_status(cs, ce, True) for cs, ce in future]
        assert after == before[2:]

    def test_retiring_nothing_is_a_noop(self):
        flat = self._committed_state()
        count = flat._buf_count
        flat.retire_intervals(-1.0)
        assert flat._buf_count == count

    def test_full_log_survives_retirement(self):
        flat = self._committed_state()
        flat.retire_intervals(100.0)
        assert flat._buf_count == 0
        # advance_delay's exact flags read the full log, not the buffers.
        assert len(flat._int_cells) == 3

    def test_buffers_grow_past_initial_capacity(self):
        flat = make_state(40, 40)
        capacity = flat._buf_capacity
        cells = [Cell(x, y) for y in range(1, 40) for x in range(1, 40)]
        commit_both((flat,), cells[:capacity + 5],
                    [TimeSlot(0.0, 1.0)] * (capacity + 5))
        assert flat._buf_count == capacity + 5
        assert flat._buf_capacity == 2 * capacity
        mask = flat._admissible_status(0.0, 0.5, True)
        assert all(mask[flat.index(cell)] for cell in cells[:capacity + 5])


# ----------------------------------------------------------------------
# Postponement fast-forward
# ----------------------------------------------------------------------

def _task(depart=0.0, arrive=3.0, consume=5.0):
    return TransportTask(
        task_id="t", producer="p", consumer="c", fluid=FLUID,
        src_component="A", dst_component="B",
        depart=depart, arrive=arrive, consume=consume,
    )


def _signature(flat, task, delay):
    return [
        (list(opened), list(closing))
        for opened, closing in flat._window_signature(task, delay)
    ]


def _brute_force_steps(flat, task, delay, horizon):
    """First step at which the comparison signature differs (linear)."""
    base = _signature(flat, task, delay)
    for k in range(1, horizon):
        if _signature(flat, task, delay + k * 1.0) != base:
            return k
    return horizon


class TestAdvanceDelay:
    @pytest.mark.parametrize("delay", [0.0, 1.0, 4.0, 9.0])
    def test_matches_brute_force(self, delay):
        flat = make_state()
        commit_both(
            (flat,),
            [Cell(1, 1), Cell(2, 1), Cell(4, 4)],
            [TimeSlot(2.0, 6.0), TimeSlot(5.0, 9.0), TimeSlot(20.0, 24.0)],
        )
        task = _task()
        horizon = 40
        expected = _brute_force_steps(flat, task, delay, horizon)
        steps = flat.advance_delay(task, delay, horizon=horizon)
        assert steps == expected
        # Soundness: every skipped delay sees the identical flag state,
        # so the router's jump reproduces the failing attempts exactly.
        base_flags = [list(f) for f in flat._window_flags(task, delay)]
        for k in range(1, steps):
            probe = [
                list(f) for f in flat._window_flags(task, delay + k * 1.0)
            ]
            assert probe == base_flags, k

    def test_stops_before_a_transient_conflict(self):
        """A flag that goes off->on->off must not be skipped over.

        The interval lies entirely after the task's windows at the base
        delay and entirely before them near the horizon, so the *flags*
        at the horizon equal the base flags — a binary search over the
        flags alone would skip the conflicting delays in between.
        """
        flat = make_state()
        commit_both((flat,), [Cell(4, 4)], [TimeSlot(20.0, 24.0)])
        task = _task()  # occupation window slides as [9+k, 14+k]
        base = [list(f) for f in flat._window_flags(task, 9.0)]
        first_flag_change = next(
            k for k in range(1, 40)
            if [list(f) for f in flat._window_flags(task, 9.0 + k * 1.0)]
            != base
        )
        steps = flat.advance_delay(task, 9.0, horizon=40)
        assert steps is not None
        assert steps <= first_flag_change

    def test_empty_occupancy_skips_to_horizon(self):
        flat = make_state()
        assert flat.advance_delay(_task(), 0.0, horizon=17) == 17

    def test_tiny_horizon_declines(self):
        flat = make_state()
        assert flat.advance_delay(_task(), 0.0, horizon=1) is None

    def test_windows_mirror_router_slots(self):
        task = _task(depart=1.0, arrive=4.0, consume=7.0)
        transit, occupation, tail = _task_windows(task, 2.0)
        assert transit == (3.0, 6.0)
        assert occupation == (3.0, 9.0)
        # tail start = max(depart + d, consume + d - travel)
        assert tail == (6.0, 9.0)


# ----------------------------------------------------------------------
# Mask semantics
# ----------------------------------------------------------------------

class TestAdmissibleStatus:
    def test_matches_scalar_conflicts(self):
        flat = make_state()
        commit_both(
            (flat,),
            [Cell(1, 1), Cell(2, 2), Cell(3, 3)],
            [TimeSlot(0.0, 3.0), TimeSlot(2.0, 5.0), TimeSlot(4.0, 4.0)],
        )
        conflicts = flat.occupancy.conflicts
        blocked = flat.blocked
        for cs, ce in [(0.0, 1.0), (2.5, 4.5), (3.0 + EPSILON / 2, 5.0),
                       (10.0, 12.0)]:
            mask = flat._admissible_status(cs, ce, True)
            for index in range(len(mask)):
                expected = bool(blocked[index]) or conflicts(index, cs, ce)
                assert bool(mask[index]) == expected, (index, cs, ce)

    def test_zero_length_window_skips_slot_check(self):
        flat = make_state()
        commit_both((flat,), [Cell(1, 1)], [TimeSlot(0.0, 100.0)])
        mask = flat._admissible_status(5.0, 5.0, False)
        assert mask == flat._blocked_bytes
