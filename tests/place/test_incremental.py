"""Tests for the incremental annealing workspace and engine parity.

The contract under test (see ``repro/place/incremental.py``): the
workspace's maintained energy is at all times *equal* to a from-scratch
:func:`placement_energy`, proposals' incident-nets deltas equal the
realised change exactly, the occupancy state always matches the blocks,
and a seeded annealing run on either engine produces the identical best
placement and energy.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks.registry import get_benchmark
from repro.core.problem import SynthesisProblem
from repro.errors import PlacementError
from repro.place.annealing import (
    PLACEMENT_ENGINES,
    AnnealingParameters,
    anneal_placement,
)
from repro.place.energy import (
    ConnectionPriorities,
    build_connection_priorities,
    energy_units,
    placement_energy,
)
from repro.place.grid import ChipGrid
from repro.place.incremental import PlacementWorkspace
from repro.place.moves import random_placement
from repro.place.placement import PlacedComponent
from repro.schedule import schedule_assay

GRID = ChipGrid(12, 12)

FOOTPRINTS = {
    "Mixer1": (3, 2),
    "Mixer2": (3, 2),
    "Heater1": (2, 1),
    "Detector1": (1, 1),
    "Filter1": (2, 2),
}

PRIORITIES = ConnectionPriorities(
    priorities={
        ("Mixer1", "Mixer2"): 5.0,
        ("Heater1", "Mixer1"): 2.0,
        ("Detector1", "Heater1"): 1.0,
        ("Filter1", "Mixer2"): 0.8,
    }
)

FAST = AnnealingParameters(
    initial_temperature=50.0,
    min_temperature=1.0,
    cooling_rate=0.7,
    iterations_per_temperature=25,
)


def make_workspace(seed: int = 0):
    rng = random.Random(seed)
    placement = random_placement(GRID, FOOTPRINTS, rng)
    assert placement is not None
    return PlacementWorkspace(placement, PRIORITIES), rng


def propose_random(workspace: PlacementWorkspace, rng: random.Random):
    """One random proposal through the workspace's public API."""
    kind = rng.choice(("translate", "swap", "rotate"))
    components = workspace.components()
    if kind == "translate":
        cid = rng.choice(components)
        block = workspace.block(cid)
        x = rng.randint(0, workspace.grid.width - block.width)
        y = rng.randint(0, workspace.grid.height - block.height)
        return workspace.propose_translate(cid, x, y)
    if kind == "swap":
        cid_a, cid_b = rng.sample(components, 2)
        return workspace.propose_swap(cid_a, cid_b)
    cid = rng.choice(components)
    return workspace.propose_rotate(cid)


class TestWorkspaceBasics:
    def test_requires_legal_placement(self):
        from repro.place.placement import PlacedComponent, Placement

        overlapping = Placement(
            GRID,
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
                "Mixer2": PlacedComponent("Mixer2", 1, 0, 3, 2),
            },
        )
        with pytest.raises(PlacementError):
            PlacementWorkspace(overlapping, PRIORITIES)

    def test_initial_energy_matches_oracle(self):
        workspace, _ = make_workspace()
        assert workspace.energy == placement_energy(
            workspace.snapshot(), PRIORITIES
        )

    def test_snapshot_is_independent(self):
        workspace, rng = make_workspace()
        snapshot = workspace.snapshot()
        blocks_before = {cid: snapshot.block(cid) for cid in snapshot.components()}
        committed = False
        while not committed:
            move = propose_random(workspace, rng)
            if move is not None:
                workspace.commit(move)
                committed = True
        # The earlier snapshot must not see the mutation.
        assert {
            cid: snapshot.block(cid) for cid in snapshot.components()
        } == blocks_before

    def test_self_net_costs_nothing(self):
        """A net from a component to itself has zero length wherever
        the component moves, so it never enters a delta."""
        priorities = ConnectionPriorities(
            priorities={**PRIORITIES.priorities, ("Mixer1", "Mixer1"): 3.0}
        )
        rng = random.Random(4)
        placement = random_placement(GRID, FOOTPRINTS, rng)
        workspace = PlacementWorkspace(placement, priorities)
        for _ in range(200):
            move = propose_random(workspace, rng)
            if move is not None:
                workspace.commit(move)
        workspace.check_consistency()
        assert workspace.energy == placement_energy(
            workspace.snapshot(), PRIORITIES
        )

    def test_stale_move_rejected(self):
        workspace, rng = make_workspace()
        cid = workspace.components()[0]
        block = workspace.block(cid)
        first = second = None
        while first is None or second is None:
            x = rng.randint(0, workspace.grid.width - block.width)
            y = rng.randint(0, workspace.grid.height - block.height)
            move = workspace.propose_translate(cid, x, y)
            if move is None:
                continue
            if first is None:
                first = move
            elif move.changes[0][1:3] != first.changes[0][1:3]:
                second = move
        workspace.commit(first)
        # ``second`` still references the pre-commit block: stale.
        with pytest.raises(PlacementError, match="stale move"):
            workspace.commit(second)


class TestApplyUndoProperty:
    """Thousands of seeded apply/undo steps against the oracles."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_walk_matches_oracles(self, seed):
        workspace, rng = make_workspace(seed)
        steps = 0
        attempts = 0
        while steps < 250 and attempts < 4000:
            attempts += 1
            move = propose_random(workspace, rng)
            if move is None:
                continue
            steps += 1
            before = workspace.units
            applied = workspace.apply(move)
            # The proposed delta is the realised change, exactly.
            assert energy_units(workspace.snapshot(), PRIORITIES) == (
                before + move.delta
            )
            # Occupancy + legality + exact energy after every step.
            workspace.check_consistency()
            if rng.random() < 0.3:
                workspace.undo(applied)
                workspace.check_consistency()
        assert steps == 250

    def test_undo_restores_exact_state(self):
        workspace, rng = make_workspace(3)
        blocks_before = workspace.snapshot_blocks()
        energy_before = workspace.energy
        applied = []
        for _ in range(500):
            move = propose_random(workspace, rng)
            if move is not None:
                applied.append(workspace.apply(move))
        for token in reversed(applied):
            workspace.undo(token)
        assert workspace.snapshot_blocks() == blocks_before
        assert workspace.energy == energy_before
        workspace.check_consistency()

    def test_commit_matches_apply(self):
        ws_a, rng_a = make_workspace(7)
        ws_b, rng_b = make_workspace(7)
        for _ in range(300):
            move_a = propose_random(ws_a, rng_a)
            move_b = propose_random(ws_b, rng_b)
            if move_a is None:
                assert move_b is None
                continue
            ws_a.commit(move_a)
            ws_b.apply(move_b)
            assert ws_a.energy == ws_b.energy
            assert ws_a.snapshot_blocks() == ws_b.snapshot_blocks()


_moves = st.lists(
    st.one_of(
        st.tuples(
            st.just("translate"), st.integers(0, 7),
            st.integers(-1, 11), st.integers(-1, 11),
        ),
        st.tuples(st.just("rotate"), st.integers(0, 7)),
        st.tuples(st.just("swap"), st.integers(0, 7), st.integers(0, 7)),
        st.tuples(
            st.just("probe"), st.integers(0, 7),
            st.integers(-1, 11), st.integers(-1, 11),
            st.integers(1, 11), st.integers(1, 11),
        ),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(3, 10),
    st.integers(3, 10),
    st.lists(
        st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=8
    ),
    st.integers(0, 2**16),
    _moves,
)
def test_row_mask_legality_matches_is_legal(width, height, dims, seed, moves):
    """The row-bitmask ``_fits`` answers exactly what
    ``Placement.is_legal()`` of the moved placement answers.

    Random legal placements, then translate, rotate and swap moves
    (legal ones are committed, so the masks keep changing), plus raw
    ``_fits`` probes of arbitrary rectangles — out of bounds, on the
    grid edges, and spanning the full grid in either axis.
    """
    grid = ChipGrid(width, height)
    footprints = {f"C{i}": dim for i, dim in enumerate(dims)}
    placement = random_placement(
        grid, footprints, random.Random(seed),
        attempts_per_component=20, whole_placement_attempts=2,
    )
    if placement is None:
        return
    workspace = PlacementWorkspace(placement, ConnectionPriorities(priorities={}))
    components = workspace.components()
    for move in moves:
        current = workspace.snapshot()
        cid = components[move[1] % len(components)]
        block = workspace.block(cid)
        if move[0] == "translate":
            _, _, x, y = move
            pending = workspace.propose_translate(cid, x, y)
            expected = current.with_block(block.moved_to(x, y)).is_legal()
        elif move[0] == "rotate":
            pending = workspace.propose_rotate(cid)
            expected = current.with_block(block.rotated()).is_legal()
        elif move[0] == "swap":
            other = components[move[2] % len(components)]
            if other == cid:
                continue
            pending = workspace.propose_swap(cid, other)
            other_block = workspace.block(other)
            expected = current.with_blocks(
                block.moved_to(other_block.x, other_block.y),
                other_block.moved_to(block.x, block.y),
            ).is_legal()
        else:
            _, _, x, y, w, h = move
            candidate = PlacedComponent(cid, x, y, w, h)
            assert workspace._fits(x, y, w, h, cid) == (
                current.with_block(candidate).is_legal()
            )
            continue
        assert (pending is not None) == expected, move
        if pending is not None:
            workspace.commit(pending)
    workspace.check_consistency()


def test_row_masks_track_blocks():
    """Bit x of rows[y] is set exactly on the covered cells."""
    workspace, rng = make_workspace(5)
    for _ in range(300):
        move = propose_random(workspace, rng)
        if move is not None:
            workspace.commit(move)
    covered = {
        (cell.x, cell.y) for cell in workspace.snapshot().occupied_cells()
    }
    assert {
        (x, y)
        for y, row in enumerate(workspace.rows)
        for x in range(GRID.width)
        if row >> x & 1
    } == covered
    workspace.rows[0] ^= 1
    with pytest.raises(PlacementError, match="out of sync"):
        workspace.check_consistency()


class TestEngineParity:
    """Seeded incremental and reference runs are interchangeable."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_fast_schedule_parity(self, seed):
        results = {}
        for engine in PLACEMENT_ENGINES:
            results[engine] = anneal_placement(
                GRID, FOOTPRINTS, PRIORITIES, FAST, seed=seed, engine=engine
            )
        ref = results["reference"]
        inc = results["incremental"]
        assert inc.energy == ref.energy
        assert inc.initial_energy == ref.initial_energy
        assert inc.energy_trace == ref.energy_trace
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.trials == ref.trials
        for cid in ref.placement.components():
            assert inc.placement.block(cid) == ref.placement.block(cid)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_parity_above_21_components(self, seed):
        """More than 21 components: ``rng.sample`` takes CPython's
        set-based branch, which the inlined swap draw must follow."""
        footprints = {
            f"C{i:02d}": ((1, 1), (2, 1), (1, 2), (2, 2))[i % 4]
            for i in range(26)
        }
        names = sorted(footprints)
        priorities = ConnectionPriorities(
            priorities={
                (names[i], names[(i * 7 + 3) % 26]): 1.0 + i % 5
                for i in range(26)
                if names[i] != names[(i * 7 + 3) % 26]
            }
        )
        grid = ChipGrid(18, 18)
        results = {
            engine: anneal_placement(
                grid, footprints, priorities, FAST, seed=seed, engine=engine
            )
            for engine in ("incremental", "reference")
        }
        ref = results["reference"]
        inc = results["incremental"]
        assert inc.trials == ref.trials
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.energy_trace == ref.energy_trace
        assert inc.placement.blocks() == ref.placement.blocks()

    def test_benchmark_parity_with_verification(self):
        """End-to-end parity on a real benchmark, with the incremental
        engine re-checking every accepted move against the oracle."""
        case = get_benchmark("PCR")
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        schedule = schedule_assay(case.assay, case.allocation)
        priorities = build_connection_priorities(schedule)
        grid = problem.resolved_grid()
        footprints = problem.footprints()
        ref = anneal_placement(
            grid, footprints, priorities, FAST, seed=11, engine="reference"
        )
        inc = anneal_placement(
            grid, footprints, priorities, FAST, seed=11,
            engine="incremental", verify=True,
        )
        assert inc.energy == ref.energy
        assert inc.energy_trace == ref.energy_trace
        assert placement_energy(inc.placement, priorities) == inc.energy

    def test_unknown_engine_rejected(self):
        with pytest.raises(PlacementError, match="unknown placement engine"):
            anneal_placement(
                GRID, FOOTPRINTS, PRIORITIES, FAST, engine="turbo"
            )
