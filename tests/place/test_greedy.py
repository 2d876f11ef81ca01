"""Unit tests for the baseline construction-by-correction placer."""

import pytest

from repro.errors import PlacementError
from repro.place.energy import wirelength_energy
from repro.place.greedy import (
    construct_placement,
    correct_placement,
    greedy_placement,
)
from repro.place.grid import ChipGrid

FOOTPRINTS = {
    "Mixer1": (3, 2),
    "Mixer2": (3, 2),
    "Heater1": (2, 1),
    "Detector1": (1, 1),
    "Detector2": (1, 1),
}


class TestConstruction:
    def test_lattice_is_legal(self):
        placement = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        assert placement.is_legal()
        assert set(placement.components()) == set(FOOTPRINTS)

    def test_lattice_spreads_over_grid(self):
        placement = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        xs = [placement.block(c).x for c in placement.components()]
        ys = [placement.block(c).y for c in placement.components()]
        assert max(xs) - min(xs) >= 5
        assert max(ys) - min(ys) >= 5

    def test_deterministic(self):
        a = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        b = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        for cid in FOOTPRINTS:
            assert a.block(cid) == b.block(cid)

    def test_too_small_grid_raises(self):
        with pytest.raises(PlacementError, match="too small"):
            construct_placement(ChipGrid(4, 4), FOOTPRINTS)

    def test_single_component_centred(self):
        placement = construct_placement(ChipGrid(9, 9), {"Detector1": (1, 1)})
        block = placement.block("Detector1")
        assert (block.x, block.y) == (4, 4)


class TestCorrection:
    def test_correction_never_increases_wirelength(self):
        nets = [("Mixer1", "Detector2"), ("Mixer2", "Detector1")]
        initial = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        corrected = correct_placement(initial, nets)
        assert wirelength_energy(corrected, nets) <= wirelength_energy(
            initial, nets
        )

    def test_correction_keeps_legality(self):
        nets = [("Mixer1", "Detector2")]
        corrected = correct_placement(
            construct_placement(ChipGrid(14, 14), FOOTPRINTS), nets
        )
        assert corrected.is_legal()

    def test_correction_without_nets_is_stable(self):
        initial = construct_placement(ChipGrid(14, 14), FOOTPRINTS)
        corrected = correct_placement(initial, [])
        for cid in FOOTPRINTS:
            assert corrected.block(cid) == initial.block(cid)


class TestGreedyPlacement:
    def test_end_to_end(self):
        nets = [("Mixer1", "Mixer2")]
        placement = greedy_placement(ChipGrid(14, 14), FOOTPRINTS, nets)
        assert placement.is_legal()


def naive_correction(placement, nets, max_passes=10):
    """The correction as first written: every candidate swap is a new
    placement, checked by the all-pairs legality scan and re-summed."""
    current = placement
    current_cost = wirelength_energy(current, nets)
    components = current.components()
    for _ in range(max_passes):
        improved = False
        for i, cid_a in enumerate(components):
            for cid_b in components[i + 1:]:
                block_a = current.block(cid_a)
                block_b = current.block(cid_b)
                candidate = current.with_blocks(
                    block_a.moved_to(block_b.x, block_b.y),
                    block_b.moved_to(block_a.x, block_a.y),
                )
                if not candidate.is_legal():
                    continue
                cost = wirelength_energy(candidate, nets)
                if cost < current_cost - 1e-12:
                    current, current_cost = candidate, cost
                    improved = True
        if not improved:
            break
    return current


class TestCorrectionOracle:
    @pytest.mark.parametrize(
        "name", ["PCR", "IVD", "CPA", "Synthetic1", "Synthetic3"]
    )
    @pytest.mark.parametrize("passes", [2, 10])
    def test_matches_naive_correction(self, name, passes):
        from repro.benchmarks.registry import get_benchmark
        from repro.core.problem import SynthesisProblem
        from repro.schedule import schedule_assay

        case = get_benchmark(name)
        problem = SynthesisProblem(assay=case.assay, allocation=case.allocation)
        schedule = schedule_assay(case.assay, case.allocation)
        # Duplicates and self-nets on purpose: wirelength counts both.
        nets = [
            (task.src_component, task.dst_component)
            for task in schedule.transport_tasks()
        ]
        initial = construct_placement(
            problem.resolved_grid(), problem.footprints()
        )
        fast = correct_placement(initial, nets, max_passes=passes)
        slow = naive_correction(initial, nets, max_passes=passes)
        assert fast.blocks() == slow.blocks()

    def test_illegal_start_rejected(self):
        from repro.place.placement import PlacedComponent, Placement

        overlapping = Placement(
            ChipGrid(14, 14),
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
                "Mixer2": PlacedComponent("Mixer2", 1, 0, 3, 2),
            },
        )
        with pytest.raises(PlacementError):
            correct_placement(overlapping, [("Mixer1", "Mixer2")])
