"""Unit tests for Eq. 3 / Eq. 4 placement energy."""

from fractions import Fraction

import pytest

from repro.components.allocation import Allocation
from repro.place.energy import (
    CP_UNIT,
    ENERGY_UNIT,
    ConnectionPriorities,
    build_connection_priorities,
    energy_units,
    placement_energy,
    wirelength_energy,
)
from repro.place.grid import ChipGrid
from repro.place.placement import PlacedComponent, Placement
from repro.assay.builder import AssayBuilder
from repro.schedule.list_scheduler import schedule_assay


def two_net_schedule():
    assay = (
        AssayBuilder("t")
        .mix("a", duration=4, wash_time=3.0)
        .heat("h", duration=3, after=["a"], wash_time=1.0)
        .detect("d", duration=2, after=["h"], wash_time=0.2)
        .build()
    )
    return schedule_assay(assay, Allocation(mixers=1, heaters=1, detectors=1))


class TestConnectionPriorities:
    def test_nets_cover_transported_pairs(self):
        schedule = two_net_schedule()
        priorities = build_connection_priorities(schedule)
        nets = priorities.nets()
        assert ("Heater1", "Mixer1") in nets
        assert ("Detector1", "Heater1") in nets

    def test_priority_symmetric_lookup(self):
        priorities = build_connection_priorities(two_net_schedule())
        assert priorities.priority("Mixer1", "Heater1") == priorities.priority(
            "Heater1", "Mixer1"
        )

    def test_absent_net_is_zero(self):
        priorities = build_connection_priorities(two_net_schedule())
        assert priorities.priority("Mixer1", "Detector1") == 0.0

    def test_eq4_values(self):
        """With no concurrency, cp = gamma * wash_time per task."""
        schedule = two_net_schedule()
        tasks = schedule.transport_tasks()
        # The chain's two transports do not overlap in time.
        for task in tasks:
            assert schedule.concurrency_of(task, tasks) == 0
        priorities = build_connection_priorities(schedule, beta=0.6, gamma=0.4)
        assert priorities.priority("Mixer1", "Heater1") == pytest.approx(
            0.4 * 3.0
        )
        assert priorities.priority("Heater1", "Detector1") == pytest.approx(
            0.4 * 1.0
        )

    def test_beta_weighs_concurrency(self):
        """Two parallel transports raise each other's cp via beta."""
        assay = (
            AssayBuilder("t")
            .mix("a", duration=4, wash_time=1.0)
            .mix("b", duration=4, wash_time=1.0)
            .heat("ha", duration=3, after=["a"], wash_time=1.0)
            .heat("hb", duration=3, after=["b"], wash_time=1.0)
            .build()
        )
        schedule = schedule_assay(assay, Allocation(mixers=2, heaters=2))
        with_beta = build_connection_priorities(schedule, beta=1.0, gamma=0.0)
        without = build_connection_priorities(schedule, beta=0.0, gamma=0.0)
        assert sum(with_beta.priorities.values()) > sum(without.priorities.values())


class TestEnergy:
    def placement(self, dist: int) -> Placement:
        return Placement(
            ChipGrid(20, 20),
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
                "Heater1": PlacedComponent("Heater1", dist, 0, 2, 1),
                "Detector1": PlacedComponent("Detector1", 0, 10, 1, 1),
            },
        )

    def test_energy_grows_with_distance(self):
        priorities = build_connection_priorities(two_net_schedule())
        near = placement_energy(self.placement(5), priorities)
        far = placement_energy(self.placement(15), priorities)
        assert far > near

    def test_energy_zero_without_nets(self):
        from repro.place.energy import ConnectionPriorities

        energy = placement_energy(
            self.placement(5), ConnectionPriorities(priorities={})
        )
        assert energy == 0.0

    def test_wirelength_energy(self):
        placement = self.placement(10)
        value = wirelength_energy(placement, [("Mixer1", "Heater1")])
        assert value == placement.manhattan_distance("Mixer1", "Heater1")


class TestExactArithmetic:
    def test_priorities_quantised_once(self):
        priorities = ConnectionPriorities(priorities={("a", "b"): 0.8})
        assert priorities.units == {("a", "b"): round(0.8 / CP_UNIT)}
        assert priorities.priority("a", "b") == (
            priorities.units[("a", "b")] * CP_UNIT
        )
        assert abs(priorities.priority("a", "b") - 0.8) <= CP_UNIT / 2
        again = ConnectionPriorities(priorities=priorities.priorities)
        assert again.units == priorities.units

    def test_energy_is_the_exact_sum(self):
        """Eq. 3 over half-cell centres equals the rational sum exactly."""
        priorities = build_connection_priorities(two_net_schedule())
        placement = Placement(
            ChipGrid(20, 20),
            {
                "Mixer1": PlacedComponent("Mixer1", 0, 0, 3, 2),
                "Heater1": PlacedComponent("Heater1", 7, 3, 2, 1),
                "Detector1": PlacedComponent("Detector1", 0, 10, 1, 1),
            },
        )
        exact = sum(
            Fraction(placement.manhattan_distance(a, b)) * Fraction(p)
            for (a, b), p in priorities.priorities.items()
        )
        assert Fraction(placement_energy(placement, priorities)) == exact
        assert placement_energy(placement, priorities) == (
            energy_units(placement, priorities) * ENERGY_UNIT
        )
