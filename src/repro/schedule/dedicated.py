"""Conventional dedicated-storage scheduling (the architecture DCSA
replaces — Section II-A).

Conventional FBMBs cache every intermediate fluid in a *dedicated
storage unit* behind multiplexer-like control valves, so that only one
fluid can enter or leave the unit at a time.  The paper lists the
consequences: constrained capacity, limited port bandwidth, and chip
area.  This module models that architecture so the DCSA advantage can
be quantified (ablation A4 in DESIGN.md):

* an operation's output leaves its component for the storage unit as
  soon as the (single, serialised) storage port is free — the component
  stays blocked until then, and is washed afterwards (Eq. 2);
* a consumer fetches each input back through the same serialised port,
  paying ``t_c`` per hop (component → storage, storage → component);
* the storage unit has a configurable *capacity*; when it is full, an
  output waits inside its component, blocking it further.

The scheduler reuses :class:`~repro.schedule.engine.SchedulerEngine`'s
dispatch and binding machinery; only the storage semantics change.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.assay.graph import SequencingGraph
from repro.components.allocation import Allocation
from repro.components.instances import OUTLET, ComponentState
from repro.errors import SchedulingError
from repro.schedule.engine import (
    DEFAULT_TRANSPORT_TIME,
    SchedulerEngine,
    SchedulingPolicy,
)
from repro.schedule.schedule import Schedule
from repro.schedule.tasks import FluidMovement
from repro.units import Seconds

__all__ = ["DedicatedStorageScheduler", "schedule_assay_dedicated"]


@dataclass
class _StoragePort:
    """The multiplexed storage port: one access at a time, ``t_c`` each."""

    service_time: Seconds
    next_free: Seconds = 0.0
    accesses: int = 0

    def reserve(self, earliest: Seconds) -> Seconds:
        """Reserve the port at or after *earliest*; returns access start."""
        start = max(earliest, self.next_free)
        self.next_free = start + self.service_time
        self.accesses += 1
        return start


@dataclass
class _StoredFluid:
    """A fluid portion sitting in the dedicated storage unit."""

    producer: str
    consumer: str
    available_from: Seconds
    src_component: str
    entered_at: Seconds = field(default=0.0)


class DedicatedStorageScheduler(SchedulerEngine):
    """List scheduler with dedicated-storage semantics.

    Parameters mirror :class:`~repro.schedule.engine.SchedulerEngine`,
    plus the storage unit's *capacity* (number of fluid portions it can
    hold simultaneously; the paper's "constrained capacity").
    """

    def __init__(
        self,
        assay: SequencingGraph,
        allocation: Allocation,
        transport_time: Seconds = DEFAULT_TRANSPORT_TIME,
        capacity: int = 8,
    ) -> None:
        if capacity < 1:
            raise SchedulingError("storage capacity must be at least 1")
        super().__init__(
            assay, allocation, SchedulingPolicy.ours(), transport_time
        )
        self.capacity = capacity
        self._port = _StoragePort(service_time=transport_time)
        self._stored: dict[tuple[str, str], _StoredFluid] = {}
        #: Departure times of stored portions, for capacity accounting.
        self._storage_events: list[tuple[Seconds, int]] = []

    # ------------------------------------------------------------------
    # Storage semantics overrides
    # ------------------------------------------------------------------
    def _availability(self, state: ComponentState, op_id: str) -> Seconds:
        # No fluid ever resides in a component between operations in the
        # dedicated architecture, so plain Eq. 2 availability applies.
        return state.available_from()

    def _in_place_candidates(self, op_id: str) -> list[str]:
        # Outputs leave immediately — in-place reuse cannot happen.
        return []

    def _earliest_start(self, op_id: str, target: ComponentState) -> Seconds:
        start = self._availability(target, op_id)
        t_c = self.transport_time
        storage_parents = []
        for parent in self.assay.parents(op_id):
            record = self._stored[(parent, op_id)]
            storage_parents.append(record)
        # Each input exits through the serialised port (t_c per access)
        # and then travels t_c to the component.
        if storage_parents:
            base = max(
                max(r.available_from for r in storage_parents),
                self._port.next_free,
            )
            start = max(start, base + len(storage_parents) * t_c + t_c)
        return start

    def _schedule_operation(self, op_id, target=None):  # type: ignore[override]
        op = self.assay.operation(op_id)
        if target is None:
            target = self._select_component(op_id)
        start = self._earliest_start(op_id, target)
        t_c = self.transport_time

        # Fetch every input from storage: serialised port exits, last
        # one finishing t_c before the start.
        parents = sorted(self.assay.parents(op_id))
        for index, parent in enumerate(reversed(parents)):
            record = self._stored.pop((parent, op_id))
            exit_at = self._port.reserve(
                max(record.available_from, start - (index + 1) * t_c - t_c)
            )
            arrive = exit_at + t_c
            self._movements.append(
                FluidMovement(
                    producer=parent,
                    consumer=op_id,
                    fluid=self.assay.operation(parent).output_fluid,
                    src_component=record.src_component,
                    dst_component=target.cid,
                    depart=record.entered_at,
                    arrive=min(arrive, start),
                    consume=start,
                    evicted=True,
                )
            )
            self._storage_events.append((exit_at, -1))

        end = start + op.duration
        target.begin_operation(op_id, start, end)
        from repro.schedule.schedule import ScheduledOperation

        self._scheduled[op_id] = ScheduledOperation(
            op_id=op_id, component_id=target.cid, start=start, end=end
        )
        self._store_output(op_id, target, end)
        # Every plan reads the shared storage port, which each commit
        # moves: no plan survives a commit here.
        self._forget_plans()

    def _store_output(
        self, op_id: str, target: ComponentState, end: Seconds
    ) -> None:
        """Ship the finished output to the storage unit (or outlet)."""
        fluid = self.assay.operation(op_id).output_fluid
        children = self.assay.children(op_id)
        if not children:
            # Sink outputs leave through the outlet as in the DCSA flow.
            target.settle_output(op_id, fluid, end, {OUTLET})
            target.remove_portion(OUTLET, end, "transport", fluid.wash_time)
            return
        # Wait for the port *and* for free capacity.
        earliest = max(end, self._capacity_free_from(end))
        entry_at = self._port.reserve(earliest)
        target.settle_output(op_id, fluid, end, set(children))
        for child in children:
            target.remove_portion(child, entry_at, "transport", fluid.wash_time)
            self._stored[(op_id, child)] = _StoredFluid(
                producer=op_id,
                consumer=child,
                available_from=entry_at + self.transport_time,
                src_component=target.cid,
                entered_at=entry_at,
            )
            self._storage_events.append((entry_at, +1))
            # A child's portion is one capacity slot; a 2-consumer output
            # occupies two (it is split on entry).

    def _capacity_free_from(self, at: Seconds) -> Seconds:
        """Earliest time ≥ *at* when a capacity slot is free.

        Conservative sweep over the recorded entry/exit events; adequate
        for the ablation's instance sizes.
        """
        events = sorted(self._storage_events)
        level = 0
        last_ok = 0.0
        for time, delta in events:
            level += delta
            if level >= self.capacity:
                # Full from here until some exit; the next exit event
                # after this time frees a slot.
                exits = [t for t, d in events if d < 0 and t > time]
                last_ok = min(exits) if exits else time
        return max(at, last_ok)


def schedule_assay_dedicated(
    assay: SequencingGraph,
    allocation: Allocation,
    transport_time: Seconds = DEFAULT_TRANSPORT_TIME,
    capacity: int = 8,
) -> Schedule:
    """Schedule *assay* under the conventional dedicated-storage model.

    The returned schedule's movements all carry ``evicted=True`` (every
    intermediate fluid is cached — in the storage unit) and their cache
    times measure storage residence; the interesting comparison against
    :func:`~repro.schedule.list_scheduler.schedule_assay` is the
    makespan, which suffers from the serialised storage port.
    """
    engine = DedicatedStorageScheduler(
        assay, allocation, transport_time, capacity
    )
    return engine.run()
