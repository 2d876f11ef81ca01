"""The shared binding & scheduling engine.

Both schedulers in the paper's evaluation run on the same storage
semantics — operations execute on components, outputs stay inside until
transported/evicted, Eq. 2 governs wash-induced ready times — and differ
only in *policy*:

* **Ours (Algorithm 1)** processes ready operations in non-increasing
  priority order and binds with the Case I / Case II strategy of
  Section IV-A.
* **BA (baseline)** processes ready operations in ready-time (FIFO) order
  and always binds to the qualified component with the earliest ready
  time.

:class:`SchedulingPolicy` captures the two policy knobs;
:class:`SchedulerEngine` is the event-driven list scheduler that enforces
the shared semantics.  The concrete public entry points live in
:mod:`repro.schedule.list_scheduler` and
:mod:`repro.schedule.baseline_scheduler`.

Timeline semantics (documented here once, relied on everywhere):

* A fluid portion *still inside* a producer's component departs as late
  as possible (``start - t_c``), so a direct transport caches nothing.
* A portion *evicted* to distributed channel storage departs when its
  component is rebound; it reaches the vicinity of its (future) consumer
  ``t_c`` later and then waits in the channel — that wait is the Fig. 8
  cache time.
* A sink operation's output is collected through an outlet adjacent to
  its component at the operation's end; the component still owes the
  Eq. 2 wash but no routed transport is generated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Literal

from repro.assay.graph import OperationType, SequencingGraph
from repro.components.allocation import Allocation
from repro.components.instances import (
    OUTLET,
    ComponentState,
    build_component_states,
)
from repro.errors import SchedulingError
from repro.obs.instrument import Instrumentation
from repro.schedule.priority import compute_priorities
from repro.schedule.schedule import Schedule, ScheduledOperation
from repro.schedule.tasks import FluidMovement
from repro.units import Seconds
from repro.assay.validation import check_assay

__all__ = ["OrderPolicy", "BindingPolicy", "SchedulingPolicy", "SchedulerEngine"]

#: Paper default for the constant inter-component transport time ``t_c``.
DEFAULT_TRANSPORT_TIME: Seconds = 2.0


class OrderPolicy(str, Enum):
    """How the ready queue is drained.

    ``PRIORITY`` is Algorithm 1's list scheduling: at every step the
    operation that can start earliest is committed, and ties are broken
    by non-increasing priority (longest path to sink) so that, whenever
    several operations compete for the same instant, the one dominating
    the completion time goes first.  Committing in non-decreasing start
    order keeps the schedule *time-causal*: an operation never grabs a
    component that an earlier-starting operation will need.

    ``FIFO`` processes operations strictly in data-ready order (ties by
    id) — the baseline's dispatch.
    """

    #: Earliest achievable start, ties by Algorithm-1 priority — ours.
    PRIORITY = "priority"
    #: Non-decreasing ready time (first-come, first-served) — BA.
    FIFO = "fifo"


class BindingPolicy(str, Enum):
    """How a component is selected for a dequeued operation."""

    #: Case I (reuse the parent's component holding the hardest-to-wash
    #: fluid) with Case II (earliest ready) as fallback — Algorithm 1.
    DCSA = "dcsa"
    #: Always earliest-ready (Case II only) — BA.
    EARLIEST_READY = "earliest_ready"


@dataclass(frozen=True)
class SchedulingPolicy:
    """Bundle of the two policy knobs distinguishing Ours from BA."""

    order: OrderPolicy
    binding: BindingPolicy

    @classmethod
    def ours(cls) -> "SchedulingPolicy":
        """The paper's Algorithm 1."""
        return cls(OrderPolicy.PRIORITY, BindingPolicy.DCSA)

    @classmethod
    def baseline(cls) -> "SchedulingPolicy":
        """The paper's baseline algorithm (BA)."""
        return cls(OrderPolicy.FIFO, BindingPolicy.EARLIEST_READY)


# What binding an operation to a component would mean right now:
# (start achieved, 1 if an unrelated fluid is evicted else 0,
# availability of the component alone, cid).
_Probe = tuple[Seconds, int, Seconds, str]

# Where a not-yet-delivered fluid portion currently is.
_PortionLocation = (
    tuple[Literal["component"], str]
    | tuple[Literal["channel"], float, str]
)


class SchedulerEngine:
    """Event-driven list scheduler with DCSA storage semantics.

    One engine instance performs one scheduling run; use
    :func:`repro.schedule.list_scheduler.schedule_assay` or
    :func:`repro.schedule.baseline_scheduler.schedule_assay_baseline`
    rather than instantiating this directly.
    """

    def __init__(
        self,
        assay: SequencingGraph,
        allocation: Allocation,
        policy: SchedulingPolicy,
        transport_time: Seconds = DEFAULT_TRANSPORT_TIME,
        instrumentation: Instrumentation | None = None,
    ) -> None:
        if transport_time < 0:
            raise SchedulingError(
                f"transport time must be non-negative, got {transport_time}"
            )
        check_assay(assay, allocation)
        self.assay = assay
        self.allocation = allocation
        self.policy = policy
        self.transport_time = transport_time
        self.instrumentation = instrumentation
        self.components: dict[str, ComponentState] = build_component_states(
            allocation
        )
        #: Binding candidates per operation type, in allocation order.
        self._by_type: dict[OperationType, list[ComponentState]] = {}
        for state in self.components.values():
            self._by_type.setdefault(state.op_type, []).append(state)
        #: Algorithm 1 plan cache: ready operation -> the component the
        #: binding policy picks for it and the start it achieves there,
        #: valid until a commit touches state the plan read (see
        #: :meth:`_schedule_operation`).
        self._plans: dict[str, tuple[ComponentState, Seconds]] = {}
        #: What the plans are made of: operation -> cid -> the
        #: operation's :meth:`_probe` of that component.
        self._probes: dict[str, dict[str, _Probe]] = {}
        self.priorities = compute_priorities(assay, transport_time)
        # Per-edge portion tracking: (producer, consumer) -> location.
        self._portions: dict[tuple[str, str], _PortionLocation] = {}
        self._scheduled: dict[str, ScheduledOperation] = {}
        self._movements: list[FluidMovement] = []
        self._ready_time: dict[str, Seconds] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> Schedule:
        """Execute the full list-scheduling loop and return the schedule."""
        pending_parents = {
            op_id: len(self.assay.parents(op_id))
            for op_id in self.assay.operation_ids
        }
        ready = [o for o, count in pending_parents.items() if count == 0]
        for op_id in ready:
            self._ready_time[op_id] = 0.0

        instr = self.instrumentation
        while ready:
            if instr is not None:
                instr.gauge("schedule.ready_queue_depth", len(ready))
            op_id, target = self._dequeue(ready)
            self._schedule_operation(op_id, target)
            for child in self.assay.children(op_id):
                pending_parents[child] -= 1
                if pending_parents[child] == 0:
                    self._ready_time[child] = max(
                        self._scheduled[p].end
                        for p in self.assay.parents(child)
                    )
                    ready.append(child)

        if len(self._scheduled) != len(self.assay):
            missing = set(self.assay.operation_ids) - set(self._scheduled)
            raise SchedulingError(
                f"internal error: operations never became ready: {missing}"
            )
        return Schedule(
            assay=self.assay,
            allocation=self.allocation,
            transport_time=self.transport_time,
            operations=dict(self._scheduled),
            movements=list(self._movements),
            components=self.components,
        )

    # ------------------------------------------------------------------
    # Queue policy
    # ------------------------------------------------------------------
    def _dequeue(
        self, ready: list[str]
    ) -> tuple[str, ComponentState | None]:
        """Pop the next operation according to the order policy, with
        the component it is planned on (``None``: bind at commit)."""
        if self.policy.order is OrderPolicy.PRIORITY:
            # Time-causal list scheduling: earliest achievable start
            # first; among simultaneous candidates, highest priority.
            plans = self._plans
            priorities = self.priorities

            def key(o: str) -> tuple[Seconds, float, str]:
                plan = plans.get(o)
                if plan is None:
                    plan = plans[o] = self._plan(o)
                return (plan[1], -priorities[o], o)

            chosen = min(ready, key=key)
            ready.remove(chosen)
            return chosen, plans.pop(chosen)[0]
        chosen = min(ready, key=lambda o: (self._ready_time[o], o))
        ready.remove(chosen)
        return chosen, None

    # ------------------------------------------------------------------
    # Binding policy
    # ------------------------------------------------------------------
    def _candidates(self, op_id: str) -> list[ComponentState]:
        return self._by_type.get(self.assay.operation(op_id).op_type, [])

    def _availability(self, state: ComponentState, op_id: str) -> Seconds:
        """Earliest start time *op_id* could achieve on this component,
        considering only the component itself (not fluid arrivals)."""
        if not state.holds_fluid:
            return state.available_from()
        resident = state.resident
        assert resident is not None
        if op_id in resident.portions:
            # A parent's portion waits inside: consume in place, no wash.
            # Portions already committed to depart later block until then.
            return max(state.busy_until, resident.last_departure)
        # Unrelated fluid must be evicted and the residue washed first;
        # the wash can only follow the *latest* departure of any portion.
        wash = resident.fluid.wash_time
        return max(state.busy_until, resident.last_departure + wash)

    def _select_component(self, op_id: str) -> ComponentState:
        """Apply the binding policy (Case I / Case II of Algorithm 1)."""
        if self.policy.binding is BindingPolicy.DCSA:
            in_place = self._in_place_candidates(op_id)
            if in_place:
                # Case I: keep the fluid with the lowest diffusion
                # coefficient (hardest to wash) in place.  Equal
                # coefficients tie-break on the start time the operation
                # would actually achieve there, then on the parent id.
                def case1_key(parent: str) -> tuple[float, Seconds, str]:
                    fluid = self.assay.operation(parent).output_fluid
                    cid = self._scheduled[parent].component_id
                    return (
                        fluid.diffusion_coefficient,
                        self._probe(op_id, self.components[cid])[0],
                        parent,
                    )

                parent = min(in_place, key=case1_key)
                return self.components[self._scheduled[parent].component_id]
            # Case II for ours: earliest *achievable start* (component
            # availability and fluid arrivals together), so an idle but
            # far-from-ready candidate never beats one the operation can
            # actually use sooner.  Start-time ties prefer components not
            # holding another operation's fluid: every avoided eviction
            # is a fluid that need not wait in channel storage.  The
            # probe is exactly that key.
            return min(
                self._candidates(op_id), key=lambda s: self._probe(op_id, s)
            )

        # BA: the qualified component with the earliest ready time.
        def ba_key(state: ComponentState) -> tuple[Seconds, str]:
            probe = self._probe(op_id, state)
            return (probe[2], probe[3])

        return min(self._candidates(op_id), key=ba_key)

    def _plan(self, op_id: str) -> tuple[ComponentState, Seconds]:
        """The component the policy would bind *op_id* to right now, and
        the start time it would achieve there (no state is modified)."""
        target = self._select_component(op_id)
        return target, self._probe(op_id, target)[0]

    def _probe(self, op_id: str, state: ComponentState) -> _Probe:
        """What binding *op_id* to *state* would mean right now, cached.

        A probe reads only *state* and where *op_id*'s inputs are, so it
        stays valid until a commit changes that component or moves one
        of those inputs (see :meth:`_schedule_operation`).
        """
        probes = self._probes.get(op_id)
        if probes is None:
            probes = self._probes[op_id] = {}
        probe = probes.get(state.cid)
        if probe is None:
            resident = state.resident
            probe = probes[state.cid] = (
                self._earliest_start(op_id, state),
                1 if state.holds_fluid and op_id not in resident.portions else 0,
                self._availability(state, op_id),
                state.cid,
            )
        return probe

    def _forget_plans(self, consumer: str | None = None) -> None:
        """Drop the cached plan and probes of *consumer* (all: ``None``)."""
        if consumer is None:
            self._plans.clear()
            self._probes.clear()
        else:
            self._plans.pop(consumer, None)
            self._probes.pop(consumer, None)

    def _earliest_start(self, op_id: str, target: ComponentState) -> Seconds:
        """Start time *op_id* achieves on *target* in the current state."""
        start = self._availability(target, op_id)
        t_c = self.transport_time
        for parent in self.assay.parents(op_id):
            location = self._portions[(parent, op_id)]
            if location[0] == "component":
                cid = location[1]
                since = self._fluid_since(cid, parent)
                if cid == target.cid:
                    start = max(start, since)
                else:
                    start = max(start, since + t_c)
            else:  # in channel storage since its eviction
                _, departed, _src = location
                start = max(start, departed + t_c)
        return start

    def _in_place_candidates(self, op_id: str) -> list[str]:
        """The paper's ``O'_s``: same-type parents whose output portion for
        *op_id* still resides inside their component."""
        op = self.assay.operation(op_id)
        candidates = []
        for parent in self.assay.parents(op_id):
            parent_op = self.assay.operation(parent)
            if parent_op.op_type != op.op_type:
                continue
            cid = self._scheduled[parent].component_id
            if self.components[cid].holds_portion(parent, op_id):
                candidates.append(parent)
        return candidates

    # ------------------------------------------------------------------
    # Scheduling one operation
    # ------------------------------------------------------------------
    def _schedule_operation(
        self, op_id: str, target: ComponentState | None = None
    ) -> None:
        op = self.assay.operation(op_id)
        if target is None:
            target = self._select_component(op_id)
        elif target.op_type != op.op_type:
            raise SchedulingError(
                f"operation {op_id} ({op.op_type.value}) cannot run on "
                f"{target.cid}"
            )
        # Earliest start imposed by the component (incl. eviction wash)
        # and by each incoming fluid portion.
        start = self._earliest_start(op_id, target)

        # A probe reads one component and where its operation's inputs
        # are; a plan reads the probes of every component of its type.
        # The commit changes the target and every component a parent
        # portion is pulled out of.  Portions it pushes into channel
        # storage drop their consumers' plans where they move.
        touched = {target.cid}
        for parent in self.assay.parents(op_id):
            location = self._portions[(parent, op_id)]
            if location[0] == "component":
                touched.add(location[1])

        # Commit: evict an unrelated resident fluid, then pull in parents.
        self._evict_unrelated_resident(target, op_id, start)
        for parent in sorted(self.assay.parents(op_id)):
            self._deliver_portion(parent, op_id, target, start)

        end = start + op.duration
        target.begin_operation(op_id, start, end)
        self._scheduled[op_id] = ScheduledOperation(
            op_id=op_id, component_id=target.cid, start=start, end=end
        )
        self._settle_output(op_id, target, end)
        self._forget_plans(op_id)
        for probes in self._probes.values():
            for cid in touched:
                probes.pop(cid, None)
        types = {self.components[cid].op_type for cid in touched}
        plans = self._plans
        for stale in [o for o, p in plans.items() if p[0].op_type in types]:
            del plans[stale]
        if self.instrumentation is not None:
            self.instrumentation.count("schedule.operations")
            self.instrumentation.event(
                "schedule.op",
                op_id=op_id,
                component=target.cid,
                start=start,
                end=end,
            )

    def _fluid_since(self, cid: str, producer: str) -> Seconds:
        state = self.components[cid]
        resident = state.resident
        if resident is None or resident.producer_id != producer:
            raise SchedulingError(
                f"internal error: fluid of {producer} expected inside {cid}"
            )
        return resident.since

    def _evict_unrelated_resident(
        self, target: ComponentState, op_id: str, start: Seconds
    ) -> None:
        """Push a non-parent resident fluid into channel storage.

        The eviction is timed so the Eq. 2 wash completes exactly at
        *start* (``depart = start - wash``), minimising the fluid's
        channel cache time without delaying the operation.
        """
        resident = target.resident
        if resident is None or op_id in resident.portions:
            return
        wash = resident.fluid.wash_time
        depart = max(resident.since, start - wash)
        for consumer in sorted(resident.portions):
            target.remove_portion(consumer, depart, "evict", wash)
            self._portions[(resident.producer_id, consumer)] = (
                "channel",
                depart,
                target.cid,
            )
            self._forget_plans(consumer)
            if self.instrumentation is not None:
                self.instrumentation.count("schedule.evictions")

    def _deliver_portion(
        self, parent: str, op_id: str, target: ComponentState, start: Seconds
    ) -> None:
        """Create the movement bringing ``out(parent)`` to *target* for the
        start of *op_id*, updating portion state and source components."""
        fluid = self.assay.operation(parent).output_fluid
        location = self._portions[(parent, op_id)]
        t_c = self.transport_time

        if location[0] == "channel":
            _, departed, src_cid = location
            arrive = departed + t_c
            movement = FluidMovement(
                producer=parent,
                consumer=op_id,
                fluid=fluid,
                src_component=src_cid,
                dst_component=target.cid,
                depart=departed,
                arrive=arrive,
                consume=start,
                evicted=True,
            )
        else:
            src_cid = location[1]
            source = self.components[src_cid]
            if src_cid == target.cid:
                # Sibling portions of the same output (other consumers of
                # this parent) must vacate before the operation starts;
                # they are identical fluid, so no wash is owed — the
                # remainder is consumed by the operation itself.
                resident = source.resident
                assert resident is not None
                for sibling in sorted(resident.portions - {op_id}):
                    source.remove_portion(sibling, start, "evict", 0.0)
                    self._portions[(parent, sibling)] = (
                        "channel",
                        start,
                        src_cid,
                    )
                    self._forget_plans(sibling)
                source.remove_portion(op_id, start, "in_place", 0.0)
                movement = FluidMovement(
                    producer=parent,
                    consumer=op_id,
                    fluid=fluid,
                    src_component=src_cid,
                    dst_component=target.cid,
                    depart=start,
                    arrive=start,
                    consume=start,
                    in_place=True,
                )
            else:
                since = self._fluid_since(src_cid, parent)
                depart = max(since, start - t_c)
                source.remove_portion(op_id, depart, "transport", fluid.wash_time)
                movement = FluidMovement(
                    producer=parent,
                    consumer=op_id,
                    fluid=fluid,
                    src_component=src_cid,
                    dst_component=target.cid,
                    depart=depart,
                    arrive=depart + t_c,
                    consume=start,
                )
        self._movements.append(movement)
        del self._portions[(parent, op_id)]
        if self.instrumentation is not None:
            self.instrumentation.count("schedule.movements")
            if movement.in_place:
                self.instrumentation.count("schedule.in_place_bindings")

    def _settle_output(
        self, op_id: str, target: ComponentState, end: Seconds
    ) -> None:
        """Store the finished operation's output inside its component.

        Sink outputs leave immediately through an adjacent outlet: the
        wash is still owed, but no routed transport is generated.
        """
        fluid = self.assay.operation(op_id).output_fluid
        children = self.assay.children(op_id)
        if children:
            target.settle_output(op_id, fluid, end, set(children))
            for child in children:
                self._portions[(op_id, child)] = ("component", target.cid)
        else:
            target.settle_output(op_id, fluid, end, {OUTLET})
            target.remove_portion(OUTLET, end, "transport", fluid.wash_time)
