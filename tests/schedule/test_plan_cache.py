"""Schedule identity of the Algorithm 1 plan cache.

:class:`~repro.schedule.engine.SchedulerEngine` keeps each ready
operation's plan (and the per-component probes it is made of) across
commits and drops only what a commit can change.  These tests hold it
to the schedule an engine that re-plans everything after every commit
produces, byte for byte:

* on whole generated problems (Hypothesis), with allocations down to
  one component per type and zero or extreme wash times;
* against SHA-256 digests of every registered benchmark's schedule
  under both flows, and of 96 generated problems, recorded with the
  engine before it cached plans.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assay.fluids import Fluid
from repro.assay.graph import SequencingGraph
from repro.benchmarks.registry import benchmark_names, get_benchmark
from repro.benchmarks.synthetic import SyntheticSpec, generate_synthetic
from repro.components.allocation import Allocation
from repro.schedule import schedule_assay, schedule_assay_baseline
from repro.schedule.engine import (
    BindingPolicy,
    OrderPolicy,
    SchedulerEngine,
    SchedulingPolicy,
)


class FullReplanEngine(SchedulerEngine):
    """Drops every cached plan after every commit: re-plans from scratch."""

    def _schedule_operation(self, op_id, target=None):
        super()._schedule_operation(op_id, target)
        self._forget_plans()


def schedule_digest(schedule) -> str:
    """SHA-256 of everything a schedule decides, in commit order."""
    document = {
        "operations": [
            [r.op_id, r.component_id, r.start, r.end]
            for r in schedule.operations.values()
        ],
        "movements": [
            [
                m.producer, m.consumer, m.src_component, m.dst_component,
                m.depart, m.arrive, m.consume, m.in_place, m.evicted,
            ]
            for m in schedule.movements
        ],
        "components": [
            [cid, s.executed_ops, s.ready_time, s.busy_until, s.wash_time_total]
            for cid, s in sorted(schedule.components.items())
        ],
    }
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


POLICIES = [
    SchedulingPolicy(order, binding)
    for order in OrderPolicy
    for binding in BindingPolicy
]


def with_wash_times(assay: SequencingGraph, wash_times: list[float]):
    """*assay* with each operation's output fluid given a wash time."""
    operations = [
        dataclasses.replace(
            assay.operation(op_id),
            output_fluid=Fluid.with_wash_time(f"out({op_id})", wash),
        )
        for op_id, wash in zip(assay.operation_ids, wash_times)
    ]
    return SequencingGraph(assay.name, operations, assay.edges)


@st.composite
def problems(draw):
    """Whole generated problems: DAG, allocation, wash times, t_c."""
    allocation = Allocation(
        mixers=draw(st.integers(1, 3)),
        heaters=draw(st.integers(1, 3)),
        filters=draw(st.integers(1, 3)),
        detectors=draw(st.integers(0, 2)),
    )
    spec = SyntheticSpec(
        "generated",
        draw(st.integers(2, 45)),
        allocation,
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    assay = generate_synthetic(spec)
    washes = draw(st.sampled_from(["model", "zero", "extreme"]))
    if washes == "zero":
        assay = with_wash_times(assay, [0.0] * len(assay))
    elif washes == "extreme":
        assay = with_wash_times(
            assay,
            draw(
                st.lists(
                    st.sampled_from([0.0, 1e-3, 500.0]),
                    min_size=len(assay),
                    max_size=len(assay),
                )
            ),
        )
    transport_time = draw(st.sampled_from([0.0, 2.0, 7.5]))
    return assay, allocation, transport_time


@settings(max_examples=150, deadline=None)
@given(problems())
def test_cached_plans_match_full_replanning(problem):
    assay, allocation, transport_time = problem
    for policy in POLICIES:
        cached = SchedulerEngine(assay, allocation, policy, transport_time)
        fresh = FullReplanEngine(assay, allocation, policy, transport_time)
        assert schedule_digest(cached.run()) == schedule_digest(fresh.run())


def test_full_replan_engine_really_replans():
    """The oracle keeps no plan across commits (else it proves nothing)."""
    case = get_benchmark("CPA")
    engine = FullReplanEngine(
        case.assay, case.allocation, SchedulingPolicy.ours()
    )
    original = engine._forget_plans
    sizes = []

    def spy(consumer=None):
        original(consumer)
        if consumer is None:
            sizes.append(len(engine._plans) + len(engine._probes))

    engine._forget_plans = spy
    engine.run()
    assert sizes and set(sizes) == {0}


#: (ours, baseline) schedule digests of every registered benchmark,
#: recorded with the engine that re-planned every ready operation on
#: every dequeue.
BENCHMARK_DIGESTS = {
    "PCR": (
        "b9d8b24895c2ebfdffa8dd788343f9e964fbb3ca8476ca0aec1f2a311776c79a",
        "657ccbb4825c643cff111c8c77cd49813d31b442e8ea9b95f3629a0d7a9c2b43",
    ),
    "IVD": (
        "861bbbbc28698b4598f1fac13c0c5ebed3dc0e76caaf2503b55cee715b9d360d",
        "19648c941b7929c71ed642f5e10fe28d2db58e4ad522e9cd0cd2a934725b9608",
    ),
    "CPA": (
        "73a696a6cbecf465aaa8b2ea1962701447dfd9b34cad89dafca8d10a0ddf0e7b",
        "8adc31f8d48b460bb8d235c0f218229946b26b39dbc9ec76a41bc53dbd00b8f1",
    ),
    "Synthetic1": (
        "acf9842016c19152af1259bbc932fb8e00416451af1e02e4948ec5e055ddfa8a",
        "7b68672ed6792683e2bf3f5cfe02da9950760927d34c66305749324b531c8ee4",
    ),
    "Synthetic2": (
        "3e5e459a1dab5b9e90aa6437470e9464be480397ec05ef02aca7ba4ef63d7b9e",
        "5b3a79f039b69777cdc517326cca5a869d2c687b1e7d63f5db60892f383177c8",
    ),
    "Synthetic3": (
        "8c20f2f7d61d429bf1fac31ea413d23d97df994d42f686bb08c16a149c3f4288",
        "c4ccb72ab86d740f18416788fd9695e77c3624bde1cf8adb95bac6b7b44a41f3",
    ),
    "Synthetic4": (
        "2d0af649733fa906de6fd9bfa526430de0b16f5e694555d324c6ac285e3ff694",
        "64c85f1fced687b3efc4b92abf2cb1860f8bf45a19f783d47a6639208eef1db3",
    ),
    "Fig2a": (
        "8b725e2c218463fe8aff4069ed3f769fc178add7dcbf650ec1f7d3cc74c4633c",
        "dc8d040bc536ea83ba31403f28792b7afbbe7d617db96a0155da4144b8ea1109",
    ),
    "Scale50": (
        "d25d7f8c3b5ef2c750c65c4caf0954a51b8675e41659c2dfd349094bc5e9ef52",
        "5f4c05f646ccbcc1a03194c2cd27cebdb7cb761e793ee89f8975f9e63e1ca5bd",
    ),
    "Scale100": (
        "ee5512e287bb1e5af2f94b347dfbba7cb1e43da2c3678bd7e49e701bbc5083a8",
        "bedbff1529f6a9963be1961b84f6ec8f4549ab516f925e7bb11f87bdbf7da3b3",
    ),
    "Scale200": (
        "1a36b97a3cafdb235a508a9024ec60a79ab6fc5b49a179f547c5b8d3e2735844",
        "410f911988e11373b164ab2964cbfa5b9fe8ab33bea8877105124a67366d53dd",
    ),
}


def test_every_benchmark_is_pinned():
    assert sorted(BENCHMARK_DIGESTS) == sorted(benchmark_names())


@pytest.mark.parametrize("name", sorted(BENCHMARK_DIGESTS))
def test_benchmark_schedules_unchanged(name):
    case = get_benchmark(name)
    ours, baseline = BENCHMARK_DIGESTS[name]
    assert schedule_digest(schedule_assay(case.assay, case.allocation)) == ours
    assert (
        schedule_digest(schedule_assay_baseline(case.assay, case.allocation))
        == baseline
    )


def generated_problems(count: int = 96):
    """Seeded problems of 10-250 operations over varied allocations."""
    rng = random.Random(12)
    for index in range(count):
        operations = rng.randint(10, 250)
        allocation = Allocation(
            rng.randint(1, 14), rng.randint(1, 8),
            rng.randint(1, 7), rng.randint(0, 5),
        )
        spec = SyntheticSpec(
            f"g{index}", operations, allocation, seed=1000 + index
        )
        yield generate_synthetic(spec), allocation


#: SHA-256 over the (ours, baseline) schedule digests of the 96
#: :func:`generated_problems`, recorded like :data:`BENCHMARK_DIGESTS`.
GENERATED_DIGEST = (
    "df35d7c909f3078e6298d9011172ab563b73a53b917d5d7346422b4734dffdc7"
)


def test_generated_schedules_unchanged():
    combined = hashlib.sha256()
    for assay, allocation in generated_problems():
        combined.update(
            schedule_digest(schedule_assay(assay, allocation)).encode()
        )
        combined.update(
            schedule_digest(schedule_assay_baseline(assay, allocation)).encode()
        )
    assert combined.hexdigest() == GENERATED_DIGEST
