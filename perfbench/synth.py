"""Synthesis requests, untraced and traced layer by layer.

A *request* turns an assay document plus an allocation into the
canonical result text the service would store: load and validate the
assay, digest the problem, run the proposed flow, serialise.  The
independent checker runs after the request, outside its timing.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from typing import Any

from common import Tracer

def _counts(spec) -> tuple[int, int, int, int]:
    a = spec.allocation
    return (a.mixers, a.heaters, a.filters, a.detectors)


def scale_allocation(operations: int) -> tuple[int, int, int, int]:
    """Interpolated linearly between the Scale100 and Scale200 tiers."""
    from repro.benchmarks.synthetic import SCALE_SPECS

    low, high = SCALE_SPECS["Scale100"], SCALE_SPECS["Scale200"]
    fraction = (operations - low.operations) / (high.operations - low.operations)
    return tuple(
        int(a + (b - a) * fraction + 0.5)
        for a, b in zip(_counts(low), _counts(high))
    )


def table1_allocation(operations: int) -> tuple[int, int, int, int]:
    """The allocation of the Table I synthetic assay nearest in size
    (ties go to the smaller one)."""
    from repro.benchmarks.synthetic import SYNTHETIC_SPECS

    nearest = min(
        SYNTHETIC_SPECS.values(),
        key=lambda spec: (abs(operations - spec.operations), spec.operations),
    )
    return _counts(nearest)


def generate_assay(name: str, operations: int, allocation: tuple, seed: int) -> dict[str, Any]:
    from repro.assay.io import assay_to_dict
    from repro.benchmarks.synthetic import SyntheticSpec, generate_synthetic
    from repro.components.allocation import Allocation

    spec = SyntheticSpec(name, operations, Allocation(*allocation), seed=seed)
    return assay_to_dict(generate_synthetic(spec))


@dataclass
class Problem:
    name: str
    assay: dict[str, Any]
    allocation: tuple[int, int, int, int]

    @property
    def operations(self) -> int:
        return len(self.assay["operations"])

    def submission(self, seed: int = 0) -> dict[str, Any]:
        """The service submission document of this problem."""
        keys = ("mixers", "heaters", "filters", "detectors")
        return {
            "assay": self.assay,
            "allocation": dict(zip(keys, self.allocation)),
            "parameters": {"seed": seed},
        }


def large_problems(seed: int, count: int) -> list[Problem]:
    """*count* problems of 150-250 operations, sizes evenly spread over
    that range and shuffled, DAGs drawn from *seed*."""
    rng = random.Random(seed)
    sizes = [150 + round(100 * i / (count - 1)) for i in range(count)]
    rng.shuffle(sizes)
    problems = []
    for index, size in enumerate(sizes):
        allocation = scale_allocation(size)
        name = f"large-{seed}-{index}"
        problems.append(
            Problem(name, generate_assay(name, size, allocation, rng.getrandbits(32)), allocation)
        )
    return problems


@dataclass
class Solved:
    result: Any
    text: str
    digest: str
    seconds: float
    stats: dict[str, float]


def _problem(problem: Problem, seed: int):
    from repro.assay.io import assay_from_dict
    from repro.components.allocation import Allocation
    from repro.core.problem import SynthesisParameters, SynthesisProblem

    return SynthesisProblem(
        assay=assay_from_dict(problem.assay),
        allocation=Allocation(*problem.allocation),
        parameters=SynthesisParameters(seed=seed),
    )


def solve(problem: Problem, seed: int = 0) -> Solved:
    """One untraced request through the library's flow entry point."""
    from repro.core.digest import canonical_json, problem_digest
    from repro.core.synthesizer import synthesize_problem
    from repro.serve.protocol import result_document

    start = time.perf_counter()
    prepared = _problem(problem, seed)
    digest = problem_digest(prepared)
    result = synthesize_problem(prepared)
    text = canonical_json(result_document(result, digest))
    seconds = time.perf_counter() - start
    return Solved(result, text, digest, seconds, {})


def solve_traced(problem: Problem, tracer: Tracer, request: str, seed: int = 0) -> Solved:
    """The same request, calling each layer's public functions in the
    order ``synthesize_problem`` calls them, each inside a span."""
    from repro.core.digest import canonical_json, problem_digest
    from repro.core.metrics import compute_metrics
    from repro.core.solution import SynthesisResult
    from repro.obs.instrument import Instrumentation
    from repro.parallel.multistart import anneal_multistart
    from repro.place.energy import build_connection_priorities
    from repro.route.router import route_tasks
    from repro.schedule.list_scheduler import schedule_assay
    from repro.schedule.validate import validate_schedule
    from repro.serve.protocol import result_document

    instr = Instrumentation()
    with tracer.span("request", request) as root:
        with tracer.span("assay.load"):
            prepared = _problem(problem, seed)
        params = prepared.parameters
        with tracer.span("core.digest"):
            digest = problem_digest(prepared)
        with tracer.span("schedule") as s_schedule:
            schedule = schedule_assay(
                prepared.assay, prepared.allocation, params.transport_time,
                instrumentation=instr,
            )
            validate_schedule(schedule)
        with tracer.span("place") as s_place:
            priorities = build_connection_priorities(
                schedule, beta=params.beta, gamma=params.gamma
            )
            annealed = anneal_multistart(
                prepared.resolved_grid(),
                prepared.footprints(),
                priorities,
                parameters=params.annealing(),
                base_seed=params.seed,
                restarts=params.restarts,
                jobs=params.jobs,
                engine=params.placement_engine,
                instrumentation=instr,
                seed_derivation=params.seed_derivation,
            )
        with tracer.span("route") as s_route:
            routing = route_tasks(
                annealed.placement,
                schedule.transport_tasks(),
                initial_weight=params.initial_cell_weight,
                instrumentation=instr,
                engine=params.route_engine,
            )
        with tracer.span("core.metrics") as s_metrics:
            metrics = compute_metrics(schedule, routing, instrumentation=instr)
        result = SynthesisResult(
            problem=prepared,
            algorithm="ours",
            schedule=schedule,
            placement=annealed.placement,
            routing=routing,
            metrics=replace(metrics, cpu_time=time.perf_counter() - s_schedule.start),
            phase_times={
                "schedule": s_schedule.duration,
                "place": s_place.duration,
                "route": s_route.duration,
                "metrics": s_metrics.duration,
            },
        )
        with tracer.span("core.serialise"):
            text = canonical_json(result_document(result, digest))
    stats = {
        "operations": len(prepared.assay),
        "trials": annealed.trials,
        "accepted": annealed.accepted_moves,
        "paths": len(routing.paths),
        "postponed": sum(1 for path in routing.paths if path.postponement > 0),
    }
    return Solved(result, text, digest, root.duration, stats)


def check_traced(result: Any, tracer: Tracer, request: str):
    """The strict checker, in its own root span (outside the request)."""
    from repro.check import check_result

    with tracer.span("check", request):
        return check_result(result)
