"""Pinned solution bytes: every output of the default engines, frozen.

Each digest is SHA-256 over the canonical JSON of the whole archived
solution (:func:`repro.core.io.result_to_dict`): schedule, placement,
every routed path and the metrics, minus the one field that is not a
function of the problem (``cpu_time_s``).  A performance change to any
engine must leave every digest here untouched; a change that alters a
solution on purpose must update the digest and say why.

Two families are pinned:

* the 11 registered benchmarks x seeds 0/1 x both flows, on the short
  annealing schedule the parity suites use;
* three generated problems of 150-250 operations on the paper-default
  schedule, large enough (more than 21 components) that the annealer's
  move sampler takes CPython's set-based ``random.sample`` branch.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.registry import benchmark_names, get_benchmark
from repro.benchmarks.synthetic import SyntheticSpec, generate_synthetic
from repro.components.allocation import Allocation
from repro.core.baseline import synthesize_problem_baseline
from repro.core.digest import canonical_json, text_digest
from repro.core.io import result_to_dict
from repro.core.problem import SynthesisParameters, SynthesisProblem
from repro.core.synthesizer import synthesize_problem

_FLOWS = {"ours": synthesize_problem, "baseline": synthesize_problem_baseline}


def solution_digest(result) -> str:
    document = result_to_dict(result)
    del document["metrics"]["cpu_time_s"]
    return text_digest(canonical_json(document))


def _short(seed: int) -> SynthesisParameters:
    return SynthesisParameters(
        initial_temperature=50.0,
        min_temperature=1.0,
        cooling_rate=0.7,
        iterations_per_temperature=25,
        seed=seed,
    )


REGISTERED = {
    ("PCR", 0, "ours"): "9eafd6b2c86415360f68ad8f50e4c507003a58af50c6fddf088177574ccfa69e",
    ("PCR", 0, "baseline"): "5e34d36daee7227d6b1007b13cc0769eab3c8e683560cfc9f13bc6f51440ff04",
    ("PCR", 1, "ours"): "e0a5d630b9ed0516a27c82e26b3e75a336e56e2792a8c68d33864e26c09c290d",
    ("PCR", 1, "baseline"): "5e34d36daee7227d6b1007b13cc0769eab3c8e683560cfc9f13bc6f51440ff04",
    ("IVD", 0, "ours"): "0baa8cf8e67ce511cc70a9cfd284c557c07ff74352ca7f5075933e0a330e310f",
    ("IVD", 0, "baseline"): "a4d9625d6cd047e70c7669c0051df424b36136a0fb9192cad740382491d6b4bf",
    ("IVD", 1, "ours"): "b6c41daa8291e6e0967a06e7512377edb44ad9bf08b759691bfdd36ac1f058c2",
    ("IVD", 1, "baseline"): "a4d9625d6cd047e70c7669c0051df424b36136a0fb9192cad740382491d6b4bf",
    ("CPA", 0, "ours"): "4f7c81462a53f8d5c936e3c9ac86110745d6ae90959070c153e8e61281d78096",
    ("CPA", 0, "baseline"): "787e3b1220740b933708a075fca14e264e3c77a1fd558a9f03aff2c2045058b6",
    ("CPA", 1, "ours"): "9a57e4b7805ecdfd758af97b8f245f0f5934d21f3232ad50c3ef15feadebbe4a",
    ("CPA", 1, "baseline"): "787e3b1220740b933708a075fca14e264e3c77a1fd558a9f03aff2c2045058b6",
    ("Synthetic1", 0, "ours"): "993ae36d8007a76efc16d1a5977a7a6ea4c4f00fb934a9f760fd00baf44294e7",
    ("Synthetic1", 0, "baseline"): "09341e2d43e45d4fdd210a09ddc4ce7ad4516dc9d33a70a039d7a4b012fe3e32",
    ("Synthetic1", 1, "ours"): "e5d70a8f91fa7cb7f6b91f7fde91dc6c616181ffb730fd8af1a38546f830b8cc",
    ("Synthetic1", 1, "baseline"): "09341e2d43e45d4fdd210a09ddc4ce7ad4516dc9d33a70a039d7a4b012fe3e32",
    ("Synthetic2", 0, "ours"): "01b0b047ba33494bd43eb379fbf266f4d8bf6ee03b0aaa48c6efc317710e195a",
    ("Synthetic2", 0, "baseline"): "2fd185b13eca27ac5f8890b0648ec61da862aaff9c29b13f20d6a05b2632b992",
    ("Synthetic2", 1, "ours"): "a4e7b1946eb0c03612303c8b48373f8fdb44d6ebf5952e29219df1788fac9a2a",
    ("Synthetic2", 1, "baseline"): "2fd185b13eca27ac5f8890b0648ec61da862aaff9c29b13f20d6a05b2632b992",
    ("Synthetic3", 0, "ours"): "1941dcf4779d21b4fe99284b0b882ebaac6d8c650e4c20ccb02613abb9f1fa49",
    ("Synthetic3", 0, "baseline"): "f0fe3728dd27578607b6c860d3a449585be1c108d8806cdb41c312d8dc980eb6",
    ("Synthetic3", 1, "ours"): "5b43b45679243b1b0b4f5dd769270367b97052341d575d8ff60b8bd47dd5a944",
    ("Synthetic3", 1, "baseline"): "f0fe3728dd27578607b6c860d3a449585be1c108d8806cdb41c312d8dc980eb6",
    ("Synthetic4", 0, "ours"): "f388a03931c1835d6c4d9dd6667d66f0ac50afbfd40843719270c2ca89f2767f",
    ("Synthetic4", 0, "baseline"): "bf4f4809bed45c4496be1efcbe26c88705c9561cdabc9ede25e5b4f638f5401d",
    ("Synthetic4", 1, "ours"): "84c878039166cb5640531fd1c59882b42bf1b571ca15c8c9f5647086d2050954",
    ("Synthetic4", 1, "baseline"): "bf4f4809bed45c4496be1efcbe26c88705c9561cdabc9ede25e5b4f638f5401d",
    ("Fig2a", 0, "ours"): "eb406141661b7ec6f7b8956d55f58e0e681d0d930d6f8badfcf8db6e01d60fd5",
    ("Fig2a", 0, "baseline"): "a80f0767bb3545a65e1f331d65885b3de44b22be5e7e41e409865c843f677a98",
    ("Fig2a", 1, "ours"): "059e4b7d261dff9fbc9992f3596d850b2c41450b342cde7f710c23d7c7faac33",
    ("Fig2a", 1, "baseline"): "a80f0767bb3545a65e1f331d65885b3de44b22be5e7e41e409865c843f677a98",
    ("Scale50", 0, "ours"): "cec0879d10f11d6a3660ad7e997cb2a6bec2eca64c98aff699e50ae811f12ef9",
    ("Scale50", 0, "baseline"): "59b1c4ce69f7db0c4d485e3bbd1f20129826533fe5319caaed648de1e2199eb4",
    ("Scale50", 1, "ours"): "5d7b7d38656cc485a083c179936003989825dfaa15aa6f74d2c369e8b784a96e",
    ("Scale50", 1, "baseline"): "59b1c4ce69f7db0c4d485e3bbd1f20129826533fe5319caaed648de1e2199eb4",
    ("Scale100", 0, "ours"): "ed919e54ccaa8b339ff4bfab9a8eefe17d74b2b1c9a89c16e9662a664ed5acb0",
    ("Scale100", 0, "baseline"): "47f0f568d18d7ff2863f9f9e4e73b38d17b2d034efc93e3cb0e3130336908986",
    ("Scale100", 1, "ours"): "3ec5c43ad2fb8f392c592518b69810802455b9bdef4f933e31638bc18146dbf9",
    ("Scale100", 1, "baseline"): "47f0f568d18d7ff2863f9f9e4e73b38d17b2d034efc93e3cb0e3130336908986",
    ("Scale200", 0, "ours"): "303ca309c69841452df3afd7b311dcd210145073b9a67779e075dd1995744ac0",
    ("Scale200", 0, "baseline"): "67247b851a2de795870dd952f4a456f469df42b35a645103a1c154c2444dbde5",
    ("Scale200", 1, "ours"): "24b4334b1eef5af8d9d0b438e9e95273061ba676aace15ac6b51872635554084",
    ("Scale200", 1, "baseline"): "67247b851a2de795870dd952f4a456f469df42b35a645103a1c154c2444dbde5",
}

#: (name, operations, allocation, generator seed): sizes span 150-250.
GENERATED_SPECS = (
    ("gen150", 150, (12, 7, 6, 4), 7150),
    ("gen200", 200, (14, 8, 7, 5), 7200),
    ("gen250", 250, (17, 10, 8, 6), 7250),
)

GENERATED = {
    "gen150": "9d887394beca5cd8a00ef7b390ef00f44562f8437822cbb8fa367968f71ae4b0",
    "gen200": "876ee393046f2a4505f4068229fd7f2bb7d9a4c3bacfcd1ab94d0a35bf81fa40",
    "gen250": "6b5e4b8bd935eeef9eb366b409ed14a74acb3cf40052b1c95dfeb0435e1cf42d",
}


@pytest.mark.parametrize(
    "name,seed,flow",
    [
        (name, seed, flow)
        for name in benchmark_names()
        for seed in (0, 1)
        for flow in _FLOWS
    ],
)
def test_registered_benchmark_solution_bytes(name, seed, flow):
    case = get_benchmark(name)
    problem = SynthesisProblem(
        assay=case.assay, allocation=case.allocation, parameters=_short(seed)
    )
    result = _FLOWS[flow](problem)
    assert solution_digest(result) == REGISTERED[(name, seed, flow)]


@pytest.mark.parametrize("name,operations,allocation,seed", GENERATED_SPECS)
def test_generated_problem_solution_bytes(name, operations, allocation, seed):
    allocation = Allocation(*allocation)
    assay = generate_synthetic(SyntheticSpec(name, operations, allocation, seed))
    problem = SynthesisProblem(
        assay=assay, allocation=allocation, parameters=SynthesisParameters(seed=3)
    )
    result = synthesize_problem(problem)
    assert len(problem.footprints()) > 21  # the set-based sample branch
    assert solution_digest(result) == GENERATED[name]
