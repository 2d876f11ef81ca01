"""Submission and result documents of the synthesis service.

A *submission* is the JSON body of ``POST /jobs``: either a registered
benchmark name or an inline assay document plus allocation, with an
optional subset of :class:`~repro.core.problem.SynthesisParameters`
overrides and a flow selector::

    {"benchmark": "PCR", "parameters": {"seed": 3, "check": "strict"}}

    {"assay": {...repro-assay JSON...},
     "allocation": {"mixers": 2, "heaters": 1, "filters": 0,
                    "detectors": 1},
     "parameters": {"seed": 1},
     "algorithm": "ours",
     "job_id": "client-chosen-idempotency-key"}

:func:`parse_submission` validates the document (through the same
machinery the CLI uses — bad assays, allocations, or parameter values
fail with the library's own error messages), canonicalises it, and
computes its content address.  The synthesis flow is deterministic for
a fixed problem, so the address doubles as the result-cache key:
submissions with equal digests are *the same job*.

``jobs`` (process-pool width) is rejected in submissions: parallelism
is the server's resource decision, never the client's, and the digest
excludes it by construction (see :mod:`repro.core.digest`).

The *result document* (:func:`result_document`) is the canonical JSON
value a finished job serialises to.  Its canonical text — produced by
:func:`repro.core.digest.canonical_json` — is what the cache stores,
so a cache hit replays the original run's result byte for byte.
"""

from __future__ import annotations

import hashlib
from collections.abc import Mapping
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any

from repro.core.digest import (
    DIGEST_EXCLUDED_PARAMETERS,
    canonical_json,
    problem_digest,
    problem_document,
    text_digest,
)
from repro.errors import ReproError

__all__ = [
    "ALGORITHMS",
    "RESULT_SCHEMA_VERSION",
    "Submission",
    "SubmissionError",
    "parse_submission",
    "result_document",
]

#: Synthesis flows a submission may select.
ALGORITHMS = ("ours", "baseline")

#: Version stamp of the result document.
RESULT_SCHEMA_VERSION = 1

#: Parameters a submission may not set: pool width belongs to the
#: server (and is digest-excluded anyway).
_FORBIDDEN_PARAMETERS = frozenset({"jobs"})

#: Maximum accepted client job-id length (it becomes a journal key and
#: part of URLs).
_MAX_JOB_ID = 120


class SubmissionError(ReproError):
    """Raised when a submission document is malformed (HTTP 400)."""


#: Lazily-computed (once) views of the ``SynthesisParameters`` schema —
#: recomputing ``dataclasses.fields`` per submission is measurable on
#: the service accept path.  ``_PARAMETER_FRAGMENTS`` holds, per digest
#: field in canonical (sorted) order, ``(name, default, '"name":',
#: '"name":default')``.
_PARAMETER_NAMES: frozenset[str] | None = None
_PARAMETER_FRAGMENTS: tuple[tuple[str, Any, str, str], ...] | None = None


def _parameter_names() -> frozenset[str]:
    global _PARAMETER_NAMES
    if _PARAMETER_NAMES is None:
        from repro.core.problem import SynthesisParameters

        _PARAMETER_NAMES = frozenset(
            f.name for f in dataclass_fields(SynthesisParameters)
        )
    return _PARAMETER_NAMES


def _parameter_fragments() -> tuple[tuple[str, Any, str, str], ...]:
    global _PARAMETER_FRAGMENTS
    if _PARAMETER_FRAGMENTS is None:
        from repro.core.problem import SynthesisParameters

        defaults = SynthesisParameters()
        fragments = []
        for name in sorted(
            _parameter_names() - DIGEST_EXCLUDED_PARAMETERS
        ):
            default = getattr(defaults, name)
            key = canonical_json(name) + ":"
            fragments.append(
                (name, default, key, key + canonical_json(default))
            )
        _PARAMETER_FRAGMENTS = tuple(fragments)
    return _PARAMETER_FRAGMENTS


@dataclass(frozen=True)
class Submission:
    """One validated, canonicalised assay submission.

    ``document`` re-parses to an equal submission (it is what the job
    journal stores), ``digest`` is the problem content address, and
    ``cache_key`` namespaces it by algorithm — the baseline flow must
    never serve a cache entry produced by the proposed flow.
    """

    document: dict[str, Any]
    algorithm: str
    digest: str
    cache_key: str
    job_id: str | None = None

    @property
    def benchmark(self) -> str:
        """The assay's display name (benchmark name or assay name)."""
        if "benchmark" in self.document:
            return str(self.document["benchmark"])
        return str(self.document["assay"].get("name", "assay"))

    def problem(self):
        """Build the :class:`~repro.core.problem.SynthesisProblem`."""
        return _build_problem(self.document)


def _check_benchmark_name(name: str) -> None:
    from repro.benchmarks.registry import benchmark_names

    if name not in benchmark_names():
        raise SubmissionError(
            f"unknown benchmark {name!r}; expected one of "
            f"{', '.join(benchmark_names())}"
        )


def _build_problem(document: Mapping[str, Any]):
    from repro.assay.io import assay_from_dict
    from repro.benchmarks.registry import get_benchmark
    from repro.components.allocation import Allocation
    from repro.core.problem import SynthesisParameters, SynthesisProblem

    if "benchmark" in document:
        name = document["benchmark"]
        _check_benchmark_name(name)
        case = get_benchmark(name)
        assay, allocation = case.assay, case.allocation
    else:
        assay = assay_from_dict(document["assay"])
        alloc_doc = document.get("allocation") or {}
        allocation = Allocation(
            mixers=int(alloc_doc.get("mixers", 0)),
            heaters=int(alloc_doc.get("heaters", 0)),
            filters=int(alloc_doc.get("filters", 0)),
            detectors=int(alloc_doc.get("detectors", 0)),
        )
    parameters = SynthesisParameters(**document.get("parameters", {}))
    return SynthesisProblem(
        assay=assay, allocation=allocation, parameters=parameters
    )


#: Benchmark name -> SHA-256 state fed the digest text's constant
#: prefix ``{"allocation":…,"assay":…,"grid":…,"parameters":``.  The
#: top-level keys of the digest document sort in that order, so a
#: registered benchmark's submissions differ only in the parameters
#: object that follows; each digest ``copy()``-es the state instead of
#: re-hashing the (up to ~8.5 KB) assay text.  Populating an entry
#: builds the full problem once, which also runs the
#: assay-vs-allocation feasibility check that is likewise
#: parameter-independent.
_BENCHMARK_PREFIXES: dict[str, Any] = {}


def _benchmark_prefix(name: str) -> Any:
    state = _BENCHMARK_PREFIXES.get(name)
    if state is None:
        document = problem_document(_build_problem({"benchmark": name}))
        state = hashlib.sha256(
            (
                '{"allocation":%s,"assay":%s,"grid":%s,"parameters":'
                % (
                    canonical_json(document["allocation"]),
                    canonical_json(document["assay"]),
                    canonical_json(document["grid"]),
                )
            ).encode("utf-8")
        )
        _BENCHMARK_PREFIXES[name] = state
    return state


def _parameters_text(parameters: Any) -> str:
    """``canonical_json`` of the digest fields of *parameters*.

    A field whose attribute *is* its default object reuses the default
    fragment; any other value — an equal int for a float default
    included, which serialises differently — is rendered afresh.
    """
    members = []
    for name, default, key, default_fragment in _parameter_fragments():
        value = getattr(parameters, name)
        if value is default:
            members.append(default_fragment)
        else:
            members.append(key + canonical_json(value))
    return "{" + ",".join(members) + "}"


def _digest_submission(document: Mapping[str, Any]) -> str:
    """Content address of *document*, validating it along the way.

    Equal to ``problem_digest(_build_problem(document))`` (pinned by
    tests), but for benchmark submissions only the parameters are
    validated, rendered and hashed per call: the constant prefix comes
    from :data:`_BENCHMARK_PREFIXES`.
    """
    if "benchmark" not in document:
        return problem_digest(_build_problem(document))
    from repro.core.problem import SynthesisParameters

    name = document["benchmark"]
    _check_benchmark_name(name)
    parameters = SynthesisParameters(**document.get("parameters", {}))
    state = _benchmark_prefix(name).copy()
    state.update((_parameters_text(parameters) + "}").encode("utf-8"))
    return state.hexdigest()


def parse_submission(data: Any) -> Submission:
    """Validate and canonicalise one submission document.

    Raises :class:`SubmissionError` for structural problems; parameter
    and assay value errors surface as the library's own
    :class:`~repro.errors.ReproError` subclasses (the server maps any
    of them to HTTP 400).
    """
    if not isinstance(data, Mapping):
        raise SubmissionError(
            f"submission must be a JSON object, got {type(data).__name__}"
        )
    unknown = set(data) - {
        "benchmark", "assay", "allocation", "parameters", "algorithm",
        "job_id",
    }
    if unknown:
        raise SubmissionError(
            f"unknown submission field(s): {', '.join(sorted(unknown))}"
        )
    if ("benchmark" in data) == ("assay" in data):
        raise SubmissionError(
            "submission needs exactly one of 'benchmark' or 'assay'"
        )
    algorithm = data.get("algorithm", "ours")
    if algorithm not in ALGORITHMS:
        raise SubmissionError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    parameters = data.get("parameters") or {}
    if not isinstance(parameters, Mapping):
        raise SubmissionError("'parameters' must be a JSON object")
    forbidden = set(parameters) & _FORBIDDEN_PARAMETERS
    if forbidden:
        raise SubmissionError(
            f"parameter(s) not accepted by the service: "
            f"{', '.join(sorted(forbidden))} (pool width is a server "
            "resource decision)"
        )
    unknown_params = set(parameters) - _parameter_names()
    if unknown_params:
        raise SubmissionError(
            f"unknown parameter(s): {', '.join(sorted(unknown_params))}"
        )
    job_id = data.get("job_id")
    if job_id is not None:
        job_id = str(job_id)
        if not job_id or len(job_id) > _MAX_JOB_ID:
            raise SubmissionError(
                f"job_id must be 1..{_MAX_JOB_ID} characters"
            )
        if any(c.isspace() or c == "/" for c in job_id):
            raise SubmissionError(
                "job_id may not contain whitespace or '/'"
            )

    document: dict[str, Any] = {"algorithm": algorithm}
    if "benchmark" in data:
        document["benchmark"] = str(data["benchmark"])
    else:
        document["assay"] = dict(data["assay"])
        document["allocation"] = dict(data.get("allocation") or {})
    if parameters:
        document["parameters"] = dict(parameters)

    # Digesting runs the full validation stack (assay schema,
    # allocation feasibility, parameter ranges) and yields the content
    # address; benchmark submissions take the cached-fragment fast
    # path.
    digest = _digest_submission(document)
    cache_key = digest if algorithm == "ours" else f"{algorithm}-{digest}"
    return Submission(
        document=document,
        algorithm=algorithm,
        digest=digest,
        cache_key=cache_key,
        job_id=job_id,
    )


def result_document(result: Any, digest: str) -> dict[str, Any]:
    """The canonical JSON value of one finished synthesis run.

    Everything in it is a pure function of the submission (metrics,
    engines, check verdict) except ``phase_times``/``cpu_time``, which
    record how long *this* execution took — a cache hit replays them
    verbatim from the original run, which is exactly what
    content-addressed result identity means.
    """
    problem = result.problem
    params = problem.parameters
    grid = result.placement.grid
    metrics = result.metrics.as_dict()
    check = None
    if result.check_report is not None:
        check = {
            "mode": params.check,
            "ok": result.check_report.ok,
            "errors": result.check_report.error_count,
        }
    document: dict[str, Any] = {
        "schema": RESULT_SCHEMA_VERSION,
        "digest": digest,
        "benchmark": problem.assay.name,
        "algorithm": result.algorithm,
        "seed": params.seed,
        "engines": {
            "placement": params.placement_engine,
            "route": params.route_engine,
        },
        "grid": [grid.width, grid.height],
        "metrics": metrics,
        # Identity proof of the solution: digest of the deterministic
        # metrics (cpu time is measurement, not solution).
        "solution_digest": text_digest(
            canonical_json(
                {k: v for k, v in metrics.items() if k != "cpu_time_s"}
            )
        ),
        "phase_times": {k: round(v, 6) for k, v in result.phase_times.items()},
        "check": check,
        "summary": result.summary(),
    }
    if result.portfolio is not None:
        document["portfolio"] = {
            "winner": result.portfolio.get("winner"),
            "winner_spec": result.portfolio.get("winner_spec"),
        }
    return document
