"""Submission validation and content addressing."""

from __future__ import annotations

import json

import pytest

from repro.benchmarks.registry import benchmark_names
from repro.core.digest import problem_digest
from repro.errors import ReproError
from repro.serve.protocol import (
    Submission,
    SubmissionError,
    parse_submission,
    result_document,
)


def _pcr(seed: int = 1, **extra) -> dict:
    return {"benchmark": "PCR", "parameters": {"seed": seed}, **extra}


class TestParseSubmission:
    def test_benchmark_submission(self):
        submission = parse_submission(_pcr())
        assert isinstance(submission, Submission)
        assert submission.benchmark == "PCR"
        assert submission.algorithm == "ours"
        assert submission.cache_key == submission.digest
        assert len(submission.digest) == 64

    def test_digest_matches_the_problem(self):
        submission = parse_submission(_pcr(seed=5))
        assert submission.digest == problem_digest(submission.problem())

    def test_equal_submissions_share_a_digest(self):
        assert (
            parse_submission(_pcr()).digest == parse_submission(_pcr()).digest
        )

    def test_seed_splits_the_digest(self):
        assert (
            parse_submission(_pcr(seed=1)).digest
            != parse_submission(_pcr(seed=2)).digest
        )

    def test_baseline_namespaces_the_cache_key(self):
        ours = parse_submission(_pcr())
        base = parse_submission(_pcr(algorithm="baseline"))
        # Same problem, same digest — but the flows produce different
        # results, so the cache keys must differ.
        assert base.digest == ours.digest
        assert base.cache_key == f"baseline-{base.digest}"
        assert base.cache_key != ours.cache_key

    def test_non_object_rejected(self):
        with pytest.raises(SubmissionError, match="JSON object"):
            parse_submission([1, 2])

    def test_unknown_field_rejected(self):
        with pytest.raises(SubmissionError, match="unknown submission"):
            parse_submission(_pcr(surprise=True))

    def test_benchmark_and_assay_are_exclusive(self):
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"benchmark": "PCR", "assay": {}})
        with pytest.raises(SubmissionError, match="exactly one"):
            parse_submission({"parameters": {}})

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SubmissionError, match="unknown benchmark"):
            parse_submission({"benchmark": "NoSuchAssay"})

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SubmissionError, match="unknown algorithm"):
            parse_submission(_pcr(algorithm="magic"))

    def test_jobs_parameter_rejected(self):
        # Pool width is the server's resource decision.
        with pytest.raises(SubmissionError, match="jobs"):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"jobs": 8}}
            )

    def test_unknown_parameter_rejected(self):
        with pytest.raises(SubmissionError, match="unknown parameter"):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"tempurature": 1.0}}
            )

    def test_bad_parameter_value_raises_repro_error(self):
        with pytest.raises(ReproError):
            parse_submission(
                {"benchmark": "PCR", "parameters": {"check": "bogus"}}
            )

    def test_job_id_validation(self):
        assert parse_submission(_pcr(job_id="run-1")).job_id == "run-1"
        with pytest.raises(SubmissionError, match="whitespace"):
            parse_submission(_pcr(job_id="has space"))
        with pytest.raises(SubmissionError, match="whitespace"):
            parse_submission(_pcr(job_id="a/b"))
        with pytest.raises(SubmissionError, match="characters"):
            parse_submission(_pcr(job_id="x" * 200))


def _defaults(roundtrip: bool) -> dict:
    """Every digest field of ``SynthesisParameters`` at its default:
    the default objects themselves, or equal copies decoded from JSON."""
    from dataclasses import fields

    from repro.core.digest import DIGEST_EXCLUDED_PARAMETERS
    from repro.core.problem import SynthesisParameters

    defaults = SynthesisParameters()
    document = {
        f.name: getattr(defaults, f.name)
        for f in fields(SynthesisParameters)
        if f.name not in DIGEST_EXCLUDED_PARAMETERS
    }
    return json.loads(json.dumps(document)) if roundtrip else document


#: Parameter documents whose digests must not depend on the path taken.
_PARAMETER_DOCUMENTS = {
    "none": None,
    "seed": {"seed": 4},
    "defaults": _defaults(roundtrip=False),
    "defaults-from-json": _defaults(roundtrip=True),
    "int-for-float": {"transport_time": 2},
    "ints-non-default": {"cooling_rate": 1, "beta": 0},
    "strings": {"route_engine": "reference", "check": "strict"},
}


class TestDigestFastPath:
    """Benchmark submissions hash a cached prefix plus a parameters
    text assembled from per-field fragments; the result must equal the
    digest of the fully built problem."""

    @pytest.mark.parametrize("algorithm", ["ours", "baseline"])
    @pytest.mark.parametrize("params", sorted(_PARAMETER_DOCUMENTS))
    @pytest.mark.parametrize("name", benchmark_names())
    def test_equals_the_slow_path(self, name, params, algorithm):
        from repro.serve.protocol import _build_problem

        doc = {"benchmark": name, "algorithm": algorithm}
        if _PARAMETER_DOCUMENTS[params] is not None:
            doc["parameters"] = dict(_PARAMETER_DOCUMENTS[params])
        submission = parse_submission(doc)
        assert submission.digest == problem_digest(_build_problem(doc))

    def test_int_for_float_changes_the_digest(self):
        # 2 and 2.0 serialise differently, so an equal-but-not-identical
        # value must not reuse the default's fragment.
        assert (
            parse_submission(
                {"benchmark": "PCR", "parameters": {"transport_time": 2}}
            ).digest
            != parse_submission({"benchmark": "PCR"}).digest
        )

    @pytest.mark.parametrize(
        "doc, digest",
        [
            (
                {"benchmark": "PCR"},
                "a4d609fede25d202dc0b4401f448086c"
                "383fc7bf0ec1293d4a3c09c2ed4d4c23",
            ),
            (
                {"benchmark": "PCR", "parameters": {"transport_time": 2.0}},
                "a4d609fede25d202dc0b4401f448086c"
                "383fc7bf0ec1293d4a3c09c2ed4d4c23",
            ),
            (
                {"benchmark": "PCR", "parameters": {"transport_time": 2}},
                "0fa34006df04448976a77514c9240f45"
                "d0cc548365c779f12a14398c1fd0abbc",
            ),
            (
                {"benchmark": "CPA", "parameters": {"seed": 7}},
                "bc8f6b0420878f32fd938d39f835633f"
                "b95becc8e337c8c47255cf47a1f11bf8",
            ),
            (
                {"benchmark": "IVD", "parameters": {"transport_time": 2}},
                "9e6cc74b16aa242be46f820d1bbc1d23"
                "fcd9cf491dfe6f9c16361cd288a8c8f7",
            ),
            (
                {
                    "benchmark": "Synthetic1",
                    "parameters": {
                        "route_engine": "reference", "check": "strict",
                    },
                    "algorithm": "baseline",
                },
                "b109b2f6e5383794ce49ece0aa2a7aa9"
                "12f07d4d64ceda967deda1b0182da79a",
            ),
            (
                {
                    "benchmark": "Scale200",
                    "parameters": {
                        "seed": 90001, "placement_engine": "batch",
                        "sa_batch_size": 8,
                    },
                },
                "b990a4cf98365d4edb0645338bf1ec66"
                "0107b626cc73bffa6d2e45b1e80c8fbe",
            ),
            (
                {
                    "benchmark": "Fig2a",
                    "parameters": {"cooling_rate": 0.95, "check": "report"},
                },
                "c8351be92b3dd6e99386549d2ed6d5fa"
                "9d86faa5ee8ed3859f74fb165ba879f1",
            ),
        ],
    )
    def test_recorded_digests(self, doc, digest):
        # Recorded before benchmark digests took the fragment path: a
        # cache written by an older server must still be hit.
        assert parse_submission(doc).digest == digest


class TestResultDocument:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.benchmarks.registry import get_benchmark
        from repro.core.problem import SynthesisParameters, SynthesisProblem
        from repro.core.synthesizer import synthesize_problem

        case = get_benchmark("PCR")
        problem = SynthesisProblem(
            assay=case.assay,
            allocation=case.allocation,
            parameters=SynthesisParameters(seed=1),
        )
        return synthesize_problem(problem)

    def test_document_is_json_serialisable(self, result):
        document = result_document(result, "d" * 64)
        json.dumps(document)
        assert document["schema"] == 1
        assert document["digest"] == "d" * 64
        assert document["benchmark"] == "PCR"
        assert document["seed"] == 1
        assert "metrics" in document and "summary" in document

    def test_solution_digest_excludes_cpu_time(self, result):
        # cpu_time_s is a measurement, not part of the solution — two
        # runs of the same problem must agree on solution_digest.
        document = result_document(result, "d" * 64)
        assert "cpu_time_s" in document["metrics"]
        hashed = {
            k: v
            for k, v in document["metrics"].items()
            if k != "cpu_time_s"
        }
        from repro.core.digest import canonical_json, text_digest

        assert document["solution_digest"] == text_digest(
            canonical_json(hashed)
        )
