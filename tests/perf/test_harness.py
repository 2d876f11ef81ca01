"""Tests for the perf benchmark harness and its reports."""

from __future__ import annotations

import json

import pytest

from repro.perf.harness import (
    BenchComparison,
    BenchRun,
    RouteBenchComparison,
    measure_jobs_scaling,
    measure_multistart,
    run_engine,
    run_route_suite,
    run_suite,
)
from repro.perf.report import (
    comparisons_to_payload,
    render_bench_table,
    render_multistart_table,
    render_route_table,
    render_scaling_table,
    route_comparisons_to_payload,
    write_bench_json,
)


def fake_run(engine, place=1.0, total=1.5, energy=42.0):
    return BenchRun(
        benchmark="PCR",
        engine=engine,
        seed=1,
        repeats=2,
        placement_energy=energy,
        phase_times={"schedule": 0.01, "place": place, "route": 0.2},
        total_time=total,
    )


def fake_comparison(ref_place=1.0, inc_place=0.25, inc_energy=42.0):
    return BenchComparison(
        benchmark="PCR",
        reference=fake_run("reference", place=ref_place),
        incremental=fake_run("incremental", place=inc_place, total=0.6,
                             energy=inc_energy),
    )


def fake_route_run(route_engine, route=0.2, total=1.5, digest="abc"):
    return BenchRun(
        benchmark="Scale50",
        engine="incremental",
        seed=1,
        repeats=2,
        placement_energy=42.0,
        phase_times={"schedule": 0.01, "place": 0.5, "route": route},
        total_time=total,
        route_engine=route_engine,
        paths_digest=digest,
        postponed_tasks=3,
        postponement_total=6.0,
    )


def fake_route_comparison(ref_route=0.4, flat_route=0.1, flat_digest="abc"):
    return RouteBenchComparison(
        benchmark="Scale50",
        reference=fake_route_run("reference", route=ref_route),
        flat=fake_route_run("flat", route=flat_route, total=0.9,
                            digest=flat_digest),
    )


class TestBenchRun:
    def test_phase_accessors(self):
        run = fake_run("reference")
        assert run.place_time == 1.0
        assert run.route_time == 0.2

    def test_speedups(self):
        comparison = fake_comparison()
        assert comparison.place_speedup == pytest.approx(4.0)
        assert comparison.total_speedup == pytest.approx(2.5)
        assert comparison.energies_match

    def test_energy_mismatch_detected(self):
        comparison = fake_comparison(inc_energy=41.0)
        assert not comparison.energies_match


class TestRunEngine:
    def test_validates_engine(self):
        with pytest.raises(ValueError, match="unknown placement engine"):
            run_engine("PCR", "warp", repeats=1)

    def test_validates_repeats(self):
        with pytest.raises(ValueError, match="repeats"):
            run_engine("PCR", "incremental", repeats=0)

    def test_measures_pcr(self):
        run = run_engine("PCR", "incremental", seed=1, repeats=1)
        assert run.benchmark == "PCR"
        assert run.engine == "incremental"
        assert run.place_time > 0
        assert run.total_time >= run.place_time
        assert run.placement_energy > 0
        assert set(run.phase_times) >= {"schedule", "place", "route"}

    def test_median_and_spread_over_repeats(self):
        run = run_engine("PCR", "incremental", seed=1, repeats=3)
        assert run.repeats == 3
        assert set(run.phase_min) == set(run.phase_times) == set(run.phase_max)
        for phase, med in run.phase_times.items():
            assert run.phase_min[phase] <= med <= run.phase_max[phase]
        assert run.total_min <= run.total_time <= run.total_max


class TestRunSuite:
    def test_engines_agree_on_energy(self):
        (comparison,) = run_suite(["PCR"], seed=1, repeats=1)
        assert comparison.benchmark == "PCR"
        assert comparison.energies_match
        assert comparison.reference.placement_energy == (
            comparison.incremental.placement_energy
        )

    def test_pooled_suite_matches_serial(self):
        serial = run_suite(["PCR"], seed=1, repeats=1, jobs=1)
        pooled = run_suite(["PCR"], seed=1, repeats=1, jobs=2)
        assert [c.benchmark for c in serial] == [c.benchmark for c in pooled]
        for a, b in zip(serial, pooled):
            assert a.reference.placement_energy == b.reference.placement_energy
            assert a.incremental.placement_energy == b.incremental.placement_energy
            assert a.reference.engine == b.reference.engine == "reference"


class TestParallelMeasurements:
    def test_jobs_scaling_rows(self):
        rows = measure_jobs_scaling(["PCR"], jobs_levels=(1,), seed=1, repeats=1)
        (row,) = rows
        assert row["jobs"] == 1
        assert row["wall_s"] > 0
        assert row["speedup_vs_serial"] == 1.0
        assert row["cpu_count"] >= 1
        assert "1.00x" in render_scaling_table(rows)

    def test_multistart_rows_never_degrade(self):
        rows = measure_multistart(["PCR"], restarts=3, seed=1)
        (row,) = rows
        assert row["benchmark"] == "PCR"
        assert row["restarts"] == 3
        assert row["multistart_energy"] <= row["single_energy"]
        assert row["non_degraded"] is True
        assert "ok" in render_multistart_table(rows)


class TestReport:
    def test_payload_schema(self):
        payload = comparisons_to_payload(
            [fake_comparison()], label="BENCH_test", quick=True
        )
        assert payload["label"] == "BENCH_test"
        assert payload["quick"] is True
        assert payload["all_energies_match"] is True
        assert payload["max_place_speedup"] == pytest.approx(4.0)
        (row,) = payload["benchmarks"]
        assert row["benchmark"] == "PCR"
        assert row["reference"]["engine"] == "reference"
        assert row["incremental"]["engine"] == "incremental"
        assert row["place_speedup"] == pytest.approx(4.0)

    def test_payload_empty(self):
        payload = comparisons_to_payload([], label="x")
        assert payload["benchmarks"] == []
        assert payload["max_place_speedup"] is None
        assert payload["all_energies_match"] is True

    def test_payload_records_repeat_and_host_metadata(self):
        payload = comparisons_to_payload([fake_comparison()], label="t")
        (row,) = payload["benchmarks"]
        assert row["repeats"] == 2
        assert row["statistic"] == "median"
        assert payload["cpu_count"] >= 1
        assert payload["jobs"] == 1

    def test_payload_optional_parallel_sections(self):
        scaling = [
            {"jobs": 1, "wall_s": 2.0, "speedup_vs_serial": 1.0, "cpu_count": 4},
            {"jobs": 4, "wall_s": 0.8, "speedup_vs_serial": 2.5, "cpu_count": 4},
        ]
        multistart = [
            {
                "benchmark": "PCR", "seed": 1, "restarts": 4,
                "single_energy": 10.4, "multistart_energy": 9.6,
                "improvement_pct": 7.692, "non_degraded": True,
            }
        ]
        payload = comparisons_to_payload(
            [fake_comparison()], label="t", jobs=4,
            jobs_scaling=scaling, multistart=multistart,
        )
        assert payload["jobs"] == 4
        assert payload["jobs_scaling"] == scaling
        assert payload["multistart"] == multistart
        assert payload["multistart_non_degraded"] is True
        bare = comparisons_to_payload([fake_comparison()], label="t")
        assert "jobs_scaling" not in bare
        assert "multistart" not in bare

    def test_run_payload_includes_spread_when_measured(self):
        run = run_engine("PCR", "incremental", seed=1, repeats=2)
        comparison = BenchComparison(
            benchmark="PCR", reference=run, incremental=run
        )
        payload = comparisons_to_payload([comparison], label="t")
        (row,) = payload["benchmarks"]
        for side in ("reference", "incremental"):
            assert row[side]["total_min_s"] <= row[side]["total_s"]
            assert row[side]["total_s"] <= row[side]["total_max_s"]
            assert row[side]["place_min_s"] <= row[side]["place_max_s"]

    def test_write_json_round_trip(self, tmp_path):
        path = tmp_path / "bench.json"
        payload = comparisons_to_payload([fake_comparison()], label="t")
        write_bench_json(path, payload)
        assert json.loads(path.read_text(encoding="utf-8")) == payload

    def test_table_lists_all_benchmarks(self):
        table = render_bench_table([fake_comparison()])
        assert "PCR" in table
        assert "4.00x" in table
        assert "match" in table

    def test_table_flags_mismatch(self):
        table = render_bench_table([fake_comparison(inc_energy=1.0)])
        assert "MISMATCH" in table


class TestRouteBenchComparison:
    def test_route_speedup(self):
        comparison = fake_route_comparison(ref_route=0.4, flat_route=0.1)
        assert comparison.route_speedup == pytest.approx(4.0)

    def test_paths_match_compares_digests(self):
        assert fake_route_comparison().paths_match
        assert not fake_route_comparison(flat_digest="other").paths_match

    def test_missing_digest_is_not_a_match(self):
        comparison = RouteBenchComparison(
            benchmark="Scale50",
            reference=fake_route_run("reference", digest=None),
            flat=fake_route_run("flat", digest=None),
        )
        assert not comparison.paths_match


class TestRunRouteSuite:
    def test_pcr_engines_agree(self):
        comparisons = run_route_suite(("PCR",), seed=1, repeats=1)
        assert len(comparisons) == 1
        comparison = comparisons[0]
        assert comparison.reference.route_engine == "reference"
        assert comparison.flat.route_engine == "flat"
        assert comparison.reference.paths_digest is not None
        assert comparison.paths_match

    def test_fast_engine_override(self):
        comparisons = run_route_suite(
            ("PCR",), seed=1, repeats=1, fast_engine="flat"
        )
        comparison = comparisons[0]
        assert comparison.flat.route_engine == "flat"
        assert comparison.paths_match

    def test_validates_route_engine(self):
        with pytest.raises(ValueError, match="route engine"):
            run_engine("PCR", "incremental", route_engine="quantum")


class TestRouteReport:
    def test_payload_schema(self):
        payload = route_comparisons_to_payload(
            [fake_route_comparison()], label="BENCH_pr5", quick=True
        )
        assert payload["kind"] == "route_engine"
        assert payload["all_paths_match"] is True
        assert payload["median_route_speedup"] == pytest.approx(4.0)
        row = payload["benchmarks"][0]
        assert row["flat"]["route_engine"] == "flat"
        assert row["flat"]["postponed_tasks"] == 3
        assert row["flat"]["postponement_total_s"] == pytest.approx(6.0)
        assert row["paths_match"] is True

    def test_payload_flags_parity_break(self):
        payload = route_comparisons_to_payload(
            [fake_route_comparison(flat_digest="broken")], label="x"
        )
        assert payload["all_paths_match"] is False

    def test_table_lists_benchmark_and_verdict(self):
        table = render_route_table([fake_route_comparison()])
        assert "Scale50" in table
        assert "4.00x" in table
        assert "match" in table
        assert "DIFF!" in render_route_table(
            [fake_route_comparison(flat_digest="broken")]
        )


class TestBenchCli:
    def test_quick_run_writes_artifact(self, tmp_path, capsys):
        from repro.experiments.bench import run

        out = tmp_path / "bench.json"
        status = run([
            "--benchmarks", "PCR", "--repeats", "1",
            "--output", str(out), "--require-speedup", "PCR",
        ])
        captured = capsys.readouterr()
        assert out.exists()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["all_energies_match"] is True
        assert [row["benchmark"] for row in payload["benchmarks"]] == ["PCR"]
        assert "PCR" in captured.out
        # The gate verdict is reported either way; with a healthy build
        # the incremental engine wins and the exit status is 0.
        assert status in (0, 1)
        if status == 0:
            assert "speedup gate OK" in captured.out

    def test_rejects_unknown_benchmark(self):
        from repro.experiments.bench import run

        with pytest.raises(SystemExit):
            run(["--benchmarks", "NotABenchmark"])

    def test_scale_large_writes_route_artifact(self, tmp_path, capsys):
        from repro.experiments.bench import run

        out = tmp_path / "bench_route.json"
        status = run([
            "--scale", "large", "--benchmarks", "Scale50", "--repeats", "1",
            "--output", str(out), "--require-speedup", "Scale50",
        ])
        captured = capsys.readouterr()
        assert out.exists()
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["kind"] == "route_engine"
        # Parity is a hard guarantee; the speedup gate alone may be
        # noisy on a loaded machine with a single repeat.
        assert payload["all_paths_match"] is True
        assert [row["benchmark"] for row in payload["benchmarks"]] == [
            "Scale50"
        ]
        assert "Scale50" in captured.out
        assert status in (0, 1)
        if status == 0:
            assert "speedup gate OK" in captured.out
