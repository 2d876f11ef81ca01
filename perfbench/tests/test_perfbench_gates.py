"""Every correctness gate of the benchmark fires when its condition fails.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gates
import run
import synth
from common import Tracer
from outcome import Outcome

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def solved():
    problem = synth.Problem(
        "gate-substrate",
        synth.generate_assay("gate-substrate", 40, synth.table1_allocation(40), 5),
        synth.table1_allocation(40),
    )
    return problem, synth.solve(problem)


def _rules():
    from repro.check.faults import solution_fault_rules

    return sorted(solution_fault_rules())


@pytest.mark.parametrize("rule_id", _rules())
def test_checker_and_digest_gates_fire_on_injected_fault(solved, rule_id):
    from repro.check import check_result
    from repro.check.faults import FaultInjectionError, inject
    from repro.core.io import result_to_dict

    _, good = solved
    assert gates.checker_gate(check_result(good.result)) == []
    try:
        bad = inject(good.result, rule_id)
    except FaultInjectionError:
        pytest.skip(f"{rule_id} has no surgical corruption on this substrate")
    assert gates.checker_gate(check_result(bad))
    digest = gates.solution_digest(good.result)
    assert gates.digest_gate(digest, digest, "same") == []
    # Some faults corrupt the problem (e.g. shrink the chip) and leave
    # the solution itself untouched; the checker gate catches those.
    solution_changed = result_to_dict(bad) != result_to_dict(good.result)
    assert bool(gates.digest_gate(digest, gates.solution_digest(bad), "corrupted")) == solution_changed


def test_most_rules_inject_on_the_substrate(solved):
    from repro.check.faults import FaultInjectionError, inject

    injected = 0
    for rule_id in _rules():
        try:
            inject(solved[1].result, rule_id)
            injected += 1
        except FaultInjectionError:
            pass
    assert injected >= len(_rules()) - 4


def test_digest_gate_fires_on_flipped_digest(solved):
    digest = gates.solution_digest(solved[1].result)
    flipped = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert gates.digest_gate(digest, flipped, "flipped")


def test_traced_request_reproduces_the_untraced_solution(solved):
    problem, good = solved
    tracer = Tracer()
    traced = synth.solve_traced(problem, tracer, "r")
    assert gates.solution_digest(traced.result) == gates.solution_digest(good.result)
    names = {span.name for span in tracer.spans}
    assert {"request", "assay.load", "schedule", "place", "route"} <= names


def test_service_result_gate_ignores_timing_only(solved):
    document = json.loads(solved[1].text)
    timing = json.loads(solved[1].text)
    timing["phase_times"] = {"place": 123.0}
    timing["metrics"]["cpu_time_s"] = 99.0
    timing["summary"] = re.sub(r"cpu time .*", "cpu time       : 9.999 s", timing["summary"])
    assert gates.service_result_gate(timing, document) == []
    wrong = json.loads(solved[1].text)
    wrong["metrics"]["total_channel_length_mm"] += 1.0
    assert gates.service_result_gate(wrong, document)
    flipped = json.loads(solved[1].text)
    flipped["solution_digest"] = "f" * 64
    assert gates.service_result_gate(flipped, document)


def test_service_result_gate_fires_on_injected_fault(solved):
    from repro.check.faults import inject
    from repro.core.digest import canonical_json
    from repro.serve.protocol import result_document

    _, good = solved
    bad = inject(good.result, "MET-LENGTH")
    served = json.loads(canonical_json(result_document(bad, good.digest)))
    assert gates.service_result_gate(served, json.loads(good.text))


def test_hit_gate_fires_on_changed_byte_or_status():
    body = b'{"cached":true,"result":{"x":1}}'
    assert gates.hit_gate(body, body, 200) == []
    assert gates.hit_gate(body, body.replace(b"1", b"2"), 200)
    assert gates.hit_gate(body, body, 429)


def test_ingest_gates_fire():
    assert gates.ingest_item_gate({"status": "queued", "job_id": "j1", "cached": False}) == []
    assert gates.ingest_item_gate({"status": "rejected", "error": "full"})
    assert gates.ingest_item_gate({"status": "queued", "job_id": "j1", "cached": True})
    stats = {"queue": {"depth": 3, "counts": {"queued": 3}}}
    assert gates.still_queued_gate(stats, 3) == []
    assert gates.still_queued_gate(stats, 4)
    ran = {"queue": {"depth": 2, "counts": {"queued": 2, "done": 1}}}
    assert gates.still_queued_gate(ran, 3)
    assert gates.job_status_gate({"status": "queued"}, "queued") == []
    assert gates.job_status_gate({"status": "running"}, "queued")


def test_self_time_subtracts_children():
    tracer = Tracer()
    root = tracer.add("request", 0.0, 10.0)
    tracer.add("a", 1.0, 4.0, root)
    tracer.add("b", 4.0, 9.0, root)
    assert tracer.self_times() == [2.0, 3.0, 5.0]
    assert tracer.totals()["request"] == (1, 10.0, 2.0)


def test_failed_gate_makes_the_run_exit_nonzero(monkeypatch, capsys):
    import synth_large

    def broken(seed, seconds, trace):
        out = Outcome()
        out.record(["digest mismatch"])
        out.metrics = {name: {"value": 1.0, "unit": unit} for name, unit in run.END_TO_END.items()}
        return out

    monkeypatch.setattr(synth_large, "run", broken)
    monkeypatch.setattr("common.host_fingerprint", lambda: {"nproc": 1, "fsync_per_s": 1.0, "calib_s": 1.0})
    monkeypatch.chdir(REPO)
    code = run.main(["--workload", "synth-large", "--seed", "1", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] == 1


def test_benchmark_json_names_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synth-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_traced_run_fails_on_an_unmeasured_reached_layer(monkeypatch):
    import synth_large

    def forgetful(seed, seconds, trace):
        out = Outcome()
        out.record([])
        out.metrics = {
            name: {"value": 1.0, "unit": unit}
            for name, unit in run.PER_LAYER.items()
            if name not in synth_large.UNREACHED and not name.startswith("host.")
            and name != "place.self_s"
        }
        return out

    monkeypatch.setattr(synth_large, "run", forgetful)
    monkeypatch.setattr("common.host_fingerprint", lambda: {"nproc": 1, "fsync_per_s": 1.0, "calib_s": 1.0})
    monkeypatch.chdir(REPO)
    with pytest.raises(RuntimeError, match="place.self_s"):
        run.main(["--workload", "synth-large", "--seed", "1", "--seconds", "1", "--trace", "1"])


def test_unreached_layers_are_per_layer_metrics():
    import serve_ingest
    import serve_mixed
    import synth_large

    for module in (synth_large, serve_mixed, serve_ingest):
        assert module.UNREACHED <= set(run.PER_LAYER)


def test_reference_factor_is_median_over_nominal():
    import common

    cpu = common.Reference()
    cpu.sample(repeats=3)
    assert len(cpu.samples) == 3
    assert cpu.factor() == pytest.approx(common.median(cpu.samples) / common.CPU_NOMINAL_S)
    disk = common.Reference(journal=True)
    try:
        disk.sample()
        disk.sample()
    finally:
        disk.close()
    assert len(disk.samples) == 32
    assert disk.factor() == pytest.approx(common.median(disk.samples) / common.JOURNAL_NOMINAL_S)


def test_server_memory_counts_the_pool_workers(monkeypatch):
    import common

    monkeypatch.setattr(common, "ROOT", REPO)
    monkeypatch.setattr(common, "SRC", REPO / "src")
    monkeypatch.setattr(common, "WORK", REPO / ".perfbench")
    common.WORK.mkdir(exist_ok=True)
    server = common.ServerProcess("rss-test").start()
    try:
        conn = common.Connection(server.port)
        try:
            status, body = conn.json("POST", "/jobs?wait=120", {"benchmark": "PCR"})
        finally:
            conn.close()
        assert status == 200 and body["status"] == "done"
        tree = common.process_tree(server.proc.pid)
        assert len(tree) > 1
        alone = common._status_kb(server.proc.pid, "VmHWM") / 1024.0
        assert server.peak_rss_mb() > alone
    finally:
        server.stop()
    assert all(common._ended(pid) for pid in tree)


def test_reap_waits_for_an_orphaned_grandchild():
    import common

    common.adopt_orphans()
    # The shell ends at once; its background sleep is orphaned.
    shell = subprocess.Popen(
        ["sh", "-c", "sleep 60 >/dev/null & echo $!"], stdout=subprocess.PIPE
    )
    orphan = int(shell.stdout.readline())
    shell.stdout.close()
    shell.wait()
    assert not common._ended(orphan)
    assert common.reap(grace=0.2) == [orphan]
    assert common._ended(orphan)
