"""Correctness gates.  Each returns a list of failure messages; an empty
list means the gate passed.  A failed gate marks the operation failed
and the whole run incorrect (exit code 1)."""

from __future__ import annotations

import json
from typing import Any


def solution_digest(result: Any) -> str:
    """SHA-256 over the whole solution: schedule, placement, every routed
    path and the metrics (minus CPU time)."""
    from repro.core.digest import canonical_json, text_digest
    from repro.core.io import result_to_dict

    document = result_to_dict(result)
    document["metrics"].pop("cpu_time_s", None)
    return text_digest(canonical_json(document))


def checker_gate(report: Any) -> list[str]:
    """The independent design-rule checker found no error in *report*
    (a :func:`repro.check.check_result` report)."""
    if report.ok:
        return []
    rules = sorted({v.rule_id for v in report.violations if v.severity == "error"})
    return [f"checker: {report.error_count} violation(s) {rules}"]


def digest_gate(expected: str, got: str, what: str) -> list[str]:
    """Two runs of the same problem produced the same solution."""
    if expected == got:
        return []
    return [f"{what}: solution digest {got[:12]} != {expected[:12]}"]


def _untimed(document: dict[str, Any]) -> dict[str, Any]:
    """*document* without what records how long the run took."""
    out = {k: v for k, v in document.items() if k != "phase_times"}
    metrics = dict(out.get("metrics") or {})
    metrics.pop("cpu_time_s", None)
    out["metrics"] = metrics
    out["summary"] = "\n".join(
        line
        for line in str(out.get("summary", "")).splitlines()
        if not line.startswith("cpu time")
    )
    return out


def service_result_gate(service: dict[str, Any], local: dict[str, Any]) -> list[str]:
    """A service result equals the in-process result on every non-timing
    field."""
    a, b = _untimed(service), _untimed(local)
    if a == b:
        return []
    fields = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return [f"service result differs from in-process run in {fields}"]


def hit_gate(first: bytes, body: bytes, status: int) -> list[str]:
    """A cache hit is byte-identical to the first response for its digest."""
    if status == 200 and body == first:
        return []
    return [f"cache hit: status {status}, body differs from first response"]


def ingest_item_gate(entry: dict[str, Any]) -> list[str]:
    """A batch item was accepted into the queue (the per-item 202)."""
    if entry.get("status") == "queued" and not entry.get("cached") and entry.get("job_id"):
        return []
    return [f"ingest item not queued: {json.dumps(entry)[:200]}"]


def still_queued_gate(stats: dict[str, Any], acked: int) -> list[str]:
    """Every acknowledged item is still queued (nothing ran or was lost)."""
    queue = stats.get("queue", {})
    counts = queue.get("counts", {})
    if queue.get("depth") == acked and counts.get("queued") == acked and sum(counts.values()) == acked:
        return []
    return [f"queue holds {counts} (depth {queue.get('depth')}), expected {acked} queued"]


def job_status_gate(status: dict[str, Any], expected: str) -> list[str]:
    if status.get("status") == expected:
        return []
    return [f"job {status.get('job_id')} is {status.get('status')}, expected {expected}"]
