"""Content addressing of synthesis problems.

The storage-aware synthesis flow is deterministic for a fixed
``(assay, allocation, parameters)`` triple, which makes its inputs
perfectly *content-addressable*: two problems with equal digests are
guaranteed to synthesize bit-identically, so a digest can stand in for
"the same run" everywhere — the run ledger groups records by it for
regression baselines (:mod:`repro.obs.ledger`), and the synthesis
service (:mod:`repro.serve`) uses it as the key of its result cache so
identical submissions are served from cache instead of re-synthesized.

The digest is SHA-256 over the canonical JSON (sorted keys, compact
separators) of the assay document, the allocation tuple, the grid, and
every synthesis parameter except those in
:data:`DIGEST_EXCLUDED_PARAMETERS` — currently only ``jobs``, because
parallelism redistributes the same deterministic work without changing
any answer and must therefore not split otherwise-identical runs into
different digests.

This module is the single home of that definition.  It originally
lived in :mod:`repro.obs.ledger`, which still re-exports
:func:`problem_digest` for backwards compatibility; the byte-level
canonicalisation is pinned by tests so digests written by older
ledgers stay comparable forever.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import fields as dataclass_fields
from typing import Any

__all__ = [
    "DIGEST_EXCLUDED_PARAMETERS",
    "canonical_json",
    "problem_document",
    "problem_digest",
    "text_digest",
]

#: Parameters excluded from the digest: ``jobs`` only redistributes the
#: same deterministic work across processes.
DIGEST_EXCLUDED_PARAMETERS = frozenset({"jobs"})


#: ``json.dumps(…, sort_keys=True, separators=(",", ":"))`` builds this
#: encoder on every call; sharing one (it keeps no per-call state)
#: yields the same text without that cost.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: Any) -> str:
    """The one true serialisation digests are computed over.

    Sorted keys and compact separators make the text a pure function of
    the document's value; round-tripping through :func:`json.loads` and
    back reproduces it byte for byte (floats serialise via ``repr``,
    which round-trips exactly).
    """
    return _CANONICAL_ENCODER.encode(document)


def text_digest(text: str | bytes) -> str:
    """SHA-256 hex digest of a string (UTF-8) or byte string."""
    if isinstance(text, str):
        text = text.encode("utf-8")
    return hashlib.sha256(text).hexdigest()


def problem_document(problem: Any) -> dict[str, Any]:
    """The canonical JSON-compatible document a problem digests to."""
    from repro.assay.io import assay_to_dict

    # Every parameter field is a scalar, so plain attribute access
    # serialises identically to ``dataclasses.asdict`` without its
    # per-field deepcopy (which dominated the service accept path).
    parameters = {
        f.name: getattr(problem.parameters, f.name)
        for f in dataclass_fields(problem.parameters)
        if f.name not in DIGEST_EXCLUDED_PARAMETERS
    }
    grid = problem.grid
    return {
        "assay": assay_to_dict(problem.assay),
        "allocation": list(problem.allocation.as_tuple()),
        "parameters": parameters,
        "grid": None if grid is None else [grid.width, grid.height, grid.pitch_mm],
    }


def problem_digest(problem: Any) -> str:
    """SHA-256 content address of (assay, allocation, parameters-jobs).

    Two problems share a digest exactly when the pipeline is guaranteed
    to produce bit-identical results for them, so ledger records and
    cached service results with equal digests are directly
    interchangeable.
    """
    return text_digest(canonical_json(problem_document(problem)))
