"""What one workload run reports back to ``run.py``."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)

    def record(self, errors: list[str]) -> None:
        """One operation: failed when any of its gates failed."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)

    def fail(self, message: str) -> None:
        """A run-level gate failed (no single operation to blame)."""
        self.errors.append(message)

    @staticmethod
    def note(message: str) -> None:
        print(message, file=sys.stderr)
