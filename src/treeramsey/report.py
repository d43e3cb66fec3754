"""One report type for every checked claim: an ordered list of named checks,
each passed or failed with a detail text.  Certificates, audits, the oracle
cross-check and the acceptance matrix record into it; the checking itself
stays in the module that owns the claim.
"""

from __future__ import annotations


class Check:
    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name, self.passed, self.detail = name, passed, detail

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.name, self.passed, self.detail) == (other.name, other.passed, other.detail)

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


class Report:
    def __init__(self) -> None:
        self.checks: list[Check] = []

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed(self) -> Check | None:
        """The first failed check, or None when all pass."""
        return next((c for c in self.checks if not c.passed), None)

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    def to_json(self, **fields) -> dict:
        """The checks, after ``schema_version`` and any describing fields."""
        return {"schema_version": 1, **fields, "ok": self.ok,
                "checks": [c.to_json() for c in self.checks]}
