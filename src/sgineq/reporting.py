"""Small shared report records."""

from __future__ import annotations

from typing import NamedTuple


class CheckEntry(NamedTuple):
    """One named numeric check: defect against a tolerance."""

    name: str
    passed: bool
    defect: float
    tol: float

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "defect": float(self.defect),
            "tol": float(self.tol),
        }


def all_passed(entries) -> bool:
    return all(e.passed for e in entries)
