"""Pass/fail reports shared by the verifiers and the CLI.

A report is a list of named checks; a failing check carries renderings of
one offending left/right pair so failures are always localized.  Reports
serialize to JSON (schema shipped as report.schema.json) and round-trip.
"""

from __future__ import annotations

import os
import time


class CheckResult:
    __slots__ = ("name", "passed", "lhs", "rhs", "elapsed")

    def __init__(self, name: str, passed: bool, lhs: str | None = None, rhs: str | None = None, elapsed: float = 0.0):
        self.name, self.passed, self.lhs, self.rhs, self.elapsed = name, passed, lhs, rhs, elapsed

    def to_dict(self) -> dict:
        d: dict = {"name": self.name, "passed": self.passed, "elapsed": self.elapsed}
        if not self.passed:
            d["lhs"] = self.lhs if self.lhs is not None else ""
            d["rhs"] = self.rhs if self.rhs is not None else ""
        return d

    @staticmethod
    def from_dict(d: dict) -> "CheckResult":
        return CheckResult(d["name"], d["passed"], d.get("lhs"), d.get("rhs"), d.get("elapsed", 0.0))


class Report:
    __slots__ = ("title", "checks")

    def __init__(self, title: str, checks: list[CheckResult] | None = None):
        self.title, self.checks = title, [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def add(self, name: str, passed: bool, lhs: str | None = None, rhs: str | None = None, elapsed: float = 0.0) -> None:
        self.checks.append(CheckResult(name, passed, lhs, rhs, elapsed))

    def run(self, name: str, fn) -> None:
        """Time fn() -> (passed, lhs, rhs) and record the result.

        A check that raises is recorded as failed: lhs holds the exception's
        type and message, rhs the place it was raised.
        """
        start = time.perf_counter()
        try:
            passed, lhs, rhs = fn()
        except Exception as exc:  # one broken check must not abort the report
            import traceback  # here, not at the top: it and textwrap cost every cold import of heckekit

            where = traceback.extract_tb(exc.__traceback__)[-1]
            passed = False
            lhs = f"{type(exc).__name__}: {exc}"
            rhs = f"raised at {os.path.basename(where.filename)}:{where.lineno} in {where.name}"
        self.checks.append(CheckResult(name, passed, lhs, rhs, time.perf_counter() - start))

    def first_failure(self) -> CheckResult | None:
        for c in self.checks:
            if not c.passed:
                return c
        return None

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "status": self.status,
            "checks": [c.to_dict() for c in self.checks],
        }

    def to_json(self) -> str:
        import json  # here, not at the top: a call without --json loads none of it

        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Report":
        import json

        d = json.loads(text)
        report = Report(d["title"], [CheckResult.from_dict(c) for c in d["checks"]])
        if report.status != d["status"]:
            raise ValueError("inconsistent serialized status")
        return report

    def render_text(self) -> str:
        lines = [f"{self.title}: {self.status.upper()}"]
        for c in self.checks:
            mark = "ok " if c.passed else "FAIL"
            lines.append(f"  [{mark}] {c.name} ({c.elapsed:.3f}s)")
            if not c.passed and (c.lhs or c.rhs):
                lines.append(f"         lhs: {c.lhs}")
                lines.append(f"         rhs: {c.rhs}")
        return "\n".join(lines)
