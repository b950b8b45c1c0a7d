"""Uniform pass/fail/error reporting for checks, with JSON-stable output."""

from __future__ import annotations

import time
from typing import Callable, Optional

from .neighborhoods import Witness

#: schema version stamped into every JSON report
REPORT_VERSION = 1


class CheckEntry:
    """One check's outcome; ``millis`` is set once the check has run."""

    __slots__ = ("name", "kind", "status", "witness", "millis")

    def __init__(self, name: str, kind: str, status: str, witness: Optional[dict] = None,
                 millis: int = 0):
        self.name, self.kind, self.status = name, kind, status  # "pass" | "fail" | "error"
        self.witness, self.millis = witness, millis

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def to_dict(self) -> dict:
        values = (self.name, self.kind, self.status, self.witness, self.millis)
        return dict(zip(self.__slots__, values))

    def line(self) -> str:
        tag = self.status.upper().ljust(5)
        extra = ""
        if self.status == "fail" and self.witness:
            extra = (
                f"  [{self.witness.get('location')} -> "
                f"{self.witness.get('coefficient')}·{self.witness.get('monomial')}]"
            )
        elif self.status == "error" and self.witness:
            extra = f"  [{self.witness.get('message')}]"
        return f"{tag} {self.name} ({self.kind}){extra}"


class CheckReport:
    """The entries of a run, in order; they grow as checks run."""

    __slots__ = ("entries",)

    def __init__(self, entries: Optional[list] = None):
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.entries == other.entries

    def add(self, entry: CheckEntry) -> CheckEntry:
        self.entries.append(entry)
        return entry

    def run(self, name: str, kind: str, fn: Callable[[], Optional[Witness]]) -> CheckEntry:
        """Execute one check.  ``fn`` returns None for pass or a Witness for fail;
        exceptions become error entries carrying the message."""
        start = time.perf_counter()
        try:
            w = fn()
        except Exception as exc:  # noqa: BLE001 - every fault must land in the report
            entry = CheckEntry(name, kind, "error", {"message": str(exc)})
        else:
            if w is None:
                entry = CheckEntry(name, kind, "pass", None)
            else:
                entry = CheckEntry(name, kind, "fail", w.as_dict())
        entry.millis = int((time.perf_counter() - start) * 1000)
        return self.add(entry)

    def extend(self, other: "CheckReport") -> None:
        self.entries.extend(other.entries)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "error": 0}
        for e in self.entries:
            out[e.status] += 1
        return out

    @property
    def ok(self) -> bool:
        c = self.counts
        return c["fail"] == 0 and c["error"] == 0

    def exit_code(self) -> int:
        c = self.counts
        if c["error"]:
            return 2
        return 1 if c["fail"] else 0

    def to_dict(self) -> dict:
        return {
            "version": REPORT_VERSION,
            "checks": [e.to_dict() for e in self.entries],
            "summary": self.counts,
        }

    def __str__(self):
        lines = [e.line() for e in self.entries]
        c = self.counts
        lines.append(f"summary: {c['pass']} passed, {c['fail']} failed, {c['error']} errors")
        return "\n".join(lines)
