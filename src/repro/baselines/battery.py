"""The Figure-4 task battery and its scorer.

Runs an identical mixed-format workload and task list against every
system, recording which tasks each archetype can perform, whether the
answers are right, and how many administrator actions the run consumed.
The scorer then places each system on Figure 4's three axes —
*measured*, not asserted.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, List, Mapping, Optional, Sequence

from repro.baselines.base import (
    CapabilityNotSupported,
    InformationSystem,
    Item,
)


def standard_corpus() -> List[Item]:
    """The battery's mixed-format corpus (deterministic)."""
    items: List[Item] = [
        Item("cust-1", "relational", {"cid": 1, "name": "Acme Corp", "segment": "enterprise"}, "customers"),
        Item("cust-2", "relational", {"cid": 2, "name": "Beta LLC", "segment": "smb"}, "customers"),
        Item("cust-3", "relational", {"cid": 3, "name": "Gamma Inc", "segment": "smb"}, "customers"),
        Item("ord-1", "relational", {"oid": 1, "cid": 1, "amount": 1200.0, "region": "east"}, "orders"),
        Item("ord-2", "relational", {"oid": 2, "cid": 2, "amount": 300.0, "region": "west"}, "orders"),
        Item("ord-3", "relational", {"oid": 3, "cid": 1, "amount": 450.0, "region": "east"}, "orders"),
        Item("ord-4", "relational", {"oid": 4, "cid": 3, "amount": 75.0, "region": "west"}, "orders"),
        Item("prod-1", "relational", {"pid": 1, "name": "WidgetPro"}, "products"),
        Item("prod-2", "relational", {"pid": 2, "name": "GadgetMax"}, "products"),
        Item(
            "call-1",
            "text",
            "Transcript: Ms. Alice Johnson called about the WidgetPro. "
            "She is pleased, the WidgetPro is excellent and reliable.",
        ),
        Item(
            "call-2",
            "text",
            "Transcript: Alice Johnson called again, furious that her "
            "GadgetMax arrived broken. Terrible experience, wants refund.",
        ),
        Item(
            "mail-1",
            "email",
            "From: bob@acme.example\nTo: support@vendor.example\n"
            "Subject: WidgetPro invoice\n\nPlease resend the invoice for "
            "the WidgetPro shipment, total $1,200.00. Regards, Bob Smith",
        ),
    ]
    return items


@dataclass
class TaskOutcome:
    task: str
    supported: bool
    correct: Optional[bool] = None  # None when unsupported
    detail: str = ""


@dataclass
class BatteryReport:
    """Everything the battery observed about one system."""

    system: str
    outcomes: List[TaskOutcome] = field(default_factory=list)
    admin_actions: int = 0
    max_nodes: int = 1
    #: Corpus items ``store`` refused, counted by exception class name.
    store_failures: Counter = field(default_factory=Counter)

    def outcome(self, task: str) -> TaskOutcome:
        for outcome in self.outcomes:
            if outcome.task == task:
                return outcome
        raise KeyError(f"no task {task!r} in report")

    # -- Figure 4 axes --------------------------------------------------
    @property
    def power_score(self) -> float:
        """Modeling-and-querying power: fraction of tasks done correctly."""
        if not self.outcomes:
            return 0.0
        passed = sum(1 for o in self.outcomes if o.supported and o.correct)
        return passed / len(self.outcomes)

    @property
    def tco_score(self) -> float:
        """Higher is cheaper to own: 1 / (1 + admin actions)."""
        return 1.0 / (1.0 + self.admin_actions)

    @property
    def scalability_score(self) -> float:
        """log10 of the practical node ceiling, normalized to [0, 1]
        against a 10^4-node yardstick."""
        return min(1.0, math.log10(max(1, self.max_nodes)) / 4.0)


def run_battery(system: InformationSystem, corpus: Optional[Sequence[Item]] = None) -> BatteryReport:
    """Deploy *system*, load the corpus, run every task, score it."""
    items = list(corpus) if corpus is not None else standard_corpus()
    system.deploy()
    report = BatteryReport(system=system.name, max_nodes=system.max_practical_nodes())
    stored = 0
    for item in items:
        try:
            system.store(item)
            stored += 1
        except Exception as exc:  # a refused item is scored, not fatal
            report.store_failures[type(exc).__name__] += 1

    def attempt(task: str, fn, check) -> None:
        try:
            result = fn()
        except CapabilityNotSupported as exc:
            report.outcomes.append(TaskOutcome(task, False, None, str(exc)))
            return
        except Exception as exc:  # a crash is a failed (not unsupported) task
            report.outcomes.append(TaskOutcome(task, True, False, f"error: {exc}"))
            return
        ok, detail = check(result)
        report.outcomes.append(TaskOutcome(task, True, ok, detail))

    # store-everything: did all formats land?
    detail = f"{stored}/{len(items)} stored"
    if report.store_failures:
        detail += "; failed: " + ", ".join(
            f"{name} x{count}" for name, count in sorted(report.store_failures.items())
        )
    report.outcomes.append(TaskOutcome("store_all_formats", True, stored == len(items), detail))

    attempt(
        "retrieve_unchanged",
        lambda: system.retrieve("cust-1"),
        lambda r: (_mentions(r, "Acme"), f"got {r!r}"[:60]),
    )
    attempt(
        "keyword_search",
        lambda: system.keyword_search("WidgetPro"),
        lambda ids: (any(i.startswith(("prod", "call", "mail")) for i in ids), f"{len(ids)} hits"),
    )
    attempt(
        "content_search",
        lambda: system.content_search("furious refund"),
        lambda ids: ("call-2" in ids, f"{ids}"),
    )
    attempt(
        "structured_query",
        lambda: system.structured_query("customers", "segment", "smb"),
        lambda rows: (len(rows) == 2, f"{len(rows)} rows"),
    )
    attempt(
        "join",
        lambda: system.join("orders", "customers", "cid", "cid"),
        lambda rows: (len(rows) == 4, f"{len(rows)} rows"),
    )
    attempt(
        "aggregate",
        lambda: system.aggregate("orders", "region", "amount"),
        lambda rows: (
            any(abs(_row_sum(r) - 1650.0) < 1e-6 for r in rows if r.get("region") == "east"),
            f"{rows}"[:60],
        ),
    )
    attempt(
        "annotate",
        lambda: system.annotate(),
        lambda n: (n > 0, f"{n} annotations"),
    )
    attempt(
        "connection_query",
        lambda: system.connection_query("call-1", "call-2"),
        lambda path: (path is not None, f"path={path}"),
    )

    report.admin_actions = system.ledger.count()
    return report


def _mentions(payload: Any, needle: str) -> bool:
    return needle.lower() in str(payload).lower()


def _row_sum(row: Mapping[str, Any]) -> float:
    for key, value in row.items():
        if key.startswith("sum"):
            try:
                return float(value)
            except (TypeError, ValueError):
                return float("nan")
    return float("nan")


def comparison_table(reports: Sequence[BatteryReport]) -> str:
    """Render the Figure 4 positioning as a text table."""
    header = f"{'system':<18} {'power':>6} {'tco':>6} {'scale':>6} {'admin':>6}"
    lines = [header, "-" * len(header)]
    for report in sorted(reports, key=lambda r: -r.power_score):
        lines.append(
            f"{report.system:<18} {report.power_score:>6.2f} "
            f"{report.tco_score:>6.2f} {report.scalability_score:>6.2f} "
            f"{report.admin_actions:>6d}"
        )
    return "\n".join(lines)
