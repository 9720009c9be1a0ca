"""Impliance reproduction: a next-generation information management
appliance (CIDR 2007), rebuilt as a Python library with a simulated
cluster substrate.

Quick start::

    from repro import Impliance

    app = Impliance()
    app.ingest({"pid": 1, "name": "WidgetPro"}, table="products")
    app.ingest("Ms. Alice Johnson loves the WidgetPro!")
    app.discover()                      # asynchronous in production;
                                        # synchronous drain for scripts
    hits = app.search("widget")
    rows = app.sql("SELECT name FROM products").rows

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-claim reproductions.
"""

from repro.chaos import ChaosController, FaultEvent, FaultKind, FaultPlan, RetryPolicy
from repro.core.appliance import Impliance
from repro.core.config import ApplianceConfig
from repro.model.document import Document, DocumentKind
from repro.obs import Telemetry, format_snapshot
from repro.query.result import QueryResult
from repro.security.policy import Principal
from repro.serving import Session

__version__ = "1.0.0"

__all__ = [
    "Impliance",
    "ApplianceConfig",
    "Session",
    "Principal",
    "ChaosController",
    "Document",
    "DocumentKind",
    "FaultEvent",
    "FaultKind",
    "FaultPlan",
    "RetryPolicy",
    "Telemetry",
    "QueryResult",
    "format_snapshot",
    "__version__",
]
