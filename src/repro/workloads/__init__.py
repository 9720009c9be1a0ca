"""Synthetic workloads standing in for the paper's enterprise corpora.

Seeded, deterministic generators for the three Section 2.1 use cases
(call center CRM, insurance claims, legal discovery) plus a generic
relational workload for parameter sweeps.  Each generator retains its
ground truth so experiments can score recall, not just throughput.
"""

from repro.workloads.relational import RelationalWorkload, REGIONS, SEGMENTS
from repro.workloads.callcenter import (
    CallCenterWorkload,
    PRODUCTS,
    TranscriptTruth,
)
from repro.workloads.insurance import (
    ClaimTruth,
    InsuranceWorkload,
    PROCEDURES,
)
from repro.workloads.legal import LegalWorkload
from repro.workloads.sensors import LOCATIONS, SensorWorkload

__all__ = [
    "RelationalWorkload",
    "REGIONS",
    "SEGMENTS",
    "CallCenterWorkload",
    "PRODUCTS",
    "TranscriptTruth",
    "ClaimTruth",
    "InsuranceWorkload",
    "PROCEDURES",
    "LegalWorkload",
    "LOCATIONS",
    "SensorWorkload",
]
