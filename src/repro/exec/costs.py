"""Cost model for simulated execution.

All values are *nominal* simulated milliseconds on a speed-1.0 node; node
speed and operator affinity (see :mod:`repro.cluster.node`) scale them.
Absolute values are arbitrary — the experiments report relative shapes —
but the relative magnitudes are chosen to be realistic: random index
probes cost more than streamed rows, annotators (text analytics) dominate
per-byte costs, and locking is cheap but serialized.
"""

from __future__ import annotations

import math
from typing import Any, Dict

from repro.storage.encoding import EncodedColumn

# Per-document / per-row CPU costs (nominal ms).
SCAN_CPU_MS_PER_DOC = 0.002        # read + deserialize one document
FILTER_CPU_MS_PER_ROW = 0.0005
PROJECT_CPU_MS_PER_ROW = 0.0002
HASH_BUILD_MS_PER_ROW = 0.002
HASH_PROBE_MS_PER_ROW = 0.001
INDEX_PROBE_MS = 0.02              # one indexed-NL probe (random access)
SORT_MS_PER_ROW_LOG = 0.0005       # multiplied by log2(n)
AGG_MS_PER_ROW = 0.0008
SEARCH_MS_PER_DOC_SCORED = 0.001   # BM25 scoring one candidate
UPDATE_CPU_MS = 0.05               # apply one versioned update
CACHE_LOOKUP_MS = 0.005            # serve a query from the result cache
ANNOTATE_MS_PER_KB = 0.5           # text analytics are expensive
COMPRESS_MS_PER_KB = 0.01
ENCRYPT_MS_PER_KB = 0.02

#: Fixed serialization overhead per shipped row.
ROW_OVERHEAD_BYTES = 16

#: Fixed serialization overhead per shipped columnar batch (header:
#: schema, column offsets, row count).
BATCH_OVERHEAD_BYTES = 64


def indexed_nl_break_even(inner_rows: float, probe_cost_ms: float = INDEX_PROBE_MS) -> float:
    """Outer cardinality below which indexed nested-loop beats hash join.

    Probing costs ``outer * probe_cost_ms`` while a hash join pays
    ``inner * HASH_BUILD_MS_PER_ROW + outer * HASH_PROBE_MS_PER_ROW``;
    equating the two gives the break-even outer row count.  The planner
    and the runtime escape hatch (:mod:`repro.query.adaptive`) both call
    this, so plan-time choices and mid-query re-plans share one cost
    model.  ``probe_cost_ms`` may be inflated by a degraded data node's
    slowdown; once probes are no more expensive than hash probes the
    indexed plan always wins and the break-even is unbounded.
    """
    margin = probe_cost_ms - HASH_PROBE_MS_PER_ROW
    if margin <= 0.0:
        return float("inf")
    return max(1.0, inner_rows * HASH_BUILD_MS_PER_ROW / margin)


def sort_cost_ms(n_rows: int) -> float:
    """n log n sort cost."""
    if n_rows <= 1:
        return 0.0
    return SORT_MS_PER_ROW_LOG * n_rows * math.log2(n_rows)


def estimate_row_bytes(row: Dict[str, Any]) -> int:
    """Approximate wire size of one row."""
    total = ROW_OVERHEAD_BYTES
    for key, value in row.items():
        total += len(key) + len(str(value))
    return total


def estimate_rows_bytes(rows) -> int:
    return sum(estimate_row_bytes(r) for r in rows)


def estimate_batch_bytes(batch) -> int:
    """Approximate wire size of one :class:`~repro.exec.batch.ColumnBatch`.

    The columnar wire format serializes each column name once per batch
    (the row format repeats keys and pays :data:`ROW_OVERHEAD_BYTES` per
    row), so shipping the same rows as batches amortizes the per-row
    overhead down to one marker byte per value.

    Dictionary/run-length-encoded columns ship *still encoded* and are
    charged their on-page size (:meth:`EncodedColumn.encoded_bytes`) —
    compressing at the data node is exactly the pushdown the appliance
    owns the storage stack for, and the wire sees the encoded bytes.
    """
    total = BATCH_OVERHEAD_BYTES
    for name, values in batch.columns.items():
        total += len(name)
        if isinstance(values, EncodedColumn):
            total += values.encoded_bytes()
            continue
        for value in values:
            total += len(str(value)) + 1
    return total


def estimate_batches_bytes(batches) -> int:
    return sum(estimate_batch_bytes(b) for b in batches)
