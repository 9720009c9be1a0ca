"""Raw inputs for the end-to-end benchmark.

The repo's seeded workload generators (``repro.workloads``) yield model
``Document``s, i.e. payloads that have already been through a converter.
A client of the appliance sends the payload *before* conversion — a row
dict with a table name, a transcript string, an RFC-822 message, an XML
string — so ``sniff_format`` and the ``from_*`` converters run inside the
timed region.  :func:`raw_payload` inverts the converters; everything else
here sizes and orders the payloads from a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from xml.sax.saxutils import escape, quoteattr

from repro.workloads import (
    CallCenterWorkload,
    InsuranceWorkload,
    LegalWorkload,
    RelationalWorkload,
)

#: Payloads per ``Session.ingest_many`` call on the bulk path.
CHUNK = 256
#: Seeds every *order* the workloads draw — in which ``load_enrich`` offers
#: its payloads, in which ``mixed_serving`` and ``trickle_write`` issue their
#: calls — and is the same for every ``--seed``.  What the first N documents
#: to be enriched are made of, which cached answer a write invalidates and
#: how many reads find it cached again are part of a workload's definition;
#: what the documents say, the rows written and the rows they replace come
#: from ``--seed``.
ORDER_SEED = 20070107


def _xml_of(tag: str, node: Any) -> str:
    """Serialize the converters' XML content model back to XML text."""
    if isinstance(node, list):
        return "".join(_xml_of(tag, item) for item in node)
    if not isinstance(node, dict):
        return f"<{tag}>{escape('' if node is None else str(node))}</{tag}>"
    attrs = "".join(
        f" {key[1:]}={quoteattr(str(value))}"
        for key, value in node.items()
        if key.startswith("@")
    )
    body = "".join(
        escape(str(value)) if key == "#text" else _xml_of(key, value)
        for key, value in node.items()
        if not key.startswith("@")
    )
    return f"<{tag}{attrs}>{body}</{tag}>"


def raw_payload(document) -> Tuple[Any, Optional[str]]:
    """The payload a client would have sent for *document*, and the
    ``table=`` it would have named (None for self-describing strings)."""
    fmt = document.source_format
    if fmt == "relational":
        table = document.metadata["table"]
        return dict(document.content[table]), table
    if fmt == "text":
        return document.content["document"]["body"], None
    if fmt == "email":
        mail = document.content["email"]
        lines = []
        for name, value in mail["headers"].items():
            if isinstance(value, list):
                value = ", ".join(value)
            lines.append(f"{name.title()}: {value}")
        return "\n".join(lines) + "\n\n" + mail["body"], None
    if fmt == "xml":
        (root, tree), = document.content.items()
        return _xml_of(root, tree), None
    raise ValueError(f"no raw form for source_format {fmt!r}")


@dataclass
class Chunk:
    """One ``ingest_many`` call: payloads sharing a ``table=`` argument."""

    table: Optional[str]
    payloads: List[Any]
    #: The generator's doc_id per payload (ground-truth key); empty for a
    #: CSV payload, which fans out to many documents.
    labels: List[str] = field(default_factory=list)

    @property
    def user_bytes(self) -> int:
        return sum(payload_bytes(p) for p in self.payloads)


def payload_bytes(payload: Any) -> int:
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    return sum(len(str(k)) + len(str(v)) for k, v in payload.items())


def _chunks(documents, size: int = CHUNK) -> List[Chunk]:
    """Group *documents* into chunks of at most *size* payloads, each
    homogeneous in its ``table=`` argument, keeping arrival order within
    a table."""
    open_chunks: Dict[Optional[str], Chunk] = {}
    done: List[Chunk] = []
    for document in documents:
        payload, table = raw_payload(document)
        chunk = open_chunks.get(table)
        if chunk is None:
            chunk = open_chunks[table] = Chunk(table, [], [])
        chunk.payloads.append(payload)
        chunk.labels.append(document.doc_id)
        if len(chunk.payloads) >= size:
            done.append(open_chunks.pop(table))
    done.extend(chunk for chunk in open_chunks.values() if chunk.payloads)
    return done


def _interleaved(order: random.Random, chunks: List[Chunk]) -> List[Chunk]:
    """Spread each table's chunks evenly over the whole load, so every
    stretch of it holds the same mix of formats."""
    per_table: Dict[Optional[str], List[Chunk]] = {}
    for chunk in chunks:
        per_table.setdefault(chunk.table, []).append(chunk)
    placed = [
        ((index + order.random()) / len(group), chunk)
        for group in per_table.values()
        for index, chunk in enumerate(group)
    ]
    return [chunk for _position, chunk in sorted(placed, key=lambda pair: pair[0])]


def _csv_block(rng: random.Random, rows: int) -> Chunk:
    lines = ["sku,warehouse,on_hand,unit_cost"]
    for i in range(rows):
        lines.append(
            f"SKU-{i:05d},{rng.choice(['ams', 'sfo', 'sin'])},"
            f"{rng.randrange(0, 900)},{rng.uniform(1, 300):.2f}"
        )
    return Chunk("stock_levels", ["\n".join(lines)])


@dataclass
class Corpus:
    """Seeded chunks plus the generators that hold their ground truth."""

    chunks: List[Chunk]
    callcenter: CallCenterWorkload
    insurance: InsuranceWorkload
    legal: LegalWorkload
    relational: RelationalWorkload
    csv_rows: int = 0

    @property
    def document_count(self) -> int:
        """Documents the payloads convert to (CSV fans out per record)."""
        return sum(len(c.labels) for c in self.chunks) + self.csv_rows

    @property
    def user_bytes(self) -> int:
        return sum(c.user_bytes for c in self.chunks)


def bulk_corpus(seed: int, payloads: int) -> Corpus:
    """The ``load_enrich`` input: about *payloads* raw payloads — 65 %
    relational rows over eight tables, 25 % free text (call transcripts
    and claim forms), 9 % e-mail, the rest XML accident reports and one
    CSV block — shuffled, then chunked per ``table=`` argument with the
    tables' chunks interleaved, the way a shared ingest endpoint sees
    them (in ``ORDER_SEED`` order, see there)."""
    rng = random.Random(seed * 7919 + 17)
    order = random.Random(ORDER_SEED)
    n = max(payloads, 400)
    callcenter = CallCenterWorkload(
        n_customers=int(n * 0.05), n_transcripts=int(n * 0.15), seed=seed + 11
    )
    insurance = InsuranceWorkload(
        n_patients=int(n * 0.04), n_providers=max(4, n // 200),
        n_claims=int(n * 0.10), seed=seed + 23,
    )
    legal = LegalWorkload(
        n_companies=max(4, n // 100), n_contracts=int(n * 0.045),
        n_emails=int(n * 0.09), seed=seed + 31,
    )
    relational = RelationalWorkload(
        n_customers=max(10, int(n * 0.05)), n_orders=int(n * 0.40), seed=seed + 7
    )
    documents = list(callcenter.documents())
    documents += list(insurance.patients()) + list(insurance.providers())
    documents += list(insurance.claims())
    documents += list(insurance.accident_reports(max(4, n // 200)))
    documents += list(legal.documents())
    documents += list(relational.orders())
    order.shuffle(documents)  # a string chunk mixes transcripts, forms, mail and XML
    csv_rows = max(20, n // 160)
    chunks = _interleaved(order, _chunks(documents) + [_csv_block(rng, csv_rows)])
    return Corpus(chunks, callcenter, insurance, legal, relational, csv_rows)


def serving_corpus(seed: int, scale: float) -> Corpus:
    """The ``mixed_serving`` input: the four use-case corpora at a size
    discovery can finish inside set-up (``scale`` 1.0 is about 350
    payloads), in generator order."""
    def sized(base: int) -> int:
        return max(5, int(base * scale))

    callcenter = CallCenterWorkload(
        n_customers=sized(20), n_transcripts=sized(40), seed=seed + 11
    )
    insurance = InsuranceWorkload(
        n_patients=sized(15), n_providers=sized(6), n_claims=sized(40), seed=seed + 23
    )
    legal = LegalWorkload(
        n_companies=sized(8), n_contracts=sized(10), n_emails=sized(30), seed=seed + 31
    )
    relational = RelationalWorkload(
        n_customers=sized(20), n_orders=sized(100), seed=seed + 7
    )
    documents = list(callcenter.documents()) + list(insurance.documents())
    documents += list(legal.documents()) + list(relational.orders())
    return Corpus(_chunks(documents), callcenter, insurance, legal, relational)


def relational_rows(seed: int, customers: int, orders: int):
    """Plain ``customers`` and ``orders`` row dicts (the harness keeps them
    as the ground truth its reference evaluation runs over)."""
    workload = RelationalWorkload(n_customers=customers, n_orders=orders, seed=seed + 7)
    customer_rows = [raw_payload(d)[0] for d in workload.customers()]
    order_rows = [raw_payload(d)[0] for d in workload.orders()]
    return customer_rows, order_rows
