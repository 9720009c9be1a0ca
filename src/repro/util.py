"""Small shared utilities: logical time, stable hashing, id generation,
and config validation.

The appliance avoids wall-clock time internally; every ordering decision
uses a :class:`LogicalClock` so simulations are deterministic and
repeatable run-to-run.
"""

from __future__ import annotations

import hashlib
from typing import Iterator, Sequence


class LogicalClock:
    """A monotonically increasing logical timestamp source (Lamport-style).

    ``tick()`` returns the next timestamp; ``observe(ts)`` advances the
    clock past an externally observed timestamp, preserving happens-before
    when two components exchange stamped messages.
    """

    def __init__(self, start: int = 0) -> None:
        self._now = start

    def tick(self) -> int:
        self._now += 1
        return self._now

    def observe(self, ts: int) -> int:
        self._now = max(self._now, ts)
        return self.tick()

    @property
    def now(self) -> int:
        return self._now


class IdGenerator:
    """Deterministic, prefixed, collision-free id sequences.

    ``IdGenerator("doc")`` yields ``doc-000001``, ``doc-000002``, ...
    Deterministic ids keep every experiment reproducible.  ``issued``
    counts the ids handed out; set it back to re-issue the ones after.
    """

    def __init__(self, prefix: str) -> None:
        if not prefix:
            raise ValueError("prefix must be non-empty")
        self.prefix = prefix
        self.issued = 0

    def next(self) -> str:
        self.issued += 1
        return f"{self.prefix}-{self.issued:06d}"

    def __iter__(self) -> Iterator[str]:
        while True:
            yield self.next()


def stable_hash(text: str, buckets: int) -> int:
    """Platform-stable hash of *text* into ``[0, buckets)``.

    Python's builtin ``hash`` is salted per-process; data placement must
    not depend on that, or replicas would land differently on every run.
    """
    if buckets <= 0:
        raise ValueError("buckets must be positive")
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % buckets


# ----------------------------------------------------------------------
# config validation — the one helper every ApplianceConfig sub-config
# (CacheConfig, IngestConfig, RecoveryConfig) and Impliance.connect's
# tier check validate through, so bad values are rejected the same way
# with the same message shape.
# ----------------------------------------------------------------------
def validate_positive(config: str, **fields: float) -> None:
    """Reject any field below 1: ``validate_positive("IngestConfig",
    batch_size=batch_size)`` raises ``ValueError("IngestConfig.batch_size
    must be >= 1")``."""
    for name, value in fields.items():
        if value < 1:
            raise ValueError(f"{config}.{name} must be >= 1")


def validate_choice(config: str, field: str, value: object, choices: Sequence) -> None:
    """Reject a value outside the allowed set, naming the alternatives."""
    if value not in choices:
        allowed = ", ".join(repr(c) for c in choices)
        raise ValueError(f"{config}.{field} must be one of {allowed}; got {value!r}")


def validate_that(config: str, condition: bool, message: str) -> None:
    """Reject on a cross-field constraint (``queue_capacity must hold at
    least one batch``) with the owning config named in the error."""
    if not condition:
        raise ValueError(f"{config}: {message}")
