"""The QoS tiers a session or standing query is attributed to."""

from __future__ import annotations

from typing import Tuple

QOS_INTERACTIVE = "interactive"
QOS_BATCH = "batch"
QOS_DISCOVERY = "discovery"
QOS_TIERS: Tuple[str, ...] = (QOS_INTERACTIVE, QOS_BATCH, QOS_DISCOVERY)
