"""The multi-tenant serving layer (docs/SERVING.md).

Sessions bind every request to a
:class:`~repro.security.policy.Principal`'s tenant and a QoS tier; the
:class:`RequestScheduler` runs each request synchronously and counts its
outcome per tenant and tier.
"""

from repro.serving.config import (
    QOS_BATCH,
    QOS_DISCOVERY,
    QOS_INTERACTIVE,
    QOS_TIERS,
)
from repro.serving.scheduler import Request, RequestScheduler
from repro.serving.session import Session

__all__ = [
    "QOS_BATCH",
    "QOS_DISCOVERY",
    "QOS_INTERACTIVE",
    "QOS_TIERS",
    "Request",
    "RequestScheduler",
    "Session",
]
