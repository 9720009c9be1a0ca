"""The op wrapper every call in a timed region goes through.

One ``Recorder`` per timed region.  ``call`` times the call on the wall
clock, adds up the simulated cost of what came back, and — instead of
letting an exception end the run or disappear — records the op kind and
the exception class and moves on.  Output checks run after the region
and report through ``fail`` into the same table, so ``failed`` counts
calls that raised, were shed, or answered wrongly.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple


class Recorder:
    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.kinds: List[str] = []
        self.latencies: List[float] = []  # seconds, one per call
        self.sim_ms = 0.0                 # sum of QueryResult.sim_ms
        #: op kind -> exception class (or check name) -> count
        self.failures: Dict[str, Dict[str, int]] = {}
        self.failed_calls = 0
        self.started = 0.0
        self.ended = 0.0
        self._kept: List[Tuple[str, Any]] = []

    # ------------------------------------------------------------------
    def begin(self) -> None:
        self.started = time.perf_counter()

    def end(self) -> None:
        self.ended = time.perf_counter()

    @property
    def wall_s(self) -> float:
        return self.ended - self.started

    @property
    def attempted(self) -> int:
        return len(self.kinds)

    # ------------------------------------------------------------------
    def call(self, kind: str, fn: Callable, *args: Any, keep: bool = False,
             **kwargs: Any) -> Any:
        """Run one op; returns its result, or None when it raised."""
        tracer = self.tracer
        frame = tracer.begin_op(kind) if tracer is not None else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the loop must go on; classified below
            elapsed = time.perf_counter() - start
            if frame is not None:
                tracer.exit(frame)
            self._count(kind, type(exc).__name__)
            self.failed_calls += 1
            result = None
        else:
            elapsed = time.perf_counter() - start
            if frame is not None:
                tracer.exit(frame)
            self.sim_ms += getattr(result, "sim_ms", 0.0)
        self.kinds.append(kind)
        self.latencies.append(elapsed)
        if keep:
            self._kept.append((kind, result))
        return result

    def fail(self, kind: str, reason: str, count: int = 1) -> None:
        """Report *count* calls of *kind* whose output failed a check (or
        that the program dropped without raising)."""
        self._count(kind, reason, count)
        self.failed_calls += count

    def _count(self, kind: str, reason: str, count: int = 1) -> None:
        by_reason = self.failures.setdefault(kind, {})
        by_reason[reason] = by_reason.get(reason, 0) + count

    # ------------------------------------------------------------------
    def kept(self) -> List[Tuple[str, Any]]:
        """(kind, result) of every ``keep=True`` call, in call order; a
        call that raised is kept as ``(kind, None)``."""
        return self._kept

    def compact(self) -> None:
        """Once the outputs have been checked, keep only their sizes (a
        count stays a count, a sequence becomes its length): a kept list
        of stored documents would otherwise pin the whole appliance it
        came from."""
        self._kept = [
            (kind, out if isinstance(out, int) else len(out) if hasattr(out, "__len__") else 0)
            for kind, out in self._kept
        ]
