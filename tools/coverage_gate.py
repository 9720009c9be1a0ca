#!/usr/bin/env python
"""Line-coverage gate for the change feed and its consumers (``make coverage``).

Runs the cache + materialization + IVM + standing-query + change-feed
test files and fails when line coverage of ``repro.cache``,
``repro.storage.bus`` (the change feed), ``repro.ingest.pipeline`` and
``repro.query.materialized`` / ``repro.query.ivm`` /
``repro.query.continuous`` drops below the floor — the delta machinery
is the one place a silently untested branch turns into a stale answer.

Prefers ``pytest-cov`` when it is installed.  In minimal containers
(no pytest-cov, no coverage.py) it falls back to the stdlib ``trace``
module: the test run executes under a line tracer, executable lines are
recovered from the compiled code objects, and the ratio is gated the
same way.  The fallback's line accounting is slightly coarser than
coverage.py's (it sees lines the interpreter starts, not statements), so
the floor is set with margin below the measured value.
"""

from __future__ import annotations

import dis
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Modules the gate measures.
TARGET_FILES = [
    "src/repro/cache/__init__.py",
    "src/repro/storage/bus.py",
    "src/repro/ingest/pipeline.py",
    "src/repro/cache/config.py",
    "src/repro/cache/hierarchy.py",
    "src/repro/cache/plancache.py",
    "src/repro/cache/probememo.py",
    "src/repro/cache/resultcache.py",
    "src/repro/query/materialized.py",
    "src/repro/query/ivm.py",
    "src/repro/query/continuous.py",
]

#: The tests that exercise them.
TEST_FILES = [
    "tests/test_cache.py",
    "tests/test_cache_properties.py",
    "tests/test_materialized.py",
    "tests/test_ivm.py",
    "tests/test_ivm_properties.py",
    "tests/test_subscription_deltas.py",
    "tests/test_change_feed.py",
]

#: Fail-under floor (percent, across all target files combined).
FLOOR = 80.0

PYTEST_ARGS = ["-q", "-p", "no:cacheprovider", "-W", "ignore::DeprecationWarning"]


def _have_pytest_cov() -> bool:
    try:
        import pytest_cov  # noqa: F401

        return True
    except ImportError:
        return False


def run_with_pytest_cov() -> int:
    import subprocess

    cmd = [
        sys.executable,
        "-m",
        "pytest",
        "--cov=repro.cache",
        "--cov=repro.storage.bus",
        "--cov=repro.ingest.pipeline",
        "--cov=repro.query.materialized",
        "--cov=repro.query.ivm",
        "--cov=repro.query.continuous",
        f"--cov-fail-under={FLOOR}",
        *PYTEST_ARGS,
        *TEST_FILES,
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.call(cmd, cwd=REPO, env=env)


# ----------------------------------------------------------------------
# stdlib fallback
# ----------------------------------------------------------------------
def _executable_lines(path: str) -> set:
    """Line numbers the interpreter can start, from the compiled code
    object tree (the stdlib analogue of coverage.py's statement set)."""
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines = set()
    stack = [code]
    while stack:
        obj = stack.pop()
        for _, line in dis.findlinestarts(obj):
            if line is not None:
                lines.add(line)
        for const in obj.co_consts:
            if hasattr(const, "co_code"):
                stack.append(const)
    return lines


def run_with_trace() -> int:
    import trace

    import pytest

    sys.path.insert(0, os.path.join(REPO, "src"))
    os.chdir(REPO)
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    rc = tracer.runfunc(pytest.main, PYTEST_ARGS + TEST_FILES)
    if rc not in (0, None):
        print(f"coverage gate: test run failed (exit {rc})")
        return int(rc)

    counts = tracer.results().counts  # {(filename, lineno): hits}
    executed_by_file: dict = {}
    for (filename, lineno), _ in counts.items():
        executed_by_file.setdefault(os.path.abspath(filename), set()).add(lineno)

    total_executable = 0
    total_executed = 0
    print(f"\n{'file':<44} {'lines':>6} {'hit':>6} {'cover':>7}")
    print("-" * 66)
    for rel in TARGET_FILES:
        path = os.path.join(REPO, rel)
        executable = _executable_lines(path)
        executed = executed_by_file.get(os.path.abspath(path), set()) & executable
        total_executable += len(executable)
        total_executed += len(executed)
        pct = 100.0 * len(executed) / len(executable) if executable else 100.0
        print(f"{rel:<44} {len(executable):>6} {len(executed):>6} {pct:>6.1f}%")
    total_pct = 100.0 * total_executed / total_executable if total_executable else 100.0
    print("-" * 66)
    print(f"{'TOTAL':<44} {total_executable:>6} {total_executed:>6} {total_pct:>6.1f}%")

    if total_pct < FLOOR:
        print(f"\ncoverage gate FAILED: {total_pct:.1f}% < floor {FLOOR:.1f}%")
        return 1
    print(f"\ncoverage gate passed: {total_pct:.1f}% >= floor {FLOOR:.1f}%")
    return 0


def main() -> int:
    if _have_pytest_cov():
        print("coverage gate: using pytest-cov")
        return run_with_pytest_cov()
    print("coverage gate: pytest-cov not installed; using stdlib trace fallback")
    return run_with_trace()


if __name__ == "__main__":
    raise SystemExit(main())
