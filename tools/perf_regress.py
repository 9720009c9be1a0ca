"""Performance-regression gate over the committed benchmark headlines.

Re-runs the quick benchmarks into scratch files and compares each
headline ratio against its committed baseline (``git show HEAD:<file>``;
falls back to the working-tree copy when the file is new or the tree is
not a git checkout).  A headline that lands more than ``TOLERANCE``
below its baseline fails the gate — faster is always fine.

Headlines are *ratios* (speedups), not absolute wall times, so the gate
is stable across machines: a slower container slows both sides of every
comparison.  Run by ``make perf-regress`` (wired into ``make verify``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Allowed relative drop before the gate fails (0.2 == 20%).
TOLERANCE = 0.2

#: Fresh-run attempts per benchmark.  Headlines are wall-clock ratios,
#: so a single quick run can dip below the floor on pure scheduler
#: noise; the gate keeps the per-headline best across attempts and
#: stops early once everything clears.  A real regression fails all
#: three attempts.
MAX_ATTEMPTS = 3

#: (committed baseline, benchmark script, headline paths into the JSON)
CHECKS = [
    (
        "BENCH_exec.json",
        "benchmarks/bench_exec_vectorized.py",
        ["columnar.speedup"],
    ),
    (
        "BENCH_cache.json",
        "benchmarks/bench_cache.py",
        ["speedup"],
    ),
    (
        "BENCH_adaptive.json",
        "benchmarks/bench_adaptive.py",
        ["chaos.sim_speedup"],
    ),
]


def load_baseline(name: str):
    """The committed JSON for *name*, else the working-tree copy."""
    try:
        blob = subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(blob), "HEAD"
    except (subprocess.CalledProcessError, FileNotFoundError, json.JSONDecodeError):
        pass
    path = os.path.join(REPO_ROOT, name)
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh), "working tree"
    return None, None


def dig(summary: dict, dotted: str):
    node = summary
    for part in dotted.split("."):
        node = node[part]
    return float(node)


def run_fresh(script: str, out_path: str) -> dict | None:
    """One quick run of *script* into *out_path*; None if the run errored."""
    proc = subprocess.run(
        [sys.executable, script, "--quick", "--out", out_path],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        tail = "\n".join((proc.stderr or proc.stdout).strip().splitlines()[-6:])
        print(f"  {script}: attempt errored (exit {proc.returncode}):\n{tail}")
        return None
    with open(out_path) as fh:
        return json.load(fh)


def check_benchmark(baseline_name, script, headlines, scratch) -> list:
    """Regressed-headline messages for one benchmark (empty == pass)."""
    baseline, source = load_baseline(baseline_name)
    if baseline is None:
        print(f"  {baseline_name}: no baseline anywhere, skipping")
        return []
    best = {}
    ran = 0
    for attempt in range(MAX_ATTEMPTS):
        fresh = run_fresh(script, os.path.join(scratch, baseline_name))
        if fresh is None:
            continue
        ran += 1
        for headline in headlines:
            got = dig(fresh, headline)
            best[headline] = max(best.get(headline, got), got)
        floors = (dig(baseline, h) * (1.0 - TOLERANCE) for h in headlines)
        if all(best[h] >= f for h, f in zip(headlines, floors)):
            break
    if ran == 0:
        return [f"{baseline_name}: all {MAX_ATTEMPTS} fresh runs errored"]
    failures = []
    for headline in headlines:
        want = dig(baseline, headline)
        got = best[headline]
        floor = want * (1.0 - TOLERANCE)
        verdict = "ok" if got >= floor else "REGRESSED"
        print(
            f"  {baseline_name}:{headline}: baseline({source})"
            f" {want:.2f}x, fresh {got:.2f}x, floor {floor:.2f}x"
            f" -> {verdict}"
        )
        if got < floor:
            failures.append(
                f"{baseline_name}:{headline} fell {want:.2f}x -> {got:.2f}x"
                f" (> {TOLERANCE:.0%} regression)"
            )
    return failures


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="perf-regress-") as scratch:
        for baseline_name, script, headlines in CHECKS:
            failures.extend(
                check_benchmark(baseline_name, script, headlines, scratch)
            )
    if failures:
        print("\nPERF REGRESS: FAIL")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("\nPERF REGRESS: OK (all headlines within tolerance)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
