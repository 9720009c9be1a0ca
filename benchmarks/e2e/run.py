#!/usr/bin/env python3
"""End-to-end benchmark of the appliance.

One round (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload scan_sql --seed 1 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.

A full run (no ``--seconds``)::

    python3 benchmarks/e2e/run.py [--seed N] [--rounds R] [--workload W] [--trace] [--quick]

runs R interleaved rounds of every workload (w1,w2,w3,w4,w1,...), each in
a fresh interpreter, reports each metric as the median over rounds, fails
if rounds of one seed disagree on anything that must repeat exactly, and
writes the results to ``benchmarks/e2e/out/results.json``.  With
``--seeds 1,2,...`` there is one round per seed instead, and each metric's
spread over them — the noise study the bounds are set against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402 - needs nothing from src/

MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
HISTORY = os.path.join(HERE, "history.jsonl")
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
QUICK_SECONDS = 1.0


# ----------------------------------------------------------------------
# one round, in this process
# ----------------------------------------------------------------------
def run_round(args: argparse.Namespace) -> int:
    import harness

    harness.SETUP_REPEATS = args.setups
    if args.trace:
        result = harness.run_traced(args.workload, args.seed, args.seconds)
    else:
        result = harness.run_untraced(args.workload, args.seed, args.seconds)
    detail = result["detail"]
    values = {name: result["metrics"][name] for name in metrics.UNITS if name in result["metrics"]}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in values.items():
        print(f"{name:44s} {value:16.6f} {metrics.UNITS[name]}")
    print(f"{'failed_share':44s} {detail['failed'] / detail['attempted']:16.6f} share")
    extra = {k: v for k, v in result.items() if k != "metrics"}
    print("detail " + json.dumps(extra, sort_keys=True))
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": value, "unit": metrics.UNITS[name]}
            for name, value in values.items()
        },
    }))
    return 0


# ----------------------------------------------------------------------
# a full run: rounds in fresh interpreters
# ----------------------------------------------------------------------
def _spawn(workload: str, seed: int, seconds: float, trace: int, setups: int) -> Dict[str, Any]:
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--setups", str(setups),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"round failed: {' '.join(command)}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result.update(json.loads(lines[-2][len("detail "):]))
    result["round_wall_s"] = time.perf_counter() - started
    return result


def full_run(args: argparse.Namespace) -> int:
    import workloads as workload_module

    names = args.workloads or list(workload_module.WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else float(_manifest()["run_seconds"])
    seeds = args.seeds or [args.seed] * (1 if args.quick else args.rounds)
    rounds = len(seeds)
    setups = 1 if args.quick else args.setups
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    for index, seed in enumerate(seeds):
        for name in names:  # interleaved: drift hits every workload alike
            print(f"round {index + 1}/{rounds} {name} seed {seed} ...", file=sys.stderr,
                  flush=True)
            untraced[name].append(_spawn(name, seed, seconds, 0, setups))
    traced = {}
    if args.trace_round:
        for name in names:
            print(f"traced round {name} ...", file=sys.stderr, flush=True)
            traced[name] = _spawn(name, seeds[0], seconds, 1, setups)

    report: Dict[str, Any] = {
        "seeds": seeds, "rounds": rounds, "seconds": seconds, "quick": args.quick,
        "environment": _environment(), "workloads": {},
    }
    exit_code = 0
    for name in names:
        runs = untraced[name]
        entry: Dict[str, Any] = {"end_to_end": {}, "failures": {}, "attempted": 0, "failed": 0}
        print(f"\n== {name}: {rounds} round(s) of {runs[0]['detail']['timed_region_s']:.1f} s, "
              f"{runs[0]['detail']['latency_samples']} calls each "
              f"({runs[0]['detail']['samples_beyond_p95']} beyond p95)")
        for metric in metrics.END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            spread = metrics.relative_spread(values)
            entry["end_to_end"][metric.name] = {
                "unit": metric.unit, "median": metrics.median(values), "rounds": values,
                "spread": spread,
            }
            shown = (f"spread {spread:6.2%} (bound {metric.bound:.2%})" if args.seeds
                     else "[" + " ".join(f"{v:.4f}" for v in values) + "]")
            print(f"  {metric.name:40s} {metrics.median(values):14.4f} {metric.unit:9s} {shown}")
        for run in runs + ([traced[name]] if name in traced else []):
            entry["attempted"] += run["attempted"]
            entry["failed"] += run["failed"]
            for kind, by_reason in run["detail"]["failures"].items():
                for reason, count in by_reason.items():
                    slot = entry["failures"].setdefault(kind, {})
                    slot[reason] = slot.get(reason, 0) + count
        share = entry["failed"] / entry["attempted"]
        print(f"  {'failed_share':40s} {share:14.6f} share  {entry['failures'] or ''}")
        first_of_seed: Dict[int, Dict[str, Any]] = {}
        for seed, run in zip(seeds, runs):
            if first_of_seed.setdefault(seed, run["determinism"]) != run["determinism"]:
                print(f"  DETERMINISM: rounds of seed {seed} disagree on {name}:")
                print("    " + json.dumps(first_of_seed[seed], sort_keys=True))
                print("    " + json.dumps(run["determinism"], sort_keys=True))
                exit_code = 1
        entry["determinism"] = [first_of_seed[seed] for seed in sorted(first_of_seed)]
        if name in traced:
            run = traced[name]
            entry["per_layer"] = {n: m["value"] for n, m in run["metrics"].items()}
            entry["layer_self_ms"] = run["detail"]["layer_self_ms"]
            entry["layer_sum_over_region"] = run["detail"]["layer_sum_over_region"]
            print(f"  -- traced round: layer self times sum to "
                  f"{run['detail']['layer_sum_over_region']:.3f} of the timed region")
            for layer, self_ms in run["detail"]["layer_self_ms"].items():
                print(f"     {layer:12s} {self_ms:12.1f} ms self")
            for metric_name, metric in run["metrics"].items():
                print(f"  {metric_name:40s} {metric['value']:14.4f} {metric['unit']}")
        report["workloads"][name] = entry

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "results.json"), "w", encoding="utf-8") as out:
        json.dump(report, out, indent=1, sort_keys=True)
    if args.record:
        with open(HISTORY, "a", encoding="utf-8") as out:
            out.write(json.dumps(_history_line(report), sort_keys=True) + "\n")
    return exit_code


def _environment() -> Dict[str, Any]:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT
    )
    return {
        "commit": commit.stdout.strip() if commit.returncode == 0 else "unknown",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _history_line(report: Dict[str, Any]) -> Dict[str, Any]:
    line = dict(report["environment"], seeds=report["seeds"], rounds=report["rounds"],
                seconds=report["seconds"], metrics={})
    for name, entry in report["workloads"].items():
        line["metrics"][name] = {m: v["median"] for m, v in entry["end_to_end"].items()}
        line["metrics"][name]["failed_share"] = entry["failed"] / entry["attempted"]
    return line


# ----------------------------------------------------------------------
# --check: names emitted == names declared == names in BENCHMARK.json
# ----------------------------------------------------------------------
def _manifest() -> Dict[str, Any]:
    with open(MANIFEST, encoding="utf-8") as handle:
        return json.load(handle)


def check_names(emitted: Optional[Dict[int, Dict[str, List[str]]]] = None) -> List[str]:
    """Problems found holding the registry, ``BENCHMARK.json`` and (when
    given) the names each workload emitted per trace mode to each other."""
    import workloads as workload_module

    manifest = _manifest()
    problems = []
    declared = {
        "end_to_end": {m.name: m for m in metrics.END_TO_END},
        "per_layer": {m.name: m for m in metrics.PER_LAYER},
    }
    for section, registry in declared.items():
        listed = {m["name"]: m for m in manifest[section]}
        for name in sorted(set(listed) ^ set(registry)):
            problems.append(f"{section}: {name} is not in both BENCHMARK.json and metrics.py")
        for name in sorted(set(listed) & set(registry)):
            if not NAME_RE.match(name):
                problems.append(f"{section}: bad name {name!r}")
            for key in ("unit", "better") + (("bound",) if section == "end_to_end" else ()):
                if listed[name][key] != getattr(registry[name], key):
                    problems.append(f"{section}: {name}.{key} differs from metrics.py")
    listed_workloads = [w["name"] for w in manifest["workloads"]]
    if listed_workloads != list(workload_module.WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.py")
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        for workload, names in (emitted or {}).get(trace, {}).items():
            for name in sorted(set(names) ^ set(declared[section])):
                problems.append(f"{workload} --trace {trace}: {name} emitted xor declared")
    return problems


def check(args: argparse.Namespace) -> int:
    import workloads as workload_module

    emitted: Dict[int, Dict[str, List[str]]] = {0: {}, 1: {}}
    for name in workload_module.WORKLOADS:
        for trace in (0, 1):
            print(f"check: {name} --trace {trace} ...", file=sys.stderr, flush=True)
            run = _spawn(name, args.seed, QUICK_SECONDS, trace, 1)
            emitted[trace][name] = list(run["metrics"])
    problems = check_names(emitted)
    for problem in problems:
        print("CHECK: " + problem)
    print("check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", dest="workloads",
                        help="workload to run (repeatable in a full run; default all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run one round of this length in this process")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="one round: 1 = traced, per-layer metrics; "
                             "full run: add a traced round per workload")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seeds", type=lambda text: [int(n) for n in text.split(",")],
                        help="full run: one round per listed seed, and the spread over them")
    parser.add_argument("--setups", type=int, default=3,
                        help="set-ups made per untraced round (setup_s is their median)")
    parser.add_argument("--quick", action="store_true", help="one short round, for smoke use")
    parser.add_argument("--check", action="store_true",
                        help="emitted names == metrics.py == BENCHMARK.json")
    parser.add_argument("--record", action="store_true",
                        help="append commit, environment, seed and medians to history.jsonl")
    args = parser.parse_args(argv)
    if args.check:
        return check(args)
    if args.seconds is not None:
        if not args.workloads or len(args.workloads) != 1:
            parser.error("one round needs exactly one --workload")
        args.workload = args.workloads[0]
        return run_round(args)
    args.trace_round = bool(args.trace)
    return full_run(args)


if __name__ == "__main__":
    sys.exit(main())
