"""Run every workload and print each end-to-end metric by name with its unit.

    python3 bench/suite.py [--runs 3] [--seconds 30] [--out .bench_work/suite.json]

Each workload runs --runs times untraced (seeds 1..runs), each run in a
fresh interpreter, then once traced (seed 1).  For every workload this
prints each end-to-end metric's median, quartiles and sample count, the
failed fraction of all jobs attempted, and the traced run's per-layer
metrics.  All run records go to --out, which `compare.py` reads.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); a single value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    record = next(json.loads(ln[len("RECORD "):]) for ln in lines if ln.startswith("RECORD "))
    return record, json.loads(lines[-1])


def _collect(into: dict, result: dict) -> None:
    for name, metric in result["metrics"].items():
        into.setdefault(name, {"unit": metric["unit"], "values": []})["values"].append(metric["value"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=str(BENCH.parent / ".bench_work" / "suite.json"))
    args = parser.parse_args(argv)

    summary = {"runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        entry = {"end_to_end": {}, "per_layer": {}, "attempted": 0, "failed": 0, "records": []}
        for seed, trace in [(s, 0) for s in range(1, args.runs + 1)] + [(1, 1)]:
            record, result = run_once(workload, seed, args.seconds, trace)
            _collect(entry["per_layer" if trace else "end_to_end"], result)
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["records"].append(record)
        summary["workloads"][workload] = entry
        _print(workload, entry)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary) + "\n")
    print(f"records written to {out}")
    return 0


def _print(workload: str, entry: dict) -> None:
    print(f"== {workload}: {entry['attempted']} jobs attempted, "
          f"failed_frac {entry['failed'] / entry['attempted']:.4f} (1)")
    for kind in ("end_to_end", "per_layer"):
        for name, metric in entry[kind].items():
            q1, median, q3 = quartiles(metric["values"])
            print(f"  {name:30s} {median:14.6g} {metric['unit']:6s} "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}, n={len(metric['values'])}]")


if __name__ == "__main__":
    sys.exit(main())
