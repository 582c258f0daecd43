"""Maintain the benchmark's recorded files.

``python3 perfbench/record.py reference``
    Simulate the reference scenario of every workload (instance 0 of the
    reference seed) and write its outputs to ``reference.json``.  Only a
    change that is meant to alter simulated behaviour re-records them.

``python3 perfbench/record.py history --commit <sha> [--workloads a,b]``
    Run ``run.py`` on each workload at the reference seed, untraced and
    traced, and append one entry with both results and the traced run's
    attribution table to ``history.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

import checks
from run import REFERENCE_FILE, Bench
from workloads import REFERENCE_SEED, WORKLOADS, instance_seed

HERE = Path(__file__).resolve().parent
HISTORY_FILE = HERE / "history.jsonl"


def record_reference() -> None:
    recorded = {}
    for name, workload in WORKLOADS.items():
        instance = Bench(workload).run(instance_seed(REFERENCE_SEED, 0))
        if instance.failures:
            raise SystemExit(f"{name}: {instance.failures}")
        recorded[name] = checks.reference_values(instance.metrics)
        print(name, recorded[name], flush=True)
    REFERENCE_FILE.write_text(json.dumps(
        {"reference_seed": REFERENCE_SEED, "instance": 0,
         "workloads": recorded}, indent=2) + "\n")


def record_history(commit: str, names: List[str], seconds: float) -> None:
    entry = {"commit": commit, "seed": REFERENCE_SEED,
             "host": f"{platform.machine()} {platform.processor()} "
                     f"python {platform.python_version()}",
             "workloads": {}}
    for name in names:
        runs = {}
        for traced in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(REFERENCE_SEED), "--seconds", str(seconds),
                 "--trace", str(traced)],
                capture_output=True, text=True, check=True)
            lines = proc.stdout.splitlines()
            runs[f"trace{traced}"] = {"result": json.loads(lines[-1]),
                                      "table": lines[:-1]}
            print("\n".join(lines), flush=True)
        entry["workloads"][name] = runs
    with HISTORY_FILE.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("reference")
    history = sub.add_parser("history")
    history.add_argument("--commit", required=True)
    history.add_argument("--workloads",
                         default="rcast-bench,ieee80211-bench,rcast-1k")
    history.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)
    if args.what == "reference":
        record_reference()
    else:
        record_history(args.commit, args.workloads.split(","), args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
