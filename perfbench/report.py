"""Run every workload with its correctness checks and print all its metrics.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

Each workload runs in its own process through run.py, so ``peak_rss_mb`` is
per workload.  The untraced run prints every end-to-end metric with its unit
and sample count: setup_s, wall_s, the seconds of each operation,
peak_rss_mb, failed_frac, format_errors and result_drift.  ``--trace`` adds
the traced run with the per-layer metrics.  Exits 1 if any run reports
incorrect outputs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1) if args.trace else (0,):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)], capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            print(f"== {workload} trace {trace} (exit {proc.returncode})")
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                all_correct = False
                continue
            result = json.loads(lines[-1])
            for text in lines[:-1]:
                if not text.startswith("headline "):
                    print(text)
            print(f"correct {result['correct']}: {result['failed']} of "
                  f"{result['attempted']} operations failed\n")
            all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
