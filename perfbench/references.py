"""Regenerate ``references.json``, the headline numbers ``result_drift`` uses.

    python3 perfbench/references.py --seeds 0-31

Runs one full pass of every workload at the checked-out commit and stores
its headline numbers.  Headlines of operations whose inputs come from the
seed are stored per seed; the rest once.  Every check must pass, or nothing
is written.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def headlines(name, seed, work):
    workload = workloads.WORKLOADS[name]
    rec = run.run_pass(workload, workloads.Context(seed, "full", work))
    if rec["failed"]:
        raise SystemExit(f"{name} seed {seed}: checks failed: "
                         f"{[rec['notes'][op] for op in rec['failed']]}")
    seeded = tuple(f"{op.name}." for op in workload.ops if op.seeded)
    common = {k: v for k, v in rec["headlines"].items()
              if not k.startswith(seeded)}
    return common, {k: v for k, v in rec["headlines"].items()
                    if k.startswith(seeded)}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True,
                        help="inclusive range such as 0-31")
    args = parser.parse_args()
    work = run.ROOT / ".perfbench_work" / "references"
    work.mkdir(parents=True, exist_ok=True)
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    doc = {"command": f"python3 perfbench/references.py --seeds "
                      f"{args.seeds[0]}-{args.seeds[-1]}",
           "commit": commit or "unknown", "common": {}, "seeded": {}}
    try:
        for name, workload in workloads.WORKLOADS.items():
            has_seeded = any(op.seeded for op in workload.ops)
            for seed in args.seeds if has_seeded else args.seeds[:1]:
                common, seeded = headlines(name, seed, work)
                doc["common"].update(common)
                if seeded:
                    doc["seeded"].setdefault(str(seed), {}).update(seeded)
                print(f"{name} seed {seed}: {len(common) + len(seeded)} "
                      f"headlines", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    path = run.HERE / "references.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
