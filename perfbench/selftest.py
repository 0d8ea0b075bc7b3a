"""Self-test of the benchmark, every workload at its tiny size.

    python3 perfbench/selftest.py

For each workload it checks that:
  1. every end-to-end metric of BENCHMARK.json is emitted with its unit by
     an untraced run, and every per-layer metric by a traced run;
  2. another --seed changes the headline numbers of every operation whose
     inputs are seeded, leaves the other operations' headlines alone, and
     the same seed reproduces them all;
  3. traced passes write artifacts byte-identical to untraced passes.
Exits nonzero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: exit "
                 f"{proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    heads = {}
    for text in lines:
        if text.startswith("headline "):
            _, name, value = text.split()
            heads[name] = float(value)
    identical = any(text.startswith("artifacts identical") and
                    text.endswith(": yes") for text in lines)
    return json.loads(lines[-1]), heads, identical


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def op_of(headline):
    return headline.split(".")[0]


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    import tracing
    import workloads

    layer_spec = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]
    expect(layer_spec == [(n, u) for n, u, _ in tracing.LAYER_METRICS],
           "BENCHMARK.json per_layer matches tracing.LAYER_METRICS")
    names = [w["name"] for w in SPEC["workloads"]]
    expect(names == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    for name in names:
        seeded = {op.name for op in workloads.WORKLOADS[name].ops
                  if op.seeded}
        plain1, heads1, _ = bench(name, 1, 0)
        _, heads2, _ = bench(name, 2, 0)
        traced1, heads1t, identical = bench(name, 1, 1)
        for result, section in ((plain1, "end_to_end"),
                                (traced1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{name}: {section} metrics with units")
        expect(heads1 == heads1t and heads1,
               f"{name}: seed 1 reproduces its headline numbers")
        changed = {op_of(k) for k in heads1 if heads1[k] != heads2.get(k)}
        expect(changed == seeded,
               f"{name}: seed 2 changes exactly the seeded operations "
               f"{sorted(seeded)}")
        expect(identical, f"{name}: traced artifacts identical to untraced")
    print("selftest passed")


if __name__ == "__main__":
    main()
