"""qplab benchmark: runs one workload in this process and reports its metrics.

    python3 perfbench/run.py --workload {cocycle,boxes,paving} --seed N \\
        --seconds S --trace {0,1} [--size {full,tiny}]

With ``--trace 0`` it runs a tiny warm-up pass, then full passes of the
workload's operations until the next one would overrun ``--seconds``, and
times set-up (fresh interpreters importing qplab and loading the workload's
first config) before and after those passes.  Every operation's outputs are
checked after each pass, outside the timed region and in a forked child, so
that the checks' memory stays out of ``peak_rss_mb``.  With ``--trace 1`` half
of the time goes to untraced passes and half to passes with the layer
wrappers of ``tracing.py`` installed.  Human-readable lines
come first; the last line of standard output is the JSON result.

BLAS and OpenMP pools are pinned to one thread.  The program under test is
the ``src/qplab`` tree next to this directory.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Set-up is timed this many times before the measured passes and again after
# them, so that its median spans the run rather than one moment of it.
SETUP_REPEATS = 6

# Set-up as a user pays it: a fresh interpreter imports qplab, validates the
# workload's first config and builds its system.
SETUP_CODE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import qplab
from qplab import cli, model
config = json.loads(sys.argv[2])
cli.validate_config(config)
model.system_from_json(config["system"])
"""


def setup_seconds(config):
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        json.dumps(config)], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def machine_info():
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def cache(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True,
                                 text=True).stdout.strip()
        except OSError:
            return None
        return int(out) if out.isdigit() else None

    return {"nproc": os.cpu_count(), "cpu": cpu,
            "l2_bytes": cache("LEVEL2_CACHE_SIZE"),
            "l3_bytes": cache("LEVEL3_CACHE_SIZE"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def _digest(path: Path) -> str:
    if path.name == "manifest.json":
        # The manifest records the run's wall time; everything else in it
        # must reproduce.
        doc = json.loads(path.read_text())
        doc.pop("wall_time_s", None)
        return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()
                              ).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_in_child(op, ctx, state, result):
    """``op.check`` in a forked child; returns its ``Outcome``.

    The check's own allocations (a dense reference solve, a whole Cramer
    matrix) then stay out of this process's peak RSS, which measures the
    program.  An exception in the check becomes a failed outcome.
    """
    import workloads

    sys.stdout.flush()
    sys.stderr.flush()
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            try:
                outcome = op.check(ctx, state, result)
            except Exception as exc:
                outcome = workloads.Outcome(False,
                                            f"{type(exc).__name__}: {exc}")
            with os.fdopen(wfd, "wb") as fh:
                pickle.dump(outcome, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"check process ended with status {status}")
    return pickle.loads(data)


def run_pass(workload, ctx, tracer=None, checked=None):
    """Every operation once, then its checks; returns the pass record.

    ``checked`` maps an operation to the artifact digests and outcome of its
    first check in this run.  A later pass whose artifacts are byte-identical
    reuses that outcome instead of reading them again.
    """
    import tracing

    checked = {} if checked is None else checked
    state, results, seconds = {}, {}, {}
    if tracer is not None:
        tracer.install(tracing.targets())
    try:
        start = time.perf_counter()
        for op in workload.ops:
            t0 = time.perf_counter()
            try:
                results[op.name] = op.run(ctx, state)
            except Exception as exc:    # a failed operation is an outcome
                results[op.name] = exc
            seconds[op.name] = time.perf_counter() - t0
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    rec = {"wall": wall, "seconds": seconds, "failed": [], "notes": {},
           "headlines": {}, "format_errors": 0, "bytes": 0, "digests": {}}
    for op in workload.ops:
        out = ctx.out(op.name)
        digests = {}
        if op.cli and out.is_dir():
            for path in sorted(out.iterdir()):
                rec["bytes"] += path.stat().st_size
                digests[path.name] = _digest(path)
        rec["digests"][op.name] = digests
        result = results[op.name]
        try:
            if isinstance(result, Exception):
                raise result
            if op.cli and op.name in checked \
                    and checked[op.name][0] == digests:
                outcome = checked[op.name][1]
            else:
                outcome = check_in_child(op, ctx, state, result)
        except Exception as exc:
            rec["failed"].append(op.name)
            rec["notes"][op.name] = f"{type(exc).__name__}: {exc}"
            continue
        finally:
            if out.is_dir():
                shutil.rmtree(out)
        checked.setdefault(op.name, (digests, outcome))
        rec["notes"][op.name] = outcome.detail
        if not outcome.ok:
            rec["failed"].append(op.name)
        rec["headlines"].update(outcome.headlines)
        rec["format_errors"] += outcome.format_errors
    return rec


def measure(workload, ctx, budget, checked, tracer_factory=None):
    """Passes until the next one would overrun ``budget`` seconds (>= 1)."""
    passes, used = [], 0.0
    while True:
        tracer = tracer_factory() if tracer_factory else None
        rec = run_pass(workload, ctx, tracer, checked)
        rec["tracer"] = tracer
        passes.append(rec)
        used += rec["wall"]
        if used + rec["wall"] > budget:
            return passes


def result_drift(headlines, seed):
    """Largest |headline - reference| and the number of headlines compared."""
    path = HERE / "references.json"
    if not path.is_file():
        return None, 0
    refs = json.loads(path.read_text())
    expected = dict(refs["common"])
    expected.update(refs["seeded"].get(str(seed), {}))
    shared = [k for k in headlines if k in expected]
    if not shared:
        return None, 0
    return max(abs(headlines[k] - expected[k]) for k in shared), len(shared)


def mark_irreproducible(passes):
    """Fail operations whose artifacts differ from the first pass's."""
    first = passes[0]["digests"]
    for rec in passes[1:]:
        for name, digests in rec["digests"].items():
            if digests != first[name] and name not in rec["failed"]:
                rec["failed"].append(name)
                rec["notes"][name] = "artifacts differ from the first pass"
    return all(rec["digests"] == first for rec in passes)


def line(name, value, unit, how=""):
    print(f"{name:32s} {value!r:>24} {unit:6s} {how}")


def main(argv=None) -> int:
    if not (SRC / "qplab" / "__init__.py").is_file():
        print(f"error: qplab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES),
                        default="full")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = workloads.Context(args.seed, args.size, work)
        print(f"# workload {args.workload} seed {args.seed} size {args.size} "
              f"trace {args.trace}")
        print(f"# machine {json.dumps(machine_info())}")
        setup = []
        if not args.trace:
            setup += setup_seconds(workload.first_config(ctx))
        run_pass(workload, workloads.Context(args.seed, "tiny", work))
        checked = {}
        if args.trace:
            plain = measure(workload, ctx, args.seconds / 2, checked)
            traced = measure(workload, ctx, args.seconds / 2, checked,
                             tracing.Tracer)
            passes = plain + traced
        else:
            passes = measure(workload, ctx, args.seconds, checked)
            setup += setup_seconds(workload.first_config(ctx))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    identical = mark_irreproducible(passes)
    attempted = len(workload.ops) * len(passes)
    failed = sum(len(rec["failed"]) for rec in passes)
    for k, rec in enumerate(passes):
        for op in workload.ops:
            if k == 0 or op.name in rec["failed"]:
                status = "FAIL" if op.name in rec["failed"] else "ok"
                print(f"check {op.name:10s} pass {k} {status:4s} "
                      f"{rec['notes'][op.name]}")
    for name, value in sorted(passes[0]["headlines"].items()):
        print(f"headline {name} {value!r}")
    for k, rec in enumerate(passes):
        ops = " ".join(f"{name}={sec:.4f}"
                       for name, sec in rec["seconds"].items())
        print(f"pass {k} wall {rec['wall']:.4f} s: {ops}")
    print(f"artifacts identical across {len(passes)} passes: "
          f"{'yes' if identical else 'no'}")

    if args.trace:
        metrics = trace_metrics(plain, traced)
    else:
        metrics = plain_metrics(passes, setup, peak_rss_mb, workload, args,
                                attempted, failed)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def plain_metrics(passes, setup, peak_rss_mb, workload, args, attempted,
                  failed):
    n = len(passes)
    walls = [rec["wall"] for rec in passes]
    line("setup_s", statistics.median(setup), "s", f"median of {len(setup)}")
    line("wall_s", statistics.median(walls), "s", f"median of {n}")
    for op in workload.ops:
        line(f"{op.name}_s",
             statistics.median(rec["seconds"][op.name] for rec in passes),
             "s", f"median of {n}")
    line("peak_rss_mb", peak_rss_mb, "MB", "whole process")
    line("failed_frac", failed / attempted, "1", f"{failed} of {attempted}")
    line("format_errors", max(rec["format_errors"] for rec in passes),
         "count", "plain float() on every CSV/.dat field")
    if args.size == "full":
        drift, compared = result_drift(passes[0]["headlines"], args.seed)
        line("result_drift", drift, "abs",
             f"over {compared} headline numbers in references.json")
    return {"setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}


def trace_metrics(plain, traced):
    import tracing

    per_pass = []
    for rec in traced:
        values = tracing.layer_values(rec["tracer"])
        values["cli.bytes_written"] = rec["bytes"]
        values["cli.format_errors"] = rec["format_errors"]
        per_pass.append(values)
    overhead = statistics.median(r["wall"] for r in traced) - \
        statistics.median(r["wall"] for r in plain)
    metrics = {}
    for name, unit, _ in tracing.LAYER_METRICS:
        value = overhead if name == "trace_overhead_s" else \
            statistics.median(p[name] for p in per_pass)
        line(name, value, unit, f"median of {len(per_pass)} traced passes")
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
