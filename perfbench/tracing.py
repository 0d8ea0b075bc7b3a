"""Per-layer timing of qplab, from outside the package.

During a traced pass the public functions of each layer are replaced by
wrappers that record a span around every call.  A function imported with
``from .x import f`` is bound in several modules, so the wrapper is installed
in every ``qplab`` module that holds the original object (for example
``qplab.lyapunov.cocycle_batch`` as well as ``qplab.transfer.cocycle_batch``).
``uninstall`` puts the originals back, so untraced passes in the same process
run the unmodified code.

Spans are aggregated as they close: per span name the total time, the self
time (duration minus the time covered by direct child spans) and the call
count.  Counters record work done, measured at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self._stack = []          # [name, child seconds] per open span
        self._restore = []        # (owner, attribute, original)

    def inside(self, name):
        return any(frame[0] == name for frame in self._stack)

    def _wrap(self, fn, name, count):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._stack.pop()
                self.total[name] += dur
                self.self_time[name] += dur - frame[1]
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1][1] += dur
            if count is not None:
                count(self, lambda: sig.bind(*args, **kwargs).arguments,
                      result)
            return result

        return traced

    def install(self, targets):
        """Wrap each (owner, attribute, span name, counter) target.

        ``owner`` is a class (the method is replaced on the class) or a
        module; for a module every ``qplab`` module binding the same function
        object gets the wrapper.
        """
        for owner, attr, name, count in targets:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, count)
            if isinstance(owner, type):
                holders = [owner]
            else:
                holders = [m for key, m in list(sys.modules.items())
                           if key == "qplab" or key.startswith("qplab.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


def _module_functions(module):
    """Public functions defined in ``module`` (not re-exported imports)."""
    return [name for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__]


# Counters take (tracer, arguments, result); ``arguments()`` binds the call's
# arguments by name and is only paid for where a counter needs them.


def _count_eval(tracer, arguments, result):
    tracer.counts["model.eval_points"] += np.size(result)


def _count_cocycle(tracer, arguments, result):
    args = arguments()
    batch = np.size(args["thetas"]) // args["omega"].dim
    tracer.counts["transfer.phase_steps"] += int(args["n"]) * batch


def _count_solve(tracer, arguments, result):
    if tracer.inside("greens.pave"):
        tracer.counts["greens.pave_windows_solved"] += 1


def _count_pave(tracer, arguments, result):
    cert = result.certificate
    tracer.counts["greens.pave_windows_used"] += len(cert.windows)
    tracer.counts["greens.pave_sweeps"] += cert.iterations


def _count_add(tracer, arguments, result):
    # Bytes the call reads and writes, computed from array sizes.
    args = arguments()
    arrays = (np.asarray(args["signs"]), np.asarray(args["logs"]), *result)
    tracer.counts["slog.add_bytes"] += sum(a.nbytes for a in arrays)


def _count_csv(tracer, arguments, result):
    tracer.counts["greens.csv_rows"] += len(result) - 1


def targets():
    """Layer boundaries to wrap; the modules must already be imported."""
    from qplab import (cli, greens, ldt, localization, lowerbound, lyapunov,
                       model, slog, transfer)

    out = [
        (model.TrigPotential, "eval_batch", "model.eval", _count_eval),
        (model, "strip_norm", "model.strip_norm", None),
        (transfer, "cocycle_batch", "transfer.cocycle", _count_cocycle),
        (transfer, "det_sequence", "transfer.det_sequence", None),
        (transfer, "cocycle_complex", "transfer.complex", None),
        (greens, "green_solve", "greens.solve", _count_solve),
        (greens, "decay_fit", "greens.decay_fit", None),
        (greens, "pave", "greens.pave", _count_pave),
        (greens.GreenMatrix, "csv_lines", "greens.csv", _count_csv),
        (slog, "add", "slog.add", _count_add),
        (localization, "eigensystem", "localization.eigensystem", None),
        (localization, "decay_profile", "localization.profile", None),
        (cli, "validate_config", "cli.validate", None),
        (model, "system_from_json", "cli.system", None),
        (cli, "main", "cli", None),
    ]
    for module, layer in ((lyapunov, "lyapunov"), (ldt, "ldt"),
                          (lowerbound, "lowerbound")):
        out += [(module, name, layer, None)
                for name in _module_functions(module)]
    return out


# (metric, unit, better); the order is the order of BENCHMARK.json.
LAYER_METRICS = [
    ("model.eval_s", "s", "lower"),
    ("model.eval_points", "count", "lower"),
    ("model.strip_norm_s", "s", "lower"),
    ("transfer.cocycle_s", "s", "lower"),
    ("transfer.step_self_s", "s", "lower"),
    ("transfer.phase_steps", "count", "lower"),
    ("transfer.ns_per_phase_step", "ns", "lower"),
    ("transfer.cocycle_calls", "count", "lower"),
    ("transfer.det_sequence_s", "s", "lower"),
    ("transfer.det_sequence_calls", "count", "lower"),
    ("transfer.complex_s", "s", "lower"),
    ("lyapunov.self_s", "s", "lower"),
    ("ldt.self_s", "s", "lower"),
    ("lowerbound.self_s", "s", "lower"),
    ("greens.solve_s", "s", "lower"),
    ("greens.solve_calls", "count", "lower"),
    ("greens.decay_fit_s", "s", "lower"),
    ("greens.pave_self_s", "s", "lower"),
    ("greens.pave_windows_solved", "count", "lower"),
    ("greens.pave_windows_used", "count", "lower"),
    ("greens.window_use_ratio", "ratio", "higher"),
    ("greens.pave_sweeps", "count", "lower"),
    ("slog.add_s", "s", "lower"),
    ("slog.add_calls", "count", "lower"),
    ("slog.add_bytes", "bytes", "lower"),
    ("greens.csv_s", "s", "lower"),
    ("greens.csv_rows", "count", "lower"),
    ("localization.eigensystem_s", "s", "lower"),
    ("localization.eigensystem_calls", "count", "lower"),
    ("localization.profile_s", "s", "lower"),
    ("localization.profile_calls", "count", "lower"),
    ("cli.validate_s", "s", "lower"),
    ("cli.system_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "bytes", "lower"),
    ("cli.format_errors", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
]


def layer_values(tracer):
    """Per-layer metrics of one traced pass (0 for layers it did not run)."""
    t, s, c, k = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    steps = k["transfer.phase_steps"]
    solved = k["greens.pave_windows_solved"]
    return {
        "model.eval_s": t["model.eval"],
        "model.eval_points": k["model.eval_points"],
        "model.strip_norm_s": t["model.strip_norm"],
        "transfer.cocycle_s": t["transfer.cocycle"],
        "transfer.step_self_s": s["transfer.cocycle"],
        "transfer.phase_steps": steps,
        "transfer.ns_per_phase_step":
            1e9 * t["transfer.cocycle"] / steps if steps else 0.0,
        "transfer.cocycle_calls": c["transfer.cocycle"],
        "transfer.det_sequence_s": t["transfer.det_sequence"],
        "transfer.det_sequence_calls": c["transfer.det_sequence"],
        "transfer.complex_s": t["transfer.complex"],
        "lyapunov.self_s": s["lyapunov"],
        "ldt.self_s": s["ldt"],
        "lowerbound.self_s": s["lowerbound"],
        "greens.solve_s": t["greens.solve"],
        "greens.solve_calls": c["greens.solve"],
        "greens.decay_fit_s": t["greens.decay_fit"],
        "greens.pave_self_s": s["greens.pave"],
        "greens.pave_windows_solved": solved,
        "greens.pave_windows_used": k["greens.pave_windows_used"],
        "greens.window_use_ratio":
            k["greens.pave_windows_used"] / solved if solved else 0.0,
        "greens.pave_sweeps": k["greens.pave_sweeps"],
        "slog.add_s": t["slog.add"],
        "slog.add_calls": c["slog.add"],
        "slog.add_bytes": k["slog.add_bytes"],
        "greens.csv_s": t["greens.csv"],
        "greens.csv_rows": k["greens.csv_rows"],
        "localization.eigensystem_s": t["localization.eigensystem"],
        "localization.eigensystem_calls": c["localization.eigensystem"],
        "localization.profile_s": t["localization.profile"],
        "localization.profile_calls": c["localization.profile"],
        "cli.validate_s": t["cli.validate"],
        "cli.system_s": t["cli.system"],
        "cli.self_s": s["cli"],
    }
