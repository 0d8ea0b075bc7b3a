"""Batch experiment driver: `qplab <command> --config <file>`.

Each run validates its JSON config against a schema.  The command's handler
computes: it returns every artifact, the lines of a CSV/plot file or the
payload of a JSON file by file name, and touches no file.  The lines may be a
lazy iterable, such as the n^2 lines of a Green's matrix, which are formatted
in spans of rows while they are written, by up to as many forked processes
as the thread cap allows.  `run` writes: it adds a manifest recording the
config hash, package versions, seed, thread cap and wall time, and only then
creates the output directory and writes every file to a temporary name
beside its own.  Only when all of them are written does it rename each into
place, so a command that fails, while computing or while writing, writes
nothing.  Seeded runs reproduce byte for byte at every thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Sequence)

import jsonschema
import numpy as np

from . import __version__, numfmt
from .errors import ConfigInvalid, HypothesisUnmet, QplabError, WorkerFailed
from .greens import CsvLines, decay_fit, green_solve, pave
from .ldt import ldt_scaling_table
from .localization import (decay_profile, eigensystem, localization_summary,
                           window_bound_check)
from .lowerbound import (epsilon_gap, herman_style_bound, multiscale_recursion,
                         sublevel_measure)
from .lyapunov import (THREADS, SamplerSpec, default_sampler, lyapunov_scan,
                       thread_cap)
from .model import system_from_json

COMMANDS = ("lyapunov", "ldt", "green", "pave", "localize", "lowerbound",
            "recursion")

_SYSTEM_SCHEMA = {
    "type": "object",
    "required": ["dim", "coeffs", "omega"],
    "properties": {
        "dim": {"type": "integer", "enum": [1, 2]},
        "coeffs": {"type": "array",
                   "items": {"type": "array", "items": {"type": "number"}}},
        "rho": {"type": "number", "exclusiveMinimum": 0},
        "lambda": {"type": "number"},
        "omega": {"type": "array", "items": {"type": "number"},
                  "minItems": 1, "maxItems": 2},
        "dio": {"type": "object",
                "properties": {"A": {"type": "number"}, "c": {"type": "number"}},
                "additionalProperties": False},
    },
    "additionalProperties": False,
}

_COMMON = {
    "schema_version": {"type": "integer", "enum": [1]},
    "command": {"type": "string", "enum": list(COMMANDS)},
    "system": _SYSTEM_SCHEMA,
    "seed": {"type": "integer"},
}

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "command", "system"],
    "additionalProperties": False,
    "properties": {
        **_COMMON,
        "n": {"type": "integer", "minimum": 1},
        "samples": {"type": "integer", "minimum": 1},
        "quadrature": {"type": "string", "enum": ["grid", "monte_carlo"]},
        "e_grid": {"type": "object",
                   "required": ["min", "max", "points"],
                   "properties": {"min": {"type": "number"},
                                  "max": {"type": "number"},
                                  "points": {"type": "integer", "minimum": 1}},
                   "additionalProperties": False},
        "e_values": {"type": "array", "items": {"type": "number"},
                     "minItems": 1},
        "E": {"type": "number"},
        "sigma": {"type": "number"},
        "n_schedule": {"type": "array", "items": {"type": "integer"},
                       "minItems": 1},
        "schedule": {"type": "array", "items": {"type": "integer"}},
        "theta": {"type": ["number", "array"], "items": {"type": "number"}},
        "interval": {"type": "array", "items": {"type": "integer"},
                     "minItems": 2, "maxItems": 2},
        "window": {"type": "integer", "minimum": 2},
        "rate_c": {"type": "number"},
        "beta": {"type": "number"},
        "min_sep": {"type": "integer", "minimum": 1},
        "rate_threshold": {"type": "number"},
        "r2_threshold": {"type": "number"},
        "top_profiles": {"type": "integer", "minimum": 0},
        "window_check": {"type": "object",
                         "required": ["N", "delta"],
                         "properties": {"N": {"type": "integer", "minimum": 1},
                                        "delta": {"type": "number"},
                                        "count": {"type": "integer",
                                                  "minimum": 0}},
                         "additionalProperties": False},
        "delta": {"type": "number"},
        "e1_values": {"type": "array", "items": {"type": "number"},
                      "minItems": 1},
        "herman": {"type": "boolean"},
        "sublevel_deltas": {"type": "array", "minItems": 1,
                            "items": {"type": "number",
                                      "exclusiveMinimum": 0}},
        "lambda": {"type": "number", "exclusiveMinimum": 0},
        "gate_constant": {"type": "number"},
    },
    # Keys a command cannot run without.
    "allOf": [
        {"if": {"properties": {"command": {"enum": ["green", "pave",
                                                    "localize"]}}},
         "then": {"required": ["interval"]}},
        {"if": {"properties": {"command": {"const": "pave"}}},
         "then": {"required": ["window"]}},
        {"if": {"properties": {"command": {"const": "recursion"}}},
         "then": {"required": ["schedule"]}},
    ],
}

# Built once.  The schema is a constant that the test suite checks against its
# metaschema; checking it here would cost every run about 30 ms.
_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)

FLAGSHIP_CONFIGS: Dict[str, dict] = {
    # Almost-Mathieu localization scan at coupling 5 on a +-500 box.
    "localize": {
        "schema_version": 1,
        "command": "localize",
        "system": {"dim": 1, "coeffs": [[-1, 0.5, 0.0], [1, 0.5, 0.0]],
                   "rho": 2.0, "lambda": 5.0,
                   "omega": [0.6180339887498949], "dio": {"A": 2.0, "c": 0.2}},
        "theta": 0.0,
        "interval": [-500, 500],
        "rate_threshold": 0.733,
        "r2_threshold": 0.95,
        "top_profiles": 3,
        "seed": 0,
    },
    # Two-frequency strong-coupling scale ladder at coupling 50.
    "recursion": {
        "schema_version": 1,
        "command": "recursion",
        "system": {"dim": 2,
                   "coeffs": [[-1, 0, 0.5, 0.0], [1, 0, 0.5, 0.0],
                              [0, -1, 0.5, 0.0], [0, 1, 0.5, 0.0]],
                   "rho": 0.5, "lambda": 1.0,
                   "omega": [0.41421356237309515, 0.7320508075688772],
                   "dio": {"A": 4.0, "c": 0.01}},
        "lambda": 50.0,
        "schedule": [200, 400, 800, 1600],
        "sigma": 0.1,
        "samples": 200,
        "E": 0.0,
        "seed": 0,
    },
}


# ---------------------------------------------------------------------------
# atomic IO

_BLOCK_LINES = 1 << 16


def _write_temp(path: Path, chunks: Iterable[bytes]) -> str:
    """Write ``chunks`` to a new temporary file beside ``path``; return its
    name.  The caller renames it into place, or removes it."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        # mkstemp creates mode 0600; give the file the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp


def _finite_or_null(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def _write_json(path: Path, payload) -> str:
    """Strict JSON: an undefined number (NaN, infinity) is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    return _write_temp(path, [(text + "\n").encode()])


def _write_lines(path: Path, lines: Iterable[str], workers: int) -> str:
    """Write newline-terminated lines, joined in blocks of bounded size.

    ``lines`` may be any iterable, a lazy one included: it is consumed one
    block of `_BLOCK_LINES` lines at a time, so at most one block of its
    lines exists at once.  A `CsvLines` is written in spans of rows of about
    that many lines instead, formatted by up to ``workers`` processes.
    """
    with contextlib.closing(_line_chunks(lines, workers)) as chunks:
        return _write_temp(path, chunks)


def _line_chunks(lines, workers: int) -> Iterator[bytes]:
    if isinstance(lines, CsvLines):
        spans = lines.spans(_BLOCK_LINES)
        yield (lines.HEADER + "\n").encode()
        yield from _in_order(lambda k: lines.span_text(spans[k]).encode(),
                             len(spans), workers)
        return
    it = iter(lines)
    for block in iter(lambda: list(itertools.islice(it, _BLOCK_LINES)), []):
        yield ("\n".join(block) + "\n").encode()


def _in_order(fmt: Callable[[int], bytes], count: int,
              workers: int) -> Iterator[bytes]:
    """``fmt(0)``, ..., ``fmt(count - 1)``, in order.

    With two or more workers and spans, and where ``os.fork`` exists,
    ``min(workers, count)`` forked children call ``fmt``: child ``w`` formats
    ``w``, ``w + workers``, ... and writes each result, length-prefixed, to
    its own pipe, which this process reads round-robin.  Forked, not
    spawned: a child reads what ``fmt`` needs from this process's memory,
    without a copy, and runs only ``fmt``.  A full pipe holds its child
    back, so memory stays bounded without a queue.  A child ends
    with ``os._exit``, so no inherited buffer or exit handler runs twice,
    and none outlives the generator: once it finishes, fails or is closed,
    every child is killed and reaped.  An error in a child is raised here as
    `WorkerFailed`.
    """
    workers = min(workers, count)
    if workers < 2 or not hasattr(os, "fork"):
        yield from map(fmt, range(count))
        return
    import signal

    readers, pids = [], []
    try:
        for w in range(workers):
            r, wfd = os.pipe()
            pid = os.fork()
            if pid == 0:
                _format_in_child(fmt, range(w, count, workers), wfd)
            pids.append(pid)
            os.close(wfd)
            readers.append(os.fdopen(r, "rb"))
        for k in range(count):
            yield _read_frame(readers[k % workers])
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):    # SIGCHLD ignored
                os.waitpid(pid, 0)


def _format_in_child(fmt, indices, fd: int):
    """Write ``fmt(k)`` for each of ``indices`` to ``fd`` as frames of an
    8-byte signed length and the bytes, or a negative length and the text of
    the error; never returns."""
    status = 1
    try:
        try:
            for k in indices:
                data = fmt(k)
                _write_all(fd, len(data).to_bytes(8, "little") + data)
            status = 0
        except Exception as exc:
            text = f"{type(exc).__name__}: {exc}".encode()
            _write_all(fd, (-len(text)).to_bytes(8, "little", signed=True)
                       + text)
    finally:
        os._exit(status)


def _write_all(fd: int, data: bytes):
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_frame(reader) -> bytes:
    head = reader.read(8)
    size = int.from_bytes(head, "little", signed=True)
    data = reader.read(abs(size)) if len(head) == 8 else b""
    if len(head) < 8 or len(data) < abs(size):
        raise WorkerFailed("a line formatting process ended early")
    if size < 0:
        raise WorkerFailed(data.decode(errors="replace"))
    return data


def validate_config(config: dict) -> None:
    # The error jsonschema.validate would raise: the best match of all errors.
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigInvalid(error.message, tuple(error.absolute_path)) from error
    command = config["command"]
    unread = sorted(config.keys() - _COMMON.keys() - _READS[command])
    if unread:
        raise ConfigInvalid(f"{unread[0]!r} is not read by command {command!r}",
                            (unread[0],))
    try:
        json.dumps(config, allow_nan=False)
    except ValueError as exc:
        raise ConfigInvalid("NaN and infinite numbers are not allowed") from exc


def _theta_of(config: dict, dim: int):
    theta = config.get("theta", 0.0)
    if isinstance(theta, (int, float)):
        theta = [theta] * dim
    if len(theta) != dim:
        raise ConfigInvalid(f"theta needs {dim} component(s) on the "
                            f"{dim}-torus, got {len(theta)}", ("theta",))
    if dim == 2:
        return np.asarray([float(x) for x in theta])
    return float(theta[0])


def _energy_values(config: dict) -> List[float]:
    named = [key for key in ("e_values", "e_grid", "E") if key in config]
    if len(named) != 1:
        raise ConfigInvalid("give exactly one of e_values, e_grid, E; "
                            f"got {named}")
    if "e_values" in config:
        return [float(e) for e in config["e_values"]]
    if "e_grid" in config:
        g = config["e_grid"]
        return list(np.linspace(g["min"], g["max"], g["points"]))
    return [float(config["E"])]


# ---------------------------------------------------------------------------
# command handlers: each returns {file name: lines or JSON payload}

_LYAPUNOV_COLUMNS = "n,E,value,std_error,samples,quadrature"
_LDT_COLUMNS = "n,sigma,threshold,fraction,std_error,bound_reference"
_PROFILE_COLUMNS = "index,abs,log_abs"


def _plot(rows: Sequence[tuple], kind: str, suffix: str = "",
          header: Optional[str] = None) -> dict:
    """Two-column whitespace data plus a gnuplot stub (no rendering)."""
    xl, yl = {"lyapunov_vs_E": ("E", "L_n"),
              "decay_profile": ("distance", "log_abs"),
              "ldt_scaling": ("n", "fraction"),
              "ladder": ("n", "L")}[kind]
    data_name = f"{kind}{suffix}.dat"
    lines = [f"# {xl} {yl}"]
    if header:
        lines.append(header)
    lines += [numfmt.row(r, sep=" ") for r in rows]
    return {data_name: lines,
            f"{kind}{suffix}.gp": [
                f"set xlabel '{xl}'",
                f"set ylabel '{yl}'",
                f"plot '{data_name}' using 1:2 with linespoints title '{kind}'",
            ]}


def _run_lyapunov(config, v, freq, seed) -> dict:
    energies = _energy_values(config)
    n = int(config.get("n", 1000))
    quadrature = config.get("quadrature", default_sampler(freq.dim).quadrature)
    sampler = SamplerSpec(quadrature, samples=config.get("samples"), seed=seed)
    estimates = lyapunov_scan(freq, energies, n, v, sampler)
    lines = [_LYAPUNOV_COLUMNS] + [
        numfmt.row((e.n, e.energy, e.value, e.std_error, e.samples))
        + f",{e.quadrature}" for e in estimates]
    return {"lyapunov.csv": lines,
            **_plot([(e.energy, e.value) for e in estimates], "lyapunov_vs_E")}


def _run_ldt(config, v, freq, seed) -> dict:
    energy = float(config.get("E", 0.0))
    sigma = float(config.get("sigma", 0.3))
    schedule = [int(x) for x in config.get("n_schedule", [50, 100, 200, 400])]
    samples = int(config.get("samples", 10_000))
    rows = ldt_scaling_table(freq, energy, v, sigma, schedule, samples,
                             seed=seed)
    profiles = [(r.profile, r.bound_reference) for r in rows]
    lines = [_LDT_COLUMNS] + [
        numfmt.row((p.n, p.sigma, p.threshold, p.fraction, p.std_error, ref))
        for p, ref in profiles]
    return {"ldt.csv": lines,
            **_plot([(p.n, p.fraction) for p, _ in profiles], "ldt_scaling")}


def _run_green(config, v, freq, seed) -> dict:
    interval = tuple(config["interval"])
    energy = float(config.get("E", 0.0))
    theta = _theta_of(config, freq.dim)
    g = green_solve(interval, freq, theta, energy, v)
    if "min_sep" not in config:
        return {"green.csv": g.csv_lines()}
    # Fitted before the n^2 CSV lines exist: a failing fit builds none.
    fit = decay_fit(g, int(config["min_sep"]))
    return {"green.csv": g.csv_lines(),
            "green_fit.json": {"rate": fit.rate, "intercept": fit.intercept,
                               "residual": fit.residual, "pairs": fit.pairs}}


def _run_pave(config, v, freq, seed) -> dict:
    # Checked here rather than in CONFIG_SCHEMA: perfbench times set-up by
    # validating a pave config that has no rate_c.
    if "rate_c" not in config:
        raise ConfigInvalid("'rate_c' is a required property")
    interval = tuple(config["interval"])
    energy = float(config.get("E", 0.0))
    theta = _theta_of(config, freq.dim)
    result = pave(interval, int(config["window"]), freq, theta, energy, v,
                  c=float(config["rate_c"]), beta=float(config.get("beta", 0.1)))
    return {"paved_green.csv": result.green.csv_lines(),
            "paving_certificate.json": result.certificate.to_json()}


def _run_localize(config, v, freq, seed) -> dict:
    interval = tuple(config["interval"])
    theta = _theta_of(config, freq.dim)
    rate_thr = float(config.get("rate_threshold", 0.0))
    r2_thr = float(config.get("r2_threshold", 0.95))
    pairs = eigensystem(interval, freq, theta, v)
    profiles = [decay_profile(p) for p in pairs]
    artifacts = {"localization.json": localization_summary(
        interval, v, profiles, rate_thr, r2_thr)}
    # Eigenpairs by increasing tail mass: the best localized first.
    ranked = sorted(range(len(pairs)), key=lambda k: profiles[k].tail_mass)
    top = int(config.get("top_profiles", 0))
    for i, k in enumerate(ranked[:top]):
        center = profiles[k].center
        sites_abs = list(zip(pairs[k].sites().tolist(),
                             np.abs(pairs[k].vector).tolist()))
        artifacts[f"profile_{i:02d}.csv"] = [_PROFILE_COLUMNS] + [
            numfmt.row((s, a, math.log(a) if a > 0 else -math.inf))
            for s, a in sites_abs]
        artifacts.update(_plot(
            [(abs(s - center), math.log(a)) for s, a in sites_abs
             if a > 1e-300],
            "decay_profile", suffix=f"_{i:02d}"))
    wc = config.get("window_check")
    if wc:
        reports = []
        for k in ranked[:int(wc.get("count", 5))]:
            pair = pairs[k]
            rep = window_bound_check(pair, int(wc["N"]), freq, theta,
                                     float(wc["delta"]), v)
            reports.append({"energy": pair.energy, "ok": rep.ok,
                            "margin": rep.margin, "peak_ok": rep.peak_ok})
        artifacts["window_checks.json"] = reports
    return artifacts


def _herman_lambda(epsilon: float) -> float:
    """The default Herman coupling, 1000 epsilon^-100: ten times the
    threshold 100 epsilon^-100 that ``herman_style_bound`` requires."""
    try:
        lam = 10.0 * 100.0 * epsilon ** -100.0
    except OverflowError:
        lam = math.inf
    if math.isinf(lam):
        raise HypothesisUnmet(
            "coupling threshold",
            f"the default lambda = 1000 epsilon^-100 overflows a double at "
            f"epsilon = {epsilon:g}; set lambda or widen the gap")
    return lam


def _run_lowerbound(config, v, freq, seed) -> dict:
    delta = float(config.get("delta", 0.1))
    e1_values = [float(x) for x in config.get("e1_values", [0.0])]
    payload: dict = {"delta": delta}
    gap = epsilon_gap(v, delta, e1_values[0])
    payload["epsilon_gap"] = {"y0": gap.y0, "epsilon": gap.epsilon,
                              "e1": gap.e1}
    if config.get("herman", False):
        lam = (float(config["lambda"]) if "lambda" in config
               else _herman_lambda(gap.epsilon))
        hb = herman_style_bound(lam, v, delta, gap.epsilon, gap.y0, freq,
                                energy=lam * e1_values[0])
        payload["herman"] = {
            "lambda": lam,
            "analytic_bound": hb.analytic_bound,
            "intermediate_bound": hb.intermediate_bound,
            "measured_L": hb.measured.value,
            "sound": hb.sound,
        }
    deltas = config.get("sublevel_deltas")
    fit = sublevel_measure(v, e1_values, deltas=deltas,
                           samples=int(config.get("samples", 100_000)),
                           seed=seed)
    payload["sublevel"] = {"worst_c0": fit.worst_c0,
                           "fits": {str(k): val for k, val in fit.fits.items()}}
    return {"lowerbound.json": payload}


def _run_recursion(config, v, freq, seed) -> dict:
    lam = float(config.get("lambda", 50.0))
    schedule = [int(x) for x in config["schedule"]]
    ladder = multiscale_recursion(
        lam, v, freq, schedule, sigma=float(config.get("sigma", 0.1)),
        samples=int(config.get("samples", 200)), seed=seed,
        energy=float(config.get("E", 0.0)),
        gate_constant=float(config.get("gate_constant", 1.0)))
    return {"ladder.json": ladder.to_json(),
            **_plot([(r.n, r.l_value) for r in ladder.rows], "ladder",
                    header="# half_log_lambda = "
                           + numfmt.num(ladder.half_log_coupling))}


_HANDLERS = {
    "lyapunov": _run_lyapunov,
    "ldt": _run_ldt,
    "green": _run_green,
    "pave": _run_pave,
    "localize": _run_localize,
    "lowerbound": _run_lowerbound,
    "recursion": _run_recursion,
}

# The config keys each handler reads besides those of _COMMON;
# validate_config rejects every other key.
_READS = {
    "lyapunov": {"e_values", "e_grid", "E", "n", "quadrature", "samples"},
    "ldt": {"E", "sigma", "n_schedule", "samples"},
    "green": {"interval", "E", "theta", "min_sep"},
    "pave": {"interval", "window", "rate_c", "beta", "E", "theta"},
    "localize": {"interval", "theta", "rate_threshold", "r2_threshold",
                 "top_profiles", "window_check"},
    "lowerbound": {"delta", "e1_values", "herman", "lambda",
                   "sublevel_deltas", "samples"},
    "recursion": {"lambda", "schedule", "sigma", "samples", "E",
                  "gate_constant"},
}


def _earlier_outputs(out: Path) -> set:
    """Bare file names the manifest of an earlier run in ``out`` lists; none
    when there is no readable manifest."""
    try:
        with open(out / "manifest.json") as fh:
            names = json.load(fh)["outputs"]
    except (OSError, ValueError, LookupError, TypeError):
        return set()
    if not isinstance(names, list):
        return set()
    return {n for n in names if isinstance(n, str)
            and n not in ("", ".", "..") and os.path.basename(n) == n}


def run(config: dict, out_dir="qplab_out", seed: Optional[int] = None,
        threads: Optional[int] = None) -> List[Path]:
    """Validate, compute every artifact, then write them and a provenance
    manifest; a command that fails writes nothing.

    ``threads`` caps the worker threads of phase averages and the forked
    processes that format Green CSV lines (default: every CPU this process
    may use); the manifest's ``threads`` is that cap, and artifacts are the
    same bytes at every value.
    After a run into a directory that holds an earlier run, the files that
    the earlier manifest lists and this run did not write are removed.
    """
    if threads is not None and threads < 1:
        raise ConfigInvalid(f"threads must be at least 1, got {threads}")
    validate_config(config)
    out = Path(out_dir)
    blocker = next(p for p in (out, *out.parents) if p.exists())
    if not blocker.is_dir():
        raise ConfigInvalid(f"cannot write to {str(out)!r}: "
                            f"{str(blocker)!r} is not a directory")
    eff_seed = int(seed if seed is not None else config.get("seed", 0))
    try:
        v, freq = system_from_json(config["system"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc), ("system",)) from exc
    token = THREADS.set(threads)
    try:
        cap = thread_cap()
        started = time.time()
        artifacts = _HANDLERS[config["command"]](config, v, freq, eff_seed)
        wall = time.time() - started
    except ValueError as exc:
        # A value the schema admits but the library rejects, such as a
        # decreasing scale ladder or too few samples.
        raise ConfigInvalid(str(exc)) from exc
    finally:
        THREADS.reset(token)
    artifacts["manifest.json"] = {
        "schema_version": 1,
        "command": config["command"],
        "config": config,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "seed": eff_seed,
        "threads": cap,
        "wall_time_s": wall,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "outputs": list(artifacts),
    }
    stale = _earlier_outputs(out) - artifacts.keys()
    fresh = [p for p in (out, *out.parents) if not p.exists()]
    out.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        # Lazy lines are formatted here, so errors can still surface: every
        # file goes to its temporary name before any replaces its target.
        for name, payload in artifacts.items():
            if name.endswith(".json"):
                temps[name] = _write_json(out / name, payload)
            else:
                temps[name] = _write_lines(out / name, payload, cap)
    except BaseException:
        for tmp in temps.values():
            os.unlink(tmp)
        for p in fresh:             # deepest first; kept if no longer empty
            with contextlib.suppress(OSError):
                p.rmdir()
        raise
    for name, tmp in temps.items():
        os.replace(tmp, out / name)
    for name in stale:
        if (out / name).is_file():
            (out / name).unlink()
    return [out / name for name in artifacts]


def _load_config(args) -> dict:
    """The config the command line names, with ``--schedule`` applied."""
    try:
        if args.config is None:
            if args.command not in FLAGSHIP_CONFIGS:
                raise ConfigInvalid(
                    f"command {args.command!r} has no built-in config; pass --config")
            config = json.loads(json.dumps(FLAGSHIP_CONFIGS[args.command]))
        elif args.config == "-":
            config = json.load(sys.stdin)
        else:
            with open(args.config) as fh:
                config = json.load(fh)
    except ValueError as exc:       # not JSON, or not UTF-8 text
        raise ConfigInvalid(f"malformed JSON: {exc}") from exc
    except OSError as exc:
        raise ConfigInvalid(str(exc)) from exc
    if not isinstance(config, dict):
        raise ConfigInvalid("config must be a JSON object")
    config.setdefault("command", args.command)
    if config["command"] != args.command:
        raise ConfigInvalid(f"config command {config['command']!r} does not "
                            f"match subcommand {args.command!r}")
    if args.schedule:
        try:
            config["schedule"] = [int(x) for x in args.schedule.split(",")]
        except ValueError as exc:
            raise ConfigInvalid(f"--schedule: {exc}") from exc
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qplab",
        description="Quasi-periodic cocycle laboratory: seeded batch experiments "
                    "with CSV/JSON artifacts.")
    columns = {
        "lyapunov": f"CSV columns: {_LYAPUNOV_COLUMNS}",
        "ldt": f"CSV columns: {_LDT_COLUMNS}",
        "green": "CSV columns: n1,n2,sign,log_mag (plus green_fit.json with min_sep)",
        "pave": "CSV columns: n1,n2,sign,log_mag; certificate JSON: rate, "
                "intercept, windows_used (the strided window cover), "
                "failures, contraction (largest summed hop weight of a "
                "row), iterations (ordered edge-row sweeps)",
        "localize": "JSON summary: box, lambda, pct_localized, median_rate; "
                    f"profile CSV columns: {_PROFILE_COLUMNS}",
        "lowerbound": "JSON: epsilon_gap {y0, epsilon}, herman bounds, "
                      "sublevel exponents",
        "recursion": "JSON ladder rows: n, L, std_error, rho, gate_ok, "
                     "gate_margin, drop_margin",
    }
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment",
                           epilog=columns[name])
        p.add_argument("--config", type=str, default=None,
                       help="JSON config path ('-' for stdin); omit to use "
                            "the built-in flagship config where available")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="most worker threads for phase averages and "
                            "processes formatting Green CSV lines (default: "
                            "every CPU this process may use); the manifest "
                            "records it as 'threads', and output is "
                            "byte-identical at every value")
        p.add_argument("--out", type=str, default="qplab_out")
        p.add_argument("--schedule", type=str, default=None,
                       help="comma-separated scale list (recursion only)")
    args = parser.parse_args(argv)

    try:
        config = _load_config(args)
        outputs = run(config, out_dir=args.out, seed=args.seed,
                      threads=args.threads)
    except ConfigInvalid as exc:
        print(f"ConfigInvalid: {exc}", file=sys.stderr)
        return 2
    except QplabError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for p in outputs:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
