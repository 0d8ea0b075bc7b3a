"""Batch experiment driver: `qplab <command> --config <file>`.

Each run validates its JSON config against a schema, dispatches to the
corresponding module, writes CSV/JSON artifacts atomically, and drops a
manifest recording the config hash, package versions, seed, thread cap and
wall time.  Seeded runs reproduce byte for byte at every thread count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

import jsonschema
import numpy as np

from . import __version__, numfmt
from .errors import ConfigInvalid, QplabError
from .greens import decay_fit, green_solve, pave
from .ldt import ldt_scaling_table
from .localization import (decay_profile, eigensystem, localization_summary,
                           profile_csv_lines, window_bound_check)
from .lowerbound import (epsilon_gap, herman_style_bound, multiscale_recursion,
                         sublevel_measure)
from .lyapunov import (THREADS, LyapunovEstimate, SamplerSpec, lyapunov_scan,
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
    "format": {"type": "string", "enum": ["csv", "json"]},
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
        "e_values": {"type": "array", "items": {"type": "number"}},
        "E": {"type": "number"},
        "sigma": {"type": "number"},
        "n_schedule": {"type": "array", "items": {"type": "integer"}},
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
        "e1_values": {"type": "array", "items": {"type": "number"}},
        "herman": {"type": "boolean"},
        "sublevel_deltas": {"type": "array", "items": {"type": "number"}},
        "lambda": {"type": "number"},
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


def _atomic_write(path: Path, chunks: Iterable[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        # mkstemp creates mode 0600; give the file the mode open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _finite_or_null(obj):
    """obj with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(val) for val in obj]
    return obj


def _write_json(path: Path, payload) -> None:
    """Strict JSON: an undefined number (NaN, infinity) is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    _atomic_write(path, [text + "\n"])


def _write_lines(path: Path, lines: Sequence[str]) -> None:
    """Write newline-terminated lines, joined in blocks of bounded size."""
    _atomic_write(path, ("\n".join(lines[lo:lo + _BLOCK_LINES]) + "\n"
                         for lo in range(0, len(lines), _BLOCK_LINES)))


def validate_config(config: dict) -> None:
    # The error jsonschema.validate would raise: the best match of all errors.
    error = jsonschema.exceptions.best_match(_VALIDATOR.iter_errors(config))
    if error is not None:
        raise ConfigInvalid(error.message, tuple(error.absolute_path)) from error
    if config["command"] not in COMMANDS:
        raise ConfigInvalid(f"unknown command {config['command']!r}", ("command",))
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
    if "e_values" in config:
        return [float(e) for e in config["e_values"]]
    if "e_grid" in config:
        g = config["e_grid"]
        return list(np.linspace(g["min"], g["max"], g["points"]))
    if "E" in config:
        return [float(config["E"])]
    raise ConfigInvalid("one of e_values, e_grid, E is required", ("e_values",))


# ---------------------------------------------------------------------------
# command handlers: each returns {artifact name: payload description}


def _run_lyapunov(config, v, freq, seed, out_dir) -> List[Path]:
    energies = _energy_values(config)
    n = int(config.get("n", 1000))
    sampler = SamplerSpec(
        quadrature=config.get("quadrature",
                              "grid" if freq.dim == 1 else "monte_carlo"),
        samples=config.get("samples"), seed=seed)
    estimates = lyapunov_scan(freq, energies, n, v, sampler)
    lines = [LyapunovEstimate.csv_header()] + [e.csv_row() for e in estimates]
    path = out_dir / "lyapunov.csv"
    _write_lines(path, lines)
    plot = emit_plot_data(
        [(e.energy, e.value) for e in estimates], "lyapunov_vs_E", out_dir)
    return [path, *plot]


def _run_ldt(config, v, freq, seed, out_dir) -> List[Path]:
    energy = float(config.get("E", 0.0))
    sigma = float(config.get("sigma", 0.3))
    schedule = [int(x) for x in config.get("n_schedule", [50, 100, 200, 400])]
    samples = int(config.get("samples", 10_000))
    table = ldt_scaling_table(freq, energy, v, sigma, schedule, samples,
                              seed=seed)
    path = out_dir / "ldt.csv"
    _write_lines(path, table.csv_lines())
    rows = [(r.profile.n, r.profile.fraction) for r in table.rows]
    plot = emit_plot_data(rows, "ldt_scaling", out_dir)
    return [path, *plot]


def _run_green(config, v, freq, seed, out_dir) -> List[Path]:
    interval = tuple(config["interval"])
    energy = float(config.get("E", 0.0))
    theta = _theta_of(config, freq.dim)
    g = green_solve(interval, freq, theta, energy, v)
    path = out_dir / "green.csv"
    _write_lines(path, g.csv_lines())
    outputs = [path]
    min_sep = config.get("min_sep")
    if min_sep is not None:
        fit = decay_fit(g, int(min_sep))
        fit_path = out_dir / "green_fit.json"
        _write_json(fit_path, {"rate": fit.rate, "intercept": fit.intercept,
                               "residual": fit.residual, "pairs": fit.pairs})
        outputs.append(fit_path)
    return outputs


def _run_pave(config, v, freq, seed, out_dir) -> List[Path]:
    # Checked here rather than in CONFIG_SCHEMA: perfbench times set-up by
    # validating a pave config that has no rate_c.
    if "rate_c" not in config:
        raise ConfigInvalid("'rate_c' is a required property")
    interval = tuple(config["interval"])
    energy = float(config.get("E", 0.0))
    theta = _theta_of(config, freq.dim)
    result = pave(interval, int(config["window"]), freq, theta, energy, v,
                  c=float(config["rate_c"]), beta=float(config.get("beta", 0.1)))
    gpath = out_dir / "paved_green.csv"
    _write_lines(gpath, result.green.csv_lines())
    cpath = out_dir / "paving_certificate.json"
    _write_json(cpath, result.certificate.to_json())
    return [gpath, cpath]


def _run_localize(config, v, freq, seed, out_dir) -> List[Path]:
    interval = tuple(config["interval"])
    theta = _theta_of(config, freq.dim)
    rate_thr = float(config.get("rate_threshold", 0.0))
    r2_thr = float(config.get("r2_threshold", 0.95))
    pairs = eigensystem(interval, freq, theta, v)
    profiles = [decay_profile(p) for p in pairs]
    summary = localization_summary(interval, v, profiles, rate_thr, r2_thr)
    spath = out_dir / "localization.json"
    _write_json(spath, summary)
    outputs = [spath]
    # Eigenpairs by increasing tail mass: the best localized first.
    ranked = sorted(range(len(pairs)), key=lambda k: profiles[k].tail_mass)
    top = int(config.get("top_profiles", 0))
    for i, k in enumerate(ranked[:top]):
        pair, center = pairs[k], profiles[k].center
        ppath = out_dir / f"profile_{i:02d}.csv"
        _write_lines(ppath, profile_csv_lines(pair))
        outputs.append(ppath)
        plot = emit_plot_data(
            [(abs(s - center), math.log(a) if a > 0 else float("-inf"))
             for s, a in zip(pair.sites().tolist(), np.abs(pair.vector).tolist())
             if a > 1e-300],
            "decay_profile", out_dir, suffix=f"_{i:02d}")
        outputs.extend(plot)
    wc = config.get("window_check")
    if wc:
        reports = []
        for k in ranked[:int(wc.get("count", 5))]:
            pair = pairs[k]
            rep = window_bound_check(pair, int(wc["N"]), freq, theta,
                                     float(wc["delta"]), v)
            reports.append({"energy": pair.energy, "ok": rep.ok,
                            "margin": rep.margin, "peak_ok": rep.peak_ok})
        wpath = out_dir / "window_checks.json"
        _write_json(wpath, reports)
        outputs.append(wpath)
    return outputs


def _run_lowerbound(config, v, freq, seed, out_dir) -> List[Path]:
    delta = float(config.get("delta", 0.1))
    e1_values = [float(x) for x in config.get("e1_values", [0.0])]
    payload: dict = {"delta": delta}
    gap = epsilon_gap(v, delta, e1_values[0])
    payload["epsilon_gap"] = {"y0": gap.y0, "epsilon": gap.epsilon,
                              "e1": gap.e1}
    if config.get("herman", False):
        lam = float(config.get("lambda",
                    10.0 * 100.0 * gap.epsilon ** -100.0
                    if gap.epsilon > 0.5 else 1e30))
        hb = herman_style_bound(lam, v, delta, gap.epsilon, gap.y0,
                                omega=freq)
        payload["herman"] = {
            "lambda": lam,
            "analytic_bound": hb.analytic_bound,
            "intermediate_bound": hb.intermediate_bound,
            "measured_L": hb.measured.value if hb.measured else None,
            "sound": hb.sound,
        }
    deltas = config.get("sublevel_deltas")
    fit = sublevel_measure(v, e1_values, deltas=deltas,
                           samples=max(10_000, int(config.get("samples", 100_000))),
                           seed=seed)
    payload["sublevel"] = {"worst_c0": fit.worst_c0,
                           "fits": {str(k): val for k, val in fit.fits.items()}}
    path = out_dir / "lowerbound.json"
    _write_json(path, payload)
    return [path]


def _run_recursion(config, v, freq, seed, out_dir) -> List[Path]:
    lam = float(config.get("lambda", 50.0))
    schedule = [int(x) for x in config["schedule"]]
    ladder = multiscale_recursion(
        lam, v, freq, schedule, sigma=float(config.get("sigma", 0.1)),
        samples=int(config.get("samples", 200)), seed=seed,
        energy=float(config.get("E", 0.0)),
        gate_constant=float(config.get("gate_constant", 1.0)))
    path = out_dir / "ladder.json"
    _write_json(path, ladder.to_json())
    plot = emit_plot_data([(r.n, r.l_value) for r in ladder.rows], "ladder",
                          out_dir,
                          header="# half_log_lambda = "
                                 + numfmt.num(ladder.half_log_coupling))
    return [path, *plot]


_HANDLERS = {
    "lyapunov": _run_lyapunov,
    "ldt": _run_ldt,
    "green": _run_green,
    "pave": _run_pave,
    "localize": _run_localize,
    "lowerbound": _run_lowerbound,
    "recursion": _run_recursion,
}


def emit_plot_data(rows: Sequence[tuple], kind: str, out_dir: Path,
                   suffix: str = "", header: Optional[str] = None) -> List[Path]:
    """Write two-column whitespace data plus a gnuplot stub (no rendering)."""
    kinds = {"lyapunov_vs_E": ("E", "L_n"),
             "decay_profile": ("distance", "log_abs"),
             "ldt_scaling": ("n", "fraction"),
             "ladder": ("n", "L")}
    if kind not in kinds:
        raise ValueError(f"unknown plot kind {kind!r}")
    if not rows:
        raise ValueError("refusing to emit empty plot data")
    xl, yl = kinds[kind]
    out_dir = Path(out_dir)
    data_path = out_dir / f"{kind}{suffix}.dat"
    lines = [f"# {xl} {yl}"]
    if header:
        lines.append(header)
    lines += [numfmt.row(r, sep=" ") for r in rows]
    _write_lines(data_path, lines)
    stub_path = out_dir / f"{kind}{suffix}.gp"
    _write_lines(stub_path, [
        f"set xlabel '{xl}'",
        f"set ylabel '{yl}'",
        f"plot '{data_path.name}' using 1:2 with linespoints title '{kind}'",
    ])
    return [data_path, stub_path]


def run(config: dict, out_dir="qplab_out", seed: Optional[int] = None,
        threads: Optional[int] = None) -> List[Path]:
    """Validate, dispatch, and write artifacts plus a provenance manifest.

    ``threads`` caps the worker threads of phase averages (default: every CPU
    this process may use); artifacts are the same bytes at every value.
    """
    if threads is not None and threads < 1:
        raise ConfigInvalid(f"threads must be at least 1, got {threads}")
    validate_config(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    eff_seed = int(seed if seed is not None else config.get("seed", 0))
    try:
        v, freq = system_from_json(config["system"])
    except ValueError as exc:
        raise ConfigInvalid(str(exc), ("system",)) from exc
    token = THREADS.set(threads)
    try:
        cap = thread_cap()
        started = time.time()
        outputs = _HANDLERS[config["command"]](config, v, freq, eff_seed, out)
        wall = time.time() - started
    except ValueError as exc:
        # A value the schema admits but the library rejects, such as a
        # decreasing scale ladder or too few samples.
        raise ConfigInvalid(str(exc)) from exc
    finally:
        THREADS.reset(token)
    manifest = {
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
        "outputs": [p.name for p in outputs],
    }
    mpath = out / "manifest.json"
    _write_json(mpath, manifest)
    return outputs + [mpath]


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
        "lyapunov": "CSV columns: n,E,value,std_error,samples,quadrature",
        "ldt": "CSV columns: n,sigma,threshold,fraction,std_error,bound_reference",
        "green": "CSV columns: n1,n2,sign,log_mag (plus green_fit.json with min_sep)",
        "pave": "CSV columns: n1,n2,sign,log_mag; certificate JSON: rate, "
                "intercept, windows_used (the strided window cover), "
                "failures, contraction (largest summed hop weight of a "
                "row), iterations (ordered edge-row sweeps)",
        "localize": "JSON summary: box, lambda, pct_localized, median_rate; "
                    "profile CSV columns: index,abs,log_abs",
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
                       help="most worker threads for phase averages "
                            "(default: every CPU this process may use); "
                            "output is byte-identical at every value")
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
