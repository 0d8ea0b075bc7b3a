"""The benchmark's workloads: operations, their inputs and their checks.

Each workload is a fixed sequence of operations.  An operation is either a
CLI run through ``qplab.cli.main`` (writing artifacts into its own output
directory) or a sequence of public library calls.  Its ``check`` runs after
the timed pass and returns an ``Outcome``: whether the acceptance threshold
held, the headline numbers compared against the seed-commit references, and
the count of numeric artifact fields that plain ``float()`` rejects.

Two sizes exist.  ``full`` is the measured size; ``tiny`` runs the same code
paths in a fraction of a second and serves as the warm-up pass and as the
self-test size.  Acceptance thresholds are only meaningful at ``full``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from qplab import cli, greens, lowerbound, lyapunov, model, transfer

GOLDEN = 0.6180339887498949


def mathieu_system(coupling):
    """Almost-Mathieu potential lambda cos(2 pi theta), golden frequency."""
    return {"dim": 1, "coeffs": [[-1, 0.5, 0.0], [1, 0.5, 0.0]], "rho": 2.0,
            "lambda": coupling, "omega": [GOLDEN], "dio": {"A": 2.0, "c": 0.2}}


SIZES = {
    "full": {
        "scan": {"n": 2000, "samples": 200, "points": 50},
        "ldt": {"n_schedule": [50, 100, 200, 400], "samples": 100_000},
        "recursion": None,                       # built-in flagship ladder
        "orbit": {"boxes": 200, "max_n": 64, "growth_n": 1000},
        "green": {"interval": [-1000, 1000], "min_sep": 50},
        "localize": None,                        # built-in flagship box
        "paving": {"big": 1000, "window": 50, "survey": 10},
    },
    "tiny": {
        "scan": {"n": 200, "samples": 20, "points": 5},
        "ldt": {"n_schedule": [5, 10], "samples": 4000},
        "recursion": [200, 400],
        "orbit": {"boxes": 10, "max_n": 16, "growth_n": 100},
        "green": {"interval": [-60, 60], "min_sep": 10},
        "localize": [-100, 100],
        "paving": {"big": 200, "window": 50, "survey": 2},
    },
}


@dataclass
class Outcome:
    ok: bool
    detail: str
    headlines: Dict[str, float] = field(default_factory=dict)
    format_errors: int = 0


@dataclass
class Op:
    name: str
    run: Callable          # run(ctx, state) -> result
    check: Callable        # check(ctx, state, result) -> Outcome
    cli: bool = False      # writes artifacts into ctx.out(name)
    seeded: bool = False   # its inputs are drawn from the seed


@dataclass
class Context:
    seed: int
    size: str
    work: Path

    def out(self, op_name):
        return self.work / op_name

    def dims(self, key):
        return SIZES[self.size][key]


# ---------------------------------------------------------------------------
# artifacts

TEXT_COLUMNS = {"quadrature"}
_NUMPY_REPR = re.compile(r"np\.\w+\((.*)\)$")


def format_errors(out_dir: Path) -> int:
    """Numeric fields of every CSV and .dat artifact that float() rejects."""
    bad = 0
    for path in sorted(out_dir.glob("*.csv")):
        with open(path) as fh:
            header = fh.readline().rstrip("\n").split(",")
            numeric = [i for i, col in enumerate(header)
                       if col not in TEXT_COLUMNS]
            for line in fh:
                fields = line.rstrip("\n").split(",")
                for i in numeric:
                    try:
                        float(fields[i])
                    except (ValueError, IndexError):
                        bad += 1
    for path in sorted(out_dir.glob("*.dat")):
        with open(path) as fh:
            for line in fh:
                if line.startswith("#"):
                    continue
                for text in line.split():
                    try:
                        float(text)
                    except ValueError:
                        bad += 1
    return bad


def field_value(text: str) -> float:
    """Numeric value of an artifact field for the value checks.

    Fields written as ``np.float64(x)`` are counted by ``format_errors``; the
    value checks still read the number inside so that a formatting defect and
    a numerical defect are reported separately.
    """
    try:
        return float(text)
    except ValueError:
        m = _NUMPY_REPR.match(text)
        if m is None:
            raise
        return float(m.group(1))


def _csv_rows(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def run_cli(ctx: Context, name: str, command: str, config=None, extra=()):
    """One ``qplab <command>`` run; raises if it exits nonzero."""
    out = ctx.out(name)
    argv = [command, "--seed", str(ctx.seed), "--out", str(out), *extra]
    if config is not None:
        path = ctx.work / f"{name}.config.json"
        path.write_text(json.dumps(config))
        argv += ["--config", str(path)]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qplab {command} exited {code}: "
                           f"{err.getvalue().strip()}")
    return out


def _cli_outcome(ok, detail, headlines, out_dir):
    return Outcome(ok, detail, headlines, format_errors(out_dir))


# ---------------------------------------------------------------------------
# cocycle: potential evaluation and stepping dominate


def scan_config(ctx):
    d = ctx.dims("scan")
    return {"schema_version": 1, "command": "lyapunov",
            "system": mathieu_system(5.0), "n": d["n"],
            "samples": d["samples"], "quadrature": "grid",
            "e_grid": {"min": -7.0, "max": 7.0, "points": d["points"]}}


def check_scan(ctx, state, out):
    rows = _csv_rows(out / "lyapunov.csv")
    values = [field_value(r["value"]) for r in rows]
    floor = math.log(2.5) - 0.05
    worst = min(values)
    heads = {f"scan.L.{i:02d}": x for i, x in enumerate(values)}
    return _cli_outcome(len(values) == ctx.dims("scan")["points"]
                        and worst >= floor,
                        f"min_E L = {worst:.4f} >= {floor:.4f}", heads, out)


def ldt_config(ctx):
    d = ctx.dims("ldt")
    return {"schema_version": 1, "command": "ldt",
            "system": mathieu_system(5.0), "E": 0.0, "sigma": 0.3,
            "n_schedule": d["n_schedule"], "samples": d["samples"]}


# The check recomputes phi = (1/n) log ||M_n|| on about this many of the
# sampled phases, evenly strided, by one unchunked cocycle_batch call per
# scale.
LDT_SUBSAMPLE = 2000


def check_ldt(ctx, state, out):
    """c07 thresholds, plus a recomputed subsample of the sampled phases.

    Scale i of ``ldt_scaling_table`` draws its phases from
    ``default_rng(seed + i)``.  The subsample is a subset of them, so its
    count of phases beyond the threshold cannot exceed the reported fraction
    times the sample count.  Its largest |phi - L_n| per scale is a
    headline, so a changed phi shows as drift even while every fraction is 0.
    """
    config = ldt_config(ctx)
    v, freq = model.system_from_json(config["system"])
    rows = _csv_rows(out / "ldt.csv")
    fr = [field_value(r["fraction"]) for r in rows]
    se = [field_value(r["std_error"]) for r in rows]
    mono = all(fr[i + 1] <= fr[i] + 3.0 * math.hypot(se[i], se[i + 1])
               for i in range(len(fr) - 1))
    halved = fr[-1] <= 0.5 * fr[0]
    heads = {f"ldt.fraction.n{r['n']}": x for r, x in zip(rows, fr)}
    problems = []
    for i, (row, fraction) in enumerate(zip(rows, fr)):
        n = int(row["n"])
        thetas = np.random.default_rng(ctx.seed + i).random(
            config["samples"])[::max(1, config["samples"] // LDT_SUBSAMPLE)]
        phi = transfer.cocycle_batch(freq, thetas, config["E"], n, v) / n
        dev = np.abs(phi - lyapunov.lyapunov_n(freq, config["E"], n,
                                               v).value)
        threshold = n ** -config["sigma"]
        if not math.isclose(field_value(row["threshold"]), threshold,
                            rel_tol=1e-12):
            problems.append(f"n={n}: threshold {row['threshold']}, "
                            f"expected n^-sigma = {threshold!r}")
        hits = int(np.count_nonzero(dev > threshold))
        if hits > round(fraction * config["samples"]):
            problems.append(f"n={n}: {hits} recomputed phases beyond the "
                            f"threshold, fraction {fraction}")
        heads[f"ldt.max_dev.n{n}"] = float(np.max(dev))
    ok = mono and halved and not problems
    return _cli_outcome(ok, "; ".join(problems) or f"fractions {fr}", heads,
                        out)


def run_recursion(ctx, state):
    schedule = ctx.dims("recursion")
    extra = () if schedule is None else \
        ("--schedule", ",".join(str(n) for n in schedule))
    return run_cli(ctx, "recursion", "recursion", extra=extra)


def check_recursion(ctx, state, out):
    ladder = _read_json(out / "ladder.json")
    rows = ladder["ladder"]
    ok = all(r["gate_ok"] for r in rows) and ladder["half_log_ok"]
    heads = {f"recursion.L.n{r['n']}": r["L"] for r in rows}
    return _cli_outcome(ok, f"half_log_margin {ladder['half_log_margin']:.4f}",
                        heads, out)


def random_potential(rng, degree=3):
    """Conjugate-symmetric random trig polynomial of the c01 identity check."""
    coeffs = {(0,): complex(rng.uniform(-1.0, 1.0), 0.0)}
    for k in range(1, degree + 1):
        c = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        coeffs[(k,)] = c
        coeffs[(-k,)] = c.conjugate()
    return model.TrigPotential(dim=1, coeffs=coeffs, strip_width=2.0)


def run_orbit(ctx, state):
    """Single-phase paths: c01 determinant identities, c13 complex growth."""
    d = ctx.dims("orbit")
    freq = model.golden_frequency()
    rng = np.random.default_rng(ctx.seed)
    worst = 0.0
    for _ in range(d["boxes"]):
        v = random_potential(rng)
        n = int(rng.integers(3, d["max_n"] + 1))
        theta = float(rng.random())
        energy = float(rng.uniform(-10.0, 10.0))
        worst = max(worst, transfer.verify_det_identity(n, freq, theta,
                                                        energy, v))
    cos1 = model.cosine_potential(1.0, strip_width=2.0)
    growth = {}
    for e1 in (0.0, 0.5):
        gap = lowerbound.epsilon_gap(cos1, 0.1, e1)
        lam = 101.0 / gap.epsilon
        growth[e1] = lowerbound.complexified_growth_check(
            lam, cos1, freq, lam * e1, gap.y0, gap.epsilon, d["growth_n"])
    return worst, growth


def check_orbit(ctx, state, result):
    worst, growth = result
    ok = worst <= 1e-9 and all(r.margin >= 0.0 and r.uv_ok
                               for r in growth.values())
    heads = {"orbit.det_residual": worst}
    heads.update({f"orbit.growth_margin.e{e1}": r.margin
                  for e1, r in growth.items()})
    margins = ", ".join(f"{r.margin:.1f}" for r in growth.values())
    return Outcome(ok, f"residual {worst:.3g}, margins {margins}", heads)


# ---------------------------------------------------------------------------
# boxes: artifact serialization dominates

def green_config(ctx):
    d = ctx.dims("green")
    return {"schema_version": 1, "command": "green",
            "system": mathieu_system(5.0), "interval": d["interval"],
            "E": 0.5, "theta": 0.0, "min_sep": d["min_sep"]}


# Local (row, column) indices whose log-magnitudes are headline numbers; all
# lie within CRAMER_MAX_SEP of the diagonal.
GREEN_ENTRIES = [(0, 0), (0, 10), (1000, 1000), (1000, 1100), (500, 800),
                 (2000, 2000), (2000, 1400)]
# Entries checked against the Cramer route lie within this separation, where
# both routes stay in the normal floating-point range.
CRAMER_MAX_SEP = 600


def check_green(ctx, state, out):
    a, b = ctx.dims("green")["interval"]
    n = b - a + 1
    rng = np.random.default_rng(0)
    rows = rng.integers(0, n, 400)
    cols = np.clip(rows + rng.integers(-CRAMER_MAX_SEP, CRAMER_MAX_SEP + 1,
                                       400), 0, n - 1)
    heads_at = [(i, j) for i, j in GREEN_ENTRIES if i < n and j < n]
    wanted = {int(i) * n + int(j) + 1: (int(i), int(j))
              for i, j in [*zip(rows, cols), *heads_at]}
    seen = {}
    count = -1
    with open(out / "green.csv") as fh:
        for count, line in enumerate(fh):
            if count in wanted:
                seen[wanted[count]] = line.rstrip("\n").split(",")
    problems = []
    if count != n * n:
        problems.append(f"{count} rows, expected {n * n}")
    gc = greens.green_cramer_matrix((a, b), model.golden_frequency(), 0.0,
                                    0.5, model.cosine_potential(5.0))
    worst = 0.0
    for (i, j), fields in seen.items():
        if (field_value(fields[0]), field_value(fields[1])) != (a + i, a + j):
            problems.append(f"row for entry ({i}, {j}) is out of order")
            break
        sign, logmag = field_value(fields[2]), field_value(fields[3])
        if sign != gc.signs[i, j]:
            problems.append(f"sign differs at ({i}, {j})")
            break
        worst = max(worst, abs(logmag - gc.logs[i, j]))
    fit = _read_json(out / "green_fit.json")
    heads = {f"green.logmag.{i}.{j}": field_value(seen[(i, j)][3])
             for i, j in heads_at if (i, j) in seen}
    heads["green.fit_rate"] = fit["rate"]
    ok = not problems and worst <= 1e-8
    detail = "; ".join(problems) or f"max |log diff| vs Cramer {worst:.3g}"
    return _cli_outcome(ok, detail, heads, out)


def run_localize(ctx, state):
    interval = ctx.dims("localize")
    if interval is None:
        return run_cli(ctx, "localize", "localize")
    config = json.loads(json.dumps(cli.FLAGSHIP_CONFIGS["localize"]))
    config["interval"] = interval
    return run_cli(ctx, "localize", "localize", config)


def check_localize(ctx, state, out):
    summary = _read_json(out / "localization.json")
    pct = summary["pct_localized"]
    heads = {"localize.pct_localized": pct,
             "localize.median_rate": summary["median_rate"]}
    return _cli_outcome(pct >= 90.0, f"{pct:.1f}% localized", heads, out)


# ---------------------------------------------------------------------------
# paving: window search, floor checks and slog.add sweeps dominate

PAVE_COUPLING, PAVE_ENERGY = 10.0, 13.0


def paving_system():
    return model.cosine_potential(PAVE_COUPLING), model.golden_frequency()


def run_survey(ctx, state):
    """Worst fitted decay rate over windows [lo, lo+49], lo = 1, 101, ..."""
    d = ctx.dims("paving")
    v, freq = paving_system()
    rates = []
    for k in range(d["survey"]):
        lo = 1 + 100 * k
        g = greens.green_solve((lo, lo + d["window"] - 1), freq, 0.0,
                               PAVE_ENERGY, v)
        rates.append(greens.decay_fit(g, 5).rate)
    state["c"] = min(rates)
    return rates


def check_survey(ctx, state, rates):
    c = min(rates)
    return Outcome(c > 0.0, f"window rate c = {c:.4f}", {"survey.c": c})


def run_pave(ctx, state):
    d = ctx.dims("paving")
    v, freq = paving_system()
    return greens.pave((1, d["big"]), d["window"], freq, 0.0, PAVE_ENERGY, v,
                       c=state["c"])


# Local entries with separation >= 250 whose assembled log-magnitudes are
# headline numbers.
PAVE_ENTRIES = [(0, 250), (0, 999), (250, 750), (999, 500), (500, 999)]


def check_pave(ctx, state, res):
    d = ctx.dims("paving")
    v, freq = paving_system()
    big = d["big"]
    direct = greens.green_solve((1, big), freq, 0.0, PAVE_ENERGY, v)
    idx = np.arange(big)
    sep = np.abs(idx[:, None] - idx[None, :])
    far = (sep >= 100) & (res.green.signs != 0) & (direct.signs != 0)
    rel = float(np.max(np.abs(res.green.logs[far] - direct.logs[far])
                       / np.abs(direct.logs[far])))
    c = state["c"]
    rate = res.certificate.rate
    heads = {"pave.rate": rate}
    heads.update({f"pave.logmag.{i}.{j}": float(res.green.logs[i, j])
                  for i, j in PAVE_ENTRIES if i < big and j < big})
    return Outcome(rate >= c / 2.0 and rel <= 0.25,
                   f"rate {rate:.3f} >= c/2 = {c / 2:.3f}, far gap {rel:.3g}",
                   heads)


def paving_config(ctx):
    d = ctx.dims("paving")
    return {"schema_version": 1, "command": "pave",
            "system": mathieu_system(PAVE_COUPLING),
            "interval": [1, d["big"]], "window": d["window"],
            "E": PAVE_ENERGY, "theta": 0.0}


# ---------------------------------------------------------------------------


@dataclass
class Workload:
    ops: List[Op]
    first_config: Callable       # config used to time set-up


def _cli_op(name, command, make_config, check, seeded=False):
    return Op(name, lambda ctx, state: run_cli(ctx, name, command,
                                               make_config(ctx)),
              check, cli=True, seeded=seeded)


WORKLOADS = {
    "cocycle": Workload([
        _cli_op("scan", "lyapunov", scan_config, check_scan),
        _cli_op("ldt", "ldt", ldt_config, check_ldt, seeded=True),
        Op("recursion", run_recursion, check_recursion, cli=True,
           seeded=True),
        Op("orbit", run_orbit, check_orbit, seeded=True),
    ], scan_config),
    "boxes": Workload([
        _cli_op("green", "green", green_config, check_green),
        Op("localize", run_localize, check_localize, cli=True),
    ], green_config),
    "paving": Workload([
        Op("survey", run_survey, check_survey),
        Op("pave", run_pave, check_pave),
    ], paving_config),
}
