"""Lower-bound machinery for Lyapunov exponents of strongly coupled potentials.

One-frequency route: complexify the phase, find a horizontal line where the
potential stays a distance epsilon away from the target value, show the
cocycle grows like (lambda*epsilon - 1)^n there, and pull the growth back to
the real axis by harmonic measure.  Any-dimension route: verify a large
initial-scale exponent from sublevel-measure bounds, then propagate
positivity through an increasing scale ladder with controlled per-step drops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .errors import (DescentExhausted, DropExceeded, GateFailed,
                     HypothesisUnmet, PotentialConstant)
from .greens import MultiscaleParams
from .lyapunov import LyapunovEstimate, SamplerSpec, lyapunov_n
from .model import Frequency, TrigPotential
from .transfer import (_LOG2, _log_norm, _orbit_rows, _phases, _products,
                       cocycle_batch)

STRICT_GATE_CONSTANT = 1000.0
DROP_CONSTANT = 1000.0
RECURSION_LOSS_CONSTANT = 71.0
GAMMA_LOSS_CONSTANT = 70.0

SCHEDULE_NOTE = ("scale ladder is user-supplied and geometric; per-step "
                 "inequalities are verified at desk scale instead of the "
                 "astronomically large theoretical inter-scale jump")


# ---------------------------------------------------------------------------
# epsilon gap (one frequency)


@dataclass(frozen=True)
class EpsilonGap:
    """A height y0 inside (delta/2, delta) where |v(x + i y0) - e1| >= epsilon."""

    delta: float
    y0: float
    epsilon: float
    e1: float


def epsilon_gap(v: TrigPotential, delta: float, e1: float,
                x_grid: int = 256, y_grid: int = 32) -> EpsilonGap:
    """Maximize over heights the x-infimum of |v(x + iy) - e1|.

    Grids are doubled, at most 7 times, until the achieved gap is stable to
    1%.  The potential must be nonconstant, else no gap exists for e1 equal
    to its value.
    """
    if v.dim != 1:
        raise ValueError("epsilon gap search is 1-frequency only")
    if v.is_constant():
        raise PotentialConstant("all oscillating coefficients vanish")
    if not 0.0 < delta < v.strip_width:
        raise ValueError("need 0 < delta < strip_width")

    best = None
    prev_eps = None
    nx, ny = x_grid, y_grid
    for _ in range(8):
        ys = delta / 2.0 + (np.arange(ny) + 1.0) * (delta / 2.0) / (ny + 1.0)
        xs = (np.arange(nx) + 0.5) / nx
        zs = xs[None, :] + 1j * ys[:, None]
        vals = np.abs(v.eval_complex_batch(zs) - e1)
        infima = np.min(vals, axis=1)
        k = int(np.argmax(infima))
        eps = float(infima[k])
        best = EpsilonGap(delta=delta, y0=float(ys[k]), epsilon=eps, e1=float(e1))
        if prev_eps is not None and abs(eps - prev_eps) <= 0.01 * max(prev_eps, 1e-300):
            break
        prev_eps = eps
        nx, ny = 2 * nx, 2 * ny
    if best.epsilon <= 0.0:
        raise PotentialConstant("no positive gap found; potential may be constant")
    return best


def epsilon_gap_min(v: TrigPotential, delta: float, e1_values: Sequence[float],
                    **kw) -> EpsilonGap:
    """Worst gap over a set of target values (the gap shrinks as targets grow)."""
    gaps = [epsilon_gap(v, delta, e1, **kw) for e1 in e1_values]
    return min(gaps, key=lambda g: g.epsilon)


# ---------------------------------------------------------------------------
# complexified growth


@dataclass(frozen=True)
class ComplexGrowthReport:
    margin: float               # log||M_n(i y0)|| - n log(lambda eps - 1)
    log_norm: float
    per_step_margin: float      # min step growth minus log(lambda eps - 1)
    uv_ok: bool                 # |u| >= |v| held at every step
    hypothesis_inf: float       # grid infimum of |lambda v - E| on the line
    steps: int


def complexified_growth_check(lam: float, v: TrigPotential, omega: Frequency,
                              energy: float, y0: float, epsilon: float,
                              n: int) -> ComplexGrowthReport:
    """Verify the (lambda*epsilon - 1)^n growth of the complexified cocycle.

    Requires lambda*epsilon > 100 and checks the line hypothesis
    inf_x |lambda v(x + i y0) - E| >= lambda*epsilon on a 512-point grid
    before running the orbit; the two-term recursion for (u, v) = M_(n)(1, 0)
    is checked stepwise: |u| never falls behind |v| and each step multiplies
    |u| by more than lambda*epsilon - 1.
    """
    if v.dim != 1:
        raise ValueError("complexified growth is 1-frequency only")
    lam_eps = lam * epsilon
    if not lam_eps > 100.0:
        raise HypothesisUnmet("coupling-gap product",
                              f"lambda*epsilon = {lam_eps:g} must exceed 100")
    scaled = v.with_coupling(lam * v.coupling)
    xs = (np.arange(512) + 0.5) / 512
    line = np.abs(scaled.eval_complex_batch(xs + 1j * y0) - energy)
    inf_line = float(np.min(line))
    if inf_line < lam_eps * (1.0 - 1e-9):
        raise HypothesisUnmet(
            "line infimum",
            f"inf |lambda v - E| = {inf_line:g} < lambda*epsilon = {lam_eps:g}")

    log_growth = math.log(lam_eps - 1.0)
    # (u, v) = M_(n)(1, 0) is the first column of each renormalized product.
    # The bottom row is minus the previous top row, so |v| = |prev[0]|.
    rows = _orbit_rows(omega, np.array([complex(0.0, y0)]), energy, n, scaled)
    log_u = [0.0]
    uv_ok = True
    for top, prev, exps in _products(rows):
        u, vv = abs(top[0, 0]), abs(prev[0, 0])
        log_u.append(exps[0] * _LOG2 + np.log(u))
        uv_ok = uv_ok and bool(u >= vv)
    per_step_margin = float(np.min(np.diff(log_u))) - log_growth
    log_norm = float(_log_norm(top, prev, exps)[0])
    margin = log_norm - n * log_growth
    return ComplexGrowthReport(margin=margin, log_norm=log_norm,
                               per_step_margin=per_step_margin,
                               uv_ok=uv_ok, hypothesis_inf=inf_line, steps=n)


# ---------------------------------------------------------------------------
# harmonic-measure lower bound


@dataclass(frozen=True)
class HermanBound:
    analytic_bound: float       # (delta/16) log lambda
    intermediate_bound: float   # (delta/4)((1 - 10 delta/rho) log lambda - 2 log(1/eps))
    coupling_threshold_log: float
    ceiling_log: float
    measured: Optional[LyapunovEstimate]
    sound: Optional[bool]       # analytic bound <= measured + 3 se


def herman_style_bound(lam: float, v: TrigPotential, delta: float,
                       epsilon: float, y0: float,
                       omega: Optional[Frequency] = None,
                       energy: float = 0.0) -> HermanBound:
    """Certified lower bound for the exponent of lambda*v from the gap data.

    The subharmonic pointwise exponent exceeds log(lambda*eps - 1) on the
    line Im z = y0 and is bounded by log(C*lambda) on the strip; averaging
    with the harmonic measure of y0 pushes a definite fraction of that growth
    onto the real axis.  Requires lambda above 100 * epsilon^(-100).  The
    strip width is rho = ``v.strip_width``.  Given ``omega``, the bound is
    compared with L_500 of lambda*v on a 64-point phase grid.
    """
    if v.dim != 1:
        raise ValueError("harmonic-measure bound is 1-frequency only")
    rho_strip = v.strip_width
    log_lam = math.log(lam)
    threshold_log = math.log(100.0) - 100.0 * math.log(epsilon)
    if not log_lam > threshold_log:
        raise HypothesisUnmet(
            "coupling threshold",
            f"log lambda = {log_lam:g} must exceed {threshold_log:g}")
    if not delta < rho_strip:
        raise HypothesisUnmet("strip separation",
                              f"delta = {delta:g} must be < {rho_strip:g}")
    analytic = (delta / 16.0) * log_lam
    intermediate = (delta / 4.0) * ((1.0 - 10.0 * delta / rho_strip)
                                    * log_lam - 2.0 * math.log(1.0 / epsilon))
    sup0 = v.coefficient_bound(0.0)
    ceiling = math.log(lam * (1.0 + sup0) + abs(energy) + 1.0)
    measured = None
    sound = None
    if omega is not None:
        scaled = v.with_coupling(lam * v.coupling)
        measured = lyapunov_n(omega, energy, 500, scaled,
                              SamplerSpec("grid", 64))
        sound = analytic <= measured.value + 3.0 * measured.std_error
    return HermanBound(analytic_bound=analytic, intermediate_bound=intermediate,
                       coupling_threshold_log=threshold_log, ceiling_log=ceiling,
                       measured=measured, sound=sound)


# ---------------------------------------------------------------------------
# sublevel measure


@dataclass(frozen=True)
class SublevelRow:
    e1: float
    delta: float
    fraction: float
    std_error: float


@dataclass(frozen=True)
class SublevelReport:
    worst_c0: Optional[float]
    fits: Dict[float, Optional[float]]
    rows: Tuple[SublevelRow, ...]


def default_delta_ladder() -> np.ndarray:
    return 2.0 ** (-np.arange(4, 11, dtype=float))


def sublevel_measure(v0: TrigPotential, e1_values: Sequence[float],
                     deltas: Optional[Sequence[float]] = None,
                     samples: int = 100_000, seed: int = 0) -> SublevelReport:
    """Monte Carlo measure of {theta : |v0(theta) - e1| < delta} on a delta ladder.

    Fits the power-law exponent c0 (slope of log measure against log delta)
    per target value; the worst (smallest) exponent is the headline number.
    Targets whose sublevel sets are empty at every delta get exponent None
    (their measure bound holds vacuously).
    """
    if samples < 10_000:
        raise ValueError("need at least 1e4 samples")
    deltas = np.sort(np.asarray(list(deltas if deltas is not None
                                     else default_delta_ladder()), dtype=float))
    rng = np.random.default_rng(seed)
    thetas = rng.random(samples) if v0.dim == 1 else rng.random((samples, 2))
    vals = v0.eval_batch(thetas)
    rows: List[SublevelRow] = []
    fits: Dict[float, Optional[float]] = {}
    worst = None
    for e1 in e1_values:
        dist = np.abs(vals - e1)
        fracs = np.array([float(np.count_nonzero(dist < d)) / samples
                          for d in deltas])
        for d, f in zip(deltas, fracs):
            rows.append(SublevelRow(e1=float(e1), delta=float(d), fraction=f,
                                    std_error=math.sqrt(f * (1 - f) / samples)))
        live = fracs > 0
        if np.count_nonzero(live) >= 2:
            c0 = float(np.polyfit(np.log(deltas[live]), np.log(fracs[live]), 1)[0])
        else:
            c0 = None
        fits[float(e1)] = c0
        if c0 is not None and (worst is None or c0 < worst):
            worst = c0
    return SublevelReport(worst_c0=worst, fits=fits, rows=tuple(rows))


# ---------------------------------------------------------------------------
# initial scale


@dataclass(frozen=True)
class InitialScaleReport:
    c0: float
    theory_bound: float         # n1 * lambda^(-c0/100), must be < 1/n1
    orbit_fraction: float
    orbit_fraction_se: float
    orbit_threshold: float      # lambda^(-0.01)
    estimates: Tuple[LyapunovEstimate, ...]
    required: float             # 0.97 log lambda
    margin: float               # min L - required


def initial_scale_bound(lam: float, v0: TrigPotential, omega: Frequency,
                        n1: int, samples: int = 20_000, seed: int = 0,
                        energies: Sequence[float] = (0.0,)) -> InitialScaleReport:
    """Verify the large-coupling initial scale: measure bound plus L_{n1} >= 0.97 log lambda.

    The sublevel exponent makes the orbit-sublevel measure summable only for
    couplings with lambda^(c0/100) > n1^2; for smaller couplings this raises
    HypothesisUnmet naming the failing inequality (the honest outcome at
    bench-top coupling strengths).
    """
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    log_lam = math.log(lam)
    e1_values = sorted({float(e) / lam for e in energies})
    fit = sublevel_measure(v0, e1_values, samples=max(samples, 10_000),
                           seed=seed)
    c0 = fit.worst_c0 if fit.worst_c0 is not None else math.inf
    theory_bound = n1 * math.exp(-(c0 / 100.0) * log_lam) if math.isfinite(c0) \
        else 0.0
    if not theory_bound < 1.0 / n1:
        raise HypothesisUnmet(
            "sublevel measure bound",
            f"n1 * lambda^(-c0/100) = {theory_bound:g} is not below 1/n1 = {1.0 / n1:g}")

    threshold = math.exp(-0.01 * log_lam)
    rng = np.random.default_rng(seed + 1)
    thetas = rng.random(samples) if omega.dim == 1 else rng.random((samples, 2))
    vals = v0.eval_batch(_phases(thetas[:, None], omega,
                                 np.arange(1, n1 + 1)[None, :]))
    worst_fraction = 0.0
    for e1 in e1_values:
        mins = np.min(np.abs(vals - e1), axis=1)
        worst_fraction = max(worst_fraction,
                             float(np.count_nonzero(mins < threshold)) / samples)
    frac_se = math.sqrt(worst_fraction * (1 - worst_fraction) / samples)
    if not worst_fraction < 1.0 / n1:
        raise HypothesisUnmet(
            "orbit sublevel fraction",
            f"measured {worst_fraction:g} is not below 1/n1 = {1.0 / n1:g}")

    scaled = v0.with_coupling(lam * v0.coupling)
    required = 0.97 * log_lam
    ests = tuple(lyapunov_n(omega, e, n1, scaled, SamplerSpec("grid", 256))
                 for e in energies)
    margin = min(e.value for e in ests) - required
    if margin < 0.0:
        raise HypothesisUnmet(
            "initial growth",
            f"min L_n1 = {min(e.value for e in ests):g} below 0.97 log lambda = {required:g}")
    return InitialScaleReport(c0=c0, theory_bound=theory_bound,
                              orbit_fraction=worst_fraction,
                              orbit_fraction_se=frac_se,
                              orbit_threshold=threshold, estimates=ests,
                              required=required, margin=margin)


# ---------------------------------------------------------------------------
# scale selection


@dataclass(frozen=True)
class ScaleSelection:
    n0: int
    descent: Tuple[int, ...]
    violations: Tuple[int, ...]   # tabulated m <= n0 violating the carried bound
    ok: bool


def scale_selection(l_table: Mapping[int, float], n: int, scale_ratio: float,
                    log_norm_bound: float) -> ScaleSelection:
    """Descend n, [rho n], [rho^2 n], ... until one scale nearly matches the next.

    Success at n0 means L_[rho n0] < (1 + rho) L_n0; positivity of L_n forces
    this before the descent reaches sqrt(n).  Afterwards every tabulated
    m <= n0 is re-checked against (1 + rho) L_n0 + log_norm_bound * rho*n0/m.
    """
    if not 0.0 < scale_ratio < 1.0:
        raise ValueError("scale ratio must lie in (0, 1)")
    floor = math.sqrt(n)
    if n not in l_table:
        raise DescentExhausted(f"table lacks the top scale n = {n}")
    descent = [n]
    n0 = n
    while True:
        m = int(scale_ratio * n0)
        if m < 1 or n0 <= floor:
            raise DescentExhausted(
                f"descent reached {n0} <= sqrt(n) = {floor:.3g} without success")
        if m not in l_table:
            raise DescentExhausted(f"table lacks scale {m} needed by the descent")
        if l_table[m] < (1.0 + scale_ratio) * l_table[n0]:
            break
        descent.append(m)
        n0 = m
    violations = []
    bound_base = (1.0 + scale_ratio) * l_table[n0]
    for m in sorted(l_table):
        if m <= n0:
            if l_table[m] >= bound_base + log_norm_bound * scale_ratio * n0 / m + 1e-12:
                violations.append(m)
    return ScaleSelection(n0=n0, descent=tuple(descent),
                          violations=tuple(violations), ok=not violations)


# ---------------------------------------------------------------------------
# multiscale recursion


@dataclass(frozen=True)
class ScaleRow:
    n: int
    l_value: float
    std_error: float
    rho: float
    gate_margin: float
    gate_ok: bool
    gate_strict_ok: bool
    rho_admissible: bool
    drop: Optional[float]
    drop_bound: Optional[float]
    drop_margin: Optional[float]
    recursion_bound_ok: Optional[bool]


@dataclass(frozen=True)
class ScaleLadder:
    rows: Tuple[ScaleRow, ...]
    sigma: float
    coupling: float
    log_norm_bound: float
    half_log_coupling: float
    half_log_ok: bool
    half_log_margin: float
    telescope_ok: bool
    note: str = SCHEDULE_NOTE

    def min_l(self) -> float:
        return min(r.l_value for r in self.rows)

    def to_json(self) -> dict:
        return {
            "sigma": self.sigma,
            "lambda": self.coupling,
            "log_norm_bound": self.log_norm_bound,
            "half_log_lambda": self.half_log_coupling,
            "half_log_ok": self.half_log_ok,
            "half_log_margin": self.half_log_margin,
            "telescope_ok": self.telescope_ok,
            "note": self.note,
            "ladder": [
                {
                    "n": r.n,
                    "L": r.l_value,
                    "std_error": r.std_error,
                    "rho": r.rho,
                    "gate_ok": r.gate_ok,
                    "gate_margin": r.gate_margin,
                    "gate_strict_ok": r.gate_strict_ok,
                    "rho_admissible": r.rho_admissible,
                    "drop_margin": r.drop_margin,
                    "drop": r.drop,
                    "drop_bound": r.drop_bound,
                    "recursion_bound_ok": r.recursion_bound_ok,
                }
                for r in self.rows
            ],
        }


def multiscale_recursion(lam: float, v0: TrigPotential, omega: Frequency,
                         schedule: Sequence[int], sigma: float = 0.1,
                         samples: int = 200, seed: int = 0,
                         energy: float = 0.0,
                         gate_constant: float = 1.0) -> ScaleLadder:
    """Walk an increasing scale ladder checking gates and drop bounds.

    At each scale: the admissibility margin L_n / (rho * log(1 + sup|v|))
    must exceed ``gate_constant`` (with rho the normalized-ratio rule and
    sup|v| the coefficient bound on the real torus); the theoretically strict
    constant ``STRICT_GATE_CONSTANT`` is reported per scale, never assumed,
    since it needs log n beyond any feasible scale.  Consecutive drops must
    stay within (``DROP_CONSTANT`` / sqrt(log n)) log lambda plus 3 combined
    standard errors.  L_n is sampled on a grid for one frequency and by
    Monte Carlo for two.  The final report compares min L against
    (1/2) log lambda.
    """
    sched = [int(x) for x in schedule]
    if not sched or any(b <= a for a, b in zip(sched, sched[1:])):
        raise ValueError("schedule must be nonempty and strictly increasing")
    if lam <= 0:
        raise ValueError("coupling must be positive")
    v = v0.with_coupling(lam * v0.coupling)
    log1v = math.log(1.0 + v.coefficient_bound(0.0))
    log_lam = math.log(lam)
    quad = "monte_carlo" if omega.dim == 2 else "grid"

    rows: List[ScaleRow] = []
    prev: Optional[Tuple[int, LyapunovEstimate, float]] = None
    for j, n in enumerate(sched):
        est = lyapunov_n(omega, energy, n, v,
                         SamplerSpec(quad, samples, seed + j))
        sqrt_log_n = math.sqrt(math.log(n))
        if est.value <= 0.0:
            raise GateFailed(n, 0.0, gate_constant)
        rho = (log1v / est.value) / sqrt_log_n
        gate_margin = est.value / (rho * log1v)
        if gate_margin <= gate_constant:
            raise GateFailed(n, gate_margin, gate_constant)
        drop = drop_bound = drop_margin = None
        rec_ok = None
        if prev is not None:
            n_prev, est_prev, rho_prev = prev
            drop = est_prev.value - est.value
            drop_bound = (DROP_CONSTANT / math.sqrt(math.log(n_prev))) * log_lam
            slack = 3.0 * math.sqrt(est.std_error ** 2 + est_prev.std_error ** 2)
            if drop > drop_bound + slack:
                raise DropExceeded(n, drop, drop_bound + slack)
            drop_margin = drop_bound - drop
            rec_ok = est.value > est_prev.value \
                - RECURSION_LOSS_CONSTANT * rho_prev * log1v - slack
        rows.append(ScaleRow(
            n=n, l_value=est.value, std_error=est.std_error, rho=rho,
            gate_margin=gate_margin, gate_ok=True,
            gate_strict_ok=gate_margin > STRICT_GATE_CONSTANT,
            rho_admissible=rho < 0.5,
            drop=drop, drop_bound=drop_bound, drop_margin=drop_margin,
            recursion_bound_ok=rec_ok))
        prev = (n, est, rho)

    half = 0.5 * log_lam
    max_se = max(r.std_error for r in rows)
    min_l = min(r.l_value for r in rows)
    half_log_ok = min_l > half + 3.0 * max_se
    # Telescoped product: with the literal constant the factors are far below
    # one at desk scales, so the check is reported rather than load-bearing.
    product = 1.0
    telescope_ok = True
    first = rows[0].l_value
    for r_prev, r in zip(rows, rows[1:]):
        product *= 1.0 - 2.0 * DROP_CONSTANT / math.sqrt(math.log(r_prev.n))
        slack = 3.0 * math.sqrt(r.std_error ** 2 + rows[0].std_error ** 2)
        if not r.l_value > product * first - slack:
            telescope_ok = False
    return ScaleLadder(rows=tuple(rows), sigma=sigma, coupling=lam,
                       log_norm_bound=log1v, half_log_coupling=half,
                       half_log_ok=half_log_ok, half_log_margin=min_l - half,
                       telescope_ok=telescope_ok)


# ---------------------------------------------------------------------------
# bridge to paving


def multiscale_paving_params(l_n0: float, rho: float, n0: int,
                             log_norm_bound: float):
    """Window-decay constants handed to the paver when it serves the recursion.

    The certified window exponent is the scale's exponent minus the loss
    70 * rho * log(1 + sup|v|); at desk scales this is typically negative, so
    the paver's report is informational there (and says so via the margins).
    """
    gamma = l_n0 - GAMMA_LOSS_CONSTANT * rho * log_norm_bound
    return MultiscaleParams(rho=rho, gamma=gamma, n0=int(n0),
                            log_norm_bound=log_norm_bound)


# ---------------------------------------------------------------------------
# sampled admissible-phase predicate


@dataclass(frozen=True)
class ShiftDeviationReport:
    bad_fraction: float
    std_error: float
    reference: float            # exp(-n0^(sigma/5))
    threshold: float


def shift_deviation_fraction(omega: Frequency, v: TrigPotential, energy: float,
                             n0: int, big_n: int, sigma: float,
                             samples: int = 100, shifts: int = 8,
                             scales: int = 4, seed: int = 0) -> ShiftDeviationReport:
    """Sampled fraction of phases failing the normalized deviation bound.

    A phase is bad when some sampled scale m in (sqrt(n0), n0] and shift
    j <= 2 big_n sees |phi_m - L_m| above n0^(-sigma/2) * log(1 + sup|v|).
    Compared against exp(-n0^(sigma/5)) as a report.
    """
    log1v = math.log(1.0 + v.coefficient_bound(0.0))
    threshold = n0 ** (-sigma / 2.0) * log1v
    lo = int(math.sqrt(n0)) + 1
    ms = sorted({int(x) for x in np.linspace(lo, n0, scales)})
    rng = np.random.default_rng(seed)
    thetas = rng.random(samples) if omega.dim == 1 else rng.random((samples, 2))
    js = np.concatenate([[0], rng.integers(1, max(2 * big_n, 2), size=shifts - 1)])
    bad = np.zeros(samples, dtype=bool)
    for m in ms:
        ref = lyapunov_n(omega, energy, m, v,
                         SamplerSpec("monte_carlo" if omega.dim == 2 else "grid",
                                     2048, seed)).value
        for j in js:
            phi = cocycle_batch(omega, _phases(thetas, omega, j), energy, m,
                                v) / m
            bad |= np.abs(phi - ref) > threshold
    frac = float(np.count_nonzero(bad)) / samples
    return ShiftDeviationReport(
        bad_fraction=frac,
        std_error=math.sqrt(frac * (1 - frac) / samples),
        reference=math.exp(-(n0 ** (sigma / 5.0))),
        threshold=threshold)
