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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (DropExceeded, GateFailed, HypothesisUnmet,
                     PotentialConstant)
from .lyapunov import (LyapunovEstimate, SamplerSpec, default_sampler,
                       lyapunov_n)
from .model import Frequency, TrigPotential
from .transfer import _orbit_rows, box_diagonal, cocycle_batch

STRICT_GATE_CONSTANT = 1000.0
DROP_CONSTANT = 1000.0
RECURSION_LOSS_CONSTANT = 71.0

SCHEDULE_NOTE = ("scale ladder is user-supplied and geometric; per-step "
                 "inequalities are verified at desk scale instead of the "
                 "astronomically large theoretical inter-scale jump")


# ---------------------------------------------------------------------------
# epsilon gap (one frequency)


@dataclass(frozen=True)
class EpsilonGap:
    """A height y0 inside (delta/2, delta) where |v(x + i y0) - e1| >= epsilon."""

    y0: float
    epsilon: float
    e1: float


def epsilon_gap(v: TrigPotential, delta: float, e1: float) -> EpsilonGap:
    """Maximize over heights the x-infimum of |v(x + iy) - e1|.

    The search starts on 256 x values by 32 heights and doubles both, at
    most 4 times (to 4096 x 512), until the achieved gap is stable to 1%; a
    gap still moving on the last grid raises ValueError.  The potential
    must be nonconstant, else no gap exists for e1 equal to its value.
    """
    if v.dim != 1:
        raise ValueError("epsilon gap search is 1-frequency only")
    if v.is_constant():
        raise PotentialConstant("all oscillating coefficients vanish")
    if not 0.0 < delta <= v.strip_width / 10.0:
        raise ValueError("need 0 < delta <= strip_width/10, the usable strip")

    prev_eps = None
    nx, ny = 256, 32
    for _ in range(5):
        ys = delta / 2.0 + (np.arange(ny) + 1.0) * (delta / 2.0) / (ny + 1.0)
        xs = (np.arange(nx) + 0.5) / nx
        zs = xs[None, :] + 1j * ys[:, None]
        vals = np.abs(v.eval_batch(zs) - e1)
        infima = np.min(vals, axis=1)
        k = int(np.argmax(infima))
        eps = float(infima[k])
        best = EpsilonGap(y0=float(ys[k]), epsilon=eps, e1=float(e1))
        if prev_eps is not None and abs(eps - prev_eps) <= 0.01 * max(prev_eps, 1e-300):
            break
        prev_eps = eps
        nx, ny = 2 * nx, 2 * ny
    else:
        raise ValueError(f"the epsilon gap at delta = {delta:g} did not settle "
                         f"to 1% on grids up to {nx // 2} x {ny // 2}")
    if best.epsilon <= 0.0:
        raise PotentialConstant("no positive gap found; potential may be constant")
    return best


# ---------------------------------------------------------------------------
# complexified growth


@dataclass(frozen=True)
class ComplexGrowthReport:
    margin: float               # log||M_n(i y0)|| - n log(lambda eps - 1)
    per_step_margin: float      # min step growth minus log(lambda eps - 1)
    uv_ok: bool                 # |u| >= |v| held at every step


def complexified_growth_check(lam: float, v: TrigPotential, omega: Frequency,
                              energy: float, y0: float, epsilon: float,
                              n: int) -> ComplexGrowthReport:
    """Verify the (lambda*epsilon - 1)^n growth of the complexified cocycle.

    Requires lambda*epsilon > 100 and checks the line hypothesis
    inf_x |lambda v(x + i y0) - E| >= lambda*epsilon on a 512-point grid
    before running the orbit.  The margin reads log||M_n(i y0)|| from
    ``cocycle_batch``; the two-term recursion for (u, v) = M_(n)(1, 0) is
    checked stepwise through r_j = u_j / u_(j-1): |u| never falls behind |v|
    and each step multiplies |u| by more than lambda*epsilon - 1.
    """
    if v.dim != 1:
        raise ValueError("complexified growth is 1-frequency only")
    lam_eps = lam * epsilon
    if not lam_eps > 100.0:
        raise HypothesisUnmet("coupling-gap product",
                              f"lambda*epsilon = {lam_eps:g} must exceed 100")
    scaled = v.with_coupling(lam * v.coupling)
    xs = (np.arange(512) + 0.5) / 512
    line = np.abs(scaled.eval_batch(xs + 1j * y0) - energy)
    inf_line = float(np.min(line))
    if inf_line < lam_eps * (1.0 - 1e-9):
        raise HypothesisUnmet(
            "line infimum",
            f"inf |lambda v - E| = {inf_line:g} < lambda*epsilon = {lam_eps:g}")

    log_growth = math.log(lam_eps - 1.0)
    # r_j = a_j - 1/r_(j-1) from r_0 = u_0 / u_(-1) = inf.  On the line
    # |r_j| stays above lambda*eps - 1, so it needs no rescaling.
    rows = box_diagonal((1, n), omega, complex(0.0, y0), scaled) - energy
    r = least = math.inf
    for a in rows.tolist():
        r = a - 1.0 / r
        least = min(least, abs(r))
    per_step_margin = math.log(least) - log_growth
    uv_ok = least >= 1.0
    margin = float(cocycle_batch(omega, complex(0.0, y0), energy, n,
                                 scaled)[0]) - n * log_growth
    return ComplexGrowthReport(margin=margin, per_step_margin=per_step_margin,
                               uv_ok=uv_ok)


# ---------------------------------------------------------------------------
# harmonic-measure lower bound


@dataclass(frozen=True)
class HermanBound:
    analytic_bound: float       # (delta/16) log lambda
    intermediate_bound: float   # (delta/4)((1 - 10 delta/rho) log lambda - 2 log(1/eps))
    measured: LyapunovEstimate  # L_500 of lambda*v on a 64-point phase grid
    sound: bool                 # analytic bound <= measured + 3 se


def herman_style_bound(lam: float, v: TrigPotential, delta: float,
                       epsilon: float, y0: float, omega: Frequency,
                       energy: float) -> HermanBound:
    """Certified lower bound for the exponent of lambda*v from the gap data.

    The subharmonic pointwise exponent exceeds log(lambda*eps - 1) on the
    line Im z = y0 and is bounded by log(C*lambda) on the strip; averaging
    with the harmonic measure of y0 pushes a definite fraction of that growth
    onto the real axis.  Requires lambda above 100 * epsilon^(-100).  The
    strip width is rho = ``v.strip_width``.  The bound is compared with
    L_500 of lambda*v at ``omega`` and ``energy`` on a 64-point phase grid;
    a gap found for the target value e1 certifies growth at energy
    lambda*e1.
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
    scaled = v.with_coupling(lam * v.coupling)
    measured = lyapunov_n(omega, energy, 500, scaled, SamplerSpec("grid", 64))
    sound = analytic <= measured.value + 3.0 * measured.std_error
    return HermanBound(analytic_bound=analytic, intermediate_bound=intermediate,
                       measured=measured, sound=sound)


# ---------------------------------------------------------------------------
# sublevel measure


@dataclass(frozen=True)
class SublevelReport:
    worst_c0: Optional[float]
    fits: Dict[float, Optional[float]]


# The deltas of a sublevel measure that is given none.
_DELTA_LADDER = 2.0 ** (-np.arange(4, 11, dtype=float))


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
                                     else _DELTA_LADDER), dtype=float))
    rng = np.random.default_rng(seed)
    thetas = rng.random(samples) if v0.dim == 1 else rng.random((samples, 2))
    vals = v0.eval_batch(thetas)
    fits: Dict[float, Optional[float]] = {}
    worst = None
    for e1 in e1_values:
        dist = np.abs(vals - e1)
        fracs = np.array([float(np.count_nonzero(dist < d)) / samples
                          for d in deltas])
        live = fracs > 0
        if np.count_nonzero(live) >= 2:
            c0 = float(np.polyfit(np.log(deltas[live]), np.log(fracs[live]), 1)[0])
        else:
            c0 = None
        fits[float(e1)] = c0
        if c0 is not None and (worst is None or c0 < worst):
            worst = c0
    return SublevelReport(worst_c0=worst, fits=fits)


# ---------------------------------------------------------------------------
# initial scale


@dataclass(frozen=True)
class InitialScaleReport:
    theory_bound: float         # n1 * lambda^(-c0/100), must be < 1/n1
    orbit_fraction: float       # orbit points within lambda^(-0.01) of e1
    margin: float               # min L - 0.97 log lambda


def initial_scale_bound(lam: float, v0: TrigPotential, omega: Frequency,
                        n1: int, seed: int = 0) -> InitialScaleReport:
    """Verify the large-coupling initial scale at E = 0: measure bound plus
    L_{n1} >= 0.97 log lambda.

    The sublevel exponent c0 of v0 at its value 0 = E/lambda makes the
    orbit-sublevel measure summable only for couplings with
    lambda^(c0/100) > n1^2; for smaller couplings this raises
    HypothesisUnmet naming the failing inequality (the honest outcome at
    bench-top coupling strengths).  The sublevel fit and the orbit check
    each draw 20 000 phases.
    """
    if n1 < 1:
        raise ValueError("n1 must be >= 1")
    log_lam = math.log(lam)
    samples = 20_000
    fit = sublevel_measure(v0, [0.0], samples=samples, seed=seed)
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
    mins = np.full(samples, np.inf)
    for row in _orbit_rows(omega, thetas, 0.0, n1, v0):
        np.minimum(mins, np.abs(row), out=mins)
    fraction = float(np.count_nonzero(mins < threshold)) / samples
    if not fraction < 1.0 / n1:
        raise HypothesisUnmet(
            "orbit sublevel fraction",
            f"measured {fraction:g} is not below 1/n1 = {1.0 / n1:g}")

    scaled = v0.with_coupling(lam * v0.coupling)
    required = 0.97 * log_lam
    est = lyapunov_n(omega, 0.0, n1, scaled, SamplerSpec("grid", 256))
    margin = est.value - required
    if margin < 0.0:
        raise HypothesisUnmet(
            "initial growth",
            f"L_n1 = {est.value:g} below 0.97 log lambda = {required:g}")
    return InitialScaleReport(theory_bound=theory_bound,
                              orbit_fraction=fraction, margin=margin)


# ---------------------------------------------------------------------------
# multiscale recursion


@dataclass(frozen=True)
class ScaleRow:
    n: int
    l_value: float
    std_error: float
    rho: float
    gate_margin: float
    gate_strict_ok: bool
    rho_admissible: bool
    drop: Optional[float]
    drop_bound: Optional[float]
    drop_margin: Optional[float]
    recursion_bound_ok: Optional[bool]


@dataclass(frozen=True)
class ScaleLadder:
    rows: Tuple[ScaleRow, ...]
    coupling: float
    log_norm_bound: float
    half_log_coupling: float
    half_log_ok: bool
    half_log_margin: float

    def to_json(self) -> dict:
        return {
            "lambda": self.coupling,
            "log_norm_bound": self.log_norm_bound,
            "half_log_lambda": self.half_log_coupling,
            "half_log_ok": self.half_log_ok,
            "half_log_margin": self.half_log_margin,
            "note": SCHEDULE_NOTE,
            "ladder": [
                {
                    "n": r.n,
                    "L": r.l_value,
                    "std_error": r.std_error,
                    "rho": r.rho,
                    # multiscale_recursion raises GateFailed on a failing gate.
                    "gate_ok": True,
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
                         schedule: Sequence[int], samples: int = 200,
                         seed: int = 0, energy: float = 0.0,
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
    if sched[0] < 2:
        # rho and the drop bound divide by sqrt(log n), which is 0 at n = 1.
        raise ValueError(f"every scale must be at least 2, got {sched[0]}")
    if lam <= 0:
        raise ValueError("coupling must be positive")
    v = v0.with_coupling(lam * v0.coupling)
    log1v = math.log(1.0 + v.coefficient_bound(0.0))
    log_lam = math.log(lam)
    quad = default_sampler(omega.dim).quadrature

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
            gate_margin=gate_margin,
            gate_strict_ok=gate_margin > STRICT_GATE_CONSTANT,
            rho_admissible=rho < 0.5,
            drop=drop, drop_bound=drop_bound, drop_margin=drop_margin,
            recursion_bound_ok=rec_ok))
        prev = (n, est, rho)

    half = 0.5 * log_lam
    max_se = max(r.std_error for r in rows)
    min_l = min(r.l_value for r in rows)
    half_log_ok = min_l > half + 3.0 * max_se
    return ScaleLadder(rows=tuple(rows), coupling=lam,
                       log_norm_bound=log1v, half_log_coupling=half,
                       half_log_ok=half_log_ok, half_log_margin=min_l - half)
