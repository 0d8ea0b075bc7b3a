"""Finite-box localization diagnostics.

Eigenvectors of large boxes in the localized regime decay exponentially from
a center; this module profiles that decay, scans for box resonances of a
given energy, checks the window inequality that converts Green's-function
decay into eigenfunction decay, and searches for orbit shifts with two-sided
cocycle growth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import slog
from .errors import SingularEnergy
from .greens import (DEFAULT_DET_FLOOR, _scipy_linalg, build_operator,
                     green_solve)
from .lyapunov import lyapunov_n
from .model import Frequency, TrigPotential
from .transfer import _phases, cocycle_batch


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and unit eigenvector of a finite box."""

    energy: float
    vector: np.ndarray
    interval: Tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "vector", np.asarray(self.vector, dtype=float))
        object.__setattr__(self, "interval",
                           (int(self.interval[0]), int(self.interval[1])))

    def sites(self) -> np.ndarray:
        return np.arange(self.interval[0], self.interval[1] + 1)

    def residual(self, op) -> float:
        d = op.diagonal - self.energy
        r = d * self.vector
        r[:-1] += self.vector[1:]
        r[1:] += self.vector[:-1]
        return float(np.linalg.norm(r))


def eigensystem(interval: Tuple[int, int], omega: Frequency, theta,
                v: TrigPotential) -> List[EigenPair]:
    """Full eigendecomposition of the box operator, energies ascending."""
    op = build_operator(interval, omega, theta, v)
    n = op.size
    if n == 1:
        return [EigenPair(float(op.diagonal[0]), np.ones(1), op.interval)]
    off = np.ones(n - 1)
    vals, vecs = _scipy_linalg().eigh_tridiagonal(op.diagonal, off)
    return [EigenPair(float(vals[k]), vecs[:, k], op.interval) for k in range(n)]


@dataclass(frozen=True)
class DecayProfile:
    """Exponential-decay fit of |xi| away from its peak."""

    center: int
    rate: float
    r2: float
    tail_mass: float


def decay_profile(pair: EigenPair, core_radius: int = 5,
                  tail_radius: int = 50,
                  floor: float = 1e-14) -> DecayProfile:
    """Fit log|xi_k| against distance from the peak, outside a small core.

    Components at or below ``floor`` are eigensolver noise and are excluded.
    ``tail_mass`` is the l2 mass beyond ``tail_radius`` of the center.
    """
    absxi = np.abs(pair.vector)
    sites = pair.sites()
    center = int(sites[int(np.argmax(absxi))])
    dist = np.abs(sites - center)
    tail = float(np.sqrt(np.sum(absxi[dist > tail_radius] ** 2)))
    mask = (absxi > floor) & (dist > core_radius)
    if np.count_nonzero(mask) < 2:
        return DecayProfile(center=center, rate=0.0, r2=0.0, tail_mass=tail)
    x = dist[mask].astype(float)
    y = np.log(absxi[mask])
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    ss_res = float(np.sum((y - pred) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 1e-12 else 0.0
    return DecayProfile(center=center, rate=max(0.0, -float(slope)),
                        r2=r2, tail_mass=tail)


def localization_scan(interval: Tuple[int, int], omega: Frequency, theta,
                      v: TrigPotential, rate_threshold: float,
                      r2_threshold: float = 0.95,
                      core_radius: int = 5, tail_radius: int = 50) -> dict:
    """Box-wide summary: fraction of well-localized eigenvectors and median rate."""
    pairs = eigensystem(interval, omega, theta, v)
    profiles = [decay_profile(p, core_radius, tail_radius) for p in pairs]
    return localization_summary(interval, v, profiles, rate_threshold,
                                r2_threshold)


def localization_summary(interval: Tuple[int, int], v: TrigPotential,
                         profiles: Sequence[DecayProfile],
                         rate_threshold: float,
                         r2_threshold: float = 0.95) -> dict:
    """`localization_scan` of the box's eigenvector profiles, already fitted."""
    rates = np.array([p.rate for p in profiles])
    good = np.array([p.rate >= rate_threshold and p.r2 >= r2_threshold
                     for p in profiles])
    return {
        "box": list(interval),
        "lambda": v.coupling,
        "pct_localized": 100.0 * float(np.mean(good)),
        "median_rate": float(np.median(rates)),
        "rate_threshold": rate_threshold,
        "r2_threshold": r2_threshold,
        "count": len(profiles),
    }


def resonance_scan(omega: Frequency, energy: float, n0_max: int,
                   threshold_base: float, v: TrigPotential, reference_n: int,
                   theta=0.0,
                   det_floor: float = DEFAULT_DET_FLOOR) -> Optional[int]:
    """First half-width n0 whose box [-n0, n0] has ||G||_HS above base^reference_n."""
    if n0_max < 1:
        raise ValueError("n0_max must be >= 1")
    if threshold_base <= 1.0:
        raise ValueError("threshold base must exceed 1")
    log_thresh = reference_n * math.log(threshold_base)
    th = theta if omega.dim == 2 else float(np.asarray(theta).reshape(()))
    for n0 in range(1, n0_max + 1):
        try:
            g = green_solve((-n0, n0), omega, th, energy, v, det_floor)
        except SingularEnergy:
            return n0
        log_hs = 0.5 * slog.logsumexp_mags(2.0 * g.logs[g.signs != 0])
        if log_hs > log_thresh:
            return n0
    return None


@dataclass(frozen=True)
class WindowBoundReport:
    """Outcome of the window inequality on [N/2, 2N] for one eigenpair."""

    ok: bool
    margin: float               # min over the window of bound - |xi|
    peak_value: float           # |xi_N|
    peak_bound: float           # exp(-(delta/3) N)
    peak_ok: bool
    window: Tuple[int, int]


def window_bound_check(pair: EigenPair, big_n: int, omega: Frequency, theta,
                       delta: float, v: TrigPotential,
                       det_floor: float = DEFAULT_DET_FLOOR) -> WindowBoundReport:
    """Check |xi_k| <= |G(k, N/2)||xi_{N/2-1}| + |G(k, 2N)||xi_{2N+1}| on [N/2, 2N].

    Restricting the eigenvalue equation to the window leaves only the two
    edge couplings on the right-hand side, so for an exact eigenvector the
    bound holds with equality structure; an additive allowance proportional
    to the numerical eigen-residual keeps finite-precision vectors from
    reporting spurious violations.  Also reports whether the midpoint value
    |xi_N| clears exp(-(delta/3) N).
    """
    lo, hi = big_n // 2, 2 * big_n
    a, b = pair.interval
    if not (a <= lo - 1 and b >= hi + 1):
        raise ValueError("eigenvector box must contain [N/2 - 1, 2N + 1]")
    g = green_solve((lo, hi), omega, theta, pair.energy, v, det_floor)

    sites = pair.sites()
    xi = pair.vector
    idx = {s: i for s, i in zip(sites, range(len(sites)))}
    xi_lo = abs(xi[idx[lo - 1]])
    xi_hi = abs(xi[idx[hi + 1]])
    win = slice(idx[lo], idx[hi] + 1)
    xi_win = np.abs(xi[win])

    with np.errstate(over="ignore"):
        g_left = np.exp(g.logs[:, 0])
        g_right = np.exp(g.logs[:, -1])
    bound = g_left * xi_lo + g_right * xi_hi

    # Numerical allowance: ||G row||_2 times the eigen-residual on the window.
    op_big = build_operator(pair.interval, omega, theta, v)
    d = op_big.diagonal - pair.energy
    r = d * xi
    r[:-1] += xi[1:]
    r[1:] += xi[:-1]
    r_win_norm = float(np.linalg.norm(r[win])) + 1e-15
    row_log = 0.5 * slog.logsumexp_mags(2.0 * g.logs, axis=1)
    with np.errstate(over="ignore"):
        allowance = np.exp(row_log) * r_win_norm

    slack = bound + allowance - xi_win
    margin = float(np.min(slack))
    peak = float(xi_win[idx[big_n] - idx[lo]])
    peak_bound = math.exp(-(delta / 3.0) * big_n)
    return WindowBoundReport(ok=bool(np.all(slack >= -1e-15)), margin=margin,
                             peak_value=peak, peak_bound=peak_bound,
                             peak_ok=peak <= peak_bound, window=(lo, hi))


@dataclass(frozen=True)
class GrowthPairSearch:
    """First orbit shift in (J, 2J] with two-sided near-average growth."""

    j: Optional[int]
    tolerance: float
    reference: float            # L_{n1} used as the target
    forward: np.ndarray         # per-shift exponent at phase j*omega
    backward: np.ndarray        # per-shift exponent at phase (-j - n1)*omega
    average: float              # mean of the summed pair over the scanned range


def growth_pair_search(omega: Frequency, energy: float, n1: int, J: int,
                       v: TrigPotential, tolerance: float = 0.1,
                       l_reference: Optional[float] = None) -> GrowthPairSearch:
    """Scan j in (J, 2J] for simultaneous growth of both shifted cocycles."""
    if J < 1:
        raise ValueError("J must be >= 1")
    if l_reference is None:
        l_reference = lyapunov_n(omega, energy, n1, v).value
    js = np.arange(J + 1, 2 * J + 1)
    fwd_thetas = _phases(0.0 if omega.dim == 1 else np.zeros(2), omega, js)
    bwd_thetas = _phases(0.0 if omega.dim == 1 else np.zeros(2), omega, -js - n1)
    fwd = cocycle_batch(omega, fwd_thetas, energy, n1, v) / n1
    bwd = cocycle_batch(omega, bwd_thetas, energy, n1, v) / n1
    hit = (np.abs(fwd - l_reference) <= tolerance) & \
          (np.abs(bwd - l_reference) <= tolerance)
    j_found = int(js[np.argmax(hit)]) if hit.any() else None
    return GrowthPairSearch(j=j_found, tolerance=tolerance,
                            reference=l_reference, forward=fwd, backward=bwd,
                            average=float(np.mean(fwd + bwd)))
