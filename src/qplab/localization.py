"""Finite-box localization diagnostics.

Eigenvectors of large boxes in the localized regime decay exponentially from
a center; this module profiles that decay and checks the window inequality
that converts Green's-function decay into eigenfunction decay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from . import slog
from .greens import _scipy_linalg, green_solve
from .model import Frequency, TrigPotential
from .transfer import box_diagonal


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalue and unit eigenvector of a finite box."""

    energy: float
    vector: np.ndarray
    interval: Tuple[int, int]

    def sites(self) -> np.ndarray:
        return np.arange(self.interval[0], self.interval[1] + 1)


def eigensystem(interval: Tuple[int, int], omega: Frequency, theta,
                v: TrigPotential) -> List[EigenPair]:
    """Full eigendecomposition of the box operator, energies ascending."""
    diag = box_diagonal(interval, omega, theta, v)
    n = diag.size
    if n == 1:
        return [EigenPair(float(diag[0]), np.ones(1), interval)]
    off = np.ones(n - 1)
    vals, vecs = _scipy_linalg().eigh_tridiagonal(diag, off)
    return [EigenPair(float(vals[k]), vecs[:, k], interval) for k in range(n)]


@dataclass(frozen=True)
class DecayProfile:
    """Exponential-decay fit of |xi| away from its peak."""

    center: int
    rate: float
    r2: float
    tail_mass: float


def decay_profile(pair: EigenPair) -> DecayProfile:
    """Fit log|xi_k| against distance from the peak, beyond 5 sites of it.

    Components at or below 1e-14 are eigensolver noise and are excluded.
    ``tail_mass`` is the l2 mass more than 50 sites from the center.
    """
    absxi = np.abs(pair.vector)
    sites = pair.sites()
    center = int(sites[int(np.argmax(absxi))])
    dist = np.abs(sites - center)
    tail = float(np.sqrt(np.sum(absxi[dist > 50] ** 2)))
    mask = (absxi > 1e-14) & (dist > 5)
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


def localization_summary(interval: Tuple[int, int], v: TrigPotential,
                         profiles: Sequence[DecayProfile],
                         rate_threshold: float,
                         r2_threshold: float = 0.95) -> dict:
    """Box-wide summary: fraction of well-localized eigenvectors and median rate."""
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


@dataclass(frozen=True)
class WindowBoundReport:
    """Outcome of the window inequality on [N/2, 2N] for one eigenpair."""

    ok: bool
    margin: float               # min over the window of bound - |xi|
    peak_value: float           # |xi_N|
    peak_bound: float           # exp(-(delta/3) N)
    peak_ok: bool


def window_bound_check(pair: EigenPair, big_n: int, omega: Frequency, theta,
                       delta: float, v: TrigPotential) -> WindowBoundReport:
    """Check |xi_k| <= |G(k, N/2)||xi_{N/2-1}| + |G(k, 2N)||xi_{2N+1}| on [N/2, 2N].

    Restricting the eigenvalue equation to the window leaves only the two
    edge couplings on the right-hand side, so for an exact eigenvector the
    bound holds with equality structure; an additive allowance proportional
    to the numerical eigen-residual keeps finite-precision vectors from
    reporting spurious violations.  Also reports whether the midpoint value
    |xi_N| clears exp(-(delta/3) N).
    """
    lo, hi = big_n // 2, 2 * big_n
    a, b = (int(s) for s in pair.interval)
    if not (a <= lo - 1 and b >= hi + 1):
        raise ValueError("eigenvector box must contain [N/2 - 1, 2N + 1]")
    g = green_solve((lo, hi), omega, theta, pair.energy, v)

    xi = pair.vector
    xi_lo = abs(xi[lo - 1 - a])
    xi_hi = abs(xi[hi + 1 - a])
    win = slice(lo - a, hi + 1 - a)
    xi_win = np.abs(xi[win])

    with np.errstate(over="ignore"):
        g_left = np.exp(g.logs[:, 0])
        g_right = np.exp(g.logs[:, -1])
    bound = g_left * xi_lo + g_right * xi_hi

    # Numerical allowance: ||G row||_2 times the eigen-residual on the window.
    d = box_diagonal(pair.interval, omega, theta, v) - pair.energy
    r = d * xi
    r[:-1] += xi[1:]
    r[1:] += xi[:-1]
    r_win_norm = float(np.linalg.norm(r[win])) + 1e-15
    row_log = 0.5 * slog.add(np.abs(g.signs.T), 2 * g.logs.T)[1]
    with np.errstate(over="ignore"):
        allowance = np.exp(row_log) * r_win_norm

    slack = bound + allowance - xi_win
    margin = float(np.min(slack))
    peak = float(xi_win[big_n - lo])
    peak_bound = math.exp(-(delta / 3.0) * big_n)
    return WindowBoundReport(ok=bool(np.all(slack >= -1e-15)), margin=margin,
                             peak_value=peak, peak_bound=peak_bound,
                             peak_ok=peak <= peak_bound)
