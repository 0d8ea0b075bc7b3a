"""Large-deviation experiments for the pointwise exponent.

Measures the phase set where (1/n) log ||M_n|| strays from L_n by more than
n^{-sigma}, tabulates how that bad fraction shrinks with n, and fits the
power-law decay of Fourier coefficients of the pointwise exponent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import SigmaOutOfRange
from .lyapunov import lyapunov_n
from .model import Frequency, TrigPotential
from .transfer import cocycle_batch


@dataclass(frozen=True)
class DeviationProfile:
    """Estimated measure of the bad phase set at one scale."""

    n: int
    sigma: float
    threshold: float
    fraction: float
    std_error: float


def deviation_measure(omega: Frequency, energy: float, n: int, sigma: float,
                      v: TrigPotential, samples: int = 10_000,
                      seed: int = 0) -> DeviationProfile:
    """Monte Carlo fraction of theta with |phi(theta) - L_n| > n^{-sigma}.

    phi(theta) = (1/n) log ||M_n(theta)|| and L_n is ``lyapunov_n`` at the
    same energy; deviations on both sides count.  One frequency requires
    sigma in (0, 1/2], the strong regime; two frequencies accept any
    positive sigma.
    """
    if samples < 1000:
        raise ValueError("measure estimation needs at least 1e3 samples")
    if sigma <= 0.0:
        raise SigmaOutOfRange(f"sigma must be positive, got {sigma}")
    if omega.dim == 1 and sigma > 0.5:
        raise SigmaOutOfRange(f"sigma={sigma} outside (0, 1/2]")
    l_n = lyapunov_n(omega, energy, n, v).value
    threshold = n ** (-sigma)
    rng = np.random.default_rng(seed)
    thetas = rng.random(samples) if omega.dim == 1 else rng.random((samples, 2))
    phi = cocycle_batch(omega, thetas, energy, n, v) / n
    fraction = float(np.count_nonzero(np.abs(phi - l_n) > threshold)) / samples
    return DeviationProfile(
        n=n, sigma=sigma, threshold=threshold, fraction=fraction,
        std_error=math.sqrt(fraction * (1.0 - fraction) / samples))


@dataclass(frozen=True)
class LdtRow:
    profile: DeviationProfile
    bound_reference: float


def ldt_scaling_table(omega: Frequency, energy: float, v: TrigPotential,
                      sigma: float, n_values: Sequence[int], samples: int,
                      seed: int = 0) -> Tuple[LdtRow, ...]:
    """Bad-set fraction per scale next to the theoretical tail reference.

    The reference is exp(-n^(1-2 sigma)) for one frequency and exp(-n^sigma)
    for two.  Scale i draws its phases with seed ``seed + i``.
    """
    ns = [int(n) for n in n_values]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("n values must be increasing")
    rows = []
    for i, n in enumerate(ns):
        prof = deviation_measure(omega, energy, n, sigma, v, samples=samples,
                                 seed=seed + i)
        if omega.dim == 1:
            bound = math.exp(-(n ** (1.0 - 2.0 * sigma)))
        else:
            bound = math.exp(-(n ** sigma))
        rows.append(LdtRow(profile=prof, bound_reference=bound))
    return tuple(rows)


@dataclass(frozen=True)
class FourierDecay:
    """Fitted power-law exponent of |phi_hat(k)| (slope of the log-log fit);
    ``slope`` is None when all tested coefficients are at numerical zero."""

    slope: Optional[float]
    coefficients: np.ndarray    # |phi_hat(k)| for k = 1..k_max


def fourier_decay_check(omega: Frequency, energy: float, n: int,
                        v: TrigPotential, k_max: int) -> FourierDecay:
    """DFT the pointwise exponent on 8192 equispaced phases and fit
    log|phi_hat| vs log k."""
    if omega.dim != 1:
        raise ValueError("Fourier decay check is 1-frequency only")
    grid = 8192
    if k_max > grid // 4:
        raise ValueError(f"k_max must be at most {grid // 4}")
    thetas = np.arange(grid) / grid
    phi = cocycle_batch(omega, thetas, energy, n, v) / n
    coef = np.abs(np.fft.rfft(phi)) / grid
    mags = coef[1:k_max + 1]
    floor = 1e-13 * max(1.0, float(coef[0]))
    live = mags > floor
    if np.count_nonzero(live) < 2:
        return FourierDecay(slope=None, coefficients=mags)
    ks = np.arange(1, k_max + 1)[live]
    slope = float(np.polyfit(np.log(ks), np.log(mags[live]), 1)[0])
    return FourierDecay(slope=slope, coefficients=mags)
