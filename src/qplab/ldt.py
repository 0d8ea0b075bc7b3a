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
from .lyapunov import _phi_values, lyapunov_n
from .model import Frequency, TrigPotential


@dataclass(frozen=True)
class DeviationProfile:
    """Estimated measure of the bad phase set at one scale."""

    n: int
    sigma: float
    threshold: float
    fraction: float
    samples: int
    std_error: float
    two_sided: bool


def _binomial_se(fraction: float, samples: int) -> float:
    return math.sqrt(fraction * (1.0 - fraction) / samples)


def deviation_measure(omega: Frequency, energy: float, n: int, sigma: float,
                      v: TrigPotential, samples: int = 10_000, seed: int = 0,
                      side: str = "both", general_form: bool = False,
                      l_reference: Optional[float] = None) -> DeviationProfile:
    """Monte Carlo fraction of theta with |phi(theta) - L_n| > n^{-sigma}.

    The strong one-frequency regime requires sigma in (0, 1/2]; pass
    ``general_form=True`` to accept any positive sigma (weaker tail claim).
    ``side`` selects "both", "above" or "below" deviations.
    """
    if samples < 1000:
        raise ValueError("measure estimation needs at least 1e3 samples")
    if sigma <= 0.0:
        raise SigmaOutOfRange(f"sigma must be positive, got {sigma}")
    if not general_form and omega.dim == 1 and sigma > 0.5:
        raise SigmaOutOfRange(
            f"sigma={sigma} outside (0, 1/2]; pass general_form=True for the weak bound"
        )
    if side not in ("both", "above", "below"):
        raise ValueError("side must be 'both', 'above' or 'below'")
    if l_reference is None:
        l_reference = lyapunov_n(omega, energy, n, v).value
    threshold = n ** (-sigma)
    rng = np.random.default_rng(seed)
    thetas = rng.random(samples) if omega.dim == 1 else rng.random((samples, 2))
    phi = _phi_values(omega, thetas, energy, n, v)
    dev = phi - l_reference
    if side == "both":
        hits = np.abs(dev) > threshold
    elif side == "above":
        hits = dev > threshold
    else:
        hits = -dev > threshold
    fraction = float(np.count_nonzero(hits)) / samples
    return DeviationProfile(n=n, sigma=sigma, threshold=threshold,
                            fraction=fraction, samples=samples,
                            std_error=_binomial_se(fraction, samples),
                            two_sided=side == "both")


@dataclass(frozen=True)
class LdtRow:
    profile: DeviationProfile
    bound_reference: float
    exceeds_bound: bool


@dataclass(frozen=True)
class LdtTable:
    rows: Tuple[LdtRow, ...]

    def fractions(self) -> np.ndarray:
        return np.array([r.profile.fraction for r in self.rows])


def ldt_scaling_table(omega: Frequency, energy: float, v: TrigPotential,
                      sigma: float, n_values: Sequence[int], samples: int,
                      seed: int = 0) -> LdtTable:
    """Bad-set fraction per scale next to the theoretical tail reference.

    The reference is exp(-n^(1-2 sigma)) for one frequency and exp(-n^sigma)
    for two; a row is flagged when the empirical fraction exceeds the
    reference by more than 3 binomial standard errors (expected only at
    small n).
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
        exceeds = prof.fraction > bound + 3.0 * prof.std_error
        rows.append(LdtRow(profile=prof, bound_reference=bound, exceeds_bound=exceeds))
    return LdtTable(rows=tuple(rows))


@dataclass(frozen=True)
class FourierDecay:
    """Fitted power-law exponent of |phi_hat(k)| (slope of the log-log fit)."""

    slope: Optional[float]
    perfect: bool               # all tested coefficients at numerical zero
    k_max: int
    grid: int
    coefficients: np.ndarray    # |phi_hat(k)| for k = 1..k_max

    def __post_init__(self):
        object.__setattr__(self, "coefficients",
                           np.asarray(self.coefficients, dtype=float))


def fourier_decay_check(omega: Frequency, energy: float, n: int,
                        v: TrigPotential, k_max: int,
                        grid: int = 8192) -> FourierDecay:
    """DFT the pointwise exponent on a dense grid and fit log|phi_hat| vs log k."""
    if omega.dim != 1:
        raise ValueError("Fourier decay check is 1-frequency only")
    if k_max > grid // 4:
        raise ValueError("k_max must be at most grid/4")
    thetas = np.arange(grid) / grid
    phi = _phi_values(omega, thetas, energy, n, v)
    coef = np.abs(np.fft.rfft(phi)) / grid
    mags = coef[1:k_max + 1]
    floor = 1e-13 * max(1.0, float(coef[0]))
    live = mags > floor
    if np.count_nonzero(live) < 2:
        return FourierDecay(slope=None, perfect=True, k_max=k_max, grid=grid,
                            coefficients=mags)
    ks = np.arange(1, k_max + 1)[live]
    slope = float(np.polyfit(np.log(ks), np.log(mags[live]), 1)[0])
    return FourierDecay(slope=slope, perfect=False, k_max=k_max, grid=grid,
                        coefficients=mags)
