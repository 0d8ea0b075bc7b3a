"""Finite-scale Lyapunov exponents: phase averages of cocycle growth.

L_n(E) is the theta-average of (1/n) log ||M_n(theta)||.  It is subadditive
in n, so the sequence decreases (along divisors) to the Lyapunov exponent,
and the whole graph of theta -> (1/n) log ||M_n|| stays within a power-law
neighborhood of L_n from above; `check_subadditivity` and
`upper_bound_check` test both at finite scale.
"""

from __future__ import annotations

import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .model import Frequency, TrigPotential
from .transfer import cocycle_batch

# sigma of the upper-bound check, for one and for two frequencies.
SIGMA_1D = 1.0 / 3.0
SIGMA_2D = 0.1
_CHUNK = 1 << 15
# Results per worker below which a batch is not split: numpy's per-block
# overhead holds the interpreter lock, so smaller parts run slower on threads.
# Two workers on two cores (5 cos, n = 400): 8192 results took 25 ms against
# 20 ms on one thread, 16384 took 33 ms against 39 ms.
_SPLIT_FLOOR = 1 << 13
# Worker threads a phase batch may use; None means every CPU this process
# may run on.  ``cli.run`` sets it from ``--threads`` for the run.
THREADS: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
    "qplab_threads", default=None)


def thread_cap() -> int:
    """The worker cap in force: ``THREADS``, else the CPUs this process may use."""
    cap = THREADS.get()
    if cap is not None:
        return cap
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SamplerSpec:
    """How to sample theta for phase averages.

    quadrature "grid" uses an equispaced (product) grid; "monte_carlo" draws
    stratified uniform samples.  ``samples=None`` picks the dimension default:
    max(4096, 8n) grid points for d=1, 4096 stratified points for d=2.
    """

    quadrature: str = "grid"
    samples: Optional[int] = None
    seed: int = 0

    def resolve_samples(self, dim: int, n: int) -> int:
        if self.samples is not None:
            return int(self.samples)
        if dim == 1:
            return max(4096, 8 * n)
        return 4096


def default_sampler(dim: int) -> SamplerSpec:
    return SamplerSpec(quadrature="grid" if dim == 1 else "monte_carlo")


def theta_samples(dim: int, sampler: SamplerSpec, n: int) -> np.ndarray:
    m = sampler.resolve_samples(dim, n)
    if sampler.quadrature == "grid":
        if dim == 1:
            return (np.arange(m) + 0.5) / m
        side = max(2, int(round(math.sqrt(m))))
        g = (np.arange(side) + 0.5) / side
        return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    if sampler.quadrature != "monte_carlo":
        raise ValueError(f"unknown quadrature {sampler.quadrature!r}")
    rng = np.random.default_rng(sampler.seed)
    if dim == 1:
        return rng.random(m)
    # Stratified: jitter inside the cells of the largest square grid that
    # fits, then top up uniformly.
    side = int(math.sqrt(m))
    cells = side * side
    g = np.stack(np.meshgrid(np.arange(side), np.arange(side),
                             indexing="ij"), axis=-1).reshape(-1, 2)
    pts = (g + rng.random((cells, 2))) / side
    extra = rng.random((m - cells, 2))
    return np.concatenate([pts, extra], axis=0)


@dataclass(frozen=True)
class LyapunovEstimate:
    """theta-averaged finite-scale exponent with its sampling error."""

    n: int
    value: float
    samples: int
    std_error: float
    quadrature: str
    energy: float = 0.0


def _phi_values(omega: Frequency, thetas: np.ndarray, energy, n: int,
                v: TrigPotential) -> np.ndarray:
    """(1/n) log ||M_n|| over a batch, cut into equal parts along the phases.

    ``energy`` is a scalar, one energy per phase, or an (E, 1) column that
    runs every phase at every energy and gives an (E, B) table.

    A batch of at least ``_SPLIT_FLOOR`` results per worker runs on a thread
    pool of up to ``thread_cap()`` workers, each running one part at a time
    (numpy releases the interpreter lock in its loops); smaller batches run in
    the calling thread.  At most ``_CHUNK`` results are in flight at once.  Each
    phase's result does not depend on the part it runs in, so the output has
    the same bits at every thread count.  The pool is shut down before the
    call returns.
    """
    total = thetas.shape[0]
    e_arr = np.asarray(energy, dtype=float)
    out = np.empty(np.broadcast_shapes(e_arr.shape, (total,)))
    per_phase = max(1, e_arr.shape[0] if e_arr.ndim == 2 else 1)
    workers = max(1, min(thread_cap(), out.size // _SPLIT_FLOOR, total))
    step = max(1, _CHUNK // (per_phase * workers))
    chunks = -(-total // step)
    # Rounded up to a multiple of the workers so that they finish together.
    parts = min(total, -(-chunks // workers) * workers)

    def run_part(k):
        lo, hi = total * k // parts, total * (k + 1) // parts
        e_part = e_arr[lo:hi] if e_arr.ndim == 1 else e_arr
        out[..., lo:hi] = cocycle_batch(omega, thetas[lo:hi], e_part, n, v) / n

    if workers == 1:
        for k in range(parts):
            run_part(k)
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_part, range(parts)))
    return out


def _std_error(phi: np.ndarray) -> float:
    """Standard error of the mean; NaN for one sample, whose spread is unknown."""
    m = phi.shape[0]
    return float(np.std(phi, ddof=1) / math.sqrt(m)) if m > 1 else math.nan


def lyapunov_n(omega: Frequency, energy: float, n: int, v: TrigPotential,
               sampler: Optional[SamplerSpec] = None) -> LyapunovEstimate:
    """Estimate L_n(E) by the configured phase quadrature."""
    return lyapunov_scan(omega, [energy], n, v, sampler)[0]


def lyapunov_scan(omega: Frequency, energies: Sequence[float], n: int,
                  v: TrigPotential,
                  sampler: Optional[SamplerSpec] = None) -> List[LyapunovEstimate]:
    """L_n over an energy grid.

    The energies run as one (E, 1) column against the sampled phases, so the
    potential along each phase's orbit is evaluated once for all of them.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    sampler = sampler or default_sampler(omega.dim)
    thetas = theta_samples(omega.dim, sampler, n)
    energies = np.asarray(list(energies), dtype=float)
    phi = _phi_values(omega, thetas, energies[:, np.newaxis], n, v)
    return [LyapunovEstimate(n=n, value=float(np.mean(row)),
                             samples=row.shape[0], std_error=_std_error(row),
                             quadrature=sampler.quadrature, energy=float(e))
            for e, row in zip(energies, phi)]


@dataclass(frozen=True)
class SubadditivityReport:
    residual: float             # L_{n1+n2} minus the weighted mean
    tolerance: float            # 3 combined standard errors


def check_subadditivity(omega: Frequency, energy: float, n1: int, n2: int,
                        v: TrigPotential,
                        sampler: Optional[SamplerSpec] = None) -> SubadditivityReport:
    """L_{n1+n2} must not exceed the step-weighted mean of L_{n1}, L_{n2}."""
    if n1 < 1 or n2 < 1:
        raise ValueError("both block lengths must be >= 1")
    est1 = lyapunov_n(omega, energy, n1, v, sampler)
    est2 = lyapunov_n(omega, energy, n2, v, sampler)
    est12 = lyapunov_n(omega, energy, n1 + n2, v, sampler)
    w1 = n1 / (n1 + n2)
    w2 = n2 / (n1 + n2)
    residual = est12.value - (w1 * est1.value + w2 * est2.value)
    combined = math.sqrt(est12.std_error ** 2 + (w1 * est1.std_error) ** 2
                         + (w2 * est2.std_error) ** 2)
    tolerance = 3.0 * combined + 1e-9
    return SubadditivityReport(residual=residual, tolerance=tolerance)


@dataclass(frozen=True)
class UpperBoundReport:
    """Largest excess of the pointwise exponent above L_n over a phase grid."""

    max_excess: float
    reference: float          # C * n^{-sigma} with C = 2 log(1 + sup|v| + |E|)
    margin: float             # reference - max_excess


def upper_bound_check(omega: Frequency, energy: float, n: int, v: TrigPotential,
                      grid: int = 4096) -> UpperBoundReport:
    sigma = SIGMA_1D if omega.dim == 1 else SIGMA_2D
    ref_est = lyapunov_n(omega, energy, n, v)
    probe = SamplerSpec(quadrature="grid", samples=grid)
    thetas = theta_samples(omega.dim, probe, n)
    phi = _phi_values(omega, thetas, energy, n, v)
    excess = float(np.max(phi - ref_est.value))
    const = 2.0 * math.log(1.0 + v.coefficient_bound(0.0) + abs(energy))
    reference = const * n ** (-sigma)
    return UpperBoundReport(max_excess=excess, reference=reference,
                            margin=reference - excess)
