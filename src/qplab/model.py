"""Core domain types: torus frequencies and trigonometric potentials.

Conventions: the torus is [0,1)^d and a wave index k contributes the phase
exp(2*pi*i*k.theta), so "cos theta" means cos(2*pi*theta) internally.
Frequencies, phases and potential arguments are always in these angle units.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Tuple, Union

import numpy as np

from .errors import StripExceeded

GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
TWO_PI = 2.0 * math.pi

KVec = Tuple[int, ...]


# ---------------------------------------------------------------------------
# frequencies


@dataclass(frozen=True)
class Frequency:
    """A point of the torus with diophantine parameters (A, c)."""

    components: Tuple[float, ...]
    dio_A: float = 2.0
    dio_c: float = 0.1

    def __post_init__(self):
        comps = tuple(float(c) for c in self.components)
        object.__setattr__(self, "components", comps)
        if not all(0.0 <= c < 1.0 for c in comps):
            raise ValueError("frequency components must lie in [0,1)")
        if self.dio_A < 1.0:
            raise ValueError("diophantine exponent must be >= 1")
        if self.dio_c <= 0.0:
            raise ValueError("diophantine constant must be > 0")
        if len(comps) not in (1, 2):
            raise ValueError("only d=1 and d=2 are supported")

    @property
    def dim(self) -> int:
        return len(self.components)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.components, dtype=float)

    def scalar(self) -> float:
        if self.dim != 1:
            raise ValueError("scalar frequency requested for d>1")
        return self.components[0]


def golden_frequency(dio_A: float = 2.0, dio_c: float = 0.2) -> Frequency:
    return Frequency((GOLDEN_MEAN,), dio_A, dio_c)


def two_torus_frequency(dio_A: float = 4.0, dio_c: float = 0.01) -> Frequency:
    return Frequency((math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0), dio_A, dio_c)


def _torus_dist(x: np.ndarray) -> np.ndarray:
    frac = x % 1.0
    return np.minimum(frac, 1.0 - frac)


def verify_diophantine(freq: Frequency, horizon: int):
    """Scan all 0 < |k| <= horizon; return the largest violating k, or None.

    Uses the sup norm for |k|.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if freq.dim == 1:
        k = np.arange(1, horizon + 1)
        dist = _torus_dist(k * freq.components[0])
        bad = dist <= freq.dio_c * k.astype(float) ** (-freq.dio_A)
        if bad.any():
            return int(k[bad][-1])
    else:
        w1, w2 = freq.components
        # Half lattice: ||k.w|| is even under k -> -k.
        k1 = np.arange(0, horizon + 1)
        k2 = np.arange(-horizon, horizon + 1)
        K1, K2 = np.meshgrid(k1, k2, indexing="ij")
        mask = (K1 > 0) | ((K1 == 0) & (K2 > 0))
        K1, K2 = K1[mask], K2[mask]
        norm = np.maximum(np.abs(K1), np.abs(K2)).astype(float)
        dist = _torus_dist(K1 * w1 + K2 * w2)
        bad = dist <= freq.dio_c * norm ** (-freq.dio_A)
        if bad.any():
            worst = np.argmax(np.where(bad, norm, -1.0))
            return (int(K1[worst]), int(K2[worst]))
    return None


# ---------------------------------------------------------------------------
# potentials


@dataclass(frozen=True)
class StripNorm:
    """Coefficient upper bound and grid-refined sup estimate on a strip."""

    bound: float
    estimate: float


def _canon_key(k, dim: int) -> KVec:
    if dim == 1 and isinstance(k, (int, np.integer)):
        return (int(k),)
    t = tuple(int(ki) for ki in k)
    if len(t) != dim:
        raise ValueError(f"coefficient index {k!r} has wrong dimension")
    return t


def _positive_half(k: KVec) -> bool:
    for ki in k:
        if ki > 0:
            return True
        if ki < 0:
            return False
    return False


@dataclass(frozen=True)
class TrigPotential:
    """Real trigonometric polynomial lambda * v0 given by Fourier coefficients.

    ``coeffs`` maps integer wave vectors to complex amplitudes of the bare
    potential v0; ``coupling`` is the multiplicative strength applied to every
    evaluation.  Coefficients must be conjugate-symmetric so values on the
    real torus are real.
    """

    dim: int
    coeffs: Mapping[Union[int, KVec], complex]
    strip_width: float = 1.0
    coupling: float = 1.0

    _k_all: np.ndarray = field(init=False, repr=False, compare=False)
    _c_all: np.ndarray = field(init=False, repr=False, compare=False)
    _k_half: np.ndarray = field(init=False, repr=False, compare=False)
    _a_half: np.ndarray = field(init=False, repr=False, compare=False)
    _b_half: np.ndarray = field(init=False, repr=False, compare=False)
    _c0: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only d=1 and d=2 potentials are supported")
        if self.strip_width <= 0:
            raise ValueError("strip width must be positive")
        canon = {}
        for k, c in self.coeffs.items():
            canon[_canon_key(k, self.dim)] = complex(c)
        zero = (0,) * self.dim
        c0 = canon.get(zero, 0.0 + 0.0j)
        if abs(c0.imag) > 1e-12 * (1.0 + abs(c0)):
            raise ValueError("constant coefficient must be real")
        for k, c in canon.items():
            if k == zero:
                continue
            mk = tuple(-ki for ki in k)
            cm = canon.get(mk)
            if cm is None or abs(cm - c.conjugate()) > 1e-12 * (1.0 + abs(c)):
                raise ValueError(f"coefficients not conjugate-symmetric at k={k}")
        object.__setattr__(self, "coeffs", dict(canon))
        keys = sorted(canon.keys())
        object.__setattr__(self, "_k_all",
                           np.array(keys, dtype=float).reshape(len(keys), self.dim))
        object.__setattr__(self, "_c_all",
                           np.array([canon[k] for k in keys], dtype=complex))
        half = [k for k in keys if _positive_half(k)]
        object.__setattr__(self, "_k_half",
                           np.array(half, dtype=float).reshape(len(half), self.dim))
        ch = np.array([canon[k] for k in half], dtype=complex)
        object.__setattr__(self, "_a_half", 2.0 * ch.real)
        object.__setattr__(self, "_b_half", -2.0 * ch.imag)
        object.__setattr__(self, "_c0", float(c0.real))

    @property
    def degree(self) -> int:
        if self._k_all.size == 0:
            return 0
        return int(np.max(np.abs(self._k_all)))

    def is_constant(self) -> bool:
        return self._k_half.size == 0 or bool(np.all(self._a_half == 0.0)
                                              and np.all(self._b_half == 0.0))

    def with_coupling(self, coupling: float) -> "TrigPotential":
        return replace(self, coupling=float(coupling))

    # -- evaluation on the real torus

    def eval_batch(self, thetas) -> np.ndarray:
        """Evaluate at points of shape (..., d) (or (...,) when d=1).

        Sums c0 + a_k cos + b_k sin harmonic by harmonic, skipping zero
        halves, so a cosine-only potential never computes a sine.
        """
        th = np.asarray(thetas, dtype=float)
        shape = th.shape if self.dim == 1 else th.shape[:-1]
        val = np.full(shape, self._c0)
        if self.dim == 1:
            angs = (TWO_PI * (th * k) for k in self._k_half[:, 0])
        else:
            table = TWO_PI * (th @ self._k_half.T)
            angs = (table[..., h] for h in range(table.shape[-1]))
        for ang, a, b in zip(angs, self._a_half, self._b_half):
            if a:
                val += a * np.cos(ang)
            if b:
                val += b * np.sin(ang)
        return self.coupling * val

    def coefficient_bound(self, rho: float = 0.0) -> float:
        """Upper bound sum |v_k| exp(2 pi |k|_1 rho) for |v| on |Im z_j| <= rho."""
        k1 = np.sum(np.abs(self._k_all), axis=1)
        return abs(self.coupling) * float(
            np.sum(np.abs(self._c_all) * np.exp(TWO_PI * k1 * rho)))

    def eval_complex_batch(self, zs) -> np.ndarray:
        """Analytic continuation at complex points of shape (..., d)."""
        z = np.asarray(zs, dtype=complex)
        if self.dim == 1:
            z = z[..., np.newaxis]
        if np.any(np.abs(z.imag) >= self.strip_width / 10.0):
            raise StripExceeded(
                f"|Im z| must stay below strip_width/10 = {self.strip_width / 10.0:g}"
            )
        if self._k_all.size == 0:
            return np.broadcast_to(self.coupling * complex(self._c0),
                                   z.shape[:-1]).astype(complex).copy()
        phase = np.exp(2j * np.pi * (z @ self._k_all.T.astype(complex)))
        return self.coupling * (phase @ self._c_all)


def strip_norm(v: TrigPotential, rho_eff: Optional[float] = None,
               grid: int = 512) -> StripNorm:
    """Sup of |v| over the strip |Im z_j| <= rho_eff.

    Returns the coefficient bound sum |v_k| exp(2 pi |k|_1 rho_eff) together
    with a boundary-grid estimate refined until stable to 0.1%; the bound
    always dominates the estimate.
    """
    if rho_eff is None:
        rho_eff = v.strip_width / 10.0
    if rho_eff < 0:
        raise ValueError("rho_eff must be >= 0")
    bound = v.coefficient_bound(rho_eff)
    if v._k_all.size == 0:
        return StripNorm(bound=bound, estimate=bound)
    if rho_eff == 0.0:
        estimate = _real_sup(v, grid)
        return StripNorm(bound=bound, estimate=min(estimate, bound))
    estimate = _strip_boundary_sup(v, rho_eff, grid)
    return StripNorm(bound=bound, estimate=min(estimate, bound))


def _real_sup(v: TrigPotential, grid: int) -> float:
    prev = -1.0
    m = grid
    for _ in range(8):
        if v.dim == 1:
            xs = np.arange(m) / m
        else:
            g = np.arange(m) / m
            xs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        cur = float(np.max(np.abs(v.eval_batch(xs))))
        if prev > 0 and abs(cur - prev) <= 1e-3 * prev:
            return cur
        prev, m = cur, 2 * m if v.dim == 1 else m + m // 2
    return prev


def _strip_boundary_sup(v: TrigPotential, rho_eff: float, grid: int) -> float:
    # Maximum modulus principle: the sup over the closed strip lives on the
    # boundary; conjugate symmetry makes the two horizontal edges equal.
    prev = -1.0
    m = grid
    for _ in range(8):
        if v.dim == 1:
            xs = np.arange(m) / m
            zs = xs + 1j * rho_eff * (1.0 - 1e-12)
            cur = float(np.max(np.abs(v.eval_complex_batch(zs))))
        else:
            g = np.arange(m) / m
            xs = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
            y = rho_eff * (1.0 - 1e-12)
            cur = 0.0
            for sy in ((y, y), (y, -y)):
                zs = xs + 1j * np.asarray(sy)
                cur = max(cur, float(np.max(np.abs(v.eval_complex_batch(zs)))))
        if prev > 0 and abs(cur - prev) <= 1e-3 * prev:
            return cur
        prev, m = cur, 2 * m if v.dim == 1 else m + m // 2
    return prev


# ---------------------------------------------------------------------------
# stock potentials


def zero_potential(dim: int = 1, strip_width: float = 2.0) -> TrigPotential:
    return TrigPotential(dim=dim, coeffs={}, strip_width=strip_width, coupling=1.0)


def constant_potential(value: float, dim: int = 1,
                       strip_width: float = 2.0) -> TrigPotential:
    zero = (0,) * dim
    return TrigPotential(dim=dim, coeffs={zero: value}, strip_width=strip_width)


def cosine_potential(coupling: float = 1.0, strip_width: float = 2.0) -> TrigPotential:
    """lambda * cos(2 pi theta) on the 1-torus."""
    return TrigPotential(dim=1, coeffs={(1,): 0.5, (-1,): 0.5},
                         strip_width=strip_width, coupling=coupling)


def two_cosine_potential(coupling: float = 1.0,
                         strip_width: float = 0.5) -> TrigPotential:
    """lambda * (cos(2 pi theta1) + cos(2 pi theta2)) on the 2-torus."""
    c = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}
    return TrigPotential(dim=2, coeffs=c, strip_width=strip_width, coupling=coupling)


# ---------------------------------------------------------------------------
# JSON interchange: {dim, coeffs: [[k..., re, im]...], rho, lambda,
#                    omega: [...], dio: {A, c}}


def potential_from_json(doc: Mapping) -> TrigPotential:
    dim = int(doc["dim"])
    coeffs = {}
    for row in doc.get("coeffs", []):
        if len(row) != dim + 2:
            raise ValueError(f"coefficient row {row!r} must have {dim + 2} entries")
        k = tuple(int(x) for x in row[:dim])
        coeffs[k] = complex(float(row[dim]), float(row[dim + 1]))
    return TrigPotential(dim=dim, coeffs=coeffs,
                         strip_width=float(doc.get("rho", 1.0)),
                         coupling=float(doc.get("lambda", 1.0)))


def frequency_from_json(doc: Mapping) -> Frequency:
    omega = tuple(float(x) for x in doc["omega"])
    dio = doc.get("dio", {})
    return Frequency(omega, dio_A=float(dio.get("A", 2.0)),
                     dio_c=float(dio.get("c", 0.1)))


def system_from_json(doc: Union[str, Mapping]) -> Tuple[TrigPotential, Frequency]:
    """Parse the combined potential+frequency document."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    v = potential_from_json(doc)
    freq = frequency_from_json(doc)
    if freq.dim != v.dim:
        raise ValueError("omega dimension does not match potential dimension")
    return v, freq
