"""Core domain types: torus frequencies and trigonometric potentials.

Conventions: the torus is [0,1)^d and a wave index k contributes the phase
exp(2*pi*i*k.theta), so "cos theta" means cos(2*pi*theta) internally.
Frequencies, phases and potential arguments are always in these angle units.

One orbit evaluator gives the potential at theta + j omega to the cocycle
rows and box diagonals of `transfer`, and is `TrigPotential.eval_batch` at
step 0.  It expands each angle by phase rotation: cos and sin of
2 pi k.frac(theta) once per phase, and per step the coefficients turned by
2 pi frac(j k.omega), formed from an exact head product that limits j |k|_1
to below 2^27.  Every consumer sums the same products in the same order, so
all give the same bits at the same site.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Tuple, Union

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


def golden_frequency() -> Frequency:
    return Frequency((GOLDEN_MEAN,), 2.0, 0.2)


def two_torus_frequency() -> Frequency:
    return Frequency((math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0), 4.0, 0.01)


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


def _canon_key(k, dim: int) -> KVec:
    if dim == 1 and isinstance(k, (int, np.integer)):
        return (int(k),)
    if not all(float(ki).is_integer() for ki in k):
        raise ValueError(f"coefficient index {k!r} is not integral")
    t = tuple(int(ki) for ki in k)
    if len(t) != dim:
        raise ValueError(f"coefficient index {k!r} has wrong dimension")
    return t


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
            key = _canon_key(k, self.dim)
            if key in canon:
                raise ValueError(f"wave vector {list(key)} is given more "
                                 "than once")
            canon[key] = complex(c)
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
        # Reject before the halves below double the coefficients, which
        # would overflow into inf values and NaN exponents.
        with np.errstate(over="ignore"):
            if not math.isfinite(self.coefficient_bound(0.0)):
                raise ValueError("sup |v| overflows: the coefficients times "
                                 "the coupling must sum to a finite number")
        # Tuple order: the first nonzero component of k is positive.
        half = [k for k in keys if k > zero]
        object.__setattr__(self, "_k_half",
                           np.array(half, dtype=float).reshape(len(half), self.dim))
        ch = np.array([canon[k] for k in half], dtype=complex)
        object.__setattr__(self, "_a_half", 2.0 * ch.real)
        object.__setattr__(self, "_b_half", -2.0 * ch.imag)
        object.__setattr__(self, "_c0", float(c0.real))

    def is_constant(self) -> bool:
        return self.coupling == 0.0 or bool(np.all(self._a_half == 0.0)
                                            and np.all(self._b_half == 0.0))

    def with_coupling(self, coupling: float) -> "TrigPotential":
        return replace(self, coupling=float(coupling))

    # -- evaluation

    def eval_batch(self, thetas) -> np.ndarray:
        """Evaluate at points of shape (..., d) (or (...,) when d=1).

        This is the orbit evaluator's row at step 0, so real parts are
        reduced mod 1 as for orbit rows.  Complex points give the analytic
        continuation on the strip, with complex values; they raise
        StripExceeded when some |Im z| >= strip_width/10.  A non-finite
        point raises ValueError.  Harmonics whose b_h is 0 skip their sine
        term: at step 0 it adds an exact zero.
        """
        x, y = _phase_harmonics(self, np.asarray(thetas), self._b_half != 0)
        return _harmonic_sum(self, self._a_half, self._b_half, x, y,
                             x.shape[1:])

    def _check_strip(self, imag) -> None:
        """Raise StripExceeded when some |Im z| reaches strip_width/10."""
        if (np.abs(imag) >= self.strip_width / 10.0).any():
            raise StripExceeded("|Im z| must stay below strip_width/10 = "
                                f"{self.strip_width / 10.0:g}")

    def coefficient_bound(self, rho: float = 0.0) -> float:
        """Upper bound sum |v_k| exp(2 pi |k|_1 rho) for |v| on |Im z_j| <= rho."""
        k1 = np.sum(np.abs(self._k_all), axis=1)
        return abs(self.coupling) * float(
            np.sum(np.abs(self._c_all) * np.exp(TWO_PI * k1 * rho)))


def strip_norm(v: TrigPotential) -> float:
    """Upper bound sum |v_k| exp(2 pi |k|_1 rho) for |v| on the usable strip
    |Im z_j| <= rho = strip_width/10."""
    return v.coefficient_bound(v.strip_width / 10.0)


# ---------------------------------------------------------------------------
# the orbit evaluator


def _frac(x):
    """x mod 1 as x - floor(x): the same bits as x % 1.0, at less cost."""
    return x - np.floor(x)


# Bits of omega kept in its head: j (k.head) is exact below j |k|_1 = 2^27.
_HEAD_BITS = 26
_MAX_REACH = 2 ** (53 - _HEAD_BITS)


def _checked_phases(v: TrigPotential, th):
    """``th`` as phases of v (real ones as floats); StripExceeded when some
    |Im z| >= strip_width/10, ValueError when some phase is not finite."""
    if np.iscomplexobj(th):
        v._check_strip(th.imag)
    else:
        th = np.asarray(th, dtype=float)
    if not np.isfinite(th).all():
        raise ValueError("phases must be finite")
    return th


def _phase_harmonics(v: TrigPotential, th, sines=None):
    """cos and sin of 2 pi k_h.frac(th) for each positive harmonic k_h of v.

    Both arrays have shape (H,) + the batch shape: ``th.shape`` for d=1,
    ``th.shape[:-1]`` for d=2.  A complex ``th`` keeps its imaginary part;
    phases are checked by ``_checked_phases``.  Given a mask ``sines`` over
    the harmonics, the sines are a list that holds None where it is False,
    and `_harmonic_sum` skips those terms.
    """
    th = _checked_phases(v, th)
    f = _frac(th.real) + 1j * th.imag if np.iscomplexobj(th) else _frac(th)
    if v.dim == 1:
        turns = [f * k[0] for k in v._k_half]
    else:
        turns = [f[..., 0] * k[0] + f[..., 1] * k[1] for k in v._k_half]
    batch = f.shape if v.dim == 1 else f.shape[:-1]
    ang = TWO_PI * np.array(turns, dtype=f.dtype).reshape(
        (len(turns),) + batch)
    if sines is None:
        return np.cos(ang), np.sin(ang)
    return np.cos(ang), [np.sin(t) if s else None for t, s in zip(ang, sines)]


def _step_rotations(omega: Frequency, v: TrigPotential, first: int,
                    last: int):
    """Coefficients turned by alpha_jh = 2 pi frac(j k_h.omega), per step j.

    For j = first..last, returns p = a cos(alpha) + b sin(alpha) and
    q = b cos(alpha) - a sin(alpha), each of shape (last - first + 1, H), so
    that a_h cos(x + alpha) + b_h sin(x + alpha) = p cos(x) + q sin(x).
    omega splits into a head of _HEAD_BITS fractional bits and its exact
    tail, so frac(j k.head) is exact while j |k|_1 < 2^27; a larger reach
    raises ValueError.
    """
    k = v._k_half
    reach = max(abs(first), abs(last)) * int(np.abs(k).sum(1).max(initial=0))
    if reach >= _MAX_REACH:
        raise ValueError(f"orbit reach j |k|_1 = {reach} is not below 2^27, "
                         "where the phase rotation stays exact")
    w = np.asarray(omega.components, dtype=float)
    head = np.rint(w * 2.0 ** _HEAD_BITS) / 2.0 ** _HEAD_BITS
    j = np.arange(first, last + 1, dtype=float)[:, np.newaxis]
    ang = TWO_PI * (_frac(j * (k @ head)) + j * (k @ (w - head)))
    c, s = np.cos(ang), np.sin(ang)
    a, b = v._a_half, v._b_half
    return a * c + b * s, b * c - a * s


def _harmonic_sum(v: TrigPotential, p, q, x, y, shape, val=None, tmp=None):
    """coupling * (c0 + sum_h p_h x_h + q_h y_h), terms added in order of h.

    The first axis of each argument runs over the harmonics and the other
    axes broadcast to ``shape``: a box or a block of orbit rows takes a
    column of steps against its phases, a point takes scalar p_h, q_h, and
    all round the same way; a None y_h skips its term.  The sum is written
    into ``val`` with ``tmp`` for the products, both of ``shape`` and x's
    dtype (allocated if not given), and ``val`` is returned.
    """
    if val is None:
        val, tmp = np.empty(shape, x.dtype), np.empty(shape, x.dtype)
    val.fill(v._c0)
    for ph, qh, xh, yh in zip(p, q, x, y):
        val += np.multiply(ph, xh, out=tmp)
        if yh is not None:
            val += np.multiply(qh, yh, out=tmp)
    val *= v.coupling
    return val


# ---------------------------------------------------------------------------
# stock potentials


def zero_potential() -> TrigPotential:
    """The free potential v = 0 on the 1-torus."""
    return TrigPotential(dim=1, coeffs={}, strip_width=2.0, coupling=1.0)


def cosine_potential(coupling: float = 1.0, strip_width: float = 2.0) -> TrigPotential:
    """lambda * cos(2 pi theta) on the 1-torus."""
    return TrigPotential(dim=1, coeffs={(1,): 0.5, (-1,): 0.5},
                         strip_width=strip_width, coupling=coupling)


def two_cosine_potential(coupling: float = 1.0) -> TrigPotential:
    """lambda * (cos(2 pi theta1) + cos(2 pi theta2)) on the 2-torus."""
    c = {(1, 0): 0.5, (-1, 0): 0.5, (0, 1): 0.5, (0, -1): 0.5}
    return TrigPotential(dim=2, coeffs=c, strip_width=0.5, coupling=coupling)


# ---------------------------------------------------------------------------
# JSON interchange: {dim, coeffs: [[k..., re, im]...], rho, lambda,
#                    omega: [...], dio: {A, c}}


def potential_from_json(doc: Mapping) -> TrigPotential:
    dim = int(doc["dim"])
    coeffs = {}
    for row in doc.get("coeffs", []):
        if len(row) != dim + 2:
            raise ValueError(f"coefficient row {row!r} must have {dim + 2} entries")
        if not all(float(x).is_integer() for x in row[:dim]):
            raise ValueError(f"coefficient row {row!r} has a wave index that "
                             "is not an integer")
        k = tuple(int(x) for x in row[:dim])
        if k in coeffs:
            raise ValueError(f"wave vector {list(k)} is given in more than "
                             "one coefficient row")
        coeffs[k] = complex(float(row[dim]), float(row[dim + 1]))
    return TrigPotential(dim=dim, coeffs=coeffs,
                         strip_width=float(doc.get("rho", 1.0)),
                         coupling=float(doc.get("lambda", 1.0)))


def frequency_from_json(doc: Mapping) -> Frequency:
    omega = tuple(float(x) for x in doc["omega"])
    dio = doc.get("dio", {})
    return Frequency(omega, dio_A=float(dio.get("A", 2.0)),
                     dio_c=float(dio.get("c", 0.1)))


def system_from_json(doc: Mapping) -> Tuple[TrigPotential, Frequency]:
    """Parse the combined potential+frequency document, a decoded mapping."""
    v = potential_from_json(doc)
    freq = frequency_from_json(doc)
    if freq.dim != v.dim:
        raise ValueError("omega dimension does not match potential dimension")
    return v, freq
