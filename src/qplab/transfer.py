"""Transfer-matrix cocycles, tridiagonal determinants, and their exact link.

The one-step matrix is [[v - E, 1], [-1, 0]].  Products are rescaled by
powers of two often enough that norms of order exp(c n) never overflow; the
accumulated exponents carry the growth.  The entries of the n-step product
coincide with signed determinants of trailing tridiagonal truncations, which
`verify_det_identity` checks to floating-point accuracy.

The cocycle rows (`_orbit_rows`) and box diagonals (`box_diagonal`) take
v(theta + j omega) from the orbit evaluator of `model`, with the same bits.
"""

from __future__ import annotations

import itertools
import math
import numbers
from typing import Tuple

import numpy as np

from . import slog
from .model import (Frequency, TrigPotential, _harmonic_sum, _phase_harmonics,
                    _step_rotations)


# ---------------------------------------------------------------------------
# the stepping kernel

_LOG2 = math.log(2.0)
# Entries may grow by this factor (in log) between two rescales; exp(600)
# leaves room below the float ceiling near exp(709).
_LOG_GROWTH = 600.0
# Results per block of orbit rows: rows are summed this many at a time.
_BLOCK = 1 << 16


def _orbit_rows(omega: Frequency, th: np.ndarray, energy, n: int,
                v: TrigPotential):
    """Rows a_j = v(th + j*omega) - E for j = 1..n, one per step.

    Rows are summed in blocks of m = max(1, _BLOCK // results) consecutive
    steps, so at most one block of m rows is held; row j has the bits of
    ``box_diagonal((1, n), omega, th_i, v)`` at site j, phase by phase.
    ``energy`` broadcasts against it, so an (E, 1) column gives (E, B) rows.
    A complex ``th`` (d=1) runs along its line Im z = th.imag.  Rows are
    views of the block buffer, so read each before asking for the next
    block.  An ``n`` that is not a positive integer raises ValueError.
    """
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"need a positive integer number of steps, got {n!r}")
    x, y = _phase_harmonics(v, th)
    p, q = _step_rotations(omega, v, 1, n)
    batch = x.shape[1:]
    shape = np.broadcast_shapes(np.shape(energy), batch)
    m = max(1, min(n, _BLOCK // max(1, math.prod(shape))))
    val, tmp = np.empty((m,) + batch, x.dtype), np.empty((m,) + batch, x.dtype)
    # Subtract in place unless the energies widen the batch.
    rows = val if shape == batch else np.empty((m,) + shape, x.dtype)
    lift = (slice(None),) + (np.newaxis,) * (len(shape) - len(batch))
    col = (Ellipsis,) + (np.newaxis,) * len(batch)
    for lo in range(0, n, m):
        k = min(m, n - lo)
        _harmonic_sum(v, p[lo:lo + k].T[col], q[lo:lo + k].T[col], x, y,
                      (k,) + batch, val=val[:k], tmp=tmp[:k])
        yield from np.subtract(val[:k][lift], energy, out=rows[:k])


def _period(v: TrigPotential, energy, imag: float = 0.0) -> int:
    """Steps between rescales for rows of v - E on the line |Im z| = imag.

    Each step multiplies the largest entry by at most 1 + |a| < 2 + bound,
    with bound >= |v - E| read from the coefficients, so k steps grow it by
    at most exp(_LOG_GROWTH).
    """
    bound = (v.coefficient_bound(imag)
             + float(np.max(np.abs(energy), initial=0.0)))
    if not math.isfinite(bound):
        return 1
    return max(1, int(_LOG_GROWTH / math.log(2.0 + bound)))


def _rescale(top, prev, exps):
    """Divide both rows by the power of two of their largest entry (exact)."""
    mx = np.maximum(np.max(np.abs(top), axis=0), np.max(np.abs(prev), axis=0))
    e = np.frexp(mx)[1]
    scale = np.ldexp(1.0, -e)
    top *= scale
    prev *= scale
    exps += e


def _products(rows, period: int):
    """Running products of the one-step factors [[a, 1], [-1, 0]].

    ``rows`` yields one array a = v - E per step, over a batch.  The product
    after step j is 2**exps * [[u_j], [-u_(j-1)]]: its top row follows the
    two-term recurrence u_j = a_j u_(j-1) - u_(j-2), and its bottom row is
    minus the previous top row.  After each step this yields (top, prev,
    exps), with top = u_j and prev = u_(j-1) as (2, ...) arrays.  Every
    ``period`` steps both rows are rescaled by a power of two, which is exact,
    so the products do not depend on the period; ``_period`` picks one that
    cannot overflow.  Complex rows give complex entries.  The buffers are
    updated in place, so read them before asking for the next step.
    """
    rows = iter(rows)
    a = next(rows)
    shape = (2,) + np.shape(a)
    top = np.zeros(shape, dtype=a.dtype)
    prev = np.zeros(shape, dtype=a.dtype)
    tmp = np.empty(shape, dtype=a.dtype)
    top[0] = 1.0            # the identity: top row (1, 0), bottom row (0, 1)
    prev[1] = -1.0
    exps = np.zeros(shape[1:], dtype=np.int64)
    for j, a in enumerate(itertools.chain((a,), rows), 1):
        np.multiply(a, top, out=tmp)
        np.subtract(tmp, prev, out=prev)
        top, prev = prev, top
        if j % period == 0:
            _rescale(top, prev, exps)
        yield top, prev, exps


def _abs2(x):
    return x.real * x.real + x.imag * x.imag


def _square_for(x):
    """|.|^2 for arrays of x's dtype; np.square (x * x) keeps real bits unchanged."""
    return np.square if np.isrealobj(x) else _abs2


def _unit(top, prev, exps):
    """Frobenius-1 entries (m00, m01, m10, m11) of a product and its log scale."""
    m = (top[0], top[1], -prev[0], -prev[1])
    mx = np.maximum(np.maximum(np.abs(m[0]), np.abs(m[1])),
                    np.maximum(np.abs(m[2]), np.abs(m[3])))
    s = [x / mx for x in m]
    sq = _square_for(s[0])
    f = np.sqrt(sq(s[0]) + sq(s[1]) + sq(s[2]) + sq(s[3]))
    # mx = mant * 2**e; the log scale is assembled from the exact exponent
    # so it does not depend on where the kernel rescaled.
    mant, e = np.frexp(mx)
    ls = (exps + e) * _LOG2 + np.log(mant) + np.log(f)
    return tuple(x / f for x in s), ls


def _log_opnorm(m00, m01, m10, m11, ls):
    """log spectral norm of exp(ls) * [[m00, m01], [m10, m11]], in closed form.

    The entries must be of order one (unit or max-entry scale) so that
    squaring them cannot overflow.
    """
    sq = _square_for(m00)
    det = m00 * m11 - m01 * m10
    t = sq(m00) + sq(m01) + sq(m10) + sq(m11)
    disc = np.maximum(t * t - 4.0 * sq(det), 0.0)
    return ls + np.log(np.sqrt(0.5 * (t + np.sqrt(disc))))


def _as_batch(omega: Frequency, thetas) -> np.ndarray:
    th = np.asarray(thetas)
    if np.iscomplexobj(th):
        if omega.dim != 1:
            raise ValueError("complexified cocycles are 1-frequency only")
        return np.atleast_1d(th)
    th = np.asarray(th, dtype=float)
    return np.atleast_1d(th) if omega.dim == 1 else th.reshape(-1, 2)


def _final(rows, period: int):
    for top, prev, exps in _products(rows, period):
        pass
    return _unit(top, prev, exps)


def cocycle_batch(omega: Frequency, thetas, energy, n: int, v: TrigPotential):
    """Vectorized n-step cocycle over a batch of phases (and energies).

    M_n(theta) is the product of the one-step matrices at theta + j*omega
    for j = 1..n.  The block of n steps that starts s steps along the orbit
    is M_n at the phase frac(theta + s*omega).

    ``thetas`` has shape (B,) for d=1 or (B, 2); ``energy`` is a scalar, a
    length-B array (one energy per phase) or an (E, 1) column (every phase at
    every energy, giving (E, B) results).  Complex phases (d=1 only, else
    ValueError) run along the complexified lines Im z = thetas.imag; the
    potential raises StripExceeded when some |Im z| >= strip_width/10.  A
    non-finite energy or phase, or an ``n`` that is not a positive integer,
    raises ValueError.  Returns the array of log spectral norms.
    """
    energy = np.asarray(energy, dtype=float)
    if not np.isfinite(energy).all():
        raise ValueError("energies must be finite")
    th = _as_batch(omega, thetas)
    imag = float(np.max(np.abs(th.imag))) if np.iscomplexobj(th) else 0.0
    rows = _orbit_rows(omega, th, energy, n, v)
    m, ls = _final(rows, _period(v, energy, imag))
    return _log_opnorm(*m, ls)


def cocycle_complex(omega: Frequency, z: complex, energy: float, n: int,
                    v: TrigPotential) -> float:
    """log ||M_n(z)|| at one complex phase: ``cocycle_batch`` of one point."""
    return float(cocycle_batch(omega, complex(z), energy, n, v)[0])


# ---------------------------------------------------------------------------
# tridiagonal determinants


def _renorm_pair(cur: float, prev: float, acc: float) -> Tuple[float, float, float]:
    # Joint power-of-two rescale: the (cur, prev) ratio is preserved exactly.
    m = max(abs(cur), abs(prev))
    if m == 0.0:
        return cur, prev, acc
    e = math.frexp(m)[1]
    scale = math.ldexp(1.0, -e)
    return cur * scale, prev * scale, acc + e * math.log(2.0)


def box_diagonal(interval: Tuple[int, int], omega: Frequency, theta,
                 v: TrigPotential) -> np.ndarray:
    """Potential values v(theta + j omega), j = a..b, on the box [a, b].

    The box operator is symmetric tridiagonal with these values on its
    diagonal and ones off it.  They come from the orbit evaluator that
    gives the cocycle rows, so site j has the bits of row j.
    """
    a, b = int(interval[0]), int(interval[1])
    if b < a:
        raise ValueError("interval is empty")
    x, y = _phase_harmonics(v, theta)
    p, q = _step_rotations(omega, v, a, b)
    return _harmonic_sum(v, p.T, q.T, x, y, (b - a + 1,))


def det_sequence(diag: np.ndarray):
    """Signed-log determinants of all leading truncations of a box.

    ``diag`` is the shifted diagonal v - E of n sites; the sequence has
    length n + 1 and entry i is det over its first i sites (entry 0 is the
    empty determinant, +1).  ``det_sequence(diag[::-1])`` gives the trailing
    truncations.  A non-finite entry raises ValueError.
    """
    if not np.isfinite(diag).all():
        raise ValueError("box diagonal v - E must be finite")
    n = diag.shape[0]
    signs = np.empty(n + 1, dtype=np.int8)
    logs = np.empty(n + 1, dtype=float)
    signs[0], logs[0] = 1, 0.0
    prev, cur, acc = 0.0, 1.0, 0.0
    for i in range(n):
        prev, cur = cur, diag[i] * cur - prev
        cur, prev, acc = _renorm_pair(cur, prev, acc)
        if cur == 0.0:
            signs[i + 1], logs[i + 1] = 0, -math.inf
        else:
            signs[i + 1] = 1 if cur > 0 else -1
            logs[i + 1] = acc + math.log(abs(cur))
    return signs, logs


def verify_det_identity(n: int, omega: Frequency, theta, energy: float,
                        v: TrigPotential) -> float:
    """Max signed-log residual between cocycle entries and recurrence determinants.

    The four entries of the n-step product equal, with signs, the
    determinants of the box [1,n], its two phase-shifted trailing
    sub-boxes [2,n], [2,n-1], and the leading sub-box [1,n-1].  Both sides
    read the one diagonal of ``box_diagonal((1, n), ...)``; a sign that
    disagrees gives inf.
    """
    if n < 3:
        raise ValueError("identity check needs n >= 3")
    diag = box_diagonal((1, n), omega, theta, v) - energy
    s_full, l_full = det_sequence(diag)
    s_shift, l_shift = det_sequence(diag[1:])
    m, ls = _final(diag[:, np.newaxis], _period(v, energy))
    # top-left, top-right, bottom-left, bottom-right
    want_s = np.array([s_full[n], s_shift[n - 1], -s_full[n - 1],
                       -s_shift[n - 2]])
    want_l = np.array([l_full[n], l_shift[n - 1], l_full[n - 1],
                       l_shift[n - 2]])
    sign, logs = slog.from_values(np.concatenate(m))
    if not np.array_equal(sign, want_s):
        return math.inf
    live = sign != 0
    return float(np.max(np.abs(ls[0] + logs[live] - want_l[live]), initial=0.0))
