import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qplab import (cosine_potential, golden_frequency, two_cosine_potential,
                   two_torus_frequency, zero_potential)
from qplab.model import _phase_harmonics, _step_rotations
from qplab.transfer import _as_batch, _final, _orbit_rows


@pytest.fixture(scope="session")
def golden():
    return golden_frequency()


@pytest.fixture(scope="session")
def omega2():
    return two_torus_frequency()


@pytest.fixture(scope="session")
def free():
    return zero_potential()


@pytest.fixture(scope="session")
def mathieu5():
    return cosine_potential(5.0)


@pytest.fixture(scope="session")
def two_cos():
    return two_cosine_potential(1.0)


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the pools ``cocycle_batch`` starts, and the threads
    that ran its parts."""
    from qplab import transfer

    record = {"workers": [], "threads": set()}
    orbit_rows = transfer._orbit_rows

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            record["workers"].append(max_workers)
            super().__init__(max_workers=max_workers)

    def counted(*args, **kwargs):
        record["threads"].add(threading.get_ident())
        return orbit_rows(*args, **kwargs)

    monkeypatch.setattr(transfer, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(transfer, "_orbit_rows", counted)
    return record


@pytest.fixture
def one_thread():
    """Phase batches run at a thread cap of 1, as one part where they fit."""
    from qplab import transfer

    token = transfer.THREADS.set(1)
    yield
    transfer.THREADS.reset(token)


def random_trig_potential(rng, degree=3, amplitude=1.0, dim=1, strip_width=2.0):
    """Conjugate-symmetric random trig polynomial for oracle checks."""
    from qplab import TrigPotential

    coeffs = {}
    if dim == 1:
        coeffs[(0,)] = complex(rng.uniform(-amplitude, amplitude), 0.0)
        for k in range(1, degree + 1):
            c = complex(rng.uniform(-amplitude, amplitude),
                        rng.uniform(-amplitude, amplitude))
            coeffs[(k,)] = c
            coeffs[(-k,)] = c.conjugate()
    else:
        coeffs[(0, 0)] = complex(rng.uniform(-amplitude, amplitude), 0.0)
        for k1 in range(-degree, degree + 1):
            for k2 in range(1, degree + 1):
                c = complex(rng.uniform(-amplitude, amplitude),
                            rng.uniform(-amplitude, amplitude))
                coeffs[(k1, k2)] = c
                coeffs[(-k1, -k2)] = c.conjugate()
    return TrigPotential(dim=dim, coeffs=coeffs, strip_width=strip_width)


def dense_box(interval, omega, theta, energy, v):
    """Dense (A - E) matrix built from direct potential evaluation."""
    a, b = interval
    n = b - a + 1
    m = np.zeros((n, n))
    w = np.asarray(omega.components, dtype=float)
    for i, j in enumerate(range(a, b + 1)):
        th = (np.asarray(theta) + j * w) % 1.0
        m[i, i] = float(v.eval_batch(th if omega.dim == 2 else th[0])) - energy
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0
    m[idx + 1, idx] = 1.0
    return m


def as_matrices(m00, m01, m10, m11):
    """(..., 2, 2) matrices from arrays of their four entries."""
    return np.stack([np.stack([m00, m01], axis=-1),
                     np.stack([m10, m11], axis=-1)], axis=-2)


def cocycle_product(omega, thetas, energy, n, v, period=1):
    """Frobenius-1 matrices, shape (B, 2, 2), and log scales of the n-step
    products whose log norms ``cocycle_batch`` returns, rescaled every
    ``period`` steps; the rescales are exact powers of two, so every period
    gives the same bits."""
    rows = _orbit_rows(omega, _as_batch(omega, thetas),
                       np.asarray(energy, dtype=float), n, v)
    m, ls = _final(rows, period)
    return as_matrices(*m), ls


def per_step_rows(omega, th, energy, n, v):
    """Rows a_j = v(th + j*omega) - E summed one step at a time: scalar
    p_h, q_h of step j against the batch's harmonics, into a fresh array
    per row.  This is how ``_orbit_rows`` summed them before it took blocks
    of steps and ``_harmonic_sum`` took buffers, kept as the oracle for
    their bits."""
    x, y = _phase_harmonics(v, th)
    p, q = _step_rotations(omega, v, 1, n)
    for pj, qj in zip(p, q):
        val = np.full(x.shape[1:], v._c0, dtype=x.dtype)
        for ph, qh, xh, yh in zip(pj, qj, x, y):
            val += ph * xh
            val += qh * yh
        val *= v.coupling
        yield val - energy


def orbit_phases(theta, omega, j):
    """Torus points frac(theta + j*omega) for integer (array) j."""
    w = np.asarray(omega.components, dtype=float)
    th = np.asarray(theta, dtype=float)
    j = np.asarray(j, dtype=float)
    x = th + j * w[0] if omega.dim == 1 else th + j[..., np.newaxis] * w
    return x - np.floor(x)


needs_long_double = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant < 63,
    reason="np.longdouble has no 64-bit mantissa on this platform, so it "
           "cannot serve as the extended-precision reference")


def reference_orbit(v, omega, theta, j):
    """v(theta + j*omega) in long double, rounded to float64 at the end.

    Every sum and angle runs in long double.  j*omega mod 1 is formed from a
    32-bit head of omega, whose product with |j| < 2^31 is exact there, and
    the exact float64 tail; adding theta keeps its low bits, which a float64
    sum theta + j*omega rounds away.  ``j`` is an integer, or an array of
    them against one phase.  A complex theta (d=1) keeps its imaginary part
    on the line Im z = theta.imag.
    """
    ld = np.longdouble
    two_pi = 2 * np.arccos(ld(-1))
    th = np.asarray(theta)
    jj = np.asarray(j, dtype=ld)[..., np.newaxis]
    w = np.asarray(omega.components, dtype=float)
    head = np.round(w * 2.0 ** 32) / 2.0 ** 32
    jh = jj * head.astype(ld)
    jw = (jh - np.floor(jh)) + jj * (w - head).astype(ld)
    if omega.dim == 1:
        jw = jw[..., 0]
    if np.iscomplexobj(th):
        x = th.real.astype(ld) + jw
        z = (x - np.floor(x)) + 1j * th.imag.astype(ld)
        turns = [z * ld(k[0]) for k in v._k_half]
    else:
        x = th.astype(ld) + jw
        x = x - np.floor(x)
        turns = [x * ld(k[0]) if v.dim == 1
                 else x[..., 0] * ld(k[0]) + x[..., 1] * ld(k[1])
                 for k in v._k_half]
    val = ld(v._c0)
    for t, a, b in zip(turns, v._a_half, v._b_half):
        val = val + ld(a) * np.cos(two_pi * t) + ld(b) * np.sin(two_pi * t)
    val = ld(v.coupling) * val
    batch = th.shape if omega.dim == 1 else th.shape[:-1]
    shape = np.broadcast_shapes(batch, np.shape(j))
    return np.broadcast_to(val, shape).astype(
        complex if np.iscomplexobj(val) else float)
