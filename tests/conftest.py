import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qplab import (cosine_potential, golden_frequency, two_cosine_potential,
                   two_torus_frequency, zero_potential)


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
    """Worker counts of the pools ``_phi_values`` starts, and the threads
    that ran its parts."""
    from qplab import lyapunov

    record = {"workers": [], "threads": set()}
    cocycle_batch = lyapunov.cocycle_batch

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            record["workers"].append(max_workers)
            super().__init__(max_workers=max_workers)

    def counted(*args, **kwargs):
        record["threads"].add(threading.get_ident())
        return cocycle_batch(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(lyapunov, "cocycle_batch", counted)
    return record


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
    w = omega.as_array()
    for i, j in enumerate(range(a, b + 1)):
        th = (np.asarray(theta) + j * w) % 1.0
        m[i, i] = float(v.eval_batch(th if omega.dim == 2 else th[0])) - energy
    idx = np.arange(n - 1)
    m[idx, idx + 1] = 1.0
    m[idx + 1, idx] = 1.0
    return m
