import math

import numpy as np
import pytest

from qplab import (SigmaOutOfRange, deviation_measure, fourier_decay_check,
                   lyapunov_n)
from qplab.cli import _run_ldt
from qplab.ldt import ldt_scaling_table
from qplab.transfer import cocycle_batch


class TestDeviationMeasure:
    def test_free_fraction_zero(self, golden, free):
        prof = deviation_measure(golden, 0.0, 50, 0.3, free, samples=2000,
                                 seed=0)
        assert prof.fraction == 0.0
        assert prof.std_error == 0.0

    def test_constant_cocycle_fraction_zero(self, golden, free):
        prof = deviation_measure(golden, 3.0, 80, 0.3, free, samples=2000,
                                 seed=0)
        assert prof.fraction == 0.0

    def test_sigma_guard(self, golden, mathieu5, omega2, two_cos):
        with pytest.raises(SigmaOutOfRange):
            deviation_measure(golden, 0.0, 50, 0.7, mathieu5, samples=1000)
        with pytest.raises(SigmaOutOfRange):
            deviation_measure(golden, 0.0, 50, -0.1, mathieu5, samples=1000)
        # the boundary value is allowed; two frequencies accept any sigma
        deviation_measure(golden, 0.0, 50, 0.5, mathieu5, samples=1000)
        deviation_measure(omega2, 0.0, 50, 0.7, two_cos, samples=1000)

    def test_monotone_in_threshold_same_seed(self, golden, mathieu5):
        small = deviation_measure(golden, 0.0, 50, 0.5, mathieu5,
                                  samples=50_000, seed=7)
        large_thr = deviation_measure(golden, 0.0, 50, 0.3, mathieu5,
                                      samples=50_000, seed=7)
        assert large_thr.fraction <= small.fraction

    def test_two_sided_dominates_one_sided(self, golden, mathieu5):
        # Oracle: the same phases (seed 9) and L_n, counted side by side.
        prof = deviation_measure(golden, 0.0, 50, 0.5, mathieu5,
                                 samples=50_000, seed=9)
        thetas = np.random.default_rng(9).random(50_000)
        dev = (cocycle_batch(golden, thetas, 0.0, 50, mathieu5) / 50
               - lyapunov_n(golden, 0.0, 50, mathieu5).value)
        above = np.count_nonzero(dev > prof.threshold)
        below = np.count_nonzero(-dev > prof.threshold)
        assert below > 0        # phi strays below L_n; above is rare
        assert prof.fraction == (above + below) / 50_000

    def test_bitwise_reproducible(self, golden, mathieu5):
        a = deviation_measure(golden, 0.0, 60, 0.4, mathieu5, samples=20_000,
                              seed=123)
        b = deviation_measure(golden, 0.0, 60, 0.4, mathieu5, samples=20_000,
                              seed=123)
        assert a.fraction == b.fraction

    def test_nontrivial_fraction_at_boundary_sigma(self, golden, mathieu5):
        # at sigma = 1/2 and small n the bad set is visibly nonempty
        prof = deviation_measure(golden, 0.0, 50, 0.5, mathieu5,
                                 samples=100_000, seed=3)
        assert prof.fraction > 0.0
        assert prof.std_error == pytest.approx(
            math.sqrt(prof.fraction * (1 - prof.fraction) / 100_000))


def fractions(rows):
    return np.array([r.profile.fraction for r in rows])


class TestScalingTable:
    def test_free_rows_zero(self, golden, free):
        table = ldt_scaling_table(golden, 0.0, free, 0.3, [20, 40], 2000)
        assert np.all(fractions(table) == 0.0)

    def test_mathieu_fraction_shrinks(self, golden, mathieu5):
        table = ldt_scaling_table(golden, 0.0, mathieu5, 0.5, [50, 400],
                                  samples=100_000, seed=5)
        f = fractions(table)
        assert f[1] <= 0.5 * f[0] or f[0] == 0.0

    def test_two_torus_rows(self, omega2, two_cos):
        v = two_cos.with_coupling(10.0)
        rows = ldt_scaling_table(omega2, 0.0, v, 0.1, [50, 100, 200],
                                 samples=5000, seed=6)
        f = fractions(rows)
        se = np.array([r.profile.std_error for r in rows])
        for i in range(len(f) - 1):
            assert f[i + 1] <= f[i] + 3.0 * math.hypot(se[i], se[i + 1])

    def test_csv_lines_shape(self, golden, free):
        config = {"E": 0.0, "sigma": 0.3, "n_schedule": [10, 20],
                  "samples": 1000}
        lines = _run_ldt(config, free, golden, 0)["ldt.csv"]
        assert lines[0].startswith("n,sigma,threshold")
        assert len(lines) == 3


class TestFourierDecay:
    def test_constant_perfect_decay(self, golden, free):
        fd = fourier_decay_check(golden, 3.0, 100, free, 64)
        assert fd.slope is None

    def test_mathieu_gap_energy_slope(self, golden, mathieu5):
        fd = fourier_decay_check(golden, 2.0, 200, mathieu5, 256)
        assert fd.slope <= -0.9

    def test_single_factor_slope(self, golden, mathieu5):
        fd = fourier_decay_check(golden, 0.0, 1, mathieu5, 256)
        assert fd.slope <= -0.9

    def test_coefficients_against_direct_quadrature(self, golden, mathieu5):
        # independent oracle: direct Riemann sums for a handful of modes
        grid = 8192
        thetas = np.arange(grid) / grid
        phi = cocycle_batch(golden, thetas, 0.0, 50, mathieu5) / 50
        fd = fourier_decay_check(golden, 0.0, 50, mathieu5, 8)
        for k in range(1, 9):
            direct = abs(np.sum(phi * np.exp(-2j * np.pi * k * thetas)) / grid)
            assert fd.coefficients[k - 1] == pytest.approx(direct, abs=1e-12)

    def test_envelope_bound_at_spectral_energy(self, golden, mathieu5):
        # the O(1/k) claim as an envelope: k|phi_hat(k)| stays bounded even
        # at the self-dual energy where the plain log-log fit is shallow
        fd = fourier_decay_check(golden, 0.0, 200, mathieu5, 256)
        ks = np.arange(1, 257)
        assert float(np.max(ks * fd.coefficients)) <= 1.0

    def test_k_range_guard(self, golden, mathieu5):
        with pytest.raises(ValueError):
            fourier_decay_check(golden, 0.0, 50, mathieu5, 3000)
