import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplab import (Frequency, StripExceeded, TrigPotential,
                   cosine_potential, golden_frequency, system_from_json,
                   two_cosine_potential, verify_diophantine)
from qplab.model import potential_from_json, strip_norm
from qplab import slog


def matmul_eval(v, thetas):
    """The earlier evaluation: every harmonic's cos and sin through matmuls."""
    th = np.asarray(thetas, dtype=float)
    if v.dim == 1:
        th = th[..., np.newaxis]
    ang = 2.0 * math.pi * (th @ v._k_half.T)
    val = v._c0 + np.cos(ang) @ v._a_half + np.sin(ang) @ v._b_half
    return v.coupling * val


class TestSlog:
    def test_addition_factors_out_larger(self):
        s, l = slog.add(*slog.from_values([3e200, -1e200]))
        assert s == 1
        assert slog.to_values(s, l) == pytest.approx(2e200, rel=1e-12)
        # Magnitudes beyond the double range: exp(1000) - exp(999).
        s, l = slog.add([1, -1], [1000.0, 999.0])
        assert s == 1
        assert l == pytest.approx(1000.0 + math.log1p(-math.exp(-1.0)),
                                  rel=1e-15)

    def test_exact_cancellation(self):
        s, l = slog.from_values(7.25)
        total_s, total_l = slog.add([s, -s], [l, l])
        assert total_s == 0 and total_l == -math.inf
        assert slog.to_values(total_s, total_l) == 0.0

    def test_zero_round_trip(self):
        s, l = slog.from_values(0.0)
        assert s == 0 and l == -math.inf
        assert slog.to_values(s, l) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-1e3, max_value=1e3).filter(lambda x: abs(x) > 1e-3))
    def test_round_trip(self, x):
        assert float(slog.to_values(*slog.from_values(x))) == pytest.approx(
            x, rel=1e-14)


class TestDiophantine:
    def test_golden_mean_clean_to_1e4(self, golden):
        assert verify_diophantine(golden, 10_000) is None

    def test_rational_violation_at_denominator(self):
        freq = Frequency((0.5,), dio_A=2.0, dio_c=0.1)
        assert verify_diophantine(freq, 2) == 2

    def test_two_torus_default_clean(self, omega2):
        assert verify_diophantine(omega2, 500) is None

    def test_monotone_in_horizon(self, golden):
        # none at K implies none at any smaller K'
        assert verify_diophantine(golden, 2_000) is None
        for k in (1, 10, 500, 1999):
            assert verify_diophantine(golden, k) is None

    def test_verification_keeps_equality_and_hash(self):
        freq = golden_frequency()
        seen = {freq}
        assert verify_diophantine(freq, 100) is None
        assert freq == golden_frequency()
        assert freq in seen

    def test_components_validated(self):
        with pytest.raises(ValueError):
            Frequency((1.5,))
        with pytest.raises(ValueError):
            Frequency((0.3,), dio_c=0.0)


class TestEvalPotential:
    def test_cosine_basics(self):
        v = cosine_potential(1.0)
        assert float(v.eval_batch(0.0)) == pytest.approx(1.0, abs=1e-15)
        v5 = cosine_potential(5.0)
        assert float(v5.eval_batch(0.25)) == pytest.approx(0.0, abs=1e-12)

    def test_two_cosines_cancel(self):
        v = two_cosine_potential(2.0)
        assert float(v.eval_batch((0.0, 0.5))) == pytest.approx(0.0, abs=1e-12)

    def test_real_on_torus_random_coeffs(self):
        from conftest import random_trig_potential

        rng = np.random.default_rng(3)
        v = random_trig_potential(rng, degree=4)
        thetas = rng.random(100)
        direct = np.array([
            sum((c * np.exp(2j * np.pi * k[0] * t) for k, c in v.coeffs.items()),
                start=0j) for t in thetas])
        assert np.max(np.abs(direct.imag)) <= 1e-12 * (1 + np.max(np.abs(direct)))
        assert np.allclose(v.eval_batch(thetas), direct.real, rtol=1e-12,
                           atol=1e-12)

    @pytest.mark.parametrize("v", [
        cosine_potential(5.0),
        cosine_potential(1e300),
        two_cosine_potential(50.0),
        TrigPotential(dim=1, coeffs={(0,): 0.7, (2,): 0.3 + 0.4j,
                                     (-2,): 0.3 - 0.4j}, coupling=2.5),
        TrigPotential(dim=2, coeffs={(0, 0): -0.2, (1, -1): 0.1 - 0.6j,
                                     (-1, 1): 0.1 + 0.6j}, coupling=3.0),
    ], ids=["cos", "cos-huge", "two-cos", "d1-one-harmonic",
            "d2-one-harmonic"])
    def test_bit_for_bit_with_matmul_formula(self, v):
        rng = np.random.default_rng(8)
        thetas = rng.random(1000) if v.dim == 1 else rng.random((1000, 2))
        assert np.array_equal(v.eval_batch(thetas), matmul_eval(v, thetas))

    @pytest.mark.parametrize("dim,degree", [(1, 3), (2, 2)])
    def test_random_potentials_match_matmul_formula(self, dim, degree):
        from conftest import random_trig_potential

        rng = np.random.default_rng(9)
        for _ in range(5):
            v = random_trig_potential(rng, degree=degree, dim=dim,
                                      strip_width=0.5)
            thetas = rng.random(500) if dim == 1 else rng.random((500, 2))
            tol = 1e-14 * (1.0 + np.sum(np.abs(v._c_all)))
            assert np.max(np.abs(v.eval_batch(thetas)
                                 - matmul_eval(v, thetas))) <= tol

    def test_conjugate_symmetry_enforced(self):
        with pytest.raises(ValueError):
            TrigPotential(dim=1, coeffs={(1,): 0.5 + 0.1j, (-1,): 0.5 + 0.1j})

    @pytest.mark.parametrize("coeffs", [
        {(1.5,): 0.5, (-1.5,): 0.5},
        {(1, 0.5): 0.5, (-1, -0.5): 0.5},
        {(float("nan"),): 0.5},
    ])
    def test_non_integral_wave_index_rejected(self, coeffs):
        dim = len(next(iter(coeffs)))
        with pytest.raises(ValueError, match="not integral"):
            TrigPotential(dim=dim, coeffs=coeffs)

    def test_integral_float_wave_index_accepted(self):
        v = TrigPotential(dim=1, coeffs={(1.0,): 0.5, (-1.0,): 0.5})
        assert v.coeffs == cosine_potential().coeffs

    @pytest.mark.parametrize("coeffs", [
        {1: 0.5, (1,): 0.25, (-1,): 0.5},
        {np.int64(1): 0.5, (1.0,): 0.5, (-1,): 0.5},
    ])
    def test_merged_wave_indices_rejected(self, coeffs):
        with pytest.raises(ValueError, match=r"wave vector \[1\] is given "
                                             "more than once"):
            TrigPotential(dim=1, coeffs=coeffs)

    def test_overflowing_coefficients_rejected(self):
        # 2 * 1e308 is not a double: the halves would hold inf and every
        # value would be NaN.  Rejected before any overflow warning.
        with pytest.raises(ValueError, match="overflows"):
            TrigPotential(dim=1, coeffs={(1,): 1e308, (-1,): 1e308})
        with pytest.raises(ValueError, match="overflows"):
            cosine_potential(1e308).with_coupling(1e309)
        assert cosine_potential(1e300).coefficient_bound(0.0) == 1e300

    def test_complex_restriction_matches_real(self):
        v = cosine_potential(3.0)
        ts = np.array([0.1, 0.37, 0.99])
        assert np.allclose(v.eval_batch(ts + 0j), v.eval_batch(ts),
                           rtol=0.0, atol=1e-14)

    def test_complex_cosh_on_imaginary_axis(self):
        v = cosine_potential(1.0, strip_width=2.0)
        y = 0.03
        val = complex(v.eval_batch(complex(0.0, y)))
        assert val.real == pytest.approx(math.cosh(2 * math.pi * y), rel=1e-12)
        assert val.imag == pytest.approx(0.0, abs=1e-12)

    def test_strip_guard(self):
        v = cosine_potential(1.0, strip_width=1.0)
        with pytest.raises(StripExceeded):
            v.eval_batch(complex(0.2, 0.2))


class TestStripNorm:
    # strip_norm is the coefficient bound sum |v_k| exp(2 pi |k|_1 rho) at
    # rho = strip_width/10; the exact sups below are the oracles the
    # coefficient bound must dominate.
    def test_constant(self):
        v = TrigPotential(dim=1, coeffs={(0,): -2.5}, strip_width=2.0)
        assert strip_norm(v) == v.coefficient_bound(0.2)
        assert v.coefficient_bound(0.05) == pytest.approx(2.5)

    def test_cosine_real_axis(self):
        assert cosine_potential(1.0).coefficient_bound(0.0) == \
            pytest.approx(1.0, rel=1e-12)

    def test_cosine_on_strip_matches_cosh(self):
        # |cos(2 pi (x + i rho))| peaks at x = 0 with value cosh(2 pi rho)
        rho = 0.05
        bound = cosine_potential(1.0).coefficient_bound(rho)
        assert bound == pytest.approx(math.exp(2 * math.pi * rho), rel=1e-12)
        assert bound >= math.cosh(2 * math.pi * rho)

    def test_bound_dominates_estimate_random(self):
        from conftest import random_trig_potential

        rng = np.random.default_rng(4)
        xs = np.arange(4096) / 4096
        for _ in range(5):
            v = random_trig_potential(rng, degree=3)
            for y in (0.02, -0.02):
                grid_sup = np.max(np.abs(v.eval_batch(xs + 1j * y)))
                assert v.coefficient_bound(0.02) >= grid_sup

    def test_two_torus_strip(self):
        # both cosines peak together at the origin, at 2 cosh(2 pi rho)
        rho = 0.02
        bound = two_cosine_potential(1.0).coefficient_bound(rho)
        assert bound == pytest.approx(2.0 * math.exp(2 * math.pi * rho),
                                      rel=1e-12)
        assert bound >= 2.0 * math.cosh(2 * math.pi * rho)


def system_doc(v, freq):
    """The interchange document of a potential and a frequency."""
    return {"dim": v.dim,
            "coeffs": [[*k, c.real, c.imag] for k, c in sorted(v.coeffs.items())],
            "rho": v.strip_width, "lambda": v.coupling,
            "omega": list(freq.components),
            "dio": {"A": freq.dio_A, "c": freq.dio_c}}


class TestJson:
    def test_round_trip(self, golden):
        v = cosine_potential(5.0)
        text = json.dumps(system_doc(v, golden))
        v2, f2 = system_from_json(json.loads(text))
        assert v2 == v and v2.coeffs == v.coeffs
        assert f2 == golden

    def test_dimension_mismatch_rejected(self, golden):
        doc = system_doc(cosine_potential(1.0), golden)
        doc["omega"] = [0.3, 0.4]
        with pytest.raises(ValueError):
            system_from_json(doc)

    def test_two_dim_coeff_rows(self):
        doc = {"dim": 2,
               "coeffs": [[1, 0, 0.5, 0.0], [-1, 0, 0.5, 0.0]],
               "rho": 0.5, "lambda": 2.0}
        v = potential_from_json(doc)
        assert float(v.eval_batch((0.0, 0.0))) == pytest.approx(2.0)
