import math

import numpy as np
import pytest

from qplab import (GateFailed, HypothesisUnmet, PotentialConstant,
                   TrigPotential, complexified_growth_check, cosine_potential,
                   epsilon_gap, initial_scale_bound, multiscale_recursion,
                   sublevel_measure)
from qplab.lowerbound import herman_style_bound

COS = cosine_potential(1.0, strip_width=2.0)


class TestEpsilonGap:
    def test_cosine_analytic_floor(self):
        # oracle: |cos(2 pi (x+iy))|^2 = cos^2 cosh^2 + sin^2 sinh^2
        #        = cos^2(2 pi x) + sinh^2(2 pi y) >= sinh^2(2 pi y)
        gap = epsilon_gap(COS, 0.1, 0.0)
        assert 0.05 < gap.y0 < 0.1
        floor = math.sinh(2.0 * math.pi * gap.y0)
        assert gap.epsilon >= floor * (1.0 - 1e-6)
        assert gap.epsilon <= math.sinh(2.0 * math.pi * 0.1) * (1.0 + 1e-6)

    def test_constant_potential_rejected(self):
        constant = TrigPotential(dim=1, coeffs={(0,): 2.0}, strip_width=2.0)
        with pytest.raises(PotentialConstant):
            epsilon_gap(constant, 0.05, 2.0)

    def test_zero_coupling_rejected(self):
        # v = 0 * cos is the zero function, given with its harmonics.
        with pytest.raises(PotentialConstant):
            epsilon_gap(cosine_potential(0.0), 0.1, 0.5)

    def test_gap_shrinks_with_more_targets(self):
        # A target near the top of cos has a narrower gap than the centre.
        centre = epsilon_gap(COS, 0.1, 0.0)
        near_top = epsilon_gap(COS, 0.1, 0.9)
        assert near_top.epsilon <= centre.epsilon + 1e-12

    @pytest.mark.parametrize("delta", [0.0, 0.21, 0.5, 1.9])
    def test_delta_outside_the_usable_strip_rejected(self, delta):
        # The complexified line must stay below strip_width/10 = 0.2, where
        # eval_batch stops.
        with pytest.raises(ValueError, match="strip_width/10"):
            epsilon_gap(COS, delta, 0.0)

    def test_delta_on_the_strip_edge_accepted(self):
        # Every sampled height lies strictly below delta = strip_width/10.
        gap = epsilon_gap(COS, COS.strip_width / 10.0, 0.0)
        assert 0.1 < gap.y0 < 0.2
        assert gap.epsilon > 0.0

    @pytest.mark.parametrize("delta", [1e-3, 1e-4])
    def test_unsettled_gap_rejected(self, delta):
        # Near the real axis the gap still moves by more than 1% on the last
        # grid, 4096 x 512 points.
        with pytest.raises(ValueError, match=f"delta = {delta:g} "):
            epsilon_gap(COS, delta, 0.0)

    def test_grid_stability(self):
        # The settled gap agrees with the same search on a 4x finer grid.
        gap = epsilon_gap(COS, 0.1, 0.0)
        ys = 0.05 + (np.arange(128) + 1.0) * 0.05 / 129.0
        xs = (np.arange(1024) + 0.5) / 1024
        vals = np.abs(COS.eval_batch(xs[None, :] + 1j * ys[:, None]))
        assert gap.epsilon == pytest.approx(np.max(np.min(vals, axis=1)),
                                            rel=0.02)


class TestComplexifiedGrowth:
    def test_margin_nonnegative_at_threshold(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        lam = 101.0 / gap.epsilon
        rep = complexified_growth_check(lam, COS, golden, 0.0, gap.y0,
                                        gap.epsilon, 100)
        assert rep.margin >= 0.0
        assert rep.per_step_margin >= 0.0
        assert rep.uv_ok

    def test_single_step(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        lam = 101.0 / gap.epsilon
        rep = complexified_growth_check(lam, COS, golden, 0.0, gap.y0,
                                        gap.epsilon, 1)
        assert rep.margin >= 0.0

    def test_large_coupling_long_run(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        rep = complexified_growth_check(1e6, COS, golden, 0.0, gap.y0,
                                        gap.epsilon, 1000)
        assert rep.margin >= 0.0
        assert rep.uv_ok

    def test_hypothesis_gate(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        # inflated epsilon: the line infimum check must fail
        with pytest.raises(HypothesisUnmet):
            complexified_growth_check(101.0 / gap.epsilon, COS, golden, 0.0,
                                      gap.y0, 2.0 * gap.epsilon, 50)
        with pytest.raises(HypothesisUnmet):
            complexified_growth_check(50.0 / gap.epsilon, COS, golden, 0.0,
                                      gap.y0, gap.epsilon, 50)


class TestHermanBound:
    def test_sound_at_ten_times_threshold(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        lam = 10.0 * math.exp(math.log(100.0) - 100.0 * math.log(gap.epsilon))
        hb = herman_style_bound(lam, COS, 0.1, gap.epsilon, gap.y0,
                                omega=golden, energy=0.0)
        assert hb.measured.value >= hb.analytic_bound
        assert hb.sound
        assert hb.analytic_bound == pytest.approx((0.1 / 16.0) * math.log(lam))

    def test_threshold_guard(self, golden):
        gap = epsilon_gap(COS, 0.1, 0.0)
        lam0 = math.exp(math.log(100.0) - 100.0 * math.log(gap.epsilon))
        with pytest.raises(HypothesisUnmet):
            herman_style_bound(lam0, COS, 0.1, gap.epsilon, gap.y0, golden,
                               0.0)


class TestSublevelMeasure:
    def test_cosine_exponents(self):
        fit = sublevel_measure(COS, [1.0, 0.0], samples=200_000, seed=1)
        assert 0.45 <= fit.fits[1.0] <= 0.55
        assert 0.9 <= fit.fits[0.0] <= 1.1
        assert fit.worst_c0 == fit.fits[1.0]

    def test_measure_against_dense_grid_oracle(self):
        # deterministic 1e6-point grid as the oracle for two ladder rungs:
        # with two deltas the fitted exponent is the slope between them
        samples, deltas = 400_000, np.array([2.0 ** -8, 2.0 ** -5])
        grid = np.arange(1_000_000) / 1_000_000
        vals = np.cos(2 * np.pi * grid)
        oracle = np.array([np.mean(np.abs(vals - 1.0) < d) for d in deltas])
        span = math.log(deltas[1] / deltas[0])
        slope = math.log(oracle[1] / oracle[0]) / span
        # standard error of the slope from the relative errors of the two
        # fractions
        rel = np.sqrt((1.0 - oracle) / (oracle * samples))
        tol = 4.0 * math.hypot(*rel) / span
        fit = sublevel_measure(COS, [1.0], deltas=deltas, samples=samples,
                               seed=2)
        assert abs(fit.fits[1.0] - slope) <= tol

    def test_out_of_range_target_empty(self):
        fit = sublevel_measure(COS, [5.0], samples=20_000, seed=3)
        assert fit.fits[5.0] is None
        assert fit.worst_c0 is None


class TestInitialScale:
    def test_extreme_coupling_passes(self, golden):
        rep = initial_scale_bound(1e300, COS, golden, 5, seed=4)
        assert rep.margin >= 0.0
        assert rep.orbit_fraction < 1.0 / 5.0
        assert rep.theory_bound < 1.0 / 5.0

    def test_bench_coupling_rejected_by_name(self, golden):
        with pytest.raises(HypothesisUnmet) as err:
            initial_scale_bound(1e6, COS, golden, 50, seed=5)
        assert "sublevel measure bound" in str(err.value)


class TestMultiscaleRecursion:
    def test_two_torus_ladder(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2,
                                      [200, 400, 800, 1600], samples=150,
                                      seed=6)
        assert ladder.half_log_ok
        assert min(r.l_value for r in ladder.rows) > 0.5 * math.log(50.0)
        for row in ladder.rows[1:]:
            assert row.drop <= row.drop_bound
            assert row.recursion_bound_ok
        assert all(r.gate_margin > 1.0 for r in ladder.rows)
        assert not any(r.gate_strict_ok for r in ladder.rows)

    def test_single_scale_degenerate(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2, [200],
                                      samples=100, seed=7)
        assert len(ladder.rows) == 1
        assert ladder.rows[0].drop is None

    @pytest.mark.parametrize("schedule", [[1, 200], [0, 200], [-3]])
    def test_scale_below_two_rejected(self, omega2, two_cos, schedule):
        # log 1 = 0 would divide rho and the drop bound.
        with pytest.raises(ValueError, match="at least 2"):
            multiscale_recursion(50.0, two_cos, omega2, schedule, samples=100,
                                 seed=8)

    def test_weak_coupling_gate_fails(self, omega2, two_cos):
        with pytest.raises(GateFailed):
            multiscale_recursion(1.0, two_cos, omega2, [200], samples=100,
                                 seed=8)

    def test_json_keys(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2, [200, 400],
                                      samples=100, seed=9)
        doc = ladder.to_json()
        assert doc["ladder"][0].keys() >= {"n", "L", "std_error", "rho",
                                           "gate_ok", "drop_margin"}
        assert "note" in doc
        assert "telescope_ok" not in doc
