import math

import numpy as np
import pytest

from qplab import (DescentExhausted, DropExceeded, GateFailed,
                   HypothesisUnmet, PotentialConstant, SamplerSpec,
                   complexified_growth_check, constant_potential,
                   cosine_potential, epsilon_gap, epsilon_gap_min,
                   herman_style_bound, initial_scale_bound, lyapunov_n,
                   multiscale_recursion, scale_selection,
                   shift_deviation_fraction, sublevel_measure)

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
        with pytest.raises(PotentialConstant):
            epsilon_gap(constant_potential(2.0), 0.05, 2.0)

    def test_gap_shrinks_with_more_targets(self):
        single = epsilon_gap_min(COS, 0.1, [0.0])
        double = epsilon_gap_min(COS, 0.1, [0.0, 0.9])
        assert double.epsilon <= single.epsilon + 1e-12

    def test_grid_stability(self):
        a = epsilon_gap(COS, 0.1, 0.0, x_grid=256, y_grid=32)
        b = epsilon_gap(COS, 0.1, 0.0, x_grid=512, y_grid=64)
        assert a.epsilon == pytest.approx(b.epsilon, rel=0.02)


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
                                omega=golden)
        assert hb.measured.value >= hb.analytic_bound
        assert hb.sound
        assert hb.analytic_bound == pytest.approx((0.1 / 16.0) * math.log(lam))
        assert hb.analytic_bound <= hb.ceiling_log

    def test_threshold_guard(self):
        gap = epsilon_gap(COS, 0.1, 0.0)
        lam0 = math.exp(math.log(100.0) - 100.0 * math.log(gap.epsilon))
        with pytest.raises(HypothesisUnmet):
            herman_style_bound(lam0, COS, 0.1, gap.epsilon, gap.y0)


class TestSublevelMeasure:
    def test_cosine_exponents(self):
        fit = sublevel_measure(COS, [1.0, 0.0], samples=200_000, seed=1)
        assert 0.45 <= fit.fits[1.0] <= 0.55
        assert 0.9 <= fit.fits[0.0] <= 1.1
        assert fit.worst_c0 == fit.fits[1.0]

    def test_measure_against_dense_grid_oracle(self):
        # deterministic 1e6-point grid as the oracle for two ladder rungs
        grid = np.arange(1_000_000) / 1_000_000
        vals = np.cos(2 * np.pi * grid)
        fit = sublevel_measure(COS, [1.0], deltas=[2.0 ** -8, 2.0 ** -5],
                               samples=400_000, seed=2)
        for row in fit.rows:
            oracle = float(np.mean(np.abs(vals - 1.0) < row.delta))
            assert abs(row.fraction - oracle) <= 4.0 * row.std_error + 1e-6

    def test_out_of_range_target_empty(self):
        fit = sublevel_measure(COS, [5.0], samples=20_000, seed=3)
        assert all(r.fraction == 0.0 for r in fit.rows)
        assert fit.fits[5.0] is None
        assert fit.worst_c0 is None


class TestInitialScale:
    def test_extreme_coupling_passes(self, golden):
        rep = initial_scale_bound(1e300, COS, golden, 5, samples=20_000,
                                  seed=4)
        assert rep.margin >= 0.0
        assert rep.orbit_fraction < 1.0 / 5.0
        assert rep.theory_bound < 1.0 / 5.0

    def test_bench_coupling_rejected_by_name(self, golden):
        with pytest.raises(HypothesisUnmet) as err:
            initial_scale_bound(1e6, COS, golden, 50, samples=20_000, seed=5)
        assert "sublevel measure bound" in str(err.value)


class TestScaleSelection:
    def test_constant_table_immediate(self):
        table = {n: 1.5 for n in (10, 30, 100, 300, 1000)}
        sel = scale_selection(table, 1000, 0.3, math.log(3.0))
        assert sel.n0 == 1000
        assert sel.ok

    def test_forced_single_descent(self):
        # top scale fails the near-equality test, the next level succeeds
        table = {1000: 1.0, 300: 1.4, 90: 1.4}
        sel = scale_selection(table, 1000, 0.3, math.log(3.0))
        assert sel.n0 == 300

    def test_descent_exhausted_on_missing_scales(self):
        with pytest.raises(DescentExhausted):
            scale_selection({1000: 1.0, 300: 1.5}, 1000, 0.3, math.log(3.0))

    def test_descent_exhausted_below_sqrt_floor(self):
        # every level grows by more than (1 + rho): descent never succeeds
        table = {}
        n, val = 400, 1.0
        while n >= 1:
            table[n] = val
            val *= 2.0
            n = int(0.3 * n)
        with pytest.raises(DescentExhausted):
            scale_selection(table, 400, 0.3, math.log(3.0))

    def test_measured_mathieu_table(self, golden):
        v = cosine_potential(50.0)
        ns = [2000, 600, 180, 54]
        table = {n: lyapunov_n(golden, 0.0, n, v, SamplerSpec("grid", 128)).value
                 for n in ns}
        sel = scale_selection(table, 2000, 0.3, math.log(51.0))
        assert sel.n0 > 45


class TestMultiscaleRecursion:
    def test_two_torus_ladder(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2,
                                      [200, 400, 800, 1600], samples=150,
                                      seed=6)
        assert ladder.half_log_ok
        assert ladder.min_l() > 0.5 * math.log(50.0)
        for row in ladder.rows[1:]:
            assert row.drop <= row.drop_bound
            assert row.recursion_bound_ok
        assert all(r.gate_ok for r in ladder.rows)
        assert not any(r.gate_strict_ok for r in ladder.rows)

    def test_single_scale_degenerate(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2, [200],
                                      samples=100, seed=7)
        assert len(ladder.rows) == 1
        assert ladder.rows[0].drop is None

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

    def test_telescope_reported(self, omega2, two_cos):
        ladder = multiscale_recursion(50.0, two_cos, omega2, [200, 400],
                                      samples=100, seed=10)
        assert ladder.telescope_ok


class TestMultiscalePavingBridge:
    def test_params_and_paved_report(self, golden):
        from qplab import multiscale_paving_params, pave

        params = multiscale_paving_params(l_n0=2.3, rho=0.5, n0=50,
                                          log_norm_bound=math.log(11.0))
        assert params.gamma == pytest.approx(2.3 - 70.0 * 0.5 * math.log(11.0))
        res = pave((1, 300), 50, golden, 0.0, 13.0, cosine_potential(10.0),
                   c=1.0, multiscale=params)
        ms = res.certificate.multiscale
        assert ms is not None and ms["gamma"] == pytest.approx(params.gamma)
        # desk-scale exponents make the refined target informational only;
        # the report must carry it together with the sup bound verdict
        assert ms["refined_rate_target"] == pytest.approx(
            params.gamma * (1.0 - 300.0 / 50))
        assert ms["sup_ok"]


class TestShiftDeviationPredicate:
    def test_small_sample_report(self, golden, mathieu5):
        rep = shift_deviation_fraction(golden, mathieu5, 0.0, n0=64,
                                       big_n=200, sigma=0.5, samples=50,
                                       shifts=4, scales=3, seed=11)
        assert 0.0 <= rep.bad_fraction <= 1.0
        assert rep.threshold > 0.0
        assert 0.0 < rep.reference < 1.0
