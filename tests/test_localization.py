import math

import numpy as np
import pytest

from qplab import (EigenPair, SingularEnergy, build_operator, decay_profile,
                   eigensystem, golden_frequency, growth_pair_search,
                   lyapunov_n, resonance_scan, window_bound_check,
                   zero_potential)
from qplab.cli import _run_localize
from qplab.localization import localization_summary
from qplab.transfer import det_sequence


class TestEigensystem:
    def test_free_chain_closed_form(self, golden, free):
        # oracle: eigenvalues of the free tridiagonal chain are
        # 2 cos(pi k / (n+1)), k = 1..n
        n = 30
        pairs = eigensystem((1, n), golden, 0.0, free)
        got = np.array([p.energy for p in pairs])
        want = np.sort(2.0 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        assert np.allclose(got, want, atol=1e-12)

    def test_single_site(self, golden, mathieu5):
        pairs = eigensystem((3, 3), golden, 0.1, mathieu5)
        assert len(pairs) == 1
        ph = (0.1 + 3 * golden.scalar()) % 1.0
        assert pairs[0].energy == pytest.approx(
            5.0 * math.cos(2 * math.pi * ph), rel=1e-12)
        assert pairs[0].vector[0] == pytest.approx(1.0)

    def test_count_and_residuals(self, golden, mathieu5):
        pairs = eigensystem((-50, 50), golden, 0.0, mathieu5)
        assert len(pairs) == 101
        op = build_operator((-50, 50), golden, 0.0, mathieu5)
        assert max(p.residual(op) for p in pairs) <= 1e-8
        norms = [np.linalg.norm(p.vector) for p in pairs]
        assert max(abs(x - 1.0) for x in norms) <= 1e-12

    def test_sorted_and_interlacing(self, golden, mathieu5):
        outer = [p.energy for p in eigensystem((1, 40), golden, 0.2, mathieu5)]
        inner = [p.energy for p in eigensystem((1, 39), golden, 0.2, mathieu5)]
        assert outer == sorted(outer)
        # Cauchy interlacing for the one-row-smaller principal submatrix
        for k in range(39):
            assert outer[k] <= inner[k] + 1e-12
            assert inner[k] <= outer[k + 1] + 1e-12

    @pytest.mark.parametrize("energy", [-3.0, 0.1, 2.2])
    def test_sturm_count_matches_eigenvalues_below(self, golden, mathieu5,
                                                   energy):
        # Exact identity, zero tolerance: the leading minors det(H_k - E),
        # k = 0..n, change sign once per eigenvalue of H_n below E.  It ties
        # the continuant route to the eigensolver.
        signs, _ = det_sequence((1, 1000), golden, 0.0, energy, mathieu5)
        assert np.all(signs != 0)
        changes = int(np.count_nonzero(signs[1:] != signs[:-1]))
        below = sum(p.energy < energy
                    for p in eigensystem((1, 1000), golden, 0.0, mathieu5))
        print(f"E = {energy}: {changes} sign changes, {below} eigenvalues "
              f"below")
        assert changes == below


class TestDecayProfile:
    def test_synthetic_exponential(self):
        sites = np.arange(-60, 61)
        xi = np.exp(-0.9 * np.abs(sites))
        xi /= np.linalg.norm(xi)
        pair = EigenPair(0.0, xi, (-60, 60))
        prof = decay_profile(pair)
        assert prof.center == 0
        assert prof.rate == pytest.approx(0.9, rel=1e-10)
        assert prof.r2 == pytest.approx(1.0, abs=1e-12)

    def test_flat_vector(self):
        xi = np.ones(101) / math.sqrt(101)
        prof = decay_profile(EigenPair(0.0, xi, (-50, 50)))
        assert prof.rate == pytest.approx(0.0, abs=1e-12)
        assert prof.r2 <= 0.5

    def test_mathieu_mid_spectrum_localized(self, golden, mathieu5):
        pairs = eigensystem((-500, 500), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        prof = decay_profile(mid)
        assert prof.rate >= 0.8 * math.log(2.5)
        assert prof.r2 >= 0.95

    def test_tail_mass_monotone_in_radius(self, golden, mathieu5):
        pairs = eigensystem((-200, 200), golden, 0.0, mathieu5)
        p = pairs[200]
        t1 = decay_profile(p, tail_radius=20).tail_mass
        t2 = decay_profile(p, tail_radius=50).tail_mass
        assert t2 <= t1 <= 1.0 + 1e-12

    def test_profile_csv(self, golden, mathieu5):
        config = {"interval": [0, 5], "theta": 0.0, "top_profiles": 1}
        lines = _run_localize(config, mathieu5, golden, 0)["profile_00.csv"]
        assert lines[0] == "index,abs,log_abs"
        assert len(lines) == 7


class TestLocalizationScan:
    def test_summary_keys(self, golden, mathieu5):
        pairs = eigensystem((-100, 100), golden, 0.0, mathieu5)
        profiles = [decay_profile(p) for p in pairs]
        out = localization_summary((-100, 100), mathieu5, profiles,
                                   rate_threshold=0.7)
        assert set(out) >= {"box", "lambda", "pct_localized", "median_rate"}
        assert out["lambda"] == 5.0
        assert 0.0 <= out["pct_localized"] <= 100.0


class TestResonanceScan:
    def test_exact_eigenvalue_crosses_at_its_box(self, golden, mathieu5):
        pairs = eigensystem((-8, 8), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        hit = resonance_scan(golden, mid.energy, 12, math.e, mathieu5,
                             reference_n=20)
        assert hit == 8

    def test_perturbed_eigenvalue_still_crosses(self, golden, mathieu5):
        pairs = eigensystem((-8, 8), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        hit = resonance_scan(golden, mid.energy + 1e-12, 12, math.e, mathieu5,
                             reference_n=20)
        assert hit == 8

    def test_far_energy_no_crossing(self, golden):
        v = zero_potential().with_coupling(0.5)
        assert resonance_scan(golden, 5.0, 10, math.e, v,
                              reference_n=10) is None

    def test_monotone_in_threshold(self, golden, mathieu5):
        pairs = eigensystem((-8, 8), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        lo = resonance_scan(golden, mid.energy + 1e-10, 15, math.e, mathieu5,
                            reference_n=10)
        hi = resonance_scan(golden, mid.energy + 1e-10, 15, math.e, mathieu5,
                            reference_n=22)
        if lo is not None and hi is not None:
            assert hi >= lo


class TestWindowBound:
    def test_exact_eigenvector_satisfies_bound(self, golden, mathieu5):
        pairs = eigensystem((-500, 500), golden, 0.0, mathieu5)
        localized = sorted(pairs, key=lambda p: decay_profile(p).tail_mass)
        rep = window_bound_check(localized[0], 200, golden, 0.0, 0.5, mathieu5)
        assert rep.ok
        assert rep.window == (100, 400)

    def test_support_away_from_window(self):
        # synthetic vector supported left of the window: the bound is 0 <= 0
        sites = np.arange(-50, 500)
        xi = np.zeros(sites.size)
        xi[0] = 1.0
        pair = EigenPair(0.123, xi, (-50, 499))
        golden = golden_frequency()
        rep = window_bound_check(pair, 120, golden, 0.0, 0.5, zero_potential())
        assert rep.peak_value == 0.0
        assert rep.peak_ok

    def test_peak_bound_for_localized_state(self, golden, mathieu5):
        pairs = eigensystem((-500, 500), golden, 0.0, mathieu5)
        localized = sorted(pairs, key=lambda p: decay_profile(p).tail_mass)
        checked = 0
        for p in localized[:20]:
            rep = window_bound_check(p, 200, golden, 0.0, 0.5, mathieu5)
            assert rep.ok and rep.peak_ok
            checked += 1
        assert checked == 20


class TestGrowthPairSearch:
    def test_constant_cocycle_first_shift_works(self, golden, free):
        res = growth_pair_search(golden, 3.0, 20, 10, free, tolerance=0.05)
        assert res.j == 11

    def test_mathieu_finds_witness(self, golden, mathieu5):
        res = growth_pair_search(golden, 0.0, 100, 1000, mathieu5,
                                 tolerance=0.1)
        assert res.j is not None
        assert 1000 < res.j <= 2000
        # independent scan: the returned shift is the first admissible one
        ref = res.reference
        ok = (np.abs(res.forward - ref) <= 0.1) & \
             (np.abs(res.backward - ref) <= 0.1)
        first = int(np.argmax(ok)) + 1001
        assert res.j == first

    def test_zero_tolerance_finds_nothing(self, golden, mathieu5):
        res = growth_pair_search(golden, 0.0, 50, 40, mathieu5, tolerance=0.0)
        assert res.j is None
