import math

import numpy as np
import pytest

from conftest import dense_box, orbit_phases
from qplab import (SingularEnergy, cocycle_batch, decay_profile, eigensystem,
                   golden_frequency, green_solve, lyapunov_n, slog,
                   window_bound_check, zero_potential)
from qplab.cli import _run_localize
from qplab.localization import EigenPair, localization_summary
from qplab.transfer import box_diagonal, det_sequence


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
        ph = (0.1 + 3 * golden.components[0]) % 1.0
        assert pairs[0].energy == pytest.approx(
            5.0 * math.cos(2 * math.pi * ph), rel=1e-12)
        assert pairs[0].vector[0] == pytest.approx(1.0)

    def test_count_and_residuals(self, golden, mathieu5):
        pairs = eigensystem((-50, 50), golden, 0.0, mathieu5)
        assert len(pairs) == 101
        dense = dense_box((-50, 50), golden, 0.0, 0.0, mathieu5)
        assert max(np.linalg.norm(dense @ p.vector - p.energy * p.vector)
                   for p in pairs) <= 1e-8
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
        signs, _ = det_sequence(
            box_diagonal((1, 1000), golden, 0.0, mathieu5) - energy)
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
        prof = decay_profile(p)
        dist = np.abs(p.sites() - prof.center)
        assert prof.tail_mass == pytest.approx(
            np.linalg.norm(p.vector[dist > 50]), rel=1e-12)
        assert prof.tail_mass <= np.linalg.norm(p.vector[dist > 20]) \
            <= 1.0 + 1e-12

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


def log_hs_norm(golden, n0, energy, v):
    """log ||G_[-n0, n0](E)||_HS at theta 0, or inf where the box is singular."""
    try:
        g = green_solve((-n0, n0), golden, 0.0, energy, v)
    except SingularEnergy:
        return math.inf
    live = g.signs != 0
    return 0.5 * float(slog.add(np.abs(g.signs[live]), 2.0 * g.logs[live])[1])


class TestResonanceScan:
    # A box resonates at its own eigenvalues: ||G||_HS stays below e^20 on
    # the smaller boxes and crosses it on the box itself.
    def test_exact_eigenvalue_crosses_at_its_box(self, golden, mathieu5):
        pairs = eigensystem((-8, 8), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        logs = [log_hs_norm(golden, n0, mid.energy, mathieu5)
                for n0 in range(1, 9)]
        assert max(logs[:-1]) <= 20.0 < logs[-1]

    def test_perturbed_eigenvalue_still_crosses(self, golden, mathieu5):
        pairs = eigensystem((-8, 8), golden, 0.0, mathieu5)
        mid = min(pairs, key=lambda p: abs(p.energy))
        logs = [log_hs_norm(golden, n0, mid.energy + 1e-12, mathieu5)
                for n0 in range(1, 9)]
        assert max(logs[:-1]) <= 20.0 < logs[-1]

    def test_far_energy_no_crossing(self, golden, free):
        assert max(log_hs_norm(golden, n0, 5.0, free)
                   for n0 in range(1, 11)) <= 10.0


class TestWindowBound:
    def test_exact_eigenvector_satisfies_bound(self, golden, mathieu5):
        pairs = eigensystem((-500, 500), golden, 0.0, mathieu5)
        localized = sorted(pairs, key=lambda p: decay_profile(p).tail_mass)
        rep = window_bound_check(localized[0], 200, golden, 0.0, 0.5, mathieu5)
        assert rep.ok

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


def two_sided_growth(golden, energy, n1, shifts, v):
    """(1/n1) log ||M_n1|| per shift j at the phases j omega and
    (-j - n1) omega: the blocks just after j and just before -j."""
    fwd = cocycle_batch(golden, orbit_phases(0.0, golden, shifts), energy,
                        n1, v)
    bwd = cocycle_batch(golden, orbit_phases(0.0, golden, -shifts - n1),
                        energy, n1, v)
    return fwd / n1, bwd / n1


class TestGrowthPairSearch:
    def test_constant_cocycle_first_shift_works(self, golden, free):
        ref = lyapunov_n(golden, 3.0, 20, free).value
        fwd, bwd = two_sided_growth(golden, 3.0, 20, np.arange(11, 21), free)
        assert np.all(np.abs(fwd - ref) <= 0.05)
        assert np.all(np.abs(bwd - ref) <= 0.05)

    def test_mathieu_finds_witness(self, golden, mathieu5):
        # Some shift in (J, 2J] grows at near the average rate both ways.
        ref = lyapunov_n(golden, 0.0, 100, mathieu5).value
        fwd, bwd = two_sided_growth(golden, 0.0, 100, np.arange(1001, 2001),
                                    mathieu5)
        assert np.any((np.abs(fwd - ref) <= 0.1) & (np.abs(bwd - ref) <= 0.1))
