import math

import numpy as np
import pytest

from conftest import random_trig_potential
from qplab import (IterationDiverged, PavingFailed, SingularEnergy,
                   build_operator, cocycle, cosine_potential, decay_fit,
                   det_recurrence, eval_potential, green_cramer,
                   green_cramer_matrix, green_solve, pave, zero_potential)
from qplab.greens import GreenMatrix, MultiscaleParams
from qplab.transfer import _phases


def dense_green(interval, omega, theta, energy, v):
    op = build_operator(interval, omega, theta, v)
    return np.linalg.inv(op.dense(energy))


class TestBuildOperator:
    def test_single_site_free(self, golden, free):
        op = build_operator((1, 1), golden, 0.0, free)
        assert op.dense().shape == (1, 1)
        assert op.dense()[0, 0] == 0.0

    def test_diagonal_values(self, golden, mathieu5):
        op = build_operator((1, 3), golden, 0.0, mathieu5)
        w = golden.scalar()
        for i, j in enumerate((1, 2, 3)):
            assert op.diagonal[i] == pytest.approx(
                5.0 * math.cos(2.0 * math.pi * ((j * w) % 1.0)), rel=1e-12)

    def test_shift_covariance(self, golden, mathieu5):
        m = 7
        shifted_box = build_operator((1 + m, 5 + m), golden, 0.2, mathieu5)
        shifted_phase = build_operator(
            (1, 5), golden, (0.2 + m * golden.scalar()) % 1.0, mathieu5)
        assert np.allclose(shifted_box.diagonal, shifted_phase.diagonal,
                           rtol=1e-9, atol=1e-9)


class TestGreenCramer:
    def test_single_site_inverse(self, golden, mathieu5):
        val = green_cramer((4, 4), golden, 0.3, 1.5, mathieu5, 4, 4)
        ph = (0.3 + 4 * golden.scalar()) % 1.0
        expect = 1.0 / (eval_potential(mathieu5, ph) - 1.5)
        assert val.value() == pytest.approx(expect, rel=1e-12)

    def test_matches_dense_inverse_oracle(self, golden):
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = random_trig_potential(rng, degree=3)
            size = int(rng.integers(2, 13))
            a = int(rng.integers(-8, 8))
            theta, energy = rng.random(), rng.uniform(-5, 5)
            g = green_cramer_matrix((a, a + size - 1), golden, theta, energy, v)
            oracle = dense_green((a, a + size - 1), golden, theta, energy, v)
            assert np.allclose(g.values(), oracle, rtol=1e-8, atol=1e-10)

    def test_minor_factorization_against_brute_force(self, golden):
        # oracle: minors as determinants of row/column-deleted dense boxes
        rng = np.random.default_rng(11)
        for _ in range(10):
            v = random_trig_potential(rng, degree=2)
            size = int(rng.integers(2, 10))
            theta, energy = rng.random(), rng.uniform(-3, 3)
            op = build_operator((1, size), golden, theta, v)
            dense = op.dense(energy)
            full = np.linalg.det(dense)
            g = green_cramer_matrix((1, size), golden, theta, energy, v)
            for i in range(1, size + 1):
                for j in range(i, size + 1):
                    minor = np.linalg.det(
                        np.delete(np.delete(dense, i - 1, axis=0), j - 1,
                                  axis=1))
                    want = (-1.0) ** (i + j) * minor / full
                    got = g.entry(i, j).value()
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_cramer_bound_by_cocycle_norms(self, golden, mathieu5):
        # |G(i,j)| <= ||M_(i-1)|| * ||M_(n-j) at shifted phase|| / |det|
        n, theta, energy = 24, 0.37, 0.9
        g = green_cramer_matrix((1, n), golden, theta, energy, mathieu5)
        det = det_recurrence((1, n), golden, theta, energy, mathieu5).d_n
        rng = np.random.default_rng(12)
        for _ in range(30):
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(i, n + 1))
            left = cocycle(golden, theta, energy, i - 1, mathieu5).log_norm \
                if i > 1 else 0.0
            right = cocycle(golden, theta, energy, n - j, mathieu5,
                            start=j).log_norm if j < n else 0.0
            assert g.entry(i, j).log_mag <= left + right - det.log_mag + 1e-9

    def test_singular_energy(self, golden, free):
        # 1x1 free box at E = 0 is exactly singular
        with pytest.raises(SingularEnergy):
            green_cramer((1, 1), golden, 0.0, 0.0, free, 1, 1)


class TestGreenSolve:
    def test_two_site_closed_form(self, golden, free):
        g = green_solve((1, 2), golden, 0.0, 3.0, free)
        expect = np.linalg.inv(np.array([[-3.0, 1.0], [1.0, -3.0]]))
        assert np.allclose(g.values(), expect, rtol=1e-12)

    def test_residual_and_symmetry(self, golden):
        v = cosine_potential(10.0)
        op = build_operator((1, 80), golden, 0.123, v)
        g = green_solve((1, 80), golden, 0.123, 0.0, v)
        assert g.residual(op) <= 1e-8
        assert g.symmetry_defect() <= 1e-9

    def test_agrees_with_cramer(self, golden):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(25):
            v = random_trig_potential(rng, degree=3,
                                      amplitude=float(rng.uniform(0.3, 2.0)))
            size = int(rng.integers(10, 200))
            theta, energy = rng.random(), rng.uniform(-10, 10)
            trip = det_recurrence((1, size), golden, theta, energy, v)
            if trip.d_n.log_mag < -50:
                continue
            gc = green_cramer_matrix((1, size), golden, theta, energy, v)
            gs = green_solve((1, size), golden, theta, energy, v)
            live = (gc.signs != 0) & (gs.signs != 0)
            assert np.array_equal(gc.signs[live], gs.signs[live])
            assert np.max(np.abs(gc.logs[live] - gs.logs[live])) <= 1e-8
            checked += 1
        assert checked >= 15

    def test_csv_lines(self, golden, free):
        g = green_solve((1, 3), golden, 0.0, 3.0, free)
        lines = g.csv_lines()
        assert lines[0] == "n1,n2,sign,log_mag"
        assert len(lines) == 10

    def test_csv_lines_match_entrywise_reference(self, golden, mathieu5):
        g = green_solve((-4, 7), golden, 0.2, 0.5, mathieu5)
        g.signs[0, 11] = g.signs[11, 0] = 0
        g.logs[0, 11] = g.logs[11, 0] = -math.inf
        assert {-1, 0, 1} <= set(g.signs.ravel().tolist())
        a, n = -4, 12
        want = ["n1,n2,sign,log_mag"] + [
            f"{a + i},{a + j},{int(g.signs[i, j])},{float(g.logs[i, j])!r}"
            for i in range(n) for j in range(n)]
        assert g.csv_lines() == want


class TestDecayFit:
    def test_free_offdiagonal_rate(self, golden, free):
        # oracle: dense inverse of the free chain at E = 3 decays at the
        # log of the large root of x + 1/x = 3
        g = green_solve((1, 200), golden, 0.0, 3.0, free)
        fit = decay_fit(g, 10)
        target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        dense = np.abs(dense_green((1, 200), golden, 0.0, 3.0, free))
        idx = np.arange(200)
        sep = np.abs(idx[:, None] - idx[None, :])
        mask = sep >= 10
        oracle = -np.polyfit(sep[mask], np.log(dense[mask] + 1e-320), 1)[0]
        assert fit.rate == pytest.approx(oracle, rel=1e-3)
        assert fit.rate == pytest.approx(target, abs=5e-3)

    def test_localized_rate_reflects_exponent(self, golden, mathieu5):
        from qplab import lyapunov_limit

        g = green_solve((1, 400), golden, 0.05, 0.0, mathieu5)
        fit = decay_fit(g, 20)
        limit = lyapunov_limit(golden, 0.0, mathieu5, [250, 500, 1000],
                               sampler=None)
        assert fit.rate >= 0.8 * limit.estimate

    @pytest.mark.parametrize("case", ["random", "mathieu-box"])
    def test_matches_polyfit_formula(self, golden, mathieu5, case):
        rng = np.random.default_rng(12)
        if case == "random":
            n = 160
            idx = np.arange(n)
            sep = np.abs(idx[:, None] - idx[None, :])
            logs = -(0.7 * sep + 3.0 + rng.normal(size=(n, n)))
            signs = rng.choice(np.array([-1, 1], dtype=np.int8), (n, n))
            zero = rng.random((n, n)) < 0.05
            signs[zero], logs[zero] = 0, -math.inf
            logs[rng.random((n, n)) < 0.02] = -math.inf
            g = GreenMatrix((1, n), signs, logs, 0.0)
            min_sep = 12
        else:
            g = green_solve((-150, 150), golden, 0.2, 0.5, mathieu5)
            min_sep = 20
        n = g.size
        idx = np.arange(n)
        sep = np.abs(idx[:, None] - idx[None, :])
        mask = (sep >= min_sep) & (g.signs != 0) & np.isfinite(g.logs)
        x = sep[mask].astype(float)
        y = -g.logs[mask]
        rate, intercept = np.polyfit(x, y, 1)
        resid = float(np.sqrt(np.mean((y - (rate * x + intercept)) ** 2)))
        fit = decay_fit(g, min_sep)
        assert fit.rate == pytest.approx(rate, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept, rel=1e-10)
        assert fit.residual == pytest.approx(resid, rel=1e-10)
        assert fit.pairs == int(mask.sum())

    def test_min_sep_guard(self, golden, free):
        g = green_solve((1, 8), golden, 0.0, 3.0, free)
        with pytest.raises(ValueError):
            decay_fit(g, 4)


class TestPave:
    def test_degenerate_single_window(self, golden):
        v = cosine_potential(10.0)
        res = pave((1, 40), 50, golden, 0.0, 13.0, v, c=0.5)
        direct = green_solve((1, 40), golden, 0.0, 13.0, v)
        assert np.array_equal(res.green.signs, direct.signs)
        assert np.allclose(res.green.logs, direct.logs, equal_nan=True)

    def test_off_spectrum_assembly_matches_dense(self, golden):
        v = cosine_potential(10.0)
        res = pave((1, 400), 50, golden, 0.0, 13.0, v, c=1.0)
        assert res.certificate.rate >= 0.5
        assert res.certificate.contraction < 0.5
        direct = green_solve((1, 400), golden, 0.0, 13.0, v)
        idx = np.arange(400)
        sep = np.abs(idx[:, None] - idx[None, :])
        far = (sep >= 100) & (res.green.signs != 0) & (direct.signs != 0)
        rel = np.abs(res.green.logs[far] - direct.logs[far]) \
            / np.abs(direct.logs[far])
        assert np.max(rel) <= 0.25
        assert np.array_equal(res.green.signs[far], direct.signs[far])

    def test_window_form_interval(self, golden):
        # paving an interval of the form [N/2, 2N] keeps exponential decay
        v = cosine_potential(10.0)
        n_big = 120
        res = pave((n_big // 2, 2 * n_big), 40, golden, 0.0, 13.0, v, c=1.0)
        g = res.green
        idx = np.arange(g.size)
        sep = np.abs(idx[:, None] - idx[None, :])
        live = g.signs != 0
        delta = res.certificate.rate / 2.0
        assert np.all(g.logs[live] <= -delta * sep[live] + 40.0)

    def test_paving_failure_lists_sites(self, golden, mathieu5):
        # mid-spectrum energy: windows resonate or decay too slowly
        pairs_energy = 0.0
        with pytest.raises(PavingFailed) as err:
            pave((1, 200), 30, golden, 0.0, pairs_energy, mathieu5, c=5.0)
        assert len(err.value.sites) > 0

    def test_iteration_divergence_guard(self, golden, free):
        # barely off-spectrum free chain: window decay too weak for hops
        with pytest.raises((IterationDiverged, PavingFailed)):
            pave((1, 200), 10, golden, 0.0, 2.05, free, c=0.05, beta=0.5)

    def test_multiscale_report(self, golden):
        v = cosine_potential(10.0)
        params = MultiscaleParams(rho=0.3, gamma=-1.0, n0=50,
                                 log_norm_bound=math.log(11.0))
        res = pave((1, 300), 50, golden, 0.0, 13.0, v, c=1.0,
                   multiscale=params)
        ms = res.certificate.multiscale
        assert ms is not None
        assert ms["sup_bound_log"] == pytest.approx(
            math.log(2.0) + 7.0 * 0.3 * 50 * math.log(11.0))
        assert ms["refined_rate_target"] == pytest.approx(-1.0 * (1 - 6.0))
        assert ms["sup_ok"]

    def test_cover_protects_every_site(self, golden):
        a, b = -40, 79
        big = b - a + 1
        for n in (2, 3, 7, 50):
            res = pave((a, b), n, golden, 0.0, 13.0, cosine_potential(10.0),
                       c=1.0)
            cover = res.certificate.windows
            assert min(lo for lo, _ in cover) == a
            assert max(hi for _, hi in cover) == b
            margin = max(1, n // 10)
            for x in range(a, b + 1):
                need = (max(a, x - margin + 1), min(b, x + margin - 1))
                assert any(lo <= need[0] and hi >= need[1]
                           for lo, hi in cover)
            assert len(cover) <= math.ceil(big / max(1, n // 4)) + 1

    @pytest.mark.parametrize("n", [2, 3, 4, 7, 12, 50])
    def test_assembly_matches_dense_solve(self, golden, n):
        v = cosine_potential(10.0)
        for big in sorted({n + 1, 2 * n - 1, 2 * n + 1, 300}):
            res = pave((1, big), n, golden, 0.0, 13.0, v, c=1.0)
            direct = green_solve((1, big), golden, 0.0, 13.0, v)
            assert np.array_equal(res.green.signs, direct.signs)
            live = direct.signs != 0
            assert np.max(np.abs(res.green.logs[live]
                                 - direct.logs[live])) <= 1e-9

    def test_certificate_json_round_trip(self, golden):
        import json

        v = cosine_potential(10.0)
        res = pave((1, 150), 50, golden, 0.0, 13.0, v, c=1.0)
        doc = json.loads(json.dumps(res.certificate.to_json()))
        assert doc["rate_ok"]
        assert doc["failures"] == []
        assert doc["windows_used"]
