import math
import tracemalloc
from typing import List, Tuple

import numpy as np
import pytest

from conftest import dense_box, orbit_phases, random_trig_potential
from qplab import (IterationDiverged, PavingFailed, SingularEnergy,
                   cocycle_batch, cosine_potential, decay_fit,
                   green_cramer_matrix, green_solve, greens, lyapunov_n, pave,
                   slog)
from qplab.greens import (DecayFit, GreenMatrix, PaveResult,
                          PavingCertificate, _certificate, _check_det,
                          _window_admissible)
from qplab.model import Frequency, TrigPotential
from qplab.transfer import box_diagonal, det_sequence


def dense_green(interval, omega, theta, energy, v):
    return np.linalg.inv(dense_box(interval, omega, theta, energy, v))


class TestBoxDiagonal:
    def test_single_site_free(self, golden, free):
        diag = box_diagonal((1, 1), golden, 0.0, free)
        assert diag.shape == (1,)
        assert diag[0] == 0.0
        assert dense_box((1, 1), golden, 0.0, 0.0, free)[0, 0] == 0.0

    def test_diagonal_values(self, golden, mathieu5):
        diag = box_diagonal((1, 3), golden, 0.0, mathieu5)
        w = golden.components[0]
        for i, j in enumerate((1, 2, 3)):
            assert diag[i] == pytest.approx(
                5.0 * math.cos(2.0 * math.pi * ((j * w) % 1.0)), rel=1e-12)
        assert diag == pytest.approx(
            np.diag(dense_box((1, 3), golden, 0.0, 0.0, mathieu5)), rel=1e-12)

    def test_shift_covariance(self, golden, mathieu5):
        m = 7
        shifted_box = box_diagonal((1 + m, 5 + m), golden, 0.2, mathieu5)
        shifted_phase = box_diagonal(
            (1, 5), golden, (0.2 + m * golden.components[0]) % 1.0, mathieu5)
        assert np.allclose(shifted_box, shifted_phase, rtol=1e-9, atol=1e-9)

    def test_empty_interval(self, golden, mathieu5):
        with pytest.raises(ValueError):
            box_diagonal((3, 2), golden, 0.0, mathieu5)

    @pytest.mark.parametrize("phases", [
        [0.1, 0.2, 0.3], [0.1], [[0.1, 0.2]], [[0.1, 0.2], [0.3, 0.4]]],
        ids=["d1-three", "d1-one", "d2-one", "d2-two"])
    def test_phase_array_rejected(self, golden, omega2, mathieu5, two_cos,
                                  phases):
        # A box has one phase; an array of them would put site j at phase
        # j.  Every box consumer reads the diagonal here.
        omega, v = ((golden, mathieu5) if np.ndim(phases) == 1
                    else (omega2, two_cos))
        with pytest.raises(ValueError, match="one phase"):
            box_diagonal((1, 3), omega, phases, v)
        with pytest.raises(ValueError, match="one phase"):
            green_solve((1, 5), omega, np.asarray(phases), 0.3, v)


def oracle_green_cramer_matrix(interval: Tuple[int, int], omega: Frequency,
                               theta, energy: float,
                               v: TrigPotential) -> GreenMatrix:
    """`green_cramer_matrix` as it was before it read entry (i, j) at
    (min(i, j), max(i, j)): the upper triangle, mirrored by `np.where`."""
    a, b = int(interval[0]), int(interval[1])
    n = b - a + 1
    diag = box_diagonal((a, b), omega, theta, v) - energy
    lead_s, lead_l = det_sequence(diag)
    trail_s, trail_l = det_sequence(diag[::-1])
    _check_det((a, b), int(lead_s[n]), float(lead_l[n]))
    i = np.arange(1, n + 1)
    lg_i = lead_l[i - 1]
    sg_i = lead_s[i - 1].astype(np.int64)
    tg_j = trail_l[n - i]
    ts_j = trail_s[n - i].astype(np.int64)
    checker = np.where(((i[:, None] + i[None, :]) % 2) == 0, 1, -1)
    signs = checker * sg_i[:, None] * ts_j[None, :] * int(lead_s[n])
    logs = lg_i[:, None] + tg_j[None, :] - float(lead_l[n])
    upper = np.triu(np.ones((n, n), dtype=bool))
    signs = np.where(upper, signs, signs.T).astype(np.int8)
    logs = np.where(upper, logs, logs.T)
    logs = np.where(signs == 0, -math.inf, logs)
    return GreenMatrix(interval=(a, b), signs=signs, logs=logs)


class TestGreenCramer:
    def test_same_bits_as_mirrored_triangle(self, golden, free):
        rng = np.random.default_rng(29)
        boxes = [((1, 2 * m), golden, 0.0, 0.0, free) for m in (1, 2, 5)]
        for _ in range(200):
            v = random_trig_potential(rng, degree=3,
                                      amplitude=float(rng.uniform(0.3, 20.0)))
            a = int(rng.integers(-50, 50))
            size = int(rng.integers(1, 120))
            boxes.append(((a, a + size - 1), golden, rng.random(),
                          rng.uniform(-10.0, 10.0), v))
        zeros = 0
        for box in boxes:
            try:
                want = oracle_green_cramer_matrix(*box)
            except SingularEnergy:
                with pytest.raises(SingularEnergy):
                    green_cramer_matrix(*box)
                continue
            got = green_cramer_matrix(*box)
            assert got.signs.dtype == want.signs.dtype
            assert np.array_equal(got.signs, want.signs)
            assert np.array_equal(got.logs, want.logs)
            zeros += int(np.count_nonzero(want.signs == 0))
        # The free boxes at E = 0 have vanishing minors.
        assert zeros > 0

    def test_single_site_inverse(self, golden, mathieu5):
        g = green_cramer_matrix((4, 4), golden, 0.3, 1.5, mathieu5)
        ph = (0.3 + 4 * golden.components[0]) % 1.0
        expect = 1.0 / (float(mathieu5.eval_batch(ph)) - 1.5)
        assert g.values()[0, 0] == pytest.approx(expect, rel=1e-12)

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
            dense = dense_box((1, size), golden, theta, energy, v)
            full = np.linalg.det(dense)
            g = green_cramer_matrix((1, size), golden, theta, energy, v)
            for i in range(1, size + 1):
                for j in range(i, size + 1):
                    minor = np.linalg.det(
                        np.delete(np.delete(dense, i - 1, axis=0), j - 1,
                                  axis=1))
                    want = (-1.0) ** (i + j) * minor / full
                    got = g.values()[i - 1, j - 1]
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)

    def test_cramer_bound_by_cocycle_norms(self, golden, mathieu5):
        # |G(i,j)| <= ||M_(i-1)|| * ||M_(n-j) at shifted phase|| / |det|
        n, theta, energy = 24, 0.37, 0.9
        g = green_cramer_matrix((1, n), golden, theta, energy, mathieu5)
        diag = box_diagonal((1, n), golden, theta, mathieu5) - energy
        det_log = det_sequence(diag)[1][-1]
        rng = np.random.default_rng(12)
        for _ in range(30):
            i = int(rng.integers(1, n + 1))
            j = int(rng.integers(i, n + 1))
            left = cocycle_batch(golden, theta, energy, i - 1,
                                 mathieu5)[0] if i > 1 else 0.0
            right = cocycle_batch(golden, orbit_phases(theta, golden, j),
                                  energy, n - j, mathieu5)[0] if j < n else 0.0
            assert g.logs[i - 1, j - 1] <= left + right - det_log + 1e-9

    def test_singular_energy(self, golden, free):
        # 1x1 free box at E = 0 is exactly singular
        with pytest.raises(SingularEnergy):
            green_cramer_matrix((1, 1), golden, 0.0, 0.0, free)


class TestGreenSolve:
    def test_two_site_closed_form(self, golden, free):
        g = green_solve((1, 2), golden, 0.0, 3.0, free)
        expect = np.linalg.inv(np.array([[-3.0, 1.0], [1.0, -3.0]]))
        assert np.allclose(g.values(), expect, rtol=1e-12)

    def test_residual_and_symmetry(self, golden):
        # Every entry of this box is at most e^300, so the max-norm defect
        # of (A - E) G - I covers every column.
        v = cosine_potential(10.0)
        g = green_solve((1, 80), golden, 0.123, 0.0, v)
        assert np.max(g.logs) <= 300.0
        dense = dense_box((1, 80), golden, 0.123, 0.0, v)
        assert np.max(np.abs(dense @ g.values() - np.eye(80))) <= 1e-8
        live = (g.signs != 0) & (g.signs.T != 0)
        assert np.array_equal(g.signs[live], g.signs.T[live])
        assert np.max(np.abs(g.logs[live] - g.logs.T[live])) <= 1e-9

    def test_agrees_with_cramer(self, golden):
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(25):
            v = random_trig_potential(rng, degree=3,
                                      amplitude=float(rng.uniform(0.3, 2.0)))
            size = int(rng.integers(10, 200))
            theta, energy = rng.random(), rng.uniform(-10, 10)
            diag = box_diagonal((1, size), golden, theta, v) - energy
            if det_sequence(diag)[1][-1] < -50:
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
        csv = g.csv_lines()
        lines = [csv.HEADER, *csv.span_text(range(3)).splitlines()]
        assert lines[0] == "n1,n2,sign,log_mag"
        assert len(lines) == 10
        assert len(csv) == 10

    def test_csv_lines_match_entrywise_reference(self, golden, mathieu5):
        g = green_solve((-4, 7), golden, 0.2, 0.5, mathieu5)
        g.signs[0, 11] = g.signs[11, 0] = 0
        g.logs[0, 11] = g.logs[11, 0] = -math.inf
        assert {-1, 0, 1} <= set(g.signs.ravel().tolist())
        a, n = -4, 12
        want = ["n1,n2,sign,log_mag"] + [
            f"{a + i},{a + j},{int(g.signs[i, j])},{float(g.logs[i, j])!r}"
            for i in range(n) for j in range(n)]
        lines = g.csv_lines()
        assert len(lines) == n * n + 1
        # Formatted afresh, and the same, on every call.
        text = lines.span_text(range(n))
        assert text.endswith("\n")
        assert [lines.HEADER, *text.splitlines()] == want
        assert lines.span_text(range(n)) == text


    @pytest.mark.parametrize("lines", [1, 12, 30, 100, 1000])
    def test_csv_spans_join_to_the_lines(self, golden, mathieu5, lines):
        g = green_solve((-4, 7), golden, 0.2, 0.5, mathieu5)
        csv = g.csv_lines()
        spans = csv.spans(lines)
        assert [i for rows in spans for i in rows] == list(range(12))
        assert all(len(rows) == max(1, min(12, lines // 12))
                   for rows in spans[:-1])
        text = "".join(csv.span_text(rows) for rows in spans)
        assert text == csv.span_text(range(12))


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
        g = green_solve((1, 400), golden, 0.05, 0.0, mathieu5)
        fit = decay_fit(g, 20)
        limit = min(lyapunov_n(golden, 0.0, n, mathieu5).value
                    for n in (250, 500, 1000))
        assert fit.rate >= 0.8 * limit

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
            g = GreenMatrix((1, n), signs, logs)
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

    def test_negative_min_sep_rejected(self, golden, free):
        # Offsets -3..-1 would count twice: 1714 pairs from 1600 entries.
        g = green_solve((1, 40), golden, 0.0, 3.0, free)
        with pytest.raises(ValueError, match="min_sep"):
            decay_fit(g, -3)


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

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_final_pass_in_row_blocks_matches_one_pass(self, golden,
                                                       monkeypatch, rows):
        v = cosine_potential(10.0)
        monkeypatch.setattr(greens, "_PAVE_BLOCK_ROWS", 300)
        one = pave((1, 300), 50, golden, 0.0, 13.0, v, c=1.0)
        monkeypatch.setattr(greens, "_PAVE_BLOCK_ROWS", rows)
        res = pave((1, 300), 50, golden, 0.0, 13.0, v, c=1.0)
        assert np.array_equal(res.green.signs, one.green.signs)
        assert np.array_equal(res.green.logs, one.green.logs)
        assert res.certificate == one.certificate

    def test_memory_follows_the_matrix(self, golden):
        # Peak traced memory of a 1000-site paving, bounded from the layout:
        # 9 bytes of assembled rows per entry, the n^2 masks of the
        # certificate's fit, and one block of rows; window rows are n wide.
        # A big x big table of window rows added 9 bytes per entry and the
        # certificate's masked copy of the logs about 8 more (30 in all);
        # one pass over all rows stacks three n x n terms of slog.add and
        # takes the peak to about 104 bytes per entry.
        big = 1000
        greens._scipy_linalg()          # its import is not the run's memory
        tracemalloc.start()
        try:
            pave((1, big), 50, golden, 0.0, 13.0, cosine_potential(10.0),
                 c=0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * big * big

    def test_certificate_json_round_trip(self, golden):
        import json

        v = cosine_potential(10.0)
        res = pave((1, 150), 50, golden, 0.0, 13.0, v, c=1.0)
        doc = json.loads(json.dumps(res.certificate.to_json()))
        assert doc["rate_ok"]
        # pave raises PavingFailed rather than certify a failed site.
        assert "failures" not in doc
        assert doc["windows_used"]


# ---------------------------------------------------------------------------
# Ordered edge-row sweeps against the Jacobi sweeps they replaced.
#
# The oracles below are `_window_admissible` (with its n x n separation table,
# and with its skewed -inf padding) and `pave` (with its Jacobi loop) as they
# were before, kept verbatim.  Both pavers stop once a sweep moves no
# log-magnitude by 1e-12 and flips no sign, but reach that point along
# different paths, so assembled logs must agree within 1e-12 (measured at
# most 1.1e-13) and signs exactly.


def oracle_window_admissible(gw: GreenMatrix, c: float, budget: float,
                             sep_min: int) -> bool:
    n = gw.size
    idx = np.arange(n)
    sep = np.abs(idx[:, None] - idx[None, :])
    mask = sep >= sep_min
    if not mask.any():
        return True
    worst = np.max(gw.logs[mask] + c * sep[mask]) - budget
    return bool(worst <= 0.0)


def skewed_window_admissible(gw: GreenMatrix, c: float, budget: float,
                             sep_min: int) -> bool:
    n = gw.size
    pad = np.full((2, n + 1, 2 * n), -np.inf)
    pad[0, :n, :n], pad[1, :n, :n] = gw.logs, gw.logs.T
    skew = pad.reshape(2, -1)[:, :n * (2 * n + 1)].reshape(2, n, 2 * n + 1)
    by_sep = skew[:, :, :n].max(axis=(0, 1))
    worst = np.max(by_sep[sep_min:] + c * np.arange(sep_min, n),
                   initial=-np.inf)
    return bool(worst - budget <= 0.0)


def oracle_pave(interval: Tuple[int, int], n: int, omega: Frequency, theta,
                energy: float, v: TrigPotential, c: float,
                beta: float = 0.1) -> PaveResult:
    """`pave` as it was before ordered sweeps: Jacobi edge-row sweeps."""
    a, b = int(interval[0]), int(interval[1])
    big = b - a + 1
    if n < 2:
        raise ValueError("window size must be >= 2")
    margin = max(1, n // 10)

    if n >= big:
        g = green_solve((a, b), omega, theta, energy, v)
        cert = _certificate(g, c, beta, n, [(a, b)], 0.0, 0)
        return PaveResult(green=g, certificate=cert)

    starts = [*range(a, b - n + 1, max(1, n // 4)), b - n + 1]
    # Sites up to the midpoint of two neighbouring centres go to the left one.
    firsts = [a] + [(lo + nxt + n - 1) // 2 + 1
                    for lo, nxt in zip(starts, starts[1:])]
    lasts = [f - 1 for f in firsts[1:]] + [b]

    # Per row: the window's row of G, and the hops to rows lo - 1 and hi + 1
    # (row `big` stands for "no hop" and reads as zero).
    d_signs = np.zeros((big, big), dtype=np.int8)
    d_logs = np.full((big, big), slog.LOG_ZERO)
    hop = np.full((big, 2), big)
    hop_sign = np.zeros((big, 2), dtype=np.int8)
    hop_log = np.full((big, 2), slog.LOG_ZERO)
    windows: List[Tuple[int, int]] = []
    failures: List[int] = []
    for start, x0, x1 in zip(starts, firsts, lasts):
        need_lo, need_hi = max(a, x0 - margin + 1), min(b, x1 + margin - 1)
        gw = None
        for lo, hi in ((start, start + n - 1), (start + 1, start + n - 1),
                       (start, start + n - 2), (start + 1, start + n - 2)):
            if not (lo <= need_lo and hi >= need_hi and hi > lo):
                continue
            try:
                cand = green_solve((lo, hi), omega, theta, energy, v)
            except SingularEnergy:
                continue
            if oracle_window_admissible(cand, c, beta * n, margin):
                gw = cand
                break
        if gw is None:
            failures.extend(range(x0, x1 + 1))
            continue
        windows.append((lo, hi))
        rows, own = slice(x0 - a, x1 - a + 1), slice(x0 - lo, x1 - lo + 1)
        d_signs[rows, lo - a:hi - a + 1] = gw.signs[own]
        d_logs[rows, lo - a:hi - a + 1] = gw.logs[own]
        for side, (edge, col) in enumerate(((lo - 1, 0), (hi + 1, -1))):
            if a <= edge <= b:
                hop[rows, side] = edge - a
                hop_sign[rows, side] = gw.signs[own, col]
                hop_log[rows, side] = gw.logs[own, col]
    if failures:
        raise PavingFailed(failures)

    with np.errstate(over="ignore"):
        contraction = float(np.max(np.sum(np.exp(hop_log), axis=1)))
    if contraction >= 0.5:
        raise IterationDiverged(contraction)

    # Edge rows of G, plus a zero row that the missing hops read.
    edges = np.unique(hop[hop < big])
    at = np.full(big + 1, edges.size)
    at[edges] = np.arange(edges.size)
    e_signs = np.vstack([d_signs[edges], np.zeros((1, big), dtype=np.int8)])
    e_logs = np.vstack([d_logs[edges], np.full((1, big), slog.LOG_ZERO)])

    def resolvent(rows):
        """Window term plus both hops for `rows`, through the edge rows."""
        src = at[hop[rows]]
        return slog.add(
            np.stack([d_signs[rows], *(-hop_sign[rows, side, None]
                                       * e_signs[src[:, side]]
                                       for side in (0, 1))]),
            np.stack([d_logs[rows], *(hop_log[rows, side, None]
                                      + e_logs[src[:, side]]
                                      for side in (0, 1))]))

    cap = 8 * math.ceil(big / margin) + 100
    for iterations in range(1, cap + 1):
        new_signs, new_logs = resolvent(edges)
        both = (new_signs != 0) & (e_signs[:-1] != 0)
        flipped = np.any(new_signs != e_signs[:-1])
        delta = float(np.max(np.abs(new_logs[both] - e_logs[:-1][both]),
                             initial=0.0))
        e_signs[:-1], e_logs[:-1] = new_signs, new_logs
        if not flipped and delta < 1e-12:
            break
    else:
        raise IterationDiverged(
            contraction,
            f"no fixed point after {cap} sweeps (contraction {contraction:.3g})")

    g_signs, g_logs = resolvent(np.arange(big))
    green = GreenMatrix(interval=(a, b), signs=g_signs, logs=g_logs)
    cert = _certificate(green, c, beta, n, windows, contraction, iterations)
    return PaveResult(green=green, certificate=cert)


C10 = cosine_potential(10.0)


@pytest.fixture(scope="module")
def c10_rate(golden):
    """The survey rate c on the c10 input: the worst fitted rate of the
    50-site windows starting at 1, 101, ..., 901 (E = 13)."""
    return min(decay_fit(green_solve((lo, lo + 49), golden, 0.0, 13.0, C10),
                         5).rate for lo in range(1, 1000, 100))


class TestOrderedSweeps:
    @pytest.mark.parametrize("big, n", [(1000, 50), (300, 2), (300, 3),
                                        (300, 7), (300, 12)])
    def test_matches_jacobi_oracle(self, golden, c10_rate, big, n):
        c = c10_rate if big == 1000 else 1.0
        res = pave((1, big), n, golden, 0.0, 13.0, C10, c=c)
        ref = oracle_pave((1, big), n, golden, 0.0, 13.0, C10, c=c)
        assert np.array_equal(res.green.signs, ref.green.signs)
        live = ref.green.signs != 0
        assert np.max(np.abs(res.green.logs[live]
                             - ref.green.logs[live])) <= 1e-12
        got, want = res.certificate.to_json(), ref.certificate.to_json()
        assert got.keys() == want.keys()
        assert got["windows_used"] == want["windows_used"]
        assert got["contraction"] == want["contraction"]
        assert got["iterations"] <= want["iterations"]

    def test_c10_takes_at_most_three_sweeps(self, golden, c10_rate):
        res = pave((1, 1000), 50, golden, 0.0, 13.0, C10, c=c10_rate)
        assert res.certificate.iterations <= 3

    def test_window_admissible_matches_separation_table(self, golden,
                                                        c10_rate):
        cases = [(1000, 50, c10_rate)] + [
            (big, n, 1.0) for n in (2, 3, 4, 7, 12, 50)
            for big in sorted({n + 1, 2 * n - 1, 2 * n + 1, 300})]
        seen = set()
        for big, n, c in cases:
            margin = max(1, n // 10)
            for start in [*range(1, big - n + 1, max(1, n // 4)), big - n + 1]:
                gw = green_solve((start, start + n - 1), golden, 0.0, 13.0,
                                 C10)
                for rate in (c, 2 * c, 4 * c):
                    want = oracle_window_admissible(gw, rate, 0.1 * n, margin)
                    assert _window_admissible(gw, rate, 0.1 * n,
                                              margin) == want
                    assert skewed_window_admissible(gw, rate, 0.1 * n,
                                                    margin) == want
                    seen.add(want)
        assert seen == {True, False}
        # Unsymmetric random logs, with -inf entries and empty separations.
        rng = np.random.default_rng(6)
        for _ in range(300):
            n = int(rng.integers(2, 13))
            logs = 5.0 * rng.normal(size=(n, n))
            logs[rng.random((n, n)) < 0.1] = -math.inf
            gw = GreenMatrix((1, n), np.ones((n, n), dtype=np.int8), logs)
            args = (rng.uniform(0.0, 2.0), 5.0 * rng.normal(),
                    int(rng.integers(1, n + 1)))
            assert _window_admissible(gw, *args) == \
                oracle_window_admissible(gw, *args) == \
                skewed_window_admissible(gw, *args)
        # Random boxes at 4 rates x 5 separations x 4 budgets.
        seen = set()
        for _ in range(200):
            v = random_trig_potential(rng, degree=3,
                                      amplitude=float(rng.uniform(0.3, 20.0)))
            n = int(rng.integers(2, 40))
            gw = green_solve((1, n), golden, rng.random(),
                             rng.uniform(-10.0, 10.0), v)
            for rate in (0.0, 0.5, 1.0, 3.0):
                for sep in (1, 2, n // 4 + 1, n - 1, n):
                    for budget in (-5.0, 0.0, 0.1 * n, 10.0):
                        want = skewed_window_admissible(gw, rate, budget, sep)
                        assert _window_admissible(gw, rate, budget,
                                                  sep) == want
                        seen.add(want)
        assert seen == {True, False}


# ---------------------------------------------------------------------------
# Compact window rows against the dense window table they replaced.
#
# The oracles below are `decay_fit`, `pave` (with its big x big table of
# window rows) and `_certificate` (with its masked copy of the logs) as they
# were before, kept verbatim apart from their names.  The compact rows are
# expanded only where they are summed, and padding adds exact zeros, so
# every bit must match.


def oracle_decay_fit(green: GreenMatrix, min_sep: int) -> DecayFit:
    """Least-squares slope of -log|G(i,j)| against |i - j| at separation >= min_sep.

    Entries count when their sign is nonzero and their log finite.  All
    entries of one diagonal share x = |i - j|, so the fit is assembled from
    each diagonal's count, mean and centred sum of squares; no n x n table of
    separations is built.
    """
    n = green.size
    if n < 4 * min_sep:
        raise ValueError("box too small for the requested separation")
    ok = (green.signs != 0) & np.isfinite(green.logs)
    stats = []          # (separation, count, mean, centred sum of squares)
    for off in [*range(-n + 1, -max(min_sep, 1) + 1), *range(min_sep, n)]:
        y = -np.diagonal(green.logs, off)[np.diagonal(ok, off)]
        if y.size:
            mean = np.mean(y)
            stats.append((abs(off), y.size, mean, np.sum((y - mean) ** 2)))
    if len({d for d, *_ in stats}) < 2:
        return DecayFit(rate=0.0, intercept=0.0, residual=math.inf, pairs=0)
    x, cnt, mean, m2 = (np.array(col, dtype=float) for col in zip(*stats))
    pairs = float(np.sum(cnt))
    x_bar = np.dot(cnt, x) / pairs
    y_bar = np.dot(cnt, mean) / pairs
    dx = x - x_bar
    rate = np.dot(cnt * dx, mean - y_bar) / np.dot(cnt * dx, dx)
    intercept = y_bar - rate * x_bar
    sq = np.sum(m2) + np.dot(cnt, (mean - (rate * x + intercept)) ** 2)
    return DecayFit(rate=float(rate), intercept=float(intercept),
                    residual=math.sqrt(sq / pairs), pairs=int(pairs))


def oracle_dense_pave(interval: Tuple[int, int], n: int, omega: Frequency,
                      theta, energy: float, v: TrigPotential, c: float,
                      beta: float = 0.1) -> PaveResult:
    """Assemble G on [a, b] from size-n windows with decay rate c.

    Windows start every max(1, n // 4) sites, the last ending at b; each site
    belongs to the window with the nearest centre, which covers the site's
    protected neighbourhood [x-m+1, x+m-1] within [a, b], m = max(1, n // 10).
    A window needs log|G(i,j)| <= -c|i-j| + beta*n at separations >= m; a
    failing or singular one gives way to a one-site trim that passes.  By the
    resolvent identity each row is its window's row minus hops through rows
    lo - 1 and hi + 1: those edge rows reach their fixed point by ordered
    sweeps, then one pass builds every row.  The certificate checks the
    fitted rate against c/2; its `iterations` counts the ordered sweeps.
    """
    a, b = int(interval[0]), int(interval[1])
    big = b - a + 1
    if n < 2:
        raise ValueError("window size must be >= 2")
    margin = max(1, n // 10)

    if n >= big:
        g = green_solve((a, b), omega, theta, energy, v)
        cert = oracle_certificate(g, c, beta, n, [(a, b)], 0.0, 0)
        return PaveResult(green=g, certificate=cert)

    starts = [*range(a, b - n + 1, max(1, n // 4)), b - n + 1]
    # Sites up to the midpoint of two neighbouring centres go to the left one.
    firsts = [a] + [(lo + nxt + n - 1) // 2 + 1
                    for lo, nxt in zip(starts, starts[1:])]
    lasts = [f - 1 for f in firsts[1:]] + [b]

    # Per row: the window's row of G, and the hops to rows lo - 1 and hi + 1
    # (row `big` stands for "no hop" and reads as zero).
    d_signs = np.zeros((big, big), dtype=np.int8)
    d_logs = np.full((big, big), slog.LOG_ZERO)
    hop = np.full((big, 2), big)
    hop_sign = np.zeros((big, 2), dtype=np.int8)
    hop_log = np.full((big, 2), slog.LOG_ZERO)
    windows: List[Tuple[int, int]] = []
    failures: List[int] = []
    for start, x0, x1 in zip(starts, firsts, lasts):
        need_lo, need_hi = max(a, x0 - margin + 1), min(b, x1 + margin - 1)
        gw = None
        for lo, hi in ((start, start + n - 1), (start + 1, start + n - 1),
                       (start, start + n - 2), (start + 1, start + n - 2)):
            if not (lo <= need_lo and hi >= need_hi and hi > lo):
                continue
            try:
                cand = green_solve((lo, hi), omega, theta, energy, v)
            except SingularEnergy:
                continue
            if _window_admissible(cand, c, beta * n, margin):
                gw = cand
                break
        if gw is None:
            failures.extend(range(x0, x1 + 1))
            continue
        windows.append((lo, hi))
        rows, own = slice(x0 - a, x1 - a + 1), slice(x0 - lo, x1 - lo + 1)
        d_signs[rows, lo - a:hi - a + 1] = gw.signs[own]
        d_logs[rows, lo - a:hi - a + 1] = gw.logs[own]
        for side, (edge, col) in enumerate(((lo - 1, 0), (hi + 1, -1))):
            if a <= edge <= b:
                hop[rows, side] = edge - a
                hop_sign[rows, side] = gw.signs[own, col]
                hop_log[rows, side] = gw.logs[own, col]
    if failures:
        raise PavingFailed(failures)

    with np.errstate(over="ignore"):
        contraction = float(np.max(np.sum(np.exp(hop_log), axis=1)))
    if contraction >= 0.5:
        raise IterationDiverged(contraction)

    # Edge rows of G, plus a zero row that the missing hops read.
    edges = np.unique(hop[hop < big])
    at = np.full(big + 1, edges.size)
    at[edges] = np.arange(edges.size)
    e_signs = np.vstack([d_signs[edges], np.zeros((1, big), dtype=np.int8)])
    e_logs = np.vstack([d_logs[edges], np.full((1, big), slog.LOG_ZERO)])

    def resolvent(rows):
        """Window term plus both hops for `rows`, through the edge rows."""
        src = at[hop[rows]]
        return slog.add(
            np.stack([d_signs[rows], *(-hop_sign[rows, side, None]
                                       * e_signs[src[:, side]]
                                       for side in (0, 1))]),
            np.stack([d_logs[rows], *(hop_log[rows, side, None]
                                      + e_logs[src[:, side]]
                                      for side in (0, 1))]))

    # Ordered (Gauss-Seidel) sweeps: the edge rows a window owns form one
    # block, updated in place from the newest values of the other blocks,
    # ascending and then descending along the chain, so one sweep carries
    # information the whole length of the chain.  A block's rows hop only to
    # rows outside their window and never read each other, so one slog.add
    # per block computes what one per row would, with fewer calls.
    owner = np.searchsorted(np.asarray(firsts) - a, edges, side="right")
    bounds = [0, *(np.flatnonzero(np.diff(owner)) + 1), edges.size]
    blocks = [slice(i, j) for i, j in zip(bounds, bounds[1:])]
    order = blocks + blocks[-2::-1]
    cap = 8 * math.ceil(big / margin) + 100
    for iterations in range(1, cap + 1):
        old_signs, old_logs = e_signs.copy(), e_logs.copy()
        for blk in order:
            e_signs[blk], e_logs[blk] = resolvent(edges[blk])
        both = (old_signs != 0) & (e_signs != 0)
        flipped = np.any(old_signs != e_signs)
        delta = float(np.max(np.abs(e_logs[both] - old_logs[both]),
                             initial=0.0))
        if not flipped and delta < 1e-12:
            break
    else:
        raise IterationDiverged(
            contraction,
            f"no fixed point after {cap} sweeps (contraction {contraction:.3g})")

    # Every row from the edge rows, in blocks of rows so that the stacks
    # slog.add sums stay small; it works entry by entry, so the bits are
    # those of one pass over all rows.
    g_signs = np.empty((big, big), dtype=np.int8)
    g_logs = np.empty((big, big))
    for lo in range(0, big, greens._PAVE_BLOCK_ROWS):
        rows = slice(lo, lo + greens._PAVE_BLOCK_ROWS)
        g_signs[rows], g_logs[rows] = resolvent(rows)
    green = GreenMatrix(interval=(a, b), signs=g_signs, logs=g_logs)
    cert = oracle_certificate(green, c, beta, n, windows, contraction,
                              iterations)
    return PaveResult(green=green, certificate=cert)


def oracle_certificate(green: GreenMatrix, c: float, beta: float, n: int,
                       windows: List[Tuple[int, int]], contraction: float,
                       iterations: int) -> PavingCertificate:
    min_sep = min(max(1, n), max(1, green.size // 4))
    try:
        fit = oracle_decay_fit(green, min_sep)
    except ValueError:
        fit = DecayFit(rate=math.nan, intercept=math.nan, residual=math.inf,
                       pairs=0)
    sup_log = float(np.max(green.logs[green.signs != 0])) \
        if (green.signs != 0).any() else -math.inf
    return PavingCertificate(
        rate=fit.rate, intercept=fit.intercept, required_rate=c / 2.0,
        rate_ok=fit.rate >= c / 2.0, sup_logmag=sup_log, window_rate=c,
        beta=beta, windows=windows, contraction=contraction,
        iterations=iterations)


class TestCompactWindowRows:
    @pytest.mark.parametrize("interval, n", [
        ((1, 1000), 50), ((1, 300), 2), ((1, 300), 3), ((1, 300), 7),
        ((1, 300), 12), ((5, 400), 50), ((1, 40), 50)])
    def test_matches_dense_oracle(self, golden, c10_rate, interval, n):
        c = c10_rate if interval == (1, 1000) else 1.0
        res = pave(interval, n, golden, 0.0, 13.0, C10, c=c)
        ref = oracle_dense_pave(interval, n, golden, 0.0, 13.0, C10, c=c)
        assert np.array_equal(res.green.signs, ref.green.signs)
        assert np.array_equal(res.green.logs, ref.green.logs)
        assert res.certificate.to_json() == ref.certificate.to_json()

    @pytest.mark.parametrize("n, energy", [(7, -4.4), (20, -4.675)])
    def test_trimmed_windows_match_dense_oracle(self, golden, n, energy):
        # Below the spectrum of 3 cos some windows pass only when trimmed,
        # the last one among them, whose compact row starts at big - n.
        v = cosine_potential(3.0)
        res = pave((1, 120), n, golden, 0.0, energy, v, c=1.5)
        ref = oracle_dense_pave((1, 120), n, golden, 0.0, energy, v, c=1.5)
        lo, hi = res.certificate.windows[-1]
        assert (lo, hi) == (120 - n + 2, 120)
        assert np.array_equal(res.green.signs, ref.green.signs)
        assert np.array_equal(res.green.logs, ref.green.logs)
        assert res.certificate.to_json() == ref.certificate.to_json()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_decay_fit_matches_oracle(self, golden, mathieu5, order):
        rng = np.random.default_rng(7)
        for n, min_sep in ((40, 0), (40, 10), (161, 1), (161, 12)):
            idx = np.arange(n)
            sep = np.abs(idx[:, None] - idx[None, :])
            logs = np.asarray(-(0.7 * sep + 3.0 + rng.normal(size=(n, n))),
                              order=order)
            signs = np.asarray(rng.choice(np.array([-1, 1], dtype=np.int8),
                                          (n, n)), order=order)
            zero = rng.random((n, n)) < 0.05
            signs[zero], logs[zero] = 0, -math.inf
            logs[rng.random((n, n)) < 0.02] = -math.inf
            g = GreenMatrix((1, n), signs, logs)
            assert decay_fit(g, min_sep) == oracle_decay_fit(g, min_sep)
        box = green_solve((-150, 150), golden, 0.2, 0.5, mathieu5)
        g = GreenMatrix(box.interval, np.asarray(box.signs, order=order),
                        np.asarray(box.logs, order=order))
        assert decay_fit(g, 20) == oracle_decay_fit(g, 20)
