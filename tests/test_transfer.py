import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (as_matrices, cocycle_product, dense_box, orbit_phases,
                      random_trig_potential)
from qplab import (StripExceeded, cocycle_batch, cosine_potential,
                   golden_frequency, slog, two_torus_frequency,
                   verify_det_identity)
from qplab.model import TrigPotential
from qplab.transfer import (_final, _log_opnorm, _orbit_rows, _period,
                            box_diagonal, cocycle_complex, det_sequence)


def single_phase(omega, theta, energy, n, v):
    """``cocycle_batch`` at one phase, its log norm, with the Frobenius-1
    entries and log scale of its product."""
    entries, ls = cocycle_product(omega, theta, energy, n, v)
    return SimpleNamespace(
        log_norm=float(cocycle_batch(omega, theta, energy, n, v)[0]),
        entries=entries[0], log_scale=float(ls[0]))


def cofactor_det(m):
    """Brute-force cofactor expansion; exact-arithmetic-style oracle."""
    n = m.shape[0]
    if n == 1:
        return m[0, 0]
    total = 0.0
    for j in range(n):
        if m[0, j] == 0.0:
            continue
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * cofactor_det(minor)
    return total


def log_det(res):
    """(sign, log|det|) of a cocycle product, from its entries."""
    d = float(np.linalg.det(res.entries))
    return (1 if d > 0 else -1), 2.0 * res.log_scale + math.log(abs(d))


def log_inv_norm(res):
    """log spectral norm of the product's inverse, via the adjugate."""
    e = res.entries
    adj = np.array([[e[1, 1], -e[0, 1]], [-e[1, 0], e[0, 0]]])
    return (-res.log_scale + math.log(np.linalg.norm(adj, 2))
            - math.log(abs(np.linalg.det(e))))


class TestKernel:
    def test_renormalization_preserves_product(self):
        rng = np.random.default_rng(0)
        for dtype in (float, complex):
            rows = rng.normal(size=(12, 3)) * 10.0 ** rng.integers(-3, 4, (12, 1))
            if dtype is complex:
                rows = rows + 1j * rng.normal(size=rows.shape)
            for period in (1, 4):
                direct = np.broadcast_to(np.eye(2, dtype=dtype), (3, 2, 2))
                for j, a in enumerate(rows, 1):
                    step = np.zeros((3, 2, 2), dtype=dtype)
                    step[:, 0, 0], step[:, 0, 1], step[:, 1, 0] = a, 1.0, -1.0
                    direct = step @ direct
                    m, ls = _final(rows[:j], period)
                    entries = as_matrices(*m)
                    for k in range(3):
                        err = np.abs(np.exp(ls[k]) * entries[k] - direct[k])
                        assert np.max(err) <= 1e-13 * np.linalg.norm(direct[k])

    def test_returned_entries_have_unit_frobenius_norm(self, golden, mathieu5):
        thetas = np.linspace(0.0, 1.0, 7, endpoint=False)
        for n in (1, 5, 300):
            entries, _ = cocycle_product(golden, thetas, 0.4, n, mathieu5)
            assert np.allclose(np.sum(entries ** 2, axis=(1, 2)), 1.0,
                               rtol=1e-14, atol=0)
        res = single_phase(golden, complex(0.2, 0.1), 0.4, 300, mathieu5)
        assert np.sum(np.abs(res.entries) ** 2) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, "1-complex"])
    def test_orbit_rows_and_phases_match_mod_one(self, dim):
        # Row j at each phase has the bits of the box diagonal at site j,
        # for the phase as given and for its representative mod one, which
        # reduces only the real part of a complex phase.
        rng = np.random.default_rng(4)
        if dim == 2:
            omega = two_torus_frequency()
            v = random_trig_potential(rng, degree=2, dim=2, strip_width=0.5)
            th = rng.uniform(-2.0, 2.0, (50, 2))
        else:
            omega, v = golden_frequency(), random_trig_potential(rng, degree=3)
            th = rng.uniform(-2.0, 2.0, 50)
        if dim == "1-complex":
            th = th + 1j * rng.uniform(-0.15, 0.15, 50)
        energy = rng.uniform(-3.0, 3.0, 50)
        n = 25
        rows = np.array(list(_orbit_rows(omega, th, energy, n, v)))
        assert rows.shape == (n, 50)
        for i in range(50):
            rep = (complex(th[i].real % 1.0, th[i].imag)
                   if np.iscomplexobj(th) else th[i] % 1.0)
            for theta in (th[i], rep):
                want = box_diagonal((1, n), omega, theta, v) - energy[i]
                assert np.array_equal(rows[:, i], want)

    def test_opnorm_matches_svd(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            for m in (rng.normal(size=(2, 2)),
                      rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))):
                f = np.linalg.norm(m)
                e = m / f
                got = _log_opnorm(e[0, 0], e[0, 1], e[1, 0], e[1, 1], math.log(f))
                assert got == pytest.approx(math.log(np.linalg.norm(m, 2)),
                                            rel=1e-10)


class TestCocycle:
    def test_free_rotation_norm_zero(self, golden, free):
        for n in (1, 10, 1000):
            res = single_phase(golden, 0.3, 0.0, n, free)
            assert abs(res.log_norm) <= 1e-12

    def test_constant_cocycle_spectral_radius(self, golden, free):
        # oracle: eigenvalue of [[-3, 1], [-1, 0]] with the largest modulus,
        # cross-checked by scaled direct powering
        target = math.log((3.0 + math.sqrt(5.0)) / 2.0)
        b = np.array([[-3.0, 1.0], [-1.0, 0.0]])
        m = np.eye(2)
        acc = 0.0
        for _ in range(1000):
            m = b @ m
            s = np.linalg.norm(m)
            m /= s
            acc += math.log(s)
        oracle = (acc + math.log(np.linalg.norm(m, 2))) / 1000
        res = single_phase(golden, 0.12, 3.0, 1000, free)
        assert res.log_norm / 1000 == pytest.approx(oracle, abs=1e-10)
        assert res.log_norm / 1000 == pytest.approx(target, abs=1e-3)

    def test_herman_regime_growth(self, golden, mathieu5):
        res = single_phase(golden, 0.3, 0.0, 10_000, mathieu5)
        assert res.log_norm / 10_000 >= math.log(2.5) - 0.05

    def test_unit_determinant(self, golden, mathieu5):
        # Direct determinant checks need exp(-2 log_scale) above the float
        # noise floor: small n at strong coupling, large n at critical
        # coupling where norms grow subexponentially.
        res = single_phase(golden, 0.41, 1.7, 10, mathieu5)
        sign, log_mag = log_det(res)
        assert sign == 1
        assert abs(log_mag) <= 1e-6
        res = single_phase(golden, 0.41, 0.0, 500, cosine_potential(2.0))
        sign, log_mag = log_det(res)
        assert sign == 1
        assert abs(log_mag) <= 1e-8

    def test_norm_bounds_both_sides(self, golden, mathieu5):
        n = 300
        e = 1.5
        cap = n * math.log(1.0 + mathieu5.coefficient_bound(0.0) + abs(e)) + 1.0
        res = single_phase(golden, 0.77, e, n, mathieu5)
        assert 0.0 <= res.log_norm <= cap
        assert log_inv_norm(res) <= cap

    def test_composition_property(self, golden, mathieu5):
        n1, n2 = 137, 263
        full = single_phase(golden, 0.29, 0.4, n1 + n2, mathieu5)
        first = single_phase(golden, 0.29, 0.4, n1, mathieu5)
        second = single_phase(golden, orbit_phases(0.29, golden, n1), 0.4,
                              n2, mathieu5)
        comp = second.entries @ first.entries
        assert np.all(np.sign(comp) == np.sign(full.entries))
        lhs = second.log_scale + first.log_scale + np.log(np.abs(comp))
        rhs = full.log_scale + np.log(np.abs(full.entries))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(n1=st.integers(1, 60), n2=st.integers(1, 60),
           theta=st.floats(0.0, 0.999), energy=st.floats(-6.0, 6.0))
    def test_composition_property_random(self, golden, mathieu5, n1, n2,
                                         theta, energy):
        full = single_phase(golden, theta, energy, n1 + n2, mathieu5)
        second = single_phase(golden, orbit_phases(theta, golden, n1), energy,
                              n2, mathieu5)
        first = single_phase(golden, theta, energy, n1, mathieu5)
        # compare unit-scale entries after aligning the log scales: this is
        # stable even when an individual entry happens to sit near zero
        rescaled = math.exp(second.log_scale + first.log_scale
                            - full.log_scale) * (second.entries @ first.entries)
        assert np.max(np.abs(rescaled - full.entries)) <= 1e-9

    def test_batch_matches_scalar(self, golden, mathieu5):
        thetas = np.array([0.1, 0.5, 0.9])
        batch = cocycle_batch(golden, thetas, 0.7, 50, mathieu5)
        for t, ln in zip(thetas, batch):
            assert single_phase(golden, t, 0.7, 50, mathieu5).log_norm == \
                pytest.approx(ln, rel=1e-12)

    @pytest.mark.parametrize("lam,period", [(1e300, 1), (1e150, 1),
                                            (1e100, 2)])
    def test_overflow_at_the_period(self, golden, lam, period):
        v = cosine_potential(lam)
        energy = 0.5 * lam
        assert _period(v, energy) == period
        n = 60
        res = single_phase(golden, 0.3, energy, n, v)
        assert math.isfinite(res.log_norm)
        assert abs(res.log_norm - n * (math.log(lam) - math.log(2.0))) <= 0.5 * n

    def test_huge_coupling_no_overflow(self, golden):
        v = cosine_potential(1e300)
        res = single_phase(golden, 0.3, 0.0, 50, v)
        assert math.isfinite(res.log_norm)
        assert res.log_norm / 50 == pytest.approx(math.log(1e300) - math.log(2.0),
                                                  abs=0.5)

    def test_memory_is_bounded_by_the_kernel_buffers(self, golden, mathieu5,
                                                     one_thread):
        # One batch of B = 16384 phases, n = 400 steps, on 5 cos (H = 1
        # harmonic), run as one part, in units u of B float64s:
        #   the block of m = 2^16 // B = 4 rows and its product scratch: 2m u
        #   the kernel's (2, B) top, prev and scratch rows, and exponents: 7 u
        #   the phase harmonics x and y: 2H u
        #   the step rotations p and q: 2nH float64s
        # and up to 6 u of phase-sized temporaries while rescaling or
        # closing the product.  A larger block shows here.
        b, n, m, h = 16384, 400, 4, 1
        u = 8 * b
        bound = (2 * m + 7 + 2 * h + 6) * u + 2 * n * h * 8
        thetas = np.random.default_rng(0).random(b)
        cocycle_batch(golden, thetas, 0.3, n, mathieu5)
        tracemalloc.start()
        try:
            cocycle_batch(golden, thetas, 0.3, n, mathieu5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound


class TestCocycleComplex:
    def test_restriction_matches_real(self, golden, mathieu5):
        z = complex(0.37, 0.0)
        res_c = cocycle_complex(golden, z, 1.1, 200, mathieu5)
        res_r = single_phase(golden, 0.37, 1.1, 200, mathieu5)
        assert res_c == pytest.approx(res_r.log_norm, rel=1e-10)

    def test_free_is_flat_off_axis(self, golden):
        free_wide = TrigPotential(dim=1, coeffs={}, strip_width=5.0)
        res = cocycle_complex(golden, complex(0.2, 0.3), 0.0, 300, free_wide)
        assert abs(res) <= 1e-10

    def test_strip_guard(self, golden, mathieu5):
        with pytest.raises(StripExceeded):
            cocycle_complex(golden, complex(0.1, mathieu5.strip_width), 0.0, 10,
                            mathieu5)

    def test_growth_above_gap_rate(self, golden):
        # When the potential stays a distance eps away from E/lambda on the
        # whole line Im z = y0, the cocycle norm grows at least like
        # (lambda*eps - 1)^n there.
        y0 = 0.08
        eps = math.sinh(2.0 * math.pi * y0)   # exact line infimum for cos
        lam = 200.0 / eps
        v = cosine_potential(lam)
        n = 300
        res = cocycle_complex(golden, complex(0.0, y0), 0.0, n, v)
        assert res >= n * math.log(lam * eps - 1.0)


class TestDetRecurrence:
    def test_single_site(self, golden, mathieu5):
        diag = box_diagonal((4, 4), golden, 0.2, mathieu5) - 1.5
        dets = slog.to_values(*det_sequence(diag))
        ph = (0.2 + 4 * golden.components[0]) % 1.0
        expected = float(mathieu5.eval_batch(np.asarray([ph]))[0]) - 1.5
        # The empty determinant, then the one site.
        assert dets.shape == (2,)
        assert dets[0] == 1.0
        assert dets[1] == pytest.approx(expected, rel=1e-13)

    def test_two_sites_closed_form(self, golden, mathieu5):
        diag = box_diagonal((2, 3), golden, 0.61, mathieu5) + 0.4
        dets = slog.to_values(*det_sequence(diag))
        m = dense_box((2, 3), golden, 0.61, -0.4, mathieu5)
        assert dets[1] == pytest.approx(m[0, 0], rel=1e-12)
        assert dets[2] == pytest.approx(m[0, 0] * m[1, 1] - 1.0, rel=1e-12)

    def test_matches_cofactor_oracle(self, golden):
        rng = np.random.default_rng(5)
        for _ in range(20):
            v = random_trig_potential(rng, degree=3)
            size = int(rng.integers(1, 13))
            a = int(rng.integers(-20, 20))
            theta = rng.random()
            energy = rng.uniform(-5, 5)
            diag = box_diagonal((a, a + size - 1), golden, theta, v) - energy
            dets = slog.to_values(*det_sequence(diag))
            box = dense_box((a, a + size - 1), golden, theta, energy, v)
            # Every leading truncation, not only the whole box.
            oracle = [1.0] + [cofactor_det(box[:k, :k])
                              for k in range(1, size + 1)]
            assert dets == pytest.approx(oracle, rel=1e-9, abs=1e-9)

    def test_trailing_sequence_matches_leading_of_reverse(self, golden, mathieu5):
        diag = box_diagonal((3, 12), golden, 0.4, mathieu5) - 0.9
        s_lead, l_lead = det_sequence(diag)
        s_tr, l_tr = det_sequence(diag[::-1])
        # full determinant is shared
        assert s_lead[-1] == s_tr[-1]
        assert l_lead[-1] == pytest.approx(l_tr[-1], abs=1e-10)


class TestDetIdentity:
    def test_free_zero_energy(self, golden, free):
        assert verify_det_identity(4, golden, 0.0, 0.0, free) <= 1e-12

    def test_mathieu_n64(self, golden, mathieu5):
        assert verify_det_identity(64, golden, 0.87, 0.0, mathieu5) <= 1e-9

    def test_random_configurations(self, golden):
        rng = np.random.default_rng(6)
        worst = 0.0
        for _ in range(50):
            v = random_trig_potential(rng, degree=3)
            n = int(rng.integers(3, 65))
            worst = max(worst, verify_det_identity(
                n, golden, rng.random(), rng.uniform(-10, 10), v))
        assert worst <= 1e-9

    @pytest.mark.parametrize("seed", [4, 19])
    def test_benchmark_orbit_boxes(self, golden, seed):
        # The 200 boxes the benchmark's orbit operation draws at this seed.
        # Near-singular ones amplify any disagreement between the cocycle
        # rows and the box diagonal, so both must come from one evaluation.
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(200):
            v = random_trig_potential(rng, degree=3)
            n = int(rng.integers(3, 65))
            theta = float(rng.random())
            worst = max(worst, verify_det_identity(
                n, golden, theta, rng.uniform(-10.0, 10.0), v))
        assert worst <= 1e-9

    def test_det_bounded_by_cocycle_norm(self, golden, mathieu5):
        # |det(A_n - E)| is one matrix entry, so it cannot exceed the norm
        for n in (5, 20, 60):
            diag = box_diagonal((1, n), golden, 0.3, mathieu5) - 0.8
            det_log = det_sequence(diag)[1][-1]
            res = single_phase(golden, 0.3, 0.8, n, mathieu5)
            assert det_log <= res.log_norm + 1e-9


def shift_deviations(n, omega, theta, energy, v, shifts):
    """|phi(theta + r omega) - phi(theta)| per shift r, phi = (1/n) log ||M_n||,
    and the bound C |r| / n with C = 2 log(1 + sup|v| + |E|)."""
    r = np.asarray(list(shifts))
    phases = orbit_phases(theta, omega, np.concatenate([[0], r]))
    phi = cocycle_batch(omega, phases, energy, n, v) / n
    const = 2.0 * math.log(1.0 + v.coefficient_bound(0.0) + abs(energy))
    return np.abs(phi[1:] - phi[0]), const * np.abs(r) / n


class TestGrowthEnvelope:
    def test_free_case_flat(self, golden, free):
        dev, _ = shift_deviations(100, golden, 0.3, 0.0, free, range(0, 11))
        assert np.max(dev) <= 1e-12

    def test_zero_shift_exact(self, golden, mathieu5):
        # A phase gives the same bits alone and in a batch of its shifts.
        dev, _ = shift_deviations(200, golden, 0.3, 0.5, mathieu5, [0, 1, 2])
        assert dev[0] == 0.0
        alone = cocycle_batch(golden, 0.3, 0.5, 200, mathieu5)[0]
        batch = cocycle_batch(golden, orbit_phases(0.3, golden, np.arange(3)),
                              0.5, 200, mathieu5)
        assert batch[0] == alone

    def test_mathieu_shift_bound(self, golden, mathieu5):
        # One-step conjugations move the exponent by at most C |r| / n.
        dev, bound = shift_deviations(500, golden, 0.11, 0.0, mathieu5,
                                      range(1, 21))
        assert np.all(dev <= bound + 1e-12)
