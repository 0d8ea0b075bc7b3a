import contextvars
import math
import threading

import numpy as np
import pytest

from conftest import cocycle_product, orbit_phases
from qplab import (SamplerSpec, check_subadditivity, cosine_potential,
                   deviation_measure, lyapunov_n, lyapunov_scan,
                   upper_bound_check)
from qplab.lyapunov import THREADS, _CHUNK, _SPLIT_FLOOR, _phi_values
from qplab.transfer import cocycle_batch

CONST_TARGET = math.log((3.0 + math.sqrt(5.0)) / 2.0)


class TestLyapunovN:
    def test_free_case_zero(self, golden, free):
        for n in (1, 100, 10_000):
            est = lyapunov_n(golden, 0.0, n, free, SamplerSpec("grid", 32))
            assert abs(est.value) <= 1e-12
            assert est.value >= -1e-10

    def test_constant_cocycle(self, golden, free):
        est = lyapunov_n(golden, 3.0, 500, free, SamplerSpec("grid", 16))
        assert est.value == pytest.approx(CONST_TARGET, abs=2e-3)
        assert est.std_error <= 1e-12

    def test_herman_type_bound(self, golden, mathieu5):
        est = lyapunov_n(golden, 0.0, 2000, mathieu5, SamplerSpec("grid", 200))
        assert est.value >= math.log(2.5) - 0.05

    def test_range_invariant(self, golden, mathieu5):
        e = 1.3
        est = lyapunov_n(golden, e, 200, mathieu5, SamplerSpec("grid", 64))
        cap = math.log(1.0 + mathieu5.coefficient_bound(0.0) + abs(e))
        assert -1e-10 <= est.value <= cap

    def test_monte_carlo_agrees_with_grid(self, golden, mathieu5):
        g = lyapunov_n(golden, 0.4, 300, mathieu5, SamplerSpec("grid", 2000))
        m = lyapunov_n(golden, 0.4, 300, mathieu5,
                       SamplerSpec("monte_carlo", 2000, seed=11))
        tol = 3.0 * math.sqrt(g.std_error ** 2 + m.std_error ** 2)
        assert abs(g.value - m.value) <= tol

    def test_two_torus_stratified(self, omega2, two_cos):
        v = two_cos.with_coupling(50.0)
        est = lyapunov_n(omega2, 0.0, 200, v,
                         SamplerSpec("monte_carlo", 400, seed=2))
        assert est.value == pytest.approx(math.log(50.0) - math.log(2.0),
                                          abs=0.05)

    def test_one_sample_error_bar_is_nan(self, golden, mathieu5):
        est = lyapunov_n(golden, 0.0, 50, mathieu5, SamplerSpec("grid", 1))
        assert est.samples == 1
        assert math.isfinite(est.value)
        assert math.isnan(est.std_error)
        scan = lyapunov_scan(golden, [0.0, 1.0], 50, mathieu5,
                             SamplerSpec("grid", 1))
        assert all(math.isnan(e.std_error) for e in scan)

    def test_scan_matches_single(self, golden, mathieu5):
        scan = lyapunov_scan(golden, [0.0, 1.0], 100, mathieu5,
                             SamplerSpec("grid", 64))
        for est in scan:
            single = lyapunov_n(golden, est.energy, 100, mathieu5,
                                SamplerSpec("grid", 64))
            assert est.value == pytest.approx(single.value, rel=1e-12)

    @pytest.mark.parametrize("case", ["d1-grid-over-chunk", "d2-monte-carlo"])
    def test_scan_bit_for_bit_with_single(self, golden, mathieu5, omega2,
                                          two_cos, case):
        # n exceeds the rescaling period of the grid and of each energy
        # alone, which differ, so the kernel rescales at different steps.
        if case == "d1-grid-over-chunk":
            omega, v, n = golden, mathieu5, 260
            sampler = SamplerSpec("grid", 20_000)
            energies = [-6.5, 0.3, 2.0]
            assert len(energies) * 20_000 > _CHUNK   # the scan splits phases
        else:
            omega, v, n = omega2, two_cos, 450
            sampler = SamplerSpec("monte_carlo", 500, seed=3)
            energies = [-1.0, 0.0, 2.5]
        scan = lyapunov_scan(omega, energies, n, v, sampler)
        for est, e in zip(scan, energies):
            single = lyapunov_n(omega, e, n, v, sampler)
            assert est.value == single.value
            assert est.std_error == single.std_error
            assert est.samples == single.samples


class TestSubadditivity:
    def test_free_zero_residual(self, golden, free):
        rep = check_subadditivity(golden, 0.0, 50, 50, free,
                                  SamplerSpec("grid", 32))
        assert abs(rep.residual) <= 1e-12
        assert rep.residual <= rep.tolerance

    def test_doubling(self, golden, mathieu5):
        rep = check_subadditivity(golden, 0.0, 250, 250, mathieu5,
                                  SamplerSpec("grid", 512))
        assert rep.residual <= rep.tolerance

    def test_unbalanced_split(self, golden, mathieu5):
        rep = check_subadditivity(golden, 0.0, 100, 900, mathieu5,
                                  SamplerSpec("grid", 512))
        assert rep.residual <= rep.tolerance


def schedule_table(omega, energy, v, schedule, sampler=None):
    """L_n along an increasing scale schedule, by n."""
    return {n: lyapunov_n(omega, energy, n, v, sampler) for n in schedule}


class TestLimit:
    def test_free(self, golden, free):
        table = schedule_table(golden, 0.0, free, [10, 20, 40],
                               SamplerSpec("grid", 16))
        assert max(abs(e.value) for e in table.values()) <= 1e-12

    def test_constant_table_flat(self, golden, free):
        table = schedule_table(golden, 3.0, free, [100, 200, 400],
                               SamplerSpec("grid", 16))
        for est in table.values():
            assert est.value == pytest.approx(CONST_TARGET, abs=5e-3)

    def test_mathieu_decreasing_with_floor(self, golden, mathieu5):
        # Subadditivity along doublings: L_2n <= L_n up to sampling error.
        table = schedule_table(golden, 0.0, mathieu5, [250, 500, 1000, 2000],
                               SamplerSpec("grid", 256))
        for n in (250, 500, 1000):
            e, half = table[2 * n], table[n]
            slack = 3.0 * math.sqrt(e.std_error ** 2 + half.std_error ** 2)
            assert e.value <= half.value + slack + 1e-9
        assert min(e.value for e in table.values()) >= 0.866

    def test_tail_bound_against_smaller_scales(self, golden, mathieu5):
        # L_n <= L_m + C m / n for m < n
        table = schedule_table(golden, 0.5, mathieu5, [50, 100, 200, 400],
                               SamplerSpec("grid", 512))
        const = 2.0 * math.log(1.0 + mathieu5.coefficient_bound(0.0) + 0.5)
        vals = {n: e.value for n, e in table.items()}
        for m in (50, 100, 200):
            for n in (100, 200, 400):
                if m < n:
                    assert vals[n] <= vals[m] + const * m / n + 1e-9


def orbit_average(omega, theta, energy, n, shifts, v):
    """Mean of (1/n) log ||M_n|| over the orbit points theta + j omega,
    j = 1..shifts."""
    phases = orbit_phases(theta, omega, np.arange(1, shifts + 1))
    return float(np.mean(cocycle_batch(omega, phases, energy, n, v))) / n


class TestShiftAverage:
    def test_free_zero(self, golden, free):
        assert orbit_average(golden, 0.3, 0.0, 50, 17, free) == pytest.approx(
            0.0, abs=1e-12)

    def test_single_shift_degenerate(self, golden, mathieu5):
        # The product at the phase shifted by one step is the 31-step
        # product with its first factor [[a, 1], [-1, 0]] divided off.
        got = orbit_average(golden, 0.2, 0.0, 30, 1, mathieu5)
        m31, ls = cocycle_product(golden, 0.2, 0.0, 31, mathieu5)
        a = float(mathieu5.eval_batch(orbit_phases(0.2, golden, 1)))
        inv_first = np.array([[0.0, -1.0], [1.0, a]])
        want = (ls[0] + math.log(np.linalg.norm(m31[0] @ inv_first, 2))) / 30
        assert got == pytest.approx(want, rel=1e-12)

    def test_long_average_matches_lyapunov(self, golden, mathieu5):
        # J = n^(2A) with A = 2
        n = 20
        avg = orbit_average(golden, 0.0, 0.0, n, n ** 4, mathieu5)
        ref = lyapunov_n(golden, 0.0, n, mathieu5).value
        assert abs(avg - ref) <= 0.5 / n

    def test_two_torus_average(self, omega2, two_cos):
        # two-frequency tolerance scales like C n^(-1/2)
        v = two_cos.with_coupling(10.0)
        n = 16
        avg = orbit_average(omega2, (0.0, 0.0), 0.0, n, 50_000, v)
        ref = lyapunov_n(omega2, 0.0, n, v,
                         SamplerSpec("monte_carlo", 20_000, seed=21))
        const = 2.0 * math.log(1.0 + v.coefficient_bound(0.0))
        assert abs(avg - ref.value) <= const / math.sqrt(n) + 3 * ref.std_error


class TestUpperBound:
    def test_free_no_excess(self, golden, free):
        rep = upper_bound_check(golden, 0.0, 100, free, grid=256)
        assert rep.max_excess <= 1e-12

    def test_constant_cocycle_theta_independent(self, golden, free):
        rep = upper_bound_check(golden, 3.0, 200, free, grid=256)
        assert rep.max_excess <= 1e-10

    def test_mathieu_excess_within_reference(self, golden, mathieu5):
        rep = upper_bound_check(golden, 0.0, 500, mathieu5, grid=10_000)
        assert rep.max_excess <= 0.15
        assert rep.max_excess <= rep.reference
        const = 2.0 * math.log(1.0 + mathieu5.coefficient_bound(0.0))
        assert rep.reference == pytest.approx(const * 500 ** (-1.0 / 3.0))

    def test_two_torus_default_sigma(self, omega2, two_cos):
        v = two_cos.with_coupling(10.0)
        rep = upper_bound_check(omega2, 0.0, 100, v, grid=900)
        const = 2.0 * math.log(1.0 + v.coefficient_bound(0.0))
        assert rep.reference == pytest.approx(const * 100 ** -0.1)
        assert rep.max_excess <= rep.reference


def with_thread_cap(cap, fn, *args):
    """fn(*args) with the phase-batch thread cap set to ``cap``."""
    def call():
        THREADS.set(cap)
        return fn(*args)
    return contextvars.copy_context().run(call)


# A coupling of 1e4 makes the kernel rescale every ~65 steps, so n = 70
# crosses a rescale; per-phase energies this wide give each part of a split
# batch its own rescale period.
STRONG = 1e4
PARALLEL_N = 70


def parallel_case(case, size, golden, omega2, two_cos):
    """(omega, thetas, energy, v) with just under or just over two split
    floors of results, the least batch that two workers may split."""
    per = 3 if case == "column" else 1
    target = 2 * _SPLIT_FLOOR
    m = (target - 1) // per if size == "below" else target // per + 1
    rng = np.random.default_rng(m)
    v = cosine_potential(STRONG)
    omega, thetas = golden, rng.random(m)
    if case == "scalar":
        energy = 0.3
    elif case == "per-phase":
        energy = rng.uniform(-3 * STRONG, 3 * STRONG, m)
    elif case == "column":
        energy = np.array([[-STRONG], [0.0], [2.5 * STRONG]])
    else:
        omega, thetas, energy = omega2, rng.random((m, 2)), 1.0
        v = two_cos.with_coupling(STRONG)
    assert (m * per < target) == (size == "below")
    return omega, thetas, energy, v


class TestParallelPhases:
    @pytest.mark.parametrize("size", ["below", "above"])
    @pytest.mark.parametrize("case", ["scalar", "per-phase", "column", "d2"])
    def test_bit_identical_at_every_cap(self, golden, omega2, two_cos, pools,
                                        case, size):
        omega, thetas, energy, v = parallel_case(case, size, golden, omega2,
                                                 two_cos)
        want = cocycle_batch(omega, thetas, energy, PARALLEL_N, v) / PARALLEL_N
        for cap in (1, 2, 3):
            got = with_thread_cap(cap, _phi_values, omega, thetas, energy,
                                  PARALLEL_N, v)
            assert got.shape == want.shape
            assert np.array_equal(got, want), (case, size, cap)
        # Just over the floor two workers split it; a third would sit below.
        # Below it every part runs in the calling thread.
        if size == "below":
            assert pools["workers"] == []
            assert pools["threads"] == {threading.get_ident()}
        else:
            assert pools["workers"] == [2, 2]

    def test_large_cap_starts_no_more_threads_than_parts(self, golden, pools):
        # Two phases at a floor's worth of energies each: two parts.
        energy = np.linspace(-6.0, 6.0, _SPLIT_FLOOR)[:, np.newaxis]
        thetas = np.array([0.1, 0.7])
        v = cosine_potential(5.0)
        got = with_thread_cap(64, _phi_values, golden, thetas, energy, 10, v)
        assert pools["workers"] == [2]
        assert len(pools["threads"]) <= 2
        assert threading.get_ident() not in pools["threads"]
        assert np.array_equal(got, cocycle_batch(golden, thetas, energy, 10,
                                                 v) / 10)

    def test_no_thread_outlives_the_call(self, golden):
        before = threading.active_count()
        thetas = np.linspace(0.0, 1.0, 4 * _SPLIT_FLOOR, endpoint=False)
        with_thread_cap(4, _phi_values, golden, thetas, 0.0, 10,
                        cosine_potential(5.0))
        assert threading.active_count() == before


NON_INTEGRAL_N_ROUTES = {
    "cocycle_batch": lambda g, v, n: cocycle_batch(g, [0.1, 0.7], 0.0, n, v),
    "_phi_values": lambda g, v, n: _phi_values(g, np.array([0.1, 0.7]), 0.0,
                                               n, v),
    "lyapunov_scan": lambda g, v, n: lyapunov_scan(g, [0.0, 1.0], n, v),
    "lyapunov_n": lambda g, v, n: lyapunov_n(g, 0.0, n, v),
    "deviation_measure": lambda g, v, n: deviation_measure(
        g, 0.0, n, 0.3, v, samples=1000),
}


@pytest.mark.parametrize("route", list(NON_INTEGRAL_N_ROUTES))
def test_non_integral_n_is_rejected(route, golden, mathieu5):
    # 10.5 would step 11 times and divide by 10.5.  numpy integers give
    # the results of Python ints.
    call = NON_INTEGRAL_N_ROUTES[route]
    with pytest.raises(ValueError, match="integer"):
        call(golden, mathieu5, 10.5)
    want, got = call(golden, mathieu5, 10), call(golden, mathieu5, np.int64(10))
    if isinstance(want, np.ndarray):
        assert np.array_equal(got, want)
    else:
        assert got == want
