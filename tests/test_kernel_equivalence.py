"""The shared stepping kernel against the four loops it replaced.

Each oracle below is one of the hand-written stepping loops that preceded
``transfer._final``, kept verbatim.  The kernel now runs a two-term
recurrence and rescales by a power of two only every few steps, so it rounds
differently: real log norms must agree within 1e-12 relative (measured at
most 7.8e-15) and entries, once aligned to the same log scale, within 1e-10
(measured at most 2.1e-12).  Complex and per-step paths must agree to the
stated tolerances.

The batch oracle takes its rows from a long-double evaluation of
v(theta + j omega), the reference the orbit evaluator's rows must also meet
directly, within 1e-14 (1 + coefficient_bound), up to its 2^27 reach.  A
float64 theta + j omega rounds away theta's low bits, so rows evaluated that
way miss the reference by about 1e-11 and are no oracle for these rows.

Orbit rows are summed in blocks of steps.  The per-step generator they
replaced, ``conftest.per_step_rows``, is the oracle for the rows and for
``cocycle_batch`` at tolerance 0, on both sides of every block boundary.

Complex phases run through ``cocycle_batch`` itself; it must give the bits
of the private route (rows, final product, period from |Im z|, closed-form
norm) that complex lines were assembled from before, at tolerance 0.
``complexified_growth_check`` reads its norm there and its per-step growth
from the ratio recurrence r_j = a_j - 1/r_(j-1) on one ``box_diagonal``
line, never stepping the kernel itself; the normalised (u, v) loop
``oracle_uv_loop`` is the oracle for the per-step margin and |u| >= |v|.

``TrigPotential.eval_batch`` is the orbit evaluator's row at step 0, with
the bits of ``box_diagonal((0, 0), ...)``, and evaluates complex points the
same way.  The exp/matmul formula it replaced there, which summed
exp(2 pi i z.k) c_k over every wave vector, is the oracle for complex points
within 1e-13 (1 + sup of |v| on the line).  On one frequency, real points
keep the bits of the harmonic loop it replaced on the torus.  On the
2-torus that loop formed its angles by a matmul, which may fuse multiply
and add; the evaluator forms them as products and a sum, so there the loop
is an oracle within 1e-14 (1 + coefficient_bound), the row tolerance.  Real
points far from [0, 1) must meet that tolerance against the long-double
reference too.

``green_solve`` is checked the same way against the banded inverse and
signed-log conversion it replaced, at tolerance 0: the new one calls the
LAPACK routine behind that banded solve directly and only changes where the
solve and the conversion put their results.  The log|det| it reads off its
own LU factors for the ``DET_FLOOR`` check must match the continuant route's
within 1e-12 relative.
"""

import itertools
import math

import numpy as np
import pytest

from qplab import (SingularEnergy, StripExceeded, complexified_growth_check,
                   cocycle_batch, cosine_potential, epsilon_gap,
                   golden_frequency, green_cramer_matrix, green_solve,
                   greens, transfer, two_cosine_potential, two_torus_frequency,
                   verify_det_identity, zero_potential)

from qplab.greens import _scipy_linalg
from qplab.model import TrigPotential, _harmonic_sum, _phase_harmonics
from qplab.transfer import (_as_batch, _final, _log_opnorm, _orbit_rows,
                            _period, box_diagonal, cocycle_complex,
                            det_sequence)

from conftest import (cocycle_product, needs_long_double, orbit_phases,
                      per_step_rows, random_trig_potential, reference_orbit)


def oracle_complex_eval(v, zs):
    """The earlier complex evaluation: exp(2 pi i z.k) @ c over every k."""
    z = np.asarray(zs, dtype=complex)
    if v.dim == 1:
        z = z[..., np.newaxis]
    if v._k_all.size == 0:
        return np.broadcast_to(v.coupling * complex(v._c0),
                               z.shape[:-1]).astype(complex).copy()
    phase = np.exp(2j * np.pi * (z @ v._k_all.T.astype(complex)))
    return v.coupling * (phase @ v._c_all)


def oracle_real_eval(v, thetas):
    """The real evaluation as it was before it also took complex points."""
    th = np.asarray(thetas, dtype=float)
    shape = th.shape if v.dim == 1 else th.shape[:-1]
    val = np.full(shape, v._c0)
    if v.dim == 1:
        angs = (2.0 * math.pi * (th * k) for k in v._k_half[:, 0])
    else:
        table = 2.0 * math.pi * (th @ v._k_half.T)
        angs = (table[..., h] for h in range(table.shape[-1]))
    for ang, a, b in zip(angs, v._a_half, v._b_half):
        if a:
            val += a * np.cos(ang)
        if b:
            val += b * np.sin(ang)
    return v.coupling * val


def oracle_cocycle_batch(omega, thetas, energy, n, v):
    th = np.asarray(thetas, dtype=float)
    if omega.dim == 1:
        th = np.atleast_1d(th)
        batch = th.shape[0]
    else:
        th = th.reshape(-1, 2)
        batch = th.shape[0]
    energy = np.asarray(energy, dtype=float)

    m00 = np.ones(batch)
    m01 = np.zeros(batch)
    m10 = np.zeros(batch)
    m11 = np.ones(batch)
    ls = np.zeros(batch)
    for j in range(1, n + 1):
        a = reference_orbit(v, omega, th, j) - energy
        n00 = a * m00 + m10
        n01 = a * m01 + m11
        n10 = -m00
        n11 = -m01
        # Scale by the max entry first so squaring cannot overflow even for
        # couplings near the float ceiling.
        mx = np.maximum(np.maximum(np.abs(n00), np.abs(n01)),
                        np.maximum(np.abs(n10), np.abs(n11)))
        inv = 1.0 / mx
        s00 = n00 * inv
        s01 = n01 * inv
        s10 = n10 * inv
        s11 = n11 * inv
        f = np.sqrt(s00 * s00 + s01 * s01 + s10 * s10 + s11 * s11)
        finv = 1.0 / f
        m00 = s00 * finv
        m01 = s01 * finv
        m10 = s10 * finv
        m11 = s11 * finv
        ls += np.log(mx) + np.log(f)

    det = m00 * m11 - m01 * m10
    t = m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11
    disc = np.maximum(t * t - 4.0 * det * det, 0.0)
    smax = np.sqrt(0.5 * (t + np.sqrt(disc)))
    log_norms = ls + np.log(smax)
    entries = np.stack([np.stack([m00, m01], axis=-1),
                        np.stack([m10, m11], axis=-1)], axis=-2)
    return log_norms, entries, ls


def oracle_log_norm_trace(n, omega, theta, energy, v):
    th = np.asarray([theta], dtype=float) if omega.dim == 1 else \
        np.asarray(theta, dtype=float).reshape(1, 2)
    w = np.asarray(omega.components, dtype=float)
    m00, m01 = np.ones(1), np.zeros(1)
    m10, m11 = np.zeros(1), np.ones(1)
    ls = np.zeros(1)
    trace = np.empty(n)
    for j in range(1, n + 1):
        ph = (th + j * w[0]) % 1.0 if omega.dim == 1 else (th + j * w) % 1.0
        a = v.eval_batch(ph) - energy
        n00 = a * m00 + m10
        n01 = a * m01 + m11
        n10, n11 = -m00, -m01
        mx = np.maximum(np.maximum(np.abs(n00), np.abs(n01)),
                        np.maximum(np.abs(n10), np.abs(n11)))
        inv = 1.0 / mx
        s00, s01, s10, s11 = n00 * inv, n01 * inv, n10 * inv, n11 * inv
        f = np.sqrt(s00 ** 2 + s01 ** 2 + s10 ** 2 + s11 ** 2)
        finv = 1.0 / f
        m00, m01, m10, m11 = s00 * finv, s01 * finv, s10 * finv, s11 * finv
        ls = ls + np.log(mx) + np.log(f)
        det = m00 * m11 - m01 * m10
        t = m00 ** 2 + m01 ** 2 + m10 ** 2 + m11 ** 2
        disc = np.maximum(t * t - 4.0 * det * det, 0.0)
        trace[j - 1] = float((ls + 0.5 * np.log(0.5 * (t + np.sqrt(disc))))[0])
    return trace


def oracle_complex_log_norm(omega, z, energy, n, v):
    w = omega.components[0]
    m = np.eye(2, dtype=complex)
    ls = 0.0
    for j in range(1, n + 1):
        zz = complex((z.real + j * w) % 1.0, z.imag)
        a = complex(oracle_complex_eval(v, zz).reshape(()))
        step = np.array([[a - energy, 1.0], [-1.0, 0.0]], dtype=complex)
        m = step @ m
        mx = float(np.max(np.abs(m)))
        m = m / mx
        f = math.sqrt(float(np.sum((m * m.conj()).real)))
        m = m / f
        ls += math.log(mx) + math.log(f)
    # closed-form spectral norm of the unit-scale entries
    t = float(np.sum((m * m.conj()).real))
    d2 = float(abs(np.linalg.det(m)) ** 2)
    disc = max(t * t - 4.0 * d2, 0.0)
    return ls + math.log(math.sqrt(0.5 * (t + math.sqrt(disc))))


def oracle_uv_loop(scaled, omega, energy, y0, n, log_growth):
    w = omega.components[0]
    u, vv = 1.0 + 0.0j, 0.0 + 0.0j
    log_u = 0.0
    per_step_margin = math.inf
    uv_ok = True
    for j in range(1, n + 1):
        z = complex((j * w) % 1.0, y0)
        a = complex(oracle_complex_eval(scaled, z).reshape(())) - energy
        u_new = a * u + vv
        v_new = -u
        au = abs(u_new)
        if au <= 0.0:
            uv_ok = False
            per_step_margin = -math.inf
            break
        per_step_margin = min(per_step_margin, math.log(au) - log_growth)
        if au < abs(v_new):
            uv_ok = False
        log_u += math.log(au)
        u, vv = u_new / au, v_new / au
    return per_step_margin, uv_ok


GOLDEN = golden_frequency()
OMEGA2 = two_torus_frequency()


def _real_cases():
    rng = np.random.default_rng(11)
    th1 = rng.random(64)
    th2 = rng.random((64, 2))
    per_phase = rng.uniform(-4.0, 4.0, 64)
    rand1 = random_trig_potential(rng, degree=3)
    rand2 = random_trig_potential(rng, degree=2, dim=2, strip_width=0.5)
    # The "start" cases run a block that starts 137 (41) steps along the
    # orbit, as the cocycle at the shifted phase.
    return [
        ("d1-scalar-E", GOLDEN, th1, 0.7, 300, cosine_potential(5.0)),
        ("d1-per-phase-E", GOLDEN, th1, per_phase, 300, rand1),
        ("d1-start", GOLDEN, orbit_phases(th1, GOLDEN, 137), -1.3, 200,
         cosine_potential(2.0)),
        ("d1-huge-coupling", GOLDEN, th1[:8], 0.0, 50,
         cosine_potential(1e300)),
        ("d2-scalar-E", OMEGA2, th2, 0.0, 300, two_cosine_potential(50.0)),
        ("d2-per-phase-E", OMEGA2, th2, per_phase, 200, rand2),
        ("d2-start", OMEGA2, orbit_phases(th2, OMEGA2, 41), 0.4, 150,
         two_cosine_potential(3.0)),
    ]


@needs_long_double
@pytest.mark.parametrize("name,omega,thetas,energy,n,v", _real_cases(),
                         ids=[c[0] for c in _real_cases()])
def test_cocycle_batch_bit_for_bit(name, omega, thetas, energy, n, v):
    """Close to the oracle; bit for bit whatever the rescaling period."""
    want_norms, want_entries, want_ls = oracle_cocycle_batch(
        omega, thetas, energy, n, v)
    norms = cocycle_batch(omega, thetas, energy, n, v)
    np.testing.assert_allclose(norms, want_norms, rtol=1e-12, atol=0.0)
    assert np.array_equal(cocycle_batch(omega, thetas, energy, n, v), norms)
    # The products at cocycle_batch's rescaling period, whose log norms it
    # returns.
    entries, ls = cocycle_product(omega, thetas, energy, n, v,
                                  _period(v, np.asarray(energy)))
    aligned = np.exp(ls - want_ls)[:, None, None] * entries
    assert np.max(np.abs(aligned - want_entries)) <= 1e-10
    e = entries
    assert np.array_equal(_log_opnorm(e[..., 0, 0], e[..., 0, 1], e[..., 1, 0],
                                      e[..., 1, 1], ls), norms)
    # Power-of-two rescales are exact: rescaling after every step instead
    # of every few gives the same bits.
    every_step, every_step_ls = cocycle_product(omega, thetas, energy, n, v)
    assert np.array_equal(every_step, entries)
    assert np.array_equal(every_step_ls, ls)


def _row_cases():
    rng = np.random.default_rng(19)
    return [
        ("d1-cos", GOLDEN, rng.random(40), cosine_potential(5.0)),
        ("d1-random", GOLDEN, rng.random(40),
         random_trig_potential(rng, degree=3, amplitude=2.0)),
        ("d2-random", OMEGA2, rng.random((40, 2)),
         random_trig_potential(rng, degree=2, dim=2, strip_width=0.5)),
        ("d1-line", GOLDEN, rng.random(40) + 0.15j, cosine_potential(5.0)),
        ("d1-line-random", GOLDEN, rng.random(40) - 0.05j,
         random_trig_potential(rng, degree=3, strip_width=0.7)),
    ]


def _row_tolerance(v, thetas):
    return 1e-14 * (1.0 + v.coefficient_bound(
        float(np.max(np.abs(np.imag(thetas))))))


@needs_long_double
@pytest.mark.parametrize("name,omega,thetas,v", _row_cases(),
                         ids=[c[0] for c in _row_cases()])
def test_orbit_rows_match_long_double_reference(name, omega, thetas, v):
    """Rows of n = 2000 steps, and real boxes [-1000, 1000], against the
    long-double evaluation of v(theta + j omega)."""
    tol = _row_tolerance(v, thetas)
    rows = _orbit_rows(omega, _as_batch(omega, thetas), 0.0, 2000, v)
    gaps = [np.max(np.abs(row - reference_orbit(v, omega, thetas, j)))
            for j, row in enumerate(rows, 1)]
    assert len(gaps) == 2000
    if not np.iscomplexobj(thetas):
        for theta in thetas[:3]:
            box = box_diagonal((-1000, 1000), omega, theta, v)
            want = reference_orbit(v, omega, theta, np.arange(-1000, 1001))
            gaps.append(np.max(np.abs(box - want)))
    print(f"{name}: largest gap {max(gaps):.3g}, tolerance {tol:.3g}")
    assert max(gaps) <= tol


@needs_long_double
@pytest.mark.parametrize("omega,theta,v", [
    (GOLDEN, 0.37, random_trig_potential(np.random.default_rng(5), degree=3)),
    (OMEGA2, np.array([0.21, 0.64]),
     random_trig_potential(np.random.default_rng(6), degree=1, dim=2,
                           strip_width=0.5)),
], ids=["d1", "d2"])
def test_orbit_reach_limit(omega, theta, v):
    """Sites with j |k|_1 just below 2^27 still meet the row tolerance;
    from 2^27 on, both consumers raise ValueError."""
    reach = int(np.max(np.sum(np.abs(v._k_half), axis=1)))
    top = (2 ** 27 - 1) // reach        # last j with j |k|_1 < 2^27
    for a, b in ((top - 200, top), (-top, -top + 200)):
        box = box_diagonal((a, b), omega, theta, v)
        want = reference_orbit(v, omega, theta, np.arange(a, b + 1))
        assert np.max(np.abs(box - want)) <= _row_tolerance(v, theta)
    with pytest.raises(ValueError, match=r"2\^27"):
        box_diagonal((top - 3, top + 1), omega, theta, v)
    with pytest.raises(ValueError, match=r"2\^27"):
        cocycle_batch(omega, theta, 0.0, top + 1, v)


def _eval_potentials():
    rng = np.random.default_rng(15)
    for dim, degree, strip_width in ((1, 3, 2.0), (1, 6, 0.7), (2, 2, 0.5),
                                     (2, 3, 1.9)):
        for _ in range(25):
            yield rng, random_trig_potential(
                rng, degree=degree, dim=dim, strip_width=strip_width,
                amplitude=float(rng.uniform(0.1, 5.0)))
    yield rng, cosine_potential(5.0)
    yield rng, two_cosine_potential(50.0)
    yield rng, zero_potential()
    yield rng, TrigPotential(dim=2, coeffs={}, strip_width=2.0)
    yield rng, TrigPotential(dim=2, coeffs={(0, 0): -1.5}, strip_width=0.5)


def _line_points(rng, v, imag, count=200):
    """``count`` points on the line Im z = imag (every component for d=2)."""
    real = rng.random(count) if v.dim == 1 else rng.random((count, 2))
    return real + 1j * imag


def test_complex_eval_matches_exp_matmul_formula():
    worst = 0.0
    for rng, v in _eval_potentials():
        edge = v.strip_width / 10.0
        for imag in (0.0, 0.3 * edge, -0.7 * edge, 0.999 * edge,
                     -np.nextafter(edge, 0.0)):
            zs = _line_points(rng, v, imag)
            got = v.eval_batch(zs)
            assert got.dtype == complex and got.shape == zs.shape[:1]
            tol = 1e-13 * (1.0 + v.coefficient_bound(abs(imag)))
            gap = float(np.max(np.abs(got - oracle_complex_eval(v, zs))))
            assert gap <= tol, (v, imag)
            worst = max(worst, gap / tol)
        # Mixed heights in one batch, and the scalar shape.
        zs = _line_points(rng, v, rng.uniform(-edge, edge, 200)[:, None]
                          if v.dim == 2 else rng.uniform(-edge, edge, 200))
        tol = 1e-13 * (1.0 + v.coefficient_bound(edge))
        assert np.max(np.abs(v.eval_batch(zs)
                             - oracle_complex_eval(v, zs))) <= tol
        z0 = zs[0]
        assert v.eval_batch(z0).shape == ()
        assert abs(v.eval_batch(z0) - oracle_complex_eval(v, z0)) <= tol
    print(f"largest gap {worst:.3g} of the tolerance")


def test_real_eval_keeps_its_bits():
    for rng, v in _eval_potentials():
        thetas = rng.random(300) if v.dim == 1 else rng.random((300, 2))
        tol = _row_tolerance(v, thetas)
        for th in (thetas, thetas[:7].tolist(), thetas[0], thetas * 0.0,
                   thetas.astype(np.float32)):
            want = oracle_real_eval(v, th)
            got = v.eval_batch(th)
            assert got.dtype == np.float64
            if v.dim == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= tol


def test_eval_batch_is_the_orbit_row_at_step_0():
    for rng, v in _eval_potentials():
        omega = GOLDEN if v.dim == 1 else OMEGA2
        thetas = rng.random(20) if v.dim == 1 else rng.random((20, 2))
        want = [box_diagonal((0, 0), omega, th, v)[0] for th in thetas]
        assert np.array_equal(v.eval_batch(thetas), want)


def test_eval_batch_skips_only_zero_sine_terms():
    """Harmonics 1 and 4 have b = 0 and skip their sine at step 0; the
    values keep the bits of the sum over every term, as orbit rows take it."""
    v = TrigPotential(dim=1, coeffs={0: 0.25, 1: 0.5, -1: 0.5, 2: 0.3j,
                                     -2: -0.3j, 3: 0.2 - 0.1j, -3: 0.2 + 0.1j,
                                     4: 0.4, -4: 0.4},
                      strip_width=1.5, coupling=3.0)
    assert list(v._b_half == 0) == [True, False, False, True]
    rng = np.random.default_rng(7)
    for z in (rng.random(300), rng.random(300) + 0.1j, rng.random((3, 50))):
        every = _harmonic_sum(v, v._a_half, v._b_half,
                              *_phase_harmonics(v, z), z.shape)
        assert np.array_equal(v.eval_batch(z), every)
    thetas = rng.random(20)
    assert np.array_equal(v.eval_batch(thetas), [
        box_diagonal((0, 0), GOLDEN, th, v)[0] for th in thetas])


@needs_long_double
def test_eval_batch_reduces_real_parts_mod_1():
    """At t + 1e6 the row tolerance still holds: frac is taken exactly
    before the angle is scaled by 2 pi k."""
    for rng, v in _eval_potentials():
        omega = GOLDEN if v.dim == 1 else OMEGA2
        thetas = (rng.random(200) if v.dim == 1
                  else rng.random((200, 2))) + 1e6
        gap = np.abs(v.eval_batch(thetas)
                     - reference_orbit(v, omega, thetas, 0))
        assert np.max(gap) <= _row_tolerance(v, thetas)


def test_complex_eval_strip_guard():
    for v in (cosine_potential(5.0), two_cosine_potential(1.0)):
        edge = v.strip_width / 10.0
        for imag in (edge, -edge, 2.0 * edge):
            z = (0.3 + 1j * imag if v.dim == 1
                 else np.array([[0.1, 0.2], [0.4, 0.5 + 1j * imag]]))
            with pytest.raises(StripExceeded):
                v.eval_batch(z)


def _c13_inputs():
    cos1 = cosine_potential(1.0, strip_width=2.0)
    for e1 in (0.0, 0.5):
        gap = epsilon_gap(cos1, 0.1, e1)
        lam = 101.0 / gap.epsilon
        yield cos1, lam, lam * e1, gap


def private_complex_route(omega, zs, energy, n, v, imag):
    """log norms along complex phases as assembled from the kernel's private
    parts, with the rescale period read at height ``imag``."""
    rows = _orbit_rows(omega, zs, energy, n, v)
    m, ls = _final(rows, _period(v, energy, imag))
    return _log_opnorm(*m, ls)


@pytest.mark.parametrize("eps", [0.0, 0.01, 0.05])
def test_complex_batch_matches_private_route(eps):
    # The acceptance suite's quantized-acceleration lines: 64 phases on
    # Im z = eps against a nine-energy column.
    mathieu5 = cosine_potential(5.0)
    column = np.linspace(-3.3, 3.3, 9)[:, None]
    zs = (np.arange(64) + 0.5) / 64 + 1j * eps
    got = cocycle_batch(GOLDEN, zs, column, 1000, mathieu5)
    want = private_complex_route(GOLDEN, zs, column, 1000, mathieu5, eps)
    assert got.shape == (9, 64)
    assert np.array_equal(got, want)


def _complex_points():
    mathieu5 = cosine_potential(5.0)
    # Two blocks start 17 and 5 steps along the orbit: their real parts
    # are shifted by that many steps.
    cases = [(mathieu5, complex(0.37, 0.0), 1.1, 200),
             (mathieu5, complex(orbit_phases(0.2, GOLDEN, 17), 0.15), -0.5,
              300),
             (mathieu5, complex(orbit_phases(0.61, GOLDEN, 5), -0.12), 0.3,
              250)]
    for cos1, lam, energy, gap in _c13_inputs():
        cases.append((cos1.with_coupling(lam), complex(0.0, gap.y0), energy,
                      1000))
    return cases


def test_cocycle_complex_log_norm():
    for v, z, energy, n in _complex_points():
        got = cocycle_complex(GOLDEN, z, energy, n, v)
        assert isinstance(got, float)
        want = private_complex_route(GOLDEN, np.array([z]), energy, n, v,
                                     abs(z.imag))
        assert got == want[0]
        oracle = oracle_complex_log_norm(GOLDEN, z, energy, n, v)
        assert got == pytest.approx(oracle, rel=1e-12)


def test_complex_batch_errors():
    with pytest.raises(ValueError, match="1-frequency"):
        cocycle_batch(OMEGA2, np.array([[0.1 + 0.01j, 0.2]]), 0.0, 10,
                      two_cosine_potential(1.0))
    mathieu5 = cosine_potential(5.0)            # strip_width/10 = 0.2
    for imag in (0.2, -0.2, 0.3):
        with pytest.raises(StripExceeded):
            cocycle_batch(GOLDEN, np.array([0.1, 0.4 + 1j * imag]), 0.0, 10,
                          mathieu5)


@pytest.mark.parametrize("omega,theta,v", [
    (GOLDEN, 0.11, cosine_potential(5.0)),
    (OMEGA2, np.array([0.3, 0.8]), two_cosine_potential(50.0)),
], ids=["d1", "d2"])
def test_growth_envelope_trace(omega, theta, v):
    # The per-step trace log ||M_j||, j = 1..n, from one kernel run at
    # period 1 over n columns: column j holds the first j rows, then zeros.
    # A zero row's factor [[0, 1], [-1, 0]] is a quarter-turn rotation, so
    # it leaves the norm of M_j unchanged.
    rows = np.concatenate(list(_orbit_rows(omega, _as_batch(omega, theta),
                                           0.3, 500, v)))
    prefixes = np.triu(np.broadcast_to(rows[:, np.newaxis], (500, 500)))
    m, ls = _final(prefixes, 1)
    trace = _log_opnorm(*m, ls)
    want = oracle_log_norm_trace(500, omega, theta, 0.3, v)
    np.testing.assert_allclose(trace, want, rtol=1e-12, atol=0.0)


def test_complexified_growth_check_on_c13_inputs():
    for cos1, lam, energy, gap in _c13_inputs():
        rep = complexified_growth_check(lam, cos1, GOLDEN, energy, gap.y0,
                                        gap.epsilon, 1000)
        scaled = cos1.with_coupling(lam)
        log_growth = math.log(lam * gap.epsilon - 1.0)
        log_norm = oracle_complex_log_norm(GOLDEN, complex(0.0, gap.y0),
                                           energy, 1000, scaled)
        margin = log_norm - 1000 * log_growth
        per_step, uv_ok = oracle_uv_loop(scaled, GOLDEN, energy, gap.y0, 1000,
                                         log_growth)
        assert rep.margin == pytest.approx(margin, rel=1e-12)
        assert rep.per_step_margin == pytest.approx(per_step, abs=1e-9)
        assert rep.uv_ok is uv_ok


def oracle_green_solve(interval, omega, theta, energy, v):
    """The band and solve of ``green_solve`` with its earlier right-hand side
    and conversion: a C-order identity, which the solve copies to Fortran
    order, then float sign, magnitude and log arrays."""
    diag = box_diagonal(interval, omega, theta, v)
    n = diag.size
    ab = np.zeros((3, n))
    ab[0, 1:] = 1.0
    ab[1, :] = diag - energy
    ab[2, :-1] = 1.0
    inv = _scipy_linalg().solve_banded((1, 1), ab, np.eye(n),
                                       overwrite_ab=True, overwrite_b=True)
    sign = np.sign(inv).astype(np.int8)
    safe = np.where(sign == 0, 1.0, np.abs(inv))
    logmag = np.where(sign == 0, -np.inf, np.log(safe))
    return sign, logmag


@pytest.mark.parametrize("interval,omega,theta,energy,v", [
    # Checkerboard of exact zeros.
    ((1, 40), GOLDEN, 0.0, 0.0, zero_potential()),
    ((1, 60), GOLDEN, 0.0, 3.0, zero_potential()),
    # Far entries underflow: subnormals and zeros.
    ((-200, 200), GOLDEN, 0.2, 0.5, cosine_potential(20.0)),
    ((1, 150), OMEGA2, np.array([0.1, 0.2]), 0.3, two_cosine_potential(3.0)),
    ((5, 5), GOLDEN, 0.4, 1.0, cosine_potential(2.0)),
], ids=["free-zeros", "free", "mathieu-underflow", "d2", "one-site"])
def test_green_solve_bit_for_bit(interval, omega, theta, energy, v):
    want_signs, want_logs = oracle_green_solve(interval, omega, theta,
                                               energy, v)
    g = green_solve(interval, omega, theta, energy, v)
    assert g.signs.dtype == np.int8
    assert np.array_equal(g.signs, want_signs)
    assert np.array_equal(g.logs, want_logs)


@pytest.fixture
def lu_log_dets(monkeypatch):
    """The log|det| each ``green_solve`` hands to its floor check."""
    seen = []
    check = greens._check_det

    def recorded(interval, sign, logmag):
        seen.append(logmag)
        return check(interval, sign, logmag)

    monkeypatch.setattr(greens, "_check_det", recorded)
    return seen


def _random_boxes():
    rng = np.random.default_rng(1313)
    for dim, omega in ((1, GOLDEN), (2, OMEGA2)):
        for _ in range(30):
            v = random_trig_potential(rng, degree=3, dim=dim,
                                      amplitude=float(rng.uniform(0.3, 3.0)))
            a = int(rng.integers(-50, 50))
            size = int(rng.integers(1, 301))
            theta = rng.random() if dim == 1 else rng.random(2)
            yield (a, a + size - 1), omega, theta, rng.uniform(-8, 8), v
    yield (1, 2001), GOLDEN, 0.0, 0.5, cosine_potential(5.0)


def test_lu_log_det_matches_continuant(lu_log_dets):
    worst = 0.0
    for interval, omega, theta, energy, v in _random_boxes():
        green_solve(interval, omega, theta, energy, v)
        want = det_sequence(box_diagonal(interval, omega, theta, v)
                            - energy)[1][-1]
        gap = abs(lu_log_dets[-1] - want) / max(1.0, abs(want))
        worst = max(worst, gap)
    print(f"worst relative log|det| gap {worst:.3g}")
    assert worst <= 1e-12


@pytest.mark.parametrize("route", [green_solve, green_cramer_matrix])
@pytest.mark.parametrize("interval", [(1, 1), (1, 3)])
def test_exactly_singular_free_boxes(route, interval):
    with pytest.raises(SingularEnergy) as err:
        route(interval, GOLDEN, 0.0, 0.0, zero_potential())
    assert err.value.log_det == -math.inf


COS2 = cosine_potential(2.0)
# Test ids are the prefix plus the value; green_solve's stay [inf] and [nan].
NON_FINITE_ROUTES = {
    "": lambda e: green_solve((1, 5), GOLDEN, 0.0, e, COS2),
    "cramer-": lambda e: green_cramer_matrix((1, 5), GOLDEN, 0.0, e, COS2),
    "det_sequence-": lambda e: det_sequence(np.array([1.0, e, 2.0])),
    "identity-": lambda e: verify_det_identity(5, GOLDEN, 0.0, e, COS2),
    "cocycle-energy-": lambda e: cocycle_batch(GOLDEN, [0.1, 0.2], e, 5, COS2),
    "cocycle-phase-": lambda e: cocycle_batch(GOLDEN, [0.1, e], 0.5, 5, COS2),
    "box_diagonal-": lambda e: box_diagonal((1, 3), GOLDEN, e, COS2),
}


@pytest.mark.parametrize("call,energy", [
    pytest.param(call, e, id=f"{route}{e}")
    for route, call in NON_FINITE_ROUTES.items()
    for e in (math.inf, math.nan)])
def test_green_solve_rejects_non_finite_energy(call, energy):
    # Every route rejects a non-finite energy, phase or diagonal entry
    # instead of returning a table of NaN.
    with pytest.raises(ValueError):
        call(energy)


@pytest.mark.parametrize("route", [green_solve, green_cramer_matrix])
def test_routes_evaluate_the_potential_once(route, monkeypatch):
    # One build of the orbit evaluator's phase harmonics, at the one phase.
    calls = []
    harmonics = transfer._phase_harmonics

    def counted(v, th):
        calls.append(np.shape(th))
        return harmonics(v, th)

    monkeypatch.setattr(transfer, "_phase_harmonics", counted)
    route((-3, 40), GOLDEN, 0.3, 0.7, cosine_potential(5.0))
    assert calls == [()]


def test_det_identity_evaluates_the_orbit_once(monkeypatch):
    calls = []
    harmonics = transfer._phase_harmonics

    def counted(v, th):
        calls.append(np.shape(th))
        return harmonics(v, th)

    monkeypatch.setattr(transfer, "_phase_harmonics", counted)
    verify_det_identity(40, GOLDEN, 0.3, 0.7, cosine_potential(5.0))
    assert calls == [()]


def test_complexified_growth_sums_its_orbit_in_one_call(monkeypatch):
    cos1, lam, energy, gap = next(_c13_inputs())
    calls = []
    harmonic_sum = transfer._harmonic_sum

    def counted(*args, **kwargs):
        calls.append(args[5])
        return harmonic_sum(*args, **kwargs)

    monkeypatch.setattr(transfer, "_harmonic_sum", counted)
    complexified_growth_check(lam, cos1, GOLDEN, energy, gap.y0, gap.epsilon,
                              1000)
    # The box line for the ratios, then the orbit block of cocycle_batch.
    assert calls == [(1000,), (1000, 1)]


def _block_inputs(kind, batch, rng):
    if kind == "d2":
        return OMEGA2, rng.random((batch, 2)), random_trig_potential(
            rng, degree=2, dim=2, strip_width=0.5)
    th = rng.uniform(-2.0, 2.0, batch)
    if kind == "d1-complex":
        th = th + 1j * rng.uniform(-0.15, 0.15, batch)
    return GOLDEN, th, random_trig_potential(rng, degree=3)


def _block_energy(form, batch, rng):
    if form == "scalar":
        return 0.3
    if form == "per-phase":
        return rng.uniform(-1.0, 1.0, batch)
    return rng.uniform(-2.0, 2.0, (3, 1))


def assert_blocked_like_per_step(omega, thetas, energy, n, v):
    """Rows and ``cocycle_batch`` with the bits of the per-step rows."""
    th = _as_batch(omega, thetas)
    energy = np.asarray(energy, dtype=float)
    steps = 0
    for got, want in itertools.zip_longest(
            _orbit_rows(omega, th, energy, n, v),
            per_step_rows(omega, th, energy, n, v)):
        assert got is not None and want is not None
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), steps
        steps += 1
    assert steps == n
    imag = float(np.max(np.abs(th.imag))) if np.iscomplexobj(th) else 0.0
    m, ls = _final(per_step_rows(omega, th, energy, n, v),
                   _period(v, energy, imag))
    want = _log_opnorm(*m, ls)
    got = cocycle_batch(omega, thetas, energy, n, v)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("batch", [1, 3, 16384])
@pytest.mark.parametrize("form", ["scalar", "per-phase", "column"])
@pytest.mark.parametrize("kind", ["d1", "d2", "d1-complex"])
def test_blocked_rows_match_per_step_rows(kind, form, batch, monkeypatch):
    # Steps n = 1, m - 1, m, m + 1 and 2m + 3 around the block size m, at
    # tolerance 0.  The large batch runs at its own m (4, or 1 against the
    # column); small batches would take tens of thousands of steps through
    # the per-step oracle there, so they run at m = 5, and
    # test_blocked_rows_at_the_full_block crosses one full block.
    rng = np.random.default_rng(batch + 7)
    omega, thetas, v = _block_inputs(kind, batch, rng)
    energy = _block_energy(form, batch, rng)
    results = math.prod(np.broadcast_shapes(np.shape(energy), (batch,)))
    if batch < 16384:
        monkeypatch.setattr(transfer, "_BLOCK", 5 * results)
    m = max(1, transfer._BLOCK // results)
    for n in sorted({1, m - 1, m, m + 1, 2 * m + 3} - {0}):
        assert_blocked_like_per_step(omega, thetas, energy, n, v)


def test_blocked_rows_at_the_full_block():
    # One phase: the first block holds all 2^16 steps, the second one more.
    n = transfer._BLOCK + 1
    assert_blocked_like_per_step(GOLDEN, [0.3], 0.7, n, cosine_potential(5.0))


@pytest.mark.parametrize("batch,energy,n,calls", [
    (16384, 0.3, 400, 100),          # m = 4
    (1000, np.linspace(-1.0, 1.0, 3)[:, np.newaxis], 100, 5),   # m = 21
    (1, 0.3, 2000, 1),
    (1, 0.3, 1 << 16, 1),
    (1, 0.3, (1 << 16) + 1, 2),
], ids=["large", "column", "single", "single-full-block", "single-over"])
def test_cocycle_batch_sums_its_rows_per_block(batch, energy, n, calls,
                                               monkeypatch, one_thread):
    # ceil(n / m) evaluator calls, m = max(1, 2^16 // results per step), for
    # a batch that runs as one part.
    counted_calls = []
    harmonic_sum = transfer._harmonic_sum

    def counted(*args, **kwargs):
        counted_calls.append(args[5])
        return harmonic_sum(*args, **kwargs)

    monkeypatch.setattr(transfer, "_harmonic_sum", counted)
    thetas = np.random.default_rng(1).random(batch)
    cocycle_batch(GOLDEN, thetas, energy, n, cosine_potential(5.0))
    assert len(counted_calls) == calls
    assert sum(shape[0] for shape in counted_calls) == n
