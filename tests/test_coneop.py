import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from conespec import coneop
from conespec.coneop import (ConeOperator, _weyl_fit, bessel_zeros,
                             boundary_spectrum, discretize,
                             discretize_halfline, eigenvalues,
                             grid_spectral_data, kappa_scale, laplace_type,
                             oracle_spectral_data, perturbed_laplace,
                             resolvent_norm, resolvent_solve)
from conespec.errors import ConfigurationError, RootFindingError

JREF_32 = 4.4934094579090641753  # first positive root of tan x = x


def tan_root_oracle():
    # bracketed bisection on sin x - x cos x over (pi, 3 pi / 2)
    lo, hi = math.pi, 1.5 * math.pi - 1e-9
    f = lambda x: math.sin(x) - x * math.cos(x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# conormal symbol and boundary spectrum


def test_conormal_symbol_laplace_values():
    op = laplace_type(1.5, mode_cap=2)
    p0 = np.polynomial.Polynomial(op.indicial(0))
    assert p0(1j * 0 + 2.0) == pytest.approx(4.0 + 2.25)
    assert np.allclose(op.indicial(0), [2.25, 0.0, 1.0])
    assert np.allclose(op.indicial(2), [6.25, 0.0, 1.0])


def test_conormal_symbol_constant_family():
    op = ConeOperator(1.0, (-1, 1), lambda m, x: [1.0], label="order-zero")
    assert all(len(op.indicial(m)) == 1 for m in op.mode_list())


def test_boundary_spectrum_closed_form():
    op = laplace_type(1.5, mode_cap=2)
    bs = boundary_spectrum(op, 3.0)
    want = {m: math.sqrt(m * m + 2.25) for m in range(-2, 3)}
    for p in bs.poles:
        assert p.order == 1
        assert abs(abs(p.sigma.imag) - want[p.mode]) < 1e-12
        assert abs(p.sigma.real) < 1e-12


def test_strip_avoidance_above_one():
    for a in (1.1, 1.5, 2.0):
        bs = boundary_spectrum(laplace_type(a, mode_cap=8), 12.0)
        assert bs.min_abs_im() > 1.0
        assert abs(bs.min_abs_im() - a) < 1e-10


def test_double_root_multiplicity():
    # p(sigma) = (sigma - i)^2 = sigma^2 - 2 i sigma - 1
    op = ConeOperator(2.0, (0, 0), lambda m, x: [-1.0, -2.0j, 1.0])
    bs = boundary_spectrum(op, 3.0)
    assert len(bs.poles) == 1
    assert bs.poles[0].order == 2
    assert abs(bs.poles[0].sigma - 1j) < 1e-6


def test_spectrum_ignores_x_perturbation():
    a = laplace_type(1.5, mode_cap=3)
    b = perturbed_laplace(1.5, mode_cap=3, strength=0.9)
    pa = [(p.mode, p.sigma) for p in boundary_spectrum(a, 5.0).poles]
    pb = [(p.mode, p.sigma) for p in boundary_spectrum(b, 5.0).poles]
    assert pa == pb


def test_one_coefficient_rule_gives_conormal_data_and_x_values():
    op = perturbed_laplace(1.5, mode_cap=2, strength=0.5)
    tip = op.indicial(1)
    assert np.array_equal(tip, [3.25, 0.0, 1.0]) and op.indicial(1) is tip
    with pytest.raises(ValueError):
        tip[0] = 0.0  # read-only
    x = np.array([0.0, 0.5, 1.0])
    assert np.array_equal(op.coeffs(1, x)[0], 3.25 + 0.5 * x * np.cos(1.3 * x))
    assert np.array_equal(op.coeffs(1, x)[2], np.ones(3))
    assert np.array_equal(op.frozen().coeffs(1, x)[0], np.full(3, 3.25))
    wide = op.with_modes(4)
    assert not wide.is_frozen
    assert np.array_equal(wide.coeffs(4, x)[0], 18.25 + 0.5 * x * np.cos(1.3 * x))


def test_rule_whose_lists_differ_in_length_between_modes_is_refused():
    # every mode's list has the operator's degree: mode 1 drops c2
    op_rule = lambda m, x: [m * m + 2.25, 0.0, 1.0] if m < 1 else [m * m + 2.25, 1.0]
    with pytest.raises(ConfigurationError, match="flat list") as err:
        ConeOperator(2.0, (-2, 2), op_rule)
    assert err.value.payload["mode"] == 1


def test_leading_coefficient_degenerating_on_a_wider_window_is_refused():
    # c2 vanishes at m = -5 and 5 only: the declared window is fine, and
    # widening it is refused at the first such mode
    op = ConeOperator(2.0, (-2, 2),
                      lambda m, x: [m * m + 2.25, 0.0, 1.0 - (m * m == 25)])
    with pytest.raises(ConfigurationError, match="not b-elliptic") as err:
        op.with_modes(6)
    assert err.value.payload["mode"] == -5
    assert err.value.payload["leading"] == 0.0


def test_indicial_table_rows_are_the_rule_at_zero_per_mode():
    op = perturbed_laplace(1.5, mode_cap=3, strength=0.5)
    for m in op.mode_list():
        assert np.array_equal(op.indicial(m), [m * m + 2.25, 0.0, 1.0])
        assert not op.indicial(m).flags.writeable
    # the frozen model reads the same table
    assert all(op.frozen().indicial(m) is op.indicial(m) for m in op.mode_list())


# ---------------------------------------------------------------------------
# discretization


def test_discretize_preconditions():
    op = laplace_type(1.5, mode_cap=0)
    with pytest.raises(ConfigurationError):
        discretize(op, -4.0, 500)
    with pytest.raises(ConfigurationError):
        discretize(op, -8.0, 50)


def test_discretize_symmetric_tridiagonal():
    disc = discretize(laplace_type(1.5, mode_cap=1), -8.0, 200)
    d, e = disc.matrix(0)
    assert d.shape == (200,) and e.shape == (199,)
    assert np.allclose(d[1:50], d[0])  # frozen coefficients
    assert np.all(disc.w > 0)


def test_perturbed_stiffness_stays_real_symmetric():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0), -8.0, 200)
    d, e = disc.matrix(0)
    assert d.dtype.kind == "f" and e.dtype.kind == "f"
    # the x dependence is visible where x is order one
    assert abs(d[-1] - d[-60]) > 1e-2


def test_second_order_eigenvalue_convergence():
    op = laplace_type(1.5, mode_cap=0)
    errs = []
    for n in (500, 1000):
        disc = discretize(op, -12.0, n)
        lam1 = eigenvalues(disc, 0, count=1)[0]
        errs.append(abs(lam1 - JREF_32 ** 2))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def test_grid_agrees_with_oracle_no_spurious():
    op = laplace_type(1.5, mode_cap=1)
    disc = discretize(op, -12.0, 2500)
    sd = grid_spectral_data(disc, 150.0)
    sdo = oracle_spectral_data(op, 150.0)
    for m in sd.modes():
        # no spurious eigenvalues below half the cutoff, none missing
        half_g = sd.eigs[m][sd.eigs[m] <= 75.0]
        half_o = sdo.eigs[m][sdo.eigs[m] <= 75.0]
        assert len(half_g) == len(half_o)
        k = min(len(sd.eigs[m]), len(sdo.eigs[m]))
        rel = np.abs(sd.eigs[m][:k] - sdo.eigs[m][:k]) / sdo.eigs[m][:k]
        assert np.max(rel) < 1e-3


def test_grid_refuses_a_complex_mode_constant():
    # m^0.5 is complex at negative m: refused, not cast to its real part
    op = ConeOperator(2.0, (-2, 2),
                      lambda m, x: [m * m + 2.25 + m ** 0.5, 0.0, 1.0])
    disc = discretize(op, -10.0, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as err:
            grid_spectral_data(disc, 500.0)
    assert err.value.payload == {"key": "coeff[0]", "mode": -2}


def test_real_spectra_for_real_models():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0), -9.0, 400)
    vals = eigenvalues(disc, 0, count=5)
    assert np.all(np.isreal(vals)) and np.all(vals > 0)


# ---------------------------------------------------------------------------
# Bessel oracle


# a j_max 1.0 above a zero lies below the next one: consecutive zeros lie
# at least 3.07 apart


def test_bessel_nu_three_halves_first_zero():
    z = bessel_zeros([1.5], j_max=tan_root_oracle() + 1.0)[0]
    assert len(z) == 1 and abs(z[0] - tan_root_oracle()) < 1e-11


def test_bessel_half_integer_closed_form():
    z = bessel_zeros([0.5], j_max=6 * np.pi + 1.0)[0]
    assert len(z) == 6
    assert np.max(np.abs(z - np.pi * np.arange(1, 7))) < 1e-11


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 0.5, 2.5, 40.0])
def test_bessel_zeros_match_mpmath(nu):
    # independent oracle: mpmath's besseljzero at 30 significant digits
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k)) for k in range(1, 21)])
    z = bessel_zeros([nu], j_max=ref[-1] + 1.0)[0]
    assert len(z) == 20
    assert np.max(np.abs(z - ref) / ref) < 1e-13


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 40.0, 110.0])
def test_bessel_zeros_j_max_scan_matches_count_scan(nu):
    # the scan cuts its last block one step past j_max: each cut keeps the
    # Sturm count N(nu, j_max) of zeros, bitwise those of a longer scan
    longer = bessel_zeros([nu], j_max=nu + 600.0)[0]
    for j_max in (nu + 12.0, nu + 100.0, nu + 229.0, nu + 231.0, nu + 500.0):
        z = bessel_zeros([nu], j_max=j_max)[0]
        x, order = np.array([j_max]), np.array([nu])
        count, _ = coneop._ratio_sweep(order, x, coneop._sweep_depth(order, x))
        assert len(z) == count[0] > 0 and z[-1] <= j_max
        assert np.array_equal(z, longer[:len(z)])
    assert len(bessel_zeros([nu], j_max=0.5 * nu)[0]) == 0
    with pytest.raises(ConfigurationError):
        bessel_zeros([nu], j_max=math.inf)


# mpmath.besseljzero(347.5, 1) at mpmath.workdps(30).  The call takes about
# 20 s: for the low zeros of a high order, besseljzero first isolates every
# zero up to the k-th on a grid that starts at x = 2.4, where J_347.5 is
# slow to sum, and caches the intervals; whichever k comes first pays.
J_347_5_FIRST = "360.693798189928342451128339439952"


def _mpmath_zeros_after(nu, first, count):
    # besseljzero's own isolation and illinois refinement on mpmath's
    # besselj, on a grid of step 1.5 from the first zero: consecutive
    # zeros lie at least 3.07 apart, so a step holds at most one
    zeros, x = [], first + 1.5
    fx = mpmath.besselj(nu, x)
    while len(zeros) < count:
        y = x + 1.5
        fy = mpmath.besselj(nu, y)
        if fx * fy < 0:
            zeros.append(mpmath.findroot(lambda t: mpmath.besselj(nu, t),
                                         (x, y), solver="illinois"))
        x, fx = y, fy
    return zeros


@pytest.mark.parametrize("nu", [100.0, 200.25, 347.5])
def test_bessel_zeros_match_mpmath_at_large_order(nu):
    # the orders of the laplace_sd spectrum reach 348
    with mpmath.workdps(30):
        if nu == 347.5:
            first = mpmath.mpf(J_347_5_FIRST)
            ref = [first] + _mpmath_zeros_after(nu, first, 19)
        else:
            ref = [mpmath.besseljzero(nu, k) for k in range(1, 21)]
        ref = np.array([float(z) for z in ref])
    z = bessel_zeros([nu], j_max=ref[-1] + 1.0)[0]
    assert len(z) == 20
    assert np.max(np.abs(z - ref) / ref) < 1e-13


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.25])
def test_bessel_zeros_converge_to_roundoff(nu):
    # a Halley iterate that lands on the zero must stop there; replacing
    # its step by bisection leaves errors near 1.5e-14
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k))
                        for k in range(1, 31)])
    z = bessel_zeros([nu], j_max=ref[-1] + 1.0)[0]
    assert len(z) == 30
    assert np.max(np.abs(z - ref) / ref) < 2e-15


def test_bessel_zeros_array_call_equals_scalar_calls():
    nus = np.array([0.0, 0.5, 1.5, 2.25, 40.0, 110.0, 150.0, 347.5])
    for j_max in (60.0, 151.0, 346.4):
        batch = bessel_zeros(nus, j_max=j_max)
        assert len(batch) == len(nus)
        for nu, z in zip(nus, batch):
            assert np.array_equal(z, bessel_zeros([nu], j_max=j_max)[0])
            if nu >= j_max:
                assert z.shape == (0,)
    assert bessel_zeros([], j_max=10.0) == []


# 0.5 lies below the finite order 1.0, whose scan then has no point
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("limit", [{"j_max": 50.0}, {"j_max": 0.5}])
def test_bessel_zeros_rejects_nonfinite_order(bad, limit):
    with pytest.raises(ConfigurationError):
        bessel_zeros([bad], **limit)
    with pytest.raises(ConfigurationError):
        bessel_zeros([1.0, bad], **limit)


@pytest.mark.parametrize("orders", [1.5, [[1.5]]])
def test_bessel_zeros_refuses_orders_not_1d(orders):
    with pytest.raises(ConfigurationError):
        bessel_zeros(orders, j_max=10.0)


def _nan_ratios(monkeypatch):
    # the sweeps keep their true Sturm counts, hence every bracket, but
    # return R_1 = nan: every Halley step fails, and bisection alone needs
    # 43 halvings of a 1.5-wide bracket, more than the 40 iterations
    float_sweep, ratio_sweep = coneop._float_sweep, coneop._ratio_sweep
    monkeypatch.setattr(coneop, "_float_sweep",
                        lambda *lane: (float_sweep(*lane)[0], math.nan))
    monkeypatch.setattr(coneop, "_ratio_sweep", lambda nu, x, depth: (
        ratio_sweep(nu, x, depth)[0], np.full(len(nu), math.nan)))


def test_bessel_zeros_reports_nonconvergence(monkeypatch):
    _nan_ratios(monkeypatch)
    with pytest.raises(RootFindingError) as info:
        bessel_zeros(np.array([0.5, 3.0]), j_max=20.0)
    lo, hi = info.value.payload["interval"]
    assert info.value.payload["nu"] == 0.5 and lo < math.pi < hi


def test_bessel_zeros_refuses_a_count_jump_of_two(monkeypatch):
    # a 1.5 step never holds two zeros, so a count that jumps by two (here
    # the first count past pi, doubled) is a fault, reported with its step
    ratio_sweep = coneop._ratio_sweep

    def doubled(nu, x, depth):
        count, r1 = ratio_sweep(nu, x, depth)
        return np.where(x > math.pi, 2 * count, count), r1

    monkeypatch.setattr(coneop, "_ratio_sweep", doubled)
    with pytest.raises(RootFindingError) as info:
        bessel_zeros([0.5], j_max=20.0)
    lo, hi = info.value.payload["interval"]
    assert lo < math.pi < hi and info.value.payload["counts"] == (0, 2)


def test_bessel_zeros_reports_nonconvergence_on_vector_lanes(monkeypatch):
    monkeypatch.setattr(coneop, "_SCALAR_LANES", 0)
    _nan_ratios(monkeypatch)
    with pytest.raises(RootFindingError) as info:
        bessel_zeros(np.array([0.5, 3.0]), j_max=20.0)
    lo, hi = info.value.payload["interval"]
    assert info.value.payload["nu"] == 0.5 and lo < math.pi < hi


# reference: the sign scan and Halley solve on scipy's jv that the ratio
# sweep replaced, kept to cross-check it


def _jv_scan_zeros(orders, j_max):
    start = np.maximum(orders, 1e-6)
    points = np.where(start < j_max, np.ceil((j_max - start) / 1.5) + 2,
                      0).astype(np.int64)
    ends = np.cumsum(points)
    total = int(ends[-1]) if len(ends) else 0
    lanes, zeros = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for p0 in range(0, total - 1, 2 ** 16):
        p = np.arange(p0, min(p0 + 2 ** 16 + 1, total))
        lane = np.searchsorted(ends, p, side="right")
        x = start[lane] + 1.5 * (p - (ends[lane] - points[lane]))
        f = jv(orders[lane], x)
        i = np.flatnonzero((lane[:-1] == lane[1:])
                           & (np.signbit(f[:-1]) != np.signbit(f[1:]))
                           & (x[:-1] <= j_max))
        lanes.append(lane[i])
        zeros.append(_jv_halley_zeros(orders[lane[i]], x[i], x[i + 1],
                                      f[i], f[i + 1]))
    return np.concatenate(lanes), np.concatenate(zeros)


def _jv_halley_zeros(nu, a, b, fa, fb):
    a, b = a.copy(), b.copy()
    left_sign = np.signbit(fa)
    x = a - fa * (b - a) / (fb - fa)
    live = np.arange(len(x))
    for _ in range(40):
        if not len(live):
            return x
        n, z = nu[live], x[live]
        f = jv(n, z)
        df = jv(n - 1.0, z) - n / z * f
        d2f = -df / z - (1.0 - (n / z) ** 2) * f
        right = np.signbit(f) == left_sign[live]
        lo = np.where(right, z, a[live])
        hi = np.where(right, b[live], z)
        a[live], b[live] = lo, hi
        with np.errstate(divide="ignore", invalid="ignore"):
            new = z - 2.0 * f * df / (2.0 * df * df - f * d2f)
        outside = ~((new >= lo) & (new <= hi))
        new[outside] = 0.5 * (lo[outside] + hi[outside])
        hit = f == 0.0
        new[hit] = z[hit]
        x[live] = new
        done = hit | (np.abs(new - z) <= 1e-13 + 8.9e-16 * np.abs(new))
        live = live[~done]
    raise AssertionError("reference Halley iteration did not converge")


def _jv_bessel_zeros(orders, j_max):
    lanes, zeros = _jv_scan_zeros(orders, j_max)
    return [zeros[(lanes == i) & (zeros <= j_max)] for i in range(len(orders))]


# the orders and cutoff of a heat study: nu_m^2 = m^2 + 1.45^2 up to
# lam_max = 13750
HEAT_ORDERS = np.sqrt(np.arange(120.0) ** 2 + 1.45 ** 2)
HEAT_J_MAX = math.sqrt(13750.0)


@pytest.fixture(scope="module")
def heat_zeros():
    return (bessel_zeros(HEAT_ORDERS, j_max=HEAT_J_MAX),
            _jv_bessel_zeros(HEAT_ORDERS, HEAT_J_MAX))


def test_ratio_sweep_zeros_match_jv_reference(heat_zeros):
    zeros, ref = heat_zeros
    assert [len(z) for z in zeros] == [len(z) for z in ref]
    assert sum(len(z) for z in zeros) == 1704
    rel = np.concatenate([np.abs(z - r) / r for z, r in zip(zeros, ref)])
    assert np.max(rel) <= 1.2e-15


def test_ratio_sweep_zeros_match_mpmath_where_they_differ_from_jv(heat_zeros):
    # the 40 zeros where the two solvers differ most, against mpmath's
    # besseljzero at 40 digits; jv's zeros are off by up to about 1e-15
    zeros, ref = heat_zeros
    rows = sorted(((abs(z - r) / r, nu, k, z)
                   for nu, zs, rs in zip(HEAT_ORDERS, zeros, ref)
                   for k, (z, r) in enumerate(zip(zs, rs), start=1)),
                  reverse=True)[:40]
    worst = 0.0
    with mpmath.workdps(40):
        for _, nu, k, z in rows:
            exact = mpmath.besseljzero(mpmath.mpf(float(nu)), k)
            worst = max(worst, float(abs(mpmath.mpf(float(z)) - exact) / exact))
    assert worst <= 2.5e-16


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.45, 7.3, 40.2])
def test_sturm_count_matches_mpmath_zero_count(nu):
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k)) for k in range(1, 16)])
    x = np.linspace(max(nu, 1e-6), ref[-1] + 2.0, 401)
    x = x[np.min(np.abs(x[:, None] - ref[None, :]), axis=1) > 1e-9]
    for lanes in (slice(None), slice(0, 20)):  # vector and float lanes
        xs = x[lanes]
        nus = np.full(len(xs), nu)
        count, r1 = coneop._ratio_sweep(nus, xs, coneop._sweep_depth(nus, xs))
        assert np.array_equal(count, np.searchsorted(ref, xs))
        # R_1 = J_(nu+1) / J_nu, away from the zeros of J_nu (the ratio
        # crosses zero where J_(nu+1) does, so the error is not relative)
        far = np.min(np.abs(xs[:, None] - ref[None, :]), axis=1) > 0.1
        with mpmath.workdps(30):
            want = np.array([float(mpmath.besselj(nu + 1, t) / mpmath.besselj(nu, t))
                             for t in xs[far]])
        assert np.max(np.abs(r1[far] - want) / (1.0 + np.abs(want))) < 1e-13


def test_sturm_count_across_an_exact_zero_of_a_higher_order(monkeypatch):
    # the first zero of J_1 lands on a floating-point zero (R_1 = inf).
    # Sweeping J_0 there with one more step repeats the same arithmetic one
    # order up, so J_1(x) = 0 shows as R_2 = inf and R_1 = -0.0, and the
    # count must still see the one zero of J_0 below x
    x = bessel_zeros([1.0], j_max=5.0)[0]  # j_(1,1) = 3.83, j_(1,2) = 7.02
    assert len(x) == 1
    depth = coneop._sweep_depth(np.array([1.0]), x)
    for lanes in (coneop._SCALAR_LANES, 0):  # float lanes, numpy lanes
        monkeypatch.setattr(coneop, "_SCALAR_LANES", lanes)
        count, r1 = coneop._ratio_sweep(np.array([1.0]), x, depth)
        assert r1[0] == math.inf and count[0] == 0
        count, r1 = coneop._ratio_sweep(np.array([0.0]), x, depth + 1)
        assert r1[0] == 0.0 and np.signbit(r1[0]) and count[0] == 1


def test_sweep_depth_damps_the_start_below_2_to_minus_64():
    # past x both the true and the truncated ratio lie in [0, e^-a(mu)],
    # cosh a(mu) = mu / x, so the start error reaches the first order past
    # x damped by exp(-2 sum_i a(x + T - i)), i = 0, ..., floor(T)
    x = np.geomspace(1e-6, 1e5, 300)
    t = 4.0 + 8.25 * np.cbrt(x)
    for frac in (0.0, 0.3, 0.999, 1.0):
        nu = frac * x
        assert np.all(coneop._sweep_depth(nu, x) + nu - x >= t - 1e-9 * x)
    for xi, ti in zip(x, t):
        i = np.arange(math.floor(ti) + 1)
        assert 2.0 * np.sum(np.arccosh(1.0 + (ti - i) / xi)) >= 64 * math.log(2)


# nu = 1 and 2.5 land a Halley iterate on a floating-point zero
# (R_1 = inf), nu = 0 and 347.5 are the ends of the tested orders
BITWISE_ORDERS = np.array([0.0, 0.5, 1.0, 1.5, math.sqrt(3.25), 2.5,
                           40.0, 110.0, 150.0, 347.5])


# 361.0 lies just above the first zero of J_347.5
@pytest.mark.parametrize("limit", [{"j_max": 14.0}, {"j_max": 151.0},
                                   {"j_max": 361.0}])
def test_bessel_zeros_float_lanes_equal_vector_lanes(monkeypatch, limit):
    runs = []
    for lanes in (0, 10 ** 9):  # every sweep on numpy lanes, then on floats
        monkeypatch.setattr(coneop, "_SCALAR_LANES", lanes)
        runs.append(bessel_zeros(BITWISE_ORDERS, **limit))
    for vector, floats in zip(*runs):
        assert np.array_equal(vector, floats)


def test_bessel_zeros_batch_equals_scalar_with_exact_zero_hits():
    for j_max in (60.0, 361.0):
        batch = bessel_zeros(BITWISE_ORDERS, j_max=j_max)
        for nu, z in zip(BITWISE_ORDERS, batch):
            assert np.array_equal(z, bessel_zeros([nu], j_max=j_max)[0])


def test_bessel_zeros_unchanged_by_doubled_depth(monkeypatch):
    before = bessel_zeros(np.append(HEAT_ORDERS, BITWISE_ORDERS),
                          j_max=HEAT_J_MAX)
    # every order has zeros up to 420, 347.5 included
    high = bessel_zeros(BITWISE_ORDERS, j_max=420.0)
    depth = coneop._sweep_depth
    monkeypatch.setattr(coneop, "_sweep_depth",
                        lambda nu, x: 2 * depth(nu, x))
    after = bessel_zeros(np.append(HEAT_ORDERS, BITWISE_ORDERS),
                         j_max=HEAT_J_MAX)
    assert all(np.array_equal(a, b) for a, b in zip(before, after))
    assert all(np.array_equal(a, b) for a, b in
               zip(high, bessel_zeros(BITWISE_ORDERS, j_max=420.0)))


def test_oracle_spectral_data_matches_per_mode_zeros():
    # one batched zero search per spectrum; each mode's eigenvalues, Weyl
    # fit and the orders without eigenvalues are those of per-mode calls
    op = laplace_type(1.5, mode_cap=40)
    lam_max = 1500.0
    sd = oracle_spectral_data(op, lam_max)
    extra = []
    for m in op.mode_list():
        nu = math.sqrt(m * m + 2.25)
        z = bessel_zeros([nu], j_max=math.sqrt(lam_max))[0]
        if len(z) == 0:
            extra.append(nu)
            assert m not in sd.eigs
            continue
        assert np.array_equal(sd.eigs[m], z * z)
        assert sd.weyl[m] == _weyl_fit(z * z)
    assert np.array_equal(sd.extra_nus, sorted(extra))
    assert not np.shares_memory(sd.eigs[3], sd.eigs[-3])


def test_weyl_fit_agrees_with_polyfit_on_every_class(laplace_sd):
    # the closed-form least-squares line is np.polyfit's estimator; the
    # intercept is compared on the scale of the fitted sqrt(lam)
    for m in range(0, 349):
        lams = laplace_sd.eigs.get(m)
        if lams is None or len(lams) < 4:
            continue
        half = len(lams) // 2
        k = np.arange(1, len(lams) + 1, dtype=float)
        p1, p0 = np.polyfit(k[half:], np.sqrt(lams[half:]), 1)
        c1, c0 = _weyl_fit(lams)
        assert abs(c1 - p1) <= 1e-13 * abs(p1)
        assert abs(c0 - p0) <= 1e-13 * math.sqrt(lams[-1])


def test_mcmahon_asymptotics():
    nu = 2.25
    k = np.arange(1, 61)
    mcmahon = (k + nu / 2 - 0.25) * np.pi
    z = bessel_zeros([nu], j_max=mcmahon[-1] + 1.0)[0]
    assert len(z) == 60
    diff = np.abs(z - mcmahon)
    assert diff[59] < diff[19] < diff[4]
    # the remaining gap decays like the first correction term 1/(8 beta)
    beta = mcmahon
    corr = (4 * nu ** 2 - 1) / (8 * beta)
    assert abs(diff[59] - corr[59]) < 1e-3


# ---------------------------------------------------------------------------
# dilation action


def test_kappa_identity_and_exact_cell_shift():
    disc = discretize(laplace_type(1.5, mode_cap=0), -10.0, 400)
    u = np.exp(-((disc.s + 5.0) ** 2) / 0.4)
    assert np.array_equal(kappa_scale(u, 1.0, disc.s), u)
    v = kappa_scale(u, math.exp(disc.h), disc.s)
    assert np.max(np.abs(v[:-1] - u[1:])) < 1e-14
    # discrete norm preserved exactly for a pure cell permutation
    assert np.linalg.norm(v[:-1]) == pytest.approx(np.linalg.norm(u[1:]))


def test_kappa_composition_interpolation_error():
    # composition differs from the combined shift by linear interpolation
    # error, bounded by sup|u''| h^2 (the fractional offsets vary with n,
    # so only the O(h^2) envelope is asserted)
    for n in (400, 800):
        disc = discretize(laplace_type(1.5, mode_cap=0), -10.0, n)
        u = np.exp(-((disc.s + 5.0) ** 2) / 0.4)
        a = kappa_scale(kappa_scale(u, 1.3, disc.s), 1.7, disc.s)
        b = kappa_scale(u, 1.3 * 1.7, disc.s)
        sup_u2 = 2.0 / 0.4
        assert np.max(np.abs(a - b)) <= sup_u2 * disc.h ** 2


def test_kappa_truncation_warning():
    disc = discretize(laplace_type(1.5, mode_cap=0), -8.0, 300)
    u = np.exp(-((disc.s + 7.0) ** 2) / 0.2)  # mass near the inner cut
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        kappa_scale(u, 0.05, disc.s)
    assert any("truncated" in str(w.message) for w in caught)


# ---------------------------------------------------------------------------
# resolvent studies


def test_resolvent_solve_negative_axis():
    disc = discretize(laplace_type(1.5, mode_cap=0), -9.0, 300)
    rhs = np.sin(np.pi * (disc.s - disc.s_min) / (0.0 - disc.s_min))
    for lam in (-0.5, -50.0, -5000.0):
        u = resolvent_solve(disc, 0, lam, rhs)
        assert np.all(np.isfinite(u))


def test_resolvent_norm_decay_slope():
    sd = oracle_spectral_data(laplace_type(1.5, mode_cap=40), 3000.0)
    mags = np.geomspace(1e2, 1e6, 33)
    norms = [resolvent_norm(sd, -m) for m in mags]
    slope = np.polyfit(np.log(mags), np.log(norms), 1)[0]
    assert -1.05 <= slope <= -0.95


def test_kappa_homogeneity_of_model_resolvent():
    frozen = laplace_type(1.5, mode_cap=0)
    disc = discretize_halfline(frozen, -12.0, 4.0, 1200)
    lam_min = eigenvalues(disc, 0, count=1)[0]
    for mag in np.geomspace(1e2, 1e4, 7):
        lhs = 1.0 / (mag + lam_min)
        rhs = (1.0 / mag) * (1.0 / (1.0 + lam_min))
        assert abs(lhs - rhs) / rhs < 0.02
