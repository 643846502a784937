import math
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from conespec import coneop
from conespec.coneop import (ConeOperator, _weyl_fit, bessel_oracle,
                             bessel_zeros, boundary_spectrum,
                             check_parameter_ellipticity,
                             conormal_symbol, discretize, discretize_halfline,
                             eigenvalues, grid_spectral_data,
                             injectivity_constant, kappa_scale, laplace_type,
                             oracle_spectral_data, perturbed_laplace,
                             resolvent_norm, resolvent_solve)
from conespec.errors import ConfigurationError, RootFindingError
from conespec.symbols import LEFT_HALF_PLANE, Sector

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
    polys = conormal_symbol(op)
    assert polys[0](1j * 0 + 2.0) == pytest.approx(4.0 + 2.25)
    assert np.allclose(polys[0].coef, [2.25, 0.0, 1.0])
    assert np.allclose(polys[2].coef, [6.25, 0.0, 1.0])


def test_conormal_symbol_constant_family():
    op = ConeOperator(1.0, (-1, 1), lambda m: [1.0], label="order-zero")
    assert all(len(p.coef) == 1 for p in conormal_symbol(op).values())


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
    op = ConeOperator(2.0, (0, 0), lambda m: [-1.0, -2.0j, 1.0])
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


# ---------------------------------------------------------------------------
# parameter ellipticity


def test_ellipticity_left_sector_all_flags():
    rep = check_parameter_ellipticity(laplace_type(1.5, mode_cap=2),
                                      LEFT_HALF_PLANE, alpha=1.0)
    assert rep.symbol_ok and rep.clean_weight_line
    assert rep.model_ok is True
    assert rep.all_ok()


def test_ellipticity_positive_axis_fails():
    sector = Sector(-math.pi / 3, math.pi / 3)
    rep = check_parameter_ellipticity(laplace_type(1.5, mode_cap=2),
                                      sector, alpha=1.0)
    assert not rep.symbol_ok
    assert rep.model_ok is False


def test_weight_line_on_root_flagged():
    rep = check_parameter_ellipticity(laplace_type(1.5, mode_cap=2),
                                      LEFT_HALF_PLANE, alpha=1.5)
    assert not rep.clean_weight_line


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


def test_real_spectra_for_real_models():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0), -9.0, 400)
    vals = eigenvalues(disc, 0, count=5)
    assert np.all(np.isreal(vals)) and np.all(vals > 0)


# ---------------------------------------------------------------------------
# Bessel oracle


def test_bessel_nu_three_halves_first_zero():
    z = bessel_zeros(1.5, count=1)[0]
    assert abs(z - tan_root_oracle()) < 1e-11
    assert abs(bessel_oracle(1.5, 1)[0] - z * z) < 1e-12


def test_bessel_half_integer_closed_form():
    z = bessel_zeros(0.5, count=6)
    assert np.max(np.abs(z - np.pi * np.arange(1, 7))) < 1e-11


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 0.5, 2.5, 40.0])
def test_bessel_zeros_match_mpmath(nu):
    # independent oracle: mpmath's besseljzero at 30 significant digits
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k)) for k in range(1, 21)])
    z = bessel_zeros(nu, count=20)
    assert len(z) == 20
    assert np.max(np.abs(z - ref) / ref) < 1e-13


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.5, 40.0, 110.0])
def test_bessel_zeros_j_max_scan_matches_count_scan(nu):
    # the j_max scan cuts its last block one step past j_max; the count
    # scan runs full 512-step blocks (230.4 long), so the j_max values
    # below and above nu + 230 put the cut on both sides of a block edge
    for j_max in (nu + 12.0, nu + 100.0, nu + 229.0, nu + 231.0, nu + 500.0):
        z = bessel_zeros(nu, j_max=j_max)
        k = len(z)
        assert k > 0 and z[-1] <= j_max
        assert np.array_equal(z, bessel_zeros(nu, count=k))
        assert bessel_zeros(nu, count=k + 1)[-1] > j_max
    assert len(bessel_zeros(nu, j_max=0.5 * nu)) == 0
    with pytest.raises(ConfigurationError):
        bessel_zeros(nu, j_max=math.inf)


@pytest.mark.parametrize("nu", [100.0, 200.25, 347.5])
def test_bessel_zeros_match_mpmath_at_large_order(nu):
    # the orders of the laplace_sd spectrum reach 348
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k))
                        for k in range(1, 21)])
    z = bessel_zeros(nu, count=20)
    assert np.max(np.abs(z - ref) / ref) < 1e-13


@pytest.mark.parametrize("nu", [0.0, 1.0, 2.25])
def test_bessel_zeros_converge_to_roundoff(nu):
    # a Halley iterate that lands on the zero must stop there; replacing
    # its step by bisection leaves errors near 1.5e-14
    with mpmath.workdps(30):
        ref = np.array([float(mpmath.besseljzero(nu, k))
                        for k in range(1, 31)])
    z = bessel_zeros(nu, count=30)
    assert np.max(np.abs(z - ref) / ref) < 2e-15


def test_bessel_zeros_array_call_equals_scalar_calls():
    nus = np.array([0.0, 0.5, 1.5, 2.25, 40.0, 110.0, 150.0, 347.5])
    for j_max in (60.0, 151.0, 346.4):
        batch = bessel_zeros(nus, j_max=j_max)
        assert len(batch) == len(nus)
        for nu, z in zip(nus, batch):
            assert np.array_equal(z, bessel_zeros(nu, j_max=j_max))
            if nu >= j_max:
                assert z.shape == (0,)
    for nu, z in zip(nus, bessel_zeros(nus, count=7)):
        assert np.array_equal(z, bessel_zeros(nu, count=7))
    assert bessel_zeros([], j_max=10.0) == []


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("limit", [{"j_max": 50.0}, {"count": 3}])
def test_bessel_zeros_rejects_nonfinite_order(bad, limit):
    with pytest.raises(ConfigurationError):
        bessel_zeros(bad, **limit)
    with pytest.raises(ConfigurationError):
        bessel_zeros([1.0, bad], **limit)


@pytest.mark.parametrize("count", [0, -2, 2.5])
def test_bessel_zeros_rejects_bad_count(count):
    with pytest.raises(ConfigurationError):
        bessel_zeros(1.5, count=count)


def test_bessel_zeros_reports_nonconvergence(monkeypatch):
    # the sign of J_nu keeps every bracket but no step ever settles
    monkeypatch.setattr(coneop, "jv", lambda nu, x: np.sign(jv(nu, x)))
    with pytest.raises(RootFindingError) as info:
        bessel_zeros(np.array([0.5, 3.0]), j_max=20.0)
    lo, hi = info.value.payload["interval"]
    assert info.value.payload["nu"] == 0.5 and lo < math.pi < hi


def test_oracle_spectral_data_matches_per_mode_zeros():
    # one batched zero search per spectrum; each mode's eigenvalues, Weyl
    # fit and the orders without eigenvalues are those of per-mode calls
    op = laplace_type(1.5, mode_cap=40)
    lam_max = 1500.0
    sd = oracle_spectral_data(op, lam_max)
    extra = []
    for m in op.mode_list():
        nu = math.sqrt(m * m + 2.25)
        z = bessel_zeros(nu, j_max=math.sqrt(lam_max))
        if len(z) == 0:
            extra.append(nu)
            assert m not in sd.eigs
            continue
        assert np.array_equal(sd.eigs[m], z * z)
        assert sd.weyl[m] == _weyl_fit(z * z)
    assert np.array_equal(sd.extra_nus, sorted(extra))
    assert not np.shares_memory(sd.eigs[3], sd.eigs[-3])


def test_mcmahon_asymptotics():
    nu = 2.25
    z = bessel_zeros(nu, count=60)
    k = np.arange(1, 61)
    mcmahon = (k + nu / 2 - 0.25) * np.pi
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


def test_injectivity_constant_stable():
    sd = oracle_spectral_data(laplace_type(1.5, mode_cap=40), 3000.0)
    cs = [injectivity_constant(sd, -mag) for mag in np.geomspace(1.0, 1e4, 9)]
    assert min(cs) > 0.5
    assert max(cs) - min(cs) < 0.5


def test_kappa_homogeneity_of_model_resolvent():
    frozen = laplace_type(1.5, mode_cap=0)
    disc = discretize_halfline(frozen, -12.0, 4.0, 1200)
    lam_min = eigenvalues(disc, 0, count=1)[0]
    for mag in np.geomspace(1e2, 1e4, 7):
        lhs = 1.0 / (mag + lam_min)
        rhs = (1.0 / mag) * (1.0 / (1.0 + lam_min))
        assert abs(lhs - rhs) / rhs < 0.02
