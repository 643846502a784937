import math

import numpy as np
import pytest

from conespec.coneop import (ConeOperator, discretize, grid_spectral_data,
                             laplace_type, oracle_spectral_data)
from conespec.errors import (ConfigurationError, InsufficientSpectrumError,
                             NumericalError)
from conespec.opfile import parse_operator
from conespec.traces import (WeightOperator, complex_power_sum, heat_trace,
                             heat_trace_contour, identity_weight,
                             resolvent_power_trace,
                             resolvent_power_trace_spectral,
                             weighted_heat_trace, weighted_spectral_data)


def single_mode_op():
    # indicial constant 1/4: exact eigenvalues (k pi)^2
    return ConeOperator(2.0, (0, 0), lambda m: [0.25, 0.0, 1.0],
                        label="nu-half")


@pytest.fixture(scope="module")
def sd_half():
    return oracle_spectral_data(single_mode_op(), 4.0e6,
                                meta={"n": 1})


@pytest.fixture(scope="module")
def small_disc():
    return discretize(laplace_type(1.5, mode_cap=4), -8.0, 600)


# ---------------------------------------------------------------------------
# heat trace sums


def test_heat_trace_against_theta_partial_sums(sd_half):
    ts = np.geomspace(1e-3, 1.0, 9)
    series = heat_trace(sd_half, ts)
    for t, v in zip(series.params, series.values):
        k = np.arange(1, 6000)
        direct = np.sum(np.exp(-t * (k * np.pi) ** 2))
        remainder = math.exp(-t * (6000 * math.pi) ** 2)
        assert abs(v - direct) <= 1e-12 * max(direct, 1.0) + remainder


def test_heat_trace_monotone_decreasing(sd_half):
    series = heat_trace(sd_half, np.geomspace(1e-2, 10.0, 25))
    assert np.all(np.diff(series.values) < 0)


def test_heat_sum_over_array_equals_per_time_calls():
    # more declared modes than lam_max reaches: the extra-mode tail counts
    sd = oracle_spectral_data(laplace_type(1.5, mode_cap=80), 2000.0)
    assert len(sd.extra_nus) > 0
    ts = np.concatenate([np.geomspace(1e-3, 5.0, 37),
                         [0.1 * math.exp(v) for v in np.linspace(0.0, 4.0, 11)]])
    vals, tails = sd.heat_sum(ts)
    one_by_one = [sd.heat_sum(t) for t in ts]
    assert np.array_equal(vals, [v for v, _ in one_by_one])
    assert np.array_equal(tails, [tl for _, tl in one_by_one])
    # reference: the per-time loop over modes, in mode order
    for t, v in zip(ts, vals):
        assert v == sum(float(np.sum(np.exp(-t * sd.eigs[m])))
                        for m in sd.modes())
    v, tl = sd.heat_sum(0.01)
    assert type(v) is float and type(tl) is float


def test_heat_trace_refuses_undersampled_spectrum():
    sd = oracle_spectral_data(single_mode_op(), 400.0,
                              meta={"n": 1})
    with pytest.raises(InsufficientSpectrumError) as err:
        heat_trace(sd, np.array([1e-4]))
    assert "count_needed" in err.value.payload


def test_heat_trace_refusal_reports_first_refused_time():
    sd = oracle_spectral_data(single_mode_op(), 400.0,
                              meta={"n": 1})
    with pytest.raises(InsufficientSpectrumError) as err:
        heat_trace(sd, np.array([1.0, 1e-4, 1e-5]))
    payload = err.value.payload
    v, tl = sd.heat_sum(1e-4)
    assert payload["t"] == 1e-4
    assert payload["value"] == v and payload["tail"] == tl


# ---------------------------------------------------------------------------
# contour realization


def test_contour_matches_eigen_sum(small_disc):
    sd = grid_spectral_data(small_disc, 6000.0)
    eig_val, _ = sd.heat_sum(0.01)
    con_val = heat_trace_contour(small_disc, 0.01, N=3)
    assert abs(con_val - eig_val) / eig_val < 5e-3


def test_contour_independent_of_power(small_disc):
    vals = [heat_trace_contour(small_disc, 0.02, N=N) for N in (2, 3, 4)]
    spread = max(vals) - min(vals)
    assert spread / vals[0] < 1e-5


def test_contour_requires_integrable_power(small_disc):
    with pytest.raises(ConfigurationError):
        heat_trace_contour(small_disc, 0.01, N=1)


@pytest.mark.parametrize("N", [2, 3, 4])
def test_contour_equals_eigen_sums_to_roundoff(small_disc, N):
    # the resolvent power comes from exact pivot series, so only the
    # quadrature and rounding stand between the contour and the sums
    t = 0.02
    eig_val, _ = grid_spectral_data(small_disc, 6000.0).heat_sum(t)
    assert abs(heat_trace_contour(small_disc, t, N=N) - eig_val) <= 1e-10 * eig_val
    B = WeightOperator(beta=0.5)
    w_val, _ = weighted_spectral_data(small_disc, B, 6000.0).heat_value(t)
    con = heat_trace_contour(small_disc, t, N=N, bdiag=B.multiplier(small_disc.x))
    assert abs(con - w_val) <= 1e-10 * w_val


@pytest.mark.parametrize("t", [0.0, -0.01, math.nan, math.inf])
def test_contour_rejects_bad_time(small_disc, t):
    with pytest.raises(ConfigurationError):
        heat_trace_contour(small_disc, t)


def test_contour_rejects_fractional_power(small_disc):
    with pytest.raises(ConfigurationError):
        heat_trace_contour(small_disc, 0.02, N=2.5)


def test_contour_refuses_spectrum_left_of_its_vertex(tmp_path):
    # modes -1, 0, 1 have eigenvalues down to -3.3e4, left of lam = -1
    path = tmp_path / "negative.op"
    path.write_text("mu = 2\nalpha = 1\nmodes = -2..2\nbc = dirichlet\n"
                    "coeff[0] = m^2 - 4\ncoeff[2] = 1\n")
    disc = discretize(parse_operator(path), -6.0, 150)
    with pytest.raises(NumericalError) as err:
        heat_trace_contour(disc, 0.05)
    assert err.value.payload["modes"] == [-1, 0, 1]


# ---------------------------------------------------------------------------
# weighted traces


def test_identity_weight_reduces_to_heat_trace(small_disc):
    wsd = weighted_spectral_data(small_disc, identity_weight(), 3000.0)
    ts = np.array([0.05, 0.2])
    whs = weighted_heat_trace(wsd, identity_weight(), ts)
    sd = grid_spectral_data(small_disc, 3000.0)
    hs = heat_trace(sd, ts)
    assert np.max(np.abs(whs.values - hs.values) / hs.values) < 1e-12


def _stride_loop_block_sum(f, k0, lam_of_k, coef):
    # the block-by-block loop that the array evaluation replaced
    acc = 0.0
    k = k0
    while True:
        stride = max(1, (k - k0) // 8)
        term = coef(lam_of_k(k)) * f(lam_of_k(k)) * stride
        acc += term
        if term < 1e-18 * max(acc, 1e-300) or k > k0 + 300000:
            return acc
        k += stride


def _stride_loop_tail(wsd, f):
    tail = 0.0
    for m in wsd.modes():
        c1, c0 = wsd.weyl[m]
        C, q = wsd.bfit[m]
        tail += _stride_loop_block_sum(
            f, len(wsd.pairs[m][0]) + 1, lambda k: (c1 * k + c0) ** 2,
            lambda L: C * max(L, 1.0) ** q)
    cap = wsd._b_cap()
    total = 0.0
    for nu in wsd.extra_nus:
        if cap * f(nu * nu) < 1e-18 * max(total, 1e-300):
            break
        total += _stride_loop_block_sum(f, 0, lambda k: (math.pi * k + nu) ** 2,
                                        lambda L: cap)
    return tail + total


def test_tail_block_sums_match_stride_loop():
    # modes beyond |m| ~ 30 have no eigenvalue below the cap: mode tails too
    disc = discretize(laplace_type(1.5, mode_cap=40), -6.0, 150)
    wsd = weighted_spectral_data(disc, WeightOperator(beta=1.0), 900.0)
    assert len(wsd.extra_nus) > 0
    for t in np.geomspace(1e-4, 1.0, 9):
        _, tail = wsd.heat_value(t)
        ref = _stride_loop_tail(wsd, lambda L: math.exp(-t * L))
        assert abs(tail - ref) <= 1e-12 * ref
    for N in (2, 3):
        for lam in (-1.0, -100.0, 3.0 + 4.0j):
            _, tail = wsd.resolvent_power_value(lam, N)
            ref = _stride_loop_tail(wsd, lambda L: abs(L - lam) ** -N)
            assert abs(tail - ref) <= 1e-12 * ref


def test_nonnegative_weight_gives_positive_trace(small_disc):
    B = WeightOperator(beta=0.5, mu_prime=0.0)
    wsd = weighted_spectral_data(small_disc, B, 3000.0)
    series = weighted_heat_trace(wsd, B, np.geomspace(0.02, 0.5, 9))
    assert np.all(series.values > 0)


# ---------------------------------------------------------------------------
# resolvent power traces


def test_resolvent_power_identity_algebra(small_disc):
    wsd = weighted_spectral_data(small_disc, identity_weight(), 3000.0)
    lam = np.array([-7.0, -80.0], dtype=complex)
    series = resolvent_power_trace(wsd, identity_weight(), 2, lam)
    direct = []
    for L in lam:
        acc = 0.0
        for m, (lams, bs) in wsd.pairs.items():
            acc += np.sum(bs.real / (lams - L.real) ** 2)
        direct.append(acc)
    assert np.max(np.abs(series.values.real - direct)) < 1e-10


def test_trace_class_precondition_enforced(small_disc):
    wsd = weighted_spectral_data(small_disc, identity_weight(), 3000.0)
    with pytest.raises(ConfigurationError):
        resolvent_power_trace(wsd, identity_weight(), 1, np.array([-5.0]))
    B_heavy = WeightOperator(beta=0.0, mu_prime=2.5)
    with pytest.raises(ConfigurationError):
        resolvent_power_trace(wsd, B_heavy, 2, np.array([-5.0]))


def test_resolvent_power_spectral_matches_formula(sd_half):
    lam = np.array([-3.0, -40.0], dtype=complex)
    series = resolvent_power_trace_spectral(sd_half, 2, lam)
    lams = sd_half.all_eigs()
    for L, v in zip(lam, series.values):
        assert abs(v - np.sum((lams - L) ** -2.0)) < 1e-12 * abs(v)


# ---------------------------------------------------------------------------
# complex power sums


def test_power_sum_closed_form(sd_half):
    # eigenvalues (k pi)^2: the power sum at -2 is pi^(-4) zeta(4) = 1/90
    val, tail = complex_power_sum(sd_half, -2.0)
    assert abs(val.real - 1.0 / 90.0) < 2e-10
    assert tail < 1e-9


def test_power_sum_dominated_by_smallest_eigenvalue(sd_half):
    lam1 = sd_half.min_eig()
    val, _ = complex_power_sum(sd_half, -30.0)
    assert abs(val.real - lam1 ** -30.0) / lam1 ** -30.0 < 1e-10


def test_power_sum_convergence_margin_enforced(sd_half):
    with pytest.raises(ConfigurationError):
        complex_power_sum(sd_half, -0.9)
