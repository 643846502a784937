import math
import warnings

import mpmath
import numpy as np
import pytest

from conespec.coneop import (ConeOperator, SpectralData, discretize,
                             grid_spectral_data, laplace_type,
                             oracle_spectral_data)
from conespec.asymptotics import HEAT_CUTOFF_EXPONENT
from conespec.errors import (ConfigurationError, InsufficientSpectrumError,
                             NumericalError)
from conespec.opfile import parse_operator
from conespec.traces import (_BLOCK_END, _BLOCK_K, _BLOCK_STRIDE,
                             WeightedSpectralData, WeightOperator,
                             _block_sums, _remainder, complex_power_sum,
                             heat_trace, heat_trace_contour,
                             resolvent_power_trace,
                             resolvent_power_trace_spectral,
                             weighted_heat_trace, weighted_spectral_data)


def identity_weight():
    return WeightOperator(0.0, 0.0, phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          label="identity")


def single_mode_op():
    # indicial constant 1/4: exact eigenvalues (k pi)^2
    return ConeOperator(2.0, (0, 0), lambda m, x: [0.25, 0.0, 1.0],
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
    # reference: the per-time loop over modes, in mode order; one flat sum
    # adds in another order
    for t, v in zip(ts, vals):
        ref = sum(float(np.sum(np.exp(-t * sd.eigs[m]))) for m in sd.modes())
        assert abs(v - ref) <= 1e-14 * ref
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
    assert str(err.value) == "heat trace tail bound too large at small t"
    assert [(k, type(x)) for k, x in payload.items()] == [
        ("t", float), ("tail", float), ("value", float),
        ("lam_max_needed", float), ("count_needed", int)]
    need = HEAT_CUTOFF_EXPONENT / 1e-5
    assert payload["lam_max_needed"] == need
    assert payload["count_needed"] == int(sd.count() * need / sd.lam_max)


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


def test_identity_weighted_data_give_the_plain_traces_bitwise():
    # a WeightedSpectralData is a SpectralData: the plain traces read its
    # eigenvalues, Weyl fits and mode floors, which are those of the grid
    disc = discretize(laplace_type(1.5, 20), -10.0, 400)
    wsd = weighted_spectral_data(disc, identity_weight(), 3000.0)
    assert isinstance(wsd, SpectralData)
    ts = np.geomspace(0.02, 0.5, 9)
    got = heat_trace(wsd, ts)
    want = heat_trace(grid_spectral_data(disc, 3000.0), ts)
    assert np.array_equal(got.values, want.values)
    assert np.array_equal(got.tails, want.tails)


def test_plain_traces_of_weighted_data_carry_plain_metadata():
    disc = discretize(laplace_type(1.5, 4), -8.0, 300)
    wsd = weighted_spectral_data(disc, WeightOperator(beta=1.0), 3000.0)
    plain = grid_spectral_data(disc, 3000.0)
    for got, want in [
            (heat_trace(wsd, [0.05]), heat_trace(plain, [0.05])),
            (resolvent_power_trace_spectral(wsd, 2, [-5.0]),
             resolvent_power_trace_spectral(plain, 2, [-5.0]))]:
        assert np.array_equal(got.values, want.values)
        assert got.meta["mu_prime"] == got.meta["beta"] == 0.0
        assert "weight" not in got.meta


def test_weighted_data_refuse_a_nonpositive_eigenvalue_before_the_fits():
    # m^2 - 40 puts negative eigenvalues in the low modes; the refusal comes
    # before the Weyl fit's square roots and the envelope fit's logarithms,
    # and is the grid spectrum's
    op = ConeOperator(2.0, (-2, 2), lambda m, x: [m * m - 40.0 + 0 * x,
                                                   0.0, 1.0])
    disc = discretize(op, -8.0, 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as grid:
            grid_spectral_data(disc, 500.0)
        with pytest.raises(NumericalError) as weighted:
            weighted_spectral_data(disc, WeightOperator(beta=1.0), 500.0)
    assert str(weighted.value) == "nonpositive eigenvalue in positive model"
    assert weighted.value.payload == grid.value.payload


def _stride_loop_block_sum(f, k0, lam_of_k, coef, rest):
    # the block-by-block loop that the array evaluation replaced, as (block
    # sum, rest): a row that reaches the last block has rest(k), its bound
    # from index k on
    acc = 0.0
    k = k0
    while True:
        stride = max(1, (k - k0) // 8)
        term = coef(lam_of_k(k)) * f(lam_of_k(k)) * stride
        acc += term
        if term < 1e-18 * max(acc, 1e-300):
            return acc, 0.0
        if k > k0 + 300000:
            return acc, rest(k + stride)
        k += stride


def _stride_loop_tail(wsd, f, F, p):
    # (block sums, rest) over all rows; past the blocks f(L) <= F L^(-p), and
    # the rest of a row from index k on is at most the integral over j >= k - 1
    # of C F (c1 j + c0)^(2q - 2p), if that is finite, and of
    # bmax F (c1 j + c0)^(-2p)
    def rest(C, q, c1, c0, bmax):
        def from_k(k):
            y = c1 * (k - 1) + c0
            bounds = [bmax * F * y ** (1 - 2 * p) / (c1 * (2 * p - 1))]
            if 2 * p - 2 * q > 1:
                bounds.append(C * F * y ** (2 * q - 2 * p + 1)
                              / (c1 * (2 * p - 2 * q - 1)))
            return min(bounds)
        return from_k

    rows = []
    for m in wsd.modes():
        c1, c0 = wsd.weyl[m]
        C, q = wsd.bfit[m]
        rows.append(_stride_loop_block_sum(
            f, len(wsd.pairs[m][0]) + 1, lambda k: (c1 * k + c0) ** 2,
            lambda L: C * max(L, 1.0) ** q, rest(C, q, c1, c0, wsd.bmax[m])))
    cap = wsd._b_cap()
    total = 0.0
    for nu in wsd.extra_nus:
        if cap * f(nu * nu) < 1e-18 * max(total, 1e-300):
            break
        rows.append(_stride_loop_block_sum(
            f, 0, lambda k: (math.pi * k + nu) ** 2, lambda L: cap,
            rest(cap, 0.0, math.pi, nu, math.inf)))
        total += sum(rows[-1])
    blocks, rests = zip(*rows)
    return sum(blocks), sum(rests)


def _found_repro_wsd():
    # modes beyond |m| ~ 30 have no eigenvalue below the cap: mode tails too
    disc = discretize(laplace_type(1.5, mode_cap=40), -6.0, 150)
    return weighted_spectral_data(disc, WeightOperator(beta=1.0), 900.0)


def test_tail_block_sums_match_stride_loop():
    wsd = _found_repro_wsd()
    assert len(wsd.extra_nus) > 0
    for t in np.geomspace(1e-4, 1.0, 9):
        _, tail = wsd.heat_value(t)
        ref = sum(_stride_loop_tail(wsd, lambda L: math.exp(-t * L),
                                    (2.5 / (math.e * t)) ** 2.5, 2.5))
        assert abs(tail - ref) <= 1e-12 * ref
    for N in (2, 3):
        for lam in (-1.0, -100.0, 3.0 + 4.0j):
            _, tail = wsd.resolvent_power_value(lam, N)
            ref = sum(_stride_loop_tail(wsd, lambda L: abs(L - lam) ** -N,
                                        2.0 ** N, N))
            assert abs(tail - ref) <= 1e-12 * ref


def test_weighted_tail_bounds_the_rest_past_the_last_block():
    # the top modes' matrix elements are fitted as C lam^(3/2), so the
    # envelope C lam^(3/2) |lam + 1|^(-2) is not summable and every mode row
    # runs to the last block; the tail used to stop there, and now adds the
    # rest, bounded through |b| <= bmax where the fit is not summable
    wsd = _found_repro_wsd()
    assert max(q for _, q in wsd.bfit.values()) == 1.5
    _, tail = wsd.resolvent_power_value(-1.0, 2)
    blocks, rest = _stride_loop_tail(wsd, lambda L: abs(L + 1.0) ** -2, 4.0, 2)
    assert rest > 0
    assert abs((tail - blocks) - rest) <= 1e-2 * rest


def test_tail_remainder_bounds_the_envelope_past_the_blocks():
    # one row from the first index past the blocks on, k_end: the closed-form
    # rest bounds the exact sum of its envelope
    c1, c0, k_end, lam, N = math.pi, 0.7, 300000, -1.0, 3
    y0 = np.array([c1 * (k_end - 1) + c0])
    resolvent = lambda L0: (np.where(L0 >= 2.0, 2.0 ** N, np.inf), N)
    y = lambda k: c1 * k + c0

    def exact(b):
        # Euler-Maclaurin on the summand scaled to 1 at k_end
        g = lambda k: b(k) * (y(k) ** 2 - lam) ** -N
        with mpmath.workdps(30):
            g0 = g(mpmath.mpf(k_end))
            return float(g0 * mpmath.nsum(lambda k: g(k) / g0,
                                          [k_end, mpmath.inf],
                                          method="euler-maclaurin"))

    # matrix elements growing like C lam^q
    C, q = 2.0, 1.2
    rest = _remainder(C, q, c1, y0, math.inf, resolvent)
    ref = exact(lambda k: C * y(k) ** (2 * q))
    assert ref <= rest <= 2.0 ** N * 1.01 * ref
    # like C lam^(5/2), summable only through the bound bmax on every |b|
    rest = _remainder(C, 2.5, c1, y0, 5.0, resolvent)
    ref = exact(lambda k: 5.0)
    assert ref <= rest <= 2.0 ** N * 1.01 * ref
    # the heat envelope with exp(-t lam) = 0.4 at k_end, below 1e-80 past
    # 4 k_end
    t = 1e-12
    rest = _remainder(C, q, c1, y0, math.inf,
                      lambda L0: ((2.5 / (math.e * t)) ** 2.5, 2.5))
    L = y(np.arange(k_end, 4 * k_end, dtype=float)) ** 2
    assert np.sum(C * L ** q * np.exp(-t * L)) <= rest


# the per-mode evaluation that one tail table and flat sums replaced: a value
# loop over the modes, a table row per materialized mode, and a loop over
# the unmaterialized modes that recomputes the cap and stops at the first
# mode whose first term is below 1e-18 of its running sum


def _per_mode_heat(wsd, t):
    val = 0.0
    for m in wsd.modes():
        lams, bs = wsd.pairs[m]
        val += float(np.sum(bs * np.exp(-t * lams)))
    return val


def _per_mode_resolvent(wsd, lam, N):
    val = 0.0 + 0.0j
    for m in wsd.modes():
        lams, bs = wsd.pairs[m]
        val += np.sum(bs * (lams - lam) ** (-float(N)))
    return val


def _mode_tail(wsd, f, envelope):
    if len(wsd.extra_nus) == 0:
        return 0.0
    cap = wsd._b_cap()
    total = 0.0
    for nu in wsd.extra_nus:
        first = cap * f(nu * nu)
        if first < 1e-18 * max(total, 1e-300):
            break
        sums, capped = _block_sums(
            cap * f((math.pi * _BLOCK_K + nu) ** 2) * _BLOCK_STRIDE)
        total += float(sums)
        if capped:
            total += _remainder(cap, 0.0, math.pi,
                                math.pi * (_BLOCK_END - 1) + nu, math.inf,
                                envelope)
    return total


def _per_mode_tail(wsd, f, envelope):
    lams, coefs, rows = [], [], []
    for m in wsd.modes():
        c1, c0 = wsd.weyl.get(m, (math.pi, 0.0))
        C, q = wsd.bfit.get(m, (1.0, 0.0))
        k0 = len(wsd.pairs[m][0]) + 1
        lam = (c1 * (k0 + _BLOCK_K) + c0) ** 2
        lams.append(lam)
        coefs.append(C * np.maximum(lam, 1.0) ** q)
        rows.append((C, q, c1, c1 * (k0 + _BLOCK_END - 1) + c0,
                     wsd.bmax.get(m, math.inf)))
    lams = np.reshape(lams, (-1, len(_BLOCK_K)))
    terms = np.reshape(coefs, (-1, len(_BLOCK_K))) * f(lams) * _BLOCK_STRIDE
    sums, capped = _block_sums(terms)
    tail = float(np.sum(sums)) + _mode_tail(wsd, f, envelope)
    if capped.any():
        tail += _remainder(*np.reshape(rows, (-1, 5)).T[:, capped], envelope)
    return tail


def _heat_envelope(t):
    return (lambda L: np.exp(-t * L),
            lambda L0: ((2.5 / (math.e * t)) ** 2.5, 2.5))


def _resolvent_envelope(lam, N):
    return (lambda L: abs((L - lam)) ** (-float(N)),
            lambda L0: (np.where(L0 >= 2.0 * abs(lam), 2.0 ** N, np.inf), N))


def _benchmark_shaped_wsd():
    # a weighted_eigenpairs study: mode cap 3, every mode materialized
    disc = discretize(laplace_type(1.4, mode_cap=3), -6.0, 150)
    return weighted_spectral_data(disc, WeightOperator(beta=1.0), 700.0)


def _check_flat_against_per_mode(wsd, ts, lams, N):
    # tails below the normal range (wsd_beta at t = 0.06) keep no relative
    # precision; there they must agree within the smallest normal double
    tiny = np.finfo(float).tiny
    tails = []
    for t in ts:
        val, tail = wsd.heat_value(t)
        ref = _per_mode_heat(wsd, t)
        assert abs(val - ref) <= 4e-15 * abs(ref)
        ref = _per_mode_tail(wsd, *_heat_envelope(t))
        assert abs(tail - ref) <= max(1e-12 * ref, tiny)
        tails.append((tail, ref))
    for lam in lams:
        val, tail = wsd.resolvent_power_value(lam, N)
        ref = _per_mode_resolvent(wsd, lam, N)
        assert abs(val - ref) <= 4e-15 * abs(ref)
        ref = _per_mode_tail(wsd, *_resolvent_envelope(lam, N))
        assert abs(tail - ref) <= max(1e-12 * ref, tiny)
        tails.append((tail, ref))
    return tails


def test_flat_weighted_sums_match_per_mode_on_wsd_beta(wsd_beta):
    # the samples of ACCEPT-05 and ACCEPT-06
    _check_flat_against_per_mode(
        wsd_beta, np.geomspace(2.5e-3, 0.06, 70),
        -np.geomspace(3.0, 30.0, 36).astype(complex), 2)


def test_flat_weighted_sums_match_per_mode_with_mode_tails():
    wsd = _found_repro_wsd()
    assert len(wsd.extra_nus) == 32
    for N in (2, 3):
        _check_flat_against_per_mode(wsd, np.geomspace(1e-4, 1.0, 9),
                                     [-1.0, -100.0, 3.0 + 4.0j], N)


def test_flat_weighted_sums_match_per_mode_on_benchmark_shape():
    wsd = _benchmark_shaped_wsd()
    assert len(wsd.extra_nus) == 0
    tails = _check_flat_against_per_mode(
        wsd, np.geomspace(45.0 / 700.0, 0.5, 30), -np.geomspace(1.0, 10.0, 16),
        3)
    # no mode tails: the table rows are the former ones, bit for bit
    assert all(tail == ref for tail, ref in tails)


def test_mode_tail_cap_is_computed_once(monkeypatch):
    calls = []
    b_cap = WeightedSpectralData._b_cap

    def counted(self):
        calls.append(1)
        return b_cap(self)

    monkeypatch.setattr(WeightedSpectralData, "_b_cap", counted)
    wsd = _found_repro_wsd()
    B = WeightOperator(beta=1.0)
    weighted_heat_trace(wsd, B, np.geomspace(0.01, 1.0, 7))
    resolvent_power_trace(wsd, B, 3, -np.geomspace(1.0, 10.0, 5))
    assert len(calls) == 1


def _payload(err):
    return [(k, type(v)) for k, v in err.value.payload.items()]


def test_weighted_heat_trace_refuses_first_large_tail():
    wsd = _found_repro_wsd()
    B = WeightOperator(beta=1.0)
    with pytest.raises(InsufficientSpectrumError) as err:
        weighted_heat_trace(wsd, B, np.array([0.1, 3e-3, 1e-3]))
    assert str(err.value) == "weighted heat trace tail too large"
    assert _payload(err) == [("t", float), ("tail", float), ("value", float),
                             ("lam_cap_needed", float)]
    v, tl = wsd.heat_value(3e-3)
    assert err.value.payload == {"t": 3e-3, "tail": tl, "value": v,
                                 "lam_cap_needed": HEAT_CUTOFF_EXPONENT / 1e-3}


def test_resolvent_power_trace_refuses_first_large_tail():
    wsd = _found_repro_wsd()
    B = WeightOperator(beta=1.0)
    with pytest.raises(InsufficientSpectrumError) as err:
        resolvent_power_trace(wsd, B, 3, np.array([-1.0, -1e4, -1e5]))
    assert str(err.value) == "resolvent power trace tail too large"
    assert _payload(err) == [("lam", complex), ("tail", float),
                             ("value", complex)]
    v, tl = wsd.resolvent_power_value(-1e4 + 0j, 3)
    assert err.value.payload == {"lam": -1e4 + 0j, "tail": tl, "value": v}


def test_traces_of_an_empty_grid_are_empty(sd_half):
    wsd = _found_repro_wsd()
    B = WeightOperator(beta=1.0)
    for series, dtype in [
            (heat_trace(sd_half, np.array([])), float),
            (weighted_heat_trace(wsd, B, []), float),
            (resolvent_power_trace(wsd, B, 2, []), complex)]:
        assert len(series) == 0 and series.values.dtype == dtype
        assert series.tails.dtype == float and len(series.tails) == 0


def test_nonnegative_weight_gives_positive_trace(small_disc):
    B = WeightOperator(beta=0.5, mu_prime=0.0)
    wsd = weighted_spectral_data(small_disc, B, 3000.0)
    series = weighted_heat_trace(wsd, B, np.geomspace(0.02, 0.5, 9))
    assert np.all(series.values > 0)


@pytest.mark.parametrize("t", [0.0, -0.01, math.nan])
def test_weighted_heat_trace_rejects_bad_time(small_disc, t):
    B = WeightOperator(beta=0.5, mu_prime=0.0)
    wsd = weighted_spectral_data(small_disc, B, 3000.0)
    with pytest.raises(ConfigurationError):
        weighted_heat_trace(wsd, B, np.array([0.05, t]))


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
    heavy = weighted_spectral_data(small_disc, B_heavy, 3000.0)
    with pytest.raises(ConfigurationError) as err:
        resolvent_power_trace(heavy, B_heavy, 2, np.array([-5.0]))
    assert err.value.payload["mu_prime"] == 2.5


def test_weighted_traces_refuse_a_weight_other_than_the_datas(small_disc):
    # the data's mu' = 0 would pass the trace-class check that the weight's
    # mu' = 2.5 fails; either way the weight is not the data's
    wsd = weighted_spectral_data(small_disc, identity_weight(), 3000.0)
    for B in (WeightOperator(beta=0.0, mu_prime=2.5), WeightOperator(beta=0.5)):
        with pytest.raises(ConfigurationError) as heat:
            weighted_heat_trace(wsd, B, np.array([0.05]))
        with pytest.raises(ConfigurationError) as res:
            resolvent_power_trace(wsd, B, 2, np.array([-5.0]))
        for err in (heat, res):
            assert err.value.payload == {"weight": B.label,
                                         "data_weight": "identity"}


def test_resolvent_power_spectral_matches_formula(sd_half):
    lam = np.array([-3.0, -40.0], dtype=complex)
    series = resolvent_power_trace_spectral(sd_half, 2, lam)
    lams = sd_half.all_eigs()
    for L, v in zip(lam, series.values):
        assert abs(v - np.sum((lams - L) ** -2.0)) < 1e-12 * abs(v)


def test_resolvent_power_spectral_refuses_shift_on_spectrum(sd_half):
    lam = float(sd_half.eigs[0][4])
    # the refusal does not depend on whether the sums at the refused shift,
    # which divide by zero, are formed before it
    with pytest.raises(NumericalError) as err, np.errstate(all="ignore"):
        resolvent_power_trace_spectral(sd_half, 2, np.array([-3.0, lam, 5.0]))
    assert err.value.payload["lam"] == lam


def test_resolvent_power_spectral_refuses_shift_near_edge(sd_half):
    # Re lam > 0 and |lam| past lam_max / 2, however small Re lam is
    half = sd_half.lam_max / 2
    for lam in (1.2 * half, 1.0 + 1.1j * half):
        with pytest.raises(InsufficientSpectrumError) as err:
            resolvent_power_trace_spectral(sd_half, 2, np.array([-3.0, lam]))
        assert err.value.payload["lam"] == lam


def test_resolvent_power_spectral_first_refused_shift_wins(sd_half):
    on = float(sd_half.eigs[0][4])
    # an eigenvalue past lam_max / 2 fails both checks: the spectrum wins
    both = float(sd_half.eigs[0][-1])
    assert both > sd_half.lam_max / 2
    edge = 0.6 * sd_half.lam_max
    for grid, error, lam in [
            ([edge, on], InsufficientSpectrumError, edge),
            ([on, edge], NumericalError, on),
            ([-3.0, both, on], NumericalError, both)]:
        with pytest.raises(error) as err, np.errstate(all="ignore"):
            resolvent_power_trace_spectral(sd_half, 2, np.array(grid))
        assert err.value.payload["lam"] == lam


@pytest.mark.parametrize("N", [2, 3])
def test_resolvent_power_spectral_tail_rule(sd_half, N):
    # the z = -N power-sum tail, scaled by (edge / (edge - |lam|))^N right
    # of the imaginary axis
    edge = sd_half.lam_max
    lam = np.array([-40.0, 50.0j, -3.0 + 4.0j, -3.0 * edge, 30.0,
                    100.0 + 50.0j, 0.4 * edge])
    tails = resolvent_power_trace_spectral(sd_half, N, lam).tails
    _, tail0 = sd_half.power_sum(-float(N))
    for L, tail in zip(lam, tails):
        if L.real <= 0:
            assert tail == tail0
        else:
            scaled = tail0 * (edge / (edge - abs(L))) ** N
            assert abs(tail - scaled) <= 1e-14 * scaled


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
