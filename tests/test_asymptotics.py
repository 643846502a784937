import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import rgamma

from conespec import asymptotics
from conespec.asymptotics import (ZetaContinuation, _quad_complex,
                                  fit_expansion, fitted_leading_exponent,
                                  mellin_t_power, ode_fund1, predict_terms,
                                  pushforward_fund2, trace_component_Ak,
                                  zeta_continue)
from conespec.coneop import ConeOperator, oracle_spectral_data
from conespec.errors import (ConditioningError, ConfigurationError,
                             NumericalError)
from conespec.indexsets import IndexSet
from conespec.symbols import ChiCutoff, smoothstep
from conespec.traces import TraceSeries, complex_power_sum, heat_trace


def phi_cut(v, lo=0.35, hi=0.7):
    return 1.0 - smoothstep((np.float64(v) - lo) / (hi - lo))


# ---------------------------------------------------------------------------
# predicted exponent lattices


def test_predict_heat_identity_weight():
    terms = predict_terms(2.0, 0.0, 0.0, 2, 6, kind="heat")
    assert terms[0] == (-1.0, 0)
    assert terms[1] == (-0.5, 0)
    table = dict(terms)
    # logs allowed from exponent 0 on, squared logs on the integers
    assert table[0.0] == 2 and table[1.0] == 2 and table[2.0] == 2
    assert table[0.5] == 1 and table[1.5] == 1


def test_predict_kmax_zero_single_leading_term():
    assert predict_terms(2.0, 0.0, 0.0, 2, 0, kind="heat") == [(-1.0, 0)]


def test_predict_coinciding_lattices():
    # beta = mu' + n makes both log-generating lattices meet at every
    # interior index, so every family-one term carries a log
    terms = predict_terms(2.0, 0.0, 2.0, 2, 6, kind="heat")
    table = dict(terms)
    for gamma in (-1.0, -0.5, 0.5, 1.5):
        assert table[gamma] >= 1


def test_predict_resolvent_mirror():
    terms = predict_terms(2.0, 0.0, 0.0, 2, 4, kind="resolvent", N=2)
    assert terms[0] == (-1.0, 0)
    gams = [g for g, _ in terms]
    assert gams == sorted(gams, reverse=True)
    assert -1.5 in gams and -2.0 in gams


def test_predict_resolvent_needs_N():
    with pytest.raises(ConfigurationError):
        predict_terms(2.0, 0.0, 0.0, 2, 4, kind="resolvent")


# ---------------------------------------------------------------------------
# fitting


def test_exact_recovery():
    x = np.geomspace(1e-3, 1e-1, 60)
    y = 2.0 * x ** -1.0 + 3.0 * x ** -0.5 * np.log(x)
    fit = fit_expansion((x, y), [(-1.0, 0), (-0.5, 1)])
    assert abs(fit.coeff(-1.0, 0) - 2.0) < 1e-9
    assert abs(fit.coeff(-0.5, 1) - 3.0) < 1e-9
    assert fit.residual < 1e-10


def test_omission_inflates_residual():
    x = np.geomspace(1e-3, 1e-1, 60)
    y = 2.0 * x ** -1.0 + 3.0 * x ** -0.5
    full = fit_expansion((x, y), [(-1.0, 0), (-0.5, 0)])
    part = fit_expansion((x, y), [(-1.0, 0)])
    assert part.residual > 1e3 * max(full.residual, 1e-15)


def test_detection_flags():
    x = np.geomspace(1e-3, 1e-1, 80)
    y = 2.0 * x ** -1.0 + 0.5 * x ** 0.5
    fit = fit_expansion((x, y), [(-1.0, 0), (0.5, 0), (1.5, 0)])
    assert fit.coeff(-1.0, 0) == pytest.approx(2.0)
    flags = {(t.gamma, t.logpow): t.detected for t in fit.terms}
    assert flags[(-1.0, 0)] and flags[(0.5, 0)]
    assert not flags[(1.5, 0)]


def test_conditioning_refusal():
    x = np.geomspace(5e-2, 1e-1, 200)  # short window, many collinear columns
    y = x ** -1.0
    cols = [(-1.0, 2), (-0.999999, 2), (-1.000001, 2)]
    with pytest.raises(ConditioningError):
        fit_expansion((x, y), cols)


def test_sample_count_precondition():
    x = np.geomspace(1e-2, 1e-1, 6)
    with pytest.raises(ConfigurationError):
        fit_expansion((x, x), [(-1.0, 0), (0.0, 0)])


def test_fitted_leading_exponent_on_synthetic():
    x = np.geomspace(1e-3, 1e-1, 90)
    y = 0.25 * x ** -1.0 - 1.1 * x ** -0.5 + 3.0
    series = TraceSeries(x, y, np.zeros_like(x), "heat", {})
    g = fitted_leading_exponent(series, (1e-3, 1e-2))
    assert abs(g + 1.0) < 0.01


# ---------------------------------------------------------------------------
# fiber integral expansions


def test_pushforward_separable_exponents_and_coefficients():
    a, b = 0.3, 0.7
    u = lambda xx, yy: phi_cut(xx) * phi_cut(yy) * xx ** a * yy ** b
    E1 = IndexSet([(a, 0)], 2.5, cinf_step=True)
    E2 = IndexSet([(b, 0)], 2.5, cinf_step=True)
    xg = np.geomspace(1e-4, 0.09, 50)
    exp, verdict = pushforward_fund2(u, E1, E2, xg)
    assert verdict.passed
    assert verdict.detected == [(a, 0), (b, 0)]
    # closed forms: the x^a coefficient integrates the other factor's
    # profile, the x^b coefficient has the convergent two-piece form
    c_a = quad(lambda y: phi_cut(y) * y ** (b - a - 1), 0, 1)[0]
    c_b = -1.0 / (b - a) - quad(
        lambda y: (1 - phi_cut(y)) * y ** (a - b - 1), 0, 1)[0]
    assert abs(exp.coeff(a, 0) - c_a) < 1e-6
    assert abs(exp.coeff(b, 0) - c_b) < 1e-6


def test_pushforward_coincidence_produces_log():
    a = 0.5
    u = lambda xx, yy: phi_cut(xx) * phi_cut(yy) * (xx * yy) ** a
    E = IndexSet([(a, 0)], 2.5, cinf_step=True)
    xg = np.geomspace(1e-4, 0.09, 50)
    exp, verdict = pushforward_fund2(u, E, E, xg)
    assert verdict.passed
    assert abs(exp.coeff(a, 1) + 1.0) < 1e-6
    c0 = quad(lambda y: (1 - phi_cut(y)) / y, 0, 1)[0]
    assert abs(exp.coeff(a, 0) + 2 * c0) < 1e-6


def test_pushforward_zero_input():
    E = IndexSet([(0.5, 0)], 2.5, cinf_step=True)
    xg = np.geomspace(1e-4, 0.09, 30)
    exp, verdict = pushforward_fund2(lambda xx, yy: 0.0, E, E, xg)
    assert verdict.passed and len(exp.terms) == 0


# ---------------------------------------------------------------------------
# dilation ODE expansions


def om_cut(v):
    return 1.0 - smoothstep((np.float64(v) - 0.8) / 0.8)


def test_ode_distinct_exponent():
    a, b = 0.4, 1.1
    E = IndexSet([(b, 0)], 3.0, cinf_step=True)
    xg = np.geomspace(1e-4, 0.09, 50)
    exp, verdict = ode_fund1(lambda x: om_cut(x) * x ** b, a, E, xg)
    assert verdict.passed
    assert abs(exp.coeff(b, 0) - 1.0 / (b - a)) < 1e-8
    assert exp.exponent_detected(a) or abs(exp.coeff(a, 0)) > 1e-12


def test_ode_resonant_log_coefficient():
    # g = x^a: the decaying solution is x^a log x + C x^a, log weight one
    a = 0.4
    E = IndexSet([(a, 0)], 3.0, cinf_step=True)
    xg = np.geomspace(1e-4, 0.09, 50)
    exp, verdict = ode_fund1(lambda x: om_cut(x) * x ** a, a, E, xg)
    assert verdict.passed
    assert abs(exp.coeff(a, 1) - 1.0) < 1e-9


def test_ode_zero_right_hand_side():
    E = IndexSet((), 3.0)
    xg = np.geomspace(1e-4, 0.09, 30)
    exp, verdict = ode_fund1(lambda x: 0.0, 0.7, E, xg)
    assert verdict.passed and len(exp.terms) == 0


# ---------------------------------------------------------------------------
# homogeneous component integrals


def test_component_integral_dominant_exponent():
    chi = ChiCutoff(1.0)
    a_k = lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0
    zg = np.geomspace(1e-3, 1e-1, 24)
    res = trace_component_Ak(a_k, chi, zg, mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
    assert res.gamma == pytest.approx(3.0)
    lead = res.expansion.leading_detected()
    assert lead.gamma == pytest.approx(3.0)
    # with full excision the integral is z^3/4 exactly
    assert abs(lead.coeff.real - 0.25) < 1e-4


def test_component_identity_residual():
    chi = ChiCutoff(1.0)
    a_k = lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0
    zg = np.geomspace(1e-3, 1e-1, 16)
    res = trace_component_Ak(a_k, chi, zg, mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
    assert res.identity_residual < 1e-6


def test_component_excision_radius_invariance():
    a_k = lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0
    zg = np.geomspace(1e-3, 1e-1, 20)
    out = []
    for radius in (1.0, 2.0):
        res = trace_component_Ak(a_k, ChiCutoff(radius), zg,
                                 mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
        out.append(sorted({t.gamma for t in res.expansion.detected_terms()}))
    assert out[0] == out[1]


def test_component_rejects_non_integrable():
    chi = ChiCutoff(1.0)
    with pytest.raises(ConfigurationError):
        trace_component_Ak(lambda xi, lam: xi, chi, np.array([0.1]),
                           mu=2.0, N=0, mu_prime=1.0, n=1, k=0)


# ---------------------------------------------------------------------------
# vectorized quadrature against scipy quad, point by point


@pytest.fixture
def fitted_values(monkeypatch):
    """The (grid, values) series each oracle hands to ``fit_expansion``."""
    seen = []
    fit = asymptotics.fit_expansion

    def recording(series, *args, **kwargs):
        seen.append(series)
        return fit(series, *args, **kwargs)

    monkeypatch.setattr(asymptotics, "fit_expansion", recording)
    return seen


def assert_close_per_point(vals, ref, tol=1e-10):
    vals, ref = np.asarray(vals), np.asarray(ref)
    assert np.all(np.abs(vals - ref) <= tol * np.abs(ref))


@pytest.mark.parametrize("a, b", [(0.3, 0.7), (0.5, 0.5)])
def test_pushforward_values_match_quad(fitted_values, a, b):
    u = lambda xx, yy: phi_cut(xx) * phi_cut(yy) * xx ** a * yy ** b
    E1 = IndexSet([(a, 0)], 2.5, cinf_step=True)
    E2 = IndexSet([(b, 0)], 2.5, cinf_step=True)
    pushforward_fund2(u, E1, E2, np.geomspace(1e-4, 0.09, 50))
    (xg, vals), = fitted_values
    ref = [quad(lambda y: u(x / y, y) / y, x, 1.0, epsabs=0.0, epsrel=1e-13,
                limit=400, points=(0.35, 0.7, x / 0.7, x / 0.35))[0]
           for x in xg]
    assert_close_per_point(vals, ref)


def test_ode_values_match_quad(fitted_values):
    a, b = 0.4, 1.1
    g = lambda x: om_cut(x) * x ** b
    ode_fund1(g, a, IndexSet([(b, 0)], 3.0, cinf_step=True),
              np.geomspace(1e-4, 0.09, 50))
    (xg, vals), = fitted_values
    ref = [-(x ** a) * quad(lambda y: y ** (-a - 1.0) * g(y), x, 2.0,
                            epsabs=0.0, epsrel=1e-13, limit=400,
                            points=(0.8, 1.6))[0]
           for x in xg]
    assert_close_per_point(vals, ref)


def test_component_values_match_quad(fitted_values):
    chi = ChiCutoff(1.0)
    a_k = lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0
    trace_component_Ak(a_k, chi, np.geomspace(1e-3, 1e-1, 12),
                       mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
    (zg, vals) = fitted_values[0]
    ray = cmath.exp(1j * math.pi)
    ref = []
    for z in zg:
        lam = z ** -2.0 * ray
        f = lambda xi: chi(xi) * (a_k(xi, lam) + a_k(-xi, lam))
        ref.append((quad(lambda xi: f(xi).real, 0.5, 1.0, epsabs=0.0,
                         epsrel=1e-13)[0]
                    + quad(lambda xi: f(xi).real, 1.0, np.inf, epsabs=0.0,
                           epsrel=1e-13, limit=400)[0]) / (2.0 * math.pi))
    assert_close_per_point(vals, ref)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadrature_refuses_a_jump():
    # a jump at y = 1/2 inside every interval: the composite rule cannot
    # meet its tolerance, and neither can QUADPACK with few subintervals
    step = lambda xx, yy: (yy < 0.5) * 1.0
    E = IndexSet([(0.5, 0)], 2.5, cinf_step=True)
    with pytest.raises(NumericalError):
        pushforward_fund2(step, E, E, np.geomspace(1e-4, 0.09, 10))
    with pytest.raises(NumericalError):
        _quad_complex(lambda xi: (xi < 0.3) + 0j, 0.0, 1.0, 3)


def test_gk21_constants_are_the_kronrod_extension_of_gauss10():
    x = asymptotics._GK21_NODES
    wk, wg = asymptotics._GK21_WEIGHTS, asymptotics._G10_WEIGHTS
    assert np.allclose(np.sort(x[1::2]), np.polynomial.legendre.leggauss(10)[0],
                       rtol=0.0, atol=1e-15)

    def moment(k):
        return 2.0 / (k + 1) if k % 2 == 0 else 0.0

    # 21 Kronrod nodes: exact through degree 31; the 10 Gauss nodes: 19
    for k in range(32):
        assert abs(wk @ x ** k - moment(k)) <= 2e-15
    for k in range(20):
        assert abs(wg @ x[1::2] ** k - moment(k)) <= 2e-15
    assert abs(wk @ x ** 32 - moment(32)) > 1e-12
    assert abs(wg @ x[1::2] ** 20 - moment(20)) > 1e-6


def test_adaptive_gk21_resolves_a_narrow_peak():
    delta = 1e-4
    val, err = asymptotics.adaptive_gk21(
        lambda x: delta / (x * x + delta * delta), -1.0, 1.0, 1e-11)
    exact = 2.0 * math.atan(1.0 / delta)
    assert err <= 1e-11 * exact
    assert abs(val - exact) <= max(err, 4e-16 * exact)


def test_adaptive_gk21_stops_on_a_non_finite_integrand():
    val, err = asymptotics.adaptive_gk21(lambda x: np.full_like(x, np.nan),
                                         -1.0, 1.0, 1e-11)
    assert math.isnan(val) and math.isnan(err)


# ---------------------------------------------------------------------------
# Mellin pieces and the continuation


def test_mellin_closed_form_matches_quadrature():
    t0 = 0.1
    for gamma, j in ((0.5, 0), (1.2, 1), (2.0, 2)):
        for z in (-1.0, -2.5 + 0.4j):
            direct = quad(lambda t: (t ** (gamma - z.real - 1)
                                     * math.cos(-z.imag * math.log(t))
                                     * math.log(t) ** j), 0, t0,
                          epsabs=1e-13, epsrel=1e-13, limit=400)[0]
            formula = mellin_t_power(gamma, j, t0, z)
            assert abs(formula.real - direct) < 1e-12 * max(1, abs(direct))


def test_zeta_single_mode_pipeline():
    # indicial constant 1/4: trace is exactly (pi t)^(-1/2)/2 - 1/2 + small
    op = ConeOperator(2.0, (0, 0), lambda m, x: [0.25, 0.0, 1.0])
    sd = oracle_spectral_data(op, 4.0e6, meta={"n": 1})
    # the fit window must stay below the dual theta regime exp(-1/t)
    ts = np.geomspace(1e-3, 0.06, 100)
    series = heat_trace(sd, ts)
    fit = fit_expansion(series, [(-0.5, 0), (0.0, 0)], window=(1e-3, 0.052))
    assert abs(fit.coeff(-0.5, 0) - 0.5 / math.sqrt(math.pi)) < 1e-9
    assert abs(fit.coeff(0.0, 0) + 0.5) < 5e-9
    zc = zeta_continue(series, fit, t0=0.05)
    poles = zc.pole_report()
    assert len(poles) == 1  # the constant term is killed by 1/Gamma at 0
    assert poles[0].z == pytest.approx(-0.5)
    assert poles[0].order == 1
    # residue of pi^(2z) zeta_R(-2z) at z = -1/2 is -1/(2 pi)
    assert abs(poles[0].residue.real + 1.0 / (2 * math.pi)) < 1e-6
    # two independent pipelines at z = -2: the power sum is 1/90
    v = zc.value(-2.0)
    direct, _ = complex_power_sum(sd, -2.0)
    assert abs(v - direct) < 1e-8
    assert abs(v.real - 1.0 / 90.0) < 1e-8


def test_zeta_truncation_bound_covers_neglected_integral(zeta_cont):
    # the continuation integrates the heat trace over t0 e^v, v in
    # [0, v_max]; measure the piece beyond v_max directly on [v_max, v_max + 5]
    sd, t0 = zeta_cont.source, zeta_cont.t0
    v_max = math.log(46.0 / (t0 * sd.min_eig()) + 2.0)
    xg, wg = np.polynomial.legendre.leggauss(48)
    edges = np.linspace(v_max, v_max + 5.0, 11)
    vs = np.concatenate([0.5 * (b - a) * xg + 0.5 * (a + b)
                         for a, b in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([0.5 * (b - a) * wg
                         for a, b in zip(edges[:-1], edges[1:])])
    heat, _ = sd.heat_sum(t0 * np.exp(vs))
    for z in (-3.0, -2.5, -1.5, -0.5 + 1j, -0.25, 0.5, 1.5 + 2j, 3.3):
        piece = abs(t0 ** (-z) * np.sum(ws * np.exp(-z * vs) * heat)
                    * rgamma(-z))
        bound = zeta_cont.truncation_bound(z)
        assert math.isfinite(bound)
        # a bound, and a close one: the lowest eigenvalue dominates there
        assert piece <= bound <= 1.2 * piece


def test_zeta_truncation_bound_finite_past_exp_overflow():
    # lam_min t_max = 46 + 2 t0 lam_min is about 1230 here, beyond
    # where exp overflows; the bound must stay a finite number
    op = ConeOperator(2.0, (0, 0), lambda m, x: [0.25, 0.0, 1.0])
    sd = oracle_spectral_data(op, 1.0e3, meta={"n": 1})
    from conespec.asymptotics import FittedTerm, LogPolyExpansion
    fit = LogPolyExpansion([FittedTerm(-0.5, 0, 0.2820947917738781, True)],
                           (1e-3, 63.0), 1e-9, 1.0, {"mu": 2.0, "n": 1})
    zc = ZetaContinuation(sd, fit, t0=60.0)
    for z in (-3.0, -0.5 + 1j, 1.5):
        assert 0.0 <= zc.truncation_bound(z) < 1e-300


def test_zeta_pole_evaluation_guard():
    op = ConeOperator(2.0, (0, 0), lambda m, x: [0.25, 0.0, 1.0])
    sd = oracle_spectral_data(op, 1.0e5, meta={"n": 1})
    ts = np.geomspace(1e-3, 0.12, 80)
    series = heat_trace(sd, ts)
    fit = fit_expansion(series, [(-0.5, 0), (0.0, 0)], window=(1e-3, 0.105))
    zc = zeta_continue(series, fit, t0=0.1)
    from conespec.errors import ZetaPoleError
    with pytest.raises(ZetaPoleError):
        zc.value(-0.5)


def test_pole_order_matches_log_power():
    # synthetic expansion with a genuine log^1 term away from the integers
    op = ConeOperator(2.0, (0, 0), lambda m, x: [0.25, 0.0, 1.0])
    sd = oracle_spectral_data(op, 1.0e5, meta={"n": 1})
    ts = np.geomspace(1e-3, 0.12, 80)
    series = heat_trace(sd, ts)
    from conespec.asymptotics import FittedTerm, LogPolyExpansion
    fake = LogPolyExpansion(
        [FittedTerm(-0.5, 0, 0.2820947917738781, True),
         FittedTerm(-0.25, 1, 0.7, True)],
        (1e-3, 0.105), 1e-9, 1.0, {"mu": 2.0, "n": 1})
    zc = ZetaContinuation(sd, fake, t0=0.1)
    orders = {p.z.real: p.order for p in zc.pole_report()}
    assert orders[-0.25] == 2
    assert orders[-0.5] == 1
