"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line `ACCEPT-nn PASS|FAIL: description (metric)`; run
with `pytest tests/test_acceptance.py -v -s` to see the lines as they go.
The heavy spectral fixtures are shared with the rest of the suite (see
conftest.py).
"""

import math
import time

import numpy as np

from conespec.asymptotics import (fit_expansion, fitted_leading_exponent,
                                  predict_terms, trace_component_Ak)
from conespec.coneop import (boundary_spectrum, discretize,
                             discretize_halfline, eigenvalues, laplace_type,
                             perturbed_laplace, resolvent_norm)
from conespec.index import (Factorization, argument_principle_count, eta_term,
                            index_assemble, invariance_red_to_const,
                            lorentzian_perturbation, mckean_singer)
from conespec.oracles import (index_algebra_agrees, ode_explicit_check,
                              pushforward_suite, random_index_set)
from conespec.symbols import LEFT_HALF_PLANE, ChiCutoff, resolvent_symbol, \
    seminorm_check
from conespec.traces import (resolvent_power_trace,
                             resolvent_power_trace_spectral,
                             weighted_heat_trace)

from conftest import HEAT_T_MIN


def report(num, ok, text, metric):
    line = f"ACCEPT-{num:02d} {'PASS' if ok else 'FAIL'}: {text} ({metric})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------


def test_accept_01_bessel_oracle_agreement():
    t0 = time.time()
    # independent oracle: bracketed bisection for the first root of tan x = x
    lo, hi = math.pi, 1.5 * math.pi - 1e-9
    f = lambda x: math.sin(x) - x * math.cos(x)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if f(lo) * f(mid) <= 0 else (mid, hi)
    j_ref = 0.5 * (lo + hi)
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 2000)
    lam1 = eigenvalues(disc, 0, count=1)[0]
    rel = abs(lam1 - j_ref ** 2) / j_ref ** 2
    elapsed = time.time() - t0
    report(1, rel < 1e-4 and elapsed < 30.0,
           "first discrete eigenvalue matches the Bessel zero oracle",
           f"rel={rel:.2e}, {elapsed:.1f}s")


def test_accept_02_strip_avoidance():
    ok = True
    metrics = []
    for a in (1.1, 1.5, 2.0):
        bs = boundary_spectrum(laplace_type(a, mode_cap=8), 12.0)
        m = bs.min_abs_im()
        ok = ok and abs(m - a) < 1e-10 and m > 1.0
        metrics.append(f"a={a}: min|Im|={m:.12f}")
    report(2, ok, "boundary spectrum avoids the unit strip with margin a",
           "; ".join(metrics))


def test_accept_03_resolvent_norm_decay(laplace_sd):
    mags = np.geomspace(1e2, 1e6, 41)
    norms = [resolvent_norm(laplace_sd, -m) for m in mags]
    slope = float(np.polyfit(np.log(mags), np.log(norms), 1)[0])
    report(3, -1.05 <= slope <= -0.95,
           "resolvent norm decays like the reciprocal shift on the left ray",
           f"slope={slope:.4f}")


def test_accept_04_kappa_homogeneity():
    disc = discretize_halfline(laplace_type(1.5, mode_cap=0), -12.0, 4.0, 1200)
    lam_min = eigenvalues(disc, 0, count=1)[0]
    worst = 0.0
    for mag in np.geomspace(1e2, 1e4, 9):
        lhs = 1.0 / (mag + lam_min)              # ||(model - lam)^(-1)||
        rhs = (1.0 / mag) / (1.0 + lam_min)      # |lam|^(-1) ||(model - lam/|lam|)^(-1)||
        worst = max(worst, abs(lhs - rhs) / rhs)
    report(4, worst < 0.02,
           "dilation homogeneity of the frozen model resolvent norm",
           f"worst rel dev={worst:.4f}")


def test_accept_05_heat_expansion_lattice(heat_series, heat_fit, wsd_beta,
                                          beta_weight):
    # identity weight: lattice containment, leading exponent, forbidden logs
    half_lattice = all(abs(2 * g - round(2 * g)) < 1e-9 and g >= -1.0 - 1e-9
                       for g in heat_fit.detected_exponents())
    lead = fitted_leading_exponent(heat_series, (HEAT_T_MIN, 1e-2))
    probes = [(-1.0, 1), (-0.5, 1)]  # log terms the lattice forbids
    base = [(t.gamma, t.logpow) for t in heat_fit.terms]
    probe_fit = fit_expansion(heat_series, sorted(set(base) | set(probes)),
                              window=heat_fit.window)
    forbidden = [c for c in probes
                 if any(t.detected and (t.gamma, t.logpow) == c
                        for t in probe_fit.terms)]
    # boundary weight x^(-1) phi: the shifted half-integer family appears
    ts = np.geomspace(2.5e-3, 0.06, 70)
    series_b = weighted_heat_trace(wsd_beta, beta_weight, ts)
    fit_b = fit_expansion(series_b, predict_terms(2.0, 0.0, 1.0, 2, 3,
                                                  kind="heat"))
    ok = (half_lattice and abs(lead + 1.0) <= 0.02 and not forbidden
          and fit_b.exponent_detected(-0.5))
    report(5, ok, "heat trace exponent and log lattices",
           f"lead={lead:.4f}, detected={heat_fit.detected_exponents()}, "
           f"forbidden={forbidden}, beta family detected="
           f"{fit_b.exponent_detected(-0.5)}")


def test_accept_06_resolvent_trace_lattice(laplace_sd, wsd_beta, beta_weight):
    lam = -np.geomspace(10.0, 1e3, 28)
    series = resolvent_power_trace_spectral(laplace_sd, 2, lam.astype(complex))
    fit = fit_expansion((np.abs(lam), series.values),
                        predict_terms(2.0, 0.0, 0.0, 2, 3, kind="resolvent",
                                      N=2))
    lead = fit.leading_detected().gamma
    lam_b = -np.geomspace(3.0, 30.0, 36)
    series_b = resolvent_power_trace(wsd_beta, beta_weight, 2,
                                     lam_b.astype(complex))
    fit_b = fit_expansion((np.abs(lam_b), series_b.values),
                          predict_terms(2.0, 0.0, 1.0, 2, 3,
                                        kind="resolvent", N=2))
    ok = abs(lead + 1.0) < 1e-9 and fit_b.exponent_detected(-1.5)
    report(6, ok, "resolvent power trace lattices",
           f"leading={lead}, beta family detected="
           f"{fit_b.exponent_detected(-1.5)}")


def test_accept_07_zeta_continuation(laplace_sd, heat_fit, zeta_cont):
    poles = zeta_cont.pole_report()
    leading = min(poles, key=lambda p: p.z.real)
    loc_err = abs(leading.z - (-1.0))
    simple = leading.order == 1
    alpha0 = heat_fit.coeff(-1.0, 0)
    res_rel = abs(leading.residue + alpha0) / abs(alpha0)
    below = [p for p in poles if p.z.real < -1.0 - 0.05]
    v = zeta_cont.value(-3.0)
    from conespec.traces import complex_power_sum
    direct, _ = complex_power_sum(laplace_sd, -3.0)
    diff = abs(v - direct)
    ok = (loc_err < 0.05 and simple and res_rel < 0.05 and not below
          and diff < 1e-6)
    report(7, ok, "zeta: leading simple pole, residue, agreement at -3",
           f"loc_err={loc_err:.3f}, order={leading.order}, "
           f"res_rel={res_rel:.3%}, diff(-3)={diff:.2e}")


def test_accept_08_pushforward_suite():
    xg = np.geomspace(1e-4, 0.09, 50)
    all_ok, n_coincident, worst_log = pushforward_suite(
        np.random.default_rng(42), 20, xg)
    report(8, all_ok, "fiber integral expansions on 20 randomized separable cases",
           f"{n_coincident} coincidences, worst log coeff err={worst_log:.2e}")


def test_accept_09_ode_resonance():
    ok, fit_coeff, err = ode_explicit_check(np.geomspace(1e-4, 0.09, 50))
    report(9, ok, "resonant dilation ODE reproduces the explicit log term",
           f"|fit-explicit|={err:.2e}, coeff={fit_coeff.real:+.9f}")


def test_accept_10_component_integral_identity():
    chi = ChiCutoff(1.0)
    a_k = lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0
    zg = np.geomspace(1e-3, 1e-1, 16)
    res = trace_component_Ak(a_k, chi, zg, mu=2.0, N=2, mu_prime=0.0,
                             n=1, k=0)
    report(10, res.identity_residual < 1e-6,
           "Euler derivative identity of the component integral",
           f"residual={res.identity_residual:.2e}")


def test_accept_11_mckean_singer():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((40, 60))
    vals = mckean_singer(B, [0.1, 1.0, 10.0])
    spread = float(np.max(vals) - np.min(vals))
    ok = np.max(np.abs(vals - 20.0)) < 1e-8 and spread < 1e-8
    report(11, ok, "heat trace difference counts the dimension gap",
           f"values={vals.tolist()}, spread={spread:.1e}")


def test_accept_12_eta_term():
    H = lorentzian_perturbation(1.25, 0.5, 1.0)
    eta = eta_term(H)
    oracle = argument_principle_count(H)
    rng = np.random.default_rng(5)
    S = rng.standard_normal((25, 25))
    S = S + S.T
    rep = index_assemble(Factorization(S, H))
    ok = (abs(eta - 1.0) < 1e-6 and oracle == 1
          and rep.integer_distance < 1e-6)
    report(12, ok, "eta integral, argument principle oracle, index assembly",
           f"eta={eta:.9f}, oracle={oracle}, index={rep.value:.9f}")


def test_accept_13_graph_norm_convergence():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0, strength=0.7),
                      -10.0, 800)
    taus = [2.0 ** -k for k in range(2, 9)]
    res = invariance_red_to_const(disc, taus, eps=0.1)
    report(13, res.slope >= 0.8,
           "graph norm decay rate of the frozen-coefficient interpolation",
           f"slope={res.slope:.3f}")


def test_accept_14_index_set_algebra():
    rng = np.random.default_rng(1234)
    n_cases = 10000
    bad = 0
    for _ in range(n_cases):
        A, B, C, D = (random_index_set(rng) for _ in range(4))
        bad += not index_algebra_agrees(A, B, C, D)
    report(14, bad == 0, "randomized index set algebra vs brute force",
           f"{n_cases - bad}/{n_cases} cases")


def test_accept_15_symbol_class_suite():
    q = resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0,
                         LEFT_HALF_PLANE)
    rep = seminorm_check(q, 2, 2, pts_per_decade=40)
    bad = q.with_orders((-3.0, -2.0, 2.0))
    rep_bad = seminorm_check(bad, 0, 0, pts_per_decade=40)
    slope = rep_bad.rows[0].growth_slope
    ok = rep.passed and (not rep_bad.passed) and slope >= 0.9
    report(15, ok, "symbol class membership and misdeclared order failure",
           f"member pass={rep.passed}, misdeclared slope={slope:.3f}")
