import cmath
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad_vec
from scipy.linalg import eigvalsh_tridiagonal, hessenberg

from conespec import asymptotics
from conespec import index as indexmod
from conespec import pencil
from conespec.coneop import discretize, laplace_type, perturbed_laplace
from conespec.errors import ConfigurationError, NumericalError
from conespec.index import (MellinPerturbation, argument_principle_count,
                            eta_term, index_assemble, invariance_red_to_const,
                            invariance_red_to_sobolev, lorentzian_perturbation,
                            mckean_singer)
from conespec.opfile import parse_operator
from conespec.symbols import smoothstep

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


# ---------------------------------------------------------------------------
# heat trace differences


def test_mckean_singer_rectangular_gap():
    rng = np.random.default_rng(7)
    B = rng.standard_normal((40, 60))
    vals = mckean_singer(B, [0.1, 1.0, 10.0])
    assert np.max(np.abs(vals - 20.0)) < 1e-8
    assert np.max(vals) - np.min(vals) < 1e-8


def test_mckean_singer_square_invertible():
    rng = np.random.default_rng(3)
    B = np.eye(12) + 0.2 * rng.standard_normal((12, 12))
    assert np.max(np.abs(mckean_singer(B, [0.5, 5.0]))) < 1e-10


def _omega(B):
    return index_assemble(B, MellinPerturbation([], 1.0)).omega


def test_omega_selfadjoint_vanishes():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((25, 25))
    S = S + S.T
    assert _omega(S) == 0.0


def test_omega_counts_kernel_gap():
    # the heat difference is the gap 23 - 17 at every t, so omega, its
    # constant term, is that value
    rng = np.random.default_rng(11)
    B = rng.standard_normal((17, 23))
    assert _omega(B) == pytest.approx(6.0, abs=1e-9)
    vals = mckean_singer(B, np.geomspace(0.05, 5.0, 48))
    assert np.max(np.abs(vals - _omega(B))) < 1e-12


# ---------------------------------------------------------------------------
# eta integral


def reflected(H):
    """H with its poles and zeros reflected across the line Im sigma = -weight.

    G(sigma) = conj(H(conj(sigma) - 2 i weight)) is holomorphic with the
    reflected pole set, so the below-line zero/pole census swaps with the
    above-line one; on the line det(1 + G) is the conjugate of det(1 + H).
    """
    shift = 2j * H.weight
    return MellinPerturbation(
        [(np.conjugate(E), np.conjugate(p + shift), np.conjugate(q + shift))
         for E, p, q in H.terms], H.weight)


def rank_one_example():
    # zero of det(1+H) below the line at -i sqrt(1.5), pole above at -0.5i
    return lorentzian_perturbation(1.25, 0.5, 1.0)


def test_eta_zero_perturbation():
    assert eta_term(MellinPerturbation([], 1.0)) == 0.0


def test_eta_rank_one_integer():
    eta = eta_term(rank_one_example())
    assert abs(eta - 1.0) < 1e-6


def test_eta_matches_argument_principle():
    H = rank_one_example()
    assert argument_principle_count(H) == 1
    assert round(eta_term(H)) == argument_principle_count(H)


def test_eta_reflection_flips_census():
    H = rank_one_example()
    G = reflected(H)
    assert argument_principle_count(G) == -argument_principle_count(H)
    assert abs(eta_term(G) - argument_principle_count(G)) < 1e-6


def test_eta_shift_invariance_of_quadrature(monkeypatch):
    H = rank_one_example()
    etas = []
    for r_max in (60.0, 150.0):
        monkeypatch.setattr(indexmod, "_R_MAX", r_max)
        etas.append(eta_term(H))
    assert abs(etas[0] - etas[1]) < 1e-9


def test_perturbation_rejects_pole_on_line():
    with pytest.raises(ConfigurationError):
        lorentzian_perturbation(0.5, 1.0, 1.0)  # poles at -+ i, line at -i


def two_term_family():
    E1 = np.array([[1.25, 0.3], [0.0, 0.02]])
    E2 = np.array([[0.1, -0.4j], [0.2, 0.5]])
    return MellinPerturbation([(E1, 0.5j, -0.5j), (E2, 1.0 + 0.2j, -2.0j)],
                              1.0)


def test_perturbation_on_arrays_matches_points():
    H = two_term_family()
    sigma = np.array([[0.0 - 1.0j, 2.5 - 1.0j], [-3.0 + 0.7j, 0.4 - 2.2j]])
    stacked = H(sigma)
    derivs = H.dsigma(sigma)
    dets = H.det1p(sigma)
    assert stacked.shape == derivs.shape == (2, 2, 2, 2)
    assert dets.shape == (2, 2)
    for idx in np.ndindex(sigma.shape):
        s = complex(sigma[idx])
        assert np.allclose(stacked[idx], H(s), rtol=1e-15, atol=0.0)
        assert np.array_equal(derivs[idx], H.dsigma(s))
        assert abs(dets[idx] - H.det1p(s)) <= 1e-15 * abs(H.det1p(s))
    assert isinstance(H.det1p(0.3 - 1.0j), complex)


def test_perturbation_rejects_singular_line():
    # det(1 + H) = 1 + 0.75 / (sigma^2 + 1/4) vanishes at sigma = -i
    with pytest.raises(ConfigurationError):
        lorentzian_perturbation(0.75, 0.5, 1.0)


def test_matrix_valued_eta():
    E = np.array([[1.25, 0.3], [0.0, 0.02]])
    H = MellinPerturbation([(E, 0.5j, -0.5j)], 1.0)
    eta = eta_term(H)
    assert abs(eta - argument_principle_count(H)) < 1e-6


def _eta_quad_vec(H, R_max=80.0):
    # the scalar-integrand quad_vec eta that the batched Gauss-Kronrod
    # sweep replaced, kept as the reference
    tol = 1e-11
    line = -1j * H.weight

    def g(u):
        sigma = u + line
        M = np.linalg.solve(np.eye(H.dim) + H(sigma), H.dsigma(sigma))
        return np.trace(M)

    val, err = quad_vec(g, -R_max, R_max, epsabs=tol, epsrel=tol)
    assert err <= 100 * tol * max(1.0, abs(val))
    tail = -cmath.log(H.det1p(R_max + line)) + cmath.log(H.det1p(-R_max + line))
    return float((-(val + tail) / (2j * math.pi)).real)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.floats(-1.5, 3.0), st.floats(0.1, 2.0), st.floats(0.3, 2.0))
def test_eta_matches_quad_vec_on_lorentzian_families(c, b, weight):
    # zeros of 1 + c/(sigma^2 + b^2) at +-i sqrt(b^2 + c), poles at +-ib;
    # both kept 0.05 off the line Im sigma = -weight
    zero = math.sqrt(b * b + c) if b * b + c > 0 else math.inf
    assume(abs(zero - weight) > 0.05 and abs(b - weight) > 0.05)
    H = lorentzian_perturbation(c, b, weight)
    assert abs(eta_term(H) - _eta_quad_vec(H)) <= 1e-10


def test_eta_matches_quad_vec_on_two_term_family():
    H = two_term_family()
    for G in (H, reflected(H)):
        assert abs(eta_term(G) - _eta_quad_vec(G)) <= 1e-10


def test_eta_of_a_vanishing_family_is_exactly_zero():
    # a zero term matrix: the integrand is 0.0 at every node
    H = MellinPerturbation([(np.zeros((1, 1)), 0.5j, -0.5j)], 1.0)
    assert eta_term(H) == 0.0
    assert asymptotics.adaptive_gk21(lambda u: np.zeros_like(u), -80.0, 80.0,
                                     1e-11) == (0.0, 0.0)


def near_degenerate_example():
    # det(1 + H) vanishes at -i sqrt(h_b^2 + h_c), 6.8e-5 above the line
    return lorentzian_perturbation(0.836753, 0.403869, 1.0)


def test_near_degenerate_eta_and_winding_agree():
    H = near_degenerate_example()
    assert 0.99992 < math.sqrt(0.403869 ** 2 + 0.836753) < 0.99994
    assert argument_principle_count(H) == 0
    assert abs(eta_term(H)) < 1e-10


def test_eta_leaves_intervals_at_the_roundoff_floor_whole(monkeypatch):
    # halving intervals whose error is the roundoff floor of the peak's
    # neighbourhood took 8227 interval evaluations here; 83 suffice
    real, evaluated = asymptotics._gk21, []

    def counting(f, lo, hi):
        evaluated.append(len(lo))
        return real(f, lo, hi)

    monkeypatch.setattr(asymptotics, "_gk21", counting)
    assert abs(eta_term(near_degenerate_example())) < 1e-10
    assert sum(evaluated) < 200


def test_winding_refuses_past_the_point_budget(monkeypatch):
    # the walk starts at 7997 points; the near-degenerate family needs one
    # midpoint more, at the zero's foot on the line
    monkeypatch.setattr(indexmod, "_MAX_CONTOUR_POINTS", 7997)
    with pytest.raises(NumericalError):
        argument_principle_count(near_degenerate_example())


def test_winding_refuses_past_the_halving_cap(monkeypatch):
    monkeypatch.setattr(indexmod, "_MAX_HALVINGS", 0)
    with pytest.raises(NumericalError):
        argument_principle_count(near_degenerate_example())


@pytest.mark.parametrize("c", [64.0, 100.0, 400.0])
def test_winding_box_holds_zeros_beyond_the_poles(c):
    # the zero below the line at -i sqrt(c + 1/4) lies outside the box of
    # half-width 4 (pole radius + weight) = 8 that the walk used to take
    H = lorentzian_perturbation(c, 0.5, 1.0)
    assert argument_principle_count(H) == 1
    assert abs(eta_term(H) - 1.0) < 1e-6


def test_eta_refuses_past_the_interval_cap(monkeypatch):
    monkeypatch.setattr(asymptotics, "_GK_MAX_INTERVALS", 16)
    with pytest.raises(NumericalError, match="did not converge"):
        eta_term(near_degenerate_example())


# ---------------------------------------------------------------------------
# assembly


def test_index_assembly_composes_both_terms():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((25, 25))
    S = S + S.T
    rep = index_assemble(S, rank_one_example())
    assert rep.omega == 0.0
    assert abs(rep.eta - 1.0) < 1e-6
    assert abs(rep.value + 1.0) < 1e-6
    assert rep.integer_distance < 1e-6


def test_index_assembly_trivial_perturbation():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((10, 14))
    rep = index_assemble(B, MellinPerturbation([], 1.0))
    assert rep.value == pytest.approx(4.0, abs=1e-9)
    assert rep.eta == 0.0


def test_perturbation_index_sign_convention():
    # the index contribution of the perturbation factor is minus eta,
    # so assembling with omega = 0 must give -1 here
    rep = index_assemble(np.eye(6), rank_one_example())
    assert rep.value == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# invariance of the index under the reduction steps


def test_red_to_const_frozen_operator_exact():
    disc = discretize(laplace_type(1.5, mode_cap=0), -9.0, 400)
    res = invariance_red_to_const(disc, [0.25, 0.125, 0.0625])
    assert np.max(res.ratios) < 1e-14


def _red_to_const_ratios_per_tau(disc, taus):
    # the loop before the tau-independent terms were hoisted, as reference
    op = disc.op
    disc0 = type(disc)(op.frozen(), disc.s_min, disc.s_max, disc.npoints)
    rng = np.random.default_rng(0)
    tests = []
    for i in range(12):
        env = disc.x ** (op.mu / 2.0 + [0.05, 0.3, 0.8][i % 3])
        phase = rng.uniform(0, 2 * math.pi)
        u = env * np.sin(math.pi * (1 + i % 4) * (disc.s - disc.s_min)
                         / (disc.s_max - disc.s_min) + 0.0) * math.cos(phase)
        u = u + 0.3 * env * rng.standard_normal() * np.sin(
            2 * math.pi * (disc.s - disc.s_min) / (disc.s_max - disc.s_min))
        tests.append(u)
    ratios = []
    for tau in sorted(taus, reverse=True):
        phi_tau = 1.0 - smoothstep(disc.x / tau - 1.0)
        worst = 0.0
        for u in tests:
            au = disc.apply(0, u)
            diff = phi_tau * (au - disc0.apply(0, u))
            denom = disc.norm_w(u) + disc.norm_w(au)
            worst = max(worst, disc.norm_w(diff) / max(denom, 1e-300))
        ratios.append(worst)
    return np.asarray(ratios)


def test_red_to_const_equals_per_tau_recomputation():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0, strength=0.7),
                      -10.0, 300)
    taus = [2.0 ** -k for k in range(2, 9)]
    res = invariance_red_to_const(disc, taus)
    assert np.array_equal(res.ratios, _red_to_const_ratios_per_tau(disc, taus))


def _kernel_census(sv):
    # kernel count and ambiguity at the thresholds of red_to_sobolev
    top = np.max(sv)
    small = sv < 1e-8 * top
    return int(np.sum(small)), bool(np.any(~small & (sv < 1e-7 * top)))


def test_red_to_sobolev_eigenvalues_match_dense_svd():
    # the shipped index study: laplace_perturbed.op, s_min -10, 600 points
    op = parse_operator(CONFIGS / "laplace_perturbed.op")
    disc = discretize(op, -10.0, 600)
    total, undecided = 0, False
    for m in disc.mode_list():
        d, e = disc.matrix(m)
        dense = np.linalg.svd(np.diag(d) + np.diag(e, 1) + np.diag(e, -1),
                              compute_uv=False)
        tri = np.sort(np.abs(eigvalsh_tridiagonal(d, e)))[::-1]
        assert np.max(np.abs(tri - dense)) <= 4e-15 * dense[0]
        assert _kernel_census(tri) == _kernel_census(dense)
        count, amb = _kernel_census(dense)
        total, undecided = total + count, undecided or amb
    rep = invariance_red_to_sobolev(disc, [0.0, 0.1, 0.3])
    dims = {(r.dim_kernel, r.dim_cokernel) for r in rep.rows}
    assert dims == {(None, None) if undecided else (total, total)}


@pytest.mark.parametrize("gap, census", [(0.0, (1, False)),
                                         (2e-7, (0, True)),
                                         (1e-5, (0, False))])
def test_tridiagonal_census_matches_dense_svd_near_the_thresholds(
        monkeypatch, gap, census):
    # tridiag(-1, 2, -1) shifted so that its lowest eigenvalue is ``gap``;
    # the largest is about 4, so 2e-7 lies between 1e-8 and 1e-7 of it
    n = 50
    lam1 = 2.0 - 2.0 * math.cos(math.pi / (n + 1))
    d, e = np.full(n, 2.0 - lam1 + gap), np.full(n - 1, -1.0)
    dense = np.linalg.svd(np.diag(d) + np.diag(e, 1) + np.diag(e, -1),
                          compute_uv=False)
    tri = np.abs(eigvalsh_tridiagonal(d, e))
    assert _kernel_census(tri) == _kernel_census(dense) == census
    # the same matrix as the one mode of a grid, whose own size is moot
    disc = discretize(laplace_type(1.5, mode_cap=0), -6.0, 100)
    monkeypatch.setattr(disc, "matrix", lambda m: (d, e))
    row = invariance_red_to_sobolev(disc, [0.0]).rows[0]
    dim = None if census[1] else census[0]
    assert (row.dim_kernel, row.dim_cokernel) == (dim, dim)


def test_red_to_const_decay_rate():
    disc = discretize(perturbed_laplace(1.5, mode_cap=0, strength=0.7),
                      -10.0, 800)
    taus = [2.0 ** -k for k in range(2, 9)]
    res = invariance_red_to_const(disc, taus)
    assert res.slope >= 0.8
    assert res.ratios[-1] < res.ratios[0]


def test_red_to_sobolev_invertible_model():
    disc = discretize(laplace_type(1.5, mode_cap=1), -6.0, 250)
    rep = invariance_red_to_sobolev(disc, [0.0, 0.1, 0.3])
    assert rep.all_decided()
    for row in rep.rows:
        assert row.dim_kernel == 0 and row.dim_cokernel == 0
        assert not row.crossing
    assert rep.rows[0].eps == 0.0


def test_red_to_sobolev_flags_crossing():
    # roots at -+ 0.8i sit inside the eps band once eps >= 0.2
    disc = discretize(laplace_type(0.8, mode_cap=0), -6.0, 250)
    rep = invariance_red_to_sobolev(disc, [0.1, 0.25, 0.5])
    flags = [row.crossing for row in rep.rows]
    assert flags == [False, True, True]


def _count_censuses(monkeypatch):
    calls = []
    census = indexmod._kernel_census

    def counted(d, e):
        calls.append(len(d))
        return census(d, e)

    monkeypatch.setattr(indexmod, "_kernel_census", counted)
    return calls


def test_red_to_sobolev_solves_m_and_minus_m_once(monkeypatch):
    # the shipped index study: modes -4..4 depend on m^2, so 5 censuses
    op = parse_operator(CONFIGS / "laplace_perturbed.op")
    disc = discretize(op, -10.0, 600)
    total, undecided = 0, False
    for m in disc.mode_list():
        count, amb = _kernel_census(np.abs(eigvalsh_tridiagonal(*disc.matrix(m))))
        total, undecided = total + count, undecided or amb
    calls = _count_censuses(monkeypatch)
    eps = [0.0, 0.1, 0.3]
    rep = invariance_red_to_sobolev(disc, eps)
    assert len(calls) == 5
    dim = None if undecided else total
    assert [(r.eps, r.dim_kernel, r.dim_cokernel) for r in rep.rows] == \
        [(e, dim, dim) for e in eps]


def test_red_to_sobolev_solves_every_mode_of_an_operator_odd_in_m(
        monkeypatch, tmp_path):
    base = (CONFIGS / "laplace_a1.5.op").read_text()
    text = base.replace("coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 0.5*m")
    assert text != base
    (tmp_path / "odd.op").write_text(text)
    op = parse_operator(tmp_path / "odd.op")
    disc = discretize(op, -6.0, 120)
    calls = _count_censuses(monkeypatch)
    rep = invariance_red_to_sobolev(disc, [0.0])
    assert len(calls) == len(disc.mode_list()) == 17
    assert rep.rows[0].dim_kernel == 0


def _planted_tridiagonal(rng, values):
    # a symmetric tridiagonal with the given eigenvalues, up to rounding:
    # the Householder tridiagonal of Q diag(values) Q^T, Q random orthogonal
    q, _ = np.linalg.qr(rng.standard_normal((len(values), len(values))))
    t = hessenberg((q * values) @ q.T)
    return np.diag(t).copy(), np.diag(t, -1).copy()


def _log_uniform(rng, lo, hi, size):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def test_interval_census_matches_dense_svd_on_planted_spectra():
    # eigenvalues planted below 1e-8 of the largest, in the band up to
    # 1e-7 and above it, each at least 1e-6 relative from both thresholds,
    # with random signs and a random largest absolute value
    rng = np.random.default_rng(7)
    near = 1.0 + 1e-6
    for _ in range(300):
        n = int(rng.integers(2, 41))
        kernel = int(rng.integers(0, min(3, n - 1) + 1))
        band = int(rng.integers(0, min(2, n - 1 - kernel) + 1))
        rest = n - 1 - kernel - band
        top = _log_uniform(rng, 1e-3, 1e3, 1)[0]
        mags = np.concatenate([
            [1.0],
            _log_uniform(rng, 1e-14, 1e-8 / near, kernel),
            _log_uniform(rng, 1e-8 * near, 1e-7 / near, band),
            _log_uniform(rng, 1e-7 * near, 1.0, rest)])
        values = top * mags * rng.choice([-1.0, 1.0], n)
        d, e = _planted_tridiagonal(rng, values)
        dense = np.linalg.svd(np.diag(d) + np.diag(e, 1) + np.diag(e, -1),
                              compute_uv=False)
        assert indexmod._kernel_census(d, e) == _kernel_census(dense) == \
            (kernel, band > 0)


@pytest.mark.parametrize("d, e", [([0.0], []), ([3.0], []), ([-2e-9], []),
                                  ([0.0] * 2, [0.0]), ([0.0] * 7, [0.0] * 6)],
                         ids=["order1_zero", "order1", "order1_tiny",
                              "zero2", "zero7"])
def test_census_of_order_one_and_zero_matrices_needs_no_lapack(
        monkeypatch, d, e):
    d, e = np.array(d), np.array(e)
    today = _kernel_census(np.abs(eigvalsh_tridiagonal(d, e)))
    assert today == (0, False)

    def refused(*args):
        raise AssertionError("reached LAPACK")

    monkeypatch.setattr(pencil, "dstebz", refused)
    assert indexmod._kernel_census(d, e) == today
