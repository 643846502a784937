import numpy as np
import pytest

from conespec.coneop import discretize, laplace_type, perturbed_laplace
from conespec.errors import ConfigurationError
from conespec.index import (Factorization, MellinPerturbation,
                            argument_principle_count, eta_term,
                            index_assemble, invariance_red_to_const,
                            invariance_red_to_sobolev, lorentzian_perturbation,
                            mckean_singer, omega_constant)


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


def test_omega_selfadjoint_vanishes():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((25, 25))
    S = S + S.T
    out = omega_constant(S)
    assert out.value == 0.0 and not out.undecided


def test_omega_counts_kernel_gap():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((17, 23))
    out = omega_constant(B)
    assert out.value == pytest.approx(6.0, abs=1e-9)
    assert out.window_spread < 1e-3
    assert not out.log_flags


# ---------------------------------------------------------------------------
# eta integral


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
    G = H.reflected()
    assert argument_principle_count(G) == -argument_principle_count(H)
    assert abs(eta_term(G) - argument_principle_count(G)) < 1e-6


def test_eta_shift_invariance_of_quadrature():
    H = rank_one_example()
    assert abs(eta_term(H, R_max=60.0) - eta_term(H, R_max=150.0)) < 1e-9


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
    dets = H.det1p(sigma)
    assert stacked.shape == (2, 2, 2, 2) and dets.shape == (2, 2)
    for idx in np.ndindex(sigma.shape):
        s = complex(sigma[idx])
        assert np.allclose(stacked[idx], H(s), rtol=1e-15, atol=0.0)
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


# ---------------------------------------------------------------------------
# assembly


def test_index_assembly_composes_both_terms():
    rng = np.random.default_rng(5)
    S = rng.standard_normal((25, 25))
    S = S + S.T
    rep = index_assemble(Factorization(S, rank_one_example()))
    assert rep.omega == 0.0
    assert abs(rep.eta - 1.0) < 1e-6
    assert abs(rep.value + 1.0) < 1e-6
    assert rep.integer_distance < 1e-6


def test_index_assembly_trivial_perturbation():
    rng = np.random.default_rng(9)
    B = rng.standard_normal((10, 14))
    rep = index_assemble(Factorization(B, MellinPerturbation([], 1.0)))
    assert rep.value == pytest.approx(4.0, abs=1e-9)
    assert rep.eta == 0.0


def test_perturbation_index_sign_convention():
    # the index contribution of the perturbation factor is minus eta,
    # so assembling with omega = 0 must give -1 here
    rep = index_assemble(Factorization(np.eye(6), rank_one_example()))
    assert rep.value == pytest.approx(-1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# invariance of the index under the reduction steps


def test_red_to_const_frozen_operator_exact():
    disc = discretize(laplace_type(1.5, mode_cap=0), -9.0, 400)
    res = invariance_red_to_const(disc, [0.25, 0.125, 0.0625])
    assert np.max(res.ratios) < 1e-14


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
