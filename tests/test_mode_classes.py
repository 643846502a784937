"""Modes whose inputs are bitwise equal share one solve.

Each per-mode loop of the library solves once per mode class
(``ConeOperator.mode_classes`` for the indicial data,
``Discretization.mode_classes`` for the tridiagonals).  The per-mode loops
they replaced are kept here as references: every solver is deterministic,
so the results must be bitwise equal to solving every mode.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from conespec import coneop, pencil
from conespec.cli import main
from conespec.coneop import (PoleEntry, _frozen_nu, _mode_nu_floor, _weyl_fit,
                             bessel_zeros, boundary_spectrum, discretize,
                             eigenvalues, grid_spectral_data, laplace_type,
                             oracle_spectral_data, perturbed_laplace)
from conespec.errors import NumericalError
from conespec.opfile import parse_operator
from conespec.traces import (WeightOperator, heat_trace_contour,
                             weighted_spectral_data)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def odd_op(tmp_path_factory):
    """coeff[0] = m^2 + 2.25 + 0.5 m: no two modes pose the same problem."""
    base = (CONFIGS / "laplace_a1.5.op").read_text()
    text = base.replace("coeff[0] = m^2 + 2.25", "coeff[0] = m^2 + 2.25 + 0.5*m")
    assert text != base
    path = tmp_path_factory.mktemp("odd") / "odd.op"
    path.write_text(text)
    return parse_operator(path)


def _operators(odd_op):
    return [laplace_type(1.5, mode_cap=6), perturbed_laplace(1.5, mode_cap=4),
            odd_op]


# ---------------------------------------------------------------------------
# per-mode references: one solve for every mode


def _per_mode_grid_spectral_data(disc, lam_max):
    op = disc.op
    eigs, weyl = {}, {}
    for m in disc.mode_list():
        d, e = disc.matrix(m)
        vals = pencil.eig_pencil(d, e, disc.w, lam_max=lam_max)
        if len(vals):
            eigs[m] = vals
            weyl[m] = _weyl_fit(vals)
    extra = sorted(_mode_nu_floor(op, m) for m in op.mode_list()
                   if m not in eigs)
    return eigs, weyl, np.asarray(extra)


def _per_mode_weighted_spectral_data(disc, B, lam_cap):
    op = disc.op
    mult = B.multiplier(disc.x)
    pairs, weyl, bfit, bmax = {}, {}, {}, {}
    for m in disc.mode_list():
        vals, vecs = eigenvalues(disc, m, lam_max=lam_cap, vectors=True)
        if len(vals) == 0:
            continue
        rho = B.mode_factor(m)
        bs = rho * disc.h * np.einsum("ij,i->j", np.abs(vecs) ** 2,
                                      mult * disc.w)
        pairs[m] = (vals, bs)
        bmax[m] = rho * float(np.max(np.abs(mult)))
        weyl[m] = _weyl_fit(vals)
        half = max(1, len(vals) // 2)
        if len(vals) >= 6 and np.all(np.abs(bs[half:]) > 0):
            q, logc = np.polyfit(np.log(vals[half:]), np.log(np.abs(bs[half:])), 1)
            bfit[m] = (float(np.exp(logc)) * 2.0,
                       float(min(max(q, 0.0), 1.5)))
        else:
            bfit[m] = (float(np.max(np.abs(bs))) * 2.0 + 1e-300, 0.0)
    extra = np.asarray(sorted(_mode_nu_floor(op, m) for m in op.mode_list()
                              if m not in pairs))
    return pairs, weyl, bfit, bmax, extra


def _per_mode_boundary_spectrum(op, strip):
    poles = []
    for m in op.mode_list():
        coeffs = op.indicial(m)
        if len(coeffs) == 1:
            continue
        roots = np.polynomial.Polynomial(coeffs).roots()
        scale = max(1.0, float(np.max(np.abs(roots))) if len(roots) else 1.0)
        used = np.zeros(len(roots), dtype=bool)
        clusters = []
        for i, r in enumerate(roots):
            if used[i]:
                continue
            group = [r]
            used[i] = True
            for j in range(i + 1, len(roots)):
                if not used[j] and abs(roots[j] - r) < 1e-6 * scale:
                    group.append(roots[j])
                    used[j] = True
            clusters.append(group)
        for group in clusters:
            center = complex(np.mean(group))
            if len(group) == 1:
                center = complex(coneop._polish_root(coeffs, center))
            if abs(center.imag) <= strip + 1e-12:
                poles.append(PoleEntry(center, len(group), m))
    poles.sort(key=lambda p: (p.mode, p.sigma.real, p.sigma.imag))
    return poles


def _per_mode_oracle_spectral_data(op, lam_max):
    eigs, weyl, extra = {}, {}, []
    for m in op.mode_list():
        nu = _frozen_nu(op, m)
        z = bessel_zeros(nu, j_max=math.sqrt(lam_max))
        if len(z):
            eigs[m] = z * z
            weyl[m] = _weyl_fit(z * z)
        else:
            extra.append(nu)
    return eigs, weyl, np.asarray(sorted(extra))


def _assert_same_eigs(got, want):
    assert sorted(got) == sorted(want)
    assert all(np.array_equal(got[m], want[m]) for m in want)


def _assert_unaliased(arrays):
    arrays = list(arrays)
    for i, a in enumerate(arrays):
        assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])


# ---------------------------------------------------------------------------
# the classes


def test_mode_classes_pair_m_with_minus_m_in_mode_order(odd_op):
    op = laplace_type(1.5, mode_cap=2)
    want = [[-2, 2], [-1, 1], [0]]
    assert op.mode_classes() == want
    assert discretize(op, -6.0, 120).mode_classes() == want
    # the x correction does not depend on m, so the tridiagonals pair too
    assert discretize(perturbed_laplace(1.5, mode_cap=2), -6.0, 120
                      ).mode_classes() == want
    singletons = [[m] for m in odd_op.mode_list()]
    assert odd_op.mode_classes() == singletons
    assert discretize(odd_op, -6.0, 120).mode_classes() == singletons


# ---------------------------------------------------------------------------
# bitwise equal to the per-mode references


def test_grid_spectral_data_equals_per_mode_solves(odd_op):
    for op in _operators(odd_op):
        disc = discretize(op, -8.0, 300)
        sd = grid_spectral_data(disc, 4000.0)
        eigs, weyl, extra = _per_mode_grid_spectral_data(disc, 4000.0)
        _assert_same_eigs(sd.eigs, eigs)
        assert sd.weyl == weyl
        assert np.array_equal(sd.extra_nus, extra)
        _assert_unaliased(sd.eigs.values())


def test_oracle_spectral_data_equals_per_mode_zeros(odd_op):
    for op in _operators(odd_op):
        op = op.frozen()
        sd = oracle_spectral_data(op, 60.0)
        eigs, weyl, extra = _per_mode_oracle_spectral_data(op, 60.0)
        _assert_same_eigs(sd.eigs, eigs)
        assert sd.weyl == weyl
        assert np.array_equal(sd.extra_nus, extra)
        assert sd.eigs and len(extra)
        _assert_unaliased(sd.eigs.values())


def test_boundary_spectrum_equals_per_mode_roots(odd_op):
    for op in _operators(odd_op):
        poles = boundary_spectrum(op, 12.0).poles
        assert poles == _per_mode_boundary_spectrum(op, 12.0)
        assert {p.mode for p in poles} == set(op.mode_list())


def test_weighted_spectral_data_equals_per_mode_solves(odd_op):
    B = WeightOperator(beta=0.5, mu_prime=1.0)
    for op in _operators(odd_op):
        disc = discretize(op, -8.0, 250)
        wsd = weighted_spectral_data(disc, B, 3000.0)
        pairs, weyl, bfit, bmax, extra = _per_mode_weighted_spectral_data(
            disc, B, 3000.0)
        assert sorted(wsd.pairs) == sorted(pairs) == op.mode_list()
        for m, (vals, bs) in pairs.items():
            assert np.array_equal(wsd.pairs[m][0], vals)
            assert np.array_equal(wsd.pairs[m][1], bs)
        assert (wsd.weyl, wsd.bfit, wsd.bmax) == (weyl, bfit, bmax)
        assert np.array_equal(wsd.extra_nus, extra)
        _assert_unaliased(v for pair in wsd.pairs.values() for v in pair)


def _count_eig_pencil(monkeypatch):
    calls = []
    solve = pencil.eig_pencil

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(pencil, "eig_pencil", counted)
    return calls


def test_wsd_beta_solves_each_class_once_and_equals_per_mode(monkeypatch,
                                                             beta_weight):
    # the heavy fixture's input: modes -162..162 form 163 classes
    disc = discretize(laplace_type(1.5, mode_cap=162), -10.0, 800)
    calls = _count_eig_pencil(monkeypatch)
    wsd = weighted_spectral_data(disc, beta_weight, 26000.0)
    assert len(calls) == 163
    pairs, weyl, bfit, bmax, extra = _per_mode_weighted_spectral_data(
        disc, beta_weight, 26000.0)
    assert len(calls) == 163 + 325
    assert sorted(wsd.pairs) == sorted(pairs)
    for m, (vals, bs) in pairs.items():
        assert np.array_equal(wsd.pairs[m][0], vals)
        assert np.array_equal(wsd.pairs[m][1], bs)
    assert (wsd.weyl, wsd.bfit, wsd.bmax) == (weyl, bfit, bmax)
    assert np.array_equal(wsd.extra_nus, extra)


def test_spectrum_config_solves_each_class_once(monkeypatch, tmp_path):
    # configs/spectrum.cfg: modes -8..8 of laplace_a1.5.op, 9 classes
    calls = _count_eig_pencil(monkeypatch)
    code = main(["spectrum", "--config", str(CONFIGS / "spectrum.cfg"),
                 "--out", str(tmp_path / "out")])
    assert code == 0 and len(calls) == 9


# ---------------------------------------------------------------------------
# the contour: one sweep row per class, weighted by the class size


def test_contour_agrees_with_one_row_per_mode(monkeypatch, odd_op):
    B = WeightOperator(beta=1.0)
    for op in _operators(odd_op):
        disc = discretize(op, -8.0, 250)
        bdiag = B.multiplier(disc.x)
        values = [heat_trace_contour(disc, 0.02, N=3, bdiag=bdiag)]
        monkeypatch.setattr(type(disc), "mode_classes",
                            lambda self: [[m] for m in self.mode_list()])
        values.append(heat_trace_contour(disc, 0.02, N=3, bdiag=bdiag))
        monkeypatch.undo()
        assert abs(values[0] - values[1]) <= 1e-14 * abs(values[1])


def test_contour_refusal_names_and_counts_every_mode(tmp_path):
    # modes -1, 0, 1 have eigenvalues left of lam = -1; -1 and 1 share a
    # class, and each of them counts its own eigenvalues there
    path = tmp_path / "negative.op"
    path.write_text("mu = 2\nalpha = 1\nmodes = -2..2\nbc = dirichlet\n"
                    "coeff[0] = m^2 - 4\ncoeff[2] = 1\n")
    disc = discretize(parse_operator(path), -6.0, 150)
    below = {m: int(pencil.inertia(*disc.matrix(m), disc.w, [-1.0])[0])
             for m in disc.mode_list()}
    with pytest.raises(NumericalError) as err:
        heat_trace_contour(disc, 0.05)
    assert err.value.payload["modes"] == [m for m in below if below[m]]
    assert err.value.payload["count"] == sum(below.values())
