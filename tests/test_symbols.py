import math

import numpy as np
import pytest

from conespec import symbols
from conespec.errors import ConfigurationError, SymbolRejection
from conespec.symbols import (LEFT_HALF_PLANE, ChiCutoff, ParamSymbol, Sector,
                              resolvent_symbol, seminorm_check)

SEC = LEFT_HALF_PLANE


def laplace_symbol(ell=1, b_fn=None, mu_b=0.0):
    return resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0, SEC,
                            b_fn=b_fn, mu_b=mu_b, ell=ell)


# ---------------------------------------------------------------------------
# sectors and cutoffs


def test_sector_contains():
    assert SEC.contains(-1.0)
    assert SEC.contains(1j) and SEC.contains(-1j)
    assert not SEC.contains(1.0)
    assert SEC.contains(0.0)


def test_sector_rays_span():
    rays = SEC.rays()
    assert len(rays) == 3
    assert rays[0] == pytest.approx(math.pi / 2)
    assert rays[-1] == pytest.approx(3 * math.pi / 2)


def test_chi_cutoff_profile():
    chi = ChiCutoff(1.0)
    assert chi(0.3) == 0.0 and chi(0.5) == 0.0
    assert chi(1.0) == 1.0 and chi(25.0) == 1.0
    mid = chi(0.75)
    assert 0.0 < mid < 1.0


# ---------------------------------------------------------------------------
# constructors


def test_resolvent_symbol_accepted():
    q = laplace_symbol()
    assert q.orders == (-2.0, -2.0, 2.0)


def test_resolvent_symbol_rejected_with_witness():
    sector = Sector(-math.pi / 3, math.pi / 3)  # contains the positive axis
    with pytest.raises(SymbolRejection) as err:
        resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0, sector)
    assert "witness_xi" in err.value.payload


def test_order_bookkeeping_ell2():
    q = laplace_symbol(ell=2, b_fn=lambda xi: np.abs(xi), mu_b=1.0)
    assert q.orders == (1.0 - 4.0, -4.0, 2.0)


# ---------------------------------------------------------------------------
# seminorm verification


def test_resolvent_symbol_passes_class_bounds():
    rep = seminorm_check(laplace_symbol(), 1, 1, pts_per_decade=20)
    assert rep.passed


def test_misdeclared_order_fails_with_linear_growth():
    bad = laplace_symbol().with_orders((-3.0, -2.0, 2.0))
    rep = seminorm_check(bad, 0, 0, pts_per_decade=20)
    assert not rep.passed
    assert rep.rows[0].growth_slope >= 0.9


def test_membership_monotone_in_first_order():
    loose = laplace_symbol().with_orders((-1.0, -2.0, 2.0))
    assert seminorm_check(loose, 1, 1, pts_per_decade=10).passed


def test_non_finite_evaluator_is_rejected():
    def bad_fn(xi, lam):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.asarray(xi) / np.asarray(xi)

    bad = ParamSymbol(bad_fn, (0.0, 0.0, 2.0), sector=SEC)
    with pytest.raises(SymbolRejection):
        seminorm_check(bad, 0, 0, pts_per_decade=8)


@pytest.mark.parametrize("orders, alpha, beta", [
    ((-2.0, -2.0, 2.0), 2, 2), ((-3.0, -2.0, 2.0), 0, 0)])
def test_row_blocked_sweeps_match_one_block(monkeypatch, orders, alpha, beta):
    q = laplace_symbol().with_orders(orders)
    rep = seminorm_check(q, alpha, beta, pts_per_decade=20)
    monkeypatch.setattr(symbols, "_ROW_BLOCK", 10 ** 6)
    ref = seminorm_check(q, alpha, beta, pts_per_decade=20)
    assert rep.rows == ref.rows and rep.passed == ref.passed


def holes(xi, lam):
    # non-finite on a band 0.5 < |xi| < 10 of the upper ray; at 20 points
    # per decade the doubled grid's first row inside it is 81 of 403, and
    # the row of xi = -10 before it sees the band through its xi stencil
    xi, lam = np.broadcast_arrays(np.asarray(xi), np.asarray(lam))
    out = 1.0 / (xi ** 2 - lam)
    out[(np.abs(xi) > 0.5) & (np.abs(xi) < 10.0) & (lam.imag > 0)] = np.nan
    return out


def test_row_blocked_sweeps_report_the_first_non_finite_point(monkeypatch):
    q = ParamSymbol(holes, (-2.0, -2.0, 2.0), sector=SEC)
    with pytest.raises(SymbolRejection) as got:
        seminorm_check(q, 1, 0, pts_per_decade=20)
    monkeypatch.setattr(symbols, "_ROW_BLOCK", 10 ** 6)
    with pytest.raises(SymbolRejection) as ref:
        seminorm_check(q, 1, 0, pts_per_decade=20)
    assert got.value.payload == ref.value.payload
    assert got.value.payload["xi"] < -0.5


@pytest.mark.parametrize("block", [1, 7, 80, 81])
def test_non_finite_witness_is_the_first_row_whatever_the_blocks(monkeypatch,
                                                                 block):
    # rows 80 (xi = -10) and 81 (the first xi in the band) share a block
    # at 7 and 80 and fall in different blocks at 1 and 81
    monkeypatch.setattr(symbols, "_ROW_BLOCK", block)
    q = ParamSymbol(holes, (-2.0, -2.0, 2.0), sector=SEC)
    with pytest.raises(SymbolRejection) as got:
        seminorm_check(q, 1, 0, pts_per_decade=20)
    w = got.value.payload
    assert (w["xi"], w["alpha"], w["beta"]) == (-10.0, 1, 0)


# ---------------------------------------------------------------------------
# the two-sweep seminorm check the single doubled-grid sweep replaced, kept
# as the reference it must reproduce bitwise


def _ref_xi_axis(pts_per_decade):
    n = max(2, int(round(5 * pts_per_decade)) + 1)
    pos = np.geomspace(1e-2, 1e3, n)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _ref_lam_axis(sector, d, pts_per_decade):
    n = max(2, int(round(3 * pts_per_decade)) + 1)
    r = np.geomspace(1.0, 1e3, n)
    lam, dirs = [], []
    for theta in sector.rays():
        u = complex(math.cos(theta), math.sin(theta))
        lam.append((r ** d) * u)
        dirs.append(np.full(n, u))
    return np.concatenate(lam), np.concatenate(dirs)


_REF_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}


def _ref_fd_derivative(fn, XI, LAM, DIR, a, b, d):
    rel = max(1e-5, np.finfo(float).eps ** (1.0 / (a + b + 2)))
    hxi = (rel * np.maximum(1.0, np.abs(XI)))[:, None]
    absxi = np.abs(XI)[:, None]
    hlam = rel * (1.0 + absxi + np.abs(LAM)[None, :] ** (1.0 / d)) ** d
    u = DIR[None, :]
    acc = 0.0
    amp = 0.0
    for oi, wi in _REF_STENCILS[a]:
        for oj, wj in _REF_STENCILS[b]:
            vals = fn(XI[:, None] + oi * hxi, LAM[None, :] + oj * hlam * u)
            acc = acc + (wi * wj) * vals
            amp = np.maximum(amp, np.abs(vals))
    scale_xi = hxi ** a
    scale_lam = (hlam * u) ** b
    deriv = acc / (scale_xi * scale_lam)
    noise = 64.0 * np.finfo(float).eps * amp / (scale_xi * np.abs(scale_lam))
    return deriv, noise


def _ref_seminorm_check(sym, max_alpha, max_beta, pts_per_decade):
    mu, p, d = sym.orders

    def sweep(ppd):
        XI = _ref_xi_axis(ppd)
        LAM, DIR = _ref_lam_axis(sym.sector, d, ppd)
        out = {}
        for a in range(max_alpha + 1):
            for b in range(max_beta + 1):
                env = []
                for lo in range(0, len(XI), 32):
                    xi = XI[lo:lo + 32]
                    deriv, noise = _ref_fd_derivative(sym.fn, xi, LAM, DIR, a, b, d)
                    if not np.all(np.isfinite(deriv)):
                        i, j = np.argwhere(~np.isfinite(deriv))[0]
                        raise SymbolRejection("symbol evaluator returned a non-finite value",
                                              xi=float(xi[i]), lam=complex(LAM[j]),
                                              alpha=a, beta=b)
                    absxi = np.abs(xi)[:, None]
                    bound = ((1.0 + absxi) ** (mu - p - a)
                             * (1.0 + absxi + np.abs(LAM)[None, :] ** (1.0 / d)) ** (p - d * b))
                    ratio = np.where(np.abs(deriv) > noise, np.abs(deriv), 0.0) / bound
                    env.append(np.max(ratio, axis=1))
                env = np.concatenate(env)
                out[(a, b)] = (float(np.max(env)), np.abs(XI), env)
        return out

    base = sweep(pts_per_decade)
    fine = sweep(2 * pts_per_decade)
    rows = []
    ok_all = True
    for (a, b), (worst, absxi, env) in sorted(base.items()):
        refined = fine[(a, b)][0]
        mask = (absxi >= 10.0) & (env > 1e-290)
        if worst <= 1e-290 or mask.sum() < 4:
            slope = float("-inf") if worst <= 1e-290 else 0.0
        else:
            slope = float(np.polyfit(np.log(1.0 + absxi[mask]), np.log(env[mask]), 1)[0])
        if worst <= 1e-290:
            ok = True
        else:
            ok = (np.isfinite(worst) and np.isfinite(refined)
                  and refined <= 1.1 * worst and slope <= 0.3)
        rows.append(symbols.SeminormRow(a, b, worst, refined, slope, bool(ok)))
        ok_all = ok_all and ok
    return symbols.SeminormReport(rows, bool(ok_all), {})


def _pinned_cases():
    q = laplace_symbol()
    # chi(xi) / (xi^2 + 6.25 - lam): the model symbol plus a constant of
    # lower order, so not homogeneous, but of the same orders (-2, -2, 2)
    pm = resolvent_symbol(lambda xi: np.asarray(xi) ** 2 + 6.25, 2.0, SEC)
    return {
        # ACCEPT-15: membership and the misdeclared orders
        "accept15": (q, 2, 2, 40),
        "accept15-misdeclared": (q.with_orders((-3.0, -2.0, 2.0)), 0, 0, 40),
        "laplace": (q, 1, 1, 20),
        "parametrix": (pm, 1, 1, 10),
        "fails": (q.with_orders((-2.5, -2.0, 2.0)), 1, 1, 20),
    }


@pytest.mark.parametrize("name", ["accept15", "accept15-misdeclared", "laplace",
                                  "parametrix", "fails"])
def test_one_sweep_matches_two_sweep_reference(name):
    sym, alpha, beta, ppd = _pinned_cases()[name]
    rep = seminorm_check(sym, alpha, beta, pts_per_decade=ppd)
    ref = _ref_seminorm_check(sym, alpha, beta, ppd)
    assert rep.rows == ref.rows and rep.passed == ref.passed
    assert rep.passed == (name != "fails" and name != "accept15-misdeclared")


@pytest.mark.parametrize("block", [1, 7, 32, 10 ** 6])
def test_one_sweep_matches_reference_at_every_row_block(monkeypatch, block):
    q = laplace_symbol()
    ref = _ref_seminorm_check(q, 2, 2, 10)
    monkeypatch.setattr(symbols, "_ROW_BLOCK", block)
    rep = seminorm_check(q, 2, 2, pts_per_decade=10)
    assert rep.rows == ref.rows and rep.passed == ref.passed


def nan_at_origin(xi, lam):
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.asarray(xi) / np.asarray(xi) + 0.0 * np.asarray(lam)


@pytest.mark.parametrize("fn, alpha, beta, ppd", [
    (nan_at_origin, 0, 0, 8), (nan_at_origin, 2, 1, 8), (holes, 1, 0, 20),
    (holes, 2, 2, 5)])
def test_rejections_name_a_non_finite_sample(fn, alpha, beta, ppd):
    q = ParamSymbol(fn, (-2.0, -2.0, 2.0), sector=SEC)
    with pytest.raises(SymbolRejection):
        _ref_seminorm_check(q, alpha, beta, ppd)
    with pytest.raises(SymbolRejection) as got:
        seminorm_check(q, alpha, beta, pts_per_decade=ppd)
    w = got.value.payload
    assert w["alpha"] <= alpha and w["beta"] <= beta
    # a point of the doubled grid, whose derivative there is non-finite
    XI = _ref_xi_axis(2 * ppd)
    LAM, DIR = _ref_lam_axis(SEC, 2.0, 2 * ppd)
    assert w["xi"] in XI
    j = int(np.flatnonzero(LAM == w["lam"])[0])
    deriv, _ = _ref_fd_derivative(fn, np.array([w["xi"]]), LAM[j:j + 1],
                                  DIR[j:j + 1], w["alpha"], w["beta"], 2.0)
    assert not np.isfinite(deriv[0, 0])


@pytest.mark.parametrize("ppd", [0, -3, 2.5, 40.0])
def test_density_must_be_a_positive_integer(ppd):
    with pytest.raises(ConfigurationError):
        seminorm_check(laplace_symbol(), 0, 0, pts_per_decade=ppd)


# ---------------------------------------------------------------------------
# Neumann refinement


def s0_symbol():
    # genuinely order -1 in the first slot: xi (xi^2 - lam)^(-1)
    return resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0, SEC,
                            b_fn=lambda xi: np.asarray(xi), mu_b=1.0)


def test_neumann_error_order_improves():
    s0 = s0_symbol()
    xi = np.geomspace(3.0, 300.0, 40)
    lam = -2.0
    err2 = s0(xi, lam) ** 3  # error after two refinement steps
    slope1 = np.polyfit(np.log1p(xi), np.log(np.abs(s0(xi, lam))), 1)[0]
    slope3 = np.polyfit(np.log1p(xi), np.log(np.abs(err2)), 1)[0]
    assert slope1 == pytest.approx(-1.0, abs=0.1)
    assert slope3 == pytest.approx(-3.0, abs=0.2)
