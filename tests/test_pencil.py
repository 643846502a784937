import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal, solve_banded

from conespec import pencil
from conespec.asymptotics import HEAT_CUTOFF_EXPONENT, _gauss_panels
from conespec.coneop import (Discretization, discretize, eigenvalues,
                             laplace_type)
from conespec.errors import ConfigurationError, NumericalError
from conespec.traces import _CONTOUR_NODES, WeightOperator

# first eigenvalue of the ACCEPT-01 problem as the hand-rolled pencil
# bisection computed it; LAPACK bisection at its default abstol gives 20.2092
ACCEPT01_LAMBDA1 = 20.190484020380815


def test_accept01_eigenvalue_needs_tight_bisection_tolerance():
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 2000)
    lam = eigenvalues(disc, 0, count=1)[0]
    assert abs(lam - ACCEPT01_LAMBDA1) <= 1e-12 * ACCEPT01_LAMBDA1


def test_lapack_values_outside_the_pencil_count_are_refused(monkeypatch):
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    vals = pencil.eig_pencil(d, e, disc.w, lam_max=100.0)
    monkeypatch.setattr(pencil, "_bisect", lambda *args: vals * (1 + 1e-9))
    with pytest.raises(NumericalError):
        pencil.eig_pencil(d, e, disc.w, lam_max=vals[-1])


@st.composite
def graded_pencils(draw, max_n=12):
    """Diagonally dominant SPD tridiagonal K, e < 0, weights in [1e-12, 1]."""
    n = draw(st.integers(2, max_n))
    unit = st.floats(0.01, 1.0)
    e = -np.array(draw(st.lists(unit, min_size=n - 1, max_size=n - 1)))
    d = np.array(draw(st.lists(unit, min_size=n, max_size=n)))
    d[:-1] -= e
    d[1:] -= e
    w = 10.0 ** np.array(draw(st.lists(st.floats(-12.0, 0.0), min_size=n,
                                       max_size=n)))
    return d, e, w, draw(st.integers(0, n))


def _mpmath_eigenvalues(d, e, w):
    """Eigenvalues of W^(-1/2) K W^(-1/2) at 50 digits."""
    n = len(d)
    with mpmath.workdps(50):
        s = [1 / mpmath.sqrt(mpmath.mpf(x)) for x in w]
        t = mpmath.zeros(n, n)
        for i in range(n):
            t[i, i] = mpmath.mpf(d[i]) * s[i] ** 2
        for i in range(n - 1):
            t[i, i + 1] = t[i + 1, i] = mpmath.mpf(e[i]) * s[i] * s[i + 1]
        vals = mpmath.eigsy(t, eigvals_only=True)
        return np.sort(np.array([float(v) for v in vals]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(graded_pencils())
def test_eig_pencil_matches_mpmath_on_graded_weights(case):
    d, e, w, k = case
    n = len(d)
    ref = _mpmath_eigenvalues(d, e, w)
    vals = pencil.eig_pencil(d, e, w, count=n)
    assert len(vals) == n
    assert np.max(np.abs(vals - ref) / ref) <= 1e-10
    # a cutoff well inside the gap above the k lowest eigenvalues
    edges = np.concatenate(([ref[0] / 4], ref, [4 * ref[-1]]))
    lam_max = np.sqrt(edges[k] * edges[k + 1])
    assume(np.min(np.abs(ref - lam_max) / ref) > 1e-6)
    assert len(pencil.eig_pencil(d, e, w, lam_max=lam_max)) == k


@st.composite
def shifted_pencils(draw):
    """Graded pencil, a diagonal multiplier B and a complex shift."""
    d, e, w, _ = draw(graded_pencils(max_n=16))
    n = len(d)
    b = np.array(draw(st.lists(st.floats(-1.0, 2.0), min_size=n, max_size=n)))
    lam = complex(draw(st.floats(-10.0, 10.0)),
                  draw(st.floats(0.1, 10.0)) * draw(st.sampled_from((-1, 1))))
    return d, e, w, b, lam


@settings(derandomize=True, max_examples=300, deadline=None)
@given(shifted_pencils(), st.integers(1, 4))
def test_trace_weighted_resolvent_matches_dense_power(case, N):
    d, e, w, b, lam = case
    K = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    R = np.linalg.solve(K - lam * np.diag(w), np.diag(w))  # (A - lam)^(-1)
    ref = np.sum(b * np.diag(np.linalg.matrix_power(R, N)))
    got = pencil.trace_weighted_resolvent(d[None], e, w, [lam], bdiag=b, N=N)[0]
    assert got.shape == (1,)
    assert abs(got[0] - ref) <= 1e-12 * abs(ref)


def _dense_weighted_trace(d, e, w, lam, b, N):
    K = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    R = np.linalg.solve(K - lam * np.diag(w), np.diag(w))  # (A - lam)^(-1)
    return np.sum(b * np.diag(np.linalg.matrix_power(R, N)))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_trace_weighted_resolvent_of_one_to_three_rows(n, N):
    # the top side alone, an even split, and an odd middle row taken by
    # the top side before the join
    d = np.array([2.5, 3.0, 2.0])[:n]
    e = np.array([-0.7, -0.9])[:n - 1]
    w = np.array([1e-3, 0.5, 2.0])[:n]
    b = np.array([1.5, -0.5, 0.8])[:n]
    lams = [complex(-1.0, 2.0), complex(3.0, -0.5)]
    got = pencil.trace_weighted_resolvent(d[None], e, w, lams, bdiag=b, N=N)
    for lam, value in zip(lams, got[0]):
        ref = _dense_weighted_trace(d, e, w, lam, b, N)
        assert abs(value - ref) <= 1e-12 * abs(ref)


def _store_sweep_reference(d, e, w, lams, bdiag, N):
    """Forward sweep with a stored (n, N, lanes) pivot table, then a
    backward sweep: Tr B (A - lam)^(-N) as sum_i b_i w_i / (f_i + g_i - t_i)
    of the forward pivots f_i and backward pivots g_i, as power series."""
    lams = np.asarray(lams, dtype=complex)
    n = d.shape[1]
    lane_d = np.repeat(d.T, len(lams), axis=1)
    t = lane_d - w[:, None] * np.tile(lams, len(d))[None, :]
    lanes = t.shape[1]
    c = np.concatenate([[0.0], np.square(e), [0.0]]).astype(complex)
    neg_bw = -(w * bdiag).astype(complex)
    store = np.empty((n, N, lanes), dtype=complex)
    rho = np.zeros((N, lanes), dtype=complex)
    for i in range(n):
        f = store[i]
        np.multiply(rho, c[i], out=f)
        f[0] += t[i]
        if N > 1:
            f[1] -= w[i]
        pencil._series_neg_reciprocal(f, rho)
    acc = np.zeros(lanes, dtype=complex)
    sigma = np.zeros((N, lanes), dtype=complex)
    h = np.empty_like(sigma)
    for i in range(n - 1, -1, -1):
        np.multiply(sigma, c[i + 1], out=h)
        x = np.add(store[i], h, out=store[i])
        acc += neg_bw[i] * pencil._series_neg_reciprocal(x, rho)[N - 1]
        h[0] += t[i]
        if N > 1:
            h[1] -= w[i]
        pencil._series_neg_reciprocal(h, sigma)
    return acc.reshape(len(d), len(lams))


def _contour_case(npoints):
    # a fixed stress set of 336 shifts: 14 geometric panels of 24 Gauss
    # nodes on the ray -1 + u e^(i pi/4), reaching u = 46 / (t cos(pi/4)) at
    # t = 45 / 700, on four mode classes weighted by x^(-1) phi
    disc = discretize(laplace_type(1.5, mode_cap=3), -6.0, npoints)
    ds = np.array([disc.matrix(modes[0])[0] for modes in disc.mode_classes()])
    e = disc.matrix(0)[1]
    t = 45.0 / 700.0
    u_max = HEAT_CUTOFF_EXPONENT / (t * math.cos(math.pi / 4))
    nodes, _ = _gauss_panels(np.concatenate(
        [[0.0], np.geomspace(u_max / 2 ** 13, u_max, 14)]), 24)
    lams = -1.0 + nodes * cmath.exp(1j * math.pi / 4)
    return ds, e, disc.w, lams, WeightOperator(beta=1.0).multiplier(disc.x)


def _parabola_nodes(ds, e, w, t):
    # heat_trace_contour's 19 swept nodes sigma - mu (1 + i u)^2 at t
    lam_min = min(pencil._lowest_eigenvalue(d, e, w) for d in ds)
    sigma = max(-1.0, lam_min - 1.0 / t)
    nq = _CONTOUR_NODES
    mu = math.pi * nq / (12.0 * t)
    return sigma - mu * (1.0 + 1j * (3.0 / nq) * np.arange(nq + 1)) ** 2


@pytest.mark.parametrize("N", [2, 3, 4])
def test_trace_weighted_resolvent_matches_the_store_sweep(N):
    ds, e, w, lams, b = _contour_case(150)
    assert ds.shape == (4, 150) and lams.shape == (336,)
    got = pencil.trace_weighted_resolvent(ds, e, w, lams, bdiag=b, N=N)
    ref = _store_sweep_reference(ds, e, w, lams, b, N)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


@pytest.mark.parametrize("t", [45.0 / 700.0, 1.0, 5.0])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_trace_weighted_resolvent_matches_the_store_sweep_on_the_parabola(N, t):
    ds, e, w, _, b = _contour_case(150)
    lams = _parabola_nodes(ds, e, w, t)
    assert lams.shape == (19,)
    got = pencil.trace_weighted_resolvent(ds, e, w, lams, bdiag=b, N=N)
    ref = _store_sweep_reference(ds, e, w, lams, b, N)
    assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))


def test_lowest_eigenvalue_equals_the_polished_one():
    # bisection alone, without eig_pencil's Sturm count and polish
    disc = discretize(laplace_type(1.5, mode_cap=3), -12.0, 2000)
    for m in disc.mode_list():
        d, e = disc.matrix(m)
        ref = pencil.eig_pencil(d, e, disc.w, count=1)[0]
        got = pencil._lowest_eigenvalue(d, e, disc.w)
        assert abs(got - ref) <= 1e-12 * ref


def test_trace_weighted_resolvent_memory_stays_bounded():
    # half the 97 MB of a sweep that stores every forward pivot; the
    # two-ended sweep keeps one (n, lanes) table of the t_i (32 MB here)
    # and O(N lanes) of state, so lanes need no blocking
    ds, e, w, lams, b = _contour_case(1500)
    tracemalloc.start()
    try:
        pencil.trace_weighted_resolvent(ds, e, w, lams, bdiag=b, N=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48e6


def _inertia_reference(d, e, w, shifts):
    """The pivot recursion vectorized over lanes, one numpy step per row."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if np.ndim(d) == 2:
        d = np.asarray(d, dtype=float).T[:, :, None]  # row i: (modes, 1)
    n = len(d)
    e2 = np.square(e)
    piv = d[0] - shifts * w[0]
    piv = np.where(np.abs(piv) < pencil._PIVMIN, -pencil._PIVMIN, piv)
    count = (piv < 0).astype(np.int64)
    for i in range(1, n):
        piv = d[i] - shifts * w[i] - e2[i - 1] / piv
        piv = np.where(np.abs(piv) < pencil._PIVMIN, -pencil._PIVMIN, piv)
        count += piv < 0
    return count


@st.composite
def sturm_cases(draw):
    """Graded pencils, their (modes, n) stack and shifts at and between
    eigenvalues; optionally a first pivot that is exactly zero."""
    d, e, w, _ = draw(graded_pencils(max_n=40))
    s = np.sqrt(w)
    vals = eigh_tridiagonal(d / w, e / (s[:-1] * s[1:]), eigvals_only=True)
    shifts = list(vals) + [10.0 ** x for x in draw(
        st.lists(st.floats(-3.0, 13.0), min_size=1, max_size=4))] + [-1.0]
    if draw(st.booleans()):
        zero = 10.0 ** draw(st.floats(-3.0, 3.0))
        d[0] = zero * w[0]  # so that d_0 - zero * w_0 == 0
        shifts.append(zero)
    offsets = draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
    ds = d[None, :] + np.array(offsets)[:, None] * w[None, :]
    return d, e, w, ds, np.array(shifts)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sturm_cases())
def test_inertia_equals_vectorized_recursion(case):
    d, e, w, ds, shifts = case
    got = pencil.inertia(d, e, w, shifts)
    assert got.dtype == np.int64 and got.shape == (len(shifts),)
    assert np.array_equal(got, _inertia_reference(d, e, w, shifts))
    got = pencil.inertia(ds, e, w, shifts)
    assert got.dtype == np.int64 and got.shape == (len(ds), len(shifts))
    assert np.array_equal(got, _inertia_reference(ds, e, w, shifts))


def test_inertia_clamps_an_exact_zero_pivot():
    # d_0 - 2 w_0 = 0 is clamped to -_PIVMIN and counted, the next pivot is
    # then 1 - 1/(-1e-300) = 1e300 and the last 2 - 1e-300 > 0
    d, e, w = np.array([2.0, 3.0, 4.0]), np.full(2, -1.0), np.ones(3)
    assert pencil.inertia(d, e, w, [2.0]).tolist() == [1]
    assert _inertia_reference(d, e, w, [2.0]).tolist() == [1]


@st.composite
def signed_pencils(draw, max_n=30):
    """Symmetric tridiagonal K of either sign, weights in [1e-12, 1]."""
    n = draw(st.integers(1, max_n))
    entries = st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)
    d, e = np.array(draw(entries)), np.array(draw(entries))[:-1]
    w = 10.0 ** np.array(draw(st.lists(st.floats(-12.0, 0.0), min_size=n,
                                       max_size=n)))
    return d, e, w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(signed_pencils(), graded_pencils(max_n=40)))
def test_no_eigenvalue_lies_below_the_lower_bound(case):
    # K - lo W is strictly diagonally dominant with a positive diagonal, so
    # eig_pencil takes the count below lo as 0 without a Sturm count
    d, e, w = case[:3]
    assert pencil.inertia(d, e, w, [pencil.lower_bound(d, e, w)])[0] == 0


def test_count_only_solve_makes_no_sturm_count(monkeypatch):
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    want = pencil.eig_pencil(d, e, disc.w, lam_max=500.0)
    assert len(want) > 5

    def counted(*args):
        raise AssertionError("Sturm count on a count-only solve")

    monkeypatch.setattr(pencil, "inertia", counted)
    assert np.array_equal(pencil.eig_pencil(d, e, disc.w, count=5), want[:5])


def _solve_banded_polish(d, e, w, shift, rhs):
    n = len(d)
    ab = np.zeros((3, n))
    ab[0, 1:] = e
    ab[1, :] = d - shift * w
    ab[2, :-1] = e
    return solve_banded((1, 1), ab, rhs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(graded_pencils(max_n=40))
def test_eig_pencil_polish_equals_solve_banded(case):
    d, e, w, _ = case
    vals, vecs = pencil.eig_pencil(d, e, w, count=len(d), vectors=True)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pencil, "_solve_shifted", _solve_banded_polish)
        ref_vals, ref_vecs = pencil.eig_pencil(d, e, w, count=len(d),
                                               vectors=True)
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)


def test_eig_pencil_of_one_row():
    vals, vecs = pencil.eig_pencil([2.0], [], [4.0], count=1, vectors=True)
    assert vals.tolist() == [0.5]
    assert vecs.tolist() == [[0.5]]


def test_refine_pair_retries_a_singular_solve(monkeypatch):
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    w = disc.w
    lam = pencil.eig_pencil(d, e, w, count=3)[2]
    real = pencil.dgtsv
    diags = []

    def singular_once(dl, diag, du, rhs, **kwargs):
        diags.append(diag.copy())
        out = real(dl, diag, du, rhs, **kwargs)
        return out[:4] + ((1,) if len(diags) == 1 else out[4:])

    monkeypatch.setattr(pencil, "dgtsv", singular_once)
    lam_p, v = pencil.refine_pair(d, e, w, lam)
    assert np.array_equal(diags[0], d - (lam * (1.0 + 1e-11) + 1e-300) * w)
    assert np.array_equal(diags[1], d - lam * (1.0 + 1e-8) * w)
    assert len(diags) == 4
    assert abs(v @ (w * v) - 1.0) <= 1e-12
    assert abs(lam_p - lam) <= 1e-10 * lam


def _refine_pair_fresh_start(d, e, w, lam):
    # refine_pair as it was before the start vector was cached: a fresh
    # seeded draw on every call, normalized in place
    v = np.random.default_rng(12345).standard_normal(len(d))
    v /= np.sqrt(v @ (w * v))
    lam = float(lam)
    for _ in range(3):
        try:
            v_new = pencil._solve_shifted(d, e, w, lam * (1.0 + 1e-11) + 1e-300,
                                          w * v)
        except np.linalg.LinAlgError:
            v_new = pencil._solve_shifted(d, e, w, lam * (1.0 + 1e-8), w * v)
        nrm = np.sqrt(v_new @ (w * v_new))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        v = v_new / nrm
        lam = float(v @ pencil._tridiag_matvec(d, e, v))
    return lam, v


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graded_pencils(max_n=40))
def test_refine_pair_cached_start_equals_a_fresh_draw(case):
    d, e, w, _ = case
    for lam in pencil.eig_pencil(d, e, w, count=len(d))[:3]:
        lam_p, v = pencil.refine_pair(d, e, w, lam)
        ref_lam, ref_v = _refine_pair_fresh_start(d, e, w, lam)
        assert lam_p == ref_lam
        assert np.array_equal(v, ref_v)
    start = pencil._start_vector(len(d))
    assert not start.flags.writeable
    assert np.array_equal(
        start, np.random.default_rng(12345).standard_normal(len(d)))


def test_polish_solve_refuses_non_finite_input():
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    rhs = np.ones(len(d))
    rhs[7] = np.nan
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil._solve_shifted(d, e, disc.w, 30.0, rhs)
    with pytest.raises(ValueError, match="infs or NaNs"):
        pencil.refine_pair(d, e, disc.w, np.inf)


@pytest.mark.parametrize("kwargs", [
    {"lam_max": np.nan}, {"lam_max": np.inf}, {"lam_max": -np.inf},
    {"count": 0}, {"count": -3}, {"count": 2.5},
    {"lam_max": 100.0, "count": 0},
])
def test_eig_pencil_rejects_bad_cutoffs(kwargs):
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    with pytest.raises(ConfigurationError):
        pencil.eig_pencil(d, e, disc.w, **kwargs)


@pytest.mark.parametrize("s_min", [-200, -354])
def test_eig_pencil_refuses_grids_it_cannot_solve(s_min):
    # below discretize's depth cap: at -200 LAPACK bisection does not
    # converge, and at -354 the diagonal of the congruent tridiagonal
    # overflows
    disc = Discretization(laplace_type(1.5, mode_cap=0), float(s_min), 0.0,
                          1500)
    d, e = disc.matrix(0)
    with pytest.raises(NumericalError):
        pencil.eig_pencil(d, e, disc.w, lam_max=300.0)


@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_inertia_rejects_non_finite_shifts(shift):
    disc = discretize(laplace_type(1.5, mode_cap=0), -12.0, 400)
    d, e = disc.matrix(0)
    with pytest.raises(ConfigurationError):
        pencil.inertia(d, e, disc.w, [1.0, shift])
