import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conespec import pencil
from conespec.coneop import discretize, eigenvalues, laplace_type
from conespec.errors import NumericalError

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
    monkeypatch.setattr(pencil, "eigh_tridiagonal",
                        lambda *args, **kwargs: vals * (1 + 1e-9))
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
    got = pencil.trace_weighted_resolvent(d, e, w, [lam], bdiag=b, N=N)
    assert got.shape == (1,)
    assert abs(got[0] - ref) <= 1e-12 * abs(ref)
