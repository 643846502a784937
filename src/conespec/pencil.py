"""Eigen and resolvent computations for symmetric tridiagonal pencils (K, W).

K is real symmetric tridiagonal, W is diagonal and strictly positive.  The
generalized problem K u = lambda W u is congruent to the standard problem
for T = W^(-1/2) K W^(-1/2), which is again symmetric tridiagonal, with the
same Sturm counts and the same eigenvalues.  With weights spanning ten or
more orders of magnitude ||T|| is of order max(1/w) * ||K||, and the low
eigenvalues lose their accuracy in two places: in dense solvers (QR,
divide and conquer), whose errors scale with ||T||, and in bisection run
to LAPACK's default absolute tolerance eps * ||T||.  Bisection run to a
tight absolute tolerance keeps it: the K of a cone discretization is
diagonally dominant, the diagonal congruence leaves T scaled diagonally
dominant, and bisection determines every eigenvalue of such a matrix to
high relative accuracy (Barlow & Demmel, SIAM J. Numer. Anal. 27, 1990).

``eig_pencil`` therefore makes one Sturm count on the pencil K - lambda W
itself (``inertia``), which picks the indices of the wanted eigenvalues,
computes those by LAPACK bisection (dstebz) on T with an explicit tiny
tolerance, and polishes each on the pencil by inverse iteration
(``refine_pair``), which also gives the eigenvectors.
``trace_weighted_resolvent`` takes traces of resolvent powers from power
series of the pivots of K - lambda W, for many pencils and shifts at once.

All public functions take the tridiagonal data as (d, e, w): diagonal,
subdiagonal (length n-1) and weight.
"""

import operator

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import ConfigurationError, NumericalError

_PIVMIN = 1e-300
# absolute dstebz tolerance; LAPACK's default eps * ||T|| loses the low
# eigenvalues (the first ACCEPT-01 eigenvalue reads 20.2092, not 20.19048)
_ABSTOL = 1e-300
# lanes ((mode, shift) pairs) per pivot sweep times the series order N, so
# that the (n, N, lanes) pivot store of one sweep holds at most
# n * _LANE_BUDGET complex numbers (6.5 MB at n = 150)
_LANE_BUDGET = 2688


def inertia(d, e, w, shifts):
    """Number of eigenvalues of (K, W) strictly below each shift.

    Vectorized over shifts via the LDL^T pivot recursion on K - shift*W.
    A diagonal of shape (modes, n), pencils sharing e and w, gives counts
    of shape (modes, len(shifts)).
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if np.ndim(d) == 2:
        d = np.asarray(d, dtype=float).T[:, :, None]  # row i: (modes, 1)
    n = len(d)
    e2 = np.square(e)
    piv = d[0] - shifts * w[0]
    piv = np.where(np.abs(piv) < _PIVMIN, -_PIVMIN, piv)
    count = (piv < 0).astype(np.int64)
    for i in range(1, n):
        piv = d[i] - shifts * w[i] - e2[i - 1] / piv
        piv = np.where(np.abs(piv) < _PIVMIN, -_PIVMIN, piv)
        count += piv < 0
    return count


def lower_bound(d, e, w):
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    return float(np.min((d - rad) / w)) - 1.0


def _solve_shifted(d, e, w, shift, rhs):
    n = len(d)
    ab = np.zeros((3, n))
    ab[0, 1:] = e
    ab[1, :] = d - shift * w
    ab[2, :-1] = e
    return solve_banded((1, 1), ab, rhs)


def refine_pair(d, e, w, lam):
    """Polish one eigenvalue by inverse iteration with Rayleigh updates.

    Returns (lam, v) with v normalized so that v^T W v = 1.
    """
    n = len(d)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ (w * v))
    lam = float(lam)
    for _ in range(3):
        shift = lam * (1.0 + 1e-11) + 1e-300
        try:
            v_new = _solve_shifted(d, e, w, shift, w * v)
        except np.linalg.LinAlgError:
            shift = lam * (1.0 + 1e-8)
            v_new = _solve_shifted(d, e, w, shift, w * v)
        nrm = np.sqrt(v_new @ (w * v_new))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        v = v_new / nrm
        kv = _tridiag_matvec(d, e, v)
        lam = float(v @ kv)  # v^T K v with v^T W v = 1
    return lam, v


def _tridiag_matvec(d, e, v):
    out = d * v
    out[:-1] += e * v[1:]
    out[1:] += e * v[:-1]
    return out


def eig_pencil(d, e, w, *, lam_max=None, count=None, vectors=False):
    """Low eigenpairs of the pencil (K, W).

    Either ``lam_max`` (all eigenvalues at most lam_max) or ``count``
    (the lowest ``count``) must be given.  One Sturm count on the pencil
    picks the eigenvalue indices, LAPACK bisection on the congruent
    tridiagonal computes them, and Rayleigh-quotient inverse iteration
    polishes them; vectors are W-orthonormal up to the grid measure
    (caller applies the grid step when needed).
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    if lam_max is None and count is None:
        raise NumericalError("need lam_max or count")
    n = len(d)
    lo = lower_bound(d, e, w)
    if lam_max is None:
        nlo = int(inertia(d, e, w, [lo])[0])
        nhi = n
    else:
        nlo, nhi = (int(c) for c in inertia(d, e, w, [lo, lam_max]))
    if count is not None:
        nhi = min(nhi, nlo + count)
    vals = np.empty(0)
    if nhi > nlo:
        s = np.sqrt(w)
        vals = eigh_tridiagonal(d / w, e / (s[:-1] * s[1:]), eigvals_only=True,
                                select="i", select_range=(nlo, nhi - 1),
                                lapack_driver="stebz", tol=_ABSTOL)
        top = np.inf if lam_max is None else lam_max
        slack = 1e-12 * np.abs(vals)
        if np.any(vals < lo - slack) or np.any(vals > top + slack):
            raise NumericalError("LAPACK bisection disagrees with the pencil "
                                 "Sturm count", lo=lo, lam_max=lam_max,
                                 got=f"{vals[0]:.17g}..{vals[-1]:.17g}")
    out_vals = np.empty(len(vals))
    out_vecs = np.empty((n, len(vals))) if vectors else None
    for i, lam in enumerate(vals):
        lam_p, v = refine_pair(d, e, w, lam)
        # keep the bisection value if polishing wandered off
        if abs(lam_p - lam) > 1e-6 * max(1.0, abs(lam)):
            lam_p = lam
        out_vals[i] = lam_p
        if vectors:
            out_vecs[:, i] = v
    order = np.argsort(out_vals)
    out_vals = out_vals[order]
    if vectors:
        out_vecs = out_vecs[:, order]
        return out_vals, out_vecs
    return out_vals


def _series_neg_reciprocal(a, out):
    """-1/a for a power series truncated like a (coefficients along axis 0).

    rho = -1/a has rho_0 = -1/a_0 and rho_k = rho_0 sum_(j=1..k) a_j rho_(k-j);
    the sign saves a negation per coefficient.
    """
    np.divide(-1.0, a[0], out=out[0])
    for k in range(1, len(a)):
        acc = a[k] * out[0]
        for j in range(1, k):
            acc += a[k - j] * out[j]
        np.multiply(acc, out[0], out=out[k])
    return out


def trace_weighted_resolvent(d, e, w, lams, bdiag=None, N=1):
    """Tr[B ((K - lam W)^(-1) W)^N] = Tr B (A - lam)^(-N) for complex lam.

    B is the diagonal multiplier ``bdiag`` (identity when None) and
    A = W^(-1) K.  Since (A - lam - eps)^(-1) has the Taylor coefficients
    (A - lam)^(-k-1) in eps, the wanted trace is the eps^(N-1) coefficient
    of Tr[B (K - (lam + eps) W)^(-1) W] = sum_i b_i w_i / (f_i + g_i - t_i),
    with the forward pivots f_i = t_i - e_(i-1)^2 / f_(i-1) and the
    backward pivots g_i = t_i - e_i^2 / g_(i+1) of t_i = d_i - (lam + eps) w_i.
    Each is propagated as a power series in eps truncated after eps^(N-1),
    starting from t_i = [d_i - lam w_i, -w_i, 0, ...], so the coefficient
    is exact: no derivative is taken numerically.

    ``d`` of shape (modes, n) holds one diagonal per mode, for pencils
    that share e and w; the result then has shape (modes, len(lams)).
    Every (mode, shift) pair is a lane of one sweep over a row-major
    (n, N, lanes) pivot store, in blocks of at most ``_LANE_BUDGET // N``
    lanes; a lane costs O(n N^2).
    """
    N = operator.index(N)
    if N < 1:
        raise ConfigurationError("resolvent power must be positive", N=N)
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    dm = np.atleast_2d(np.asarray(d, dtype=float))
    n_modes, n = dm.shape
    e2 = np.square(e)
    bw = w if bdiag is None else w * bdiag
    total = n_modes * len(lams)
    out = np.empty(total, dtype=complex)
    block = max(1, _LANE_BUDGET // N)
    for lo in range(0, total, block):
        lane = np.arange(lo, min(lo + block, total))
        lam = lams[lane % len(lams)]
        dl = np.ascontiguousarray(dm.T[:, lane // len(lams)])
        out[lane] = _series_pivot_trace(dl, e2, w, bw, lam, N)
    out = out.reshape(n_modes, len(lams))
    return out if np.ndim(d) == 2 else out[0]


def _series_pivot_trace(dl, e2, w, bw, lam, N):
    # one block of lanes; dl[i] holds d_i of each lane's mode.  The sweeps
    # carry rho_i = -1/f_i and sigma_i = -1/g_i, so that
    # f_i = t_i + e_(i-1)^2 rho_(i-1) and g_i = t_i + e_i^2 sigma_(i+1).
    n, lanes = dl.shape
    t = dl - w[:, None] * lam[None, :]
    # couplings e_(i-1)^2 (forward) and e_i^2 (backward), zero past the
    # ends; complex scalars, which numpy broadcasts faster than real ones
    c = np.concatenate([[0.0], e2, [0.0]]).astype(complex)
    w = w.astype(complex)
    neg_bw = -bw.astype(complex)
    store = np.empty((n, N, lanes), dtype=complex)  # forward pivots f_i
    rho = np.zeros((N, lanes), dtype=complex)
    for i in range(n):
        f = store[i]
        np.multiply(rho, c[i], out=f)
        f[0] += t[i]
        if N > 1:
            f[1] -= w[i]
        _series_neg_reciprocal(f, rho)
    acc = np.zeros(lanes, dtype=complex)
    sigma = np.zeros((N, lanes), dtype=complex)
    h = np.empty_like(sigma)
    for i in range(n - 1, -1, -1):
        np.multiply(sigma, c[i + 1], out=h)
        # f_i + g_i - t_i = f_i + e_i^2 sigma_(i+1); its reciprocal is the
        # diagonal of the inverse, -rho of the sum
        x = np.add(store[i], h, out=store[i])
        acc += neg_bw[i] * _series_neg_reciprocal(x, rho)[N - 1]
        h[0] += t[i]
        if N > 1:
            h[1] -= w[i]
        _series_neg_reciprocal(h, sigma)
    return acc
