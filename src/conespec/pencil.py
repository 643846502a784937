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

All public functions take the tridiagonal data as (d, e, w): diagonal,
subdiagonal (length n-1) and weight.
"""

import numpy as np
from scipy.linalg import eigh_tridiagonal, solve_banded

from .errors import NumericalError

_PIVMIN = 1e-300
# absolute dstebz tolerance; LAPACK's default eps * ||T|| loses the low
# eigenvalues (the first ACCEPT-01 eigenvalue reads 20.2092, not 20.19048)
_ABSTOL = 1e-300


def inertia(d, e, w, shifts):
    """Number of eigenvalues of (K, W) strictly below each shift.

    Vectorized over shifts via the LDL^T pivot recursion on K - shift*W.
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
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


def trace_weighted_resolvent(d, e, w, lams, bdiag=None):
    """Tr[B (K - lam W)^(-1) W] for a batch of complex shifts lam.

    B is the diagonal multiplier ``bdiag`` (identity when None).  The
    pivot recursions are vectorized across the shift batch, so one call
    costs O(n * len(lams)).
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=complex))
    n = len(d)
    t = d[None, :] - lams[:, None] * w[None, :]
    e2 = np.square(e).astype(complex)
    f = np.empty_like(t)
    g = np.empty_like(t)
    f[:, 0] = t[:, 0]
    for i in range(1, n):
        f[:, i] = t[:, i] - e2[i - 1] / f[:, i - 1]
    g[:, n - 1] = t[:, n - 1]
    for i in range(n - 2, -1, -1):
        g[:, i] = t[:, i] - e2[i] / g[:, i + 1]
    diag = 1.0 / (f + g - t)
    weight = w if bdiag is None else w * bdiag
    return diag @ weight
