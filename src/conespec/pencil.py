"""Eigen and resolvent computations for symmetric tridiagonal pencils (K, W).

K is real symmetric tridiagonal, W is diagonal and strictly positive.  The
generalized problem K u = lambda W u is solved by Sturm bisection on the
shifted pencil K - lambda W followed by inverse iteration.  Working with
the pencil directly matters: the equivalent standard reduction
W^(-1/2) K W^(-1/2) has norm of order max(1/w) * ||K||, and with weights
spanning ten or more orders of magnitude a backward-stable dense solver
would lose every digit of the low eigenvalues.  Eigenvalues of the pencil
itself are perturbed only by ||dK|| + |lambda| ||dW|| per unit W-norm, so
bisection counts on (K - lambda W) are effectively exact.

All public functions take the tridiagonal data as (d, e, w): diagonal,
subdiagonal (length n-1) and weight.
"""

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError

_PIVMIN = 1e-300


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


def upper_bound(d, e, w):
    """Gershgorin style upper bound for the pencil eigenvalues."""
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    return float(np.max((d + rad) / w)) + 1.0


def lower_bound(d, e, w):
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    return float(np.min((d - rad) / w)) - 1.0


def eigvals_range(d, e, w, lo, hi, *, rtol=1e-13, max_iter=64):
    """All pencil eigenvalues in (lo, hi], ascending, by parallel bisection."""
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    nlo = int(inertia(d, e, w, lo)[0])
    nhi = int(inertia(d, e, w, hi)[0])
    m = nhi - nlo
    if m <= 0:
        return np.empty(0)
    los = np.full(m, float(lo))
    his = np.full(m, float(hi))
    idx = np.arange(nlo + 1, nhi + 1)  # 1-based eigenvalue indices
    for _ in range(max_iter):
        mids = 0.5 * (los + his)
        cnt = inertia(d, e, w, mids)
        below = cnt >= idx  # eigenvalue idx is <= mid
        his = np.where(below, mids, his)
        los = np.where(below, los, mids)
        width = his - los
        if np.all(width <= rtol * np.maximum(np.abs(his), 1e-6)):
            break
    return 0.5 * (los + his)


def _solve_shifted(d, e, w, shift, rhs):
    n = len(d)
    ab = np.zeros((3, n))
    ab[0, 1:] = e
    ab[1, :] = d - shift * w
    ab[2, :-1] = e
    return solve_banded((1, 1), ab, rhs)


def refine_pair(d, e, w, lam, *, iters=3):
    """Polish one eigenvalue by inverse iteration with Rayleigh updates.

    Returns (lam, v) with v normalized so that v^T W v = 1.
    """
    n = len(d)
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n)
    v /= np.sqrt(v @ (w * v))
    lam = float(lam)
    for _ in range(iters):
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


def eig_pencil(d, e, w, *, lam_max=None, count=None, vectors=False,
               lo=None, rtol=1e-13):
    """Low eigenpairs of the pencil (K, W).

    Either ``lam_max`` (all eigenvalues at most lam_max) or ``count``
    (the lowest ``count``) must be given.  Eigenvalues are polished by
    Rayleigh-quotient inverse iteration; vectors are W-orthonormal up to
    the grid measure (caller applies the grid step when needed).
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    if lo is None:
        lo = lower_bound(d, e, w)
    if lam_max is None and count is None:
        raise NumericalError("need lam_max or count")
    if lam_max is None:
        top = upper_bound(d, e, w)
        width = 1.0
        hi = min(lo + width, top)
        while int(inertia(d, e, w, hi)[0]) < count and hi < top:
            width *= 2.0
            hi = min(lo + width, top)
        lam_max = hi
    vals = eigvals_range(d, e, w, lo, lam_max, rtol=rtol)
    if count is not None:
        vals = vals[:count]
    out_vals = np.empty(len(vals))
    out_vecs = np.empty((len(d), len(vals))) if vectors else None
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
