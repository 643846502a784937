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
itself (``inertia``) at lam_max, which picks the indices of the wanted
eigenvalues, computes those by LAPACK bisection (dstebz) on T with an
explicit tiny tolerance, and polishes each on the pencil by inverse
iteration (``refine_pair``), which also gives the eigenvectors.  The Sturm
count is one float recursion per lane, a lane being one (mode, shift)
pair: a solve counts at one shift at most, and numpy's dispatch on arrays
that small costs far more than the three flops of a pivot step.  The
polish solves go straight to LAPACK gtsv.
``trace_weighted_resolvent`` takes traces of resolvent powers from power
series of the pivots of K - lambda W, for many pencils and shifts at once:
as the log-derivative of a determinant whose pivots are taken from both
ends of the pencil, so that one step of ceil(n/2) takes a row from either
end for every lane, and no pivot is stored.

All public functions take the tridiagonal data as (d, e, w): diagonal,
subdiagonal (length n-1) and weight.
"""

import functools
import math
import operator

import numpy as np
from scipy.linalg.lapack import dgtsv, dstebz

from .errors import ConfigurationError, NumericalError

_PIVMIN = 1e-300
# absolute dstebz tolerance; LAPACK's default eps * ||T|| loses the low
# eigenvalues (the first ACCEPT-01 eigenvalue reads 20.2092, not 20.19048)
_ABSTOL = 1e-300


def inertia(d, e, w, shifts):
    """Number of eigenvalues of (K, W) strictly below each shift.

    Counts the negative pivots of the LDL^T recursion on K - shift*W, with
    one float recursion per lane: a lane is one (mode, shift) pair, and its
    n steps run on Python floats over list copies of d, e^2 and w.  Each
    step is three flops and a compare, so a numpy call per step (on arrays
    of the one or two lanes a solve asks for) would cost about 20 times
    the arithmetic it dispatches.  A diagonal of shape (modes, n), pencils
    sharing e and w, gives counts of shape (modes, len(shifts)).
    """
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if not np.all(np.isfinite(shifts)):
        raise ConfigurationError("Sturm count shifts must be finite",
                                 shift=float(shifts[~np.isfinite(shifts)][0]))
    rows = np.atleast_2d(np.asarray(d, dtype=float))
    # a zero coupling ahead of row 0 lets one loop take every row: the
    # first pivot is then (d_0 - s w_0) - 0/1, which is d_0 - s w_0 exactly
    e2 = [0.0] + np.square(e).tolist()
    w = np.asarray(w, dtype=float).tolist()
    count = np.array([[_count_below(row, e2, w, s) for s in shifts.tolist()]
                      for row in rows.tolist()],
                     dtype=np.int64).reshape(len(rows), len(shifts))
    return count if np.ndim(d) == 2 else count[0]


def _count_below(d, e2, w, shift):
    # the operations and their order are those of the numpy recursion that
    # the tests keep as reference, so the counts agree bitwise
    piv = 1.0
    count = 0
    for d_i, w_i, c in zip(d, w, e2):
        piv = d_i - shift * w_i - c / piv
        if abs(piv) < _PIVMIN:
            piv = -_PIVMIN
        if piv < 0:
            count += 1
    return count


def lower_bound(d, e, w):
    n = len(d)
    rad = np.zeros(n)
    rad[:-1] += np.abs(e)
    rad[1:] += np.abs(e)
    return float(np.min((d - rad) / w)) - 1.0


def _solve_shifted(d, e, w, shift, rhs):
    """(K - shift*W)^(-1) rhs by LAPACK gtsv, the call that ``solve_banded``
    ends in; called straight, it skips input checks that cost more than the
    solve.  Non-finite input and a singular matrix still raise.
    """
    diag = d - shift * w
    if not (np.isfinite(diag).all() and np.isfinite(e).all()
            and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    if len(diag) == 1:  # the wrapper takes no empty off-diagonals
        return rhs / diag
    x, info = dgtsv(e, diag, e, rhs, overwrite_d=1)[3:]
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def refine_pair(d, e, w, lam):
    """Polish one eigenvalue by inverse iteration with Rayleigh updates.

    Returns (lam, v) with v normalized so that v^T W v = 1.
    """
    s = _start_vector(len(d))
    v = s / np.sqrt(s @ (w * s))
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


@functools.lru_cache(maxsize=64)
def _start_vector(n):
    """The seeded inverse-iteration start vector of length n, read-only."""
    s = np.random.default_rng(12345).standard_normal(n)
    s.flags.writeable = False
    return s


def _tridiag_matvec(d, e, v):
    """K v along the last axis of v, a vector or a stack of vectors."""
    out = d * v
    out[..., :-1] += e * v[..., 1:]
    out[..., 1:] += e * v[..., :-1]
    return out


def eig_pencil(d, e, w, *, lam_max=None, count=None, vectors=False):
    """Low eigenpairs of the pencil (K, W).

    Either ``lam_max`` (all eigenvalues at most lam_max) or ``count``
    (the lowest ``count``) must be given.  A Sturm count on the pencil at
    lam_max picks the eigenvalue indices, LAPACK bisection on the congruent
    tridiagonal computes them, and Rayleigh-quotient inverse iteration
    polishes them; vectors are W-orthonormal up to the grid measure
    (caller applies the grid step when needed).  A pencil whose congruent
    tridiagonal overflows, or on which bisection does not converge, raises
    NumericalError.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    w = np.asarray(w, dtype=float)
    if lam_max is None and count is None:
        raise NumericalError("need lam_max or count")
    if lam_max is not None and not math.isfinite(lam_max):
        raise ConfigurationError("lam_max must be finite", lam_max=lam_max)
    if count is not None:
        try:
            count = operator.index(count)
        except TypeError:
            raise ConfigurationError("count must be an integer",
                                     count=count) from None
        if count < 1:
            raise ConfigurationError("count must be positive", count=count)
    n = len(d)
    congruent = _congruent(d, e, w)
    # the wanted eigenvalues are the lowest nhi, with no count below lo:
    # lower_bound takes lo <= (d_i - r_i) / w_i - 1 for the Gershgorin radii
    # r_i = |e_(i-1)| + |e_i|, so the diagonal d_i - lo w_i >= r_i + w_i of
    # K - lo W exceeds r_i; a symmetric matrix strictly diagonally dominant
    # with a positive diagonal is positive definite, and the count below lo
    # is 0.  lo stays the floor of the check on LAPACK's values.
    lo = lower_bound(d, e, w)
    nhi = n if lam_max is None else int(inertia(d, e, w, [lam_max])[0])
    if count is not None:
        nhi = min(nhi, count)
    vals = np.empty(0)
    if nhi > 0:
        vals = _bisect(*congruent, nhi)
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


def _congruent(d, e, w):
    """Diagonal and subdiagonal of T = W^(-1/2) K W^(-1/2).

    A weight too small for it (a grid reaching far into the tip) leaves
    nothing bisection can solve, and raises NumericalError.
    """
    s = np.sqrt(w)
    with np.errstate(over="ignore"):
        dt, et = d / w, e / (s[:-1] * s[1:])
    if not (np.all(np.isfinite(dt)) and np.all(np.isfinite(et))):
        raise NumericalError("pencil diagonal overflows: the weight is too "
                             "small for the congruent tridiagonal",
                             w_min=float(np.min(w)))
    return dt, et


def _bisect(dt, et, count):
    """The lowest ``count`` eigenvalues of the symmetric tridiagonal (dt, et)
    by LAPACK dstebz to the absolute tolerance ``_ABSTOL``, in ascending
    order; called straight, as ``eigh_tridiagonal`` ends in the same call
    after input checks.  A bisection that does not converge raises
    NumericalError.
    """
    if len(dt) == 1:  # the wrapper takes no empty off-diagonal
        return dt.copy()
    m, vals = _dstebz(dt, et, 2, 0.0, 0.0, 1, count, _ABSTOL)
    return vals[:m]


def _dstebz(d, e, kind, vl, vu, il, iu, tol):
    """(count, eigenvalues) of one LAPACK dstebz call on the symmetric
    tridiagonal (d, e), entire matrix order: range ``kind`` 1 takes the
    eigenvalues in (vl, vu], 2 those of index il..iu, to the absolute
    tolerance ``tol`` (0 is LAPACK's default).  A bisection that does not
    converge raises NumericalError."""
    m, vals, _, _, info = dstebz(d, e, kind, vl, vu, il, iu, tol, "E")
    if info != 0:
        raise NumericalError("LAPACK bisection did not converge", info=int(info))
    return int(m), vals


def _lowest_eigenvalue(d, e, w):
    """The lowest eigenvalue of the pencil (K, W), by bisection alone: no
    Sturm count picks it and no inverse iteration polishes it."""
    return float(_bisect(*_congruent(d, e, w), 1)[0])


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


def _series_product(a, b, out):
    """a b for power series truncated like a (coefficients along axis 0);
    ``out`` must not overlap a or b."""
    np.multiply(a[0], b, out=out)
    for j in range(1, len(a)):
        out[j:] += a[j] * b[:len(a) - j]
    return out


def trace_weighted_resolvent(d, e, w, lams, bdiag=None, N=1):
    """Tr[B ((K - lam W)^(-1) W)^N] = Tr B (A - lam)^(-N) for complex lam.

    B is the diagonal multiplier ``bdiag`` (identity when None) and
    A = W^(-1) K.  Since (A - lam - eps)^(-1) has the Taylor coefficients
    (A - lam)^(-k-1) in eps, the wanted trace is the eps^(N-1) coefficient
    of Tr B (A - lam - eps)^(-1) = -d/dz log det(K - (lam + eps) W - z B W)
    at z = 0.  The determinant is the product of the forward pivots
    f_i = t_i - e_(i-1)^2 / f_(i-1) of the top rows 0..k-1, k = ceil(n/2),
    the backward pivots g_i = t_i - e_i^2 / g_(i+1) of the bottom rows
    n-1..k and the join J = 1 - e_(k-1)^2 / (f_(k-1) g_k), of
    t_i = d_i - (lam + eps) w_i - z b_i w_i.  Each pivot is propagated as
    a power series in eps truncated after eps^(N-1), with its first
    z-derivative, starting from t_i = [d_i - lam w_i, -w_i, 0, ...], so
    the coefficient is exact: no derivative is taken numerically.

    ``d`` of shape (modes, n) holds one diagonal per mode, for pencils
    that share e and w, and ``lams`` is 1-D; the result has shape
    (modes, len(lams)).  Every (mode, shift) pair is a lane, and each of
    the ceil(n/2) steps of the sweep takes one row from either end for all
    lanes at once.  A lane costs O(n N^2); the sweep stores one (n, lanes)
    table of the t_i and O(N lanes) of state.
    """
    N = operator.index(N)
    if N < 1:
        raise ConfigurationError("resolvent power must be positive", N=N)
    lams = np.asarray(lams, dtype=complex)
    d = np.asarray(d, dtype=float)
    n_modes, n = d.shape
    w = np.asarray(w, dtype=float)
    # the trace is linear in B: scaled by a power of two to unit size, B
    # stays out of the subnormal range, where the z-derivative's products
    # would lose digits, and the scale comes back in one rounding at the end
    scale = 0
    bw = w
    if bdiag is not None:
        scale = int(np.frexp(np.max(np.abs(bdiag), initial=0.0))[1])
        bw = w * np.ldexp(bdiag, -scale)
    # sweep order: rows 0, n-1, 1, n-2, ..., then the middle row of odd n;
    # a row's coupling to the row before it on its side is e_(i-1)^2 from
    # the top (even positions) and e_i^2 from the bottom (odd positions)
    half = n // 2
    top = np.arange(half)
    rows = np.full(n, half)
    rows[:2 * half] = np.column_stack([top, n - 1 - top]).ravel()
    c = np.concatenate([[0.0], np.square(e), [0.0]])
    couple = c[rows + np.arange(n) % 2]
    # complex (n, 1) columns, which numpy broadcasts faster than real ones
    col = lambda v: np.asarray(v, dtype=complex)[:, None]
    t = np.empty((n, n_modes, len(lams)), dtype=complex)
    np.multiply(w[rows, None, None], -lams, out=t)
    t += d.T[rows, :, None]
    out = _series_pivot_trace(t.reshape(n, -1), col(couple), col(w[rows]),
                              col(bw[rows]), c[n - half], N)
    return np.ldexp(out.view(float), scale).view(complex).reshape(n_modes, -1)


def _series_pivot_trace(t, couple, w, bw, join, N):
    # t[p], couple[p], w[p] and bw[p] belong to the row at sweep position
    # p, and join = e_(k-1)^2.  The state s[0] = rho = -1/f and
    # s[1] = chi = d rho/dz of the last row taken on each side (axis 2:
    # top, bottom) give the next pivot f = t + c rho and its z-derivative
    # phi = -b w + c chi; then psi = rho phi = -d log f/dz adds into the
    # trace, and chi = rho psi
    n, lanes = t.shape
    s = np.zeros((2, N, 2, lanes), dtype=complex)
    fphi = np.empty_like(s)
    psi = np.empty((N, 2, lanes), dtype=complex)
    acc = np.zeros((2, lanes), dtype=complex)
    for p in range(0, n, 2):
        # two rows a step; the middle row of odd n is the top's alone
        m = min(2, n - p)
        state, f, ps = s[:, :, :m], fphi[:, :, :m], psi[:, :m]
        np.multiply(state, couple[p:p + m], out=f)
        f[0, 0] += t[p:p + m]
        if N > 1:
            f[0, 1] -= w[p:p + m]
        f[1, 0] -= bw[p:p + m]
        rho = _series_neg_reciprocal(f[0], state[0])
        _series_product(rho, f[1], ps)
        acc[:m] += ps[N - 1]
        _series_product(rho, ps, state[1])
    acc = acc.sum(axis=0)
    if n > 1:
        # -d log J/dz with J = 1 - join rho sigma, rho of the top's last row
        # and sigma = -1/g of the bottom's
        (rho, chi), (sigma, chi_g) = s[:, :, 0], s[:, :, 1]
        new = lambda: np.empty_like(rho)
        j = -join * _series_product(rho, sigma, new())
        j[0] += 1.0
        neg_inv = _series_neg_reciprocal(j, new())
        # dJ/dz = -join dj; the eps^(N-1) coefficient of -dJ/dz / J
        dj = _series_product(chi, sigma, new())
        dj += _series_product(rho, chi_g, new())
        acc -= join * np.sum(dj * neg_inv[::-1], axis=0)
    return acc
