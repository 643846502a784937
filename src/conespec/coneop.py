"""Model cone operators on (0, 1] x S^1 and their desk-scale realizations.

An operator here acts per Fourier mode m of the circle as

    A_m = x^(-mu) p_m(x D_x; x),

with p_m a polynomial in the dilation generator whose coefficients may
depend smoothly on x.  The Mellin convention is fixed once and for all:
trial functions are x^(i sigma), so x D_x acts as multiplication by
sigma and the indicial polynomial of the Laplace type example is
sigma^2 + m^2 + a^2 (its general term (n-2)^2/4 vanishes for the circle,
n = 2).  (The equivalent convention with trial functions x^z is related
by z = i sigma; weight lines Im z = -alpha become Im sigma = -alpha here.)

Discretization uses the logarithmic variable s = log x on a uniform grid
with Dirichlet cuts at both ends; the x^(-mu) factor becomes the diagonal
weight e^(mu s) of a generalized eigenproblem, solved by pencil bisection
(see pencil.py).  The natural Hilbert space is x^(-mu/2) L^2_b, whose
norm is the weighted grid norm used throughout.
"""

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc

from . import pencil
from .errors import (ConfigurationError, InsufficientSpectrumError,
                     NumericalError, RootFindingError)


# ---------------------------------------------------------------------------
# operators


def _classes(keyed):
    """Modes grouped by bitwise equal keys, from (mode, key) pairs in mode
    order.  Every solver here is deterministic, so the modes of a class
    share one solve (m and -m, when the coefficients depend on m^2)."""
    classes = {}
    for m, key in keyed:
        classes.setdefault(key, []).append(m)
    return list(classes.values())


class ConeOperator:
    """Weighted polynomial in the dilation generator, one polynomial per mode.

    Parameters
    ----------
    mu : positive float, weight order (the x^(-mu) prefactor).
    modes : (mmin, mmax) inclusive mode range.
    coeffs : callable (m, x) -> coefficient list [c0, c1, ..., cdeg], smooth
        on [0, 1]; its value at x = 0 is the conormal data.
    x_dependent : False reads the rule at x = 0 only (frozen coefficients).
    alpha : weight line of the intended realization.
    """

    def __init__(self, mu, modes, coeffs, *, x_dependent=False, alpha=0.0,
                 label="cone-operator"):
        if mu <= 0:
            raise ConfigurationError("weight order mu must be positive", mu=mu)
        self.mu = float(mu)
        self.modes = (int(modes[0]), int(modes[1]))
        if self.modes[0] > self.modes[1]:
            raise ConfigurationError("empty mode range", modes=modes)
        self._rule = coeffs
        self.is_frozen = not x_dependent
        self.alpha = float(alpha)
        self.label = label
        self._tip = {}
        self._validate()

    def _validate(self):
        for m in self.mode_list():
            base = self.indicial(m)
            if base.ndim != 1 or len(base) < 1:
                raise ConfigurationError("indicial coefficients must be a flat list",
                                         mode=m)
            if abs(base[-1]) < 1e-8:
                raise ConfigurationError(
                    "leading indicial coefficient degenerates (not b-elliptic)",
                    mode=m, leading=complex(base[-1]))

    def mode_list(self):
        return list(range(self.modes[0], self.modes[1] + 1))

    def mode_classes(self):
        """Modes with bitwise equal indicial coefficients, one list per
        class, in mode order: each class poses one conormal problem."""
        return _classes((m, self.indicial(m).tobytes())
                        for m in self.mode_list())

    def indicial(self, m):
        """The conormal coefficients [c0(0), ..., cdeg(0)] of mode m, a
        read-only complex array."""
        if m not in self._tip:
            tip = np.array(self._rule(m, 0.0), dtype=complex)
            tip.flags.writeable = False
            self._tip[m] = tip
        return self._tip[m]

    def coeffs(self, m, x):
        """Coefficient values [c0(x), ..., cdeg(x)] on the (array) x."""
        x = np.asarray(x, dtype=float)
        values = self.indicial(m) if self.is_frozen else self._rule(m, x)
        return [np.broadcast_to(np.asarray(c, dtype=complex), x.shape)
                for c in values]

    def indicial_poly(self, m):
        return np.polynomial.Polynomial(self.indicial(m))

    def frozen(self):
        """The dilation-invariant model obtained by freezing coefficients at x=0."""
        if self.is_frozen:
            return self
        return ConeOperator(self.mu, self.modes, self._rule,
                            alpha=self.alpha, label=self.label + ":frozen")

    def with_modes(self, mode_cap):
        """Rematerialize the same coefficient rule on a wider mode window."""
        cap = int(mode_cap)
        return ConeOperator(self.mu, (-cap, cap), self._rule,
                            x_dependent=not self.is_frozen, alpha=self.alpha,
                            label=self.label)


def laplace_type(a, mode_cap=8, alpha=1.0):
    """Laplace type model on the circle: p_m(sigma) = sigma^2 + m^2 + a^2, mu = 2."""
    shift = a * a
    return ConeOperator(2.0, (-mode_cap, mode_cap),
                        lambda m, x: [m * m + shift, 0.0, 1.0], alpha=alpha,
                        label=f"laplace(a={a},n=2)")


def perturbed_laplace(a, mode_cap=8, alpha=1.0, strength=0.5):
    """Laplace type model with a bounded zeroth order coefficient in x.

    The zero order coefficient becomes m^2 + a^2 + strength * x * cos(1.3 x);
    the conormal data are unchanged.
    """
    shift = a * a

    def coeffs(m, x):
        return [m * m + shift + strength * x * np.cos(1.3 * x), 0.0, 1.0]

    return ConeOperator(2.0, (-mode_cap, mode_cap), coeffs, x_dependent=True,
                        alpha=alpha, label=f"laplace-perturbed(a={a})")


# ---------------------------------------------------------------------------
# conormal symbol and boundary spectrum


def conormal_symbol(op):
    """Per-mode indicial polynomials, from the x -> 0 coefficients only."""
    return {m: op.indicial_poly(m) for m in op.mode_list()}


@dataclass(frozen=True)
class PoleEntry:
    sigma: complex
    order: int
    mode: int


@dataclass
class BoundarySpectrum:
    """Non-invertibility points of the indicial family, with orders."""

    poles: list
    strip: float

    def min_abs_im(self):
        if not self.poles:
            return math.inf
        return min(abs(p.sigma.imag) for p in self.poles)

    def min_dist_to_line(self, level):
        """Distance of the spectrum to the horizontal line Im sigma = level."""
        if not self.poles:
            return math.inf
        return min(abs(p.sigma.imag - level) for p in self.poles)

    def to_csv_rows(self):
        out = [("mode", "sigma_re", "sigma_im", "order")]
        for p in self.poles:
            out.append((p.mode, f"{p.sigma.real:.16e}", f"{p.sigma.imag:.16e}", p.order))
        return out


def _polish_root(coeffs, z):
    # four Newton steps on p(z); coeffs ascending
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    for _ in range(4):
        dz = dp(z)
        if abs(dz) < 1e-14:
            break
        z = z - p(z) / dz
    return z


def boundary_spectrum(op, strip):
    """All indicial roots sigma with |Im sigma| <= strip, with multiplicities.

    Roots are found once per mode class by the companion method, polished
    by Newton where simple, and clustered into multiplicities; each mode of
    the class gets its own entries.  Nonconvergence is reported with the
    offending mode and residual.
    """
    poles = []
    for modes in op.mode_classes():
        m = modes[0]
        coeffs = op.indicial(m)
        if len(coeffs) == 1:
            continue  # constant invertible family, no roots
        roots = np.polynomial.Polynomial(coeffs).roots()
        scale = max(1.0, float(np.max(np.abs(roots))) if len(roots) else 1.0)
        # cluster into multiplicities
        used = np.zeros(len(roots), dtype=bool)
        clusters = []
        for i, r in enumerate(roots):
            if used[i]:
                continue
            group = [r]
            used[i] = True
            for jdx in range(i + 1, len(roots)):
                if not used[jdx] and abs(roots[jdx] - r) < 1e-6 * scale:
                    group.append(roots[jdx])
                    used[jdx] = True
            clusters.append(group)
        p = np.polynomial.Polynomial(coeffs)
        for group in clusters:
            center = complex(np.mean(group))
            if len(group) == 1:
                center = complex(_polish_root(coeffs, center))
            resid = abs(p(center))
            tol = 1e-9 * (1.0 + np.sum(np.abs(coeffs)) * (1.0 + abs(center)) ** (len(coeffs) - 1))
            if resid > tol:
                raise RootFindingError("indicial root failed to converge",
                                       mode=m, residual=resid, root=center)
            if abs(center.imag) <= strip + 1e-12:
                poles.extend(PoleEntry(center, len(group), k) for k in modes)
    poles.sort(key=lambda p: (p.mode, p.sigma.real, p.sigma.imag))
    return BoundarySpectrum(poles, float(strip))


# ---------------------------------------------------------------------------
# discretization


@dataclass
class Discretization:
    """Uniform log-grid realization with Dirichlet cuts at both ends."""

    op: ConeOperator
    s_min: float
    s_max: float
    npoints: int
    h: float = field(init=False)
    s: np.ndarray = field(init=False)
    x: np.ndarray = field(init=False)
    w: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.npoints
        self.h = (self.s_max - self.s_min) / (n + 1)
        self.s = self.s_min + self.h * np.arange(1, n + 1)
        self.x = np.exp(self.s)
        self.w = np.exp(self.op.mu * self.s)
        self._cache = {}

    def mode_list(self):
        return self.op.mode_list()

    def mode_classes(self):
        """Modes with bitwise equal tridiagonals (d, e), one list per class,
        in mode order."""
        return _classes((m, tuple(a.tobytes() for a in self.matrix(m)))
                        for m in self.mode_list())

    def matrix(self, m):
        """Tridiagonal data (diagonal, subdiagonal) of the conjugated operator.

        The grid carries c0(x) and a constant c2: a coeff[1] or coeff[2]
        that differs from its conormal value on the grid is refused."""
        if m not in self._cache:
            tip = self.op.indicial(m)
            c = self.op.coeffs(m, self.x)
            for j in (1, 2):
                if np.any(c[j] != tip[j]):
                    raise ConfigurationError(
                        "grid realization requires a coefficient constant in x",
                        key=f"coeff[{j}]", mode=m)
            c0 = np.real_if_close(c[0], tol=1e6)
            c2 = tip[2].real
            d = (2.0 * c2 / self.h ** 2) + np.asarray(c0, dtype=float)
            e = np.full(self.npoints - 1, -c2 / self.h ** 2)
            self._cache[m] = (d, e)
        return self._cache[m]

    def apply(self, m, u):
        """A u = x^(-mu) K u on the grid."""
        return pencil._tridiag_matvec(*self.matrix(m), u) / self.w

    def inner_w(self, u, v):
        return self.h * np.sum(np.conjugate(u) * v * self.w)

    def norm_w(self, u):
        return math.sqrt(abs(self.inner_w(u, u)))


# 50 times the largest grid of any shipped config, test or benchmark (2000)
_MAX_NPOINTS = 100_000


def _check_degree2(op):
    for m in op.mode_list():
        base = op.indicial(m)
        if len(base) != 3:
            raise ConfigurationError(
                "grid realization supports degree 2 polynomials", mode=m)
        if abs(base[1]) > 1e-14:
            raise ConfigurationError(
                "grid realization requires a vanishing first order coefficient",
                mode=m)
        if abs(base[2].imag) > 1e-14 or base[2].real <= 0:
            raise ConfigurationError(
                "grid realization requires a positive real leading coefficient",
                mode=m)


def discretize(op, s_min, npoints):
    """Per-mode tridiagonal realization of -c2 d^2/ds^2 + c0(m, e^s).

    The x^(-mu) factor is carried by the diagonal weight e^(mu s) of the
    generalized problem K u = lambda W u.  Second order centered
    differences on [s_min, 0], Dirichlet conditions at both ends.  A grid
    over ``_MAX_NPOINTS`` points, or whose weight e^(mu s_min) is not a
    normal double, is refused before any array is allocated.
    """
    if not s_min < -5 or math.exp(op.mu * s_min) < np.finfo(float).tiny:
        raise ConfigurationError("s_min must lie below -5, with a normal "
                                 "weight e^(mu s_min)", key="s_min", got=s_min)
    if not 100 <= npoints <= _MAX_NPOINTS:
        raise ConfigurationError(f"npoints must lie in [100, {_MAX_NPOINTS}]",
                                 key="npoints", got=npoints)
    _check_degree2(op)
    return Discretization(op, float(s_min), 0.0, int(npoints))


def discretize_halfline(op, s_min, s_max, npoints):
    """Truncation of the dilation-invariant model on a two-sided log window."""
    _check_degree2(op.frozen())
    return Discretization(op.frozen(), float(s_min), float(s_max), int(npoints))


def eigenvalues(disc, m, *, lam_max=None, count=None, vectors=False):
    """Eigenpairs of one mode of the weighted problem, W-orthonormal vectors."""
    d, e = disc.matrix(m)
    out = pencil.eig_pencil(d, e, disc.w, lam_max=lam_max, count=count,
                            vectors=vectors)
    if vectors:
        vals, vecs = out
        vecs = vecs / math.sqrt(disc.h)  # v^T W v * h = 1
        return vals, vecs
    return out


def resolvent_solve(disc, m, lam, rhs):
    """Solve (A - lam) u = rhs in the weighted formulation (K - lam W) u = W rhs.

    Raises NumericalError carrying lam if the shifted system is singular or
    the relative residual exceeds 1e-10 (useful for locating spectrum).
    """
    from scipy.linalg import solve_banded
    d, e = disc.matrix(m)
    diag = d - lam * disc.w
    ab = np.zeros((3, disc.npoints), dtype=complex)
    ab[0, 1:] = e
    ab[1, :] = diag
    ab[2, :-1] = e
    b = disc.w * np.asarray(rhs)
    try:
        u = solve_banded((1, 1), ab, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("shifted system is singular", lam=complex(lam)) from exc
    resid = pencil._tridiag_matvec(diag, e, u) - b
    rel = np.linalg.norm(resid) / max(np.linalg.norm(b), 1e-300)
    if not np.isfinite(rel) or rel > 1e-10:
        raise NumericalError("resolvent solve residual too large",
                             lam=complex(lam), residual=float(rel))
    return u


# ---------------------------------------------------------------------------
# dilation action on grid functions


def kappa_scale(u, rho, s_grid):
    """Pullback (kappa_rho u)(x) = u(rho x) on the log grid: a shift in s.

    Linear interpolation at fractional shifts; values outside the grid are
    zero (Dirichlet).  Emits a warning if the shift pushes more than 1e-12
    of the norm past an end of the grid.
    """
    if rho <= 0:
        raise ConfigurationError("scaling factor must be positive", rho=rho)
    s_grid = np.asarray(s_grid)
    shift = math.log(rho)
    target = s_grid + shift
    u = np.asarray(u)
    lost = u[(target < s_grid[0] - 1e-12) | (target > s_grid[-1] + 1e-12)]
    total = np.linalg.norm(u)
    if total > 0 and np.linalg.norm(lost) > 1e-12 * total:
        warnings.warn("kappa_scale: support truncated at the grid end",
                      RuntimeWarning, stacklevel=2)
    if np.iscomplexobj(u):
        re = np.interp(target, s_grid, u.real, left=0.0, right=0.0)
        im = np.interp(target, s_grid, u.imag, left=0.0, right=0.0)
        return re + 1j * im
    return np.interp(target, s_grid, u, left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# Bessel oracle


_ZERO_STEP = 1.5       # scan step, under half the least zero spacing 3.07
_SCAN_BLOCK = 2 ** 16  # scan points per block of sweeps
_HALLEY_ITERATIONS = 40
# sweeps over at most this many lanes run one float loop per lane: numpy's
# per-step dispatch pays only over more lanes than that
_SCALAR_LANES = 32


def bessel_zeros(nu, count=None, j_max=None):
    """Positive zeros of J_nu for one order, or for a 1-D array of orders.

    Returns the first ``count`` zeros, or all zeros at most ``j_max``: one
    array for a scalar ``nu``, a list with one array per order otherwise.
    An order's zeros do not depend on the other orders of the call.

    No Bessel function is evaluated.  At a point x the ratios
    R_k = J_(nu+k)(x) / J_(nu+k-1)(x), k = K, ..., 1, come from one
    backward sweep R_k = 1 / (2 (nu + k) / x - R_(k+1)) started from
    R_(K+1) = 0 (Gautschi, SIAM Review 9, 1967).  The sweep gives the Sturm
    count N(nu, x), the number of zeros of J_nu below x, as the number of
    k with R_k <= 0, and through R_1 the Halley step at x.

    Count identity.  For x not a zero, sign J_nu(x) = (-1)^N(nu, x), the
    zeros being simple.  The interlacing j_(nu,k) < j_(nu+1,k) < j_(nu,k+1)
    (Watson, Treatise, 15.22) gives N(nu+1, x) = N(nu, x) or N(nu, x) - 1,
    and J_mu(x) > 0 for mu >= x, since j_(mu,1) > mu.  So from the start
    order down to nu the count grows by one exactly where J changes sign,
    that is where R_k < 0.  An exact zero J_(nu+k)(x) = 0 shows as
    R_(k+1) = inf followed by R_k = -0.0, and R_k <= 0 counts its one sign
    change once; R_1 = inf means J_nu(x) = 0.  The truncated start adds no
    false count: for nu + k >= x, R_(k+1) in [0, 1) gives R_k in (0, 1).

    Depth.  Each lane starts at its own order nu + K >= x + T, with
    T = 4 + 8.25 x^(1/3), so an order's zeros stay independent of the
    other orders of a call; the iterates inside a bracket take the depth
    of its right end, which is at least their own.  For mu >= x the true
    ratio and the truncated one both lie in [0, e^-a(mu)], cosh a(mu) =
    mu / x: that is the smaller fixed point of the map r -> 1 / (2 mu / x
    - r), which the map keeps, and the true ratio is the limit of
    truncated sweeps.  The map moves its output by R R' times the change
    of its input, so the start error reaches the first order past x
    damped by at least P = exp(-2 sum_(i=0..floor(T)) a(x + T - i)).  To
    leading order P = exp(-(4 sqrt(2) / 3) T^(3/2) / sqrt(x)), and
    P <= 2^-64 for every x (a test sums it on a grid of x).  It enters R_1
    as a multiple eps ~ x^(1/3) P of the second solution Y_nu, which moves
    a zero by about P relative: far below roundoff.  Doubling the depth
    changes no bit (tested); the depth x + 10 + 3 x^(1/3) moved zeros of a
    heat-size call by up to 1.1e-10.

    Scan.  Order nu is sampled at start + step i, i = 0, 1, ..., with
    start = max(nu, 1e-6) and step = 1.5.  Two adjacent samples whose
    counts differ bracket the zero whose index is the right count.  The
    difference is one, and any other raises RootFindingError:

    * J_nu has no zero in (0, nu], since j_(nu,1) > nu.
    * u = sqrt(x) J_nu solves u'' + q u = 0 with q = 1 - (nu^2 - 1/4)/x^2.
      Past the first zero, x >= j_(nu,1) >= j_(0,1), so q <= Q = 1 +
      1/(4 j_(0,1)^2) for every nu >= 0.  By Sturm comparison with
      v'' + Q v = 0, consecutive zeros are at least pi / sqrt(Q) = 3.07
      apart, so a step of 1.5 never holds two zeros.

    With ``j_max`` an order is sampled up to one step past
    start + step ceil((j_max - start) / step), and orders nu >= j_max give
    no zeros.  With ``count`` the same grid runs up to 2 nu + 3.7 count + 1,
    which lies past the count-th zero: from X = max(2 nu, start) on,
    q >= 3/4, so every interval of length pi / sqrt(3/4) = 3.63 holds a zero
    (Sturm comparison again).  Both paths share the grid formula, hence the
    brackets and the zeros.

    Refinement.  The brackets of a block are refined together by Halley's
    iteration z -> z - u / (1 - u v / 2), with u = J_nu / J_nu' =
    1 / (nu / z - R_1) and v = J_nu'' / J_nu' = -1/z - (1 - nu^2/z^2) u
    from Bessel's equation.  It starts from the prediction of the bracket
    end with the smaller |u|, taken from the scan's own R_1.  The zero of
    index k lies right of z iff N(nu, z) < k, so every iterate shrinks its
    bracket, and a step that leaves the bracket is replaced by bisection.
    A zero is accepted once its last step is at most 1e-13 + 8.9e-16 |z|
    (brentq's xtol and rtol) or R_1 = inf, and drops out of the active set.
    A bracket still active after 40 iterations raises RootFindingError with
    its order and interval.

    Lanes.  A sweep over more than 32 (order, point) lanes runs as numpy
    ufuncs, in place, on the lanes sorted by depth, so the lanes still
    active form a prefix.  A smaller sweep, such as one Halley iteration
    over a few brackets, runs one float loop per lane, so it dispatches no
    numpy call per step of the recurrence.  Both ways do the same IEEE
    operations in the same order and agree bitwise (tested).  The Halley
    steps themselves always run on numpy arrays, one call per iteration.
    """
    orders = np.asarray(nu, dtype=float)
    if orders.ndim > 1:
        raise ConfigurationError("orders must be a scalar or a 1-D array",
                                 shape=orders.shape)
    flat = np.atleast_1d(orders)
    if not np.all(np.isfinite(flat)):
        raise ConfigurationError("order nu must be finite",
                                 nu=float(flat[~np.isfinite(flat)][0]))
    if np.any(flat < 0):
        raise ConfigurationError("order nu must be nonnegative",
                                 nu=float(flat[flat < 0][0]))
    if (count is None) == (j_max is None):
        raise ConfigurationError("need exactly one of count and j_max")
    if count is not None:
        try:
            count = operator.index(count)
        except TypeError:
            raise ConfigurationError("count must be an integer",
                                     count=count) from None
        if count < 1:
            raise ConfigurationError("count must be positive", count=count)
        limit = 2.0 * flat + 3.7 * count + 1.0
    else:
        if not math.isfinite(j_max):
            raise ConfigurationError("j_max must be finite", j_max=j_max)
        limit = np.full(len(flat), float(j_max))
    lanes, zeros = _scan_zeros(flat, limit)
    counts = np.bincount(lanes, minlength=len(flat))
    per_order = [zeros[end - k:end]
                 for k, end in zip(counts, np.cumsum(counts))]
    if count is not None:
        if np.any(counts < count):
            raise RootFindingError("zero scan ended short of count",
                                   nu=float(flat[counts < count][0]),
                                   count=count)
        per_order = [z[:count] for z in per_order]
    else:
        per_order = [z[z <= j_max] for z in per_order]
    return per_order[0] if orders.ndim == 0 else per_order


def _scan_zeros(orders, limit):
    """Zeros of J_nu bracketed on start + step i up to one step past each
    order's limit, as (order index, zero) arrays in scan order."""
    start = np.maximum(orders, 1e-6)
    points = np.where(start < limit, np.ceil((limit - start) / _ZERO_STEP) + 2,
                      0).astype(np.int64)
    ends = np.cumsum(points)
    total = int(ends[-1]) if len(ends) else 0
    lanes, zeros = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for p0 in range(0, total - 1, _SCAN_BLOCK):
        # the block's last point is the next block's first: every adjacent
        # pair of points is tested once
        p = np.arange(p0, min(p0 + _SCAN_BLOCK + 1, total))
        lane = np.searchsorted(ends, p, side="right")
        x = start[lane] + _ZERO_STEP * (p - (ends[lane] - points[lane]))
        nu = orders[lane]
        depth = _sweep_depth(nu, x)
        n, r1 = _ratio_sweep(nu, x, depth)
        jump = n[1:] - n[:-1]
        i = np.flatnonzero((lane[:-1] == lane[1:]) & (jump != 0)
                           & (x[:-1] <= limit[lane[:-1]]))
        bad = i[jump[i] != 1]
        if len(bad):
            k = bad[0]
            raise RootFindingError("Sturm counts of one scan step differ by "
                                   "other than one", nu=float(nu[k]),
                                   interval=(float(x[k]), float(x[k + 1])),
                                   counts=(int(n[k]), int(n[k + 1])))
        lanes.append(lane[i])
        # a bracket's iterates take the depth of its right end
        zeros.append(_halley_zeros(nu[i], n[i + 1], x[i], x[i + 1],
                                   r1[i], r1[i + 1], depth[i + 1]))
    return np.concatenate(lanes), np.concatenate(zeros)


def _sweep_depth(nu, x):
    """Sweep length K per lane, with start order nu + K >= x + T(x) and
    T(x) = 4 + 8.25 x^(1/3); K >= 4, since x >= nu."""
    return np.ceil(x + 4.0 + 8.25 * np.cbrt(x) - nu).astype(np.int64)


def _ratio_sweep(nu, x, depth):
    """Sturm counts N(nu, x) and first ratios R_1 = J_(nu+1)(x) / J_nu(x),
    one lane per (nu, x, depth); R_1 = inf where J_nu(x) = 0 in floating
    point."""
    half = 0.5 * x
    if len(nu) <= _SCALAR_LANES:
        swept = [_float_sweep(*lane) for lane in
                 zip(nu.tolist(), half.tolist(), depth.tolist())]
        return (np.array([c for c, _ in swept], dtype=np.int64),
                np.array([r for _, r in swept], dtype=float))
    order = np.argsort(-depth, kind="stable")
    nu, half, depth = nu[order], half[order], depth[order]
    # the lanes with depth >= k are the first width[k - 1]
    width = np.searchsorted(-depth, -np.arange(1, depth[0] + 1), side="right")
    r = np.zeros(len(nu))
    c = np.empty(len(nu))
    neg = np.zeros(len(nu), dtype=np.int64)
    sign = np.empty(len(nu), dtype=bool)
    with np.errstate(divide="ignore"):  # 1 / +0.0 = inf: an exact zero
        for k in range(int(depth[0]), 0, -1):
            w = width[k - 1]
            ck, rk = c[:w], r[:w]
            np.add(nu[:w], k, out=ck)
            np.divide(ck, half[:w], out=ck)
            np.subtract(ck, rk, out=rk)
            np.divide(1.0, rk, out=rk)
            np.less_equal(rk, 0.0, out=sign[:w])
            neg[:w] += sign[:w]
    counts, r1 = np.empty_like(neg), np.empty_like(r)
    counts[order], r1[order] = neg, r
    return counts, r1


def _float_sweep(nu, half, depth):
    """One lane of ``_ratio_sweep`` on Python floats: (count, R_1)."""
    r, count = 0.0, 0
    for k in range(depth, 0, -1):
        d = (nu + k) / half - r
        r = 1.0 / d if d else math.inf  # d = +0.0: an exact zero
        if r <= 0.0:
            count += 1
    return count, r


def _halley_step(nu, x, r1):
    """Halley's next iterate for J_nu at x from R_1, and u = J_nu / J_nu'."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = nu / x
        u = 1.0 / (q - r1)
        v = -1.0 / x - (1.0 - q * q) * u
        return x - u / (1.0 - 0.5 * u * v), u


def _halley_zeros(nu, k, a, b, ra, rb, depth):
    """The k-th zero of J_nu in each bracket [a, b], with R_1 = ra at a and
    rb at b, by bracketed Halley iteration."""
    a, b = a.copy(), b.copy()
    from_a, ua = _halley_step(nu, a, ra)
    from_b, ub = _halley_step(nu, b, rb)
    x = np.where(np.abs(ua) <= np.abs(ub), from_a, from_b)
    outside = ~((x >= a) & (x <= b))
    x[outside] = 0.5 * (a[outside] + b[outside])
    live = np.arange(len(x))
    for _ in range(_HALLEY_ITERATIONS):
        if not len(live):
            return x
        n, z = nu[live], x[live]
        count, r1 = _ratio_sweep(n, z, depth[live])
        right = count < k[live]  # the zero lies right of z
        lo = np.where(right, z, a[live])
        hi = np.where(right, b[live], z)
        a[live], b[live] = lo, hi
        new, _ = _halley_step(n, z, r1)
        outside = ~((new >= lo) & (new <= hi))
        new[outside] = 0.5 * (lo[outside] + hi[outside])
        hit = r1 == math.inf  # J_nu(z) = 0 in floating point
        new[hit] = z[hit]
        x[live] = new
        done = hit | (np.abs(new - z) <= 1e-13 + 8.9e-16 * np.abs(new))
        live = live[~done]
    if len(live):
        i = live[0]
        raise RootFindingError("Halley iteration did not converge",
                               nu=float(nu[i]),
                               interval=(float(a[i]), float(b[i])))
    return x


def bessel_oracle(nu, count):
    """Frozen-mode eigenvalue oracle: squares of the first ``count`` zeros of J_nu.

    Exact spectrum of x^(-2)((x D_x)^2 + nu^2) on (0, 1] with the decaying
    solution at the tip and a Dirichlet condition at x = 1.
    """
    z = bessel_zeros(nu, count=count)
    return z * z


# ---------------------------------------------------------------------------
# spectral data


@dataclass
class SpectralData:
    """Per-mode eigenvalue lists with truncation metadata.

    ``eigs[m]`` holds every eigenvalue of mode m up to ``lam_max``
    (ascending).  ``weyl[m]`` is the linear fit sqrt(lam_k) ~ c1*(k+1)+c0
    used for tail bounds; ``extra_nus`` are square roots of the lowest
    eigenvalue bound of the modes beyond the materialized range.  The sums
    read one read-only array of all eigenvalues and one tail row per mode.
    """

    eigs: dict
    lam_max: float
    provenance: str
    meta: dict
    weyl: dict
    extra_nus: np.ndarray

    def __post_init__(self):
        modes = self.modes()
        self._lams = np.concatenate([np.empty(0)] + [self.eigs[m] for m in modes])
        self._lams.flags.writeable = False
        # tail row (c1, edge) of a mode: its missing eigenvalues continue the
        # Weyl fit (slope at least 1e-3) from k = n + 1 on, above lam_max
        c1, c0, n = np.reshape([(*self.weyl.get(m, (math.pi, 0.0)),
                                 len(self.eigs[m])) for m in modes], (-1, 3)).T
        self._c1 = np.maximum(c1, 1e-3)
        self._edge = np.maximum(self._c1 * (n + 1) + c0, math.sqrt(self.lam_max))

    def validate(self):
        for m, lam in self.eigs.items():
            if len(lam) and float(np.min(lam)) <= 0:
                raise NumericalError("nonpositive eigenvalue in positive model",
                                     mode=m)
            if len(lam) >= 12 and self.provenance == "oracle":
                # counting-function sanity: lam_k grows quadratically in k
                # (finite-difference spectra may saturate near their top and
                # are checked against the oracle instead)
                k = np.arange(1, len(lam) + 1, dtype=float)
                ratio = lam / (k * k)
                half = len(lam) // 2
                drift = np.max(ratio[half:]) / max(np.min(ratio[half:]), 1e-300)
                if drift > 4.0:
                    raise NumericalError("eigenvalue growth violates the "
                                         "quadratic counting law", mode=m,
                                         drift=float(drift))
        return self

    def modes(self):
        return sorted(self.eigs)

    def count(self):
        return len(self._lams)

    def min_eig(self):
        if not len(self._lams):
            raise InsufficientSpectrumError("no eigenvalues materialized")
        return float(np.min(self._lams))

    def all_eigs(self):
        return self._lams

    def eig_sums(self, f, params):
        """Per p of 1-D ``params``, the sum of f(p, lam) over the eigenvalues."""
        step = max(1, 2 ** 14 // max(len(self._lams), 1))  # <= 2^14 elements
        return np.concatenate([np.empty(0)] + [
            np.sum(f(params[i:i + step, None], self._lams), axis=1)
            for i in range(0, len(params), step)])

    # -- tail machinery -----------------------------------------------------

    def heat_sum(self, t):
        """(sum of exp(-t lam), upper tail bound) at a time t or 1-D array of times.

        A scalar t gives two floats, an array two arrays.  A time's value is
        one sum over every eigenvalue, the same in any array of times.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        val = self.eig_sums(lambda tb, lam: np.exp(-tb * lam), ts)
        half_root = 0.5 * np.sqrt(math.pi / ts)[:, None]
        root_t = np.sqrt(ts)[:, None]
        tail = np.sum(half_root * erfc(root_t * self._edge) / self._c1, axis=1)
        # declared modes without materialized eigenvalues contribute from
        # lam >= nu^2 up; each full mode trace is bounded by its first term
        # plus a half-line counting integral at the least fitted slope
        c1 = float(np.min(self._c1)) if len(self._c1) else math.pi
        tail += np.sum(half_root * erfc(root_t * self.extra_nus) / c1
                       + np.exp(-ts[:, None] * self.extra_nus ** 2), axis=1)
        if np.ndim(t) == 0:
            return float(val[0]), float(tail[0])
        return val, tail

    def power_sum(self, z):
        """(sum of lam^z, tail bound); requires Re z < -1/2 for convergence."""
        rez = complex(z).real
        if rez >= -0.5:
            raise ConfigurationError("power sums need Re z < -1/2", z=complex(z))
        val = np.sum(self._lams.astype(complex) ** complex(z))
        # integral of (c1 k + c0)^(2 Re z) dk from each row's edge; for an
        # unmaterialized mode its first term plus that integral at slope pi
        nus = np.maximum(self.extra_nus, 1.0)
        tail = np.sum(self._edge ** (2 * rez + 1) / (self._c1 * (-2 * rez - 1)))
        tail += np.sum(nus ** (2 * rez + 1) / (math.pi * (-2 * rez - 1))
                       + nus ** (2 * rez))
        return complex(val), float(tail)

    def to_csv_rows(self):
        rows = [("mode", "k", "eigenvalue", "provenance")]
        for m in self.modes():
            for k, lam in enumerate(self.eigs[m], start=1):
                rows.append((m, k, f"{lam:.16e}", self.provenance))
        return rows


def _weyl_fit(lams):
    lams = np.asarray(lams, dtype=float)
    if len(lams) < 4:
        return (math.pi, float(np.sqrt(lams[0])) - math.pi if len(lams) else 0.0)
    k = np.arange(1, len(lams) + 1, dtype=float)
    half = len(lams) // 2
    c1, c0 = np.polyfit(k[half:], np.sqrt(lams[half:]), 1)
    return float(c1), float(c0)


def _spectral_data(op, solved, lam_max, provenance, floor, meta):
    """SpectralData from (modes, eigenvalues) per mode class; a mode with
    no eigenvalues gives ``floor(op, m)`` to ``extra_nus``."""
    eigs = {}
    weyl = {}
    for modes, vals in solved:
        if len(vals):
            fit = _weyl_fit(vals)
            for m in modes:
                eigs[m] = vals.copy()
                weyl[m] = fit
    extra = sorted(floor(op, m) for m in op.mode_list() if m not in eigs)
    meta = {"mu": op.mu, "n": 2, "alpha": op.alpha, "operator": op.label,
            **meta}
    return SpectralData(eigs, float(lam_max), provenance, meta, weyl,
                        np.asarray(extra)).validate()


def _frozen_nu(op, m):
    c0 = op.indicial(m)[0]
    if abs(c0.imag) > 1e-12 or c0.real <= 0:
        raise ConfigurationError("mode constant must be positive real",
                                 mode=m, value=complex(c0))
    return math.sqrt(c0.real)


def oracle_spectral_data(op, lam_max, *, meta=None):
    """Exact per-mode spectra of a frozen Laplace type operator up to lam_max.

    Requires mu = 2, indicial polynomials sigma^2 + nu_m^2 with nu_m^2 > 0.
    Eigenvalues are squared Bessel zeros j_{nu_m, k}^2; modes with
    nu_m > sqrt(lam_max) contribute nothing below the cutoff and are
    recorded only through the tail metadata.
    """
    if not op.is_frozen:
        raise ConfigurationError("oracle spectra require frozen coefficients")
    if abs(op.mu - 2.0) > 1e-12:
        raise ConfigurationError("oracle spectra require mu = 2", mu=op.mu)
    _check_degree2(op)
    # one order per mode class; the zeros of all of them come from one call
    classes = op.mode_classes()
    zeros = bessel_zeros([_frozen_nu(op, modes[0]) for modes in classes],
                         j_max=math.sqrt(lam_max))
    return _spectral_data(op, [(modes, z * z) for modes, z in zip(classes, zeros)],
                          lam_max, "oracle", _frozen_nu, meta or {})


def _mode_nu_floor(op, m):
    """Lower bound for sqrt of the lowest eigenvalue of one mode."""
    c0 = op.indicial(m)[0]
    shift = op.coeffs(m, np.linspace(0.0, 1.0, 33))[0] - c0
    return math.sqrt(max(c0.real - float(np.max(np.abs(shift))), 0.25))


def grid_spectral_data(disc, lam_max):
    """Discretized per-mode spectra up to lam_max via pencil bisection, one
    solve per mode class."""
    solved = [(modes, eigenvalues(disc, modes[0], lam_max=lam_max))
              for modes in disc.mode_classes()]
    return _spectral_data(disc.op, solved, lam_max, "discretization",
                          _mode_nu_floor,
                          {"s_min": disc.s_min, "npoints": disc.npoints})


# ---------------------------------------------------------------------------
# resolvent studies


def resolvent_norm(sd, lam):
    """Operator norm of the resolvent in the selfadjoint realization.

    Equals 1 / dist(lam, spectrum); uses the materialized spectrum, which
    is exact for shifts to the left of the smallest eigenvalue.
    """
    gaps = np.abs(sd.all_eigs() - complex(lam))
    if len(gaps) == 0:
        raise InsufficientSpectrumError("no eigenvalues materialized")
    return float(1.0 / np.min(gaps))


def injectivity_constant(sd, lam):
    """Best constant in ||(A - lam) u|| >= C (||u|| + ||A u||), spectrally.

    For the selfadjoint realization C = min over the spectrum (and its
    closure at infinity) of |x - lam| / (1 + x).
    """
    lams = sd.all_eigs()
    vals = np.abs(lams - complex(lam)) / (1.0 + lams)
    return float(min(1.0, np.min(vals)))


# ---------------------------------------------------------------------------
# parameter ellipticity


@dataclass
class EllipticityReport:
    symbol_ok: bool
    model_ok: object  # True / False / None (undecided)
    clean_weight_line: bool
    details: dict

    def all_ok(self):
        return bool(self.symbol_ok and self.model_ok and self.clean_weight_line)


def check_parameter_ellipticity(op, sector, alpha=None):
    """Three-part ellipticity check for the operator family A - lam.

    symbol_ok: sampled per-mode symbol values avoid the sector away from
    frequency zero.  model_ok: the frozen model on the half line, realized
    on growing truncations, stays invertible for |lam| in {1e2, 1e3} on
    three rays of the sector; inconclusive refinement yields None
    (undecided), never a false positive.  clean_weight_line: no indicial
    root on Im sigma = -alpha (roots searched in |Im sigma| <=
    max(8, 2 |alpha| + 4)).
    """
    alpha = op.alpha if alpha is None else float(alpha)
    details = {}

    # (a) symbol values
    pos = np.geomspace(1e-2, 1e2, 120)
    xi = np.concatenate([-pos[::-1], pos])
    symbol_ok = True
    for m in op.mode_list():
        vals = op.indicial_poly(m)(xi.astype(complex))
        for v in np.atleast_1d(vals):
            if sector.contains(complex(v)):
                symbol_ok = False
                details["symbol_witness"] = {"mode": m, "value": complex(v)}
                break
        if not symbol_ok:
            break

    # (c) weight line
    bspec = boundary_spectrum(op, max(8.0, 2 * abs(alpha) + 4.0))
    dist_line = bspec.min_dist_to_line(-alpha)
    clean = dist_line > 1e-9
    details["weight_line_distance"] = dist_line

    # (b) model invertibility on growing truncations
    frozen = op.frozen()
    verdicts = []
    try:
        d1 = discretize_halfline(frozen, -10.0, 4.0, 500)
        d2 = discretize_halfline(frozen, -12.0, 6.0, 900)
        spec1 = grid_spectral_data(d1, 8e3)
        spec2 = grid_spectral_data(d2, 8e3)
        for theta in sector.rays():
            u = complex(math.cos(theta), math.sin(theta))
            for mag in (1e2, 1e3):
                lam = mag * u
                verdicts.append(_invertibility_verdict(spec1, spec2, lam))
    except (NumericalError, ConfigurationError) as exc:
        details["model_error"] = str(exc)
        verdicts = [None]
    if all(v is True for v in verdicts):
        model_ok = clean
    elif any(v is False for v in verdicts):
        model_ok = False
    else:
        model_ok = None
    details["model_verdicts"] = verdicts
    return EllipticityReport(symbol_ok, model_ok, clean, details)


def _invertibility_verdict(spec1, spec2, lam):
    """Compare dist(lam, spectrum) on two truncations against local spacing."""
    out = []
    for sd in (spec1, spec2):
        lams = sd.all_eigs()
        if len(lams) < 3:
            return None
        lams = np.sort(lams)
        gaps = np.abs(lams - lam)
        i = int(np.argmin(gaps))
        local = np.diff(lams[max(0, i - 2): i + 3])
        spacing = float(np.median(local)) if len(local) else 1.0
        out.append((float(gaps[i]), spacing))
    (dist1, sp1), (dist2, sp2) = out
    if dist2 > 10.0 * sp2 and dist1 > 10.0 * sp1:
        return True
    if dist2 < 2.0 * sp2:
        return False
    return None
