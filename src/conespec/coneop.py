"""Model cone operators on (0, 1] x S^1 and their desk-scale realizations.

An operator here acts per Fourier mode m of the circle as

    A_m = x^(-mu) p_m(x D_x; x),

with p_m a polynomial in the dilation generator whose coefficients may
depend smoothly on x.  The Mellin convention is fixed once and for all:
trial functions are x^(i sigma), so x D_x acts as multiplication by
sigma and the indicial polynomial of the Laplace type example is
sigma^2 + m^2 + (n-2)^2/4 + a^2.  (The equivalent convention with trial
functions x^z is related by z = i sigma; weight lines Im z = -alpha
become Im sigma = -alpha here.)

Discretization uses the logarithmic variable s = log x on a uniform grid
with Dirichlet cuts at both ends; the x^(-mu) factor becomes the diagonal
weight e^(mu s) of a generalized eigenproblem, solved by pencil bisection
(see pencil.py).  The natural Hilbert space is x^(-mu/2) L^2_b, whose
norm is the weighted grid norm used throughout.
"""

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, jv

from . import pencil
from .errors import (ConfigurationError, InsufficientSpectrumError,
                     NumericalError, RootFindingError)


# ---------------------------------------------------------------------------
# operators


class ConeOperator:
    """Weighted polynomial in the dilation generator, one polynomial per mode.

    Parameters
    ----------
    mu : positive float, weight order (the x^(-mu) prefactor).
    modes : (mmin, mmax) inclusive mode range.
    indicial : callable m -> coefficient list [c0, c1, ..., cdeg] at x = 0.
    x_correction : callable (m, x) -> list of same length, vanishing at x = 0,
        smooth on [0, 1]; or None for frozen coefficients.
    alpha : weight line of the intended realization.
    """

    def __init__(self, mu, modes, indicial, *, x_correction=None, alpha=0.0,
                 label="cone-operator"):
        if mu <= 0:
            raise ConfigurationError("weight order mu must be positive", mu=mu)
        self.mu = float(mu)
        self.modes = (int(modes[0]), int(modes[1]))
        if self.modes[0] > self.modes[1]:
            raise ConfigurationError("empty mode range", modes=modes)
        self._indicial = indicial
        self._x_correction = x_correction
        self.alpha = float(alpha)
        self.label = label
        self._validate()

    def _validate(self):
        for m in self.mode_list():
            base = np.asarray(self._indicial(m), dtype=complex)
            if base.ndim != 1 or len(base) < 1:
                raise ConfigurationError("indicial coefficients must be a flat list",
                                         mode=m)
            if abs(base[-1]) < 1e-8:
                raise ConfigurationError(
                    "leading indicial coefficient degenerates (not b-elliptic)",
                    mode=m, leading=complex(base[-1]))
            if self._x_correction is not None:
                at0 = np.asarray(self._x_correction(m, 0.0), dtype=complex)
                if len(at0) != len(base) or np.max(np.abs(at0)) > 1e-12:
                    raise ConfigurationError(
                        "x correction must vanish at x = 0 and match the degree",
                        mode=m)

    def mode_list(self):
        return list(range(self.modes[0], self.modes[1] + 1))

    def degree(self, m):
        return len(np.asarray(self._indicial(m))) - 1

    @property
    def is_frozen(self):
        return self._x_correction is None

    def coeffs(self, m, x=None):
        """Coefficient values [c0(x), ..., cdeg(x)]; x may be an array."""
        base = [np.asarray(c) for c in np.asarray(self._indicial(m), dtype=complex)]
        if x is None or self._x_correction is None:
            if x is None:
                return base
            return [np.broadcast_to(c, np.shape(x)).astype(complex) for c in base]
        corr = self._x_correction(m, np.asarray(x, dtype=float))
        return [np.broadcast_to(b, np.shape(x)).astype(complex) + np.asarray(c, dtype=complex)
                for b, c in zip(base, corr)]

    def indicial_poly(self, m):
        return np.polynomial.Polynomial(np.asarray(self._indicial(m), dtype=complex))

    def frozen(self):
        """The dilation-invariant model obtained by freezing coefficients at x=0."""
        if self.is_frozen:
            return self
        return ConeOperator(self.mu, self.modes, self._indicial,
                            alpha=self.alpha, label=self.label + ":frozen")

    def with_modes(self, mode_cap):
        """Rematerialize the same coefficient rule on a wider mode window."""
        cap = int(mode_cap)
        return ConeOperator(self.mu, (-cap, cap), self._indicial,
                            x_correction=self._x_correction, alpha=self.alpha,
                            label=self.label)


def laplace_type(a, n=2, mode_cap=8, alpha=1.0):
    """Laplace type model: p_m(sigma) = sigma^2 + m^2 + (n-2)^2/4 + a^2, mu = 2."""
    shift = (n - 2) ** 2 / 4.0 + a * a

    def indicial(m):
        return [m * m + shift, 0.0, 1.0]

    return ConeOperator(2.0, (-mode_cap, mode_cap), indicial, alpha=alpha,
                        label=f"laplace(a={a},n={n})")


def perturbed_laplace(a, n=2, mode_cap=8, alpha=1.0, strength=0.5):
    """Laplace type model with a bounded zeroth order coefficient in x.

    The zero order coefficient becomes m^2 + (n-2)^2/4 + a^2 + strength *
    x * cos(1.3 x); the conormal data are unchanged.
    """
    shift = (n - 2) ** 2 / 4.0 + a * a

    def indicial(m):
        return [m * m + shift, 0.0, 1.0]

    def correction(m, x):
        x = np.asarray(x, dtype=float)
        return [strength * x * np.cos(1.3 * x), np.zeros_like(x), np.zeros_like(x)]

    return ConeOperator(2.0, (-mode_cap, mode_cap), indicial,
                        x_correction=correction, alpha=alpha,
                        label=f"laplace-perturbed(a={a})")


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
    mode_cap: int

    def merged(self):
        """(sigma, max order) pairs aggregated across modes."""
        from .indexsets import merge_poles
        return merge_poles([(p.sigma, p.order, p.mode) for p in self.poles])

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


def _polish_root(coeffs, z, iters=4):
    # Newton on p(z); coeffs ascending
    p = np.polynomial.Polynomial(coeffs)
    dp = p.deriv()
    for _ in range(iters):
        dz = dp(z)
        if abs(dz) < 1e-14:
            break
        z = z - p(z) / dz
    return z


def boundary_spectrum(op, strip, mode_cap=None):
    """All indicial roots sigma with |Im sigma| <= strip, with multiplicities.

    Roots are found per mode by the companion method, polished by Newton
    where simple, and clustered into multiplicities.  Nonconvergence is
    reported with the offending mode and residual.
    """
    mode_cap = op.modes[1] if mode_cap is None else int(mode_cap)
    poles = []
    for m in op.mode_list():
        if abs(m) > mode_cap:
            continue
        coeffs = np.asarray(op._indicial(m), dtype=complex)
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
                poles.append(PoleEntry(center, len(group), m))
    poles.sort(key=lambda p: (p.mode, p.sigma.real, p.sigma.imag))
    return BoundarySpectrum(poles, float(strip), mode_cap)


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

    def matrix(self, m):
        """Tridiagonal data (diagonal, subdiagonal) of the conjugated operator."""
        if m not in self._cache:
            c = self.op.coeffs(m, self.x)
            c0 = np.real_if_close(np.broadcast_to(c[0], self.s.shape), tol=1e6)
            c2 = complex(np.ravel(c[2])[0])
            d = (2.0 * c2.real / self.h ** 2) + np.asarray(c0, dtype=float)
            e = np.full(self.npoints - 1, -c2.real / self.h ** 2)
            self._cache[m] = (d, e)
        return self._cache[m]

    def apply_p(self, m, u):
        """The unweighted polynomial part K u."""
        d, e = self.matrix(m)
        out = d * u
        out = out.astype(complex) if np.iscomplexobj(u) else out
        out[:-1] += e * u[1:]
        out[1:] += e * u[:-1]
        return out

    def apply(self, m, u):
        """A u = x^(-mu) K u on the grid."""
        return self.apply_p(m, u) / self.w

    def inner_w(self, u, v):
        return self.h * np.sum(np.conjugate(u) * v * self.w)

    def norm_w(self, u):
        return math.sqrt(abs(self.inner_w(u, u)))


def _check_degree2(op):
    for m in op.mode_list():
        base = np.asarray(op._indicial(m), dtype=complex)
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


def discretize(op, s_min, npoints, s_max=0.0):
    """Per-mode tridiagonal realization of -c2 d^2/ds^2 + c0(m, e^s).

    The x^(-mu) factor is carried by the diagonal weight e^(mu s) of the
    generalized problem K u = lambda W u.  Second order centered
    differences, Dirichlet conditions at s_min and s_max.
    """
    if not s_min < -5:
        raise ConfigurationError("s_min must be below -5", s_min=s_min)
    if npoints < 100:
        raise ConfigurationError("need at least 100 grid points", npoints=npoints)
    if s_max <= s_min:
        raise ConfigurationError("s_max must exceed s_min")
    _check_degree2(op)
    return Discretization(op, float(s_min), float(s_max), int(npoints))


def discretize_halfline(op, s_min=-12.0, s_max=5.0, npoints=800):
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
    n = disc.npoints
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = e
    ab[1, :] = d - lam * disc.w
    ab[2, :-1] = e
    b = disc.w * np.asarray(rhs)
    try:
        u = solve_banded((1, 1), ab, b)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("shifted system is singular", lam=complex(lam)) from exc
    resid = (d - lam * disc.w) * u
    resid[:-1] += e * u[1:]
    resid[1:] += e * u[:-1]
    resid -= b
    rel = np.linalg.norm(resid) / max(np.linalg.norm(b), 1e-300)
    if not np.isfinite(rel) or rel > 1e-10:
        raise NumericalError("resolvent solve residual too large",
                             lam=complex(lam), residual=float(rel))
    return u


# ---------------------------------------------------------------------------
# dilation action on grid functions


def kappa_scale(u, rho, s_grid, *, warn_tol=1e-12):
    """Pullback (kappa_rho u)(x) = u(rho x) on the log grid: a shift in s.

    Linear interpolation at fractional shifts; values outside the grid are
    zero (Dirichlet).  Emits a warning if the shift pushes a visible
    fraction of the mass past an end of the grid.
    """
    if rho <= 0:
        raise ConfigurationError("scaling factor must be positive", rho=rho)
    s_grid = np.asarray(s_grid)
    shift = math.log(rho)
    target = s_grid + shift
    u = np.asarray(u)
    lost = u[(target < s_grid[0] - 1e-12) | (target > s_grid[-1] + 1e-12)]
    total = np.linalg.norm(u)
    if total > 0 and np.linalg.norm(lost) > warn_tol * total:
        warnings.warn("kappa_scale: support truncated at the grid end",
                      RuntimeWarning, stacklevel=2)
    if np.iscomplexobj(u):
        re = np.interp(target, s_grid, u.real, left=0.0, right=0.0)
        im = np.interp(target, s_grid, u.imag, left=0.0, right=0.0)
        return re + 1j * im
    return np.interp(target, s_grid, u, left=0.0, right=0.0)


# ---------------------------------------------------------------------------
# Bessel oracle


def bessel_zeros(nu, count=None, j_max=None):
    """Positive zeros of J_nu by vectorized scan plus bracketed refinement.

    Returns the first ``count`` zeros, or all zeros at most ``j_max``.
    Scanning uses a step well below the minimal zero spacing (about pi),
    so a sign change brackets exactly one zero; brentq refines each
    bracket to machine-level accuracy.
    """
    if nu < 0:
        raise ConfigurationError("order nu must be nonnegative", nu=nu)
    if count is None and j_max is None:
        raise ConfigurationError("need count or j_max")
    step = 0.45
    start = max(nu, 1e-6)
    found = []
    lo = start
    block = 512
    guard = 0
    while True:
        grid = lo + step * np.arange(block + 1)
        vals = jv(nu, grid)
        sign = np.sign(vals)
        flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
        for i in flips:
            a, b = grid[i], grid[i + 1]
            try:
                z = brentq(lambda t: jv(nu, t), a, b, xtol=1e-13, rtol=8.9e-16)
            except ValueError as exc:
                raise RootFindingError("bracketing failed", nu=nu,
                                       interval=(float(a), float(b))) from exc
            found.append(z)
            if count is not None and len(found) >= count:
                return np.asarray(found)
            if j_max is not None and z > j_max:
                return np.asarray([z0 for z0 in found if z0 <= j_max])
        if j_max is not None and grid[-1] > j_max + 2 * math.pi:
            return np.asarray([z0 for z0 in found if z0 <= j_max])
        lo = grid[-1]
        guard += 1
        if guard > 4000:
            raise RootFindingError("zero scan did not terminate", nu=nu,
                                   interval=(float(start), float(lo)))


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
    eigenvalue bound of the modes beyond the materialized range.
    """

    eigs: dict
    lam_max: float
    provenance: str
    meta: dict
    weyl: dict
    extra_nus: np.ndarray
    mode_complete: bool = True

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
        return int(sum(len(v) for v in self.eigs.values()))

    def min_eig(self):
        vals = [v[0] for v in self.eigs.values() if len(v)]
        if not vals:
            raise InsufficientSpectrumError("no eigenvalues materialized")
        return float(min(vals))

    def all_eigs(self):
        parts = [np.asarray(self.eigs[m]) for m in self.modes() if len(self.eigs[m])]
        return np.concatenate(parts) if parts else np.empty(0)

    # -- tail machinery -----------------------------------------------------

    def _mode_weyl(self, m):
        c1, c0 = self.weyl.get(m, (math.pi, 0.0))
        c1 = max(c1, 1e-3)
        return c1, c0

    def heat_sum(self, t):
        """(sum of exp(-t lam), upper tail bound) at one time t."""
        val = 0.0
        tail = 0.0
        for m in self.modes():
            lam = self.eigs[m]
            val += float(np.sum(np.exp(-t * lam)))
            c1, c0 = self._mode_weyl(m)
            edge = max(c1 * (len(lam) + 1) + c0, math.sqrt(self.lam_max))
            tail += 0.5 * math.sqrt(math.pi / t) * erfc(math.sqrt(t) * edge) / c1
        tail += self._mode_tail_heat(t)
        return val, tail

    def _mode_tail_heat(self, t):
        # declared modes without materialized eigenvalues contribute from
        # lam >= nu^2 up; each full mode trace is bounded by its first term
        # plus a half-line counting integral
        if len(self.extra_nus) == 0:
            return 0.0
        c1 = min(self._mode_weyl(m)[0] for m in self.modes()) if self.eigs else math.pi
        nus = np.asarray(self.extra_nus, dtype=float)
        per_mode = (0.5 * math.sqrt(math.pi / t) * erfc(np.sqrt(t) * nus) / c1
                    + np.exp(-t * nus ** 2))
        return float(np.sum(per_mode))

    def power_sum(self, z):
        """(sum of lam^z, tail bound); requires Re z < -1/2 for convergence."""
        rez = complex(z).real
        if rez >= -0.5:
            raise ConfigurationError("power sums need Re z < -1/2", z=complex(z))
        val = 0.0 + 0.0j
        tail = 0.0
        for m in self.modes():
            lam = np.asarray(self.eigs[m], dtype=float)
            val += np.sum(np.power(lam.astype(complex), complex(z)))
            c1, c0 = self._mode_weyl(m)
            edge = max(c1 * (len(lam) + 1) + c0, math.sqrt(self.lam_max))
            # integral of (c1 k + c0)^(2 Re z) dk from the edge
            tail += edge ** (2 * rez + 1) / (c1 * (-2 * rez - 1))
        for nu in self.extra_nus:
            nu = max(nu, 1.0)
            tail += nu ** (2 * rez + 1) / (math.pi * (-2 * rez - 1)) \
                + nu ** (2 * rez)
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


def _frozen_nu(op, m):
    base = np.asarray(op._indicial(m), dtype=complex)
    c0 = base[0]
    if abs(c0.imag) > 1e-12 or c0.real <= 0:
        raise ConfigurationError("mode constant must be positive real",
                                 mode=m, value=complex(c0))
    return math.sqrt(c0.real)


def oracle_spectral_data(op, lam_max, *, mode_cap=None, meta=None):
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
    mode_cap = op.modes[1] if mode_cap is None else int(mode_cap)
    jmax = math.sqrt(lam_max)
    eigs = {}
    weyl = {}
    cache = {}
    covered = True
    for m in op.mode_list():
        if abs(m) > mode_cap:
            covered = False
            continue
        nu = _frozen_nu(op, m)
        key = round(nu, 12)
        if key not in cache:
            if nu >= jmax:
                cache[key] = np.empty(0)
            else:
                zeros = bessel_zeros(nu, j_max=jmax)
                cache[key] = zeros * zeros
        lam = cache[key]
        eigs[m] = lam.copy()
        if len(lam):
            weyl[m] = _weyl_fit(lam)
    # modes of the operator that carry no materialized eigenvalue still
    # contribute to traces from lam >= nu^2 up; record their nu values
    extra = sorted(_frozen_nu(op, m) for m in op.mode_list()
                   if m not in eigs or len(eigs[m]) == 0)
    eigs = {m: v for m, v in eigs.items() if len(v)}
    base_meta = {"mu": op.mu, "n": 2, "alpha": op.alpha, "operator": op.label}
    if meta:
        base_meta.update(meta)
    return SpectralData(eigs, float(lam_max), "oracle", base_meta, weyl,
                        np.asarray(extra), mode_complete=covered).validate()


def _mode_nu_floor(op, m):
    """Lower bound for sqrt of the lowest eigenvalue of one mode."""
    c0 = complex(np.asarray(op._indicial(m), dtype=complex)[0])
    nu2 = c0.real
    if op._x_correction is not None:
        x = np.linspace(0.0, 1.0, 33)
        corr = np.asarray(op._x_correction(m, x)[0])
        nu2 -= float(np.max(np.abs(corr)))
    return math.sqrt(max(nu2, 0.25))


def grid_spectral_data(disc, lam_max, *, mode_cap=None, meta=None):
    """Discretized per-mode spectra up to lam_max via pencil bisection."""
    op = disc.op
    mode_cap = op.modes[1] if mode_cap is None else int(mode_cap)
    eigs = {}
    weyl = {}
    for m in disc.mode_list():
        if abs(m) > mode_cap:
            continue
        d, e = disc.matrix(m)
        vals = pencil.eig_pencil(d, e, disc.w, lam_max=lam_max)
        if len(vals):
            eigs[m] = vals
            weyl[m] = _weyl_fit(vals)
    extra = sorted(_mode_nu_floor(op, m) for m in op.mode_list()
                   if m not in eigs)
    base_meta = {"mu": op.mu, "n": 2, "alpha": op.alpha, "operator": op.label,
                 "s_min": disc.s_min, "npoints": disc.npoints}
    if meta:
        base_meta.update(meta)
    return SpectralData(eigs, float(lam_max), "discretization", base_meta, weyl,
                        np.asarray(extra)).validate()


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

    @property
    def undecided(self):
        return self.model_ok is None

    def all_ok(self):
        return bool(self.symbol_ok and self.model_ok and self.clean_weight_line)


def check_parameter_ellipticity(op, sector, alpha=None, *, lam_mags=(1e2, 1e3),
                                rays=3, strip=None):
    """Three-part ellipticity check for the operator family A - lam.

    symbol_ok: sampled per-mode symbol values avoid the sector away from
    frequency zero.  model_ok: the frozen model on the half line, realized
    on growing truncations, stays invertible for large sampled lam in the
    sector; inconclusive refinement yields None (undecided), never a false
    positive.  clean_weight_line: no indicial root on Im sigma = -alpha.
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
    strip = strip if strip is not None else max(8.0, 2 * abs(alpha) + 4.0)
    bspec = boundary_spectrum(op, strip)
    dist_line = bspec.min_dist_to_line(-alpha)
    clean = dist_line > 1e-9
    details["weight_line_distance"] = dist_line

    # (b) model invertibility on growing truncations
    frozen = op.frozen()
    verdicts = []
    try:
        d1 = discretize_halfline(frozen, -10.0, 4.0, 500)
        d2 = discretize_halfline(frozen, -12.0, 6.0, 900)
        spec1 = grid_spectral_data(d1, max(lam_mags) * 8.0)
        spec2 = grid_spectral_data(d2, max(lam_mags) * 8.0)
        for theta in sector.rays(rays):
            u = complex(math.cos(theta), math.sin(theta))
            for mag in lam_mags:
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
