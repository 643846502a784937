"""Index invariants: heat-trace differences, the eta integral of a
Mellin perturbation, assembly of the index formula, and numerical checks
of the reduction arguments (freezing coefficients, shifting the weight).

Conventions.  The perturbation data is a finite rank matrix family
H(sigma), holomorphic near the horizontal line Im sigma = -weight and
decaying like |Re sigma|^(-2).  The eta term is the logarithmic-derivative
integral of det(1 + H) along that line, oriented so that

    eta = #zeros - #poles of det(1 + H) strictly below the line,

which is the count the argument-principle oracle computes independently.
The index of the perturbation factor is minus this eta.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# fit_expansion is not called here: perfbench/tracer.py wraps it by this name
from .asymptotics import adaptive_gk21, fit_expansion  # noqa: F401
from .errors import ConfigurationError, NumericalError
from .pencil import _dstebz


# ---------------------------------------------------------------------------
# Mellin perturbations


class MellinPerturbation:
    """Finite rank rational family H(sigma) = sum_i E_i / ((sigma-p_i)(sigma-q_i)).

    Poles must avoid the integration line Im sigma = -weight; the rational
    form enforces O(|Re sigma|^(-2)) decay.  1 + H(sigma) must be
    invertible on the line (checked by determinant sampling at build time).
    ``H(sigma)``, ``dsigma`` and ``det1p`` take a scalar or an array of
    sigma; an array gives the matrices stacked along its shape, and
    ``det1p`` one batched determinant per point.
    """

    def __init__(self, terms, weight):
        self.terms = []
        dim = None
        for E, p, q in terms:
            E = np.atleast_2d(np.asarray(E, dtype=complex))
            if E.shape[0] != E.shape[1]:
                raise ConfigurationError("term matrices must be square",
                                         shape=E.shape)
            dim = E.shape[0] if dim is None else dim
            if E.shape[0] != dim:
                raise ConfigurationError("term matrices must share a dimension")
            self.terms.append((E, complex(p), complex(q)))
        self.dim = dim or 1
        self.weight = float(weight)
        line = -self.weight
        for _, p, q in self.terms:
            if min(abs(p.imag - line), abs(q.imag - line)) < 1e-9:
                raise ConfigurationError("pole on the integration line",
                                         pole=p, line=line)
        if self.terms:
            u = np.linspace(-200.0, 200.0, 4001)
            dets = self.det1p(u - 1j * self.weight)
            i = int(np.argmin(np.abs(dets)))
            if abs(dets[i]) < 1e-9:
                raise ConfigurationError("1 + H is not invertible on the line",
                                         sigma=complex(u[i], -self.weight),
                                         det=complex(dets[i]))

    def __call__(self, sigma):
        sigma = np.asarray(sigma, dtype=complex)[..., None, None]
        out = np.zeros(sigma.shape[:-2] + (self.dim, self.dim), dtype=complex)
        for E, p, q in self.terms:
            out += E / ((sigma - p) * (sigma - q))
        return out

    def dsigma(self, sigma):
        sigma = np.asarray(sigma, dtype=complex)[..., None, None]
        out = np.zeros(sigma.shape[:-2] + (self.dim, self.dim), dtype=complex)
        for E, p, q in self.terms:
            denom = (sigma - p) * (sigma - q)
            out += -E * (2.0 * sigma - p - q) / (denom * denom)
        return out

    def det1p(self, sigma):
        det = np.linalg.det(np.eye(self.dim) + self(sigma))
        return complex(det) if np.ndim(det) == 0 else det

    def zero_pole_radius(self):
        """r >= 1 such that every pole lies in |sigma| <= r and every zero
        of det(1 + H) in |sigma| <= 2r.

        Where |sigma| >= 2 max |p|, |q| each factor |sigma - p| is at least
        |sigma| / 2, so ||H(sigma)|| <= 4 sum ||E_i|| / |sigma|^2 (Frobenius
        norms, which bound the operator norm), and 1 + H is invertible once
        that is below 1, that is once |sigma| > 2 sqrt(sum ||E_i||).
        """
        r = max(1.0, math.sqrt(sum(np.linalg.norm(E) for E, _, _ in self.terms)))
        for _, p, q in self.terms:
            r = max(r, abs(p), abs(q))
        return r


def lorentzian_perturbation(c, b, weight):
    """Rank one family c / (sigma^2 + b^2), as a 1x1 matrix."""
    return MellinPerturbation([(c * np.eye(1), 1j * b, -1j * b)], weight)


# ---------------------------------------------------------------------------
# eta integral and the argument-principle oracle


# half-length of the segment of the eta line integrated by quadrature
_R_MAX = 80.0


def eta_term(H: MellinPerturbation):
    """Logarithmic-derivative integral of det(1+H) along Im sigma = -weight.

    The finite segment |Re sigma| <= ``_R_MAX`` is integrated to 1e-11 by
    adaptive 21-point Gauss-Kronrod (``asymptotics.adaptive_gk21``), each
    round one batched solve of (1 + H) M = H' over all its nodes; the two
    tails are added exactly as boundary values of log det(1 + H), which is
    single valued there because H decays.  The orientation is chosen so the
    result counts zeros minus poles below the line.
    """
    tol = 1e-11
    line = -1j * H.weight

    def g(u):
        sigma = u + line
        M = np.linalg.solve(np.eye(H.dim) + H(sigma), H.dsigma(sigma))
        return np.trace(M, axis1=-2, axis2=-1)

    val, err = adaptive_gk21(g, -_R_MAX, _R_MAX, tol)
    if not err <= 100 * tol * max(1.0, abs(val)):
        raise NumericalError("eta quadrature did not converge", error=float(err))
    # exact tails: the integrand is d/dsigma log det(1+H)
    tail = (-cmath.log(H.det1p(_R_MAX + line))
            + cmath.log(H.det1p(-_R_MAX + line)))
    total = val + tail
    eta = -(total / (2j * math.pi))
    if abs(eta.imag) > 1e-8:
        raise NumericalError("eta came out non-real", value=complex(eta))
    return float(eta.real)


# the point budget of the winding walk: 64000 points on each of the four
# sides, corners shared
_MAX_CONTOUR_POINTS = 4 * 64000 - 3
# a step of the first walk halved 45 times is below double resolution
_MAX_HALVINGS = 60


def _phase_steps(values):
    """Phase changes between consecutive values, wrapped to [-pi, pi)."""
    d = np.diff(np.angle(values))
    return (d + math.pi) % (2 * math.pi) - math.pi


def argument_principle_count(H: MellinPerturbation):
    """Zeros minus poles of det(1+H) strictly below the line, by winding.

    Walks the counterclockwise boundary of the box below Im sigma = -weight
    with half-width 4 (r + |weight|), r from ``H.zero_pole_radius()``,
    which contains every zero and pole, tracking the phase of the
    determinant.  The sampling starts at 2000 points per side; a midpoint
    is inserted into every step whose phase change exceeds pi/2, until none
    does, so a zero close to the contour refines the walk near it only.
    Past ``_MAX_CONTOUR_POINTS`` points or ``_MAX_HALVINGS`` rounds the
    count is refused.
    """
    R = 4.0 * H.zero_pole_radius() + abs(H.weight) * 4.0
    y_top = -H.weight
    y_bot = -R
    n = 2000
    top = np.linspace(R, -R, n) + 1j * y_top       # right to left
    left = -R + 1j * np.linspace(y_top, y_bot, n)  # downward
    bot = np.linspace(-R, R, n) + 1j * y_bot       # left to right
    right = R + 1j * np.linspace(y_bot, y_top, n)  # upward
    # a closed walk: the right side ends where the top side starts
    contour = np.concatenate([top, left[1:], bot[1:], right[1:]])
    vals = H.det1p(contour)
    steps = _phase_steps(vals)
    for _ in range(_MAX_HALVINGS):
        coarse = np.flatnonzero(np.abs(steps) > math.pi / 2)
        if not len(coarse) or len(contour) + len(coarse) > _MAX_CONTOUR_POINTS:
            break
        # every step lies on one side of the box, so its midpoint does too
        mid = 0.5 * (contour[coarse] + contour[coarse + 1])
        contour = np.insert(contour, coarse + 1, mid)
        vals = np.insert(vals, coarse + 1, H.det1p(mid))
        steps = _phase_steps(vals)
    if np.max(np.abs(steps)) > math.pi / 2:
        raise NumericalError("winding count did not stabilize",
                             points=len(contour))
    wind = float(np.sum(steps)) / (2 * math.pi)
    count = round(wind)
    if abs(wind - count) > 1e-6:
        raise NumericalError("winding count did not stabilize", winding=wind)
    return int(count)


# ---------------------------------------------------------------------------
# McKean-Singer traces


def mckean_singer(B, t_list):
    """Difference Tr exp(-t B*B) - Tr exp(-t BB*) for a finite matrix B.

    Computed through singular values; the nonzero singular spectra agree,
    so each value equals the dimension gap dim ker(B) - dim ker(B*).
    """
    B = np.asarray(B, dtype=float) if np.isrealobj(B) else np.asarray(B, dtype=complex)
    s = np.linalg.svd(B, compute_uv=False)
    rows, cols = B.shape
    e = np.sum(np.exp(-np.atleast_1d(t_list)[:, None] * s * s), axis=1)
    return (e + (cols - len(s))) - (e + (rows - len(s)))


# ---------------------------------------------------------------------------
# assembly


@dataclass
class IndexReport:
    omega: float
    eta: float
    value: float
    integer_distance: float
    flags: dict = field(default_factory=dict)

    def to_csv_rows(self):
        return [("omega", "eta", "index", "integer_distance", "flags"),
                (f"{self.omega:.12e}", f"{self.eta:.12e}", f"{self.value:.12e}",
                 f"{self.integer_distance:.3e}",
                 ";".join(f"{k}={v}" for k, v in sorted(self.flags.items())) or "-")]


def index_assemble(B, H):
    """Index of the elliptic factor B (a matrix realization with empty
    boundary spectrum) with the Mellin perturbation H: the constant term
    of B's heat difference minus eta(H).  The difference is the same at
    every t (``mckean_singer``): read at t = 1."""
    omega = float(mckean_singer(B, [1.0])[0])
    eta = eta_term(H)
    value = omega - eta
    dist = abs(value - round(value))
    flags = {"eta_integer_distance": f"{abs(eta - round(eta)):.2e}"}
    return IndexReport(omega, eta, value, dist, flags)


# ---------------------------------------------------------------------------
# invariance checks for the reduction arguments


@dataclass
class ConstReductionResult:
    taus: np.ndarray
    ratios: np.ndarray
    slope: float


def invariance_red_to_const(disc, tau_list):
    """Graph-norm convergence rate of the frozen-near-the-tip interpolation.

    A_[tau] = phi(x/tau) A_0 + (1 - phi(x/tau)) A with A_0 the frozen
    operator; for each tau the worst ratio ||(A - A_[tau]) u|| / ||u||_A
    over 12 decaying test vectors (seed 0) is recorded, and the log-log
    decay slope is fitted.  The expected rate is at least 1 - eps for
    every eps > 0.
    """
    from .symbols import smoothstep
    op = disc.op
    disc0 = type(disc)(op.frozen(), disc.s_min, disc.s_max, disc.npoints)
    rng = np.random.default_rng(0)
    # test vector i has the envelope x^(mu/2 + delta), delta the (i mod 3)-th
    # decay, and the sine of frequency k = 1 + i mod 4, each made once
    envs = [disc.x ** (op.mu / 2.0 + delta) for delta in (0.05, 0.3, 0.8)]
    span, ds = disc.s_max - disc.s_min, disc.s - disc.s_min
    sines = [np.sin(math.pi * k * ds / span + 0.0) for k in range(1, 5)]
    wave = np.sin(2 * math.pi * ds / span)
    tests = []
    for i in range(12):
        env = envs[i % 3]
        phase = rng.uniform(0, 2 * math.pi)
        u = env * sines[i % 4] * math.cos(phase)
        tests.append(u + 0.3 * env * rng.standard_normal() * wave)
    m0 = 0  # the reduction acts mode by mode; mode zero exercises it fully
    # (A - A_0) u and the graph norm of u do not depend on tau: one pass
    # over the stack of test vectors, rows along the last axis
    tests = np.array(tests)
    au = disc.apply(m0, tests)
    gaps = au - disc0.apply(m0, tests)
    denoms = np.maximum(disc.norm_w(tests) + disc.norm_w(au), 1e-300)
    taus = np.asarray(sorted(tau_list, reverse=True), dtype=float)
    ratios = np.empty(len(taus))
    for i, tau in enumerate(taus):
        phi_tau = 1.0 - smoothstep(disc.x / tau - 1.0)
        ratios[i] = np.max(disc.norm_w(phi_tau * gaps) / denoms)
    ok = ratios > 1e-14
    if ok.sum() >= 2:
        slope = float(np.polyfit(np.log(taus[ok]), np.log(ratios[ok]), 1)[0])
    else:
        slope = math.inf
    return ConstReductionResult(taus, ratios, slope)


@dataclass
class SobolevReductionRow:
    eps: float
    dim_kernel: object   # int or None (undecided)
    dim_cokernel: object
    crossing: bool


@dataclass
class SobolevReductionReport:
    rows: list

    def all_decided(self):
        return all(r.dim_kernel is not None and r.dim_cokernel is not None
                   for r in self.rows)


def _kernel_census(d, e):
    """(kernel count, ambiguous) of the symmetric tridiagonal (d, e), by
    Sturm counts alone (see ``invariance_red_to_sobolev``).  An order-1 or
    zero matrix has neither a kernel count nor an ambiguity, and reaches no
    LAPACK call: the wrapper takes no empty off-diagonal, and dstebz
    refuses the empty interval (0, 0].
    """
    n = len(d)
    if n == 1 or not (np.any(d) or np.any(e)):
        return 0, False
    # the extreme eigenvalues by index, then two interval counts, all at
    # LAPACK's default tolerance
    top = max(abs(_dstebz(d, e, 2, 0.0, 0.0, k, k, 0.0)[1][0]) for k in (1, n))
    small, band = (_dstebz(d, e, 1, -t, t, 0, 0, 0.0)[0]
                   for t in (1e-8 * top, 1e-7 * top))
    return small, band > small


def invariance_red_to_sobolev(disc, eps_list):
    """Kernel and cokernel dimensions of the weight-shifted realizations.

    On the truncated grid the factor x^eps is an invertible diagonal, so
    the dimensions are read from the singular values of the polynomial
    part.  That part is symmetric tridiagonal, so they are the absolute
    values of its eigenvalues, and they are counted, not solved for, once
    per mode class (``_kernel_census``; no dense matrix is built).  Two
    LAPACK bisections (dstebz) give the extreme eigenvalues, and with them
    the largest absolute value ``top``.  By Sylvester's law of inertia, two
    dstebz interval counts give the eigenvalues in (-t, t] at t = 1e-8 top,
    which count as kernel, and at t = 1e-7 top: one more at the wider
    threshold gives an UNDECIDED (None) dimension rather than a count.  An
    interval count bisects only the eigenvalues inside it.  All run at
    LAPACK's default tolerance, so an eigenvalue within its rounding (about
    1e-16 top) of a threshold may count on either side; at 1e-8 top it
    moves between kernel and undecided, which the band is there to absorb.

    An eps is flagged as a crossing when shifting the weight by eps moves
    a boundary-spectrum pole (searched in |Im sigma| <= mu + max |eps| + 2)
    across one of the reference lines Im sigma = +-mu/2.

    On the grid the dimensions are therefore eps-invariant by construction
    and only ``crossing`` depends on eps; the polynomial part is symmetric,
    so the cokernel dimension equals the kernel dimension.
    """
    from .coneop import boundary_spectrum
    op = disc.op
    mu = op.mu
    bspec = boundary_spectrum(op, mu + max(abs(e) for e in eps_list) + 2.0)
    ims = [p.sigma.imag for p in bspec.poles]
    total, undecided = 0, False
    for modes in disc.mode_classes():
        count, ambiguous = _kernel_census(*disc.matrix(modes[0]))
        undecided = undecided or ambiguous
        total += len(modes) * count
    dim = None if undecided else total
    rows = []
    for eps in eps_list:
        crossing = any(
            (-mu / 2.0 < v <= -mu / 2.0 + eps) or (mu / 2.0 - eps <= v < mu / 2.0)
            for v in ims) if eps > 0 else False
        rows.append(SobolevReductionRow(float(eps), dim, dim, bool(crossing)))
    return SobolevReductionReport(rows)
