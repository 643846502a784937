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
from scipy.integrate import quad_vec

from .asymptotics import fit_expansion
from .errors import ConfigurationError, NumericalError
from .traces import TraceSeries


# ---------------------------------------------------------------------------
# Mellin perturbations


class MellinPerturbation:
    """Finite rank rational family H(sigma) = sum_i E_i / ((sigma-p_i)(sigma-q_i)).

    Poles must avoid the integration line Im sigma = -weight; the rational
    form enforces O(|Re sigma|^(-2)) decay.  1 + H(sigma) must be
    invertible on the line (checked by determinant sampling at build time).
    ``H(sigma)`` and ``det1p`` take a scalar or an array of sigma; an
    array gives the matrices stacked along its shape, and ``det1p`` one
    batched determinant per point.
    """

    def __init__(self, terms, weight, *, check_line=True):
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
        if check_line and self.terms:
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
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for E, p, q in self.terms:
            denom = (sigma - p) * (sigma - q)
            out += -E * (2.0 * sigma - p - q) / (denom * denom)
        return out

    def det1p(self, sigma):
        det = np.linalg.det(np.eye(self.dim) + self(sigma))
        return complex(det) if np.ndim(det) == 0 else det

    def pole_radius(self):
        r = 1.0
        for _, p, q in self.terms:
            r = max(r, abs(p), abs(q))
        return r

    def reflected(self):
        """The family with all poles (and zeros) reflected across the line.

        G(sigma) = conj(H(conj(sigma) - 2 i weight)) is holomorphic with
        the reflected pole set, so the below-line zero/pole census swaps
        with the above-line one.
        """
        shift = 2j * self.weight
        terms = [(np.conjugate(E), np.conjugate(p + shift), np.conjugate(q + shift))
                 for E, p, q in self.terms]
        return MellinPerturbation(terms, self.weight, check_line=False)


def lorentzian_perturbation(c, b, weight):
    """Rank one family c / (sigma^2 + b^2), as a 1x1 matrix."""
    return MellinPerturbation([(c * np.eye(1), 1j * b, -1j * b)], weight)


# ---------------------------------------------------------------------------
# eta integral and the argument-principle oracle


def eta_term(H: MellinPerturbation, *, R_max=80.0):
    """Logarithmic-derivative integral of det(1+H) along Im sigma = -weight.

    The finite segment |Re sigma| <= R_max is integrated adaptively to
    1e-11; the two tails are added exactly as boundary values of
    log det(1 + H), which is single valued there because H decays.  The
    orientation is chosen so the result counts zeros minus poles below the
    line.
    """
    tol = 1e-11
    line = -1j * H.weight

    def g(u):
        sigma = u + line
        M = np.linalg.solve(np.eye(H.dim) + H(sigma), H.dsigma(sigma))
        return np.trace(M)

    val, err = quad_vec(g, -R_max, R_max, epsabs=tol, epsrel=tol)
    if err > 100 * tol * max(1.0, abs(val)):
        raise NumericalError("eta quadrature did not converge", error=float(err))
    # exact tails: the integrand is d/dsigma log det(1+H)
    tail = -cmath.log(H.det1p(R_max + line)) + cmath.log(H.det1p(-R_max + line))
    total = val + tail
    eta = -(total / (2j * math.pi))
    if abs(eta.imag) > 1e-8:
        raise NumericalError("eta came out non-real", value=complex(eta))
    return float(eta.real)


def _winding(values):
    phases = np.angle(values)
    d = np.diff(phases)
    d = (d + math.pi) % (2 * math.pi) - math.pi
    if np.max(np.abs(d)) > math.pi / 2:
        raise NumericalError("contour sampling too coarse for phase tracking")
    return float(np.sum(d)) / (2 * math.pi)


def argument_principle_count(H: MellinPerturbation):
    """Zeros minus poles of det(1+H) strictly below the line, by winding.

    Walks the counterclockwise boundary of the box below Im sigma = -weight
    with half-width 4 (pole radius + |weight|), which contains every finite
    zero and pole, tracking the phase of the determinant; the sampling
    starts at 2000 points per side and is doubled until adjacent phase
    steps are small.
    """
    R = 4.0 * H.pole_radius() + abs(H.weight) * 4.0
    y_top = -H.weight
    y_bot = -R
    for attempt in range(6):
        n = 2000 * 2 ** attempt
        top = np.linspace(R, -R, n) + 1j * y_top       # right to left
        left = -R + 1j * np.linspace(y_top, y_bot, n)  # downward
        bot = np.linspace(-R, R, n) + 1j * y_bot       # left to right
        right = R + 1j * np.linspace(y_bot, y_top, n)  # upward
        contour = np.concatenate([top, left[1:], bot[1:], right[1:]])
        vals = H.det1p(contour)
        try:
            wind = _winding(np.append(vals, vals[0]))
        except NumericalError:
            continue
        count = round(wind)
        if abs(wind - count) > 1e-6:
            continue
        return int(count)
    raise NumericalError("winding count did not stabilize")


# ---------------------------------------------------------------------------
# McKean-Singer traces and the constant term


def mckean_singer(B, t_list):
    """Difference Tr exp(-t B*B) - Tr exp(-t BB*) for a finite matrix B.

    Computed through singular values; the nonzero singular spectra agree,
    so each value equals the dimension gap dim ker(B) - dim ker(B*).
    """
    B = np.asarray(B, dtype=float) if np.isrealobj(B) else np.asarray(B, dtype=complex)
    s = np.linalg.svd(B, compute_uv=False)
    rows, cols = B.shape
    out = []
    for t in np.atleast_1d(t_list):
        e = np.exp(-t * s * s)
        val = (np.sum(e) + (cols - len(s))) - (np.sum(e) + (rows - len(s)))
        out.append(float(val))
    return np.asarray(out)


@dataclass
class OmegaResult:
    value: float
    undecided: bool
    log_flags: list
    residual: float
    window_spread: float


def omega_constant(B):
    """Constant term of the heat-trace difference of a matrix map B.

    Samples the difference at 48 times geometric in [0.05, 5] and fits it
    with the constant plus probe columns at (0, 1) and (0, 2); log probes
    that come out detected are flagged.  Values below 1e-10 count as zero;
    returns UNDECIDED when the constant is not separated from noise.
    """
    B = np.asarray(B)
    t_lo, t_hi, noise_floor = 0.05, 5.0, 1e-10
    ts = np.geomspace(t_lo, t_hi, 48)
    vals = mckean_singer(B, ts)
    spread = float(np.max(vals) - np.min(vals))
    if np.max(np.abs(vals)) < noise_floor:
        return OmegaResult(0.0, False, [], 0.0, spread)
    series = TraceSeries(ts, vals, np.zeros_like(ts), "heat", {"kind": "ms"})
    fit = fit_expansion(series, [(0.0, 2)])
    flags = [(t.gamma, t.logpow) for t in fit.detected_terms() if t.logpow > 0]
    c = fit.coeff(0.0, 0).real
    undecided = abs(c) > noise_floor and fit.residual > 0.25 * abs(c)
    # window stability: refit on the upper half of the window
    fit2 = fit_expansion(series, [(0.0, 2)],
                         window=(math.sqrt(t_lo * t_hi), t_hi))
    spread2 = abs(fit2.coeff(0.0, 0).real - c)
    return OmegaResult(float(c), bool(undecided), flags, fit.residual,
                       float(spread2))


# ---------------------------------------------------------------------------
# assembly


@dataclass
class Factorization:
    """Elliptic factor with empty boundary spectrum plus a Mellin perturbation."""

    B: object                 # matrix realization of the elliptic factor
    H: MellinPerturbation


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


def index_assemble(fact: Factorization):
    """Index = constant term of the factor's heat difference minus eta."""
    om = omega_constant(fact.B)
    if om.undecided:
        raise NumericalError("constant term undecided", residual=om.residual)
    eta = eta_term(fact.H)
    value = om.value - eta
    dist = abs(value - round(value))
    flags = {"omega_log_flags": len(om.log_flags),
             "eta_integer_distance": f"{abs(eta - round(eta)):.2e}"}
    return IndexReport(om.value, eta, value, dist, flags)


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
    mu = op.mu
    tests = []
    decays = [0.05, 0.3, 0.8]
    for i in range(12):
        delta = decays[i % len(decays)]
        env = disc.x ** (mu / 2.0 + delta)
        k = 1 + i % 4
        phase = rng.uniform(0, 2 * math.pi)
        u = env * np.sin(math.pi * k * (disc.s - disc.s_min)
                         / (disc.s_max - disc.s_min) + 0.0) * math.cos(phase)
        u = u + 0.3 * env * rng.standard_normal() * np.sin(
            2 * math.pi * (disc.s - disc.s_min) / (disc.s_max - disc.s_min))
        tests.append(u)
    m0 = 0  # the reduction acts mode by mode; mode zero exercises it fully
    ratios = []
    taus = np.asarray(sorted(tau_list, reverse=True), dtype=float)
    for tau in taus:
        phi_tau = 1.0 - smoothstep(disc.x / tau - 1.0)
        worst = 0.0
        for u in tests:
            au = disc.apply(m0, u)
            a0u = disc0.apply(m0, u)
            diff = phi_tau * (au - a0u)
            denom = disc.norm_w(u) + disc.norm_w(au)
            worst = max(worst, disc.norm_w(diff) / max(denom, 1e-300))
        ratios.append(worst)
    ratios = np.asarray(ratios)
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


def invariance_red_to_sobolev(disc, eps_list):
    """Kernel and cokernel dimensions of the weight-shifted realizations.

    On the truncated grid the factor x^eps is an invertible diagonal, so
    the dimensions are read from the singular values of the polynomial
    part: those below 1e-8 of the largest count as kernel, and those
    within a further factor 10 give an UNDECIDED (None) dimension rather
    than a count.  An eps is flagged as a crossing when shifting the
    weight by eps moves a boundary-spectrum pole (searched in
    |Im sigma| <= mu + max |eps| + 2) across one of the reference lines
    Im sigma = +-mu/2.

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
    for m in disc.mode_list():
        d, e = disc.matrix(m)
        K = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
        sv = np.linalg.svd(K, compute_uv=False)
        top = sv[0]
        small = sv < 1e-8 * top
        amb = (~small) & (sv < 10 * 1e-8 * top)
        if np.any(amb):
            undecided = True
        total += int(np.sum(small))
    dim = None if undecided else total
    rows = []
    for eps in eps_list:
        crossing = any(
            (-mu / 2.0 < v <= -mu / 2.0 + eps) or (mu / 2.0 - eps <= v < mu / 2.0)
            for v in ims) if eps > 0 else False
        rows.append(SobolevReductionRow(float(eps), dim, dim, bool(crossing)))
    return SobolevReductionReport(rows)
