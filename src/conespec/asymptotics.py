"""Log-polynomial expansion fitting, predicted exponent lattices, and the
zeta function by Mellin continuation of a fitted heat trace.

A fitted expansion is a sum of terms c * t^gamma * (log t)^j with j in
{0, 1, 2}.  Which (gamma, j) columns are admissible comes from three
exponent families determined by the order data (mu, mu', beta, n, N):
the interior family (k - mu' - n)/mu, the boundary-weight family
(k - beta)/mu and the integer family, with log powers allowed only on
the stated sub-lattices.  The fitter decides presence of a term by the
residual inflation caused by removing its column (factor 10); designs
with equilibrated condition number above 1e12 are refused; overlapping
families are merged to a single column per (gamma, j), and no attribution
of a coefficient to a particular family is attempted.

The quadrature oracles integrate to relative tolerance ``_QUAD_TOL`` =
1e-11, below the 1e-5 fit residual and the 1e-6 to 1e-8 coefficient
tolerances their checks apply.  Their fits carry two probe columns
``_PROBE_OFFSET`` = 0.37 either side of the leading predicted exponent,
off the quarter-integer lattices in use: a detected probe flags a term
outside the prediction.
"""

import cmath
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import quad
from scipy.special import hyperu, rgamma

from .errors import (ConditioningError, ConfigurationError, NumericalError,
                     ZetaPoleError)
from .indexsets import IndexSet, extended_union

_DETECT_FACTOR = 10.0
_COND_LIMIT = 1e12
_QUAD_TOL = 1e-11
_PROBE_OFFSET = 0.37


# ---------------------------------------------------------------------------
# predicted terms


def _is_nonneg_int(x):
    return x > -1e-9 and abs(x - round(x)) <= 1e-9


def predict_terms(mu, mu_prime, beta, n, k_max, *, kind="heat", N=None):
    """Admissible (exponent, max log power) pairs for trace expansions.

    ``k_max`` indexes the depth of the interior family; the other two
    families are truncated at the same exponent reach, so k_max = 0
    yields the single leading term.  For kind="resolvent" the exponents
    are the large-parameter powers (requires N); the log lattices are the
    same in both pictures.
    """
    mu = float(mu)
    if kind == "resolvent" and N is None:
        raise ConfigurationError("resolvent prediction needs N")

    def logpow_interior(k):
        in_b = _is_nonneg_int(k - (mu_prime + n - beta)) or \
            _is_nonneg_int((k - (mu_prime + n)) / mu)
        j = k - (mu_prime + n)
        in_c = _is_nonneg_int(j / mu) and _is_nonneg_int(j + beta)
        return 2 if in_c else (1 if in_b else 0)

    def logpow_weight(k):
        return 1 if _is_nonneg_int((k - beta) / mu) else 0

    merged = {}

    def put(gamma, maxlog):
        key = round(gamma, 9)
        if key not in merged or merged[key][1] < maxlog:
            merged[key] = (gamma, maxlog)

    for k in range(0, int(k_max) + 1):
        if kind == "heat":
            put((k - mu_prime - n) / mu, logpow_interior(k))
        else:
            put((mu_prime + n - k) / mu - N, logpow_interior(k))
    k2_max = int(math.floor(k_max - mu_prime - n + beta + 1e-9))
    for k in range(0, k2_max + 1):
        if kind == "heat":
            put((k - beta) / mu, logpow_weight(k))
        else:
            put((beta - k) / mu - N, logpow_weight(k))
    k3_max = int(math.floor((k_max - mu_prime - n) / mu + 1e-9))
    for k in range(0, k3_max + 1):
        put(float(k) if kind == "heat" else -float(k) - N, 0)

    out = sorted(merged.values(), key=lambda t: t[0])
    if kind == "resolvent":
        out = sorted(out, key=lambda t: -t[0])
    return out


def expand_columns(terms):
    """Flatten (gamma, maxlog) pairs into explicit (gamma, j) columns."""
    cols = []
    for gamma, maxlog in terms:
        for j in range(int(maxlog) + 1):
            cols.append((float(gamma), j))
    return sorted(set(cols))


def columns_from_indexset(E, gamma_cap):
    """Fit columns x^z (log x)^k, Re z <= gamma_cap, from a real-exponent index set."""
    cols = []
    for z, k in E:
        if abs(z.imag) > 1e-9:
            raise ConfigurationError("fitting supports real exponents only",
                                     exponent=z)
        if z.real <= gamma_cap + 1e-9:
            cols.append((float(z.real), int(k)))
    return sorted(set(cols))


# ---------------------------------------------------------------------------
# the fitter


@dataclass
class FittedTerm:
    gamma: float
    logpow: int
    coeff: complex
    detected: bool


@dataclass
class LogPolyExpansion:
    """Least-squares expansion sum c * t^gamma (log t)^j with diagnostics.

    ``terms`` carry per-column detection flags (residual inflation when the
    single column is removed); ``exponent_flags`` records the stronger
    family-level detection where every column at one exponent is removed
    jointly, which is robust against log-partner collinearity.
    """

    terms: list
    window: tuple
    residual: float
    conditioning: float
    meta: dict = field(default_factory=dict)
    exponent_flags: dict = field(default_factory=dict)

    def coeff(self, gamma, logpow=0):
        for t in self.terms:
            if abs(t.gamma - gamma) < 1e-9 and t.logpow == logpow:
                return t.coeff
        return 0.0

    def detected_terms(self):
        return [t for t in self.terms if t.detected]

    def detected_exponents(self):
        """Exponents detected at the family level (all log powers jointly)."""
        per_col = {t.gamma for t in self.detected_terms()}
        strong = {g for g, flag in self.exponent_flags.items() if flag}
        return sorted(per_col | strong)

    def exponent_detected(self, gamma):
        key = round(float(gamma), 9)
        for g, flag in self.exponent_flags.items():
            if abs(g - key) < 1e-9 and flag:
                return True
        return any(t.detected and abs(t.gamma - gamma) < 1e-9
                   for t in self.terms)

    def leading_detected(self):
        det = self.detected_terms()
        if not det:
            raise NumericalError("no detected terms")
        return min(det, key=lambda t: t.gamma)

    def evaluate(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=complex)
        for t in self.terms:
            out += t.coeff * x ** t.gamma * np.log(x) ** t.logpow
        return out

    def to_csv_rows(self):
        rows = [("gamma", "logpow", "coeff_re", "coeff_im", "detected")]
        for t in self.terms:
            c = complex(t.coeff)
            rows.append((f"{t.gamma:.12g}", t.logpow, f"{c.real:.16e}",
                         f"{c.imag:.16e}", int(t.detected)))
        return rows


def _design(x, cols):
    logs = np.log(x)
    A = np.empty((len(x), len(cols)))
    for c, (gamma, j) in enumerate(cols):
        A[:, c] = x ** gamma * logs ** j
    return A


def _weighted_lstsq(A, y, wts):
    Aw = A * wts[:, None]
    yw = y * wts
    scale = np.linalg.norm(Aw, axis=0)
    scale[scale == 0] = 1.0
    An = Aw / scale[None, :]
    cond = float(np.linalg.cond(An))
    coef, _, _, _ = np.linalg.lstsq(An, yw, rcond=None)
    coef = coef / scale
    resid = float(np.linalg.norm(Aw @ coef - yw) / math.sqrt(len(yw)))
    return coef, resid, cond


def fit_expansion(series, terms, window=None, *, meta=None):
    """Weighted least squares fit of a log-polynomial expansion.

    ``series`` is a TraceSeries or an (x, y) pair; ``terms`` is a list of
    (gamma, maxlog) pairs or explicit (gamma, j) columns.  At least four
    samples per column are required.  Rows are scaled by 1/|y| so exponent
    ranges spanning many decades are balanced.  A term counts as detected
    when removing its column inflates the residual by at least
    ``_DETECT_FACTOR``.  Designs with equilibrated condition number above
    ``_COND_LIMIT`` are refused.
    """
    if hasattr(series, "params"):
        x = np.asarray(series.params, dtype=float)
        y = np.asarray(series.values)
        meta = dict(series.meta) if meta is None else meta
    else:
        x, y = series
        x = np.asarray(x, dtype=float)
        y = np.asarray(y)
        meta = meta or {}
    if window is not None:
        mask = (x >= window[0]) & (x <= window[1])
        x, y = x[mask], y[mask]
    else:
        window = (float(np.min(x)), float(np.max(x)))
    # input pairs are (gamma, max log power); lower log powers are implied
    cols = expand_columns(terms)
    if len(x) < 4 * len(cols):
        raise ConfigurationError("not enough samples for the requested terms",
                                 samples=len(x), terms=len(cols),
                                 needed=4 * len(cols))
    wts = 1.0 / np.maximum(np.abs(y), 1e-14 * np.max(np.abs(y)))
    A = _design(x, cols)
    coef, resid, cond = _weighted_lstsq(A, y, wts)
    if cond > _COND_LIMIT:
        raise ConditioningError(
            "design too ill conditioned; shrink the term list or the window",
            conditioning=cond, terms=len(cols), window=window)
    floor = max(resid, 1e-15)

    def resid_without(drop):
        keep = [k for k in range(len(cols)) if k not in drop]
        if keep:
            _, r, _ = _weighted_lstsq(A[:, keep], y, wts)
            return r
        return float(np.linalg.norm(y * wts) / math.sqrt(len(y)))

    fitted = []
    for c in range(len(cols)):
        detected = resid_without({c}) >= _DETECT_FACTOR * floor
        gamma, j = cols[c]
        fitted.append(FittedTerm(gamma, j, complex(coef[c]), bool(detected)))
    exponent_flags = {}
    for gamma in sorted({g for g, _ in cols}):
        drop = {k for k, (g, _) in enumerate(cols) if abs(g - gamma) < 1e-12}
        exponent_flags[round(gamma, 9)] = bool(
            resid_without(drop) >= _DETECT_FACTOR * floor)
    return LogPolyExpansion(fitted, window, resid, cond, meta, exponent_flags)


def fitted_leading_exponent(series, window):
    """Leading exponent from local log-log slopes, extrapolated to zero.

    The local slope of a series c x^g (1 + corrections) approaches g with
    corrections proportional to powers of x; fitting the sampled slopes
    against [1, x^0.5, x, x^1.5] and reading off the intercept removes the
    subleading bias that a raw slope estimate suffers.
    """
    x = np.asarray(series.params, dtype=float)
    y = np.abs(np.asarray(series.values))
    mask = (x >= window[0]) & (x <= window[1]) & (y > 0)
    x, y = x[mask], y[mask]
    if len(x) < 8:
        raise ConfigurationError("window too small for an exponent fit")
    lx, ly = np.log(x), np.log(y)
    slopes = (ly[2:] - ly[:-2]) / (lx[2:] - lx[:-2])
    xm = x[1:-1]
    A = np.column_stack([np.ones_like(xm)] +
                        [xm ** p for p in (0.5, 1.0, 1.5)])
    coef, _, _, _ = np.linalg.lstsq(A, slopes, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# expansion oracles for fiber integrals and the dilation ODE


@dataclass
class ExpansionVerdict:
    passed: bool
    detected: list
    predicted: list
    absent: list
    extra_detected: list
    residual: float


def _verdict(expansion, predicted_cols):
    detected = [(t.gamma, t.logpow) for t in expansion.detected_terms()]
    pred = set(predicted_cols)
    extra = [c for c in detected if c not in pred]
    absent = [c for c in predicted_cols if c not in detected]
    passed = not extra and expansion.residual < 1e-5
    return ExpansionVerdict(bool(passed), detected, list(predicted_cols),
                            absent, extra, expansion.residual)


def _fit_against_union(x_grid, vals, union, kind):
    """Fit against the columns of ``union`` the grid resolves, plus probes.

    The verdict fails if a probe (or any other non-predicted term) is
    detected; predicted but absent terms are reported informationally.
    All-zero values pass with no terms.
    """
    predicted = columns_from_indexset(union, _resolvable_cap(x_grid, union))
    if not predicted:
        raise ConfigurationError("empty predicted term set")
    if np.max(np.abs(vals)) < 1e-14:
        exp = LogPolyExpansion([], (float(x_grid.min()), float(x_grid.max())),
                               0.0, 1.0, {"kind": kind})
        return exp, ExpansionVerdict(True, [], predicted, predicted, [], 0.0)
    lo = min(g for g, _ in predicted)
    probes = [(lo - _PROBE_OFFSET, 0), (lo + _PROBE_OFFSET, 0)]
    cols = sorted(set(predicted) | set(probes))
    exp = fit_expansion((x_grid, vals), cols, meta={"kind": kind})
    return exp, _verdict(exp, predicted)


def _resolvable_cap(x_grid, union):
    # terms with gamma beyond the leading one by more than the window
    # dynamic range are not identifiable from the data
    lo = min((z.real for z, k in union), default=0.0)
    span = math.log(float(np.max(x_grid)) / float(np.min(x_grid)))
    return lo + max(2.0, 0.45 * span / math.log(10.0) * 2.2)


def pushforward_fund2(u, E_lb, E_rb, x_grid):
    """Fiber integral v(x) = int_x^1 u(x/y, y) dy/y and its expansion check.

    The expansion of v at 0 must lie in the extended union of the two
    index sets of u (see ``_fit_against_union``).
    """
    x_grid = np.asarray(x_grid, dtype=float)

    def v(x):
        sigma = -math.log(x)
        val, err = quad(lambda s: u(math.exp(-(sigma - s)), math.exp(-s)),
                        0.0, sigma, epsabs=0.0, epsrel=_QUAD_TOL, limit=400)
        return val

    vals = np.array([v(x) for x in x_grid])
    return _fit_against_union(x_grid, vals, extended_union(E_lb, E_rb),
                              "pushforward")


def ode_fund1(g, a, E, x_grid):
    """Decaying solution of (x d/dx - a) f = g and its expansion check.

    f(x) = -x^a int_x^inf y^(-a) g(y) dy/y, computed by quadrature (g must
    vanish for x >= 2); the expansion of f at 0 lies in the extended union
    of E with the singleton {(a, 0)} (see ``_fit_against_union``).
    """
    a = complex(a)
    if abs(a.imag) > 1e-12:
        raise ConfigurationError("real exponents only in the fitter", a=a)
    x_grid = np.asarray(x_grid, dtype=float)

    def f(x):
        if x >= 2.0:
            return 0.0
        val, err = quad(lambda s: math.exp(-a.real * s) * g(math.exp(s)),
                        math.log(x), math.log(2.0),
                        epsabs=0.0, epsrel=_QUAD_TOL, limit=400)
        return -(x ** a.real) * val

    vals = np.array([f(x) for x in x_grid])
    union = extended_union(E, IndexSet([(a, 0)], E.re_cutoff))
    return _fit_against_union(x_grid, vals, union, "ode")


# ---------------------------------------------------------------------------
# homogeneous component integrals of the trace expansion


@dataclass
class ComponentIntegralResult:
    expansion: LogPolyExpansion
    gamma: float
    identity_residual: float


def _quad_complex(f, lo, hi, limit):
    """int_lo^hi f of a complex integrand, as two real quadratures."""
    re, _ = quad(lambda xi: f(xi).real, lo, hi,
                 epsabs=0.0, epsrel=_QUAD_TOL, limit=limit)
    im, _ = quad(lambda xi: f(xi).imag, lo, hi,
                 epsabs=0.0, epsrel=_QUAD_TOL, limit=limit)
    return re + 1j * im


def trace_component_Ak(a_k, chi, z_grid, *, mu, N, mu_prime, n, k):
    """Frequency integral of one homogeneous component against the cutoff.

    Computes A(z) = (2 pi)^(-1) int chi(xi) a_k(xi, z^(-mu) e^(i theta)) dxi
    on the negative real ray, theta = pi, over the z grid, fits it against
    the lattice (mu N + mu N_0) extunion {gamma} with
    gamma = N mu - mu' - n + k, and verifies the Euler
    derivative identity

        (z d/dz - gamma) A(z) = -z^(mu N) (2 pi)^(-1)
            int (xi chi'(xi)) a~_k(xi, z^mu) dxi,

    where a~_k(xi, w) = w^(-N) a_k(xi, e^(i theta)/w), by two independent
    quadratures.  Requires degree mu' - N mu - k < -n for integrability.
    """
    if n != 1:
        raise ConfigurationError("component integrals are one dimensional here",
                                 n=n)
    degree = mu_prime - N * mu - k
    if degree >= -n:
        raise ConfigurationError("non-integrable component degree",
                                 degree=degree, n=n)
    gamma = N * mu - mu_prime - n + k
    ray = cmath.exp(1j * math.pi)
    z_grid = np.asarray(z_grid, dtype=float)

    def integrand_full(xi, z):
        return chi(xi) * a_k(xi, z ** (-mu) * ray)

    def A(z):
        lo = chi.radius / 2.0
        out = 0.0
        for sgn in (+1.0, -1.0):
            out += _quad_complex(lambda xi: integrand_full(sgn * xi, z),
                                 lo, np.inf, 400)
        return out / (2.0 * math.pi)

    vals = np.array([A(z) for z in z_grid])
    cutoff = gamma + 3 * mu + 1.0
    lattice = IndexSet([(N * mu + mu * j, 0)
                        for j in range(int((cutoff - N * mu) / mu) + 2)], cutoff)
    single = IndexSet([(gamma, 0)], cutoff)
    union = extended_union(lattice, single)
    cols = columns_from_indexset(union, _resolvable_cap(z_grid, union))
    exp = fit_expansion((z_grid, vals), cols, meta={"kind": "component",
                                                    "gamma": gamma})

    # Euler derivative identity on a z subset, by two quadratures
    def atilde(xi, w):
        return w ** (-float(N)) * a_k(xi, ray / w)

    def rhs(z):
        # the Euler derivative xi * d(chi)/d(xi) is supported in the
        # excision transition annulus
        lo = chi.radius / 2.0
        hi = chi.radius
        out = 0.0
        for sgn in (+1.0, -1.0):
            out += _quad_complex(lambda xi: (chi.xi_dchi(sgn * xi)
                                             * atilde(sgn * xi, z ** mu)),
                                 lo, hi, 200)
        return -(z ** (mu * N)) * out / (2.0 * math.pi)

    sub = z_grid[:: max(1, len(z_grid) // 8)]
    worst = 0.0
    for z in sub:
        hl = 1e-3
        vals5 = np.array([A(z * math.exp(s * hl)) for s in (-2, -1, 1, 2)])
        zddz = (vals5[0] - 8 * vals5[1] + 8 * vals5[2] - vals5[3]) / (12 * hl)
        lhs = zddz - gamma * A(z)
        r = rhs(z)
        scale = max(abs(lhs), abs(r), 1e-300)
        worst = max(worst, abs(lhs - r) / scale)
    return ComponentIntegralResult(exp, gamma, float(worst))


# ---------------------------------------------------------------------------
# zeta continuation


def mellin_t_power(gamma, j, t0, z):
    """Closed form of int_0^t0 t^(gamma - z - 1) (log t)^j dt.

    Equals the j-th derivative in w of t0^w / w at w = gamma - z, the
    meromorphic continuation in z with a pole of order j + 1 at z = gamma.
    """
    w = complex(gamma - z)
    L = math.log(t0)
    tw = cmath.exp(w * L)
    if j == 0:
        return tw / w
    if j == 1:
        return tw * (L / w - 1.0 / w ** 2)
    if j == 2:
        return tw * (L * L / w - 2.0 * L / w ** 2 + 2.0 / w ** 3)
    raise ConfigurationError("log powers above 2 are not used", j=j)


@dataclass
class PoleInfo:
    z: complex
    order: int
    residue: complex
    lattice_tag: str

    def to_row(self):
        return (f"{self.z.real:.12g}", f"{self.z.imag:.12g}", self.order,
                f"{self.residue.real:.12e}", f"{self.residue.imag:.12e}",
                self.lattice_tag)


class ZetaContinuation:
    """Meromorphic continuation of Tr A^z from a fitted heat expansion.

    zeta(z) = [sum of closed-form Mellin transforms of the fitted terms
    over (0, t0] + numerical integral over [t0, inf)] / Gamma(-z).  The
    reciprocal Gamma factor kills would-be poles at nonnegative integers.
    The numerical integral stops at t_max = t0 e^(v_max), where
    e^(-lam_min t) is below e^(-46); ``truncation_bound`` bounds what that
    leaves out.
    """

    def __init__(self, spectral_source, fit, *, t0=0.1, meta=None):
        self.fit = fit
        self.t0 = float(t0)
        self.source = spectral_source
        self.meta = dict(meta or fit.meta)
        self.mu = self.meta.get("mu", 2.0)
        self.n = self.meta.get("n", 2)
        self._poles = None
        # quadrature nodes for the entire piece over [t0, inf): substituting
        # t = t0 e^v the heat values are z independent and cached once
        lam_min = self.source.min_eig()
        v_max = math.log(46.0 / (self.t0 * lam_min) + 2.0)
        self._lam_min = lam_min
        self._t_max = self.t0 * math.exp(v_max)
        xg, wg = np.polynomial.legendre.leggauss(48)
        vs, ws = [], []
        edges = np.linspace(0.0, v_max, 9)
        for a, b in zip(edges[:-1], edges[1:]):
            vs.append(0.5 * (b - a) * xg + 0.5 * (a + b))
            ws.append(0.5 * (b - a) * wg)
        self._vq = np.concatenate(vs)
        self._wq = np.concatenate(ws)
        # one heat_sum call for the nodes and t_max; math.exp, not np.exp,
        # which may differ in the last ulp
        ts = np.array([self.t0 * math.exp(v) for v in self._vq] + [self._t_max])
        heat, tail = self.source.heat_sum(ts)
        self._fq = heat[:-1]
        self._theta_max = float(heat[-1] + tail[-1])

    # -- raw pieces ---------------------------------------------------------

    def _upper_integral(self, z):
        total = np.sum(self._wq * np.exp(-z * self._vq) * self._fq)
        return self.t0 ** (-z) * total

    def truncation_bound(self, z):
        """Bound on |zeta(z)| dropped by stopping the integral at t_max.

        For t >= t_max every eigenvalue is at least lam_min, so the heat
        trace is at most theta e^(-lam_min (t - t_max)), theta being the
        heat sum plus its tail bound at t_max.  The integral of
        t^(-Re z - 1) times that is theta e^(x) lam_min^(Re z)
        Gamma(-Re z, x), x = lam_min t_max, for Re z < 0, and at most
        theta t_max^(-Re z - 1) / lam_min for Re z >= 0.  The bound is
        scaled by |1/Gamma(-z)|, as zeta(z) is.
        """
        z = complex(z)
        s, lam, t_max = z.real, self._lam_min, self._t_max
        if s < 0:
            # e^x Gamma(a, x) = U(1 - a, 1 - a, x) (DLMF 8.5.3) stays finite
            # where exp(x) * gammaincc(a, x) * gamma(a) overflows (x > 709)
            piece = lam ** s * hyperu(1.0 + s, 1.0 + s, lam * t_max)
        else:
            piece = t_max ** (-s - 1.0) / lam
        return float(self._theta_max * piece * abs(rgamma(-z)))

    def mellin_value(self, z):
        total = self._upper_integral(z)
        for term in self.fit.terms:
            total += term.coeff * mellin_t_power(term.gamma, term.logpow,
                                                 self.t0, z)
        return total

    def value(self, z):
        """zeta(z); refused within 0.01 of a reported pole."""
        z = complex(z)
        for p in self.pole_report():
            if abs(z - p.z) < 0.01:
                raise ZetaPoleError("evaluation at a reported pole",
                                    z=z, pole=p.z, order=p.order)
        return self.mellin_value(z) * rgamma(-z)

    # -- poles ----------------------------------------------------------------

    def pole_report(self):
        """Poles with orders, residues and lattice tags from the fitted terms.

        Candidates are the fitted exponents; the pole order and leading
        Laurent data are measured on a circle of radius 0.03 (32 nodes),
        which automatically accounts for the zeros of 1/Gamma at
        nonnegative integers.  A Laurent coefficient counts as present when
        it exceeds 1e-6 times the circle maximum (in circle units).
        """
        if self._poles is not None:
            return self._poles
        radius, M = 0.03, 32
        out = []
        seen = set()
        for term in self.fit.terms:
            g = round(term.gamma, 9)
            if g in seen:
                continue
            seen.add(g)
            z0 = complex(term.gamma)
            zs = z0 + radius * np.exp(2j * math.pi * np.arange(M) / M)
            vals = np.array([self.mellin_value(z) * rgamma(-z) for z in zs])
            v_scale = float(np.max(np.abs(vals)))
            co = {k: np.mean(vals * np.exp(2j * math.pi * k * np.arange(M) / M))
                  * radius ** k for k in (1, 2, 3)}
            order = 0
            for k in (3, 2, 1):
                if abs(co[k]) > 1e-6 * v_scale * radius ** k:
                    order = k
                    break
            if order == 0:
                continue
            tag = self._lattice_tag(term.gamma)
            out.append(PoleInfo(z0, order, co[1], tag))
        out.sort(key=lambda p: p.z.real)
        self._poles = out
        return out

    def _lattice_tag(self, gamma):
        tags = []
        if _is_nonneg_int(gamma * self.mu + self.n):
            tags.append("simple")
        if _is_nonneg_int(gamma * self.mu) and not _is_nonneg_int(gamma):
            tags.append("triple")
        return "+".join(tags) if tags else "outside"

    def poles_to_csv_rows(self):
        rows = [("z_re", "z_im", "order", "residue_re", "residue_im",
                 "lattice_tag")]
        for p in self.pole_report():
            rows.append(p.to_row())
        return rows


def zeta_continue(series, fit, *, t0=0.1):
    """Continuation object built from a heat TraceSeries and its fit.

    The series must carry its spectral source (for the numerical integral
    over [t0, inf)); the fit must be valid on (0, t0].
    """
    if series.source is None:
        raise ConfigurationError("series must carry its spectral source")
    if fit.window[1] < t0 - 1e-12:
        raise ConfigurationError("fit window must reach t0",
                                 window=fit.window, t0=t0)
    return ZetaContinuation(series.source, fit, t0=t0, meta=series.meta)
