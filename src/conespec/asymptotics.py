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
tolerances their checks apply.  They evaluate the whole grid at once by
composite 24-point Gauss-Legendre (``_composite_gauss``), in the log
variable for fiber integrals and the dilation ODE and in a mapped variable
for the frequency integrals: the panel count doubles until every grid
point changes by at most ``_QUAD_TOL`` relative, that change is the
point's error estimate, and a rule that does not get there raises.  The
fiber integral and the ODE take the integrand's joins (``points``, the
arguments at which it is not smooth, as in QUADPACK): each row is cut
there into pieces, and every piece gets the same number of equal panels.
Gauss-Legendre converges geometrically on a piece where the integrand is
analytic but only algebraically across a join inside a panel, so the C^3
``smoothstep`` cutoffs converge at 8 panels a piece with their joins on
panel edges, against 256 panels without.  The
right-hand side of the component integral's Euler identity stays on
QUADPACK, so that identity compares two independent rules.  The eta
integral of ``index`` runs QUADPACK's 21-point Gauss-Kronrod rule
adaptively on all pending intervals at once (``adaptive_gk21``).  The
fits carry two probe columns ``_PROBE_OFFSET`` = 0.37 either side of the
leading predicted exponent, off the quarter-integer lattices in use: a
detected probe flags a term outside the prediction.
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

# t lam past which heat sums, the zeta continuation and the contour heat
# trace drop exp(-t lam), as e^-46 < 1e-20
HEAT_CUTOFF_EXPONENT = 46.0
_DETECT_FACTOR = 10.0
_COND_LIMIT = 1e12
_QUAD_TOL = 1e-11
_PROBE_OFFSET = 0.37
# Gauss-Legendre rules by size: 24 points for the composite oracles and the
# contour heat trace, 48 for the zeta continuation's upper integral
_GL_RULES = {n: np.polynomial.legendre.leggauss(n) for n in (24, 48)}
_START_PANELS = 4
_MAX_PANELS = 4096
# nodes evaluated per block of rows, bounding the temporaries' memory
_BLOCK_NODES = 2 ** 16


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


def check_sample_count(samples, columns, **payload):
    """Refuse fewer than four samples a column (``payload`` first)."""
    if samples < 4 * columns:
        raise ConfigurationError("not enough samples for the requested terms",
                                 **payload, samples=samples, terms=columns,
                                 needed=4 * columns)


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
    check_sample_count(len(x), len(cols))
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


def _gauss_panels(edges, size):
    """``size``-point Gauss-Legendre nodes and weights (``size`` a key of
    ``_GL_RULES``) on the panels between consecutive ``edges`` (last
    axis), concatenated panel by panel."""
    edges = np.asarray(edges, dtype=float)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    shape = edges.shape[:-1] + (-1,)
    x, w = _GL_RULES[size]
    nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
    weights = 0.5 * (b - a) * w
    return nodes.reshape(shape), weights.reshape(shape)


def _composite_gauss(f, lo, hi, *params, breaks=()):
    """Row-wise int_lo^hi f(s, *params) ds by composite Gauss-Legendre.

    ``lo``, ``hi`` and each of ``params`` broadcast to one value per row.
    ``f`` gets the nodes as a (rows, nodes) array and each param as a
    (rows, 1) column; it may return anything that broadcasts against the
    nodes, a constant included.  ``breaks`` (last axis the breakpoints,
    broadcasting to one set per row) are the joins where f is not smooth:
    each row is cut there into pieces, a breakpoint outside [lo, hi]
    being clipped to the nearer end, where its piece has zero width.  The
    rule converges geometrically on a piece where f is analytic but only
    algebraically across a join inside a panel, so the joins belong on
    panel edges.  Every piece is split into the same number of equal
    panels, starting at ``_START_PANELS`` and doubling until every row
    changes by at most ``_QUAD_TOL`` relative; without breaks a row is one
    piece.  Returns the values and those changes as per-row error
    estimates.  Raises NumericalError when ``_MAX_PANELS`` panels do not
    meet the tolerance.
    """
    lo, hi, *params = (np.ravel(v) for v in
                       np.broadcast_arrays(lo, hi, *params))
    breaks = np.asarray(breaks, dtype=float)
    breaks = np.broadcast_to(breaks, (len(lo), breaks.shape[-1]))
    inner = np.sort(np.clip(breaks, lo[:, None], hi[:, None]), axis=1)
    knots = np.concatenate([lo[:, None], inner, hi[:, None]], axis=1)
    a, width = knots[:, :-1, None], (knots[:, 1:] - knots[:, :-1])[:, :, None]
    panels, prev = _START_PANELS, None
    while panels <= _MAX_PANELS:
        edges = a + width * np.linspace(0.0, 1.0, panels + 1)
        step = max(1, _BLOCK_NODES // (edges.shape[1] * panels * 24))
        parts = []
        for i in range(0, len(lo), step):
            blk = slice(i, i + step)
            s, w = (v.reshape(v.shape[0], -1)
                    for v in _gauss_panels(edges[blk], 24))
            cols = [p[blk, None] for p in params]
            parts.append(np.sum(w * f(s, *cols), axis=-1))
        val = np.concatenate(parts)
        if prev is not None:
            err = np.abs(val - prev)
            if np.all(err <= _QUAD_TOL * np.abs(val)):
                return val, err
        prev = val
        panels *= 2
    raise NumericalError("composite Gauss quadrature did not converge",
                         panels=_MAX_PANELS, error=float(np.max(err)))


# QUADPACK qk21 (Piessens et al. 1983): the 21 Kronrod nodes on [-1, 1]
# from +1 down, their weights, and the weights of the 10-point Gauss rule
# on the nodes of odd index
_GK21_NODES = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
_GK21_NODES = np.concatenate([_GK21_NODES, -_GK21_NODES[-2::-1]])
_GK21_WEIGHTS = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077748109213339, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_GK21_WEIGHTS = np.concatenate([_GK21_WEIGHTS, _GK21_WEIGHTS[-2::-1]])
_G10_WEIGHTS = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])
_G10_WEIGHTS = np.concatenate([_G10_WEIGHTS, _G10_WEIGHTS[::-1]])
_GK_MAX_INTERVALS = 10000


def _gk21(f, lo, hi):
    """qk21 on each interval [lo_i, hi_i], from one call of ``f`` on an
    (intervals, 21) node array: values, QUADPACK error estimates, and
    whether each estimate is the roundoff floor."""
    c, h = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fv = f(c[:, None] + h[:, None] * _GK21_NODES)
    kron = fv @ _GK21_WEIGHTS
    gauss = fv[:, 1::2] @ _G10_WEIGHTS
    # the spread of f about its mean scales the raw |K - G| as in QUADPACK
    dabs = h * (np.abs(fv - 0.5 * kron[:, None]) @ _GK21_WEIGHTS)
    err = h * np.abs(kron - gauss)
    scale = (dabs != 0) & (err != 0)
    err[scale] = dabs[scale] * np.minimum(
        1.0, (200.0 * err[scale] / dabs[scale]) ** 1.5)
    # roundoff floor: 50 eps times the integral of |f|
    floor = 50.0 * np.finfo(float).eps * h * (np.abs(fv) @ _GK21_WEIGHTS)
    return h * kron, np.maximum(err, floor), err <= floor


def adaptive_gk21(f, a, b, tol):
    """int_a^b f by adaptive 21-point Gauss-Kronrod, level by level.

    ``f`` takes an array of nodes and returns values of the same shape.
    Every round evaluates the rule on all pending intervals in one call of
    ``f``; the error of an interval is QUADPACK's estimate (as in scipy's
    ``quad_vec``).  It stops when the summed error is at most
    max(tol, tol |value|), and otherwise bisects every interval whose
    error exceeds its length share of that budget, unless that error is
    the roundoff floor: bisection does not lower the summed floor, and
    near a sharp peak it would keep halving every interval in reach.  When
    no interval is left to bisect, or a round would pass
    ``_GK_MAX_INTERVALS`` intervals, the value is returned with the error
    reached: as with ``quad_vec``'s limit, the caller judges it.  Returns
    (value, error estimate).
    """
    lo, hi = np.array([float(a)]), np.array([float(b)])
    vals, errs, floored = _gk21(f, lo, hi)
    while True:
        val, err = vals.sum(), float(errs.sum())
        budget = max(tol, tol * abs(val))
        split = (errs > budget * (hi - lo) / (b - a)) & ~floored
        n_split = np.count_nonzero(split)
        # a non-finite error splits nothing and ends the loop too
        if err <= budget or not n_split or len(lo) + n_split > _GK_MAX_INTERVALS:
            return val, err
        mid = 0.5 * (lo[split] + hi[split])
        halves = (np.concatenate([lo[split], mid]),
                  np.concatenate([mid, hi[split]]))
        keep = ~split
        lo, hi, vals, errs, floored = (
            np.concatenate([kept[keep], added]) for kept, added in
            zip((lo, hi, vals, errs, floored), halves + _gk21(f, *halves)))


def _log_joins(points):
    """Logs of an integrand's joins, refused unless finite and positive."""
    points = np.asarray(points, dtype=float).ravel()
    if not np.all(np.isfinite(points) & (points > 0)):
        raise ConfigurationError("joins must be finite and positive",
                                 points=points.tolist())
    return np.log(points)


def pushforward_fund2(u, E_lb, E_rb, x_grid, points=()):
    """Fiber integral v(x) = int_x^1 u(x/y, y) dy/y and its expansion check.

    The integral runs in s = -log y over the whole grid at once, so ``u``
    is called with arrays (it may return a constant).  ``points`` are the
    values of either argument of u at which u is not smooth, as in
    QUADPACK's ``points``: a join p of the y argument sits at s = -log p,
    and of the x argument at s = -log x + log p, and each becomes a panel
    edge.  The expansion of v at 0 must lie in the extended union of the
    two index sets of u (see ``_fit_against_union``).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    sigma = -np.log(x_grid)
    logs = _log_joins(points)
    breaks = np.concatenate([np.broadcast_to(-logs, (len(sigma), len(logs))),
                             sigma[:, None] + logs], axis=1)
    vals, _ = _composite_gauss(
        lambda s, sig: u(np.exp(-(sig - s)), np.exp(-s)), 0.0, sigma, sigma,
        breaks=breaks)
    return _fit_against_union(x_grid, vals, extended_union(E_lb, E_rb),
                              "pushforward")


def ode_fund1(g, a, E, x_grid, points=()):
    """Decaying solution of (x d/dx - a) f = g and its expansion check.

    f(x) = -x^a int_x^inf y^(-a) g(y) dy/y, integrated in s = log y over
    the whole grid at once, so ``g`` is called with arrays (it may return
    a constant); g must vanish for x >= 2.  ``points`` are the values of y
    at which g is not smooth; each log p becomes a panel edge.  The
    expansion of f at 0 lies in the extended union of E with the
    singleton {(a, 0)} (see ``_fit_against_union``).
    """
    a = complex(a)
    if abs(a.imag) > 1e-12:
        raise ConfigurationError("real exponents only in the fitter", a=a)
    x_grid = np.asarray(x_grid, dtype=float)
    # points at or beyond 2 get the empty interval [log 2, log 2]
    lo = np.log(np.minimum(x_grid, 2.0))
    ints, _ = _composite_gauss(lambda s: np.exp(-a.real * s) * g(np.exp(s)),
                               lo, math.log(2.0), breaks=_log_joins(points))
    vals = -(x_grid ** a.real) * ints
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
    """int_lo^hi f of a complex integrand, as two real quadratures.

    Raises NumericalError when the two error estimates add up to more than
    100 ``_QUAD_TOL`` of the value.
    """
    re, err_re = quad(lambda xi: f(xi).real, lo, hi,
                      epsabs=0.0, epsrel=_QUAD_TOL, limit=limit)
    im, err_im = quad(lambda xi: f(xi).imag, lo, hi,
                      epsabs=0.0, epsrel=_QUAD_TOL, limit=limit)
    value = re + 1j * im
    if err_re + err_im > 100 * _QUAD_TOL * abs(value):
        raise NumericalError("complex quadrature did not converge",
                             error=err_re + err_im, value=value)
    return value


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
    quadratures.  A is evaluated for all z at once, so ``chi`` and ``a_k``
    are called with arrays (``a_k`` with a column of lambda values); the
    Gauss rule covers |xi| in [r/2, r], r the excision radius, directly and
    [r, inf) through xi = r + c t / (1 - t), c = max(r, 1/z).  The right
    side stays on QUADPACK, one z at a time.  Requires degree
    mu' - N mu - k < -n for integrability.
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
    radius = chi.radius

    def both_signs(xi, lam):
        return chi(xi) * a_k(xi, lam) + chi(-xi) * a_k(-xi, lam)

    # [r, inf) in t = u / (c + u), u = xi - r: c = max(r, 1/z) follows
    # the decay scale |lam|^(1/mu) = 1/z of a_k
    def mapped(t, lam, c):
        return c / (1.0 - t) ** 2 * both_signs(radius + c * t / (1.0 - t), lam)

    def A(z):
        lam = z ** (-mu) * ray
        near, _ = _composite_gauss(both_signs, radius / 2.0, radius, lam)
        far, _ = _composite_gauss(mapped, 0.0, 1.0, lam,
                                  np.maximum(radius, 1.0 / z))
        return (near + far) / (2.0 * math.pi)

    vals = A(z_grid)
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
        out = 0.0
        for sgn in (+1.0, -1.0):
            out += _quad_complex(lambda xi: (chi.xi_dchi(sgn * xi)
                                             * atilde(sgn * xi, z ** mu)),
                                 radius / 2.0, radius, 200)
        return -(z ** (mu * N)) * out / (2.0 * math.pi)

    stride = max(1, len(z_grid) // 8)
    sub = z_grid[::stride]
    # five-point z d/dz in log z with step hl; A(z) itself is in vals
    hl = 1e-3
    shifted = A((sub[:, None] * np.exp(hl * np.array([-2.0, -1.0, 1.0, 2.0])))
                .ravel()).reshape(len(sub), 4)
    zddz = (shifted[:, 0] - 8 * shifted[:, 1] + 8 * shifted[:, 2]
            - shifted[:, 3]) / (12 * hl)
    worst = 0.0
    for z, lhs in zip(sub, zddz - gamma * vals[::stride]):
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
    lam_min t is past ``HEAT_CUTOFF_EXPONENT``; ``truncation_bound`` bounds
    what that leaves out.
    """

    def __init__(self, spectral_source, fit, *, t0=0.1, meta=None):
        self.fit = fit
        self.t0 = float(t0)
        self.source = spectral_source
        self.meta = dict(meta or fit.meta)
        self.mu, self.n = self.meta["mu"], self.meta["n"]
        self._poles = None
        # quadrature nodes for the entire piece over [t0, inf): substituting
        # t = t0 e^v the heat values are z independent and cached once
        lam_min = self.source.min_eig()
        v_max = math.log(HEAT_CUTOFF_EXPONENT / (self.t0 * lam_min) + 2.0)
        self._lam_min = lam_min
        self._t_max = self.t0 * math.exp(v_max)
        self._vq, self._wq = _gauss_panels(np.linspace(0.0, v_max, 9), 48)
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
