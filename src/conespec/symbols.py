"""Parameter-dependent symbols with sampled verification of their class bounds.

A symbol here is a closed-form evaluator a(xi, lam) on frequency xi (one
dimensional; the compact cross-section enters through a mode number, not
through extra frequency variables) and a spectral parameter lam ranging
over a sector.  Class membership with orders (mu, p, d) means

    |d_xi^a d_lam^b s| <= C (1+|xi|)^(mu-p-a) (1+|xi|+|lam|^(1/d))^(p-d b),

which is verified numerically: finite-difference derivatives are sampled
on geometric grids and the worst ratio against the bound must stay finite
and stable under grid refinement.  This is a numerical proxy for
boundedness, not a proof, and is reported as such.

Evaluators must broadcast over numpy arrays.  Derivatives in lam assume
holomorphy (true for every constructor in this module) and are taken as
directional finite differences along the sampled ray.

The small-parameter regime |lam| < 1 is not exercised by the sampling
grids; membership claims are tested for |lam| >= 1 only.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SymbolRejection


# ---------------------------------------------------------------------------
# sectors and excision functions


@dataclass(frozen=True)
class Sector:
    """Closed sector arg w in [arg_min, arg_max], optionally with 0."""

    arg_min: float
    arg_max: float
    contains_origin: bool = True

    def __post_init__(self):
        span = self.arg_max - self.arg_min
        if not (0.0 <= span <= 2.0 * math.pi + 1e-12):
            raise ConfigurationError("sector span must lie in [0, 2*pi]", span=span)

    def contains(self, w):
        w = complex(w)
        if w == 0:
            return self.contains_origin
        phi = math.atan2(w.imag, w.real)
        # wrap into [arg_min, arg_min + 2*pi)
        while phi < self.arg_min - 1e-15:
            phi += 2.0 * math.pi
        while phi >= self.arg_min + 2.0 * math.pi - 1e-15:
            phi -= 2.0 * math.pi
        return self.arg_min <= phi <= self.arg_max

    def rays(self, count=3):
        """Sample ray angles, endpoints included."""
        if count == 1:
            return [0.5 * (self.arg_min + self.arg_max)]
        return list(np.linspace(self.arg_min, self.arg_max, count))


LEFT_HALF_PLANE = Sector(math.pi / 2, 3 * math.pi / 2)


def smoothstep(x):
    """Monotone step, 0 for x <= 0 and 1 for x >= 1, C^3 across the joins.

    Seventh order polynomial transition: derivatives through third order
    are continuous and of moderate size, so sampled derivative checks up
    to second order resolve it on geometric grids.
    """
    t = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
    return t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


@dataclass(frozen=True)
class ChiCutoff:
    """Smooth excision of low frequencies.

    chi(xi) = 0 for |xi| <= radius/2 and 1 for |xi| >= radius, with a C^3
    polynomial transition in between (smooth enough for every sampled
    derivative order used by the seminorm checks).
    """

    radius: float = 1.0

    def __call__(self, xi):
        r = np.abs(xi)
        return smoothstep(2.0 * r / self.radius - 1.0)

    def xi_dchi(self, xi):
        """The radial Euler derivative r * d(chi)/dr, by centered differences."""
        r = np.abs(xi)
        h = 1e-6 * self.radius
        up = smoothstep(2.0 * (r + h) / self.radius - 1.0)
        dn = smoothstep(2.0 * (r - h) / self.radius - 1.0)
        return r * (up - dn) / (2.0 * h)


# ---------------------------------------------------------------------------
# symbols


class ParamSymbol:
    """Closed-form parameter-dependent symbol with order bookkeeping.

    Parameters
    ----------
    fn : callable (xi, lam) -> complex, broadcasting over arrays
    orders : (mu, p, d)
    core : callable or None
        The symbol with every excision factor replaced by 1, accepting
        complex xi.  Required for homogeneous-component extraction.
    chi_clear_radius : float
        fn agrees with core for |xi| >= this radius.
    dlam : callable or None
        Analytic derivative in lam, used to validate finite differences.
    sector : Sector or None
    """

    def __init__(self, fn, orders, *, core=None, chi_clear_radius=0.0,
                 dlam=None, sector=None, label="symbol"):
        mu, p, d = orders
        if d <= 0:
            raise ConfigurationError("anisotropy d must be positive", d=d)
        self.fn = fn
        self.mu = float(mu)
        self.p = float(p)
        self.d = float(d)
        self.n = 1
        self.core = core
        self.chi_clear_radius = float(chi_clear_radius)
        self.dlam = dlam
        self.sector = sector
        self.label = label

    @property
    def orders(self):
        return (self.mu, self.p, self.d)

    def __call__(self, xi, lam):
        return self.fn(xi, lam)

    def with_orders(self, orders):
        """Redeclare order metadata (for membership claims at other orders)."""
        return ParamSymbol(self.fn, orders, core=self.core,
                           chi_clear_radius=self.chi_clear_radius,
                           dlam=self.dlam, sector=self.sector, label=self.label)

    @staticmethod
    def constant(value, d, sector):
        v = complex(value)
        return ParamSymbol(lambda xi, lam: v * np.ones_like(np.asarray(xi, dtype=complex) * np.asarray(lam, dtype=complex)),
                           (0.0, 0.0, d),
                           core=lambda xi, lam: v + 0.0 * (np.asarray(xi, dtype=complex) + np.asarray(lam, dtype=complex)),
                           sector=sector, label=f"const({value})")

    def _combine_meta(self, other):
        if abs(self.d - other.d) > 1e-12:
            raise ConfigurationError("cannot combine symbols with different anisotropy",
                                     d_left=self.d, d_right=other.d)
        return max(self.chi_clear_radius, other.chi_clear_radius), self.sector or other.sector

    def __add__(self, other):
        clear, sector = self._combine_meta(other)
        f1, f2 = self.fn, other.fn
        c1, c2 = self.core, other.core
        core = (lambda xi, lam: c1(xi, lam) + c2(xi, lam)) if (c1 and c2) else None
        return ParamSymbol(lambda xi, lam: f1(xi, lam) + f2(xi, lam),
                           (max(self.mu, other.mu), max(self.p, other.p), self.d),
                           core=core, chi_clear_radius=clear, sector=sector,
                           label=f"({self.label}+{other.label})")

    def __mul__(self, other):
        clear, sector = self._combine_meta(other)
        f1, f2 = self.fn, other.fn
        c1, c2 = self.core, other.core
        core = (lambda xi, lam: c1(xi, lam) * c2(xi, lam)) if (c1 and c2) else None
        return ParamSymbol(lambda xi, lam: f1(xi, lam) * f2(xi, lam),
                           (self.mu + other.mu, self.p + other.p, self.d),
                           core=core, chi_clear_radius=clear, sector=sector,
                           label=f"({self.label}*{other.label})")


@dataclass
class HomogComponent:
    """Anisotropic homogeneous piece of a classical symbol.

    Satisfies fn(delta*xi, delta**d*lam) = delta**degree * fn(xi, lam).
    """

    degree: float
    d: float
    fn: object

    def __call__(self, xi, lam):
        return self.fn(xi, lam)

    def homogeneity_residual(self, xi, lam, deltas=(0.5, 2.0, 10.0)):
        """Worst relative deviation from the scaling identity on samples."""
        xi = np.asarray(xi, dtype=float)
        base = self.fn(xi, lam)
        worst = 0.0
        for delta in deltas:
            scaled = self.fn(delta * xi, (delta ** self.d) * lam)
            ref = (delta ** self.degree) * base
            num = np.max(np.abs(scaled - ref))
            den = max(np.max(np.abs(ref)), 1e-300)
            worst = max(worst, float(num / den))
        return worst


# ---------------------------------------------------------------------------
# constructors


def resolvent_symbol(a_fn, mu_a, sector, *, b_fn=None, mu_b=0.0, ell=1):
    """Excised resolvent-type symbol chi(xi) b(xi) (a(xi) - lam)^(-ell).

    chi is ChiCutoff(1.0).  a_fn must be homogeneous of degree mu_a and
    avoid the sector on the unit sphere (checked on the sample points
    xi = +-1; by homogeneity the rays through those values stay outside as
    well).  Declared orders are (mu_b - ell*mu_a, -ell*mu_a, mu_a).
    """
    ell = int(ell)
    if ell < 1:
        raise ConfigurationError("resolvent power ell must be >= 1", ell=ell)
    chi = ChiCutoff(1.0)
    for xi0 in (1.0, -1.0):
        val = complex(a_fn(xi0))
        if sector.contains(val):
            raise SymbolRejection(
                "principal value lies in the spectral sector",
                witness_xi=xi0, value=val)
    if b_fn is None:
        b_fn = lambda xi: np.ones_like(np.asarray(xi, dtype=complex))

    def fn(xi, lam):
        return chi(xi) * b_fn(xi) * (a_fn(xi) - lam) ** (-ell)

    def core(xi, lam):
        return b_fn(xi) * (a_fn(xi) - lam) ** (-ell)

    def dlam(xi, lam):
        return ell * chi(xi) * b_fn(xi) * (a_fn(xi) - lam) ** (-ell - 1)

    return ParamSymbol(fn, (mu_b - ell * mu_a, -ell * mu_a, mu_a),
                       core=core, chi_clear_radius=chi.radius, dlam=dlam,
                       sector=sector, label=f"resolvent(ell={ell})")


def zero_symbol(d, sector):
    return ParamSymbol(lambda xi, lam: np.zeros_like(np.asarray(xi, dtype=complex) + np.asarray(lam, dtype=complex)),
                       (0.0, 0.0, d),
                       core=lambda xi, lam: 0.0 * (np.asarray(xi, dtype=complex) + np.asarray(lam, dtype=complex)),
                       sector=sector, label="zero")


# ---------------------------------------------------------------------------
# seminorm verification


@dataclass
class SeminormRow:
    alpha: int
    beta: int
    worst_ratio: float
    refined_ratio: float
    growth_slope: float
    passed: bool


@dataclass
class SeminormReport:
    rows: list
    passed: bool
    meta: dict

    def to_csv_rows(self):
        out = [("alpha", "beta", "worst_ratio", "grid_refined_ratio", "pass")]
        for r in self.rows:
            out.append((r.alpha, r.beta, f"{r.worst_ratio:.6e}",
                        f"{r.refined_ratio:.6e}", int(r.passed)))
        return out


def _xi_axis(pts_per_decade):
    # |xi| geometric over the five decades [1e-2, 1e3], both signs, and 0
    pos = np.geomspace(1e-2, 1e3, 5 * pts_per_decade + 1)
    return np.concatenate([-pos[::-1], [0.0], pos])


def _lam_axis(sector, d, pts_per_decade):
    # |lam|^(1/d) geometric in [1, 1e3] along three rays of the sector
    n = 3 * pts_per_decade + 1
    r = np.geomspace(1.0, 1e3, n)
    lam = []
    dirs = []
    for theta in sector.rays():
        u = complex(math.cos(theta), math.sin(theta))
        lam.append((r ** d) * u)
        dirs.append(np.full(n, u))
    return np.concatenate(lam), np.concatenate(dirs)


# rows of the doubled xi grid per block of the sweep: a temporary then holds
# 16 x 723 complex values at 40 points per decade, not 803 x 723.  A level
# keeps up to three pairs' sums and amplitudes, three lam offsets and the
# centre values at once, so 32 rows doubled the peak memory of the sweep
_ROW_BLOCK = 16

_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}


def _step_levels(max_alpha, max_beta):
    """Derivative pairs grouped by total order a + b, which fixes the steps.

    Each level lists its distinct stencil points (oi, oj) in lexicographic
    order, each with the (pair, weight) terms that use it.  Every pair's
    own points then come in the order of its nested stencil loops.
    """
    levels = []
    for s in range(max_alpha + max_beta + 1):
        pairs = [(a, s - a) for a in range(max_alpha + 1) if 0 <= s - a <= max_beta]
        terms = {}
        for a, b in pairs:
            for oi, wi in _STENCILS[a]:
                for oj, wj in _STENCILS[b]:
                    terms.setdefault((oi, oj), []).append(((a, b), wi * wj))
        rel = max(1e-5, np.finfo(float).eps ** (1.0 / (s + 2)))
        levels.append((rel, pairs, sorted(terms.items())))
    return levels


def seminorm_check(sym, max_alpha, max_beta, *, pts_per_decade=40):
    """Sampled seminorm ratios of a symbol against its declared class bound.

    For each derivative pair (alpha, beta) up to the maxima this computes
    sup over the grid of |d^alpha_xi d^beta_lam s| divided by the class
    bound, with lam on three rays of the symbol's sector.  A pair passes
    when the ratio is finite, grows by at most a factor 1.1 when the grid
    density is doubled, and the log-log growth slope of the ratio envelope
    in |xi| stays at or below 0.3.  Raises SymbolRejection if the
    evaluator returns a non-finite value, reporting the offending grid
    point.

    Derivatives are centered finite differences.  Step sizes are scale
    aware and grow with the total derivative order (the optimal step for a
    k-th difference balances truncation against cancellation at roughly
    eps^(1/(k+2))).  The xi step is relative to max(1, |xi|); the lam step
    is relative to the anisotropic scale (1+|xi|+|lam|^(1/d))^d on which
    the symbol varies, along the sampled ray.

    Only the doubled grid is swept.  The grid at ``pts_per_decade`` is an
    exact subgrid of it (every other point of each geometric half axis and
    of each ray, plus xi = 0), and every step, value and ratio is
    pointwise, so the base grid's ratios are read off the doubled sweep.
    Pairs with equal a + b share their steps, so each distinct stencil
    point of a level is evaluated once and added into every pair that uses
    it, in the order of that pair's own stencil loops.
    """
    sector = sym.sector
    if sector is None:
        raise ConfigurationError("a sector is required for the lambda grid")
    if not isinstance(pts_per_decade, numbers.Integral) or pts_per_decade < 1:
        # the grids nest only for an integer density
        raise ConfigurationError("pts_per_decade must be a positive integer",
                                 pts_per_decade=pts_per_decade)
    mu, p, d = sym.orders
    XI = _xi_axis(2 * pts_per_decade)
    LAM, DIR = _lam_axis(sector, d, 2 * pts_per_decade)
    n_pos = len(XI) // 2
    n_ray = len(LAM) // len(sector.rays())
    # base rows: even offsets of the negative half, 0, even offsets of the
    # positive half; base columns: even offsets of each ray
    base_rows = np.r_[0:n_pos:2, n_pos, n_pos + 1:2 * n_pos + 1:2]
    u = DIR[None, :]
    lam_root = np.abs(LAM)[None, :] ** (1.0 / d)
    tiny = 64.0 * np.finfo(float).eps
    levels = _step_levels(max_alpha, max_beta)
    env_fine = {pair: np.empty(len(XI)) for _, pairs, _ in levels for pair in pairs}
    env_base = {pair: np.empty(len(XI)) for pair in env_fine}

    # row blocks bound the (xi, lam) temporaries; every step is pointwise or
    # a max, so for an evaluator that acts pointwise the blocks change no
    # value
    for lo in range(0, len(XI), _ROW_BLOCK):
        xi = XI[lo:lo + _ROW_BLOCK]
        absxi = np.abs(xi)[:, None]
        scale = 1.0 + absxi + lam_root
        scale_d = scale ** d
        bound_xi = [(1.0 + absxi) ** (mu - p - a) for a in range(max_alpha + 1)]
        bound_lam = [scale ** (p - d * b) for b in range(max_beta + 1)]
        centre = None
        bad = []
        for rel, pairs, terms in levels:
            hxi = (rel * np.maximum(1.0, np.abs(xi)))[:, None]
            hlam = rel * scale_d
            xi_at = {o: xi[:, None] + o * hxi for o in (-1, 0, 1)}
            lam_at = {}
            acc = dict.fromkeys(pairs, 0.0)
            amp = dict.fromkeys(pairs, 0.0)
            for (oi, oj), uses in terms:
                if (oi, oj) == (0, 0) and centre is not None:
                    vals, mag = centre
                else:
                    if oj not in lam_at:
                        lam_at[oj] = LAM[None, :] + oj * hlam * u
                    vals = sym.fn(xi_at[oi], lam_at[oj])
                    mag = np.abs(vals)
                    if (oi, oj) == (0, 0):
                        centre = (vals, mag)
                for pair, w in uses:
                    acc[pair] = acc[pair] + w * vals
                    amp[pair] = np.maximum(amp[pair], mag)
            for a, b in pairs:
                scale_xi = hxi ** a
                scale_lam = (hlam * u) ** b
                deriv = acc[a, b] / (scale_xi * scale_lam)
                finite = np.isfinite(deriv)
                if not np.all(finite):
                    i, j = np.argwhere(~finite)[0]
                    bad.append((i, a, b, j))
                    continue
                # cancellation noise floor of the stencil; values below it
                # are not distinguishable from zero and must not enter sup
                # ratios
                noise = tiny * amp[a, b] / (scale_xi * np.abs(scale_lam))
                size = np.abs(deriv)
                ratio = (np.where(size > noise, size, 0.0)
                         / (bound_xi[a] * bound_lam[b]))
                env_fine[a, b][lo:lo + len(xi)] = np.max(ratio, axis=1)
                env_base[a, b][lo:lo + len(xi)] = np.max(
                    ratio.reshape(len(xi), -1, n_ray)[:, :, ::2], axis=(1, 2))
        if bad:
            # the first sampled row with a non-finite derivative, then the
            # first pair and the first lam there
            i, a, b, j = min(bad)
            raise SymbolRejection("symbol evaluator returned a non-finite value",
                                  xi=float(xi[i]), lam=complex(LAM[j]),
                                  alpha=a, beta=b)

    absxi = np.abs(XI[base_rows])
    rows = []
    ok_all = True
    for (a, b) in sorted(env_base):
        env = env_base[a, b][base_rows]
        worst = float(np.max(env))
        refined = float(np.max(env_fine[a, b]))
        # growth slope of the ratio envelope over the top |xi| decades
        mask = (absxi >= 10.0) & (env > 1e-290)
        if worst <= 1e-290 or mask.sum() < 4:
            slope = float("-inf") if worst <= 1e-290 else 0.0
        else:
            slope = float(np.polyfit(np.log(1.0 + absxi[mask]), np.log(env[mask]), 1)[0])
        if worst <= 1e-290:
            ok = True
        else:
            ok = (np.isfinite(worst) and np.isfinite(refined)
                  and refined <= 1.1 * worst
                  and slope <= 0.3)
        rows.append(SeminormRow(a, b, worst, refined, slope, bool(ok)))
        ok_all = ok_all and ok
    meta = {"orders": sym.orders, "pts_per_decade": pts_per_decade,
            "label": sym.label}
    return SeminormReport(rows, bool(ok_all), meta)


# ---------------------------------------------------------------------------
# homogeneous components by scaling limits


def _scaled_profile(sym, xi, lam, t):
    """t**mu * core(xi/t, lam/t**d); analytic in t near 0 for library symbols."""
    if sym.core is None:
        raise SymbolRejection("symbol carries no analytic core for scaling limits",
                              label=sym.label)
    if abs(sym.mu - round(sym.mu)) > 1e-9 or abs(sym.d - round(sym.d)) > 1e-9:
        raise SymbolRejection("scaling extraction needs integer order structure",
                              mu=sym.mu, d=sym.d)
    return t ** sym.mu * sym.core(xi / t, lam / t ** sym.d)


def _circle_coeff(sym, xi, lam, j, radius, M):
    """j-th Taylor coefficient in t of the scaled profile, by circle averages."""
    xi = np.asarray(xi, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    shape = np.broadcast(xi, lam).shape
    acc = np.zeros(shape, dtype=complex)
    for k in range(M):
        t = radius * np.exp(2j * np.pi * k / M)
        acc = acc + _scaled_profile(sym, xi, lam, t) * np.exp(-2j * np.pi * j * k / M)
    return acc / (M * radius ** j)


def homog_component_fn(sym, j):
    """Evaluator of the degree mu - j homogeneous component of sym.

    The component is the j-th term of the Taylor expansion at t = 0 of
    t**mu * core(xi/t, lam/t**d), extracted by averaging over small circles
    in t.  The radius and node count are decreased and doubled until two
    evaluations agree to 1e-10 relative; failure to converge raises
    SymbolRejection (non-classical input).
    """

    def fn(xi, lam):
        radius = 0.25
        for _ in range(6):
            c1 = _circle_coeff(sym, xi, lam, j, radius, 48)
            c2 = _circle_coeff(sym, xi, lam, j, radius / 2.0, 96)
            scale = max(float(np.max(np.abs(c2))), 1e-300)
            if np.all(np.isfinite(c1)) and np.all(np.isfinite(c2)) \
                    and float(np.max(np.abs(c1 - c2))) <= 1e-10 * scale:
                return c2
            radius /= 4.0
        raise SymbolRejection("scaling limit failed to converge",
                              label=sym.label, component=j)

    return fn


def homog_expand(sym, N):
    """Split sym into N homogeneous components plus a remainder.

    Returns (components, remainder) with components[j] of degree mu - j and
    remainder declared at orders (mu - N, p, d).  The reassembly identity
    is sym = sum_j chi * components[j] + remainder, with the excision
    chi = ChiCutoff(max(chi_clear_radius, 1)).
    """
    N = int(N)
    if N < 0:
        raise ConfigurationError("component count must be >= 0", N=N)
    if N == 0:
        return [], sym
    chi = ChiCutoff(max(sym.chi_clear_radius, 1.0))
    comps = [HomogComponent(sym.mu - j, sym.d, homog_component_fn(sym, j))
             for j in range(N)]

    def remainder_fn(xi, lam):
        total = sym.fn(xi, lam)
        cx = chi(xi)
        for comp in comps:
            total = total - cx * comp.fn(xi, lam)
        return total

    remainder = ParamSymbol(remainder_fn, (sym.mu - N, sym.p, sym.d),
                            sector=sym.sector, label=f"{sym.label}:rem{N}")
    return comps, remainder


# ---------------------------------------------------------------------------
# leading parametrix for the one dimensional model


@dataclass
class ModelParametrix:
    """Leading symbol-level parametrix b(x, xi, lam) = chi(xi)/(a(x, xi) - x^mu lam)."""

    a_fn: object
    mu: float
    sector: Sector
    chi: ChiCutoff

    def __call__(self, x, xi, lam):
        return self.chi(xi) / (self.a_fn(x, xi) - np.asarray(x, dtype=float) ** self.mu * lam)

    def product_residual(self, x, xi, lam):
        """Max of |(a - x^mu lam) * b - chi| over the given sample arrays."""
        x = np.asarray(x, dtype=float)[:, None, None]
        xi = np.asarray(xi, dtype=float)[None, :, None]
        lam = np.asarray(lam, dtype=complex)[None, None, :]
        denom = self.a_fn(x, xi) - x ** self.mu * lam
        b = self.chi(xi) / denom
        return float(np.max(np.abs(denom * b - self.chi(xi) * np.ones_like(denom))))

    def at_x(self, x0):
        """Frozen-x view as a parameter symbol in (xi, x^mu lam)."""
        a = self.a_fn
        chi = self.chi
        x0 = float(x0)

        def fn(xi, lamt):
            return chi(xi) / (a(x0, xi) - lamt)

        def core(xi, lamt):
            return 1.0 / (a(x0, xi) - lamt)

        return ParamSymbol(fn, (-self.mu, -self.mu, self.mu), core=core,
                           chi_clear_radius=chi.radius, sector=self.sector,
                           label=f"parametrix@x={x0:g}")


def parametrix_leading(a_fn, mu, sector, eps, *, xi_samples=None):
    """Leading parametrix chi(xi) (a(x, xi) - x^mu lam)^(-1) with excision eps.

    Pointwise invertibility of a(x, xi) - x^mu lam is verified on a sampled
    slice (x = 0 and 25 points geometric in [1e-4, 1], |xi| around the
    excision scale and above unless ``xi_samples`` is given, |lam| in
    {1, 1e2, 1e4} on three sector rays).  A vanishing denominator raises
    SymbolRejection carrying the witness point.
    """
    chi = ChiCutoff(eps)
    x_samples = np.concatenate([[0.0], np.geomspace(1e-4, 1.0, 25)])
    if xi_samples is None:
        pos = np.geomspace(max(eps / 4, 1e-3), 1e3, 60)
        xi_samples = np.concatenate([-pos[::-1], pos])
    lam = []
    for theta in sector.rays():
        u = complex(math.cos(theta), math.sin(theta))
        lam.extend([m * u for m in (1.0, 1e2, 1e4)])
    lam = np.asarray(lam, dtype=complex)
    X = np.asarray(x_samples, dtype=float)[:, None, None]
    XI = np.asarray(xi_samples, dtype=float)[None, :, None]
    L = lam[None, None, :]
    denom = a_fn(X, XI) - X ** mu * L
    bad = np.abs(denom) < 1e-12
    if np.any(bad):
        i, j, k = np.argwhere(bad)[0]
        raise SymbolRejection("model symbol not invertible on the sampled slice",
                              x=float(x_samples[i]), xi=float(xi_samples[j]),
                              lam=complex(lam[k]))
    return ModelParametrix(a_fn, float(mu), sector, chi)


def neumann_refine(b0, s0, steps):
    """One Neumann-series refinement pass: b0 * (1 + s0 + ... + s0^steps).

    s0 must have negative order in the first slot; each extra power lowers
    the residual order by one, so the error after composing with (1 - s0)
    is s0^(steps+1).
    """
    steps = int(steps)
    if steps < 1:
        raise ConfigurationError("steps must be >= 1", steps=steps)
    acc = ParamSymbol.constant(1.0, b0.d, sector=b0.sector)
    power = None
    for _ in range(steps):
        power = s0 if power is None else power * s0
        acc = acc + power
    refined = b0 * acc
    return refined.with_orders(b0.orders)
