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
    dlam : callable or None
        Analytic derivative in lam, used to validate finite differences.
    sector : Sector or None
    """

    def __init__(self, fn, orders, *, dlam=None, sector=None, label="symbol"):
        mu, p, d = orders
        if d <= 0:
            raise ConfigurationError("anisotropy d must be positive", d=d)
        self.fn = fn
        self.mu = float(mu)
        self.p = float(p)
        self.d = float(d)
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
        return ParamSymbol(self.fn, orders, dlam=self.dlam, sector=self.sector,
                           label=self.label)


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

    def dlam(xi, lam):
        return ell * chi(xi) * b_fn(xi) * (a_fn(xi) - lam) ** (-ell - 1)

    return ParamSymbol(fn, (mu_b - ell * mu_a, -ell * mu_a, mu_a),
                       dlam=dlam, sector=sector, label=f"resolvent(ell={ell})")


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
