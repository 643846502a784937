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
    """Closed sector arg w in [arg_min, arg_max], with 0."""

    arg_min: float
    arg_max: float

    def __post_init__(self):
        span = self.arg_max - self.arg_min
        if not (0.0 <= span <= 2.0 * math.pi + 1e-12):
            raise ConfigurationError("sector span must lie in [0, 2*pi]", span=span)

    def contains(self, w):
        w = complex(w)
        if w == 0:
            return True
        phi = math.atan2(w.imag, w.real)
        # wrap into [arg_min, arg_min + 2*pi)
        while phi < self.arg_min - 1e-15:
            phi += 2.0 * math.pi
        while phi >= self.arg_min + 2.0 * math.pi - 1e-15:
            phi -= 2.0 * math.pi
        return self.arg_min <= phi <= self.arg_max

    def rays(self):
        """Three sample ray angles: both edges and the bisector."""
        return list(np.linspace(self.arg_min, self.arg_max, 3))


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
    sector : Sector or None
    """

    def __init__(self, fn, orders, *, sector=None, label="symbol"):
        mu, p, d = orders
        if d <= 0:
            raise ConfigurationError("anisotropy d must be positive", d=d)
        self.fn = fn
        self.mu = float(mu)
        self.p = float(p)
        self.d = float(d)
        self.sector = sector
        self.label = label

    @property
    def orders(self):
        return (self.mu, self.p, self.d)

    def __call__(self, xi, lam):
        return self.fn(xi, lam)

    def with_orders(self, orders):
        """Redeclare order metadata (for membership claims at other orders)."""
        return ParamSymbol(self.fn, orders, sector=self.sector, label=self.label)


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

    return ParamSymbol(fn, (mu_b - ell * mu_a, -ell * mu_a, mu_a),
                       sector=sector, label=f"resolvent(ell={ell})")


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
# 8 x 723 complex values at 40 points per decade, not 803 x 723.  All nine
# pairs' sums and amplitudes, three lam offsets and the stencil values are
# live at once, so 16 rows about double the peak memory of the sweep
_ROW_BLOCK = 8

_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}

# the relative step of every derivative pair, that of the highest pair the
# stencils support (see seminorm_check).  It does not depend on the maxima a
# caller asks for, so no row depends on which other rows were asked
_FD_REL = max(1e-5, np.finfo(float).eps ** (1.0 / 6))


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

    Derivatives are centered finite differences with one scale-aware
    relative step, ``_FD_REL``, for every pair.  The optimal step of a
    k-th difference balances truncation against cancellation at roughly
    eps^(1/(k+2)); the highest order, a + b = 4, loses the most digits to
    cancellation, so its step eps^(1/6) is used throughout.  A lower order
    then pays a larger O(step^2) truncation than at its own optimum; on
    the tests' pinned symbols that moves a ratio by at most 1.1e-4
    relative and changes no verdict.  The xi step is relative to
    max(1, |xi|); the lam step is relative to the anisotropic scale
    (1+|xi|+|lam|^(1/d))^d on which the symbol varies, along the sampled
    ray.

    Only the doubled grid is swept.  The grid at ``pts_per_decade`` is an
    exact subgrid of it (every other point of each geometric half axis and
    of each ray, plus xi = 0), and every step, value and ratio is
    pointwise, so the base grid's ratios are read off the doubled sweep.
    All pairs share the step, so the symbol is evaluated once at each
    stencil point of {-1, 0, 1}^2 that some pair uses, and each value is
    added into every pair that uses it, in lexicographic point order,
    which is the order of that pair's own stencil loops.
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
    pairs = [(a, b) for a in range(max_alpha + 1) for b in range(max_beta + 1)]
    terms = {}
    for a, b in pairs:
        for oi, wi in _STENCILS[a]:
            for oj, wj in _STENCILS[b]:
                terms.setdefault((oi, oj), []).append(((a, b), wi * wj))
    terms = sorted(terms.items())
    env_fine = {pair: np.empty(len(XI)) for pair in pairs}
    env_base = {pair: np.empty(len(XI)) for pair in pairs}

    # row blocks bound the (xi, lam) temporaries; every step is pointwise or
    # a max, so for an evaluator that acts pointwise the blocks change no
    # value
    for lo in range(0, len(XI), _ROW_BLOCK):
        xi = XI[lo:lo + _ROW_BLOCK]
        absxi = np.abs(xi)[:, None]
        scale = 1.0 + absxi + lam_root
        hxi = _FD_REL * np.maximum(1.0, absxi)
        hu = _FD_REL * scale ** d * u
        bound_xi = [(1.0 + absxi) ** (mu - p - a) for a in range(max_alpha + 1)]
        bound_lam = [scale ** (p - d * b) for b in range(max_beta + 1)]
        xi_at = {o: xi[:, None] + o * hxi for o in (-1, 0, 1)}
        lam_at = {}
        acc = {}
        amp = {}
        for (oi, oj), uses in terms:
            if oj not in lam_at:
                # offset 0 keeps the (rows, lam) shape of the other offsets
                lam_at[oj] = (LAM[None, :] - hu if oj < 0
                              else LAM[None, :] + (hu if oj else 0 * hu))
            vals = sym.fn(xi_at[oi], lam_at[oj])
            mag = np.abs(vals)
            for pair, w in uses:
                if pair not in acc:
                    acc[pair] = vals if w == 1.0 else w * vals
                    amp[pair] = mag
                    continue
                if w == 1.0:
                    acc[pair] = acc[pair] + vals
                elif w == -1.0:
                    acc[pair] = acc[pair] - vals
                else:
                    acc[pair] = acc[pair] + w * vals
                amp[pair] = np.maximum(amp[pair], mag)
        bad = []
        # b = 0 divides by the real xi column: complex division by s + 0j
        # gives the same values
        scale_lam = [1.0] + [hu ** b for b in range(1, max_beta + 1)]
        abs_lam = [np.abs(s) for s in scale_lam]
        for a, b in pairs:
            scale_xi = hxi ** a
            deriv = acc[a, b] / (scale_xi * scale_lam[b])
            finite = np.isfinite(deriv)
            if not np.all(finite):
                i, j = np.argwhere(~finite)[0]
                bad.append((i, a, b, j))
                continue
            # cancellation noise floor of the stencil; values below it are
            # not distinguishable from zero and must not enter sup ratios
            noise = tiny * amp[a, b] / (scale_xi * abs_lam[b])
            size = np.abs(deriv)
            ratio = size * (size > noise) / (bound_xi[a] * bound_lam[b])
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
