"""Numerical traces: heat traces, weighted traces, resolvent power traces.

Values come either from eigenvalue sums (spectral data, exact for the
frozen models via the Bessel oracle) or from contour quadrature against
resolvent solves on a discretization.  Every retained sample carries an
explicit truncation bound.  ``heat_trace``, ``weighted_heat_trace`` and
``resolvent_power_trace`` refuse the first sample whose bound exceeds
``_TAIL_REFUSAL`` = 1 % of its value, and ``complex_power_sum`` refuses
one above ``_POWER_SUM_TAIL_REFUSAL`` = 1e-6, the tolerance the zeta
continuation is checked against.  ``resolvent_power_trace_spectral`` (the
CLI ``resolvent``) refuses only shifts on the spectrum or near its
truncation edge: it reports its bound but does not compare it with the
value.
"""

import math
import operator
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from . import pencil
from .asymptotics import HEAT_CUTOFF_EXPONENT, _gauss_panels
from .coneop import Discretization, SpectralData, _spectral_data, eigenvalues
from .errors import (ConfigurationError, InsufficientSpectrumError,
                     NumericalError)

_TAIL_REFUSAL = 0.01
_POWER_SUM_TAIL_REFUSAL = 1e-6


def _block_offsets():
    # k - k0 of the left endpoints of the tail blocks and their widths:
    # width max(1, (k - k0) // 8), up to the first k past k0 + 300000
    ks, strides = [0], [1]
    while ks[-1] <= 300000:
        ks.append(ks[-1] + strides[-1])
        strides.append(max(1, ks[-1] // 8))
    return np.array(ks), np.array(strides, dtype=float)


_BLOCK_K, _BLOCK_STRIDE = _block_offsets()
# k - k0 of the first index past the last block
_BLOCK_END = int(_BLOCK_K[-1] + _BLOCK_STRIDE[-1])


def _block_sums(terms):
    """Left-endpoint block bounds of decreasing tails (blocks on the last
    axis), summed left to right up to the first block below 1e-18 of the
    running sum, or up to the last block; and whether each row reached the
    last block without meeting that cut."""
    acc = np.cumsum(terms, axis=-1)
    stop = terms < 1e-18 * np.maximum(acc, 1e-300)
    capped = ~stop[..., -1]
    stop[..., -1] = True
    first = np.argmax(stop, axis=-1)[..., None]
    capped &= first[..., 0] == stop.shape[-1] - 1
    return np.take_along_axis(acc, first, axis=-1)[..., 0], capped


def _remainder(C, q, c1, y0, bmax, envelope):
    """Bound on the tail rows' sums past their last block.

    A row's matrix elements are at most min(C y^(2q), bmax) at index k,
    y = c1 k + c0, and ``envelope(L0)`` gives (F, p) with f(L) <= F L^(-p)
    for L >= L0.  Let y0 = c1 (k_end - 1) + c0 for the first index k_end
    past the blocks.  Each of C F y^(2q - 2p) and bmax F y^(-2p) decreases
    in k, so the rest is at most its integral from k_end - 1:
    C F y0^(2q - 2p + 1) / (c1 (2p - 2q - 1)) where 2p - 2q > 1, and
    bmax F y0^(1 - 2p) / (c1 (2p - 1)) where 2p > 1.  A row takes the
    smaller; one with neither finite is refused.
    """
    F, p = envelope(y0 ** 2)
    rest = np.full(np.shape(y0), np.inf)
    with np.errstate(invalid="ignore"):  # 0 * inf is nan, refused below
        for coef, growth in ((C, q), (bmax, 0.0)):
            d = 2 * p - 2 * growth - 1
            rest = np.fmin(rest, np.divide(
                coef * F * y0 ** (-d), c1 * d,
                out=np.full(np.shape(y0), np.inf), where=d > 0))
    if not np.all(np.isfinite(rest)):
        raise InsufficientSpectrumError(
            "tail envelope is not summable past the last block",
            growth=float(np.max(q)), decay=float(np.min(p)))
    return float(np.sum(rest))


@dataclass
class TraceSeries:
    """Sampled trace values with truncation bounds and order bookkeeping."""

    params: np.ndarray
    values: np.ndarray
    tails: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)
    source: object = None

    def __len__(self):
        return len(self.params)

    def to_csv_rows(self):
        rows = [("param", "value_re", "value_im", "tail_bound")]
        for p, v, t in zip(self.params, self.values, self.tails):
            v = complex(v)
            rows.append((f"{p:.16e}", f"{v.real:.16e}", f"{v.imag:.16e}",
                         f"{t:.6e}"))
        return rows


def _samples(value, params, dtype):
    """The (value, tail) pairs of ``value`` at each parameter, as arrays."""
    out = np.array([value(p) for p in params], dtype=dtype).reshape(-1, 2)
    return out[:, 0], out[:, 1].real


def _refuse_large_tails(message, key, params, vals, tails, needed=dict):
    """Refuse the first sample whose tail bound exceeds ``_TAIL_REFUSAL``
    times its value; the payload names the sample as ``key``, its tail
    and value, and what ``needed()`` reports."""
    refused = np.flatnonzero(
        tails > _TAIL_REFUSAL * np.maximum(np.abs(vals), 1e-300))
    if len(refused):
        i = refused[0]
        raise InsufficientSpectrumError(
            message, **{key: params[i].item()}, tail=float(tails[i]),
            value=vals[i].item(), **needed())


class WeightOperator:
    """Weight x^(-beta) phi(x) times a per-mode multiplier of given order.

    phi defaults to a smooth cutoff that is identically 1 for x <= 1/4 and
    vanishes for x >= 1/2.  The tangential part acts per circle mode as
    (1 + m^2)^(mu_prime/2).
    """

    def __init__(self, beta=0.0, mu_prime=0.0, *, phi=None, label=None):
        self.beta = float(beta)
        self.mu_prime = float(mu_prime)
        if phi is None:
            from .symbols import smoothstep
            phi = lambda x: 1.0 - smoothstep((np.asarray(x) - 0.25) / 0.25)
        self.phi = phi
        self.label = label or f"x^(-{beta})*phi, mu'={mu_prime}"

    def mode_factor(self, m):
        return (1.0 + m * m) ** (self.mu_prime / 2.0)

    def multiplier(self, x):
        return np.asarray(self.phi(x)) * np.asarray(x, dtype=float) ** (-self.beta)


def _require_trace_class(meta, N):
    mu, mu_prime, n = meta["mu"], meta["mu_prime"], meta["n"]
    if N * mu - mu_prime <= n:
        raise ConfigurationError(
            "trace does not converge: need N*mu - mu' > n",
            N=N, mu=mu, mu_prime=mu_prime, n=n)


def _require_weight(wsd, B):
    """Refuse a weight other than the one ``wsd`` was built with."""
    built = wsd.meta["beta"], wsd.meta["mu_prime"], wsd.meta.get("weight")
    if (B.beta, B.mu_prime, B.label) != built:
        raise ConfigurationError("weight differs from the data's",
                                 weight=B.label, data_weight=built[2])


def _plain_meta(sd, N):
    # a plain trace is the identity weight's, also on weighted data
    return {**{k: v for k, v in sd.meta.items() if k != "weight"},
            "mu_prime": 0.0, "beta": 0.0, "N": N}


# ---------------------------------------------------------------------------
# eigenvalue-sum traces


def heat_trace(sd: SpectralData, t_grid):
    """Heat trace sum exp(-t lam) over the materialized spectrum.

    Refuses any sample whose truncation bound exceeds ``_TAIL_REFUSAL``
    times the value, reporting the eigenvalue range that would be needed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid <= 0):
        raise ConfigurationError("heat trace needs positive times")
    vals, tails = sd.heat_sum(t_grid)

    def needed():
        need = HEAT_CUTOFF_EXPONENT / float(np.min(t_grid))
        return {"lam_max_needed": need,
                "count_needed": int(sd.count() * need / max(sd.lam_max, 1.0))}

    _refuse_large_tails("heat trace tail bound too large at small t", "t",
                        t_grid, vals, tails, needed)
    return TraceSeries(t_grid, vals, tails, "heat", _plain_meta(sd, 0), sd)


def complex_power_sum(sd: SpectralData, z):
    """Sum of lam^z over the spectrum, for Re z well inside convergence.

    Requires Re z < -n/mu - 0.5 (margin on the convergence abscissa).
    Returns (value, tail_bound); raises if the tail bound is above
    ``_POWER_SUM_TAIL_REFUSAL`` times the value.
    """
    mu, n = sd.meta["mu"], sd.meta["n"]
    if complex(z).real >= -n / mu - 0.5:
        raise ConfigurationError("need Re z < -n/mu - 1/2",
                                 z=complex(z), n=n, mu=mu)
    val, tail = sd.power_sum(z)
    if tail > _POWER_SUM_TAIL_REFUSAL * max(abs(val), 1e-300):
        raise InsufficientSpectrumError("power sum tail above tolerance",
                                        z=complex(z), tail=tail, value=val)
    return val, tail


# ---------------------------------------------------------------------------
# weighted spectral data (eigenpairs plus matrix elements)


@dataclass
class WeightedSpectralData(SpectralData):
    """Spectral data plus the matrix elements of a weight operator B.

    ``bs[m]`` holds <B u, u> in the weighted inner product for the
    W-normalized eigenfunctions u of mode m, with the mode's tangential
    factor; ``bfit[m]`` = (C, q) fits |b| <~ C lam^q for the tail, and
    ``bmax[m]`` bounds every |b|; ``pairs`` is the read-only view mode ->
    (eigenvalues, matrix elements).  Plain traces read the eigenvalues only.
    """

    bs: dict = field(default_factory=dict)
    bfit: dict = field(default_factory=dict)
    bmax: dict = field(default_factory=dict)

    def __post_init__(self):
        super().__post_init__()
        modes = self.modes()
        self._bs = np.concatenate([np.empty(0)] + [self.bs[m] for m in modes])
        self.pairs = MappingProxyType({m: (self.eigs[m], self.bs[m])
                                       for m in modes})
        # one tail row (C, q, c1, c0, k0, bmax) per mode: index k >= k0 of
        # the row has eigenvalue (c1 k + c0)^2 and |b| <~ C lam^q, |b| <=
        # bmax; a materialized mode continues past its last eigenvalue
        # (Weyl fit, fitted envelope), an unmaterialized one starts at its
        # floor nu with step pi and |b| <= _b_cap
        rows = [(*self.bfit.get(m, (1.0, 0.0)),
                 *self.weyl.get(m, (math.pi, 0.0)),
                 len(self.eigs[m]) + 1, self.bmax.get(m, math.inf))
                for m in modes]
        if len(self.extra_nus):
            cap = self._b_cap()
            rows += [(cap, 0.0, math.pi, nu, 0, math.inf)
                     for nu in self.extra_nus]
        C, q, c1, c0, k0, bmax = np.reshape(rows, (-1, 6)).T[..., None]
        # left endpoints of each row's tail blocks, the envelope there, and
        # the (C, q, c1, y0, bmax) of _remainder for the rest of the row
        self._tail_lam = (c1 * (k0 + _BLOCK_K) + c0) ** 2
        self._tail_coef = C * np.maximum(self._tail_lam, 1.0) ** q
        self._tail_rows = np.concatenate(
            [C, q, c1, c1 * (k0 + _BLOCK_END - 1) + c0, bmax], axis=1).T

    def heat_value(self, t):
        if not t > 0:
            raise ConfigurationError("heat value needs t > 0", t=float(t))
        val = float(np.sum(self._bs * np.exp(-t * self._lams)))
        # exp(-t L) <= (p / (e t))^p L^(-p) for every p > 0; p = 5/2 outgrows
        # every matrix-element exponent q <= 3/2 by more than 1/2
        return val, self._tail(lambda L: np.exp(-t * L),
                               lambda L0: ((2.5 / (math.e * t)) ** 2.5, 2.5))

    def resolvent_power_value(self, lam, N):
        val = complex(np.sum(self._bs * (self._lams - lam) ** (-float(N))))
        # |L - lam| >= L / 2 once L >= 2 |lam|
        return val, self._tail(
            lambda L: abs((L - lam)) ** (-float(N)),
            lambda L0: (np.where(L0 >= 2.0 * abs(lam), 2.0 ** N, np.inf), N))

    def _b_cap(self):
        # matrix elements of boundary-concentrated weights fall off with the
        # mode number (the eigenfunctions retreat from the tip), so the
        # modes beyond the materialized range are capped by the envelope of
        # the top materialized quarter, with a safety factor
        per_mode = {m: float(np.max(np.abs(bs)))
                    for m, bs in self.bs.items() if len(bs)}
        if not per_mode:
            return 1.0
        mmax = max(abs(m) for m in per_mode)
        top = [v for m, v in per_mode.items() if abs(m) >= 0.75 * mmax]
        return 4.0 * max(max(top), 1e-300)

    def _tail(self, f, envelope):
        """Bound on sum f(lam) b over the eigenvalues beyond the materialized
        ones: the block sums of every tail row, and for each row that
        reaches its last block the closed-form bound on the rest
        (``_remainder``, with ``envelope`` bounding f there)."""
        sums, capped = _block_sums(
            self._tail_coef * f(self._tail_lam) * _BLOCK_STRIDE)
        tail = float(np.sum(sums))
        if capped.any():
            tail += _remainder(*self._tail_rows[:, capped], envelope)
        return tail


def weighted_spectral_data(disc: Discretization, B: WeightOperator, lam_cap):
    """Eigenpairs up to lam_cap with matrix elements of the weight operator.

    The eigenpairs and the weighted squares of the vectors are computed once
    per mode class; each mode scales them by its own tangential factor.
    """
    mult = B.multiplier(disc.x)
    # W-normalized u: |<B u, u>| <= rho max|mult| for every eigenpair
    bound = float(np.max(np.abs(mult)))

    def solve(modes):
        vals, vecs = eigenvalues(disc, modes[0], lam_max=lam_cap, vectors=True)
        return modes, vals, np.einsum("ij,i->j", np.abs(vecs) ** 2,
                                      mult * disc.w)

    def elements(m, vals, E):
        rho = B.mode_factor(m)
        bs = rho * disc.h * E
        # matrix-element growth fit on the top half for tail extrapolation;
        # the exponent is clamped to [0, 1.5] (bounded weights grow slower)
        half = max(1, len(vals) // 2)
        if len(vals) >= 6 and np.all(np.abs(bs[half:]) > 0):
            q, logc = np.polyfit(np.log(vals[half:]),
                                 np.log(np.abs(bs[half:])), 1)
            bfit = (float(np.exp(logc)) * 2.0, float(min(max(q, 0.0), 1.5)))
        else:
            bfit = (float(np.max(np.abs(bs))) * 2.0 + 1e-300, 0.0)
        return {"bs": bs, "bfit": bfit, "bmax": rho * bound}

    meta = {"mu_prime": B.mu_prime, "beta": B.beta, "weight": B.label}
    return _spectral_data(disc.op, map(solve, disc.mode_classes()), lam_cap,
                          "discretization", meta, WeightedSpectralData,
                          elements)


def weighted_heat_trace(wsd: WeightedSpectralData, B: WeightOperator, t_grid):
    """Trace of B e^(-tA) as an eigenvalue sum with matrix elements.

    ``wsd`` holds the eigenpairs with the matrix elements of B (see
    weighted_spectral_data); a B other than the one it was built with is
    refused.  For the identity weight on plain SpectralData use heat_trace.
    """
    _require_weight(wsd, B)
    t_grid = np.asarray(t_grid, dtype=float)
    vals, tails = _samples(wsd.heat_value, t_grid, float)
    _refuse_large_tails(
        "weighted heat trace tail too large", "t", t_grid, vals, tails,
        lambda: {"lam_cap_needed": HEAT_CUTOFF_EXPONENT / float(t_grid.min())})
    return TraceSeries(t_grid, vals, tails, "heat", {**wsd.meta, "N": 0}, wsd)


def resolvent_power_trace(wsd: WeightedSpectralData, B: WeightOperator, N,
                          lam_grid):
    """Trace of B (A - lam)^(-N) on a grid of shifts.

    Refuses a B other than the one ``wsd`` was built with, then enforces
    the trace-class condition N*mu - mu' > n before computing.  With the
    identity weight the value reduces to sum (lam_j - lam)^(-N).
    """
    _require_weight(wsd, B)
    N = int(N)
    lam_grid = np.asarray(lam_grid, dtype=complex)
    _require_trace_class(wsd.meta, N)
    vals, tails = _samples(lambda lam: wsd.resolvent_power_value(lam, N),
                           lam_grid, complex)
    _refuse_large_tails("resolvent power trace tail too large", "lam",
                        lam_grid, vals, tails)
    return TraceSeries(lam_grid, vals, tails, "resolvent",
                       {**wsd.meta, "N": N}, wsd)


def resolvent_power_trace_spectral(sd: SpectralData, N, lam_grid):
    """Identity-weight resolvent power trace from plain spectral data; the
    first shift on the spectrum, or with Re lam > 0 and |lam| past
    lam_max / 2, is refused."""
    N = int(N)
    lam_grid = np.asarray(lam_grid, dtype=complex)
    meta = _plain_meta(sd, N)
    _require_trace_class(meta, N)
    # |lam_j - lam| >= lam_j beyond the edge where Re lam <= 0, so the z = -N
    # tail applies there unscaled
    dist = np.where(lam_grid.real > 0, np.abs(lam_grid), 0.0)
    on_spectrum = np.isin(lam_grid, sd.all_eigs())
    refused = np.flatnonzero(on_spectrum | (dist > sd.lam_max / 2))
    if len(refused):
        i = refused[0]
        if on_spectrum[i]:
            raise NumericalError("shift on the spectrum", lam=complex(lam_grid[i]))
        raise InsufficientSpectrumError(
            "shift too close to the truncation edge", lam=complex(lam_grid[i]))
    vals = sd.eig_sums(lambda lam, lams: (lams - lam) ** (-float(N)), lam_grid)
    _, tail0 = sd.power_sum(-float(N))
    tails = tail0 * (sd.lam_max / (sd.lam_max - dist)) ** N
    return TraceSeries(lam_grid, vals, tails, "resolvent", meta, sd)


# ---------------------------------------------------------------------------
# contour realization of the heat operator


def heat_trace_contour(disc: Discretization, t, *, N=3, bdiag=None):
    """Heat trace by contour quadrature of the N-th resolvent power.

    Evaluates the Cauchy integral of exp(-t lam) against Tr B (A - lam)^(-N)
    after N-1 integrations by parts, on the contour lam = -1 + u e^(+-i pi/4),
    u >= 0.  The resolvent power trace at each quadrature node is the
    eps^(N-1) Taylor coefficient of Tr[B (K - (lam + eps) W)^(-1) W],
    computed exactly from power series of the tridiagonal pivots
    (``pencil.trace_weighted_resolvent``), with every mode class and node
    as a lane of one pivot sweep, each class weighted by its size; a node
    costs O(grid size * N^2) per class.

    The contour must enclose the whole spectrum: one Sturm count per class
    at the vertex lam = -1 raises if any eigenvalue lies to its left, and a
    non-finite trace raises.  The result must agree with the eigenvalue
    sum; a last-panel contribution above 1e-8 of the value raises.
    """
    try:
        N = operator.index(N)
    except TypeError:
        raise ConfigurationError("contour power must be an integer",
                                 N=N) from None
    if N < 2:
        raise ConfigurationError("need N >= 2 for an integrable contour", N=N)
    t = float(t)
    if not (math.isfinite(t) and t > 0):
        raise ConfigurationError("contour heat trace needs a finite t > 0",
                                 t=t)
    delta = math.pi / 4
    u_max = HEAT_CUTOFF_EXPONENT / (t * math.cos(delta))
    # 24-point Gauss-Legendre on 14 geometrically growing panels
    nodes, weights = _gauss_panels(np.concatenate(
        [[0.0], np.geomspace(u_max / 2 ** 13, u_max, 14)]), 24)
    e_dir = complex(math.cos(delta), math.sin(delta))
    lam_nodes = -1.0 + nodes * e_dir

    # mode classes share the subdiagonal unless the leading coefficient
    # depends on the mode; the classes of one subdiagonal are one sweep,
    # each swept once and counted as often as it has modes
    groups = {}
    for modes in disc.mode_classes():
        d, e = disc.matrix(modes[0])
        classes, ds = groups.setdefault(e.tobytes(), (e, [], []))[1:]
        classes.append(modes)
        ds.append(d)
    tr_n = np.zeros(len(lam_nodes), dtype=complex)
    for e, classes, ds in groups.values():
        ds, size = np.array(ds), np.array([len(modes) for modes in classes])
        below = pencil.inertia(ds, e, disc.w, [-1.0])[:, 0]
        if np.any(below):
            raise NumericalError(
                "spectrum extends left of the contour vertex -1",
                modes=sorted(m for modes, k in zip(classes, below) if k
                             for m in modes),
                count=int(size @ below))
        tr_n += size @ pencil.trace_weighted_resolvent(
            ds, e, disc.w, lam_nodes, bdiag=bdiag, N=N)

    integrand = np.exp(-t * lam_nodes) * tr_n * e_dir
    upper = np.sum(weights * integrand)
    # counterclockwise: upper ray traversed inward, lower ray (the complex
    # conjugate for a real pencil) outward
    total = np.conjugate(upper) - upper
    # contribution of the last panel (its 24 nodes)
    lastw = weights[-24:]
    lasti = integrand[-24:]
    last = abs(np.sum(lastw * lasti))
    # the constant is pinned by the one-eigenvalue residue computation
    value = (1j / (2 * math.pi)) * math.factorial(N - 1) * t ** (-(N - 1)) * total
    if not np.isfinite(value):
        raise NumericalError("contour trace is not finite", value=complex(value))
    if last > 1e-8 * max(abs(value), 1e-300):
        raise NumericalError("contour quadrature not converged",
                             last_panel=float(last), value=complex(value))
    if abs(value.imag) > 1e-6 * max(abs(value), 1.0):
        raise NumericalError("contour trace has a large imaginary part",
                             value=complex(value))
    return float(value.real)
