"""Numerical traces: heat traces, weighted traces, resolvent power traces.

Values come either from eigenvalue sums (spectral data, exact for the
frozen models via the Bessel oracle) or from contour quadrature against
resolvent solves on a discretization.  Every retained sample carries an
explicit truncation bound; samples whose bound exceeds a fixed fraction of
the value are refused rather than silently kept.  The fraction is
``_TAIL_REFUSAL`` = 1 % for heat and resolvent trace samples, and
``_POWER_SUM_TAIL_REFUSAL`` = 1e-6 for complex power sums, which are the
independent values the zeta continuation is checked against to 1e-6.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import pencil
from .coneop import Discretization, SpectralData, _weyl_fit, eigenvalues
from .errors import (ConfigurationError, InsufficientSpectrumError,
                     NumericalError)

_TAIL_REFUSAL = 0.01
_POWER_SUM_TAIL_REFUSAL = 1e-6


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


def identity_weight():
    return WeightOperator(0.0, 0.0, phi=lambda x: np.ones_like(np.asarray(x, dtype=float)),
                          label="identity")


def _require_trace_class(meta, N, B):
    mu = meta.get("mu", 2.0)
    n = meta.get("n", 2)
    if N * mu - B.mu_prime <= n:
        raise ConfigurationError(
            "trace does not converge: need N*mu - mu' > n",
            N=N, mu=mu, mu_prime=B.mu_prime, n=n)


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
    refused = np.flatnonzero(tails > _TAIL_REFUSAL * np.maximum(vals, 1e-300))
    if len(refused):
        i = refused[0]
        need = 40.0 / float(np.min(t_grid))
        raise InsufficientSpectrumError(
            "heat trace tail bound too large at small t",
            t=float(t_grid[i]), tail=float(tails[i]), value=float(vals[i]),
            lam_max_needed=need,
            count_needed=int(sd.count() * need / max(sd.lam_max, 1.0)))
    meta = dict(sd.meta)
    meta.update({"N": 0, "mu_prime": 0.0, "beta": 0.0})
    return TraceSeries(t_grid, vals, tails, "heat", meta, sd)


def complex_power_sum(sd: SpectralData, z):
    """Sum of lam^z over the spectrum, for Re z well inside convergence.

    Requires Re z < -n/mu - 0.5 (margin on the convergence abscissa).
    Returns (value, tail_bound); raises if the tail bound is above
    ``_POWER_SUM_TAIL_REFUSAL`` times the value.
    """
    mu = sd.meta.get("mu", 2.0)
    n = sd.meta.get("n", 2)
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
class WeightedSpectralData:
    """Per-mode (eigenvalue, matrix element) pairs for a weight operator.

    b entries are <B u, u> in the weighted inner product for W-normalized
    eigenfunctions u, including the per-mode tangential factor.
    ``extra_nus`` bound the lowest eigenvalue of the modes beyond the
    materialized range, for mode tail estimates.
    """

    pairs: dict           # mode -> (lams, bs)
    lam_max: float
    meta: dict
    weyl: dict
    bfit: dict            # mode -> (C, q): |b| <~ C * lam^q for the tail
    extra_nus: np.ndarray

    def modes(self):
        return sorted(self.pairs)

    def heat_value(self, t):
        val = 0.0
        tail = 0.0
        for m in self.modes():
            lams, bs = self.pairs[m]
            val += float(np.sum(bs * np.exp(-t * lams)))
            tail += self._tail(m, lambda L: math.exp(-t * L))
        tail += self._mode_tail(lambda L: math.exp(-t * L))
        return val, tail

    def resolvent_power_value(self, lam, N):
        val = 0.0 + 0.0j
        tail = 0.0
        for m in self.modes():
            lams, bs = self.pairs[m]
            val += np.sum(bs * (lams - lam) ** (-float(N)))
            tail += self._tail(m, lambda L: abs((L - lam)) ** (-float(N)))
        tail += self._mode_tail(lambda L: abs((L - lam)) ** (-float(N)))
        return val, tail

    def _b_cap(self):
        # matrix elements of boundary-concentrated weights fall off with the
        # mode number (the eigenfunctions retreat from the tip), so the
        # modes beyond the materialized range are capped by the envelope of
        # the top materialized quarter, with a safety factor
        per_mode = {m: float(np.max(np.abs(bs)))
                    for m, (_, bs) in self.pairs.items() if len(bs)}
        if not per_mode:
            return 1.0
        mmax = max(abs(m) for m in per_mode)
        top = [v for m, v in per_mode.items() if abs(m) >= 0.75 * mmax]
        return 4.0 * max(max(top), 1e-300)

    def _block_sum(self, f, k0, lam_of_k, coef):
        # left-endpoint block bound: the summand is decreasing past the edge
        acc = 0.0
        k = k0
        while True:
            stride = max(1, (k - k0) // 8)
            term = coef(lam_of_k(k)) * f(lam_of_k(k)) * stride
            acc += term
            if term < 1e-18 * max(acc, 1e-300) or k > k0 + 300000:
                break
            k += stride
        return acc

    def _tail(self, m, f):
        c1, c0 = self.weyl.get(m, (math.pi, 0.0))
        C, q = self.bfit.get(m, (1.0, 0.0))
        lams, _ = self.pairs[m]
        return self._block_sum(f, len(lams) + 1,
                               lambda k: (c1 * k + c0) ** 2,
                               lambda L: C * max(L, 1.0) ** q)

    def _mode_tail(self, f):
        if len(self.extra_nus) == 0:
            return 0.0
        cap = self._b_cap()
        total = 0.0
        for nu in self.extra_nus:
            first = cap * f(nu * nu)
            if first < 1e-18 * max(total, 1e-300):
                break
            total += self._block_sum(f, 0, lambda k: (math.pi * k + nu) ** 2,
                                     lambda L: cap)
        return total


def weighted_spectral_data(disc: Discretization, B: WeightOperator, lam_cap):
    """Eigenpairs up to lam_cap with matrix elements of the weight operator."""
    op = disc.op
    mult = B.multiplier(disc.x)
    pairs = {}
    weyl = {}
    bfit = {}
    for m in disc.mode_list():
        vals, vecs = eigenvalues(disc, m, lam_max=lam_cap, vectors=True)
        if len(vals) == 0:
            continue
        rho = B.mode_factor(m)
        bs = rho * disc.h * np.einsum("ij,i->j", np.abs(vecs) ** 2,
                                      mult * disc.w)
        pairs[m] = (vals, bs)
        weyl[m] = _weyl_fit(vals)
        # matrix-element growth fit on the top half for tail extrapolation;
        # the exponent is clamped to [0, 1.5] (bounded weights grow slower)
        half = max(1, len(vals) // 2)
        if len(vals) >= 6 and np.all(np.abs(bs[half:]) > 0):
            q, logc = np.polyfit(np.log(vals[half:]), np.log(np.abs(bs[half:])), 1)
            bfit[m] = (float(np.exp(logc)) * 2.0,
                       float(min(max(q, 0.0), 1.5)))
        else:
            bfit[m] = (float(np.max(np.abs(bs))) * 2.0 + 1e-300, 0.0)
    meta = {"mu": op.mu, "n": 2, "mu_prime": B.mu_prime, "beta": B.beta,
            "operator": op.label, "weight": B.label}
    from .coneop import _mode_nu_floor
    extra = np.asarray(sorted(_mode_nu_floor(op, m) for m in op.mode_list()
                              if m not in pairs))
    return WeightedSpectralData(pairs, float(lam_cap), meta, weyl, bfit, extra)


def weighted_heat_trace(wsd: WeightedSpectralData, B: WeightOperator, t_grid):
    """Trace of B e^(-tA) as an eigenvalue sum with matrix elements.

    ``wsd`` holds the eigenpairs with the matrix elements of B (see
    weighted_spectral_data).  For the identity weight on plain
    SpectralData use heat_trace.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    vals = np.empty(len(t_grid))
    tails = np.empty(len(t_grid))
    for i, t in enumerate(t_grid):
        v, tl = wsd.heat_value(t)
        if tl > _TAIL_REFUSAL * max(abs(v), 1e-300):
            raise InsufficientSpectrumError(
                "weighted heat trace tail too large",
                t=float(t), tail=float(tl), value=float(v),
                lam_cap_needed=40.0 / float(np.min(t_grid)))
        vals[i] = v
        tails[i] = tl
    meta = dict(wsd.meta)
    meta["N"] = 0
    return TraceSeries(t_grid, vals, tails, "heat", meta, wsd)


def resolvent_power_trace(wsd: WeightedSpectralData, B: WeightOperator, N,
                          lam_grid):
    """Trace of B (A - lam)^(-N) on a grid of shifts.

    Enforces the trace-class condition N*mu - mu' > n before computing.
    With the identity weight the value reduces to sum (lam_j - lam)^(-N).
    """
    N = int(N)
    lam_grid = np.asarray(lam_grid, dtype=complex)
    _require_trace_class(wsd.meta, N, B)
    vals = np.empty(len(lam_grid), dtype=complex)
    tails = np.empty(len(lam_grid))
    for i, lam in enumerate(lam_grid):
        v, tl = wsd.resolvent_power_value(lam, N)
        if tl > _TAIL_REFUSAL * max(abs(v), 1e-300):
            raise InsufficientSpectrumError(
                "resolvent power trace tail too large",
                lam=complex(lam), tail=float(tl), value=complex(v))
        vals[i] = v
        tails[i] = tl
    meta = dict(wsd.meta)
    meta["N"] = N
    return TraceSeries(lam_grid, vals, tails, "resolvent", meta, wsd)


def resolvent_power_trace_spectral(sd: SpectralData, N, lam_grid):
    """Identity-weight resolvent power trace from plain spectral data."""
    N = int(N)
    lam_grid = np.asarray(lam_grid, dtype=complex)
    _require_trace_class(sd.meta, N, identity_weight())
    lams = sd.all_eigs()
    vals = np.array([np.sum((lams - lam) ** (-float(N))) for lam in lam_grid])
    _, tail0 = sd.power_sum(-float(N))
    tails = []
    for lam in lam_grid:
        gap = float(np.min(np.abs(lams - lam)))
        if gap <= 0:
            raise NumericalError("shift on the spectrum", lam=complex(lam))
        if complex(lam).real <= 0:
            # |lam_j - lam| >= lam_j beyond the edge, so the z = -N tail applies
            tails.append(tail0)
        else:
            edge = sd.lam_max
            if abs(lam) > edge / 2:
                raise InsufficientSpectrumError(
                    "shift too close to the truncation edge", lam=complex(lam))
            tails.append(tail0 * (edge / (edge - abs(lam))) ** N)
    meta = dict(sd.meta)
    meta.update({"N": N, "mu_prime": 0.0, "beta": 0.0})
    return TraceSeries(lam_grid, vals, np.asarray(tails), "resolvent", meta, sd)


# ---------------------------------------------------------------------------
# contour realization of the heat operator


def _gauss_panels(u_max, n_panels):
    # 24-point Gauss-Legendre on each of n_panels geometrically growing panels
    edges = np.concatenate([[0.0], np.geomspace(u_max / 2 ** (n_panels - 1),
                                                u_max, n_panels)])
    xg, wg = np.polynomial.legendre.leggauss(24)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (b - a) * xg + 0.5 * (a + b))
        weights.append(0.5 * (b - a) * wg)
    return np.concatenate(nodes), np.concatenate(weights)


def heat_trace_contour(disc: Discretization, t, *, N=3, bdiag=None):
    """Heat trace by contour quadrature of the N-th resolvent power.

    Evaluates the Cauchy integral of exp(-t lam) against Tr (A - lam)^(-N)
    after N-1 integrations by parts, on the contour lam = -1 + u e^(+-i pi/4),
    u >= 0.  The trace of the resolvent power is obtained from the
    tridiagonal diagonal-of-inverse recursions plus a small Cauchy circle
    for the (N-1)-st derivative, so each quadrature node costs O(grid size)
    per mode.  The result must agree with the eigenvalue sum; a last-panel
    contribution above 1e-8 of the value raises.
    """
    N = int(N)
    if N < 2:
        raise ConfigurationError("need N >= 2 for an integrable contour", N=N)
    t = float(t)
    delta = math.pi / 4
    u_max = 46.0 / (t * math.cos(delta))
    nodes, weights = _gauss_panels(u_max, n_panels=14)
    e_dir = complex(math.cos(delta), math.sin(delta))
    lam_nodes = -1.0 + nodes * e_dir

    # derivative circles around each node
    M = 8
    dist = np.abs(lam_nodes.imag)
    dist = np.where(lam_nodes.real > 0, dist, np.abs(lam_nodes))
    radius = 0.35 * np.maximum(dist, 1e-3)
    circle = np.exp(2j * math.pi * np.arange(M) / M)
    all_shifts = (lam_nodes[:, None] + radius[:, None] * circle[None, :]).ravel()

    tr1 = np.zeros(len(all_shifts), dtype=complex)
    for m in disc.mode_list():
        d, e = disc.matrix(m)
        tr1 += pencil.trace_weighted_resolvent(d, e, disc.w, all_shifts,
                                               bdiag=bdiag)
    tr1 = tr1.reshape(len(lam_nodes), M)
    # (N-1)-st Taylor coefficient of Tr(A - lam)^(-1) = Tr(A - lam)^(-N)
    phase = np.exp(-2j * math.pi * (N - 1) * np.arange(M) / M)
    tr_n = (tr1 * phase[None, :]).mean(axis=1) / radius ** (N - 1)

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
    if last > 1e-8 * max(abs(value), 1e-300):
        raise NumericalError("contour quadrature not converged",
                             last_panel=float(last), value=complex(value))
    if abs(value.imag) > 1e-6 * max(abs(value), 1.0):
        raise NumericalError("contour trace has a large imaginary part",
                             value=complex(value))
    return float(value.real)
