"""Independent oracles, each implemented once, shared by verify and the tests.

* Brute-force index-set algebra over plain sets (``random_index_set``,
  ``brute_extended_union``, ``brute_sum``, ``brute_compose``,
  ``index_algebra_agrees``): verify's ``indexset_laws`` check, ACCEPT-14
  and ``tests/test_indexsets.py``.
* ``pushforward_suite``: verify's ``pushforward_cases`` check, ACCEPT-08.
* ``ode_explicit_check``: verify's ``ode_solution`` check, ACCEPT-09.
* ``component_identity_check``: verify's ``component_identity`` check,
  ACCEPT-10.
* ``symbol_class_check``: verify's ``seminorm_membership`` and
  ``seminorm_misdeclared`` checks, ACCEPT-15.

Callers choose the grid and case count of the first three; the last two
run at one fixed setting.  Library functions are looked up through their
modules at call time, so wrappers installed on module attributes
(``perfbench/tracer.py``) see these calls.
"""

import math

import numpy as np
from scipy.integrate import quad

from . import asymptotics, indexsets, symbols


def random_index_set(rng):
    """Up to four random entries, cutoff 6.

    Exponents lie on the half-integer grid with -1 <= Re z <= 7/2 (sums can
    cross the cutoff) and |Im z| <= 1/2; log powers are at most 2.
    """
    n = int(rng.integers(0, 5))
    pairs = []
    for _ in range(n):
        z = complex(rng.integers(-2, 8) * 0.5,
                    rng.integers(-1, 2) * 0.5)
        pairs.append((z, int(rng.integers(0, 3))))
    return indexsets.IndexSet(pairs, 6.0)


def _close(entries):
    """Log-downward closure: (z, k) brings (z, j) for every j <= k."""
    return {(z, j) for z, k in entries for j in range(k + 1)}


def brute_extended_union(sa, sb):
    """Extended union of two collections of (z, k) entries (sets or IndexSets)."""
    sa, sb = set(sa), set(sb)
    promoted = {(z, k + l + 1) for z, k in sa for w, l in sb if z == w}
    return _close(sa | sb | promoted)


def brute_sum(A, B):
    """Pairwise sums of two ``IndexSet``s, truncated at their cutoff."""
    cut = min(A.re_cutoff, B.re_cutoff)
    return _close({(z + w, k + l) for z, k in A for w, l in B
                   if (z + w).real <= cut + 1e-9})


def brute_compose(E, F):
    """Components (lb, rb, ff, fi) of the composition of two families."""
    return (brute_extended_union(E.lb, brute_sum(E.ff, F.lb)),
            brute_extended_union(brute_sum(E.rb, F.ff), F.rb),
            brute_extended_union(brute_sum(E.ff, F.ff), brute_sum(E.lb, F.rb)),
            brute_sum(E.fi, F.fi))


def index_algebra_agrees(A, B, C, D):
    """Library index-set algebra against brute force on one case.

    Checks ``extended_union(A, B)`` and all four components of
    ``compose_family((A, B, C, D), (D, C, B, A))``.
    """
    if set(indexsets.extended_union(A, B).entries) != brute_extended_union(A, B):
        return False
    E = indexsets.IndexFamily4(A, B, C, D)
    F = indexsets.IndexFamily4(D, C, B, A)
    out = indexsets.compose_family(E, F)
    got = tuple(set(c.entries) for c in (out.lb, out.rb, out.ff, out.fi))
    return got == brute_compose(E, F)


def pushforward_suite(rng, cases, xg):
    """Fiber integrals of phi(x) phi(y) x^a y^b, a, b in {1/4, ..., 7/4}.

    The first ``max(3, cases // 4)`` cases have a = b.  Every verdict must
    pass; where a = b the log term must be detected with its closed-form
    coefficient -1 (to 1e-6), elsewhere no log column may be detected.
    Returns (all passed, coincident cases, worst log coefficient error).
    """
    def phi(v):
        return 1.0 - symbols.smoothstep((v - 0.35) / 0.35)

    n_coincident = max(3, cases // 4)
    ok, worst_log = True, 0.0
    for i in range(cases):
        if i < n_coincident:
            a = b = float(rng.integers(1, 8)) / 4.0
        else:
            a = float(rng.integers(1, 8)) / 4.0
            b = float(rng.integers(1, 8)) / 4.0
        u = lambda xx, yy: phi(xx) * phi(yy) * xx ** a * yy ** b
        E1 = indexsets.IndexSet([(a, 0)], 2.5, cinf_step=True)
        E2 = indexsets.IndexSet([(b, 0)], 2.5, cinf_step=True)
        exp, verdict = asymptotics.pushforward_fund2(u, E1, E2, xg)
        ok = ok and verdict.passed
        if a == b:
            err = abs(exp.coeff(a, 1) + 1.0)
            worst_log = max(worst_log, err)
            ok = ok and err < 1e-6 and any(
                t.detected and t.logpow == 1 for t in exp.terms)
        else:
            ok = ok and not any(t.detected and t.logpow >= 1 for t in exp.terms)
    return ok, n_coincident, worst_log


def ode_explicit_check(xg):
    """Resonant dilation ODE: fitted log coefficient against direct integration.

    With g(y) = omega(y) y^a the decaying solution is f = x^a (c log x + C)
    exactly for small x, so two samples pin c (the orientation gives
    c = +1; a log(1/x) basis would flip it).  Passes when the verdict
    passes, |fit - explicit| < 1e-8 and ||fit| - 1| < 1e-8.
    Returns (passed, fitted coefficient, |fit - explicit|).
    """
    def omega(v):
        return 1.0 - symbols.smoothstep((v - 0.8) / 0.8)

    a = 0.4
    E = indexsets.IndexSet([(a, 0)], 3.0, cinf_step=True)
    exp, verdict = asymptotics.ode_fund1(lambda x: omega(x) * x ** a, a, E, xg)
    fit = exp.coeff(a, 1)

    def f(x):
        # y^(-a) g(y) reduces to omega(y)
        val, _ = quad(lambda s: omega(math.exp(s)), math.log(x), math.log(2.0),
                      epsabs=1e-13, epsrel=1e-13, limit=400)
        return -(x ** a) * val

    x1, x2 = 1e-5, 1e-6
    explicit = (f(x1) / x1 ** a - f(x2) / x2 ** a) / math.log(x1 / x2)
    err = abs(fit - explicit)
    passed = verdict.passed and err < 1e-8 and abs(abs(fit) - 1.0) < 1e-8
    return passed, fit, err


def component_identity_check():
    """Euler identity of the (xi^2 - lam)^(-2) component integral, to 1e-6.

    Returns (passed, identity residual).
    """
    res = asymptotics.trace_component_Ak(
        lambda xi, lam: (np.asarray(xi) ** 2 - lam) ** -2.0,
        symbols.ChiCutoff(1.0), np.geomspace(1e-3, 1e-1, 16),
        mu=2.0, N=2, mu_prime=0.0, n=1, k=0)
    return res.identity_residual < 1e-6, res.identity_residual


def symbol_class_check():
    """Seminorms of the resolvent symbol (xi^2 - lam)^(-1) at 40 points per decade.

    It must pass its class bounds at orders (-2, -2, 2), and fail at the
    misdeclared orders (-3, -2, 2) with growth slope >= 0.9.  Returns
    (membership passed, worst ratio, misdeclaration caught, its slope).
    """
    q = symbols.resolvent_symbol(lambda xi: np.asarray(xi) ** 2, 2.0,
                                 symbols.LEFT_HALF_PLANE)
    rep = symbols.seminorm_check(q, 2, 2, pts_per_decade=40)
    rep_bad = symbols.seminorm_check(q.with_orders((-3.0, -2.0, 2.0)), 0, 0,
                                     pts_per_decade=40)
    slope = rep_bad.rows[0].growth_slope
    return (rep.passed, max(r.worst_ratio for r in rep.rows),
            not rep_bad.passed and slope >= 0.9, slope)
