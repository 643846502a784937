"""Finite algebra of index sets for conormal asymptotic expansions.

An index set prescribes which terms x^z (log x)^k may appear in an
asymptotic expansion at a boundary: it is a discrete collection of pairs
(z, k) with complex exponent z and integer log power k >= 0.  Here sets
are truncated at a real-part cutoff and kept canonical, so all operations
are exact, finite and reproducible:

* (z, k) present implies (z, l) present for every 0 <= l <= k;
* only entries with Re z <= re_cutoff are materialized;
* a set tagged ``cinf_step`` is closed under z -> z + 1 below the cutoff
  and is understood to continue that way past it;
* entries are sorted by (Re z, Im z, k) with no duplicates.

Exponents are compared after rounding real and imaginary parts to 12
decimal places.  Inputs that are exact in binary (integers, halves,
quarters, ...) are therefore compared exactly; general floats are
compared with an effective tolerance of 1e-12.

Each set keeps the integer keys of its exponents with their largest log
power, and ``index_sum``, ``extended_union`` and ``max_logpow`` work on
those keys: an exponent is quantized once, when it enters through the
constructor.  Adding keys is exact.  For |z| below about 1e3 it equals
the key of the float sum of the rounded exponents; beyond that the float
sum would lose the 1e-12 resolution.
"""

from dataclasses import dataclass

from .errors import IndexSetError

_SCALE = 10**12
_CUTOFF_TOL = 1e-9


def _zkey(z):
    z = complex(z)
    # integer quantization avoids ties between nearby floats
    return (int(round(z.real * _SCALE)), int(round(z.imag * _SCALE)))


def _zsnap(key):
    return complex(key[0] / _SCALE, key[1] / _SCALE)


class IndexSet:
    """Canonical truncated index set.

    Parameters
    ----------
    pairs : iterable of (z, k)
        Generating entries; closure rules are applied by the constructor.
    re_cutoff : float
        Entries with Re z > re_cutoff are discarded (they remain implicit
        when the set carries a generation rule).
    cinf_step : bool
        If set, close the generators under z -> z + l, l = 1, 2, ... up to
        the cutoff, and record that the set continues past it.
    """

    __slots__ = ("entries", "re_cutoff", "cinf_step", "_logpow")

    def __init__(self, pairs, re_cutoff, cinf_step=False):
        re_cutoff = float(re_cutoff)
        best = {}
        for z, k in pairs:
            k = int(k)
            if k < 0:
                raise IndexSetError("log power must be nonnegative", entry=(z, k))
            key = _zkey(z)
            if best.get(key, -1) < k:
                best[key] = k
        self._settle(best, re_cutoff, cinf_step)

    @classmethod
    def _from_keys(cls, best, re_cutoff, cinf_step=False):
        """The set with largest log power ``best[key]`` at each exponent key.

        Takes ownership of ``best``.  Bypasses ``__init__``: the keys are
        already quantized, so no exponent is keyed again.
        """
        out = object.__new__(cls)
        out._settle(best, float(re_cutoff), cinf_step)
        return out

    def _settle(self, best, re_cutoff, cinf_step):
        # truncate, close under z -> z + 1 if tagged, and materialize
        cut_key = int(round((re_cutoff + _CUTOFF_TOL) * _SCALE))
        for key in [key for key in best if key[0] > cut_key]:
            del best[key]
        if cinf_step:
            extra = {}
            for (re, im), k in best.items():
                shift = 1
                while re + shift * _SCALE <= cut_key:
                    key = (re + shift * _SCALE, im)
                    if extra.get(key, -1) < k:
                        extra[key] = k
                    shift += 1
            for key, k in extra.items():
                if best.get(key, -1) < k:
                    best[key] = k
        # _zsnap is monotone, so key order is (Re z, Im z) order
        out = []
        for key in sorted(best):
            z = _zsnap(key)
            for k in range(best[key] + 1):
                out.append((z, k))
        object.__setattr__(self, "entries", tuple(out))
        object.__setattr__(self, "re_cutoff", re_cutoff)
        object.__setattr__(self, "cinf_step", bool(cinf_step))
        object.__setattr__(self, "_logpow", best)

    def __setattr__(self, name, value):
        raise AttributeError("IndexSet is immutable")

    # -- basic queries ----------------------------------------------------

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __bool__(self):
        return bool(self.entries)

    def __contains__(self, pair):
        z, k = pair
        return self.max_logpow(z) >= int(k)

    def max_logpow(self, z):
        """Largest log power attached to exponent z, or -1 if z is absent."""
        return self._logpow.get(_zkey(z), -1)

    def __eq__(self, other):
        if not isinstance(other, IndexSet):
            return NotImplemented
        return (
            self.entries == other.entries
            and abs(self.re_cutoff - other.re_cutoff) <= _CUTOFF_TOL
            and self.cinf_step == other.cinf_step
        )

    def __hash__(self):
        return hash((self.entries, round(self.re_cutoff, 9), self.cinf_step))

    def __repr__(self):
        tag = ", cinf" if self.cinf_step else ""
        return f"IndexSet({list(self.entries)!r}, re_cutoff={self.re_cutoff}{tag})"

def _check_cutoffs(*sets):
    cut = sets[0].re_cutoff
    for s in sets[1:]:
        if abs(s.re_cutoff - cut) > _CUTOFF_TOL:
            raise IndexSetError(
                "index sets have mismatched cutoffs",
                cutoffs=[x.re_cutoff for x in sets],
            )
    return cut


def extended_union(E, F):
    """Union of E and F plus log promotion at coinciding exponents.

    The result contains E, F and, for every exponent z carried by both,
    the pairs (z, k + l + 1) with (z, k) in E and (z, l) in F.  Because
    both inputs are log-downward closed it suffices to promote at the
    maximal log powers.
    """
    cut = _check_cutoffs(E, F)
    best = dict(E._logpow)
    for key, l in F._logpow.items():
        k = best.get(key)
        best[key] = l if k is None else k + l + 1
    return IndexSet._from_keys(best, cut, E.cinf_step and F.cinf_step)


def index_sum(E, F):
    """Pairwise sums {(z + w, k + l)}, truncated at the common cutoff.

    A sum with an empty operand is empty (the sum ranges over pairs).
    Both operands are log-downward closed, so summing the largest log
    powers of each pair of exponents suffices.
    """
    cut = _check_cutoffs(E, F)
    if not E or not F:
        return IndexSet((), cut)
    best = {}
    right = list(F._logpow.items())
    for (re, im), k in E._logpow.items():
        for (re2, im2), l in right:
            key = (re + re2, im + im2)
            if best.get(key, -1) < k + l:
                best[key] = k + l
    return IndexSet._from_keys(best, cut, E.cinf_step and F.cinf_step)


@dataclass(frozen=True)
class IndexFamily4:
    """Index sets attached to the four boundary faces of a composition."""

    lb: IndexSet
    rb: IndexSet
    ff: IndexSet
    fi: IndexSet


def compose_family(E, F):
    """Composition law for four-component index families.

    G_lb = E_lb extunion (E_ff + F_lb)
    G_rb = (E_rb + F_ff) extunion F_rb
    G_ff = (E_ff + F_ff) extunion (E_lb + F_rb)
    G_fi = E_fi + F_fi
    """
    g_lb = extended_union(E.lb, index_sum(E.ff, F.lb))
    g_rb = extended_union(index_sum(E.rb, F.ff), F.rb)
    g_ff = extended_union(index_sum(E.ff, F.ff), index_sum(E.lb, F.rb))
    return IndexFamily4(g_lb, g_rb, g_ff, index_sum(E.fi, F.fi))
