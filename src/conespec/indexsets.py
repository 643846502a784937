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
power, and ``index_sum``, ``extended_union``, ``cinf_close`` and
``max_logpow`` work on those keys: an exponent is quantized once, when it
enters through the constructor.  Adding keys is exact.  For |z| below
about 1e3 it equals the key of the float sum of the rounded exponents;
beyond that the float sum would lose the 1e-12 resolution.
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

    # -- serialization -----------------------------------------------------

    def to_text(self):
        """Sorted (re, im, k) triples, one per line, preceded by a cutoff line."""
        lines = [f"# re_cutoff {self.re_cutoff!r} cinf {int(self.cinf_step)}"]
        for z, k in self.entries:
            lines.append(f"{z.real!r} {z.imag!r} {k}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        """Inverse of ``to_text``: the cutoff and tag come from the header."""
        pairs = []
        re_cutoff, cinf_step = None, False
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2 and parts[0] == "re_cutoff":
                    if re_cutoff is None:
                        re_cutoff = float(parts[1])
                    if len(parts) >= 4 and parts[2] == "cinf":
                        cinf_step = bool(int(parts[3]))
                continue
            re, im, k = line.split()
            pairs.append((complex(float(re), float(im)), int(k)))
        if re_cutoff is None:
            raise IndexSetError("serialized index set carries no cutoff")
        return cls(pairs, re_cutoff, cinf_step=cinf_step)


def _check_cutoffs(*sets):
    cut = sets[0].re_cutoff
    for s in sets[1:]:
        if abs(s.re_cutoff - cut) > _CUTOFF_TOL:
            raise IndexSetError(
                "index sets have mismatched cutoffs",
                cutoffs=[x.re_cutoff for x in sets],
            )
    return cut


def naturals(re_cutoff, start=1):
    """The integers start, start+1, ... as a plain index set (log power 0)."""
    n = int(re_cutoff + _CUTOFF_TOL)
    return IndexSet(
        [(complex(j, 0.0), 0) for j in range(start, n + 1)],
        re_cutoff,
        cinf_step=True,
    )


def naturals0(re_cutoff):
    return naturals(re_cutoff, start=0)


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


def cinf_close(E):
    """Close E under z -> z + 1 and tag it as generated that way."""
    return IndexSet._from_keys(dict(E._logpow), E.re_cutoff, cinf_step=True)


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


def compose_power(fam, N):
    """The N-fold composition of a family with itself."""
    if N < 1:
        raise IndexSetError("composition power must be >= 1", N=N)
    out = fam
    for _ in range(N - 1):
        out = compose_family(out, fam)
    return out


def merge_poles(poles):
    """Aggregate (sigma, ord[, mode]) records into {sigma: max order}.

    A point that is singular for several modes is a pole of the inverse
    conormal symbol of order equal to the worst (largest) mode order.
    """
    merged = {}
    reps = {}
    for rec in poles:
        sigma, order = rec[0], int(rec[1])
        key = _zkey(sigma)
        if merged.get(key, 0) < order:
            merged[key] = order
        reps.setdefault(key, complex(sigma))
    return [(reps[k], merged[k]) for k in sorted(merged, key=lambda t: (t[1], t[0]))]


def build_hat_E(poles, alpha, mu, cutoff, sign):
    """One-sided exponent set generated by a boundary spectrum.

    Poles are given in the convention where the dilation generator acts as
    multiplication by sigma on trial functions x^{i sigma}.  For the upper
    set (sign=+1) a pole sigma with Im sigma < -alpha contributes the base
    exponent z0 = i sigma - mu; for the lower set (sign=-1) a pole with
    Im sigma > -alpha contributes z0 = -i sigma + mu.  The integer shift
    z0 + r carries log powers k with
    k + 1 <= sum_{l=0..r} ord(sigma -+ i l).
    """
    if sign not in (+1, -1):
        raise IndexSetError("sign must be +1 or -1", sign=sign)
    merged = merge_poles(poles)
    ordmap = {_zkey(s): o for s, o in merged}
    pairs = []
    for sigma, _ in merged:
        if sign == +1:
            if not (sigma.imag < -alpha - 1e-12):
                continue
            z0 = 1j * sigma - mu
        else:
            if not (sigma.imag > -alpha + 1e-12):
                continue
            z0 = -1j * sigma + mu
        acc = 0
        r = 0
        while z0.real + r <= cutoff + _CUTOFF_TOL:
            probe = sigma - 1j * r if sign == +1 else sigma + 1j * r
            acc += ordmap.get(_zkey(probe), 0)
            if acc >= 1:
                pairs.append((z0 + r, acc - 1))
            r += 1
    return IndexSet(pairs, cutoff, cinf_step=True)


def build_E_alpha(poles, alpha, mu, cutoff):
    """Resolvent index family generated by a boundary spectrum and weight.

    Components: the self-promoted one-sided sets on the two lateral faces,
    N extunion (hat_E_plus + hat_E_minus) on the front face, and the
    nonnegative integers on the parameter face.  An empty spectrum yields
    (empty, empty, N, N_0).
    """
    hat_p = build_hat_E(poles, alpha, mu, cutoff, +1)
    hat_m = build_hat_E(poles, alpha, mu, cutoff, -1)
    lb = extended_union(hat_p, hat_p)
    rb = extended_union(hat_m, hat_m)
    ff = extended_union(naturals(cutoff), index_sum(hat_p, hat_m))
    return IndexFamily4(lb, rb, ff, naturals0(cutoff))
