
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.errors import IndexSetError
from conespec.indexsets import (IndexFamily4, IndexSet, _zkey, compose_family,
                                extended_union, index_sum)
from conespec.oracles import (brute_extended_union, brute_sum,
                              index_algebra_agrees)

CUT = 6.0


def iset(*pairs, cinf=False):
    return IndexSet(pairs, CUT, cinf_step=cinf)


# ---------------------------------------------------------------------------
# extended union


def test_extended_union_empty_identity():
    E = iset((0, 0))
    assert extended_union(iset(), E).entries == E.entries
    assert extended_union(E, iset()).entries == E.entries


def test_extended_union_log_promotion():
    out = extended_union(iset((0, 0)), iset((0, 0)))
    assert out.entries == (((0j), 0), ((0j), 1))


def test_extended_union_enumerated():
    out = extended_union(iset((1, 0), (2, 1)), iset((2, 0)))
    assert set(out.entries) == {(1 + 0j, 0), (2 + 0j, 0), (2 + 0j, 1),
                                (2 + 0j, 2)}


def test_extended_union_cutoff_mismatch():
    with pytest.raises(IndexSetError):
        extended_union(IndexSet([(0, 0)], 5.0), IndexSet([(0, 0)], 6.0))


def test_cinf_closure_idempotent():
    E = iset((0.5, 1), cinf=True)
    assert (0.5 + 3, 1) in E


zvals = st.sampled_from([complex(r * 0.5, i * 0.5)
                         for r in range(-2, 8) for i in (-1, 0, 1)])
pairs = st.tuples(zvals, st.integers(0, 2))
sets = st.lists(pairs, max_size=5).map(lambda ps: IndexSet(ps, CUT))


@given(sets, sets)
@settings(max_examples=120, deadline=None)
def test_extended_union_matches_brute_force(E, F):
    assert set(extended_union(E, F).entries) == brute_extended_union(E, F)


@given(sets, sets)
@settings(max_examples=80, deadline=None)
def test_extended_union_commutative_and_monotone(E, F):
    assert extended_union(E, F).entries == extended_union(F, E).entries
    got = set(extended_union(E, F).entries)
    assert got >= set(E.entries) | set(F.entries)


@given(sets, sets)
@settings(max_examples=80, deadline=None)
def test_index_sum_matches_brute_force(E, F):
    assert set(index_sum(E, F).entries) == brute_sum(E, F)


# ---------------------------------------------------------------------------
# the float-key algebra the integer-key algebra replaced, kept as the
# reference it must reproduce: every operand exponent is keyed again, and
# sums are formed as floats before they are keyed


def _ref_max_logpow(S, z):
    key = _zkey(z)
    return max((k for w, k in S.entries if _zkey(w) == key), default=-1)


def _ref_extended_union(E, F):
    pairs = list(E.entries) + list(F.entries)
    fmax = {}
    for z, k in F.entries:
        key = _zkey(z)
        if fmax.get(key, -1) < k:
            fmax[key] = k
    seen = set()
    for z, k in E.entries:
        key = _zkey(z)
        if key in seen or key not in fmax:
            continue
        seen.add(key)
        pairs.append((z, _ref_max_logpow(E, z) + fmax[key] + 1))
    return IndexSet(pairs, E.re_cutoff, cinf_step=E.cinf_step and F.cinf_step)


def _ref_index_sum(E, F):
    if not E or not F:
        return IndexSet((), E.re_cutoff)
    pairs = [(z + w, k + l) for z, k in E.entries for w, l in F.entries]
    return IndexSet(pairs, E.re_cutoff, cinf_step=E.cinf_step and F.cinf_step)


def _float_order(S):
    return tuple(sorted(S.entries, key=lambda e: (e[0].real, e[0].imag, e[1])))


# half-integers, multiples of 0.1 (inexact in binary) and complex exponents
# with general imaginary parts; real parts reach 5, so sums cross cutoff 6
mixed_z = st.one_of(
    st.builds(lambda r, i: complex(r * 0.5, i * 0.5),
              st.integers(-4, 10), st.integers(-2, 2)),
    st.builds(lambda r, i: complex(r * 0.1, i * 0.1),
              st.integers(-30, 50), st.integers(-10, 10)),
    st.builds(complex, st.floats(-3.0, 5.0), st.floats(-2.0, 2.0)))
mixed_sets = st.builds(
    lambda ps, cinf, cut: IndexSet(ps, cut, cinf_step=cinf),
    st.lists(st.tuples(mixed_z, st.integers(0, 2)), max_size=4),
    st.booleans(), st.just(CUT))


def _same_set(got, ref):
    assert got.entries == ref.entries == _float_order(got)
    assert got.re_cutoff == ref.re_cutoff and got.cinf_step == ref.cinf_step
    for z in {z for z, _ in got.entries}:
        kmax = _ref_max_logpow(ref, z)
        assert got.max_logpow(z) == kmax
        assert (z, kmax) in got and (z, kmax + 1) not in got


@given(mixed_sets, mixed_sets, mixed_z)
@settings(derandomize=True, max_examples=200, deadline=None)
def test_key_algebra_matches_float_key_reference(E, F, probe):
    for got, ref in ((extended_union(E, F), _ref_extended_union(E, F)),
                     (index_sum(E, F), _ref_index_sum(E, F))):
        _same_set(got, ref)
        assert got.max_logpow(probe) == _ref_max_logpow(ref, probe)
    for S in (E, F):
        assert S.max_logpow(probe) == _ref_max_logpow(S, probe)


def test_key_algebra_keeps_cinf_sums_across_the_cutoff():
    E = IndexSet([(0.1 + 0.3j, 1), (2.5, 0)], CUT, cinf_step=True)
    F = IndexSet([(3.7 - 0.3j, 2), (4.5, 1)], CUT, cinf_step=True)
    got, ref = index_sum(E, F), _ref_index_sum(E, F)
    _same_set(got, ref)
    assert got.cinf_step and (5.8 + 0j, 3) in got and (6.8 + 0j, 0) not in got


# ---------------------------------------------------------------------------
# composition families


def fam(lb=None, rb=None, ff=None, fi=None):
    empty = iset()
    return IndexFamily4(lb or empty, rb or empty, ff or empty, fi or empty)


def test_compose_enumerated():
    E = fam(lb=iset((1, 0)), ff=iset((0, 0)))
    F = fam(lb=iset((2, 0)))
    out = compose_family(E, F)
    assert set(out.lb.entries) == {(1 + 0j, 0), (2 + 0j, 0)}


def test_compose_all_empty():
    out = compose_family(fam(), fam())
    for comp in (out.lb, out.rb, out.ff, out.fi):
        assert len(comp) == 0


def test_compose_front_face_empty_sum_convention():
    # (E_ff + F_ff) extunion (E_lb + F_rb) with empty lateral sets: the
    # second operand is the empty sum, so no log promotion occurs
    E = fam(ff=iset((0, 0)))
    F = fam(ff=iset((0, 0)))
    out = compose_family(E, F)
    assert set(out.ff.entries) == {(0j, 0)}


def test_compose_natural_family_brute_force():
    N0 = iset((0, 0), cinf=True)
    F = IndexFamily4(N0, N0, N0, N0)
    out = compose_family(F, F)
    want = brute_extended_union(brute_sum(N0, N0), brute_sum(N0, N0))
    assert set(out.ff.entries) == want
    assert set(out.lb.entries) == brute_extended_union(N0, brute_sum(N0, N0))


@given(sets, sets, sets, sets)
@settings(max_examples=60, deadline=None)
def test_compose_matches_brute_force(A, B, C, D):
    assert index_algebra_agrees(A, B, C, D)
