import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conespec.errors import IndexSetError
from conespec.indexsets import (IndexFamily4, IndexSet, build_E_alpha,
                                build_hat_E, cinf_close, compose_family,
                                compose_power, extended_union, index_sum,
                                naturals, naturals0)
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
    assert cinf_close(E) == E
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
    N0 = naturals0(CUT)
    F = IndexFamily4(N0, N0, N0, N0)
    out = compose_family(F, F)
    want = brute_extended_union(brute_sum(N0, N0), brute_sum(N0, N0))
    assert set(out.ff.entries) == want
    assert set(out.lb.entries) == brute_extended_union(N0, brute_sum(N0, N0))


@given(sets, sets, sets, sets)
@settings(max_examples=60, deadline=None)
def test_compose_matches_brute_force(A, B, C, D):
    assert index_algebra_agrees(A, B, C, D)


def test_compose_power_iterates():
    N0 = naturals0(CUT)
    F = IndexFamily4(N0, N0, N0, N0)
    twice = compose_power(F, 2)
    assert twice.lb == compose_family(F, F).lb


# ---------------------------------------------------------------------------
# boundary-spectrum driven families


def test_hat_set_single_simple_pole():
    # one pole below the weight line contributes a shifted ladder, log free
    sigma = -1.3j
    hat = build_hat_E([(sigma, 1)], 1.0, 2.0, 4.0, +1)
    z0 = 1.3 - 2.0
    for r in range(0, 5):
        if z0 + r <= 4.0:
            assert (z0 + r, 0) in hat
    assert all(k == 0 for _, k in hat)


def test_empty_spectrum_family():
    out = build_E_alpha([], 1.0, 2.0, 4.0)
    assert len(out.lb) == 0 and len(out.rb) == 0
    assert [z.real for z, k in out.ff] == [1.0, 2.0, 3.0, 4.0]
    assert [z.real for z, k in out.fi] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_order_doubling_raises_log_ceiling():
    sigma = -1.3j
    lo = build_hat_E([(sigma, 1)], 1.0, 2.0, 4.0, +1)
    hi = build_hat_E([(sigma, 2)], 1.0, 2.0, 4.0, +1)
    z0 = 1.3 - 2.0
    for r in range(0, 6):
        if z0 + r <= 4.0:
            assert hi.max_logpow(z0 + r) == lo.max_logpow(z0 + r) + 1


def test_vertical_pole_chain_promotes_logs():
    # poles displaced by exactly i give growing log ceilings along the ladder
    poles = [(-1.5j, 1), (-2.5j, 1)]
    hat = build_hat_E(poles, 1.0, 2.0, 3.0, +1)
    assert hat.max_logpow(-0.5) == 0
    assert hat.max_logpow(0.5) == 1


def test_laplace_family_weight_one():
    poles = []
    for m in range(-2, 3):
        s = math.sqrt(m * m + 2.25)
        poles.append((complex(0, -s), 1, m))
        poles.append((complex(0, s), 1, m))
    famE = build_E_alpha(poles, 1.0, 2.0, 3.0)
    # lateral sets are self promoted: every exponent carries at least log^1
    assert famE.lb.max_logpow(-0.5) >= 1
    # the front face contains the positive integers
    for j in (1, 2, 3):
        assert (complex(j), 0) in famE.ff


# ---------------------------------------------------------------------------
# serialization


def test_text_roundtrip():
    E = iset((0.5, 1), (1.75, 0), cinf=True)
    back = IndexSet.from_text(E.to_text())
    assert back == E


def test_naturals_are_cinf():
    N = naturals(CUT)
    assert N.cinf_step and (3.0, 0) in N and (0.0, 0) not in N
