"""Value-set arithmetic against hand computations and two oracles.

The raw-set oracle works on plain clipped integer sets with generous bounds
and recomputes sums, colons, and traces directly from their definitions; the
ValueSet machinery must agree with it on a comparison window.  The set-based
oracle is the (conductor, sorted head) representation with pairwise loops
that the bitmask ValueSet replaced; the two must agree exactly.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tracelab.errors import EmptyGenerators, IdealNotIntegral, InvalidArgument, NotCoFinite
from tracelab.semigroup import (
    MAX_CONDUCTOR,
    MAX_POWER,
    ValueSet,
    colon,
    ext1_dim,
    first_neighborhood,
    first_neighborhood_inverse,
    ideal,
    inverse,
    is_dvr,
    is_good,
    make,
    matlis_report,
    maximal_ideal,
    nu_index,
    power_m,
    self_colon_eq_inverse,
    sumset,
    trace_value,
    v_count,
)

CATALOG = [(1,), (2, 3), (2, 5), (3, 4), (3, 5, 7), (4, 5, 6, 7), (5, 6, 9)]


# -- raw-set oracle -----------------------------------------------------------

HI = 600
LO = -80
WINDOW = (-60, 200)


def oracle_semigroup(gens):
    hit = {0}
    for n in range(1, HI):
        if any(g <= n and (n - g) in hit for g in gens):
            hit.add(n)
    return hit


def oracle_sum(a, b):
    return {x + y for x in a for y in b if LO <= x + y < HI}


def oracle_colon(a, b, conductor_a):
    out = set()
    for z in range(LO, HI // 2):
        if all((z + y) in a for y in b if z + y < conductor_a):
            out.add(z)
    return out


def window_of(vs):
    lo, hi = WINDOW
    return set(vs.elements_below(hi)) & set(range(lo, hi))


def clip(raw):
    lo, hi = WINDOW
    return {x for x in raw if lo <= x < hi}


# -- construction ---------------------------------------------------------------


def test_three_four_semigroup():
    s = make([3, 4])
    assert s.gaps == (1, 2, 5)
    assert s.conductor == 6
    assert s.frobenius == 5
    assert s.multiplicity == 3
    assert s.embedding_dimension == 2


def test_naturals():
    s = make([1])
    assert s.conductor == 0
    assert s.gaps == ()
    assert s.multiplicity == 1
    assert is_dvr(s)


def test_gcd_two_rejected():
    with pytest.raises(NotCoFinite):
        make([2, 4])


def test_empty_generators_rejected():
    with pytest.raises(EmptyGenerators):
        make([])
    with pytest.raises(EmptyGenerators):
        make([0, 3])


def test_five_six_nine():
    s = make([5, 6, 9])
    assert s.conductor == 14
    assert 13 in s.gaps and 11 in s.members_below_conductor
    assert s.embedding_dimension == 3


# -- ideals ----------------------------------------------------------------------


def test_ideal_of_zero_is_semigroup():
    s = make([3, 4])
    assert ideal([0], s) == s.value_set()


def test_maximal_ideal_from_generators():
    s = make([3, 4])
    assert ideal([3, 4], s) == maximal_ideal(s)


def test_fractional_shift():
    s = make([3, 4])
    assert ideal([-3], s) == s.value_set().shift(-3)


def test_normalization_is_idempotent():
    s = make([3, 5, 7])
    for vs in (s.value_set(), maximal_ideal(s), power_m(s, 3), inverse(maximal_ideal(s), s)):
        assert ValueSet(vs.conductor, vs.members) == vs
        # redundant members above the conductor are absorbed
        assert ValueSet(vs.conductor, list(vs.members) + [vs.conductor + 2]) == vs


def test_ideal_closed_under_semigroup():
    s = make([3, 5, 7])
    e = ideal([-2, 4], s)
    assert sumset(e, s.value_set()) == e


# -- sums and powers ---------------------------------------------------------------


def test_square_of_maximal_ideal_three_four():
    s = make([3, 4])
    assert power_m(s, 2) == ValueSet(6, [])  # all n >= 6


def test_square_of_maximal_ideal_three_five_seven():
    s = make([3, 5, 7])
    assert power_m(s, 2) == ValueSet(8, [6])  # 7 is missing


def test_sumset_matches_oracle():
    for gens in CATALOG:
        s = make(gens)
        raw = oracle_semigroup(gens)
        m_raw = {x for x in raw if x > 0}
        p = set(m_raw)
        for n in range(2, 5):
            p = oracle_sum(p, m_raw)
            assert window_of(power_m(s, n)) == clip(p)


# -- colon and inverse ---------------------------------------------------------------


def test_inverse_of_semigroup_is_itself():
    for gens in CATALOG:
        s = make(gens)
        assert inverse(s.value_set(), s) == s.value_set()


def test_inverse_of_square_three_four():
    s = make([3, 4])
    assert inverse(power_m(s, 2), s) == ValueSet(0, [])  # all of N


def test_inverse_of_maximal_ideal_three_five_seven():
    s = make([3, 5, 7])
    assert inverse(maximal_ideal(s), s) == ValueSet(2, [0])  # {0, 2, 3, ...}


def test_colon_matches_oracle():
    for gens in [(3, 4), (3, 5, 7), (5, 6, 9)]:
        s = make(gens)
        raw = oracle_semigroup(gens)
        m_raw = {x for x in raw if x > 0}
        got = inverse(maximal_ideal(s), s)
        expected = oracle_colon(raw, m_raw, s.conductor)
        assert window_of(got) == clip(expected)


def test_colon_plus_ideal_stays_inside():
    s = make([3, 5, 7])
    e = power_m(s, 2)
    f = maximal_ideal(s)
    q = colon(e, f)
    assert sumset(q, f).is_subset_of(e)


# -- traces and goodness ---------------------------------------------------------------


def test_trace_of_maximal_ideal_three_four():
    s = make([3, 4])
    assert trace_value(maximal_ideal(s), s) == maximal_ideal(s)
    assert is_good(maximal_ideal(s), s)


def test_principal_ideals_have_trace_ring():
    s = make([3, 4])
    for z in (0, 3, -5, 7):
        principal = ideal([z], s)
        assert trace_value(principal, s) == s.value_set()
        assert is_good(principal, s) == (principal == s.value_set())


def test_dvr_maximal_ideal_not_good():
    s = make([1])
    assert not is_good(maximal_ideal(s), s)
    assert trace_value(maximal_ideal(s), s) == s.value_set()


def test_good_criteria_agree():
    for gens in CATALOG:
        s = make(gens)
        for e in (maximal_ideal(s), power_m(s, 2), ideal([1, 5], s), ideal([-2], s)):
            assert is_good(e, s) == self_colon_eq_inverse(e, s)


def test_trace_is_always_good():
    for gens in CATALOG:
        s = make(gens)
        for e in (maximal_ideal(s), power_m(s, 3), ideal([-1, 2], s)):
            assert is_good(trace_value(e, s), s)


def test_trace_is_shift_invariant():
    s = make([3, 5, 7])
    e = power_m(s, 2)
    for z in (-4, 1, 9):
        assert trace_value(e.shift(z), s) == trace_value(e, s)


def test_colon_inside_ring_of_good_is_good():
    # Both restrictions matter: the colon is taken inside R (the full
    # quotient-field colon can leave the ring, see the next test) and the
    # second ideal must be integral, since the argument uses I <= (I : a).
    for gens in [(3, 4), (3, 5, 7), (5, 6, 9)]:
        s = make(gens)
        good = trace_value(power_m(s, 2), s)
        integral_ideals = (
            maximal_ideal(s),
            power_m(s, 2),
            ideal([s.multiplicity, s.conductor + 1], s),
            s.value_set(),
        )
        for f in integral_ideals:
            inside = colon(good, f).intersect(s.value_set())
            assert is_good(inside, s)


def test_full_colon_can_lose_goodness():
    s = make([3, 4])
    square = power_m(s, 2)
    assert is_good(square, s)
    escaped = colon(square, maximal_ideal(s))
    assert escaped == ValueSet(3, [])
    assert not is_good(escaped, s)


def test_union_of_good_is_good():
    for gens in [(3, 4), (3, 5, 7), (5, 6, 9)]:
        s = make(gens)
        a = trace_value(maximal_ideal(s), s)
        b = trace_value(power_m(s, 3), s)
        assert is_good(a.union(b), s)


# -- generator counts and nu ---------------------------------------------------------


def test_v_counts():
    s = make([3, 4])
    assert v_count(maximal_ideal(s), s) == 2
    assert v_count(s.value_set(), s) == 1
    t = make([3, 5, 7])
    assert v_count(power_m(t, 2), t) == 3  # generated by {6, 8, 10}


def test_nu_values():
    assert nu_index(make([3, 4])) == 2
    assert nu_index(make([3, 5, 7])) == 1
    assert nu_index(make([1])) == 1
    assert nu_index(make([5, 6, 9])) == 3


# -- first neighborhood ring ---------------------------------------------------------


def test_neighborhood_three_four():
    s = make([3, 4])
    assert first_neighborhood(s) == ValueSet(0, [])  # all of N
    assert first_neighborhood_inverse(s) == power_m(s, 2)


def test_neighborhood_three_five_seven():
    s = make([3, 5, 7])
    assert first_neighborhood(s) == ValueSet(2, [0])
    assert first_neighborhood_inverse(s) == maximal_ideal(s)


def test_neighborhood_dvr():
    s = make([1])
    assert first_neighborhood(s) == s.value_set()
    assert first_neighborhood_inverse(s) == s.value_set()


# -- the stable trace law --------------------------------------------------------------


def test_stable_trace_equals_neighborhood_inverse():
    for gens in CATALOG:
        s = make(gens)
        nu = nu_index(s)
        lam_inv = first_neighborhood_inverse(s)
        for n in range(nu, nu + 5):
            assert trace_value(power_m(s, n), s) == lam_inv


def test_stable_trace_against_oracle():
    for gens in [(3, 4), (3, 5, 7), (4, 5, 6, 7)]:
        s = make(gens)
        raw = oracle_semigroup(gens)
        m_raw = {x for x in raw if x > 0}
        nu = nu_index(s)
        p = set(m_raw)
        for _ in range(nu - 1):
            p = oracle_sum(p, m_raw)
        for n in range(nu, nu + 3):
            conductor = power_m(s, n).conductor
            inv = oracle_colon(raw, p, s.conductor)
            tr = oracle_sum(p, inv)
            assert window_of(trace_value(power_m(s, n), s)) == clip(tr)
            p = oracle_sum(p, m_raw)


def test_matlis_report_three_four():
    r = matlis_report(make([3, 4]), 6)
    assert r.multiplicity == 3
    assert r.nu == 2
    assert r.stable_trace_ok
    assert r.neighborhood_inverse == ValueSet(6, [])
    assert r.two_generated_clause is True
    assert r.rows[1][2] == ValueSet(6, [])  # trace of m^2


def test_matlis_report_two_three():
    r = matlis_report(make([2, 3]), 5)
    assert r.multiplicity == 2 and r.nu == 1
    assert r.neighborhood_inverse == maximal_ideal(make([2, 3]))
    assert r.stable_trace_ok and r.two_generated_clause is True


def test_matlis_report_three_five_seven():
    r = matlis_report(make([3, 5, 7]), 5)
    assert r.nu == 1 and r.stable_trace_ok
    assert r.embedding_dimension == 3
    assert r.two_generated_clause is None
    assert r.neighborhood_inverse == maximal_ideal(make([3, 5, 7]))


def test_matlis_report_rejects_small_window():
    with pytest.raises(ValueError):
        matlis_report(make([3, 4]), 3)


# -- prime goodness and Ext dimensions ---------------------------------------------------


def test_good_prime_checks():
    for gens in [(1,), (2, 3), (3, 4), (3, 5, 7), (5, 6, 9)]:
        s = make(gens)
        good = is_good(maximal_ideal(s), s)
        assert good == (not is_dvr(s))
        assert good == (gens != (1,))


def test_ext1_dim_examples():
    s = make([3, 4])
    assert ext1_dim(s.value_set(), s) == 0
    assert ext1_dim(maximal_ideal(s), s) == 1  # inverse(m) = {0} u [3,oo), 5 outside S
    dvr = make([1])
    assert ext1_dim(maximal_ideal(dvr), dvr) == 1  # inverse(m) = [-1, oo)
    assert ext1_dim(power_m(s, 2), s) == 3  # inverse = N; N \ S = {1, 2, 5}


def test_ext1_dim_requires_integral_ideal():
    s = make([3, 4])
    with pytest.raises(IdealNotIntegral):
        ext1_dim(ideal([-1], s), s)


# -- set-based oracle: the (conductor, sorted head) representation ---------------------
#
# A value set is a pair (conductor, head) with head a sorted tuple of the
# members below the conductor, normalized so the conductor is minimal.


def set_normal(conductor, members):
    c = conductor
    head = {m for m in members if m < c}
    while c - 1 in head:
        head.discard(c - 1)
        c -= 1
    return c, tuple(sorted(head))


def set_contains(vs, z):
    c, head = vs
    return z >= c or z in head


def set_min(vs):
    c, head = vs
    return head[0] if head else c


def set_elements_below(vs, bound):
    c, head = vs
    return [m for m in head if m < bound] + list(range(c, max(bound, c)))


def set_sumset(e, f):
    bound = e[0] + f[0]
    es = set_elements_below(e, bound - set_min(f) + 1)
    fs = set_elements_below(f, bound - set_min(e) + 1)
    members = {x + y for x in es for y in fs if x + y < bound}
    return set_normal(bound, members)


def set_colon(e, f):
    lo = set_min(e) - set_min(f)
    hi = e[0] - set_min(f)
    members = set()
    for z in range(lo, hi):
        if all(set_contains(e, z + y) for y in set_elements_below(f, e[0] - z)):
            members.add(z)
    return set_normal(hi, members)


def set_union(e, f):
    bound = min(e[0], f[0])
    return set_normal(bound, set(set_elements_below(e, bound)) | set(set_elements_below(f, bound)))


def set_intersect(e, f):
    bound = max(e[0], f[0])
    return set_normal(bound, set(set_elements_below(e, bound)) & set(set_elements_below(f, bound)))


def set_is_subset_of(e, f):
    return e[0] >= f[0] and all(set_contains(f, m) for m in e[1])


@st.composite
def raw_value_sets(draw):
    """(conductor, members) with negative members, empty heads, conductors
    <= 0, members at or above the conductor, and conductors far above the
    head (depth 150 with at most a dozen members)."""
    conductor = draw(st.integers(-40, 40))
    depth = draw(st.sampled_from([0, 3, 12, 40, 150]))
    members = draw(st.lists(st.integers(conductor - depth, conductor + 4), max_size=12))
    return conductor, members


def as_pair(vs):
    return vs.conductor, vs.members


@settings(max_examples=400, deadline=None)
@given(raw_value_sets(), raw_value_sets(), st.integers(-50, 50))
def test_bitmask_value_sets_match_set_oracle(a, b, z):
    e, f = ValueSet(*a), ValueSet(*b)
    oe, of = set_normal(*a), set_normal(*b)
    assert as_pair(e) == oe and as_pair(f) == of
    assert e.to_json() == {"below_conductor": list(oe[1]), "conductor": oe[0]}
    assert e.min() == set_min(oe)
    assert ValueSet(e.conductor, e.members) == e and hash(ValueSet(*oe)) == hash(e)
    assert as_pair(sumset(e, f)) == set_sumset(oe, of)
    assert as_pair(colon(e, f)) == set_colon(oe, of)
    assert as_pair(e.union(f)) == set_union(oe, of)
    assert as_pair(e.intersect(f)) == set_intersect(oe, of)
    assert e.is_subset_of(f) == set_is_subset_of(oe, of)
    assert as_pair(e.shift(z)) == set_normal(oe[0] + z, [m + z for m in oe[1]])
    assert e.elements_below(z) == set_elements_below(oe, z)
    for y in range(min(set_min(oe), 0) - 3, oe[0] + 3):
        assert e.contains(y) == set_contains(oe, y)
    assert (e == f) == (oe == of)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 40), min_size=1, max_size=4).filter(lambda g: math.gcd(*g) == 1))
def test_bitmask_sieve_matches_raw_oracle(gens):
    s = make(gens)
    raw = oracle_semigroup(gens)
    assert set(s.gaps) & set(range(HI)) == set(range(HI)) - raw
    assert s.conductor == max(s.gaps, default=-1) + 1 == s.frobenius + 1
    assert all(s.value_set().contains(n) == (n in raw) for n in range(HI))


def test_powers_are_memoised_and_extend():
    s = make([5, 6, 9])
    fourth = power_m(s, 4)
    assert power_m(s, 2) is power_m(s, 2)
    assert power_m(s, 4) is fourth
    m = maximal_ideal(s)
    acc = m
    for n in range(2, 7):
        acc = sumset(acc, m)
        assert power_m(s, n) == acc


def test_conductor_and_window_ceilings():
    assert make([61, 67]).conductor == 3960 <= MAX_CONDUCTOR
    for gens in ([101, 103], [2, 10 ** 12 + 1], [MAX_CONDUCTOR + 1, MAX_CONDUCTOR + 2]):
        with pytest.raises(InvalidArgument):
            make(gens)
    assert make([1, 10 ** 12]).conductor == 0
    with pytest.raises(InvalidArgument):
        matlis_report(make([3, 4]), MAX_POWER + 1)
