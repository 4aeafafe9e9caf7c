"""Numerical semigroups and monomial fractional ideals as value sets.

A 1-dimensional monomial CM ring k[[t^S]] is modeled by its value semigroup
S; a monomial fractional ideal by the set of exponents it contains.  A value
set is its least element, an int bitmask of its members below the conductor
c, and c with [c, oo) implied: sums are ORs of shifted masks, colons ANDs,
counts popcounts, all exact to bounds derived from the conductors.  A
semigroup is sieved once into its value set and memoises m, m^2, ...;
conductors above MAX_CONDUCTOR and windows above MAX_POWER are refused.

The trace of an ideal I in R is I * I^{-1}; an ideal is good exactly when it
equals its own trace, equivalently when (I : I) = I^{-1}.  The stable value
of the traces of high powers of the maximal ideal is the inverse of the
first neighborhood ring, which is computed here as the union of the shifted
powers (values(m^s) - s*e); in the monomial setting t^e is a superficial
element of degree 1, so this union agrees with the classical definition.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import EmptyGenerators, IdealNotIntegral, InternalCheckError, InvalidArgument, NotCoFinite

MAX_CONDUCTOR = 4096  # <61,67> (conductor 3,960) reports in well under a second
MAX_POWER = 1024  # the largest report window n_max


class NumericalSemigroup:
    """A cofinite additive submonoid of the natural numbers."""

    __slots__ = (
        "generators",
        "multiplicity",
        "frobenius",
        "conductor",
        "gaps",
        "members_below_conductor",
        "_values",
        "_powers",
    )

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise EmptyGenerators("a numerical semigroup needs at least one generator")
        if any(g <= 0 for g in gens):
            raise EmptyGenerators("generators must be positive integers, got %r" % (gens,))
        if math.gcd(*gens) != 1:
            raise NotCoFinite("generators %r have gcd > 1; the complement is infinite" % (gens,))
        self.generators = tuple(gens)
        self.multiplicity = e = gens[0]
        # Sieve [0, top) by closing the bitmask {0} under each generator.  As
        # 1..e-1 are gaps, a conductor within the ceiling has e <= it and a
        # run of e members above it, which certifies the tail.
        top = MAX_CONDUCTOR + min(e, MAX_CONDUCTOR + 1)
        full = (1 << top) - 1
        bits = 1
        for g in gens:
            step = g
            while step < top:  # k rounds close under 0, g, ..., (2^k - 1)*g
                bits = (bits | bits << step) & full
                step *= 2
        self.conductor = (bits ^ full).bit_length()
        if self.conductor > MAX_CONDUCTOR:
            raise InvalidArgument(
                "generators %r leave the gap %d, past MAX_CONDUCTOR = %d"
                % (gens, self.conductor - 1, MAX_CONDUCTOR)
            )
        self._values = _normal(0, bits, self.conductor)
        self.frobenius = self.conductor - 1
        self.members_below_conductor = self._values.members
        self.gaps = tuple(_set_bits(~self._values.mask & ((1 << self.conductor) - 1)))
        # m, m^2, ... of the maximal ideal, extended on demand by power_m.
        self._powers = [_normal(0, self._values.mask & ~1, max(self.conductor, 1))]

    @property
    def embedding_dimension(self):
        return v_count(maximal_ideal(self), self)

    def value_set(self):
        """S itself as a ValueSet."""
        return self._values

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        return "NumericalSemigroup<%s>" % (",".join(str(g) for g in self.generators))


def make(generators):
    """Build a numerical semigroup from positive generators with gcd 1."""
    return NumericalSemigroup(generators)


def _normal(base, mask, conductor):
    """The ValueSet of base + i (bit i of mask) below conductor, with the top
    run of ones moved into the tail and the trailing zeros into base."""
    width = conductor - base
    if width > 0:
        full = (1 << width) - 1
        top = ((mask & full) ^ full).bit_length()  # just above the highest gap
        conductor = base + top
        mask &= (1 << top) - 1
    else:
        mask = 0
    if mask:
        low = (mask & -mask).bit_length() - 1
        base += low
        mask >>= low
    else:
        base = conductor
    vs = object.__new__(ValueSet)
    vs.base, vs.mask, vs.conductor = base, mask, conductor
    return vs


def _set_bits(mask):
    """Positions of the set bits of a nonnegative int, ascending."""
    return [i for i, bit in enumerate(reversed(bin(mask)[2:])) if bit == "1"]


class ValueSet:
    """A subset of the integers of the form (finite head) + [conductor, oo).

    The head is `mask`, whose bit i means base + i is a member, with `base`
    the least element (the conductor when the head is empty).  Normalized so
    the conductor is minimal; equal ValueSets denote equal sets.
    """

    __slots__ = ("base", "mask", "conductor")

    def __new__(cls, conductor, members):
        c = int(conductor)
        head = [int(m) for m in members if m < c]
        base = min(head, default=c)
        return _normal(base, sum(1 << (m - base) for m in set(head)), c)

    @property
    def members(self):
        """The members below the conductor, ascending."""
        return tuple(self.base + i for i in _set_bits(self.mask))

    def bits(self, lo, hi):
        """The members in [lo, hi) as a bitmask, bit i meaning lo + i."""
        if hi <= lo:
            return 0
        shift = min(self.base, hi) - lo
        head = self.mask << shift if shift >= 0 else self.mask >> -shift
        start = min(max(self.conductor, lo), hi)
        tail = ((1 << (hi - start)) - 1) << (start - lo)
        return (head | tail) & ((1 << (hi - lo)) - 1)

    def contains(self, z):
        return z >= self.conductor or (z >= self.base and self.mask >> (z - self.base) & 1 == 1)

    def min(self):
        return self.base

    def elements_below(self, bound):
        """All elements < bound, exactly."""
        out = [m for m in self.members if m < bound]
        out.extend(range(self.conductor, max(bound, self.conductor)))
        return out

    def shift(self, z):
        return _normal(self.base + z, self.mask, self.conductor + z)

    def union(self, other):
        lo = min(self.base, other.base)
        hi = min(self.conductor, other.conductor)
        return _normal(lo, self.bits(lo, hi) | other.bits(lo, hi), hi)

    def intersect(self, other):
        lo = max(self.base, other.base)
        hi = max(self.conductor, other.conductor)
        return _normal(lo, self.bits(lo, hi) & other.bits(lo, hi), hi)

    def is_subset_of(self, other):
        if self.conductor < other.conductor:
            return False
        return self.mask & ~other.bits(self.base, self.base + self.mask.bit_length()) == 0

    def to_json(self):
        return {"below_conductor": list(self.members), "conductor": self.conductor}

    def __eq__(self, other):
        if not isinstance(other, ValueSet):
            return NotImplemented
        return (self.base, self.mask, self.conductor) == (other.base, other.mask, other.conductor)

    def __hash__(self):
        return hash((self.base, self.mask, self.conductor))

    def __repr__(self):
        head = ",".join(str(m) for m in self.members)
        return "ValueSet{%s%s[%d,oo)}" % (head, "; " if head else "", self.conductor)


def ideal(generators, sgroup):
    """The fractional ideal generated by integer values: union of v + S."""
    gens = sorted(set(int(g) for g in generators))
    if not gens:
        raise EmptyGenerators("an ideal needs at least one generator")
    svs = sgroup.value_set()
    return functools.reduce(ValueSet.union, [svs.shift(v) for v in gens])


def maximal_ideal(sgroup):
    """The maximal ideal: the nonzero members of S."""
    return sgroup._powers[0]


def sumset(e, f):
    """The ideal product: all pairwise sums, normalized exactly.

    Each tail plus the other's least element gives [bound, oo); below it only
    head + head sums remain, an OR of shifts of one head mask.
    """
    if e.mask.bit_count() > f.mask.bit_count():
        e, f = f, e
    acc = 0
    for i in _set_bits(e.mask):
        acc |= f.mask << i
    bound = min(e.conductor + f.base, f.conductor + e.base)
    return _normal(e.base + f.base, acc, bound)


def power_m(sgroup, n):
    """The n-th power of the maximal ideal, n >= 1, memoised on sgroup."""
    if n < 1:
        raise InvalidArgument("powers start at 1")
    powers = sgroup._powers
    while len(powers) < n:
        powers.append(sumset(powers[-1], powers[0]))
    return powers[n - 1]


def colon(e, f):
    """(E : F) = {z : z + F is contained in E}; exact via conductor bounds.

    Every z >= hi qualifies and no z < lo does; in between, z does when bit
    z - lo of E >> (y - f.base) is set for every y in F, an AND of shifts
    of E's mask with its tail ones extended.
    """
    lo = e.base - f.base
    hi = e.conductor - f.base
    width = hi - lo
    e_bits = e.bits(e.base, e.base + 2 * width)
    acc = (1 << width) - 1
    for d in _set_bits(f.bits(f.base, f.base + width)):
        acc &= e_bits >> d
        if not acc:
            break
    return _normal(lo, acc, hi)


def inverse(e, sgroup):
    """I^{-1} = (S : I) inside the quotient field (all of Z)."""
    return colon(sgroup.value_set(), e)


def trace_value(e, sgroup):
    """The trace of the ideal in R: I * I^{-1}."""
    return sumset(e, inverse(e, sgroup))


def is_good(e, sgroup):
    """Whether the ideal equals its own trace.

    Cross-checked against the colon criterion (I : I) = I^{-1}; the two must
    agree for regular ideals, and every monomial value set is regular.
    """
    by_trace = trace_value(e, sgroup) == e
    by_colon = self_colon_eq_inverse(e, sgroup)
    if by_trace != by_colon:
        raise InternalCheckError("trace criterion and colon criterion disagree")
    return by_trace


def self_colon_eq_inverse(e, sgroup):
    """The good-ideal criterion (E : E) = (S : E)."""
    return colon(e, e) == inverse(e, sgroup)


def v_count(e, sgroup):
    """Minimal number of generators: |E \\ (m + E)|."""
    me = sumset(maximal_ideal(sgroup), e)
    return (e.bits(e.base, me.conductor) & ~me.bits(e.base, me.conductor)).bit_count()


def nu_index(sgroup):
    """Least n >= 1 with v(m^n) = e, plus a 3-power permanence check.

    The theory guarantees v(m^n) = e for all large n; a violation inside the
    verification window would mean a conductor bug, so it raises.
    """
    e = sgroup.multiplicity
    limit = sgroup.conductor + e + 10
    nu = None
    for n in range(1, limit + 1):
        if v_count(power_m(sgroup, n), sgroup) == e:
            nu = n
            break
    if nu is None:
        raise InternalCheckError("v(m^n) never reached the multiplicity %d" % e)
    for k in range(nu, nu + 4):
        if v_count(power_m(sgroup, k), sgroup) != e:
            raise InternalCheckError(
                "v(m^%d) != multiplicity inside the permanence window" % k
            )
    return nu


def first_neighborhood(sgroup):
    """The first neighborhood ring as a value set: union of m^s - s*e.

    The shifted powers increase with s, so two consecutive equal unions
    certify stabilization.
    """
    e = sgroup.multiplicity
    current = power_m(sgroup, 1).shift(-e)
    s = 2
    while True:
        nxt = current.union(power_m(sgroup, s).shift(-s * e))
        if nxt == current:
            return current
        current = nxt
        s += 1
        if s > sgroup.conductor + e + 10:
            raise InternalCheckError("first neighborhood ring did not stabilize")


def first_neighborhood_inverse(sgroup):
    return colon(sgroup.value_set(), first_neighborhood(sgroup))


def is_dvr(sgroup):
    """Whether k[[t^S]] is a discrete valuation ring, i.e. S = N."""
    return sgroup.conductor == 0


def ext1_dim(e, sgroup):
    """dim_k Ext1(R/I, R) = |I^{-1} \\ S| for a monomial ideal I inside S."""
    svs = sgroup.value_set()
    if not e.is_subset_of(svs):
        raise IdealNotIntegral("the ideal must be contained in the semigroup")
    inv = inverse(e, sgroup)
    return (inv.bits(inv.base, svs.conductor) & ~svs.bits(inv.base, svs.conductor)).bit_count()


class SemigroupReport(NamedTuple):
    """Everything the stable-trace theorem asserts about one semigroup."""

    generators: tuple
    multiplicity: int
    embedding_dimension: int
    nu: int
    rows: tuple  # (n, v(m^n), trace of m^n) for n = 1 .. n_max
    neighborhood: ValueSet
    neighborhood_inverse: ValueSet
    stable_trace_ok: bool
    two_generated_clause: bool | None  # nu = e-1 and inverse = m^(e-1); None if v(m) != 2

    def to_json(self):
        return {
            "generators": list(self.generators),
            "multiplicity": self.multiplicity,
            "embedding_dimension": self.embedding_dimension,
            "nu": self.nu,
            "rows": [
                {"n": n, "v": v, "trace": t.to_json()} for (n, v, t) in self.rows
            ],
            "first_neighborhood": self.neighborhood.to_json(),
            "first_neighborhood_inverse": self.neighborhood_inverse.to_json(),
            "stable_trace_ok": self.stable_trace_ok,
            "two_generated_clause": self.two_generated_clause,
        }


def matlis_report(sgroup, n_max=None):
    """Tabulate v(m^n) and the traces of m^n, and check the stable-trace law.

    The verdict asserts trace(m^n) = (first neighborhood ring)^{-1} for all
    nu <= n <= n_max; when the maximal ideal needs exactly two generators it
    additionally checks nu = e - 1 and that the inverse is m^(e-1).
    """
    if n_max is not None and n_max > MAX_POWER:
        raise InvalidArgument("n_max %d exceeds the ceiling MAX_POWER = %d" % (n_max, MAX_POWER))
    nu = nu_index(sgroup)
    if n_max is None:
        n_max = nu + 4
    if n_max < nu + 3:
        raise InvalidArgument("n_max must be at least nu + 3 = %d" % (nu + 3))
    lam = first_neighborhood(sgroup)
    lam_inv = colon(sgroup.value_set(), lam)
    rows = []
    ok = True
    for n in range(1, n_max + 1):
        p = power_m(sgroup, n)
        t = trace_value(p, sgroup)
        rows.append((n, v_count(p, sgroup), t))
        if n >= nu and t != lam_inv:
            ok = False
    emb = sgroup.embedding_dimension
    clause = None
    if emb == 2:
        e = sgroup.multiplicity
        clause = nu == e - 1 and lam_inv == power_m(sgroup, e - 1)
    return SemigroupReport(
        generators=sgroup.generators,
        multiplicity=sgroup.multiplicity,
        embedding_dimension=emb,
        nu=nu,
        rows=tuple(rows),
        neighborhood=lam,
        neighborhood_inverse=lam_inv,
        stable_trace_ok=ok,
        two_generated_clause=clause,
    )
