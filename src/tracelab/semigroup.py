"""Numerical semigroups and monomial fractional ideals as value sets.

A 1-dimensional monomial CM ring k[[t^S]] is modeled by its value semigroup
S; a monomial fractional ideal by the set of exponents it contains.  A value
set is stored as a finite sorted head plus a conductor c with [c, oo)
implied, which makes every operation (sums, colons, inverses) exact and
total: all loops run to bounds derived from the conductors, never to
heuristic cutoffs.

The trace of an ideal I in R is I * I^{-1}; an ideal is good exactly when it
equals its own trace, equivalently when (I : I) = I^{-1}.  The stable value
of the traces of high powers of the maximal ideal is the inverse of the
first neighborhood ring, which is computed here as the union of the shifted
powers (values(m^s) - s*e); in the monomial setting t^e is a superficial
element of degree 1, so this union agrees with the classical definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import EmptyGenerators, IdealNotIntegral, InternalCheckError, InvalidArgument, NotCoFinite


class NumericalSemigroup:
    """A cofinite additive submonoid of the natural numbers."""

    __slots__ = (
        "generators",
        "multiplicity",
        "frobenius",
        "conductor",
        "gaps",
        "members_below_conductor",
        "_member_set",
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
        self.multiplicity = gens[0]
        reachable = self._sieve(gens)
        self.conductor = reachable
        members = []
        gaps = []
        seen = self._member_set
        for n in range(self.conductor):
            (members if n in seen else gaps).append(n)
        self.members_below_conductor = tuple(members)
        self.gaps = tuple(gaps)
        self.frobenius = self.gaps[-1] if self.gaps else -1

    def _sieve(self, gens):
        """Smallest c with [c, oo) in S, by sieving with a doubling bound.

        A run of `multiplicity` consecutive members certifies the tail, so
        the loop always terminates for gcd 1.
        """
        e = gens[0]
        bound = 4 * gens[-1]
        while True:
            hit = [False] * (bound + 1)
            hit[0] = True
            for n in range(1, bound + 1):
                for g in gens:
                    if g <= n and hit[n - g]:
                        hit[n] = True
                        break
            run = 0
            start = None
            for n in range(bound + 1):
                run = run + 1 if hit[n] else 0
                if run >= e:
                    start = n - e + 1
                    break
            if start is not None:
                full = [False] * (start + e)
                for n in range(start + e):
                    full[n] = hit[n]
                conductor = start
                while conductor > 0 and full[conductor - 1]:
                    conductor -= 1
                self._member_set = frozenset(n for n in range(conductor) if full[n])
                return conductor
            bound *= 2

    def contains(self, n):
        return n >= self.conductor or n in self._member_set

    @property
    def embedding_dimension(self):
        return v_count(maximal_ideal(self), self)

    def value_set(self):
        """S itself as a ValueSet."""
        return ValueSet(self.conductor, self.members_below_conductor)

    def __eq__(self, other):
        if not isinstance(other, NumericalSemigroup):
            return NotImplemented
        return self.value_set() == other.value_set()

    def __hash__(self):
        return hash(self.value_set())

    def __repr__(self):
        return "NumericalSemigroup<%s>" % (",".join(str(g) for g in self.generators))


def make(generators):
    """Build a numerical semigroup from positive generators with gcd 1."""
    return NumericalSemigroup(generators)


class ValueSet:
    """A subset of the integers of the form (finite head) + [conductor, oo).

    Normalized so the conductor is minimal; equality of ValueSet values is
    equality of the sets they denote.
    """

    __slots__ = ("conductor", "members", "_head")

    def __init__(self, conductor, members):
        c = int(conductor)
        # Members at or above the conductor are implied by the tail.
        mset = set(int(m) for m in members if m < c)
        while c - 1 in mset:
            mset.discard(c - 1)
            c -= 1
        self.conductor = c
        self.members = tuple(sorted(mset))
        self._head = frozenset(mset)

    def contains(self, z):
        return z >= self.conductor or z in self._head

    def min(self):
        return self.members[0] if self.members else self.conductor

    def elements_below(self, bound):
        """All elements < bound, exactly."""
        out = [m for m in self.members if m < bound]
        out.extend(range(self.conductor, max(bound, self.conductor)))
        return out

    def shift(self, z):
        return ValueSet(self.conductor + z, [m + z for m in self.members])

    def union(self, other):
        bound = min(self.conductor, other.conductor)
        return ValueSet(bound, set(self.elements_below(bound)) | set(other.elements_below(bound)))

    def intersect(self, other):
        bound = max(self.conductor, other.conductor)
        return ValueSet(
            bound, set(self.elements_below(bound)) & set(other.elements_below(bound))
        )

    def is_subset_of(self, other):
        if self.conductor < other.conductor:
            return False
        return all(other.contains(m) for m in self.members)

    def to_json(self):
        return {"below_conductor": list(self.members), "conductor": self.conductor}

    def __eq__(self, other):
        if not isinstance(other, ValueSet):
            return NotImplemented
        return self.conductor == other.conductor and self.members == other.members

    def __hash__(self):
        return hash((self.conductor, self.members))

    def __repr__(self):
        head = ",".join(str(m) for m in self.members)
        return "ValueSet{%s%s[%d,oo)}" % (head, "; " if head else "", self.conductor)


def ideal(generators, sgroup):
    """The fractional ideal generated by integer values: union of v + S."""
    gens = sorted(set(int(g) for g in generators))
    if not gens:
        raise EmptyGenerators("an ideal needs at least one generator")
    svs = sgroup.value_set()
    bound = min(gens) + svs.conductor
    members = set()
    for v in gens:
        members.update(v + s for s in svs.elements_below(bound - v))
    return ValueSet(bound, members)


def maximal_ideal(sgroup):
    """The maximal ideal: the nonzero members of S."""
    svs = sgroup.value_set()
    if svs.conductor == 0:  # S = N; the maximal ideal starts at 1
        return ValueSet(1, [])
    return ValueSet(svs.conductor, [m for m in svs.members if m > 0])


def sumset(e, f):
    """The ideal product: all pairwise sums, normalized exactly."""
    bound = e.conductor + f.conductor
    es = e.elements_below(bound - f.min() + 1)
    fs = f.elements_below(bound - e.min() + 1)
    members = set()
    for x in es:
        for y in fs:
            if x + y <= bound:
                members.add(x + y)
    members.discard(bound)
    return ValueSet(bound, members)


def power_m(sgroup, n):
    """The n-th power of the maximal ideal, n >= 1."""
    if n < 1:
        raise InvalidArgument("powers start at 1")
    m = maximal_ideal(sgroup)
    acc = m
    for _ in range(n - 1):
        acc = sumset(acc, m)
    return acc


def colon(e, f):
    """(E : F) = {z : z + F is contained in E}; exact via conductor bounds."""
    lo = e.min() - f.min()
    hi = e.conductor - f.min()
    members = set()
    for z in range(lo, hi):
        if all(e.contains(z + y) for y in f.elements_below(e.conductor - z)):
            members.add(z)
    return ValueSet(hi, members)


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
    return sum(1 for x in e.elements_below(me.conductor) if not me.contains(x))


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
    return sum(1 for z in inv.elements_below(svs.conductor) if not svs.contains(z))


@dataclass(frozen=True)
class SemigroupReport:
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
    nu = nu_index(sgroup)
    if n_max is None:
        n_max = nu + 4
    if n_max < nu + 3:
        raise InvalidArgument("n_max must be at least nu + 3 = %d" % (nu + 3))
    lam_inv = first_neighborhood_inverse(sgroup)
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
        neighborhood=first_neighborhood(sgroup),
        neighborhood_inverse=lam_inv,
        stable_trace_ok=ok,
        two_generated_clause=clause,
    )
