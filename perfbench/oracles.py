"""Output checks that share no code path with the operations they check.

Semigroup answers are recomputed from plain integer bitsets (bit i stands for
the integer i - OFFSET), never through tracelab's ValueSet arithmetic.
Artinian answers are checked against submodules that need neither Hom nor
tensor products.  The verify report is checked for a pass verdict and, at
the default seed, for the pinned check counts and byte digest.
"""

from __future__ import annotations

import hashlib
import math

# -- verify ---------------------------------------------------------------------

DEFAULT_VERIFY_SEED = 20260810
# The canonical `verify --suite all` report at the default seed on the seed
# code: checks per suite and the sha256 of the exact stdout bytes.
PINNED_VERIFY_CHECKS = {"section1": 6301, "section2": 370, "section3": 12209}
PINNED_VERIFY_SHA256 = "5c63178d833783eaab84173f0dfb853b1c1ba6bcdd7f029543dcda1bcfd887d4"


def check_verify(seed, report_text, report):
    """Problems with a `verify --suite all` report, as a list of strings."""
    problems = []
    result = report.get("result", {})
    if result.get("passed") is not True:
        problems.append("verify report does not pass")
    suites = {s.get("suite"): s for s in result.get("suites", [])}
    if sorted(suites) != sorted(PINNED_VERIFY_CHECKS):
        problems.append("verify report has suites %s" % sorted(suites))
    for name, suite in suites.items():
        if suite.get("failures") or suite.get("passed") is not True:
            problems.append("%s reports failures" % name)
        if not isinstance(suite.get("checks"), int) or suite["checks"] <= 0:
            problems.append("%s ran no checks" % name)
    if seed == DEFAULT_VERIFY_SEED:
        counts = {name: suite.get("checks") for name, suite in suites.items()}
        if counts != PINNED_VERIFY_CHECKS:
            problems.append("check counts %s differ from the pinned %s" % (counts, PINNED_VERIFY_CHECKS))
        digest = hashlib.sha256(report_text.encode("utf-8")).hexdigest()
        if digest != PINNED_VERIFY_SHA256:
            problems.append("report sha256 %s differs from the pinned digest" % digest)
    return problems


# -- semigroups as integer bitsets ------------------------------------------------

OFFSET = 1024
WIDTH = 4096
TOP = WIDTH - OFFSET  # integers in [-OFFSET, TOP) are represented exactly
FULL = (1 << WIDTH) - 1
# Shifts by at most a few hundred blur the edges of the represented range, so
# comparisons only look at this inner window.
WINDOW_LO, WINDOW_HI = -512, 2048
WINDOW = FULL & ~((1 << (WINDOW_LO + OFFSET)) - 1) & ((1 << (WINDOW_HI + OFFSET)) - 1)


def _bit(x):
    return 1 << (x + OFFSET)


def _tail(start):
    """Bits of [start, TOP)."""
    return FULL & ~(_bit(start) - 1)


def _shift(bits, z):
    return (bits << z if z >= 0 else bits >> -z) & FULL


def _min(bits):
    return (bits & -bits).bit_length() - 1 - OFFSET


def bits_from_value_set(js):
    """Bits of a value set serialized as {"below_conductor": [...], "conductor": c}."""
    bits = _tail(js["conductor"])
    for m in js["below_conductor"]:
        bits |= _bit(m)
    return bits


def same_in_window(a, b):
    return (a & WINDOW) == (b & WINDOW)


class RawSemigroup:
    """A numerical semigroup as the bitset of its members below TOP."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        member = sieve(gens, TOP)
        conductor = TOP
        while conductor > 0 and member[conductor - 1]:
            conductor -= 1
        if conductor > WINDOW_HI // 2:
            raise ValueError("conductor %d is too large for the oracle window" % conductor)
        self.gens = gens
        self.member = member
        self.conductor = conductor
        self.bits = sum(_bit(n) for n in range(TOP) if member[n])

    def embedding_dimension(self):
        """Number of minimal generators: members of m that are not in m + m."""
        limit = self.conductor + self.gens[0] + 1
        nonzero = [x for x in range(1, limit) if self.member[x]]
        count = 0
        for x in nonzero:
            if not any(self.member[x - y] and x - y > 0 for y in nonzero if y < x):
                count += 1
        return count

    def ideal(self, values):
        """The fractional ideal generated by the values: union of v + S."""
        bits = 0
        for v in values:
            bits |= _shift(self.bits, v)
        return bits

    def power_of_max_ideal(self, n):
        """m^n = (all sums of n generators) + S."""
        sums = {0}
        for _ in range(n):
            sums = {s + g for s in sums for g in self.gens}
        return self.ideal(sums)

    def colon(self, a_bits, a_conductor, e_bits):
        """(A : E) = {z : z + E inside A}, as (finite bits, tail start)."""
        e_min = _min(e_bits)
        tail_start = a_conductor - e_min
        finite = 0
        for z in range(-e_min, tail_start):
            if (_shift(e_bits, z) & ~a_bits) == 0:
                finite |= _bit(z)
        return finite, tail_start

    def inverse(self, e_bits):
        finite, tail_start = self.colon(self.bits, self.conductor, e_bits)
        return finite | _tail(tail_start)

    def trace(self, e_bits):
        """E * E^{-1} = E + (S : E)."""
        finite, tail_start = self.colon(self.bits, self.conductor, e_bits)
        out = _tail(_min(e_bits) + tail_start)
        while finite:
            low = finite & -finite
            out |= _shift(e_bits, low.bit_length() - 1 - OFFSET)
            finite ^= low
        return out


def check_semigroup_report(gens, result):
    """Problems with a `semigroup-report` result payload."""
    problems = []
    raw = RawSemigroup(gens)
    if result.get("stable_trace_ok") is not True:
        problems.append("stable_trace_ok is not true")
    emb = raw.embedding_dimension()
    if result.get("embedding_dimension") != emb:
        problems.append("embedding dimension %r, expected %d" % (result.get("embedding_dimension"), emb))
    clause = result.get("two_generated_clause")
    if emb == 2 and clause is not True:
        problems.append("two-generated clause is %r" % clause)
    if emb != 2 and clause is not None:
        problems.append("two-generated clause %r given for embedding dimension %d" % (clause, emb))
    nu = result.get("nu")
    rows = {row["n"]: row for row in result.get("rows", [])}
    stable = bits_from_value_set(result["first_neighborhood_inverse"])
    checked = 0
    for n in sorted(rows):
        if n < nu:
            continue
        expected = raw.trace(raw.power_of_max_ideal(n))
        got = bits_from_value_set(rows[n]["trace"])
        if not same_in_window(got, expected):
            problems.append("trace(m^%d) differs from the raw-set trace" % n)
        if not same_in_window(stable, expected):
            problems.append("trace(m^%d) differs from the stable value" % n)
        checked += 1
    if checked < 3:
        problems.append("only %d rows at or beyond nu = %r" % (checked, nu))
    return problems


def check_semigroup_good(gens, values, result):
    """Problems with a `semigroup-good` result payload."""
    problems = []
    raw = RawSemigroup(gens)
    e_bits = raw.ideal(values)
    if not same_in_window(bits_from_value_set(result["ideal"]), e_bits):
        problems.append("ideal differs from the raw-set ideal")
    if not same_in_window(bits_from_value_set(result["inverse"]), raw.inverse(e_bits)):
        problems.append("inverse differs from the raw-set colon")
    trace_bits = raw.trace(e_bits)
    if not same_in_window(bits_from_value_set(result["trace"]), trace_bits):
        problems.append("trace differs from the raw-set trace")
    good = same_in_window(trace_bits, e_bits)
    if result.get("good", {}).get("value") is not good:
        problems.append("good is %r, raw sets say %r" % (result.get("good"), good))
    return problems


def sieve(gens, limit):
    """member[n] for 0 <= n < limit: whether n is a sum of generators."""
    member = [False] * limit
    member[0] = True
    for n in range(1, limit):
        member[n] = any(g <= n and member[n - g] for g in gens)
    return member


def conductor_within(gens, limit):
    """Conductor of the semigroup generated by gens if it is at most limit, else None."""
    if math.gcd(*gens) != 1:
        return None
    e = min(gens)
    member = sieve(gens, limit + e)
    if not all(member[limit:]):
        return None
    c = limit
    while c > 0 and member[c - 1]:
        c -= 1
    return c


def nu_of(gens, conductor):
    """Least n >= 1 with v(m^n) = |m^n minus m^(n+1)| equal to the multiplicity.

    m^n is (sums of n generators) + S; both powers are exact below `limit`,
    which exceeds the conductor of m^(n+1) for every n tried.
    """
    e, top = min(gens), max(gens)
    limit = conductor + 2 * e * top + 64
    mask = (1 << limit) - 1
    member = sieve(gens, limit)
    s_bits = sum(1 << n for n in range(limit) if member[n])
    sums = set(gens)
    power = 0
    for g in sums:
        power |= s_bits << g
    power &= mask
    for n in range(1, 2 * e):
        sums = {s + g for s in sums for g in gens}
        nxt = 0
        for g in sums:
            nxt |= s_bits << g
        nxt &= mask
        if (power & ~nxt).bit_count() == e:
            return n
        power = nxt
    raise ValueError("v(m^n) never reached the multiplicity for %r" % (gens,))
