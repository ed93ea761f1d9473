"""Two earlier wall enumeration kernels, kept verbatim and test-only as
references that `walls.enumerate_walls_on_line` must match shape for shape
and witness for witness.

`reference_enumerate` is the kernel as it stood before the divisor-driven
rewrite: five branches over (A != 0, P != 0), (A != 0, P = 0),
(A = 0, r != 0) and (A = 0, r = 0), with an r1 range loop and 1/q^2 grids.
It is slow at the fundamental cross-sections of large l, so tests feed it
small cases.  It validates its candidates with `reference_wall_between`,
the wall test as it stood before it was decided on integers: every
pairing, minor and radius^2 computed in `Fraction`.  Kept verbatim with its
helper `proportional`, so that neither check shares the code it checks.

`divisor_enumerate` is the divisor-driven kernel as it stood before the
residue-class search: for each grid pair (j, m1) it tries every signed
divisor of N, found by trial division up to isqrt|N|.  It validates its
candidates with `paper_checks.wall_of`, the shipping integer wall test on
Mukai vectors, so it checks which candidates the search reaches, at the
Pell cross-sections too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from paper_checks import wall_of
from stabwalls.errors import BadCrossSection, DegenerateV, NonIntegral
from stabwalls.lattice import Context, MukaiVector, beta_data, pairing, self_pairing
from stabwalls.surd import RatLike, divisors
from stabwalls.walls import Circle, Shape, VLine, Wall, sort_walls, witness_key


def proportional(v: MukaiVector, w: MukaiVector) -> bool:
    """w in Q*v (as triples), i.e. all 2x2 minors vanish."""
    return (
        v.r * w.d == w.r * v.d
        and v.r * w.a == w.r * v.a
        and v.d * w.a == w.d * v.a
    )


def reference_wall_between(v: MukaiVector, v1: MukaiVector, ctx: Context) -> Optional[Wall]:
    """The wall for v defined by v1, or None when v1 defines none.

    v1 qualifies when <v1^2> >= 0, <(v-v1)^2> >= 0, <v1, v-v1> > 0 and the
    triples (r, d, a) of v1 and v are not proportional; the locus is then a
    circle, a vertical line, or empty (radius^2 <= 0 returns None silently).
    """
    vv = self_pairing(v, ctx)
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {vv} <= 0")
    rest = v - v1
    if self_pairing(v1, ctx) < 0 or self_pairing(rest, ctx) < 0:
        return None
    if pairing(v1, rest, ctx) <= 0:
        return None
    if proportional(v, v1):
        return None
    n = ctx.n
    if v.r != 0:
        denom = v.r * v1.d - v1.r * v.d
        if denom != 0:
            center = (v1.a * v.r - v.a * v1.r) / (2 * n * denom)
            radius_sq = (v.d / v.r - center) ** 2 - vv / (2 * n * v.r**2)
            if radius_sq <= 0:
                return None
            return Wall(Circle(center, radius_sq), v1)
        return Wall(VLine(Fraction(v.d, v.r)), v1)
    # rank 0: <v^2> = 2n*d^2 > 0 forces d != 0, and every wall is a circle
    # around a/(2n*d)
    if v1.r == 0:
        return None
    center = v.a / (2 * n * v.d)
    radius_sq = (center - Fraction(v1.d) / v1.r) ** 2 - self_pairing(v1, ctx) / (
        2 * n * v1.r**2
    )
    if radius_sq <= 0:
        return None
    return Wall(Circle(center, radius_sq), v1)


def _crossing_t_sq(wall: Wall, s0: Fraction) -> Optional[Fraction]:
    if isinstance(wall.shape, VLine):
        return None
    t_sq = wall.shape.t_sq_at(s0)
    return t_sq if t_sq > 0 else None


def _grid_range(lo: Fraction, hi: Fraction, den: int) -> Iterable[Fraction]:
    """All multiples of 1/den in [lo, hi]."""
    start = math.ceil(lo * den)
    stop = math.floor(hi * den)
    for k in range(start, stop + 1):
        yield Fraction(k, den)


def _mirror_vector(v: MukaiVector) -> MukaiVector:
    return MukaiVector(v.r, -v.d, v.a)


def _mirror_wall(w: Wall) -> Wall:
    if isinstance(w.shape, VLine):
        shape: Shape = VLine(-w.shape.s0)
    else:
        shape = Circle(-w.shape.center, w.shape.radius_sq)
    return Wall(shape, _mirror_vector(w.witness), w.label)


def reference_enumerate(v: MukaiVector, s0: RatLike, ctx: Context) -> list[Wall]:
    """The complete set of walls for v meeting the open ray {s0} x R_{>0}.

    Complete by the bound derivation in the module docstring; each candidate
    is validated through reference_wall_between and the exact crossing test,
    so extra candidates are harmless.
    """
    if not v.is_integral:
        raise NonIntegral(f"{v} is not integral")
    s0 = Fraction(s0)
    vv = self_pairing(v, ctx)
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {vv} <= 0")
    n = ctx.n
    r, D, A = beta_data(v, s0, ctx)
    if D == 0:
        raise BadCrossSection(f"d_beta(v) = 0 at s = {s0}")
    if D < 0:
        mirrored = reference_enumerate(_mirror_vector(v), -s0, ctx)
        return sort_walls(_mirror_wall(w) for w in mirrored)

    half = vv / 2
    assert half.denominator == 1
    half = int(half)
    q = s0.denominator
    found: dict[Shape, Wall] = {}

    def consider(r1: int, a1_twisted: Fraction, d1_twisted: Fraction):
        d1 = d1_twisted + r1 * s0
        if d1.denominator != 1:
            return
        a1 = a1_twisted + 2 * n * d1 * s0 - n * r1 * s0 * s0
        if a1.denominator != 1:
            return
        v1 = MukaiVector(r1, d1, a1)
        w = reference_wall_between(v, v1, ctx)
        if w is None:
            return
        if _crossing_t_sq(w, s0) is None:
            return
        prev = found.get(w.shape)
        if prev is None or witness_key(v1) < witness_key(prev.witness):
            found[w.shape] = w

    for j in range(0, int(D * q) + 1):
        d1t = Fraction(j, q)
        d2t = D - d1t
        for m1 in range(0, half):
            budget = half - 1 - m1  # upper bound for m2
            p_val = n * d1t * d1t - m1
            u2 = n * d2t * d2t
            l2 = u2 - budget
            if A != 0:
                if p_val != 0:
                    cap = max(abs(r * A + p_val - u2), abs(r * A + p_val - l2))
                    r1_bound = int((cap + abs(r * p_val)) / abs(A)) + 1
                    for r1 in range(-r1_bound, r1_bound + 1):
                        if r1 == 0:
                            continue
                        consider(r1, p_val / r1, d1t)
                else:
                    # r1 = 0 branch: m2 brackets r*A1
                    if r != 0:
                        lo, hi = (l2 - 0) / r, u2 / r  # r*(A - A1) in [l2, u2]
                        lo, hi = A - max(lo, hi), A - min(lo, hi)
                        for a1t in _grid_range(lo, hi, q * q):
                            consider(0, a1t, d1t)
                    # A1 = 0 branch: (r - r1)*A in [l2, u2]
                    lo, hi = l2 / A, u2 / A
                    lo, hi = min(lo, hi), max(lo, hi)
                    for diff in _grid_range(lo, hi, 1):
                        if diff.denominator == 1:
                            consider(r - int(diff), Fraction(0), d1t)
            else:
                if r != 0:
                    # bracket r*A1 in [p - u2, p - u2 + budget]
                    lo, hi = (p_val - u2) / r, (p_val - u2 + budget) / r
                    lo, hi = min(lo, hi), max(lo, hi)
                    for a1t in _grid_range(lo, hi, q * q):
                        if p_val == 0:
                            consider(0, a1t, d1t)
                        elif a1t != 0:
                            r1 = p_val / a1t
                            if r1.denominator == 1:
                                consider(int(r1), a1t, d1t)
                else:
                    # r == 0 and A == 0: crossing needs P > 0, r1 | P*q^2
                    if p_val > 0:
                        scaled = p_val * q * q
                        assert scaled.denominator == 1
                        for r1 in divisors(int(scaled)):
                            for sgn in (1, -1):
                                consider(sgn * r1, p_val / (sgn * r1), d1t)
    return sort_walls(found.values())


def _multiples(lo: int, hi: int, step: int) -> range:
    """The integers k with lo <= k*step <= hi (step != 0)."""
    if step < 0:
        lo, hi, step = -hi, -lo, -step
    return range(-(-lo // step), hi // step + 1)


def divisor_enumerate(v: MukaiVector, s0: RatLike, ctx: Context) -> list[Wall]:
    """The complete set of walls for v meeting the open ray {s0} x R_{>0}.

    Complete by the derivation in the `walls` module docstring; each
    candidate is validated through wall_of and the exact crossing
    test, so extra candidates are harmless.  The loops run on integers
    scaled by q^2, q = den(s0): j = q*D(v1), N = q^2*P and
    X = q^2*(r - r1)(A - A1).
    """
    if not v.is_integral:
        raise NonIntegral(f"{v} is not integral")
    s0 = Fraction(s0)
    vv = self_pairing(v, ctx)
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {vv} <= 0")
    n, r, d, a = ctx.n, v.r, int(v.d), int(v.a)
    p, q = s0.numerator, s0.denominator
    qq = q * q
    Dq = d * q - r * p  # q*D(v)
    Aq = a * qq - 2 * n * d * p * q + n * r * p * p  # q^2*A(v)
    if Dq == 0:
        raise BadCrossSection(f"d_beta(v) = 0 at s = {s0}")
    if Dq < 0:
        mirrored = divisor_enumerate(_mirror_vector(v), -s0, ctx)
        return sort_walls(_mirror_wall(w) for w in mirrored)
    half = n * d * d - r * a  # <v^2>/2
    p_inv = pow(p, -1, q)  # d(v1) = (j + r1*p)/q is integral iff r1 = -j*p_inv mod q
    found: dict[Shape, Wall] = {}

    def consider(r1: int, a1q: int, j: int):
        d1, rest = divmod(j + r1 * p, q)
        if rest:
            return
        a1, rest = divmod(a1q + n * (2 * d1 * p * q - r1 * p * p), qq)
        if rest:
            return
        v1 = MukaiVector(r1, d1, a1)
        w = wall_of(v, v1, ctx)
        if w is None:
            return
        if _crossing_t_sq(w, s0) is None:
            return
        prev = found.get(w.shape)
        if prev is None or witness_key(v1) < witness_key(prev.witness):
            found[w.shape] = w

    for j in range(1, Dq):
        u2 = n * (Dq - j) ** 2  # q^2 * n*D(v - v1)^2: m2 = 0 at X = u2
        c1 = -j * p_inv % q  # residue of r1 mod q
        for m1 in range(half):
            lo = u2 - (half - 1 - m1) * qq  # m2 <= <v^2>/2 - 1 - m1 at X = lo
            N = n * j * j - m1 * qq
            if N:
                # case 1: r1 != 0 divides N, A1 = P/r1
                for k in divisors(abs(N)):
                    for r1 in (k, -k):
                        if r1 % q == c1 and lo <= (r - r1) * (Aq - N // r1) <= u2:
                            consider(r1, N // r1, j)
                continue
            # case 2, P = 0: the r1 = 0 family (q | j; two rank-0 vectors give no wall)
            if r and c1 == 0:
                base = Aq + 2 * n * p * j  # q^2*(A + 2n*d1*s0), d1 = j/q
                for a1 in _multiples(r * base - u2, r * base - lo, r * qq):
                    consider(0, a1 * qq - 2 * n * p * j, j)
            # and the A1 = 0 family, r1 = c1 + q*k (A = 0 gives no crossing)
            if Aq:
                for k in _multiples((r - c1) * Aq - u2, (r - c1) * Aq - lo, q * Aq):
                    if c1 + q * k:  # r1 = 0 belongs to the family above
                        consider(c1 + q * k, 0, j)
    return sort_walls(found.values())
