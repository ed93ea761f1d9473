"""The arithmetic engine behind the codimension-0 wall family.

Matrices P(x, y) = (y, l*x; x, y) with surd entries x = a*sqrt(r),
y = b*sqrt(s), r*s = n and y^2 - l*x^2 = +-1 form a group; its generator
with minimal y + x*sqrt(l) > 1 drives everything: the iterates (a_m, b_m),
the isotropic vector pairs labeling codimension-0 walls, the numerical
solutions of (1, 0, -l), and the slope interval families used by the
stable-sheaf criteria.

P(x, y) is a `GMatrix`, the one 2x2 surd-matrix type: the Pell matrices
are the subgroup of the surd-matrix group of `fmgroup` with a = d and
b = l*c.  The iterates are the bottom rows of the powers of the
generator, computed on integers.  For the generator
(y*sqrt(s), l*x*sqrt(r); x*sqrt(r), y*sqrt(s)) with r, s squarefree,
a_m = alpha*sqrt(rho) and b_m = beta*sqrt(sigma) where the radicands
depend only on the parity of m: (r, s) for odd m and (r*s, 1) for even m.
So the row-times-generator step is an integer map of (alpha, beta) with
four constants per parity (see `_parities`), and
u_m = (alpha^2*rho, alpha*beta/kappa, beta^2*sigma) with n = kappa^2*r*s.
`iterate` reaches any label by binary powering of the two-label step from
(a_0, b_0) = (0, 1), and every label family walks the labels in order
through `orbit`: one `iterate` for the first label, then one step per
label.  `Surd`s are built only where an iterate is printed, and no
`GMatrix` is multiplied.

The generator comes from one exact path.  The map phi(P) = y + x*sqrt(l)
sends a member to b*sqrt(s) + a*sqrt(r*l), whose square
(b^2*s + a^2*r*l) + 2ab*sqrt(l*n) is a unit of Z[sqrt(l*n)].  The
fundamental unit eps of that ring (continued fraction of sqrt(l*n)) is a
member itself, with (r, s) = (n, 1), so the generator g has phi(g) <= eps
and phi(g)^2 is eps or eps^2.  The halves b^2*s and a^2*r*l of the
rational part differ by the norm +-1, so they are coprime and b is prime
to r: one gcd of a half with n gives s, and no divisor of n is sought;
see `solve_generator`.  Units of Z[sqrt(d)] are the standard subject of
Lenstra, "Solving the Pell equation", Notices AMS 49 (2002).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .errors import (
    AccumulationPoint,
    IntegralityViolation,
    InvariantViolation,
    NotInGHat,
    SquareCase,
)
from .lattice import Context, MukaiVector
from .surd import RatLike, Surd, exact_root, is_perfect_square


@dataclass(frozen=True)
class GMatrix:
    """The surd matrix (a, b; c, d) as parsed and printed; the group members
    have the pattern (a*sqrt(r), b*sqrt(s); c*sqrt(s), d*sqrt(r)), and
    `fmgroup` computes with them on integers."""

    a: Surd
    b: Surd
    c: Surd
    d: Surd

    def det(self) -> RatLike:
        """a*d - b*c, rational when each diagonal has one radicand (a zero
        entry fits any); NotInGHat otherwise."""
        for x, y in ((self.a, self.d), (self.b, self.c)):
            if x.coef and y.coef and x.rad != y.rad:
                raise NotInGHat(f"determinant of {self} is irrational")
        return self.a.coef * self.d.coef * self.a.rad - self.b.coef * self.c.coef * self.b.rad

    def __str__(self):
        return f"({self.a},{self.b};{self.c},{self.d})"

    __repr__ = __str__


class Iterate(NamedTuple):
    """(a_m, b_m) = (alpha*sqrt(rho), beta*sqrt(sigma)) on integers.  The
    squarefree radicands rho and sigma depend only on the parity of m, and
    kappa = sqrt(n/(rho*sigma)) not at all (see `_parities`)."""

    m: int
    alpha: int
    beta: int
    rho: int
    sigma: int
    kappa: int

    @property
    def a(self) -> Surd:
        return Surd.reduced(self.alpha, self.rho)

    @property
    def b(self) -> Surd:
        return Surd.reduced(self.beta, self.sigma)

    def u(self) -> tuple[int, int, int]:
        """u_m = (a_m^2, a_m*b_m/sqrt(n), b_m^2) = (alpha^2*rho,
        alpha*beta/kappa, beta^2*sigma), an integer triple."""
        ab = self.alpha * self.beta
        d, rest = divmod(ab, self.kappa)
        if rest:
            raise IntegralityViolation(f"m={self.m}: a_m*b_m/sqrt(n) = {ab}/{self.kappa}")
        return self.alpha * self.alpha * self.rho, d, self.beta * self.beta * self.sigma


@dataclass(frozen=True)
class PellContext:
    n: int
    ell: int
    generator: GMatrix
    epsilon: int
    torsion: Optional[GMatrix] = None

    def lambda_0(self) -> Fraction:
        """The abscissa b_-1/(a_-1*sqrt(n)): the endpoint of C_-1 where the
        complete cross-section between C_0 and C_-1 sits."""
        return slope_endpoints(self, iterate(self, -1))[0]


@dataclass(frozen=True)
class NumericalSolution:
    v1: MukaiVector
    v2: MukaiVector
    l1: int
    l2: int


def _fundamental_unit(d: int) -> tuple[int, int]:
    """(Y, X) with Y + X*sqrt(d) the least unit > 1 of Z[sqrt(d)], d not a
    square: the first convergent Y/X of the continued fraction of sqrt(d)
    with Y^2 - d*X^2 = +-1.  The expansion is periodic, and the convergent
    before the end of the first period is such a unit, so the loop ends."""
    a0 = math.isqrt(d)
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while h * h - d * k * k not in (1, -1):
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


def solve_generator(n: int, ell: int) -> PellContext:
    """Generator of the Pell group with minimal y + x*sqrt(l) > 1.

    Let eps = Y1 + X1*sqrt(l*n) be the fundamental unit of Z[sqrt(l*n)].
    It is a member, with (r, s) = (n, 1), so the generator g has
    phi(g) <= eps.  phi(g)^2 = b^2*s + a^2*r*l + 2ab*sqrt(l*n) is a unit
    > 1 of norm +1, hence a power of eps, hence eps or eps^2; only these
    two unit powers are checked, eps first.

    A unit Y + X*sqrt(l*n) is phi(g)^2 for a member g = P(a*sqrt(r),
    b*sqrt(s)) of norm delta = b^2*s - l*a^2*r exactly when
    b^2*s = (Y + delta)/2, a^2*r*l = (Y - delta)/2 and 2ab = X.  The two
    halves differ by delta, so they are coprime and gcd(b, r) = 1, and
    gcd(b^2*s, n) = gcd(b^2*s, r*s) = s*gcd(b^2, r) = s: each unit and sign
    leave the one candidate s = gcd((Y + delta)/2, n), r = n/s, and the
    two roots and 2ab = X decide it.  The test 2ab = X is needed: without
    it the torsion (x, y) = (1, 0) would pass for l = 1.  All candidates
    for one unit have the same phi, and two occur only for l = 1 (g and
    g*(0, 1; 1, 0), of opposite norms and swapped r and s); the one with
    the smaller r is taken, delta = +1 on a tie.  eps^2 always has the
    candidate (a, b) = (X1, Y1) at (r, s) = (n, 1).

    For l = 1 the extra torsion element (0, 1; 1, 0) is reported alongside.
    """
    Context(n)  # rejects n < 1
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d = ell * n
    if is_perfect_square(d):
        raise SquareCase(f"sqrt({ell}*{n}) is an integer; the group is finite")
    # the kernel of P(x,y) -> y + x*sqrt(l) is generated by (0,1;1,0) when l=1
    torsion = GMatrix(Surd(0), Surd(1), Surd(1), Surd(0)) if ell == 1 else None
    y1, x1 = _fundamental_unit(d)
    for big_y, big_x in ((y1, x1), (y1 * y1 + d * x1 * x1, 2 * y1 * x1)):
        if big_y % 2 == 0:  # Y = b^2*s + a^2*r*l is odd: b^2*s - a^2*r*l = +-1
            continue
        hits = []  # (r, delta, a, b)
        for delta in (1, -1):
            s = math.gcd((big_y + delta) // 2, n)
            b = exact_root((big_y + delta) // 2, s)
            a = exact_root((big_y - delta) // 2, n // s * ell)
            if a is not None and b is not None and 2 * a * b == big_x:
                hits.append((n // s, delta, a, b))
        if hits:
            r, delta, a, b = min(hits, key=lambda hit: hit[0])  # delta = +1 on a tie
            x, y = Surd(a, r), Surd(b, n // r)
            generator = GMatrix(y, Surd.reduced(ell * x.coef, x.rad), x, y)
            return PellContext(n, ell, generator, delta, torsion)
    raise InvariantViolation(f"no generator found for (n,l)=({n},{ell})")


# (c11, c21, c12, c22): the integer step
# (alpha, beta) -> (alpha*c11 + beta*c21, alpha*c12 + beta*c22)
Step = tuple[int, int, int, int]
# (rho, sigma, step) of one parity of m: the radicands of its iterates, and
# the step to the next label
Parity = tuple[int, int, Step]


def _parities(pell: PellContext) -> tuple[int, tuple[Parity, Parity]]:
    """kappa and the even and odd `Parity`, read off the generator
    (y*sqrt(s), l*x*sqrt(r); x*sqrt(r), y*sqrt(s)), r and s squarefree.
    Its norm y^2*s - l*x^2*r = +-1 makes r and s coprime, so r*s is
    squarefree and n = kappa^2*r*s.  Odd iterates are
    (alpha*sqrt(r), beta*sqrt(s)) and even ones (alpha*sqrt(r*s), beta),
    and the row (a_m, b_m) times the generator steps
      even to odd: (alpha, beta) -> (alpha*y*s + beta*x, alpha*l*x*r + beta*y),
      odd to even: (alpha, beta) -> (alpha*y + beta*x, alpha*l*x*r + beta*y*s)."""
    g, ell = pell.generator, pell.ell
    x, r, y, s = g.c.coef, g.c.rad, g.d.coef, g.d.rad
    kappa = exact_root(pell.n, r * s)
    if kappa is None:
        raise InvariantViolation(f"n = {pell.n} is not a square times {r}*{s}")
    even = (r * s, 1, (y * s, x, ell * x * r, y))
    odd = (r, s, (y, x, ell * x * r, y * s))
    return kappa, (even, odd)


def _step(c: Step, alpha: int, beta: int) -> tuple[int, int]:
    """The step c applied to (alpha, beta)."""
    return alpha * c[0] + beta * c[1], alpha * c[2] + beta * c[3]


def _then(p: Step, q: Step) -> Step:
    """The step p followed by the step q."""
    (t11, t12), (t21, t22) = _step(q, p[0], p[2]), _step(q, p[1], p[3])
    return t11, t21, t12, t22


def iterate(pell: PellContext, m: int) -> Iterate:
    """(a_m, b_m) with generator^m = (b_m, l*a_m; a_m, b_m), on integers.

    From (a_0, b_0) = (0, 1), label 2j is j two-label steps (even to odd
    to even), taken by binary powering of that step, and an odd label is
    one even-to-odd step more.  A negative label reflects its positive
    one: the generator g of norm eps has g^-1 = eps*D*g*D with
    D = diag(1, -1), so g^-m = eps^m*D*g^m*D and
    (a_-m, b_-m) = eps^m*(-a_m, b_m)."""
    kappa, (even, odd) = _parities(pell)
    j, odd_m = divmod(abs(m), 2)
    two, alpha, beta = _then(even[2], odd[2]), 0, 1
    while j:
        if j & 1:
            alpha, beta = _step(two, alpha, beta)
        j >>= 1
        if j:
            two = _then(two, two)
    if odd_m:
        alpha, beta = _step(even[2], alpha, beta)
    if m < 0:
        sign = -1 if pell.epsilon < 0 and odd_m else 1  # eps^|m|
        alpha, beta = -sign * alpha, sign * beta
    rho, sigma, _ = odd if odd_m else even
    return Iterate(m, alpha, beta, rho, sigma, kappa)


def orbit(pell: PellContext, m: int) -> Iterator[Iterate]:
    """The iterates m, m+1, m+2, ...: `iterate` for the first, then one
    integer step of its parity (see `_parities`) for each next one, the
    bottom row (a_m, b_m) times the generator."""
    kappa, steps = _parities(pell)
    it = iterate(pell, m)
    alpha, beta = it.alpha, it.beta
    while True:
        rho, sigma, (c11, c21, c12, c22) = steps[m & 1]
        yield Iterate(m, alpha, beta, rho, sigma, kappa)
        alpha, beta = alpha * c11 + beta * c21, alpha * c12 + beta * c22
        m += 1


def slope_endpoints(pell: PellContext, it: Iterate) -> tuple[Fraction, Fraction]:
    """The two rational abscissae b_m/(a_m*sqrt(n)) and l*a_m/(b_m*sqrt(n))
    where the m-th codimension-0 circle meets the real axis (m != 0).  With
    u_m = (r, d, a) = (a_m^2, a_m*b_m/sqrt(n), b_m^2) they are d/r and
    l*d/a."""
    if it.m == 0:
        raise ValueError("m = 0 is the vertical line")
    r, d, a = it.u()
    return Fraction(d, r), Fraction(pell.ell * d, a)


def u_vectors(pell: PellContext, it: Iterate) -> tuple[MukaiVector, MukaiVector]:
    """The isotropic pair (u_m, u_m') = (a_m^2 e^{...}, b_m^2 e^{...}) with
    <u_m^2> = <u_m'^2> = 0 and <u_m, u_m'> = -1; m = 0 gives (rho, 1).
    u_m' = (b_m^2, l*d, l^2*a_m^2) for u_m = (a_m^2, d, b_m^2)."""
    r, d, a = it.u()
    ell = pell.ell
    return MukaiVector(r, d, a), MukaiVector(a, ell * d, ell * ell * r)


def isotropic_pairs(
    pell: PellContext, m_range: range
) -> list[tuple[Iterate, MukaiVector, MukaiVector]]:
    """(iterate, u_m, u_m') for each label m in m_range, in one orbit walk."""
    return [
        (it, *u_vectors(pell, it)) for it in islice(orbit(pell, m_range.start), len(m_range))
    ]


def numerical_solutions(
    pell: PellContext, pairs: list[tuple[Iterate, MukaiVector, MukaiVector]]
) -> list[NumericalSolution]:
    """Numerical solutions of (1, 0, -l), one per label of `pairs` (as
    `isotropic_pairs` returns them): v = +-(l1*v1 - l2*v2) with both v_i
    positive isotropic primitive, <v1,v2> = -1 and (l1-1)(l2-1) = 0.  They
    are (u_m, u_m') with (l1, l2) = (l, 1), and (1, rho) = (u_0', u_0) with
    (1, l) at m = 0; both conditions are checked on their integers."""
    n, ell = pell.n, pell.ell
    out = []
    for it, u, u_prime in pairs:
        v1, v2, l1, l2 = (u_prime, u, 1, ell) if it.m == 0 else (u, u_prime, ell, 1)
        combo = (l1 * v1.r - l2 * v2.r, l1 * v1.d - l2 * v2.d, l1 * v1.a - l2 * v2.a)
        if combo != (1, 0, -ell) and combo != (-1, 0, ell):
            raise InvariantViolation(f"m={it.m}: {combo} != +-(1, 0, {-ell})")
        if 2 * n * v1.d * v2.d - v1.r * v2.a - v2.r * v1.a != -1:
            raise InvariantViolation(f"m={it.m}: <v1, v2> != -1")
        out.append(NumericalSolution(v1, v2, l1, l2))
    return out


def presentation_report(n: int, ell: int) -> dict:
    """Count of numerical solutions of (1,0,-l): one when sqrt(l/n) is
    rational (equivalently l*n a perfect square), infinite otherwise; with
    at least two solutions a general member carries both presentations."""
    unique = is_perfect_square(ell * n)
    if unique:
        return {"count": 1, "both_presentations": False}
    return {"count": None, "infinite": True, "both_presentations": True}


# ---------------------------------------------------------------------------
# slope intervals
#
# For k >= 1 let P_k = min(b_k/a_k, l*a_k/b_k) and Q_k = l/P_k (the max of
# the two); P_0 = 0 and Q_0 = +inf.  Since b_k^2 - l*a_k^2 = +-1 the two
# ratios straddle sqrt(l), and 0 = P_0 < P_1 < ... < sqrt(l) < ... < Q_1 < Q_0
# for either sign of epsilon.  The interval families are
#   I_m = [P_(m-1), P_m) u [Q_m, Q_(m-1))            for m >= 1,
#   I_m = [-Q_(K-1), -Q_K) u [-P_K, -P_(K-1))        for m <= 0, K = 1 - m,
# and I_m* is the same union with every piece closed on the right instead.
# They partition the line minus +-sqrt(l).  The slope lam is rational, so
# every comparison is made on x = lam^2 against the rational squares
# P_k^2 = min(B/A, l^2*A/B) and Q_k^2 = l^2/P_k^2, with A = a_k^2 and
# B = b_k^2; squaring reverses the negative side, so there a piece closed
# on the left in lam is closed on the right in x.


def _squared_ends(ell: int, it: Iterate) -> tuple[tuple[int, int], tuple[int, int]]:
    """(P_k^2, Q_k^2) as (num, den) pairs from the iterate (a_k, b_k),
    k >= 1: B/A and l^2*A/B with A = a_k^2 and B = b_k^2, smaller first."""
    big_a, big_b = it.alpha * it.alpha * it.rho, it.beta * it.beta * it.sigma
    ba, lab = (big_b, big_a), (ell * ell * big_a, big_b)
    return (ba, lab) if big_b < ell * big_a else (lab, ba)


def _within(
    xn: int, xd: int, lo: tuple[int, int], hi: Optional[tuple[int, int]], closed_left: bool
) -> bool:
    """x = xn/xd in [lo, hi) when closed_left, else in (lo, hi]; the ends
    are (num, den) pairs with positive denominators, hi None is +inf."""
    lo_minus_x = lo[0] * xd - xn * lo[1]  # has the sign of lo - x
    x_minus_hi = -1 if hi is None else xn * hi[1] - hi[0] * xd
    if closed_left:
        return lo_minus_x <= 0 and x_minus_hi < 0
    return lo_minus_x < 0 and x_minus_hi <= 0


def interval_index(pell: PellContext, lam: Fraction) -> dict:
    """Locate the rational slope lam in the half-open interval decomposition
    of P^1(R) minus the accumulation points +-sqrt(l); `starred` reports
    whether lam is interior (in both the interval and its right-closed twin).

    The orbit walk k = 1, 2, ... stops at the first piece of I_k (lam >= 0)
    or I_(1-k) (lam < 0) that holds lam; P_k and Q_k close in on sqrt(l)
    and x != l, so the walk ends.  lam lies in the twin I_m* too unless it
    is the closed end of its piece, so `starred` settles both memberships.
    x = lam^2 is compared with the ends by cross-multiplication."""
    lam = Fraction(lam)
    xn, xd = lam.numerator ** 2, lam.denominator ** 2
    if xn == pell.ell * xd:
        raise AccumulationPoint(f"lambda^2 = {pell.ell}")
    positive = lam >= 0
    p_prev, q_prev = (0, 1), None
    for it in orbit(pell, 1):
        p_k, q_k = _squared_ends(pell.ell, it)
        for lo, hi in ((p_prev, p_k), (q_k, q_prev)):
            if _within(xn, xd, lo, hi, closed_left=positive):
                closed_end = lo if positive else hi
                starred = closed_end is None or closed_end[0] * xd != xn * closed_end[1]
                return {"m": it.m if positive else 1 - it.m, "starred": starred}
        p_prev, q_prev = p_k, q_k
