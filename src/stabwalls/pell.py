"""The arithmetic engine behind the codimension-0 wall family.

Matrices P(x, y) = (y, l*x; x, y) with surd entries x = a*sqrt(r),
y = b*sqrt(s), r*s = n and y^2 - l*x^2 = +-1 form a group; its generator
with minimal y + x*sqrt(l) > 1 drives everything: the iterates (a_m, b_m),
the isotropic vector pairs labeling codimension-0 walls, the numerical
solutions of (1, 0, -l), and the slope interval families used by the
stable-sheaf criteria.

The generator comes from one exact path.  The map phi(P) = y + x*sqrt(l)
sends a member to b*sqrt(s) + a*sqrt(r*l), whose square
(b^2*s + a^2*r*l) + 2ab*sqrt(l*n) is a unit of Z[sqrt(l*n)].  The
fundamental unit eps of that ring (continued fraction of sqrt(l*n)) is a
member itself, with (r, s) = (n, 1), so the generator g has phi(g) <= eps
and phi(g)^2 is eps or eps^2; see `solve_generator`.  Units of
Z[sqrt(d)] are the standard subject of Lenstra, "Solving the Pell
equation", Notices AMS 49 (2002).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import AccumulationPoint, IntegralityViolation, InvariantViolation, SquareCase
from .lattice import Context, MukaiVector, RHO, UNIT, pairing
from .surd import Surd, divisors, is_perfect_square, squarefree_decompose


@dataclass(frozen=True)
class PellMatrix:
    """P(x, y) = (y, l*x; x, y)."""

    x: Surd
    y: Surd
    ell: int

    def norm(self) -> Fraction:
        return self.y.square() - self.ell * self.x.square()

    def __mul__(self, other: "PellMatrix") -> "PellMatrix":
        if self.ell != other.ell:
            raise ValueError("mixed Pell groups")
        x = self.x * other.y + self.y * other.x
        y = self.y * other.y + self.ell * (self.x * other.x)
        return PellMatrix(x, y, self.ell)

    def __str__(self):
        return f"({self.y},{self.ell}*{self.x};{self.x},{self.y})"


@dataclass(frozen=True)
class Iterate:
    m: int
    a: Surd
    b: Surd


@dataclass(frozen=True)
class PellContext:
    n: int
    ell: int
    generator: PellMatrix
    epsilon: int
    torsion: Optional[PellMatrix] = None

    @property
    def lattice(self) -> Context:
        return Context(self.n)

    def lambda_0(self) -> Fraction:
        """The abscissa b_-1/(a_-1*sqrt(n)): the endpoint of C_-1 where the
        complete cross-section between C_0 and C_-1 sits."""
        it = iterate(self, -1)
        return ratio_over_sqrt_n(it.b, it.a, self.n)


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


def _exact_root(num: int, den: int) -> Optional[int]:
    """sqrt(num/den) when it is an integer, else None (num >= 0, den >= 1)."""
    q, rem = divmod(num, den)
    root = math.isqrt(q)
    return root if rem == 0 and root * root == q else None


def solve_generator(n: int, ell: int) -> PellContext:
    """Generator of the Pell group with minimal y + x*sqrt(l) > 1.

    Let eps = Y1 + X1*sqrt(l*n) be the fundamental unit of Z[sqrt(l*n)].
    It is a member, with (r, s) = (n, 1), so the generator g has
    phi(g) <= eps.  phi(g)^2 = b^2*s + a^2*r*l + 2ab*sqrt(l*n) is a unit
    > 1 of norm +1, hence a power of eps, hence eps or eps^2; only these
    two unit powers are checked, eps first.

    For each divisor pair r*s = n in ascending r and each delta = +-1, a
    unit Y + X*sqrt(l*n) is phi(g)^2 exactly when b^2*s = (Y + delta)/2,
    a^2*r*l = (Y - delta)/2 and 2ab = X; then delta is the norm
    y^2 - l*x^2 of g.  The test 2ab = X is needed: without it the torsion
    (x, y) = (1, 0) would pass for l = 1.  All candidates for one unit have
    the same phi, and distinct ones occur only for l = 1 (g and
    g*(0, 1; 1, 0)); the first in ascending r is taken.  eps^2 always has
    the candidate (a, b) = (X1, Y1) at (r, s) = (n, 1).

    For l = 1 the extra torsion element (0, 1; 1, 0) is reported alongside.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d = ell * n
    if is_perfect_square(d):
        raise SquareCase(f"sqrt({ell}*{n}) is an integer; the group is finite")
    # the kernel of P(x,y) -> y + x*sqrt(l) is generated by (0,1;1,0) when l=1
    torsion = PellMatrix(Surd(1, 1), Surd(0), ell) if ell == 1 else None
    y1, x1 = _fundamental_unit(d)
    for big_y, big_x in ((y1, x1), (y1 * y1 + d * x1 * x1, 2 * y1 * x1)):
        if big_y % 2 == 0:  # Y = b^2*s + a^2*r*l is odd: b^2*s - a^2*r*l = +-1
            continue
        for r in divisors(n):
            s = n // r
            for delta in (1, -1):
                b = _exact_root((big_y + delta) // 2, s)
                a = _exact_root((big_y - delta) // 2, r * ell)
                if a is not None and b is not None and 2 * a * b == big_x:
                    generator = PellMatrix(Surd(a, r), Surd(b, s), ell)
                    return PellContext(n, ell, generator, delta, torsion)
    raise InvariantViolation(f"no generator found for (n,l)=({n},{ell})")


def iterate(pell: PellContext, m: int) -> Iterate:
    """(a_m, b_m) with generator^m = (b_m, l*a_m; a_m, b_m), by binary
    powering of the generator; m < 0 uses P(x, y)^-1 = e*P(-x, y) with
    e = y^2 - l*x^2 = +-1."""
    if m == 0:
        return Iterate(0, Surd(0), Surd(1))
    k = abs(m)
    acc, base = None, pell.generator
    while k:
        if k & 1:
            acc = base if acc is None else acc * base
        k >>= 1
        if k:
            base = base * base
    a, b = acc.x, acc.y
    if m < 0:
        sign = pell.epsilon ** abs(m)
        a, b = Surd(-sign * a.coef, a.rad), Surd(sign * b.coef, b.rad)
    return Iterate(m, a, b)


def ratio_over_sqrt_n(num: Surd, den: Surd, n: int) -> Fraction:
    """num / (den * sqrt(n)), exact; raises InvariantViolation when the
    value is irrational."""
    if den.is_zero():
        raise ZeroDivisionError("zero denominator in slope")
    # num/(den*sqrt(n)) = c_num*sqrt(r_num*r_den*n) / (c_den*r_den*n)
    k, rest = squarefree_decompose(num.rad * den.rad * n)
    if rest != 1:
        raise InvariantViolation(f"slope {num}/({den}*sqrt({n})) is irrational")
    return Fraction(num.coef * k, 1) / (den.coef * den.rad * n)


def slope_endpoints(pell: PellContext, m: int) -> tuple[Fraction, Fraction]:
    """The two rational abscissae b_m/(a_m*sqrt(n)) and l*a_m/(b_m*sqrt(n))
    where the m-th codimension-0 circle meets the real axis (m != 0)."""
    if m == 0:
        raise ValueError("m = 0 is the vertical line")
    it = iterate(pell, m)
    lam1 = ratio_over_sqrt_n(it.b, it.a, pell.n)
    lam2 = ratio_over_sqrt_n(Surd(pell.ell * it.a.coef, it.a.rad), it.b, pell.n)
    return lam1, lam2


def u_vectors(pell: PellContext, m: int) -> tuple[MukaiVector, MukaiVector]:
    """The isotropic pair (u_m, u_m') = (a_m^2 e^{...}, b_m^2 e^{...}) with
    <u_m^2> = <u_m'^2> = 0 and <u_m, u_m'> = -1; m = 0 gives (rho, 1)."""
    if m == 0:
        return RHO, UNIT
    it = iterate(pell, m)
    r1 = it.a.square()
    r2 = it.b.square()
    # a_m * b_m / sqrt(n) is an integer
    prod = it.a * it.b
    d = ratio_over_sqrt_n(prod, Surd(1), pell.n)
    if not (r1.denominator == 1 and r2.denominator == 1 and d.denominator == 1):
        raise IntegralityViolation(f"m={m}: u_m = ({r1}, {d}, {r2}) is not integral")
    u = MukaiVector(int(r1), d, int(r2))
    u_prime = MukaiVector(int(r2), pell.ell * d, pell.ell**2 * int(r1))
    return u, u_prime


def target_vector(pell: PellContext) -> MukaiVector:
    return MukaiVector(1, 0, -pell.ell)


def numerical_solutions(pell: PellContext, m_range: range) -> list[NumericalSolution]:
    """Numerical solutions of (1, 0, -l): v = +-(l1*v1 - l2*v2) with both v_i
    positive isotropic primitive, <v1,v2> = -1 and (l1-1)(l2-1) = 0."""
    ctx = pell.lattice
    v = target_vector(pell)
    out = []
    for m in m_range:
        if m == 0:
            sol = NumericalSolution(UNIT, RHO, 1, pell.ell)
        else:
            u, u_prime = u_vectors(pell, m)
            sol = NumericalSolution(u, u_prime, pell.ell, 1)
        combo = sol.v1.scale(sol.l1) - sol.v2.scale(sol.l2)
        if combo != v and combo != -v:
            raise InvariantViolation(f"m={m}: {combo} != +-{v}")
        if pairing(sol.v1, sol.v2, ctx) != -1:
            raise InvariantViolation(f"m={m}: <v1, v2> != -1")
        out.append(sol)
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


class _Endpoint:
    """Surd endpoint or +-infinity for interval comparisons."""

    __slots__ = ("value", "inf_sign")

    def __init__(self, value: Optional[Surd], inf_sign: int = 0):
        self.value = value
        self.inf_sign = inf_sign  # -1, 0, +1

    def cmp(self, lam: Surd) -> int:
        """sign(self - lam)."""
        if self.inf_sign:
            return self.inf_sign
        return self.value.compare(lam)


def _b_over_a(pell: PellContext, m: int, sign: int = 1) -> _Endpoint:
    it = iterate(pell, m)
    if it.a.is_zero():
        return _Endpoint(None, sign)
    val = Surd(Fraction(sign) * it.b.coef / (it.a.coef * it.a.rad), it.a.rad * it.b.rad)
    return _Endpoint(val)


def _la_over_b(pell: PellContext, m: int, sign: int = 1) -> _Endpoint:
    it = iterate(pell, m)
    if it.b.is_zero():  # pragma: no cover - b_m never vanishes
        return _Endpoint(None, sign)
    val = Surd(
        Fraction(sign * pell.ell) * it.a.coef / (it.b.coef * it.b.rad),
        it.a.rad * it.b.rad,
    )
    return _Endpoint(val)


def _pieces(pell: PellContext, m: int) -> list[tuple[_Endpoint, _Endpoint]]:
    """Half-open pieces [lo, hi) of the interval with index m, in the slope
    coordinate lambda = mu/(2*sqrt(n)) (endpoints rational multiples of
    sqrt(n))."""
    if pell.epsilon == -1:
        return _pieces_eps_minus(pell, m)
    return _pieces_eps_plus(pell, m)


def _pieces_eps_minus(pell, m):
    ba = lambda k, s=1: _b_over_a(pell, k, s)
    lab = lambda k, s=1: _la_over_b(pell, k, s)
    if m == 1:
        return [(_Endpoint(Surd(0)), ba(1)), (lab(1), _Endpoint(None, 1))]
    if m == 0:
        return [(_Endpoint(None, -1), lab(1, -1)), (ba(1, -1), _Endpoint(Surd(0)))]
    if m >= 2:
        k = m // 2
        if m % 2 == 0:
            return [(ba(2 * k - 1), lab(2 * k)), (ba(2 * k), lab(2 * k - 1))]
        return [(lab(2 * k), ba(2 * k + 1)), (lab(2 * k + 1), ba(2 * k))]
    # m <= -1: written as I_{-2k} and I_{-2k+1} for k >= 1
    mm = -m
    if mm % 2 == 0:
        k = mm // 2
        return [(ba(2 * k, -1), lab(2 * k + 1, -1)), (ba(2 * k + 1, -1), lab(2 * k, -1))]
    k = (mm + 1) // 2
    return [(lab(2 * k - 1, -1), ba(2 * k, -1)), (lab(2 * k, -1), ba(2 * k - 1, -1))]


def _pieces_eps_plus(pell, m):
    ba = lambda k, s=1: _b_over_a(pell, k, s)
    lab = lambda k, s=1: _la_over_b(pell, k, s)
    if m == 1:
        return [(_Endpoint(Surd(0)), lab(1)), (ba(1), _Endpoint(None, 1))]
    if m == 0:
        return [(_Endpoint(None, -1), ba(1, -1)), (lab(1, -1), _Endpoint(Surd(0)))]
    if m >= 2:
        k = m - 1
        return [(lab(k), lab(k + 1)), (ba(k + 1), ba(k))]
    mm = -m
    return [(ba(mm, -1), ba(mm + 1, -1)), (lab(mm + 1, -1), lab(mm, -1))]


def _in_piece(lam: Surd, lo: _Endpoint, hi: _Endpoint, starred: bool) -> bool:
    lo_c, hi_c = lo.cmp(lam), hi.cmp(lam)
    if starred:
        return lo_c < 0 and hi_c >= 0  # (lo, hi]
    return lo_c <= 0 and hi_c > 0  # [lo, hi)


def in_interval(pell: PellContext, lam: Surd, m: int, starred: bool) -> bool:
    """Whether lam lies in I_m, or in its right-closed twin I_m* when starred."""
    return any(_in_piece(lam, lo, hi, starred) for lo, hi in _pieces(pell, m))


def interval_index(pell: PellContext, lam: Fraction) -> dict:
    """Locate the rational slope lam in the half-open interval decomposition
    of P^1(R) minus the accumulation points +-sqrt(l); `starred` reports
    whether lam is interior (in both the interval and its right-closed twin)."""
    lam = Fraction(lam)
    lam_s = Surd(lam)
    if lam_s.square() == pell.ell and lam_s.rad == 1:
        raise AccumulationPoint(f"lambda^2 = {pell.ell}")
    # probe m = 1, 0, 2, -1, 3, -2, ...; the intervals partition the line
    # minus +-sqrt(l), so some I_m holds lam and the probe ends
    for k in itertools.count(1):
        for m in (k, 1 - k):
            if in_interval(pell, lam_s, m, starred=False):
                return {"m": m, "starred": in_interval(pell, lam_s, m, starred=True)}


def sheaf_verdict(pell: PellContext, lam: Fraction, m: int) -> dict:
    """Transform-image test for index m <= 0: a slope in I_m yields a stable
    sheaf (up to shift); a slope in I_m* yields one after dualizing; interior
    slopes satisfy both, endpoints exactly one."""
    if m > 0:
        raise ValueError("verdict defined for m <= 0")
    lam_s = Surd(Fraction(lam))
    stable = in_interval(pell, lam_s, m, starred=False)
    dual = in_interval(pell, lam_s, m, starred=True)
    if stable and dual:
        label = "Both"
    elif stable:
        label = "StableSheaf"
    elif dual:
        label = "DualStableSheaf"
    else:
        label = "Neither"
    return {"stable_sheaf": stable, "dual_stable_sheaf": dual, "verdict": label}
