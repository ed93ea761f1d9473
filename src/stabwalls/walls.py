"""Wall construction, complete enumeration on a rational cross-section,
codimension-0 detection, wall sets and chamber classification.

All geometry is exact: a wall is a circle (rational center, rational
radius^2) or a vertical line in the (s, t) half-plane, and every predicate
is decided in Q.

Completeness of `enumerate_walls_on_line` (why the search space is finite):
write D(w), A(w) for the twisted d- and a-components of w at base s0*H and
normalize D = D(v) > 0.  A witness v1 of a wall crossing {s0} x R_{>0}
satisfies m1 = <v1^2>/2 >= 0, m2 = <(v-v1)^2>/2 >= 0, k = <v1, v-v1> >= 1
with m1 + m2 + k = <v^2>/2.  At the crossing point the three charges are
collinear and Z(v) != 0, so v1 = c*v + xi*kappa inside the plane
{Z = 0 at the point} + R*v, where kappa = (1, 0, n*t^2) spans the (negative)
kernel of Z there and c = D(v1)/D.  k >= 1 forces v1 and v - v1 into the
positive cone component of v (vectors of nonnegative square in opposite
components pair nonpositively), and the kernel line R*kappa is negative, so
c and 1 - c are both positive: D(v1) runs over (0, D) on the 1/q grid,
s0 = p/q in lowest terms, so D(v1) = j/q with 0 < j < q*D.  This is the
rational-abscissa finiteness argument of Maciocia ("Computing the walls
associated to Bridgeland stability conditions on projective surfaces").
Given (j, m1), P := n*D1^2 - m1 equals r1*A1, and A1 lies on the 1/q^2 grid
because v1 is integral, so r1*(q^2*A1) = N := q^2*P = n*j^2 - m1*q^2.
Two cases exhaust the candidates:
  * P != 0: r1 is a signed divisor of the integer N, found in two
    residue classes mod q.  d1 = (j + r1*p)/q is integral only for
    r1 = c1 := -j*p^-1 (mod q).  With a1q := q^2*A1 = N/r1,
    q^2*a1 = a1q + n*(2*d1*p*q - r1*p^2), so a1 is integral only if
    N/r1 = e1 := n*p^2*c1 (mod q).  As |r1|*|N/r1| = |N|, the smaller
    i = min(|r1|, |N/r1|) is at most sqrt|N|, so at most isqrt|N|, and it
    lies in one of the classes +-c1, +-e1 mod q.  So trial division by
    those i in [1, isqrt|N|], with the candidates +-i, +-N/i for each
    divisor i, reaches every usable r1 in at most min(4, q)*(isqrt|N|/q + 1)
    divisibility tests (the elementary case of Lenstra, "Divisors in
    residue classes", Math. Comp. 42, 1984);
  * P == 0: r1 = 0 or A1 = 0.  r1 = 0 needs q | j and an integral a1; two
    rank-0 vectors define no wall, so r != 0 and the bracket below bounds
    r*(A - A1).  A1 = 0 fixes r1 mod q; the bracket bounds (r - r1)*A, and
    A = 0 leaves no crossing, since Z(v1) and Z(v) are collinear at height
    t exactly when n*t^2*(r1*D - r*D1) = A1*D - A*D1, and with
    A = A1 = 0 that forces r1*D = r*D1: v1 proportional to v.
The two-sided bracket 0 <= m2 = n*(D - D1)^2 - (r - r1)*(A - A1) <=
<v^2>/2 - 1 - m1 then filters every candidate exactly.  A(v) = 0 at a
rational s0 happens exactly on the Cor.-square abscissae of the
finite-wall (square) case, which must be enumerable, so only D(v) = 0
raises BadCrossSection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

from .errors import BadCrossSection, DegenerateV, InvariantViolation, NonIntegral, NoWalls
from .lattice import (
    Context,
    MukaiVector,
    UNIT,
    beta_data,
    pairing,
    self_pairing,
)
from .charge import StabilityPoint
from .pell import PellContext, isotropic_pairs, orbit, solve_generator, u_vectors
from .surd import QnNumber, RatLike, is_perfect_square, sqrt_of_fraction


@dataclass(frozen=True)
class Circle:
    center: Fraction
    radius_sq: Fraction

    def t_sq_at(self, s: Fraction) -> Fraction:
        return self.radius_sq - (s - self.center) ** 2

    def endpoints(self) -> tuple[QnNumber, QnNumber]:
        """Exact real-axis abscissae center -+ sqrt(radius_sq)."""
        rad = sqrt_of_fraction(self.radius_sq)
        lo = QnNumber(self.center, -rad.coef, rad.rad)
        hi = QnNumber(self.center, rad.coef, rad.rad)
        return lo, hi


@dataclass(frozen=True)
class VLine:
    s0: Fraction


Shape = Union[Circle, VLine]


@dataclass(frozen=True)
class Wall:
    shape: Shape
    witness: MukaiVector
    label: Optional[int] = None  # m when the wall is the codimension-0 C_m

    @property
    def codim0(self) -> bool:
        return self.label is not None


# C_0, the t-axis s = 0, witnessed by 1 = (1, 0, 0).  A vertical wall of v
# lies at s = d/r, so C_0 is the one vertical wall of (1, 0, -l).
C0 = Wall(VLine(Fraction(0)), UNIT, label=0)


def _shape_sort_key(shape: Shape):
    if isinstance(shape, VLine):
        return (0, shape.s0, Fraction(0))
    return (1, shape.center, shape.radius_sq)


def sort_walls(walls: Iterable[Wall]) -> list[Wall]:
    return sorted(walls, key=lambda w: _shape_sort_key(w.shape))


def witness_key(v: MukaiVector):
    """Order in which a wall's witnesses compete: smallest entries win."""
    return (abs(v.r), abs(v.d), abs(v.a), v.r, v.d, v.a)


def wall_between(n: int, r: int, d: int, a: int, r1: int, d1: int, a1: int) -> Optional[Shape]:
    """The shape of the wall for v = (r, d, a) defined by v1 = (r1, d1, a1),
    or None when v1 defines none.  All six entries are integers and
    <v^2> > 0 (see integral_triple); a rational pair is scaled to integers
    first, which changes no sign and no shape.

    v1 qualifies when <v1^2> >= 0, <(v-v1)^2> >= 0, <v1, v-v1> > 0 and the
    triples are not proportional; the locus is then a circle, a vertical
    line, or empty (radius^2 <= 0 gives None).  Every test runs on
    integers; radius^2 > 0 is cross-multiplied by the square of its
    denominator, and the Fractions are built only for a shape that is
    returned.
    """
    n2 = 2 * n
    vv = n2 * d * d - 2 * r * a
    v1v1 = n2 * d1 * d1 - 2 * r1 * a1
    vv1 = n2 * d * d1 - r * a1 - r1 * a
    # <v1^2> >= 0, <(v-v1)^2> = vv - 2*vv1 + v1v1 >= 0, <v1, v-v1> = vv1 - v1v1 > 0
    if v1v1 < 0 or vv - 2 * vv1 + v1v1 < 0 or vv1 <= v1v1:
        return None
    if r * d1 == r1 * d and r * a1 == r1 * a and d * a1 == d1 * a:
        return None  # v1 in Q*v
    if r:
        denom = r * d1 - r1 * d
        if not denom:
            return VLine(Fraction(d, r))
        # center = y/(2n*denom); radius^2 = (d/r - center)^2 - <v^2>/(2n*r^2)
        # = (x^2 - 2n*<v^2>*denom^2) / (2n*r*denom)^2
        y = a1 * r - a * r1
        x = n2 * d * denom - r * y
        rad = x * x - n2 * vv * denom * denom
        if rad <= 0:
            return None
        return Circle(Fraction(y, n2 * denom), Fraction(rad, (n2 * r * denom) ** 2))
    # rank 0: <v^2> = 2n*d^2 > 0 forces d != 0, and every wall is a circle
    # around a/(2n*d) with radius^2 = (a/(2n*d) - d1/r1)^2 - <v1^2>/(2n*r1^2)
    if not r1:
        return None
    x = a * r1 - n2 * d * d1
    rad = x * x - n2 * d * d * v1v1
    if rad <= 0:
        return None
    return Circle(Fraction(a, n2 * d), Fraction(rad, (n2 * d * r1) ** 2))


def integral_triple(v: MukaiVector, ctx: Context) -> tuple[int, int, int]:
    """(r, d, a) of v as integers, for an integral v with <v^2> > 0."""
    if not v.is_integral:
        raise NonIntegral(f"{v} is not integral")
    vv = self_pairing(v, ctx)
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {vv} <= 0")
    return v.r, int(v.d), int(v.a)


def _mirror_vector(v: MukaiVector) -> MukaiVector:
    return MukaiVector(v.r, -v.d, v.a)


def _mirror_wall(w: Wall) -> Wall:
    if isinstance(w.shape, VLine):
        shape: Shape = VLine(-w.shape.s0)
    else:
        shape = Circle(-w.shape.center, w.shape.radius_sq)
    return Wall(shape, _mirror_vector(w.witness), w.label)


def _multiples(lo: int, hi: int, step: int) -> range:
    """The integers k with lo <= k*step <= hi (step != 0)."""
    if step < 0:
        lo, hi, step = -hi, -lo, -step
    return range(-(-lo // step), hi // step + 1)


def enumerate_walls_on_line(v: MukaiVector, s0: RatLike, ctx: Context) -> list[Wall]:
    """The complete set of walls for v meeting the open ray {s0} x R_{>0}.

    Complete by the derivation in the module docstring; each candidate is
    validated through wall_between and the exact crossing test, so extra
    candidates are harmless.  The loops run on integers scaled by q^2,
    q = den(s0): j = q*D(v1), N = q^2*P and X = q^2*(r - r1)(A - A1).
    """
    r, d, a = integral_triple(v, ctx)
    s0 = Fraction(s0)
    n = ctx.n
    p, q = s0.numerator, s0.denominator
    qq = q * q
    Dq = d * q - r * p  # q*D(v)
    Aq = a * qq - 2 * n * d * p * q + n * r * p * p  # q^2*A(v)
    if Dq == 0:
        raise BadCrossSection(f"d_beta(v) = 0 at s = {s0}")
    if Dq < 0:
        mirrored = enumerate_walls_on_line(_mirror_vector(v), -s0, ctx)
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
        shape = wall_between(n, r, d, a, r1, d1, a1)
        if shape is None or isinstance(shape, VLine) or shape.t_sq_at(s0) <= 0:
            return
        v1 = MukaiVector(r1, d1, a1)
        prev = found.get(shape)
        if prev is None or witness_key(v1) < witness_key(prev.witness):
            found[shape] = Wall(shape, v1)

    for j in range(1, Dq):
        u2 = n * (Dq - j) ** 2  # q^2 * n*D(v - v1)^2: m2 = 0 at X = u2
        c1 = -j * p_inv % q  # residue of r1 mod q
        e1 = n * p * p * c1 % q  # residue of a1q = N/r1 mod q (a1 integral)
        classes = {c1, -c1 % q, e1, -e1 % q}  # of i = |r1| or |N/r1|
        for m1 in range(half):
            lo = u2 - (half - 1 - m1) * qq  # m2 <= <v^2>/2 - 1 - m1 at X = lo
            N = n * j * j - m1 * qq
            if N:
                # case 1: r1 != 0 divides N, A1 = P/r1; i = min(|r1|, |N/r1|) <= isqrt|N|
                sq = math.isqrt(abs(N))
                for res in classes:
                    for i in range(res or q, sq + 1, q):
                        if N % i:
                            continue
                        for r1 in {i, -i, N // i, -N // i}:
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


# ---------------------------------------------------------------------------
# codimension-0 family and wall sets


def _codim0_wall(pell: PellContext, m: int, u: MukaiVector) -> Wall:
    """C_m for m != 0: the wall of v = (1, 0, -l) that the m-th
    isotropic vector u = u_m defines, witnessed by u or -u, whichever has
    <w, v> > 0.  It meets the real axis at the slope abscissae d/r and
    l*d/a of u = (r, d, a) (see `slope_endpoints`)."""
    ell = pell.ell
    w = u if pairing(u, MukaiVector(1, 0, -ell), pell.lattice) > 0 else -u
    shape = wall_between(pell.n, 1, 0, -ell, w.r, int(w.d), int(w.a))
    if shape is None:
        raise InvariantViolation(f"(n,l)=({pell.n},{ell}): u_{m} = {u} defines no wall")
    return Wall(shape, w, label=m)


def codim0_walls(pell: PellContext, m_range: range) -> list[Wall]:
    """The labeled codimension-0 walls C_m: the t-axis for m = 0, otherwise
    the wall of the m-th isotropic vector u_m (see `_codim0_wall`)."""
    return [
        C0 if it.m == 0 else _codim0_wall(pell, it.m, u)
        for it, u, _ in isotropic_pairs(pell, m_range)
    ]


def is_codim0(w: Wall, pell: PellContext) -> Optional[int]:
    """Label m when w is the codimension-0 wall C_m, else None; exact and
    with no bound on |m|.

    C_m meets the real axis at the rational points b_m/(a_m*sqrt(n)) and
    l*a_m/(b_m*sqrt(n)), and b_m^2 - l*a_m^2 = +-1, so |n*e^2 - l| is
    1/a_m^2 at the first endpoint and l/b_m^2 = l/(l*a_m^2 +- 1) at the
    second: a_m^2 <= 1/|n*e^2 - l| + 1 at both (n*e^2 != l, as l*n is not
    a square).  A circle with irrational endpoints is no C_m.  The -m-th
    iterate negates b_m/a_m, so C_-m is C_m mirrored in s = 0 and
    a_{-m}^2 = a_m^2; and a_{k+1} = y*a_k + x*b_k > a_k for the generator
    (x, y).  So the orbit walk k = 1, 2, ... over m = -k, k ends once
    a_k^2, the rank of u_k, passes the bound and misses no label.  The one
    vertical wall is C_0 (see C0)."""
    if isinstance(w.shape, VLine):
        return 0 if w.shape.s0 == 0 else None
    r_sq = w.shape.radius_sq
    if not (is_perfect_square(r_sq.numerator) and is_perfect_square(r_sq.denominator)):
        return None
    rad = Fraction(math.isqrt(r_sq.numerator), math.isqrt(r_sq.denominator))
    ends = (w.shape.center - rad, w.shape.center + rad)
    bound = max(1 / abs(pell.n * e * e - pell.ell) for e in ends) + 1
    for it in orbit(pell, 1):
        u, _ = u_vectors(pell, it)
        if u.r > bound:
            return None
        c_k = _codim0_wall(pell, it.m, u)
        if w.shape == _mirror_wall(c_k).shape:
            return -it.m
        if w.shape == c_k.shape:
            return it.m


def cross_section(n: int, ell: int) -> tuple[Fraction, Optional[PellContext]]:
    """Where one enumeration sees every wall of (1, 0, -l) that matters,
    and the Pell group when there is one.

    Square case (l*n a perfect square, no group): the rational abscissa
    -sqrt(l/n), which every wall in s < 0 crosses.  Pell case: the
    abscissa lambda_0 = b_-1/(a_-1*sqrt(n)), an endpoint of C_-1.  Every
    wall strictly between C_0 (the t-axis) and C_-1 crosses the vertical
    line through lambda_0, so one exact enumeration there is complete.  It
    holds neither C_0, a vertical line, nor C_-1, which meets that line
    only at t = 0."""
    if is_perfect_square(ell * n):
        return -Fraction(math.isqrt(ell * n), n), None
    pell = solve_generator(n, ell)
    return pell.lambda_0(), pell


def wall_set(
    n: int, ell: int, m_range: range = range(0)
) -> tuple[list[Wall], Optional[PellContext]]:
    """The wall set of (1, 0, -l), deduplicated by shape and sorted, with
    the Pell group when there is one: the walls crossing the cross-section
    plus, in the square case, their mirrors in s > 0 and the t-axis C_0,
    a finite and complete set; in the Pell case, C_0, C_-1 and the labeled
    C_m for m in m_range."""
    ctx = Context(n)  # rejects n < 1 before the square route divides by n
    s0, pell = cross_section(n, ell)
    found = enumerate_walls_on_line(MukaiVector(1, 0, -ell), s0, ctx)
    if pell is None:
        found += [_mirror_wall(w) for w in found] + [C0]
    else:
        found += codim0_walls(pell, range(-1, 1)) + codim0_walls(pell, m_range)
    unique: dict[Shape, Wall] = {}
    for w in found:
        unique.setdefault(w.shape, w)
    return sort_walls(unique.values()), pell


# ---------------------------------------------------------------------------
# chamber classification


@dataclass(frozen=True)
class ChamberReport:
    kind: str  # "OnWall" | "Gieseker" | "DualGieseker" | "Bounded"
    wall: Optional[Wall] = None
    outer: Optional[Wall] = None
    inner: Optional[Wall] = None


def _on_wall(shape: Shape, pt: StabilityPoint) -> bool:
    if isinstance(shape, VLine):
        return pt.s == shape.s0
    return (pt.s - shape.center) ** 2 + pt.t_sq == shape.radius_sq


def _strictly_inside(shape: Shape, pt: StabilityPoint) -> bool:
    if isinstance(shape, VLine):
        return False
    return (pt.s - shape.center) ** 2 + pt.t_sq < shape.radius_sq


def _circle_inside_circle(inner: Circle, outer: Circle) -> bool:
    """For disjoint pencil circles: containment iff the center point lies
    strictly inside the outer disk."""
    return (inner.center - outer.center) ** 2 < outer.radius_sq


def classify_point(
    v: MukaiVector, pt: StabilityPoint, walls: Iterable[Wall], ctx: Context
) -> ChamberReport:
    """Chamber classification of pt against a computed wall set.

    Unbounded chambers split by the sign of d_{beta+sH}(v): positive gives
    the Gieseker side, otherwise the dual side.  Points strictly inside some
    circle get the nearest enclosing wall and, when present in the set, the
    largest wall nested immediately inside.
    """
    walls = sort_walls(walls)
    for w in walls:
        if _on_wall(w.shape, pt):
            return ChamberReport("OnWall", wall=w)
    enclosing = [w for w in walls if _strictly_inside(w.shape, pt)]
    if not enclosing:
        _, d_b, _ = beta_data(v, pt.s, ctx)
        kind = "Gieseker" if d_b > 0 else "DualGieseker"
        return ChamberReport(kind)
    outer = min(enclosing, key=lambda w: w.shape.radius_sq)
    nested = [
        w
        for w in walls
        if isinstance(w.shape, Circle)
        and w.shape != outer.shape
        and _circle_inside_circle(w.shape, outer.shape)
        and not _strictly_inside(w.shape, pt)
    ]
    inner = max(nested, key=lambda w: w.shape.radius_sq) if nested else None
    return ChamberReport("Bounded", outer=outer, inner=inner)


@dataclass(frozen=True)
class WMaxReport:
    wall: Wall
    lambda1: QnNumber
    lambda2: QnNumber


def w_max_report(walls: Iterable[Wall]) -> WMaxReport:
    """The outermost wall of (1, 0, -l) in the region r*s < d_beta, which is
    s < 0, and its real-axis abscissae; Fourier-Mukai transforms based
    outside [lambda1, lambda2] preserve Gieseker semistability."""
    left = [w for w in walls if isinstance(w.shape, Circle) and w.shape.center < 0]
    if not left:
        raise NoWalls("no walls on the r*s < d_beta side")
    top = max(left, key=lambda w: w.shape.radius_sq)
    lam1, lam2 = top.shape.endpoints()
    return WMaxReport(top, lam1, lam2)
