"""Wall construction, complete enumeration on a rational cross-section,
codimension-0 detection, wall sets and chamber classification.

All geometry is exact: a wall is a circle (rational center, rational
radius^2) or a vertical line in the (s, t) half-plane, and every predicate
is decided in Q.  A shape holds the lowest-terms integers that the wall
test `wall_between` computes, (cn, cd, rn, rd) for a circle and (sn, sd)
for a line, and a wall's witness is an integer triple (r, d, a).  Sorting
(`sort_walls`, by an exact integer key), mirroring and the chamber
classification cross-multiply those integers.  A class v is a
`MukaiVector`, integral by type; Fractions appear only at the edges: the
cross-section, a classified point, and the Fraction views `Circle.center`
and `Circle.radius_sq` that `w_max_report` reads once.
The walls of (1, 0, -l) are C_0 and the pencil radius^2 = center^2 - l/n:
`classify_point` compares each with the pencil circle through the point,
and `w_max_report` takes the circle with the most negative center.

Completeness of `enumerate_walls_on_line` (why the search space is finite):
write D(w), A(w) for the twisted d- and a-components of w at base s0*H,
D = D(v) != 0.  A witness v1 of a wall crossing {s0} x R_{>0}
satisfies m1 = <v1^2>/2 >= 0, m2 = <(v-v1)^2>/2 >= 0, k = <v1, v-v1> >= 1
with m1 + m2 + k = <v^2>/2.  At the crossing point the three charges are
collinear and Z(v) != 0, so v1 = c*v + xi*kappa inside the plane
{Z = 0 at the point} + R*v, where kappa = (1, 0, n*t^2) spans the (negative)
kernel of Z there and c = D(v1)/D.  k >= 1 forces v1 and v - v1 into the
positive cone component of v (vectors of nonnegative square in opposite
components pair nonpositively), and the kernel line R*kappa is negative, so
c and 1 - c are both positive: D(v1) lies on the 1/q grid, s0 = p/q in
lowest terms, so D(v1) = j/q, and j/q lies strictly between 0 and D(v).
Every quantity below is an identity in j of either sign.  This is the
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
    r*(A - A1).  A1 = 0 leaves r1 = c1 + q*k, and q^2*a1 =
    n*p*(2*j + r1*p) makes a1 integral only when n*q*p*k = -n*(2*j + c1*p)
    (mod q^2): for no k unless gcd(n*q*p, q^2) divides the right side, and
    otherwise for one class of k mod q/gcd(n, q).  The bracket bounds
    (r - r1)*A, and A = 0 leaves no crossing, since Z(v1) and Z(v) are
    collinear at height t exactly when n*t^2*(r1*D - r*D1) = A1*D - A*D1,
    and with A = A1 = 0 that forces r1*D = r*D1: v1 proportional to v.
The two-sided bracket 0 <= m2 = n*(D - D1)^2 - (r - r1)*(A - A1) <=
<v^2>/2 - 1 - m1 then filters every candidate exactly, and with it
<v1^2> >= 0, <(v-v1)^2> >= 0 and <v1, v-v1> >= 1 hold.  Whether the wall
of such a candidate crosses {s0} x R_{>0} is the sign of t^2 in the
identity above: with j = q*D1, a1q = q^2*A1, Dq = q*D and Aq = q^2*A,
q^4*n*t^2*(r1*D - r*D1)^2 = (a1q*Dq - Aq*j)*(r1*Dq - r*j), so the wall
crosses exactly when that product of integers is positive.  It is 0
for a vertical line or no wall (r1*D = r*D1, that is r*d1 = r1*d) and for
a wall that meets s = s0 only at t = 0; a positive one puts a point of
the wall at (s0, t), t > 0, so wall_between returns a circle that
crosses, and the kernel tests no crossing on its shape.  A(v) = 0 at a
rational s0 happens exactly on the Cor.-square abscissae of the
finite-wall (square) case, which must be enumerable, so only D(v) = 0
raises BadCrossSection.

The bracket and the sign test are one window on L := r*a1q + Aq*r1.  In
either case r1*a1q = N, so with T := N + r*Aq and u2 := n*(Dq - j)^2,
q^2*m2 = u2 - (T - L), and the bracket is
T - u2 <= L <= T - u2 + q^2*(<v^2>/2 - 1 - m1).  The sign product is
(a1q*Dq - Aq*j)*(r1*Dq - r*j) = Dq^2*N - Dq*j*L + r*Aq*j^2 with
Dq*j > 0, so t^2 > 0 is L <= (Dq^2*N + r*Aq*j^2 - 1) // (Dq*j).  A
candidate is one integer L tested against that window, and for P = 0 the
window bounds a1 (L = r*a1q) or r1 (L = Aq*r1) directly.  The window is
empty unless m1*|Dq| < |j|*<v^2>/2, so m1 stops below
ceil(j*<v^2>/2 / Dq):
  Dq^2*N + r*Aq*j^2 - Dq*j*(T - u2)
    = (Dq - j)*(Dq*N - r*Aq*j + n*Dq*j*(Dq - j))
    = (Dq - j)*q^2*(j*<v^2>/2 - Dq*m1),
by N = n*j^2 - m1*q^2 and n*Dq^2 - r*Aq = q^2*<v^2>/2; the lower end
passes the sign bound only if this is positive, and dividing by
Dq*(Dq - j) > 0 leaves m1 < j*<v^2>/2 / Dq.

Complement pairing: the conditions on v1 are symmetric in v1 and v - v1
(m1 and m2 swap, k stays), and both define the same wall.  D(v - v1) =
D - D1, so v - v1 sits at the grid index q*D - j: the pairing
j <-> q*D - j maps the open range between 0 and q*D onto itself.  So j
runs only over the half nearer 0, 0 < |j| <= |q*D|/2, the middle j of an
even q*D (which pairs with itself) included, and each accepted v1 offers
both v1 and v - v1 to the witness choice; every witness is one of the two
for some j of that half.  With the m1 bound, the cost is
sum_j ceil(|j|*<v^2>/2 / |q*D|), about |q*D| * <v^2>/16 pairs (j, m1)
instead of |q*D|/2 * <v^2>/2, each with the divisibility tests above;
wall_between runs once per candidate that passes the window and the
integrality of a1, so only on witnesses of walls that cross.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterable, NamedTuple, Optional, Union

from .errors import BadCrossSection, DegenerateV, InvariantViolation, NoWalls
from .lattice import Context, MukaiVector, self_pairing
from .charge import StabilityPoint
from .pell import PellContext, orbit, solve_generator
from .surd import QnNumber, RatLike, frac, is_perfect_square, sqrt_of_fraction


class Circle(NamedTuple):
    """The circle (s - cn/cd)^2 + t^2 = rn/rd: center and radius^2 in
    lowest terms with positive denominators, as `wall_between` returns
    them.  A Circle equals that integer tuple."""

    cn: int
    cd: int
    rn: int
    rd: int

    @property
    def center(self) -> Fraction:
        return Fraction(self.cn, self.cd)

    @property
    def radius_sq(self) -> Fraction:
        return Fraction(self.rn, self.rd)


class VLine(NamedTuple):
    """The vertical line s = sn/sd, in lowest terms with sd > 0."""

    sn: int
    sd: int


Shape = Union[Circle, VLine]


class Wall(NamedTuple):
    shape: Shape
    witness: tuple[int, int, int]  # (r, d, a) of the witness v1
    label: Optional[int] = None  # m when the wall is the codimension-0 C_m

    @property
    def codim0(self) -> bool:
        return self.label is not None


# C_0, the t-axis s = 0, witnessed by 1 = (1, 0, 0).  A vertical wall of v
# lies at s = d/r, so C_0 is the one vertical wall of (1, 0, -l).
C0 = Wall(VLine(0, 1), (1, 0, 0), label=0)


def exact_bits(max_den: int) -> int:
    """The least K with 2^K > 2*max_den^2.  Two distinct rationals with
    denominators at most max_den differ by at least 1/max_den^2, so
    floor(x * 2^K) = (num << K) // den orders them exactly, ties included:
    equal keys mean equal values."""
    return (2 * max_den * max_den).bit_length()


def sort_walls(walls: Iterable[Wall]) -> list[Wall]:
    """Vertical lines by abscissa, then circles by center and radius^2.

    The key (kind, floor(x * 2^K), floor(y * 2^K)), x the abscissa or
    center and y the radius^2 (0 for a line), with K = exact_bits of the
    largest denominator in the list, orders exactly as (kind, x, y) does,
    on ints alone: concentric rank-0 walls tie on x, and y decides."""
    walls = list(walls)
    # shape[1] is cd or sd, shape[-1] is rd or sd
    k = exact_bits(max((max(w.shape[1], w.shape[-1]) for w in walls), default=1))

    def key(w: Wall) -> tuple[int, int, int]:
        shape = w.shape
        if len(shape) == 2:
            return (0, (shape[0] << k) // shape[1], 0)
        cn, cd, rn, rd = shape
        return (1, (cn << k) // cd, (rn << k) // rd)

    return sorted(walls, key=key)


def witness_key(r: int, d: int, a: int) -> tuple:
    """Order in which a wall's witnesses (r, d, a) compete: smallest
    entries win.  The key ends with the witness itself."""
    return (abs(r), abs(d), abs(a), r, d, a)


IntShape = tuple[int, ...]  # (cn, cd, rn, rd) for a circle, (sn, sd) for a vertical line


def wall_between(n: int, r: int, d: int, a: int, r1: int, d1: int, a1: int) -> Optional[IntShape]:
    """The shape of the wall for v = (r, d, a) defined by v1 = (r1, d1, a1),
    on integers, or None when v1 defines none.  All six entries are
    integers and <v^2> > 0 (see integral_triple).

    v1 qualifies when <v1^2> >= 0, <(v-v1)^2> >= 0, <v1, v-v1> > 0 and the
    triples are not proportional; the locus is then a circle, a vertical
    line, or empty (radius^2 <= 0 gives None).  Every test runs on
    integers; radius^2 > 0 is cross-multiplied by the square of its
    denominator.  A circle comes back as (cn, cd, rn, rd): center cn/cd and
    radius^2 rn/rd in lowest terms with positive denominators; the line
    s = sn/sd as (sn, sd).  Equal walls give equal tuples, which equal the
    Circle or VLine of the wall.  The conditions are symmetric in v1 and
    v - v1, which give the same wall.
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
            return lowest_terms(d, r)
        # center = y/(2n*denom); radius^2 = (d/r - center)^2 - <v^2>/(2n*r^2)
        # = (x^2 - 2n*<v^2>*denom^2) / (2n*r*denom)^2
        y = a1 * r - a * r1
        x = n2 * d * denom - r * y
        rad = x * x - n2 * vv * denom * denom
        if rad <= 0:
            return None
        return lowest_terms(y, n2 * denom) + lowest_terms(rad, (n2 * r * denom) ** 2)
    # rank 0: <v^2> = 2n*d^2 > 0 forces d != 0, and every wall is a circle
    # around a/(2n*d) with radius^2 = (a/(2n*d) - d1/r1)^2 - <v1^2>/(2n*r1^2)
    if not r1:
        return None
    x = a * r1 - n2 * d * d1
    rad = x * x - n2 * d * d * v1v1
    if rad <= 0:
        return None
    return lowest_terms(a, n2 * d) + lowest_terms(rad, (n2 * d * r1) ** 2)


def lowest_terms(num: int, den: int) -> tuple[int, int]:
    """num/den (den != 0) in lowest terms with a positive denominator."""
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


def crosses(shape: IntShape, p: int, q: int) -> bool:
    """Whether an integer shape is a circle meeting the open ray
    {p/q} x R_{>0} (q > 0): t^2 = radius^2 - (p/q - center)^2 > 0,
    multiplied through by rd*(q*cd)^2."""
    if len(shape) == 2:
        return False
    cn, cd, rn, rd = shape
    return (p * cd - q * cn) ** 2 * rd < rn * (q * cd) ** 2


def build_walls(found: dict[IntShape, tuple]) -> list[Wall]:
    """The sorted Walls of a map from integer shapes to the witness_key of
    each one's witness; the witness is the key's last three entries."""
    return sort_walls(
        Wall(Circle(*shape) if len(shape) == 4 else VLine(*shape), key[3:])
        for shape, key in found.items()
    )


def integral_triple(v: MukaiVector, ctx: Context) -> tuple[int, int, int]:
    """(r, d, a) of v, for v with <v^2> > 0."""
    vv = self_pairing(v, ctx)
    if vv <= 0:
        raise DegenerateV(f"<v^2> = {vv} <= 0")
    return v.r, v.d, v.a


def _mirror_wall(w: Wall) -> Wall:
    """The circle w reflected in s = 0, witnessed by (r, -d, a)."""
    cn, cd, rn, rd = w.shape
    r, d, a = w.witness
    return Wall(Circle(-cn, cd, rn, rd), (r, -d, a), w.label)


def _multiples(lo: int, hi: int, step: int) -> range:
    """The integers k with lo <= k*step <= hi (step != 0)."""
    if step < 0:
        lo, hi, step = -hi, -lo, -step
    return range(-(-lo // step), hi // step + 1)


def enumerate_walls_on_line(v: MukaiVector, s0: RatLike, ctx: Context) -> list[Wall]:
    """The complete set of walls for v meeting the open ray {s0} x R_{>0}.

    Complete by the derivation in the module docstring, with j over the
    half of its range nearer 0 and m1 below ceil(j*<v^2>/2 / (q*D(v)));
    each candidate is validated by one window on L = r*a1q + Aq*r1, the
    m2 bracket cut by the integer sign of t^2 at s0, and only then handed
    to the integer wall test wall_between for its shape, so extra
    candidates are harmless.  The loops run on integers scaled by q^2,
    q = den(s0): j = q*D(v1), N = q^2*P and a1q = q^2*A(v1).  The cost is
    about |q*D(v)| * <v^2>/16 pairs (j, m1), a quarter of the
    |q*D(v)|/2 * <v^2>/2 that the half range of j holds.
    The walls are keyed by wall_between's integer shape, and their Walls
    are built once per wall, after the loops, from those integers.
    """
    r, d, a = integral_triple(v, ctx)
    s0 = frac(s0)
    n = ctx.n
    p, q = s0.numerator, s0.denominator
    qq = q * q
    Dq = d * q - r * p  # q*D(v)
    Aq = a * qq - 2 * n * d * p * q + n * r * p * p  # q^2*A(v)
    if Dq == 0:
        raise BadCrossSection(f"d_beta(v) = 0 at s = {s0}")
    half = n * d * d - r * a  # <v^2>/2
    p_inv = pow(p, -1, q)  # d(v1) = (j + r1*p)/q is integral iff r1 = -j*p_inv mod q
    found: dict[IntShape, tuple] = {}  # shape -> witness_key of its best witness yet

    def consider(r1: int, a1q: int, j: int):
        d1 = (j + r1 * p) // q  # exact: every caller's r1 is c1 mod q
        a1, rest = divmod(a1q + n * (2 * d1 * p * q - r1 * p * p), qq)
        if rest:
            return
        # the m2 bracket and t^2 > 0 leave a circle crossing {s0} x R_{>0}
        shape = wall_between(n, r, d, a, r1, d1, a1)
        # v - v1 witnesses the same wall from the paired grid index q*D(v) - j
        key = min(witness_key(r1, d1, a1), witness_key(r - r1, d - d1, a - a1))
        prev = found.get(shape)
        if prev is None or key < prev:
            found[shape] = key

    mid = abs(Dq) // 2  # j and Dq - j pair up; the middle j of an even Dq pairs with itself
    for j in range(1, mid + 1) if Dq > 0 else range(-mid, 0):
        u2 = n * (Dq - j) ** 2  # q^2 * n*D(v - v1)^2: m2 = 0 at L = T - u2
        c1 = -j * p_inv % q  # residue of r1 mod q
        e1 = n * p * p * c1 % q  # residue of a1q = N/r1 mod q (a1 integral)
        classes = {c1, -c1 % q, e1, -e1 % q}  # of i = |r1| or |N/r1|
        dj = Dq * j  # > 0
        sign_rest = r * Aq * j * j
        # the window on L is empty from m1 >= j*<v^2>/2 / (q*D) on
        for m1 in range(-(-j * half // Dq)):
            N = n * j * j - m1 * qq
            # the window on L = r*a1q + Aq*r1: the m2 bracket, then t^2 > 0
            low = N + r * Aq - u2
            high = min(low + (half - 1 - m1) * qq, (Dq * Dq * N + sign_rest - 1) // dj)
            if N:
                # case 1: r1 != 0 divides N, A1 = P/r1; i = min(|r1|, |N/r1|) <= isqrt|N|
                sq = math.isqrt(abs(N))
                for res in classes:
                    for i in range(res or q, sq + 1, q):
                        if N % i:
                            continue
                        for r1 in {i, -i, N // i, -N // i}:
                            if r1 % q == c1 and low <= r * (N // r1) + Aq * r1 <= high:
                                consider(r1, N // r1, j)
                continue
            # case 2, P = 0: the r1 = 0 family (q | j; two rank-0 vectors give no wall),
            # L = r*a1q with a1q = a1*q^2 - 2n*p*j
            if r and c1 == 0:
                shift = 2 * n * p * j * r
                for a1 in _multiples(low + shift, high + shift, r * qq):
                    consider(0, a1 * qq - 2 * n * p * j, j)
            # and the A1 = 0 family, L = Aq*r1 (A = 0 gives no crossing); with
            # r1 = c1 + q*k, q^2*a1 = n*p*(2j + r1*p) is a multiple of q^2 iff
            # n*q*p*k = -n*(2j + c1*p) mod q^2, one class of k mod q/gcd(n, q)
            if Aq:
                g = math.gcd(n * q * p, qq)
                rhs = -n * (2 * j + c1 * p)
                if rhs % g:
                    continue
                step = qq // g
                first = c1 + q * (rhs // g * pow(n * q * p // g, -1, step) % step)
                stride = q * step
                for k in _multiples(low - Aq * first, high - Aq * first, stride * Aq):
                    if first + stride * k:  # r1 = 0 belongs to the family above
                        consider(first + stride * k, 0, j)
    return build_walls(found)


# ---------------------------------------------------------------------------
# codimension-0 family and wall sets


def _codim0_shape(
    pell: PellContext, m: int, u: tuple[int, int, int]
) -> tuple[IntShape, tuple[int, int, int]]:
    """The integer shape of C_m for m != 0 and its witness: the wall of
    v = (1, 0, -l) that the m-th isotropic vector u = u_m defines,
    witnessed by u or -u, whichever has <w, v> = r*l - a > 0 for
    w = (r, d, a).  It meets the real axis at the slope abscissae d/r and
    l*d/a of u (see `slope_endpoints`)."""
    ell = pell.ell
    r, d, a = u if u[0] * ell - u[2] > 0 else (-u[0], -u[1], -u[2])
    shape = wall_between(pell.n, 1, 0, -ell, r, d, a)
    if shape is None:
        raise InvariantViolation(f"(n,l)=({pell.n},{ell}): u_{m} = {u} defines no wall")
    return shape, (r, d, a)


def codim0_walls(pell: PellContext, m_range: range) -> list[Wall]:
    """The labeled codimension-0 walls C_m for m in m_range, in one orbit
    walk: the t-axis for m = 0, otherwise the wall of the m-th isotropic
    vector u_m (see `_codim0_shape`)."""
    out = []
    for it in islice(orbit(pell, m_range.start), len(m_range)):
        if it.m == 0:
            out.append(C0)
            continue
        shape, witness = _codim0_shape(pell, it.m, it.u())
        out.append(Wall(Circle(*shape), witness, label=it.m))
    return out


def is_codim0(w: Wall, pell: PellContext) -> Optional[int]:
    """Label m when w is the codimension-0 wall C_m, else None; exact and
    with no bound on |m|.

    The walls of v = (1, 0, -l) form one pencil: radius^2 = center^2 - l/n
    (`wall_between` with r = 1, d = 0), so a circle off it is no C_m, and on
    it the center fixes the circle.  C_k meets the real axis at
    +-P_k/sqrt(n) and +-Q_k/sqrt(n) with Q_k = l/P_k, and P_k increases
    towards sqrt(l) (see the slope intervals in `pell`), so
    |center(C_k)| = (P_k + l/P_k)/(2*sqrt(n)) strictly decreases in k;
    C_-k is C_k mirrored in s = 0.  The walk k = 1, 2, ... stops once
    |center(C_k)| < |center(w)|.  It ends: radius^2 > 0 puts |center(w)|
    above sqrt(l/n), the limit of the centers.  The one vertical wall is
    C_0 (see C0).  The walk compares integer shapes, and centers
    cross-multiplied."""
    shape = w.shape
    if isinstance(shape, VLine):
        return 0 if shape.sn == 0 else None
    cn, cd, rn, rd = shape
    # radius^2 = center^2 - l/n, times n*cd^2*rd
    if rn <= 0 or rn * pell.n * cd * cd != (cn * cn * pell.n - pell.ell * cd * cd) * rd:
        return None
    mirror = (-cn, cd, rn, rd)
    for it in orbit(pell, 1):
        c_k, _ = _codim0_shape(pell, it.m, it.u())
        if abs(c_k[0]) * cd < abs(cn) * c_k[1]:
            return None
        if c_k == mirror:
            return -it.m
        if c_k == shape:
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
) -> tuple[list[Wall], Fraction, Optional[PellContext]]:
    """The wall set of (1, 0, -l), sorted, with the cross-section s0 it
    enumerated at and the Pell group when there is one: the walls crossing
    s0 plus, in the square case, their mirrors in s > 0 and the t-axis
    C_0, a finite and complete set; in the Pell case, C_0, C_-1 and the
    labeled C_m for m in m_range.  No shape occurs twice: the enumeration
    keys its walls by shape, and they are pencil circles
    (radius^2 = center^2 - l/n) on the side of s = 0 of their center, so in
    the square case their mirrors lie in s > 0, and in the Pell case they
    lie strictly between C_0 and C_-1, apart from the disjoint label walks."""
    ctx = Context(n)  # rejects n < 1 before the square route divides by n
    s0, pell = cross_section(n, ell)
    found = enumerate_walls_on_line(MukaiVector(1, 0, -ell), s0, ctx)
    if pell is None:
        # found is sorted and its pencil circles have distinct centers, all
        # in s < 0: C_0, found, then the mirrors in reverse is the sorted set
        return [C0] + found + [_mirror_wall(w) for w in reversed(found)], s0, pell
    # C_-1, C_0 and the C_m of m_range in one walk, or in two when other
    # labels lie between them
    walks = [range(-1, 1)]
    if m_range.start > 1 or m_range.stop < -1:
        walks.append(m_range)
    elif m_range:
        walks = [range(min(m_range.start, -1), max(m_range.stop, 1))]
    for labels in walks:
        found += codim0_walls(pell, labels)
    return sort_walls(found), s0, pell


# ---------------------------------------------------------------------------
# chamber classification


@dataclass(frozen=True)
class ChamberReport:
    kind: str  # "OnWall" | "Gieseker" | "DualGieseker" | "Bounded"
    wall: Optional[Wall] = None
    outer: Optional[Wall] = None
    inner: Optional[Wall] = None


def classify_point(
    v: MukaiVector, pt: StabilityPoint, walls: Iterable[Wall], ctx: Context
) -> ChamberReport:
    """Chamber classification of pt = (s, t) against a wall set of
    v = (1, 0, -l), the class of `cmd_classify`.

    The walls are C_0 (s = 0) and circles of the pencil
    radius^2 = center^2 - l/n, and (s - c)^2 + t^2 - radius^2 = 2*s*(x - c)
    for x = (s^2 + t^2 + l/n)/(2*s), the center of the pencil circle
    through pt.  So a circle on pt's side of s = 0 holds pt, or encloses
    it, as s*(c - x) is 0 or positive.  The outer wall is the enclosing
    circle with center nearest x, the inner wall the other circle on pt's
    side with center nearest x.  With no enclosing circle the sign of
    d_beta(v) at beta = sH splits the unbounded chambers: positive is the
    Gieseker side, and d_beta(1, 0, -l) = -s.  All on integers:
    x = xn/xd, cross-multiplied.
    """
    (sp, sq), (tp, tq) = pt.s.as_integer_ratio(), pt.t_sq.as_integer_ratio()
    n, ell = ctx.n, -v.a
    xn = n * tq * sp * sp + n * sq * sq * tp + ell * sq * sq * tq
    xd = 2 * n * sq * tq * sp  # the sign of s, so cn*xd - xn*cd is cd*xd*(c - x)
    outer = inner = None
    for w in walls:
        shape = w.shape
        if isinstance(shape, VLine):
            if sp * shape.sd == shape.sn * sq:
                return ChamberReport("OnWall", wall=w)
            continue
        cn, cd = shape.cn, shape.cd
        if cn * sp <= 0:
            continue  # the other side of s = 0
        power = cn * xd - xn * cd
        if power > 0 and (outer is None or abs(cn) * outer.shape.cd < abs(outer.shape.cn) * cd):
            outer = w
        elif power < 0 and (inner is None or abs(cn) * inner.shape.cd > abs(inner.shape.cn) * cd):
            inner = w
        elif power == 0:
            return ChamberReport("OnWall", wall=w)
    if outer is None:
        return ChamberReport("Gieseker" if sp < 0 else "DualGieseker")
    return ChamberReport("Bounded", outer=outer, inner=inner)


@dataclass(frozen=True)
class WMaxReport:
    wall: Wall
    lambda1: QnNumber
    lambda2: QnNumber


def w_max_report(walls: Iterable[Wall]) -> WMaxReport:
    """The outermost wall of (1, 0, -l) in the region r*s < d_beta, which is
    s < 0, and its real-axis abscissae; Fourier-Mukai transforms based
    outside [lambda1, lambda2] preserve Gieseker semistability.  The walls
    there are pencil circles, radius^2 = center^2 - l/n, so the outermost
    is the first one with the most negative center."""
    left = [w for w in walls if isinstance(w.shape, Circle) and w.shape.cn < 0]
    if not left:
        raise NoWalls("no walls on the r*s < d_beta side")
    top = min(left, key=lambda w: w.shape.center)
    c, rad = top.shape.center, sqrt_of_fraction(top.shape.radius_sq)
    return WMaxReport(top, QnNumber(c, -rad.coef, rad.rad), QnNumber(c, rad.coef, rad.rad))
