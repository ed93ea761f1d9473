"""The Pell generator solver as it stood before the continued-fraction-only
rewrite: a doubling brute force up to 10^6, a continued-fraction fallback
over the first eight unit powers, and a floating-point final sweep, with
ties broken by exact comparison of the squared unit values.  `iterate` is
the matching |m|-fold product.

Kept verbatim, test-only, as the reference that `pell.solve_generator`
and `pell.iterate` must match generator for generator.  The brute force
makes it slow for l with a large fundamental unit (l = 61, 94, 109, ...),
so tests feed it small cases.  It keeps its own copy of the Pell matrix
class P(x, y) = (y, l*x; x, y) that the package has since folded into
`pell.GMatrix`, with its product written on the surd products of
`paper_checks`, so the reference shares no product with the code it
checks; its contexts carry a `PellMatrix` generator and torsion, and
its iterates are its own `Iterate` record of two surds.

The slope-interval block at the end (`_Endpoint` through `interval_index`)
is the earlier interval code, also kept verbatim: surd endpoints with a
+-infinity sentinel, one piece table per sign of epsilon, and a probe of
m = 1, 0, 2, -1, ... that recomputes the endpoints at every probe.  It is
the reference for `paper_checks.in_interval` and `pell.interval_index`; its
`in_interval` takes the slope as a `Surd`, and its `iterate` calls resolve
to the reference `iterate` above, so it takes the contexts of the
reference `solve_generator`.

`divisor_generator` is the continued-fraction solver as it stood before
the divisor loop gave way to one gcd per unit: for eps and eps^2 it tries
every divisor pair r*s = n in ascending r, with `divisors` found by trial
division.  Kept with its own unit and root helpers, as the
reference that `pell.solve_generator` must match entry for entry.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from dataclasses import dataclass
from typing import Iterator, Optional

from stabwalls.errors import AccumulationPoint, IntegralityViolation, InvariantViolation, SquareCase
from paper_checks import surd_add, surd_compare, surd_float, surd_mul, surd_neg, surd_square
from stabwalls.pell import GMatrix, PellContext
from stabwalls.surd import Surd, is_perfect_square

_MAX_BRUTE = 10**6


@dataclass(frozen=True)
class Iterate:
    """(a_m, b_m) as surds."""

    m: int
    a: Surd
    b: Surd


@dataclass(frozen=True)
class PellMatrix:
    """P(x, y) = (y, l*x; x, y)."""

    x: Surd
    y: Surd
    ell: int

    def norm(self) -> Fraction:
        return surd_square(self.y) - self.ell * surd_square(self.x)

    def __mul__(self, other: "PellMatrix") -> "PellMatrix":
        if self.ell != other.ell:
            raise ValueError("mixed Pell groups")
        x = surd_add(surd_mul(self.x, other.y), surd_mul(self.y, other.x))
        y = surd_add(surd_mul(self.y, other.y), surd_mul(surd_mul(self.x, other.x), self.ell))
        return PellMatrix(x, y, self.ell)

    def __str__(self):
        return f"({self.y},{self.ell}*{self.x};{self.x},{self.y})"


def _unit_value_squared(g: PellMatrix) -> tuple[Fraction, Fraction]:
    """(y + x*sqrt(l))^2 = (y^2 + l*x^2) + 2*x*y*sqrt(l*n)-ish;
    returns (rational part, coefficient of sqrt(x.rad*y.rad*l))."""
    u = surd_square(g.y) + g.ell * surd_square(g.x)
    w = 2 * g.x.coef * g.y.coef
    return u, w


def _phi_less_than(g: PellMatrix, other: PellMatrix) -> bool:
    """Exact comparison of y + x*sqrt(l) for two members with positive
    entries, via squared values in Z + Z*sqrt(l*n)."""
    u1, w1 = _unit_value_squared(g)
    u2, w2 = _unit_value_squared(other)
    # both values positive, and both squares live in Z + Z*sqrt(l*n):
    # x.rad*y.rad times a square equals n, so the canonical radicands agree
    s1 = Surd(w1, g.x.rad * g.y.rad * g.ell)
    s2 = Surd(w2, other.x.rad * other.y.rad * other.ell)
    return surd_compare(Surd(u1 - u2), surd_add(s2, surd_neg(s1))) < 0


def divisors(k: int) -> list[int]:
    """The positive divisors of k >= 1, ascending."""
    out = []
    for i in range(1, math.isqrt(k) + 1):
        if k % i == 0:
            out.append(i)
            if i != k // i:
                out.append(k // i)
    return sorted(out)


def _divisor_pairs(n: int) -> Iterator[tuple[int, int]]:
    for r in range(1, n + 1):
        if n % r == 0:
            yield r, n // r


def _candidates_upto(n: int, ell: int, bound: int) -> list[PellMatrix]:
    out = []
    for r, s in _divisor_pairs(n):
        for a in range(1, bound + 1):
            base = ell * r * a * a
            for delta in (1, -1):
                t = base + delta
                if t <= 0 or t % s:
                    continue
                q, rem = t // s, t % s
                root = math.isqrt(q)
                if root * root == q:
                    b = root
                    if b >= 1:
                        out.append(PellMatrix(Surd(a, r), Surd(b, s), ell))
    return out


def _cf_sqrt_units(d: int) -> Iterator[tuple[int, int]]:
    """Units of Z[sqrt(d)]: yields (Y_k, X_k) with Y^2 - d*X^2 = +-1,
    k = 1, 2, ..., from the continued fraction of sqrt(d)."""
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise SquareCase(f"{d} is a perfect square")
    # fundamental solution from the CF convergents
    m, den, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    fund = None
    for _ in range(10**6):
        if h * h - d * k * k in (1, -1):
            fund = (h, k)
            break
        m = den * a - m
        den = (d - m * m) // den
        a = (a0 + m) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    if fund is None:  # pragma: no cover - CF always terminates
        raise RuntimeError("continued fraction did not terminate")
    y, x = fund
    cy, cx = y, x
    while True:
        yield cy, cx
        cy, cx = cy * y + d * cx * x, cy * x + cx * y


def _from_cf(n: int, ell: int) -> list[PellMatrix]:
    """Recover S_{n,l} members from units of Z[sqrt(l*n)]: the square of any
    member lies in Z[sqrt(l*n)], so scan unit powers U = Y + X*sqrt(l*n) and
    factor U = (b*sqrt(s) + a*sqrt(r*l))^2, i.e. 2ab = X, b^2*s + a^2*r*l = Y."""
    d = ell * n
    out = []
    for j, (y, x) in enumerate(_cf_sqrt_units(d)):
        if j >= 8:
            break
        for r, s in _divisor_pairs(n):
            # direct membership: U itself of shape b*sqrt(s) + a*sqrt(r*l)
            # only happens for (r, s) = (n, 1); covered by the square route too.
            if x % 2 == 0:
                half = x // 2
                for a in divisors(abs(half)) if half else []:
                    b, rem = divmod(abs(half), a)
                    if rem:
                        continue
                    if b * b * s + a * a * r * ell == y:
                        cand = PellMatrix(Surd(a, r), Surd(b, s), ell)
                        if cand.norm() in (1, -1):
                            out.append(cand)
        if out:
            break
    return out


def solve_generator(n: int, ell: int, brute_limit: int = _MAX_BRUTE) -> PellContext:
    """Generator of the Pell group with minimal y + x*sqrt(l) > 1.

    Bounded brute force with doubling; a continued-fraction solver for
    y^2 - l*n*x^2 = +-1 takes over past `brute_limit`.  For l = 1 the extra
    torsion element (0, 1; 1, 0) is reported alongside.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    if is_perfect_square(ell * n):
        raise SquareCase(f"sqrt({ell}*{n}) is an integer; the group is finite")
    found: list[PellMatrix] = []
    bound = 1024
    while not found:
        found = _candidates_upto(n, ell, bound)
        if found:
            break
        if bound >= brute_limit:
            found = _from_cf(n, ell)
            if not found:  # pragma: no cover - defensive
                raise RuntimeError(f"no generator found for (n,l)=({n},{ell})")
            break
        bound = min(2 * bound, brute_limit)
    best = found[0]
    for cand in found[1:]:
        if _phi_less_than(cand, best):
            best = cand
    # a smaller-phi solution could still hide at larger a with a smaller
    # radicand; a final sweep up to phi_min / sqrt(l) closes the gap
    phi_best = surd_float(best.y) + surd_float(best.x) * math.sqrt(ell)
    final_bound = int(phi_best / math.sqrt(ell)) + 2
    if final_bound > bound:
        for cand in _candidates_upto(n, ell, min(final_bound, brute_limit)):
            if _phi_less_than(cand, best):
                best = cand
    # cross-check (Dirichlet-unit argument): the square lands in Z[sqrt(l*n)]
    sq = best * best
    if not (sq.y.rad == 1 and sq.y.coef.denominator == 1 and sq.x.coef.denominator == 1):
        raise IntegralityViolation(f"square of the generator {best} leaves Z[sqrt({ell * n})]")
    eps = best.norm()
    if eps not in (1, -1):
        raise InvariantViolation(f"generator {best} has norm {eps}, not +-1")
    # the kernel of P(x,y) -> y + x*sqrt(l) is generated by (0,1;1,0) when l=1
    torsion = PellMatrix(Surd(1, 1), Surd(0), ell) if ell == 1 else None
    return PellContext(n, ell, best, int(eps), torsion)


def iterate(pell: PellContext, m: int) -> Iterate:
    """(a_m, b_m) with generator^m = (b_m, l*a_m; a_m, b_m)."""
    if m == 0:
        return Iterate(0, Surd(0), Surd(1))
    k = abs(m)
    acc = pell.generator
    for _ in range(k - 1):
        acc = acc * pell.generator
    a, b = acc.x, acc.y
    if m < 0:
        sign = pell.epsilon**k
        a, b = Surd(-sign * a.coef, a.rad), Surd(sign * b.coef, b.rad)
    return Iterate(m, a, b)


def _exact_root(num: int, den: int) -> Optional[int]:
    """sqrt(num/den) when it is an integer, else None (num >= 0, den >= 1)."""
    q, rem = divmod(num, den)
    root = math.isqrt(q)
    return root if rem == 0 and root * root == q else None


def divisor_generator(n: int, ell: int) -> PellContext:
    """Generator of the Pell group with minimal y + x*sqrt(l) > 1, as a
    `GMatrix`: phi(g)^2 is the fundamental unit eps of Z[sqrt(l*n)] or
    eps^2, eps first.  For each divisor pair r*s = n in ascending r and
    each delta = +-1, a unit Y + X*sqrt(l*n) is phi(g)^2 exactly when
    b^2*s = (Y + delta)/2, a^2*r*l = (Y - delta)/2 and 2ab = X; the first
    hit is taken.  For l = 1 the torsion (0, 1; 1, 0) is reported."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    d = ell * n
    if is_perfect_square(d):
        raise SquareCase(f"sqrt({ell}*{n}) is an integer; the group is finite")
    torsion = GMatrix(Surd(0), Surd(1), Surd(1), Surd(0)) if ell == 1 else None
    y1, x1 = next(_cf_sqrt_units(d))
    for big_y, big_x in ((y1, x1), (y1 * y1 + d * x1 * x1, 2 * y1 * x1)):
        if big_y % 2 == 0:
            continue
        for r in divisors(n):
            s = n // r
            for delta in (1, -1):
                b = _exact_root((big_y + delta) // 2, s)
                a = _exact_root((big_y - delta) // 2, r * ell)
                if a is not None and b is not None and 2 * a * b == big_x:
                    generator = GMatrix(Surd(b, s), Surd(ell * a, r), Surd(a, r), Surd(b, s))
                    return PellContext(n, ell, generator, delta, torsion)
    raise InvariantViolation(f"no generator found for (n,l)=({n},{ell})")


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
        return surd_compare(self.value, lam)


def _b_over_a(pell: PellContext, m: int, sign: int = 1) -> _Endpoint:
    it = iterate(pell, m)
    if it.a.coef == 0:
        return _Endpoint(None, sign)
    val = Surd(Fraction(sign) * it.b.coef / (it.a.coef * it.a.rad), it.a.rad * it.b.rad)
    return _Endpoint(val)


def _la_over_b(pell: PellContext, m: int, sign: int = 1) -> _Endpoint:
    it = iterate(pell, m)
    if it.b.coef == 0:  # pragma: no cover - b_m never vanishes
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
    if surd_square(lam_s) == pell.ell and lam_s.rad == 1:
        raise AccumulationPoint(f"lambda^2 = {pell.ell}")
    # probe m = 1, 0, 2, -1, 3, -2, ...; the intervals partition the line
    # minus +-sqrt(l), so some I_m holds lam and the probe ends
    for k in itertools.count(1):
        for m in (k, 1 - k):
            if in_interval(pell, lam_s, m, starred=False):
                return {"m": m, "starred": in_interval(pell, lam_s, m, starred=True)}

