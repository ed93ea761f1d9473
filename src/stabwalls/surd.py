"""Exact scalars: pure surds q*sqrt(m), the field Q(sqrt(n)), and complex
numbers over it.

Every comparison is exact (sign analysis and squaring), and nothing here
converts to floating point.  A `Surd` is the canonical record of a matrix
entry or an iterate, with no arithmetic of its own: the commands compute
on its integer coefficient and radicand, and compare the rational squares
of surds instead of the surds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

RatLike = Union[int, Fraction]


def squarefree_decompose(m: int) -> tuple[int, int]:
    """m = k^2 * d with d squarefree; returns (k, d). m must be positive.
    Trial division stops at p^3 > rest, whose primes are then at least p:
    at most two of them, so rest is a square or squarefree."""
    if m <= 0:
        raise ValueError("radicand must be positive")
    k, d = 1, 1
    rest = m
    p = 2
    while p * p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    root = math.isqrt(rest)
    if root * root == rest:
        return k * root, d
    return k, d * rest


def is_perfect_square(m: int) -> bool:
    return m >= 0 and math.isqrt(m) ** 2 == m


def exact_root(num: int, den: int = 1) -> Optional[int]:
    """sqrt(num/den) when it is an integer, else None (num >= 0, den >= 1)."""
    q, rem = divmod(num, den)
    root = math.isqrt(q)
    return root if rem == 0 and root * root == q else None


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """sqrt(x) for x >= 0 when it is rational (the lowest terms of x are
    squares), else None."""
    p, q = exact_root(x.numerator), exact_root(x.denominator)
    return None if p is None or q is None else Fraction(p, q)


def frac(x: RatLike) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Surd:
    """The real number coef * sqrt(rad), rad a positive squarefree integer.

    Canonical form: rad squarefree, coef == 0 implies rad == 1, and an
    integral coef is stored as an int.
    """

    coef: RatLike
    rad: int = 1

    def __init__(self, coef: RatLike, rad: int = 1):
        if type(coef) is not int:
            coef = frac(coef)
            if coef.denominator == 1:
                coef = coef.numerator
        k, d = squarefree_decompose(rad)
        coef *= k
        if coef == 0:
            d = 1
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "rad", d)

    @staticmethod
    def reduced(coef: int, rad: int) -> "Surd":
        """coef * sqrt(rad) for a rad already squarefree: the canonical form
        without factoring rad again."""
        out = object.__new__(Surd)
        object.__setattr__(out, "coef", coef)
        object.__setattr__(out, "rad", rad if coef else 1)
        return out

    def __str__(self):
        if self.rad == 1:
            return str(self.coef)
        if self.coef == 1:
            return f"sqrt({self.rad})"
        if self.coef == -1:
            return f"-sqrt({self.rad})"
        return f"{self.coef}*sqrt({self.rad})"

    __repr__ = __str__


def sqrt_of_fraction(x: Fraction) -> Surd:
    """Exact sqrt(x) for x >= 0 as a surd: sqrt(p/q) = sqrt(p*q)/q.

    A square p/q returns sqrt(p)/sqrt(q) at once: factoring p*q by trial
    division would stall on the huge squares of far codimension-0 radii."""
    if x < 0:
        raise ValueError("negative radicand")
    root = rational_sqrt(x)
    if root is not None:
        return Surd(root)
    return Surd(Fraction(1, x.denominator), x.numerator * x.denominator)


@dataclass(frozen=True)
class QnNumber:
    """u + v*sqrt(n), the scalar field for Moebius arithmetic.

    If n is a perfect square the field degenerates to Q: the constructor
    folds v*sqrt(n) into u rather than erroring.
    """

    u: Fraction
    v: Fraction
    n: int

    def __init__(self, u: RatLike, v: RatLike, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        u, v = frac(u), frac(v)
        root = math.isqrt(n)
        if root * root == n:
            u, v = u + v * root, Fraction(0)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "n", n)

    def _check(self, other: "QnNumber"):
        if self.n != other.n:
            raise ValueError("mixed Q(sqrt n) fields")

    def __add__(self, other: "QnNumber") -> "QnNumber":
        self._check(other)
        return QnNumber(self.u + other.u, self.v + other.v, self.n)

    def __sub__(self, other: "QnNumber") -> "QnNumber":
        self._check(other)
        return QnNumber(self.u - other.u, self.v - other.v, self.n)

    def __neg__(self) -> "QnNumber":
        return QnNumber(-self.u, -self.v, self.n)

    def __mul__(self, other) -> "QnNumber":
        if not isinstance(other, QnNumber):
            f = frac(other)
            return QnNumber(self.u * f, self.v * f, self.n)
        self._check(other)
        return QnNumber(
            self.u * other.u + self.n * self.v * other.v,
            self.u * other.v + self.v * other.u,
            self.n,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QnNumber":
        norm = self.u * self.u - self.n * self.v * self.v
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in Q(sqrt n)")
        return QnNumber(self.u / norm, -self.v / norm, self.n)

    def is_zero(self) -> bool:
        return self.u == 0 and self.v == 0

    def sign(self) -> int:
        """Exact sign of the real value u + v*sqrt(n)."""
        if self.v == 0:
            return (self.u > 0) - (self.u < 0)
        if self.u == 0:
            return (self.v > 0) - (self.v < 0)
        su = 1 if self.u > 0 else -1
        sv = 1 if self.v > 0 else -1
        if su == sv:
            return su
        # opposite signs: |u| vs |v|sqrt(n)
        lhs, rhs = self.u * self.u, self.n * self.v * self.v
        if lhs == rhs:
            return 0
        return su if lhs > rhs else sv

    def __str__(self):
        if self.v == 0:
            return str(self.u)
        return f"{self.u}+{self.v}*sqrt({self.n})"

    __repr__ = __str__


def qn_rat(u: RatLike, n: int) -> QnNumber:
    return QnNumber(u, 0, n)


@dataclass(frozen=True)
class QnComplex:
    """re + im*i with re, im in Q(sqrt n)."""

    re: QnNumber
    im: QnNumber

    def __post_init__(self):
        if self.re.n != self.im.n:
            raise ValueError("mixed fields in QnComplex")

    def __add__(self, other: "QnComplex") -> "QnComplex":
        return QnComplex(self.re + other.re, self.im + other.im)

    def __mul__(self, other) -> "QnComplex":
        if not isinstance(other, QnComplex):
            return QnComplex(self.re * other, self.im * other)
        return QnComplex(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm(self) -> QnNumber:
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "QnComplex":
        nrm = self.norm()
        if nrm.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(sqrt n)(i)")
        inv = nrm.inverse()
        return QnComplex(self.re * inv, -(self.im * inv))

    def __truediv__(self, other: "QnComplex") -> "QnComplex":
        return self * other.inverse()

    def __str__(self):
        return f"({self.re})+({self.im})*i"

    __repr__ = __str__

