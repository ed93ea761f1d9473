"""The algebraic Mukai lattice of an abelian surface with NS(X) = ZH.

A vector (r, d, a) means r + dH + a*rho, paired by
<v, w> = 2n*d_v*d_w - (r_v*a_w + r_w*a_v) where n = (H^2)/2.

The d-component is stored as the rational H-coefficient; with Picard rank 1
this is lossless and the component orthogonal to H is identically zero, so
it is not modeled.  Twisted vectors (rational d, a) are first-class values;
`is_integral` gates the operations that need honest lattice points.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surd import RatLike, frac


@dataclass(frozen=True)
class Context:
    """n = (H^2)/2 for the fixed polarization H."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")


@dataclass(frozen=True)
class MukaiVector:
    r: int
    d: Fraction
    a: Fraction

    def __init__(self, r: int, d: RatLike, a: RatLike):
        object.__setattr__(self, "r", int(r))
        object.__setattr__(self, "d", frac(d))
        object.__setattr__(self, "a", frac(a))

    @property
    def is_integral(self) -> bool:
        return self.d.denominator == 1 and self.a.denominator == 1

    def __str__(self):
        return f"{self.r},{self.d},{self.a}"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "MukaiVector":
        parts = text.split(",")
        if len(parts) != 3:
            raise ValueError(f"expected 'r,d,a', got {text!r}")
        r = Fraction(parts[0].strip())
        if r.denominator != 1:
            raise ValueError("rank must be an integer")
        return MukaiVector(int(r), Fraction(parts[1].strip()), Fraction(parts[2].strip()))


RHO = MukaiVector(0, 0, 1)
UNIT = MukaiVector(1, 0, 0)


def pairing(v: MukaiVector, w: MukaiVector, ctx: Context) -> Fraction:
    return 2 * ctx.n * v.d * w.d - (v.r * w.a + w.r * v.a)


def self_pairing(v: MukaiVector, ctx: Context) -> Fraction:
    return pairing(v, v, ctx)


def twist(v: MukaiVector, s: RatLike, ctx: Context) -> MukaiVector:
    """v * e^{sH}: the pairing-preserving twist."""
    s = frac(s)
    n = ctx.n
    return MukaiVector(v.r, v.d + v.r * s, v.a + 2 * n * v.d * s + n * v.r * s * s)


def beta_data(v: MukaiVector, s: RatLike, ctx: Context) -> tuple[int, Fraction, Fraction]:
    """(r_b, d_b, a_b) of v at beta = sH, the components of v * e^{-sH}:
    r, d - r*s, a - 2n*d*s + n*r*s^2."""
    w = twist(v, -frac(s), ctx)
    return (w.r, w.d, w.a)

