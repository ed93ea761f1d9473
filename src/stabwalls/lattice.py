"""The algebraic Mukai lattice of an abelian surface with NS(X) = ZH.

A vector (r, d, a) means r + dH + a*rho, paired by
<v, w> = 2n*d_v*d_w - (r_v*a_w + r_w*a_v) where n = (H^2)/2.

The d-component is the integer H-coefficient; with Picard rank 1 the
component orthogonal to H is identically zero, so it is not modeled.  The
walls are cut out by lattice vectors, so a `MukaiVector` is integral: its
constructor stores an integral rational entry as an int and raises
NonIntegral on any other, and no other code tests integrality.  The twist
by e^{sH}, a change of base in the paper's proofs, makes rational vectors;
no command computes with one, and the tests keep it as a reference
(tests/paper_checks.py).  The module holds only the lattice: the text
"r,d,a" of a vector is read by `jsonio.parse_vector` and written by
`jsonio.vector_str`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonIntegral
from .surd import RatLike


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
    d: int
    a: int

    def __init__(self, r: RatLike, d: RatLike, a: RatLike):
        # an int is its own numerator, with denominator 1
        if r.denominator != 1 or d.denominator != 1 or a.denominator != 1:
            raise NonIntegral(f"{r},{d},{a} is not integral")
        object.__setattr__(self, "r", r.numerator)
        object.__setattr__(self, "d", d.numerator)
        object.__setattr__(self, "a", a.numerator)


RHO = MukaiVector(0, 0, 1)
UNIT = MukaiVector(1, 0, 0)


def pairing(v: MukaiVector, w: MukaiVector, ctx: Context) -> int:
    return 2 * ctx.n * v.d * w.d - (v.r * w.a + w.r * v.a)


def self_pairing(v: MukaiVector, ctx: Context) -> int:
    return pairing(v, v, ctx)
