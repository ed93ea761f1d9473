"""Central charges as exact polynomials in t^2, phases, alignment.

At the stability parameter (sH, tH) the charge of v is

    Z(t) = (-a_b + n*r*t^2) + i * (2n*d_b*t)

with (r, d_b, a_b) the components of v twisted to base sH.  Points carry
t^2, not t: every wall formula involves only t^2, which keeps all geometry
in Q.  Only `phase` converts to floating point.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ZeroCharge
from .lattice import Context, MukaiVector, beta_data
from .surd import RatLike, frac


@dataclass(frozen=True)
class ChargePoly:
    """Z(t) = (re0 + re2*t^2) + i*(im1*t)."""

    re0: Fraction
    re2: Fraction
    im1: Fraction

    def real_at(self, t_sq: Fraction) -> Fraction:
        return self.re0 + self.re2 * t_sq

    def imag_coeff(self) -> Fraction:
        """Coefficient of t in the imaginary part (t > 0, so its sign is
        the sign of Im Z)."""
        return self.im1

    def is_zero_at(self, t_sq: Fraction) -> bool:
        return self.real_at(t_sq) == 0 and self.im1 == 0

    def __add__(self, other: "ChargePoly") -> "ChargePoly":
        return ChargePoly(self.re0 + other.re0, self.re2 + other.re2, self.im1 + other.im1)


@dataclass(frozen=True)
class StabilityPoint:
    s: Fraction
    t_sq: Fraction

    def __init__(self, s: RatLike, t_sq: RatLike):
        s, t_sq = frac(s), frac(t_sq)
        if t_sq <= 0:
            raise ValueError("t^2 must be positive (upper half-plane)")
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "t_sq", t_sq)


def charge(v: MukaiVector, s: RatLike, ctx: Context) -> ChargePoly:
    r, d_b, a_b = beta_data(v, s, ctx)
    return ChargePoly(-a_b, Fraction(ctx.n * r), 2 * ctx.n * d_b)


def charge_at(v: MukaiVector, pt: StabilityPoint, ctx: Context) -> complex:
    """Floating-point value of Z at pt (diagnostic use)."""
    z = charge(v, pt.s, ctx)
    t = math.sqrt(float(pt.t_sq))
    return complex(float(z.real_at(pt.t_sq)), float(z.im1) * t)


def phase(v: MukaiVector, pt: StabilityPoint, ctx: Context) -> float:
    """phi in (-1, 1] with Z = |Z| e^{i*pi*phi}.

    Im > 0 gives phi in (0,1); Im = 0 gives 0 for Re > 0 and 1 for Re < 0.
    """
    z = charge(v, pt.s, ctx)
    re = z.real_at(pt.t_sq)
    if z.im1 == 0:
        if re == 0:
            raise ZeroCharge(f"Z({v}) = 0 at {pt}")
        return 0.0 if re > 0 else 1.0
    t = math.sqrt(float(pt.t_sq))
    return math.atan2(float(z.im1) * t, float(re)) / math.pi


def alignment_sign(v: MukaiVector, w: MukaiVector, pt: StabilityPoint, ctx: Context) -> int:
    """Exact sign of Im(Z(w) * conj(Z(v))) at pt.

    Positive iff phi(w) mod 2 lies in (phi(v), phi(v)+1).
    """
    zv = charge(v, pt.s, ctx)
    zw = charge(w, pt.s, ctx)
    # Im(zw conj zv) = t * [im1_w * Re(zv) - im1_v * Re(zw)], t > 0
    val = zw.im1 * zv.real_at(pt.t_sq) - zv.im1 * zw.real_at(pt.t_sq)
    return (val > 0) - (val < 0)


def aligned(v: MukaiVector, w: MukaiVector, pt: StabilityPoint, ctx: Context) -> bool:
    return alignment_sign(v, w, pt, ctx) == 0


class PhaseWindow(enum.Enum):
    ABOVE = "Above"
    ALIGNED = "Aligned"
    BELOW = "Below"


def phase_window(v: MukaiVector, w: MukaiVector, pt: StabilityPoint, ctx: Context) -> PhaseWindow:
    """Where phi(w) mod 2 sits relative to the open window (phi(v), phi(v)+1).

    ABOVE means inside the window; BELOW means inside the complementary
    window (phi(v)-1, phi(v)); ALIGNED means on the boundary (real
    proportionality of charges).  Combined with the sign of r*d_w - r_w*d_b
    this decides whether pt is surrounded by the wall circle of (v, w).
    """
    zv = charge(v, pt.s, ctx)
    zw = charge(w, pt.s, ctx)
    if zv.is_zero_at(pt.t_sq) or zw.is_zero_at(pt.t_sq):
        raise ZeroCharge("phase window needs nonzero charges")
    sgn = alignment_sign(v, w, pt, ctx)
    if sgn > 0:
        return PhaseWindow.ABOVE
    if sgn < 0:
        return PhaseWindow.BELOW
    return PhaseWindow.ALIGNED
