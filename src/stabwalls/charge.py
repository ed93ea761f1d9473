"""Points of the stability half-plane.

At the stability parameter (sH, tH) the charge of v is

    Z(t) = (-a_b + n*r*t^2) + i * (2n*d_b*t)

with (r, d_b, a_b) the components of v * e^{-sH}, rational for an
integral v.  Points carry t^2, not t: every wall formula involves only
t^2, which keeps all geometry in Q.  The charges and phases themselves,
and the twist they rest on, are checked by the test suite
(tests/paper_checks.py); no command needs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .surd import RatLike, frac


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
