"""Deterministic SVG rendering of wall diagrams.

Byte-for-byte reproducible for a fixed configuration: walls are sorted,
coordinates come from exact rationals through a fixed-precision decimal
formatter, and no timestamps or environment data enter the output.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .jsonio import frac_str
from .surd import rational_sqrt
from .walls import VLine, Wall, rational_key, sort_walls

_SCALE = 120  # pixels per unit
_MARGIN = 40
_PREC = 3


def _fmt(x: Fraction) -> str:
    """Fixed-precision decimal of an exact rational (round half away from
    zero, deterministic).  Computed on num * 10^_PREC and den as they are:
    the quotient and the half test do not need lowest terms."""
    num = x.numerator * 10**_PREC
    den = x.denominator
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    text = f"{q:0{_PREC + 1}d}"
    return ("-" if num < 0 else "") + text[:-_PREC] + "." + text[-_PREC:]


class _Canvas:
    def __init__(self, s_min: Fraction, s_max: Fraction, t_max: Fraction):
        self.s_min, self.s_max, self.t_max = s_min, s_max, t_max
        self.width = int((s_max - s_min) * _SCALE) + 2 * _MARGIN
        self.height = int(t_max * _SCALE) + 2 * _MARGIN

    def x(self, s: Fraction) -> Fraction:
        return (s - self.s_min) * _SCALE + _MARGIN

    def y(self, t: Fraction) -> Fraction:
        return (self.t_max - t) * _SCALE + _MARGIN


def _sqrt_approx(x: Fraction, digits: int = 9) -> Fraction:
    """Rational lower approximation of sqrt(x >= 0) via integer isqrt."""
    scale = 10**digits
    return Fraction(math.isqrt(x.numerator * scale * scale // x.denominator), scale)


def render(
    walls: Iterable[Wall],
    window: tuple[Fraction, Fraction, Fraction],
    title: Optional[str] = None,
) -> str:
    """SVG 1.1 document: the wall set clipped to the window, with axes and
    exact rational tick labels at circle endpoints and line abscissae.
    Walls entirely outside the window are omitted."""
    s_min, s_max, t_max = (Fraction(v) for v in window)
    cv = _Canvas(s_min, s_max, t_max)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{cv.width}" height="{cv.height}" '
        f'viewBox="0 0 {cv.width} {cv.height}">',
        f'<clipPath id="win"><rect x="{_fmt(cv.x(s_min))}" y="{_fmt(cv.y(t_max))}" '
        f'width="{_fmt((s_max - s_min) * _SCALE)}" height="{_fmt(t_max * _SCALE)}"/>'
        "</clipPath>",
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(Fraction(cv.width, 2))}" y="20" text-anchor="middle" '
            f'font-family="serif" font-size="14">{title}</text>'
        )
    # axes
    y0 = cv.y(Fraction(0))
    parts.append(
        f'<line x1="{_fmt(cv.x(s_min))}" y1="{_fmt(y0)}" x2="{_fmt(cv.x(s_max))}" '
        f'y2="{_fmt(y0)}" stroke="black" stroke-width="1"/>'
    )
    if s_min <= 0 <= s_max:
        parts.append(
            f'<line x1="{_fmt(cv.x(Fraction(0)))}" y1="{_fmt(cv.y(t_max))}" '
            f'x2="{_fmt(cv.x(Fraction(0)))}" y2="{_fmt(y0)}" '
            f'stroke="black" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    ticks: list[Fraction] = []
    body: list[str] = []
    for w in sort_walls(walls):
        if isinstance(w.shape, VLine):
            s0 = w.shape.s0
            if not (s_min <= s0 <= s_max):
                continue
            body.append(
                f'<line x1="{_fmt(cv.x(s0))}" y1="{_fmt(cv.y(t_max))}" '
                f'x2="{_fmt(cv.x(s0))}" y2="{_fmt(y0)}" '
                f'stroke="{_color(w)}" stroke-width="1.5" clip-path="url(#win)"/>'
            )
            ticks.append(s0)
            continue
        radius = _sqrt_approx(w.shape.radius_sq)
        lo, hi = w.shape.center - radius, w.shape.center + radius
        if hi <= s_min or lo >= s_max:
            continue  # nothing visible at t > 0
        body.append(
            f'<circle cx="{_fmt(cv.x(w.shape.center))}" cy="{_fmt(y0)}" '
            f'r="{_fmt(radius * _SCALE)}" fill="none" stroke="{_color(w)}" '
            f'stroke-width="1.5" clip-path="url(#win)"/>'
        )
        rt = rational_sqrt(w.shape.radius_sq)
        if rt is not None:
            ticks.extend([w.shape.center - rt, w.shape.center + rt])
        else:
            ticks.append(w.shape.center)
    parts.extend(body)
    for tick in sorted({t for t in ticks if s_min <= t <= s_max}, key=rational_key):
        xt = cv.x(tick)
        parts.append(
            f'<line x1="{_fmt(xt)}" y1="{_fmt(y0 - 4)}" x2="{_fmt(xt)}" '
            f'y2="{_fmt(y0 + 4)}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_fmt(xt)}" y="{_fmt(y0 + 18)}" text-anchor="middle" '
            f'font-family="serif" font-size="12">{frac_str(tick)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color(w: Wall) -> str:
    return "#1f4e9c" if w.codim0 else "#b22222"
