"""Deterministic SVG rendering of wall diagrams.

Byte-for-byte reproducible for a fixed configuration: walls are sorted,
coordinates come from exact rationals through a fixed-precision decimal
formatter, and no timestamps or environment data enter the output.  Only
the window is a Fraction; every wall is drawn from the integers of its
shape, with cross-multiplied window tests, an `isqrt` radius, and ticks
kept as reduced integer pairs, ordered by the exact key of `sort_walls`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional

from .jsonio import int_str, ratio_str
from .surd import exact_root
from .walls import VLine, Wall, exact_bits, lowest_terms, sort_walls

_SCALE = 120  # pixels per unit
_MARGIN = 40
_PREC = 3
_ROOT = 10**9  # a circle is drawn with radius isqrt(radius^2 * _ROOT^2) / _ROOT


def _fmt(num: int, den: int) -> str:
    """Fixed-precision decimal of the rational num/den, den > 0 (round half
    away from zero, deterministic).  Computed on num * 10^_PREC and den as
    they are: the quotient and the half test do not need lowest terms."""
    num *= 10**_PREC
    q, r = divmod(abs(num), den)
    if 2 * r >= den:
        q += 1
    text = int_str(q).zfill(_PREC + 1)
    return ("-" if num < 0 else "") + text[:-_PREC] + "." + text[-_PREC:]


def render(
    walls: Iterable[Wall],
    window: tuple[Fraction, Fraction, Fraction],
    title: Optional[str] = None,
) -> str:
    """SVG 1.1 document: the wall set clipped to the window, with axes and
    exact rational tick labels at circle endpoints and line abscissae.
    Walls entirely outside the window are omitted."""
    s_min, s_max, t_max = (Fraction(v) for v in window)
    an, ad = s_min.numerator, s_min.denominator
    bn, bd = s_max.numerator, s_max.denominator
    width = int((s_max - s_min) * _SCALE) + 2 * _MARGIN
    height = int(t_max * _SCALE) + 2 * _MARGIN
    # the canvas abscissa of s is s*_SCALE + x0, of t it is (t_max - t)*_SCALE + _MARGIN
    x0 = _MARGIN - s_min * _SCALE
    xn, xd = x0.numerator, x0.denominator

    def x(num: int, den: int) -> str:
        return _fmt(_SCALE * num * xd + xn * den, den * xd)

    y0 = t_max * _SCALE + _MARGIN
    top = _fmt(_MARGIN, 1)
    base = _fmt(y0.numerator, y0.denominator)
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{int_str(width)}" height="{int_str(height)}" '
        f'viewBox="0 0 {int_str(width)} {int_str(height)}">',
        f'<clipPath id="win"><rect x="{x(an, ad)}" y="{top}" '
        f'width="{_fmt((bn * ad - an * bd) * _SCALE, ad * bd)}" '
        f'height="{_fmt(t_max.numerator * _SCALE, t_max.denominator)}"/>'
        "</clipPath>",
    ]
    if title:
        parts.append(
            f'<text x="{_fmt(width, 2)}" y="20" text-anchor="middle" '
            f'font-family="serif" font-size="14">{title}</text>'
        )
    # axes
    parts.append(
        f'<line x1="{x(an, ad)}" y1="{base}" x2="{x(bn, bd)}" '
        f'y2="{base}" stroke="black" stroke-width="1"/>'
    )
    if an <= 0 <= bn:
        parts.append(
            f'<line x1="{x(0, 1)}" y1="{top}" '
            f'x2="{x(0, 1)}" y2="{base}" '
            f'stroke="black" stroke-width="0.5" stroke-dasharray="4 3"/>'
        )
    ticks: set[tuple[int, int]] = set()  # reduced (num, den) pairs
    for w in sort_walls(walls):
        shape = w.shape
        if isinstance(shape, VLine):
            sn, sd = shape
            if not (an * sd <= sn * ad and sn * bd <= bn * sd):
                continue
            parts.append(
                f'<line x1="{x(sn, sd)}" y1="{top}" '
                f'x2="{x(sn, sd)}" y2="{base}" '
                f'stroke="{_color(w)}" stroke-width="1.5" clip-path="url(#win)"/>'
            )
            ticks.add((sn, sd))
            continue
        cn, cd, rn, rd = shape
        rad = math.isqrt(rn * _ROOT * _ROOT // rd)  # radius about rad/_ROOT, rounded down
        # nothing visible at t > 0 when center + radius <= s_min or center - radius >= s_max
        lo, hi, at = cn * _ROOT - rad * cd, cn * _ROOT + rad * cd, cd * _ROOT
        if hi * ad <= an * at or lo * bd >= bn * at:
            continue
        parts.append(
            f'<circle cx="{x(cn, cd)}" cy="{base}" '
            f'r="{_fmt(rad * _SCALE, _ROOT)}" fill="none" stroke="{_color(w)}" '
            f'stroke-width="1.5" clip-path="url(#win)"/>'
        )
        root_n, root_d = exact_root(rn), exact_root(rd)
        if root_n is None or root_d is None:
            ticks.add((cn, cd))
        else:
            ticks.add(lowest_terms(cn * root_d - root_n * cd, cd * root_d))
            ticks.add(lowest_terms(cn * root_d + root_n * cd, cd * root_d))
    shown = [(n, d) for n, d in ticks if an * d <= n * ad and n * bd <= bn * d]
    k = exact_bits(max((d for _, d in shown), default=1))
    shown.sort(key=lambda t: (t[0] << k) // t[1])
    tick_lo, tick_hi, label_y = (_fmt(y0.numerator + c * y0.denominator, y0.denominator)
                                 for c in (-4, 4, 18))
    for n, d in shown:
        xt = x(n, d)
        parts.append(
            f'<line x1="{xt}" y1="{tick_lo}" x2="{xt}" '
            f'y2="{tick_hi}" stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xt}" y="{label_y}" text-anchor="middle" '
            f'font-family="serif" font-size="12">{ratio_str(n, d)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _color(w: Wall) -> str:
    return "#1f4e9c" if w.codim0 else "#b22222"
