"""Independent brute-force cross-check of the wall enumeration.

It lives in the shipping package, not only in the tests, so CLI users can
request --verify runs; it may be exponentially slower than the main path.
It shares with the enumeration the integer wall test `wall_between`,
the witness order `witness_key` and `build_walls`, which turns the shapes
into Walls; none of its candidates comes from the enumeration's grid,
its complement pairing or its t^2 sign test.  It scans the box
|r1|, |d1|, |a1| <= bound, and for each (r1, d1) calls wall_between only
on the a1 where the wall test's three pairing conditions hold: each is
linear in a1, so together they cut an interval out of [-bound, bound].
Every other a1 of the box is one wall_between rejects.  The crossing is
tested on the integer shape with `crosses`.  Seeded tests check the wall
test against the earlier all-Fraction version (`tests/test_walls.py`) and
the oracle against the full-box scan it replaced (`tests/test_oracle.py`).
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Context, MukaiVector
from .surd import RatLike
from .walls import Wall, build_walls, crosses, integral_triple, wall_between, witness_key


def brute_walls(v: MukaiVector, s0: RatLike, bound: int, ctx: Context) -> list[Wall]:
    """Exhaustive scan of all integral v1 with |r1|, |d1|, |a1| <= bound
    that pass wall_between's pairing tests, keeping the walls that meet
    {s0} x R_{>0}; v is integral with <v^2> > 0.  Shapes and witnesses
    stay integers until the scan ends, and the Walls are built once per
    wall."""
    r, d, a = integral_triple(v, ctx)
    s0 = Fraction(s0)
    p, q = s0.numerator, s0.denominator
    n = ctx.n
    found: dict[tuple, tuple] = {}  # shape -> witness_key of its best witness yet
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            # wall_between's pairing tests, each c0 + c1*a1 >= 0: <v1^2>/2,
            # <(v-v1)^2>/2 and <v1, v-v1> - 1 (it is > 0 on integers), which
            # is -1 at v1 = 0
            lo, hi = -bound, bound
            for c0, c1 in (
                (n * d1 * d1, -r1),
                (n * (d - d1) ** 2 - (r - r1) * a, r - r1),
                (2 * n * d1 * (d - d1) - r1 * a - 1, 2 * r1 - r),
            ):
                if c1 > 0:
                    lo = max(lo, -(c0 // c1))  # ceil(-c0/c1)
                elif c1 < 0:
                    hi = min(hi, c0 // -c1)
                elif c0 < 0:
                    hi = lo - 1
            for a1 in range(lo, hi + 1):
                shape = wall_between(n, r, d, a, r1, d1, a1)
                if shape is None or not crosses(shape, p, q):
                    continue
                key = witness_key(r1, d1, a1)
                prev = found.get(shape)
                if prev is None or key < prev:
                    found[shape] = key
    return build_walls(found)
