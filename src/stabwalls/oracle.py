"""Independent brute-force cross-check of the wall enumeration.

It lives in the shipping package, not only in the tests, so CLI users can
request --verify runs; it may be exponentially slower than the main path.
It shares with the enumeration the integer wall test `wall_between`,
which it calls on every vector of the box, the crossing test `crosses`
on the integer shape it returns, the witness order `witness_key` and
`build_walls`, which turns the shapes into Walls; none of its candidates
comes from the enumeration's grid or its complement pairing.  A seeded
test in `tests/test_walls.py` checks the wall test against the earlier
all-Fraction version.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Context, MukaiVector
from .surd import RatLike
from .walls import Wall, build_walls, crosses, integral_triple, wall_between, witness_key


def brute_walls(v: MukaiVector, s0: RatLike, bound: int, ctx: Context) -> list[Wall]:
    """Exhaustive scan of all integral v1 with |r1|, |d1|, |a1| <= bound
    through wall_between, keeping the walls that meet {s0} x R_{>0}; v is
    integral with <v^2> > 0.  Shapes and witnesses stay integers until the
    scan ends, and the Walls are built once per wall."""
    r, d, a = integral_triple(v, ctx)
    s0 = Fraction(s0)
    p, q = s0.numerator, s0.denominator
    found: dict[tuple, tuple] = {}  # shape -> witness_key of its best witness yet
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                if not (r1 or d1 or a1):
                    continue
                shape = wall_between(ctx.n, r, d, a, r1, d1, a1)
                if shape is None or not crosses(shape, p, q):
                    continue
                key = witness_key(r1, d1, a1)
                prev = found.get(shape)
                if prev is None or key < prev:
                    found[shape] = key
    return build_walls(found)
