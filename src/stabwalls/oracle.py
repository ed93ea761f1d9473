"""Independent brute-force cross-check of the wall enumeration.

It lives in the shipping package, not only in the tests, so CLI users can
request --verify runs; it may be exponentially slower than the main path.
It shares with the enumeration only `wall_between`, the integer wall test,
which it calls on every vector of the box; a seeded test in
`tests/test_walls.py` checks that test against the earlier all-Fraction
version.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Context, MukaiVector
from .surd import RatLike
from .walls import Circle, Wall, integral_triple, sort_walls, wall_between, witness_key


def brute_walls(v: MukaiVector, s0: RatLike, bound: int, ctx: Context) -> list[Wall]:
    """Exhaustive scan of all integral v1 with |r1|, |d1|, |a1| <= bound
    through wall_between, keeping the walls that meet {s0} x R_{>0}; v is
    integral with <v^2> > 0.  A MukaiVector is built only for a hit."""
    r, d, a = integral_triple(v, ctx)
    s0 = Fraction(s0)
    found: dict[object, Wall] = {}
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                if not (r1 or d1 or a1):
                    continue
                shape = wall_between(ctx.n, r, d, a, r1, d1, a1)
                if not isinstance(shape, Circle) or shape.t_sq_at(s0) <= 0:
                    continue
                v1 = MukaiVector(r1, d1, a1)
                prev = found.get(shape)
                if prev is None or witness_key(v1) < witness_key(prev.witness):
                    found[shape] = Wall(shape, v1)
    return sort_walls(found.values())
