"""Independent brute-force cross-check of the wall enumeration.

It lives in the shipping package, not only in the tests, so CLI users can
request --verify runs; it may be exponentially slower than the main path.
It shares with the enumeration only `wall_between`, which it calls on every
vector of the box; that test decides on integers, and a seeded test in
`tests/test_walls.py` checks it against the earlier all-Fraction version.
"""

from __future__ import annotations

from fractions import Fraction

from .lattice import Context, MukaiVector
from .surd import RatLike
from .walls import Circle, Wall, sort_walls, wall_between, witness_key


def brute_walls(v: MukaiVector, s0: RatLike, bound: int, ctx: Context) -> list[Wall]:
    """Exhaustive scan of all integral v1 with |r1|, |d1|, |a1| <= bound
    through wall_between, keeping the walls that meet {s0} x R_{>0}."""
    s0 = Fraction(s0)
    found: dict[object, Wall] = {}
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                v1 = MukaiVector(r1, d1, a1)
                if v1.is_zero():
                    continue
                w = wall_between(v, v1, ctx)
                if w is None or not isinstance(w.shape, Circle):
                    continue
                if w.shape.t_sq_at(s0) <= 0:
                    continue
                prev = found.get(w.shape)
                if prev is None or witness_key(v1) < witness_key(prev.witness):
                    found[w.shape] = w
    return sort_walls(found.values())
