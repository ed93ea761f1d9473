"""The three benchmark workloads, as rounds of CLI queries.

A round is a fixed list of queries; a run repeats whole rounds.  The ladders
are fixed; only the sampled parts of `pell-orbit` (classify points, interval
slopes, act/mobius inputs) depend on the seed, and they are drawn per slot
from strata of fixed size (a fixed label, digit count or generator power),
so their cost does not depend on the seed.  Every query carries a checker
from `checks`, which never looks at a stored copy of an earlier answer.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Optional

import checks

SCAN_BOUND = 10  # witness entries searched by the completeness scan


@dataclass
class Query:
    qid: str
    argv: list
    check: Callable  # (parsed answer) -> reason or None
    ladder_l: Optional[int] = None  # n = 1 ladder entry counted by frontier_l
    svg: Optional[str] = None  # file the query writes


class Context:
    """What the checkers of one run share: Pell data, bounded scans, the
    checked wall listings that verify answers are judged against, and the
    first render of each SVG."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self._pell = {}
        self._scans = {}
        self.listings = {}
        self.svgs = {}

    def pell(self, n, ell):
        if (n, ell) not in self._pell:
            self._pell[(n, ell)] = checks.PellData(n, ell)
        return self._pell[(n, ell)]

    def scan(self, n, v, s0, bound):
        key = (n, tuple(v), s0, bound)
        if key not in self._scans:
            self._scans[key] = checks.scan_walls(n, v, s0, bound)
        return self._scans[key]


def _is_square(k):
    return math.isqrt(k) ** 2 == k


def walls_ell(ctx, n, ell, extra=(), svg_name=None, ladder=False):
    argv = ["walls", "--n", str(n), "--ell", str(ell), *extra]
    svg = None
    if svg_name:
        svg = os.path.join(ctx.out_dir, svg_name)
        argv += ["--svg", svg]
    pd = None if _is_square(n * ell) else ctx.pell(n, ell)

    def check(out):
        reason = checks.check_walls_ell(out, n, ell, range(-2, 3), pd, SCAN_BOUND, ctx.scan)
        if reason or not svg:
            return reason
        with open(svg) as fh:
            text = fh.read()
        key = (n, ell, tuple(extra))
        reason = checks.check_svg(text, out, ctx.svgs.get(key))
        ctx.svgs.setdefault(key, text)
        return reason

    tag = f"walls ({n},{ell})" + (f" svg {svg_name}" if svg_name else "")
    return Query(tag, argv, check, ladder_l=ell if ladder and n == 1 else None, svg=svg)


def walls_v(ctx, n, v, s0, verify=False, listing_for=None):
    """Explicit class on one cross-section; `listing_for` = (n, ell) makes
    the checked walls the listing that `verify --n --ell` is judged by."""
    argv = ["walls", "--n", str(n), "--v", ",".join(map(str, v)), f"--s0={s0}"]
    if verify:
        argv.append("--verify")

    def check(out):
        reason = checks.check_walls_v(out, n, v, s0, SCAN_BOUND, ctx.scan)
        if reason is None and listing_for:
            ctx.listings[listing_for] = [checks.shape_of_record(r) for r in out["walls"]]
        if reason is None and verify:
            reason = checks.check_verify_flag(out, n, v, s0, ctx.scan)
        return reason

    tag = f"walls ({n},v={','.join(map(str, v))},s0={s0})" + (" --verify" if verify else "")
    return Query(tag, argv, check)


def verify(ctx, n, ell):
    pd = None if _is_square(n * ell) else ctx.pell(n, ell)

    def check(out):
        return checks.check_verify(out, n, ell, pd, ctx.listings.get((n, ell)), ctx.scan)

    return Query(f"verify ({n},{ell})", ["verify", "--n", str(n), "--ell", str(ell)], check)


def cross_section(ctx, n, ell):
    if _is_square(n * ell):
        return -F(math.isqrt(n * ell), n)
    return ctx.pell(n, ell).cross_section()


def pell(ctx, n, ell, lo=-3, hi=3, ladder=False):
    pd = ctx.pell(n, ell)
    argv = ["pell", "--n", str(n), "--ell", str(ell), f"--m-range={lo}..{hi}"]
    return Query(
        f"pell ({n},{ell}) m={lo}..{hi}",
        argv,
        lambda out: checks.check_pell(out, n, ell, range(lo, hi + 1), pd),
        ladder_l=ell if ladder and n == 1 else None,
    )


def intervals(ctx, n, ell, lam, tag):
    pd = ctx.pell(n, ell)
    argv = ["intervals", "--n", str(n), "--ell", str(ell), f"--lambda={lam}"]
    return Query(f"intervals ({n},{ell}) {tag}", argv, lambda out: checks.check_intervals(out, lam, pd))


def classify(ctx, n, ell, m, u, m_range, tag):
    pd = ctx.pell(n, ell)
    s, t2 = checks.point_on(pd, m, u)
    argv = ["classify", "--n", str(n), "--ell", str(ell), f"--m-range=-{m_range}..{m_range}",
            f"--s={s}", f"--t2={t2}"]
    return Query(f"classify ({n},{ell}) on C_{m} {tag}", argv,
                 lambda out: checks.check_classify(out, n, ell, s, t2, m, pd))


def act(ctx, n, ell, k, v):
    pd = ctx.pell(n, ell)
    det = F(pd.eps) ** k
    argv = ["act", "--n", str(n), f"--g={pd.matrix_text(k)}", f"--v={','.join(map(str, v))}"]
    return Query(f"act ({n},{ell}) g^{k}", argv, lambda out: checks.check_act(out, n, v, det))


def mobius(ctx, n, ell, k, z):
    pd = ctx.pell(n, ell)
    (u1, v1), (u2, _) = z
    sign = "+" if v1 >= 0 else "-"
    text = f"{u1}{sign}{abs(v1)}*sqrt({n})+{u2}*i"
    argv = ["mobius", "--n", str(n), f"--g={pd.matrix_text(k)}", f"--z={text}"]
    return Query(f"mobius ({n},{ell}) g^{k}", argv, lambda out: checks.check_mobius(out, pd, k, z))


# ---------------------------------------------------------------------------


def walls_ladder(ctx, rng):
    """walls for n = 1 and every l in 1..22, then n = 2, 3, 5 of like size.
    (1,19), (1,21) and (1,22) run into the deadline today."""
    # stride order 5*l mod 23 puts (1,19), (1,21), (1,22) early, middle, late
    ladder = [walls_ell(ctx, 1, ell, ladder=True) for ell in sorted(range(1, 23), key=lambda l: 5 * l % 23)]
    # l = 2..13, less (3,9), (5,12): the same fault keeps those past the deadline
    others = [walls_ell(ctx, n, ell) for n, skip in ((2, ()), (3, (9,)), (5, (12,)))
              for ell in range(2, 14) if ell not in skip]
    return _spread(ladder, others)


def _spread(*lists):
    """Merge lists, each evenly spaced through the result, so that queries of
    every size are sampled all through a round's time.  An item that is a
    list stays together, in order."""
    keyed = [((i + 0.5) / len(lst), j, q) for j, lst in enumerate(lists) for i, q in enumerate(lst)]
    out = []
    for _, _, item in sorted(keyed, key=lambda k: k[:2]):
        out += item if isinstance(item, list) else [item]
    return out


def _near_root(rng, ell, digits, sign):
    """A rational within about 50 units of the last digit of sign*sqrt(l)."""
    scale = 10**digits
    return sign * F(math.isqrt(ell * scale * scale) + rng.randint(-50, 50), scale)


def _small_frac(rng):
    return F(rng.randint(-9, 9), rng.randint(1, 9))


# (n, l, label) of classify points; |m| <= 32 is where labels are searched.
# Many mid-cost slots keep the latency median inside a dense cluster.
CLASSIFY_SLOTS = tuple((1, 2, m) for m in (5, -7, 9, -12, 15, -18, 20, -23, 26, -29, 32)) + (
    (1, 3, -6), (1, 3, 9), (1, 3, -12), (1, 3, 15), (2, 3, 6), (2, 3, -8), (2, 3, 10),
    (2, 3, -12), (1, 7, -4), (1, 7, 5), (1, 7, -8))
# (n, l, digits, side) of interval slopes near the accumulation points
INTERVAL_SLOTS = ((1, 2, 80, 1), (1, 2, 40, -1), (1, 2, 20, 1), (1, 3, 40, 1), (1, 3, 20, -1),
                  (2, 3, 30, -1), (2, 3, 15, 1), (1, 5, 30, 1), (1, 7, 30, 1), (1, 13, 20, -1),
                  (3, 2, 20, 1), (3, 2, 30, -1))
# (n, l, power) of act inputs, and of mobius inputs (determinant +1)
ACT_SLOTS = ((1, 2, 5), (1, 2, -7), (2, 3, 3), (2, 3, -4), (1, 7, 2), (3, 2, 3), (1, 13, -2))
MOBIUS_SLOTS = ((1, 2, 2), (1, 2, -4), (2, 3, 2), (2, 3, -2), (3, 2, 3), (1, 7, -3))


def pell_orbit(ctx, rng):
    solves = [pell(ctx, 1, ell, ladder=True) for ell in (2, 13, 29, 61, 94, 109, 139)]
    solves += [pell(ctx, 1, 2, -100, 100), pell(ctx, 2, 3, -40, 40), pell(ctx, 3, 2, -30, 30)]
    slopes = []
    for n, ell, digits, side in INTERVAL_SLOTS:
        lam = _near_root(rng, ell, digits, side)
        slopes.append(intervals(ctx, n, ell, lam, f"{digits} digits {'+' if side > 0 else '-'}sqrt"))
    points = [classify(ctx, n, ell, m, F(rng.randint(1, 96), 97), abs(m), "seeded")
              for n, ell, m in CLASSIFY_SLOTS]
    # fixed: C_40 lies beyond the |m| <= 32 label search, a fault today
    points.append(classify(ctx, 1, 2, 40, F(1, 2), 40, "fixed"))
    actions = []
    for n, ell, k in ACT_SLOTS:
        v = (0, 0, 0)
        while v == (0, 0, 0):
            v = tuple(rng.randint(-9, 9) for _ in range(3))
        actions.append(act(ctx, n, ell, k, v))
    for n, ell, k in MOBIUS_SLOTS:
        z = ((_small_frac(rng), _small_frac(rng)), (F(rng.randint(1, 9), rng.randint(1, 9)), F(0)))
        actions.append(mobius(ctx, n, ell, k, z))
    return _spread(solves, slopes, points, actions)


def sections(ctx, rng):
    squares = [walls_ell(ctx, 1, k * k, ladder=True) for k in range(1, 13)]
    squares += [walls_ell(ctx, n, ell) for n, ell in ((4, 25), (2, 50), (3, 27))]
    # each SVG is rendered twice, so every run sees whether the bytes repeat
    renders = [walls_ell(ctx, 1, 100, ("--window=-21:0:11",), svg_name=f"l100-{name}.svg")
               for name in ("a", "b")]
    renders += [walls_ell(ctx, 2, 50, ("--window=-11:11:6",), svg_name=f"n2l50-{name}.svg")
                for name in ("a", "b")]
    # explicit cross-sections: A = 0 with rank >= 2, rank 0 (r = A = 0), A != 0
    explicit = [walls_v(ctx, n, v, F(s0)) for n, v, s0 in (
        (1, (2, 0, -8), -2), (1, (3, 0, -12), -2), (1, (4, 0, -16), -2), (1, (2, 0, -18), -3),
        (2, (2, 0, -16), -2), (3, (3, 0, -12), -1), (1, (2, 1, -4), -1), (1, (0, 4, 6), F(3, 4)),
        (1, (0, 6, 9), F(3, 4)), (1, (0, 5, 10), 1), (1, (0, 6, 12), 1), (1, (0, 5, 15), F(3, 2)),
        (2, (0, 3, 12), 1), (1, (2, 1, -3), -1), (1, (2, 1, -5), -1), (1, (2, 1, -7), -2),
        (1, (3, 1, -8), -2))]
    # verify, each after a checked listing of the same cross-section; the
    # (1,13) listing also runs --verify, whose verdict is a fault today
    verifies = []
    for n, ell in ((1, 13), (1, 3), (2, 3), (1, 16), (3, 5)):
        s0 = cross_section(ctx, n, ell)
        listing = walls_v(ctx, n, (1, 0, -ell), s0, verify=(n, ell) == (1, 13), listing_for=(n, ell))
        verifies.append([listing, verify(ctx, n, ell)])
    return _spread(squares, renders, explicit, verifies)


WORKLOADS = {"walls-ladder": walls_ladder, "pell-orbit": pell_orbit, "sections": sections}


def build(name, seed, out_dir):
    ctx = Context(out_dir)
    return WORKLOADS[name](ctx, random.Random(seed))
