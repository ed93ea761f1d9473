"""The residue-class enumeration kernel returns exactly the walls, and the
witnesses, of the two earlier kernels kept in reference_kernel.py: the
five-branch kernel on small cross-sections, and the divisor-driven kernel
on the Pell cross-sections, where the residue classes mod q = den(s0)
decide which divisors are found."""

import math
import random
import sys
from fractions import Fraction as F

from paper_checks import beta_data
import reference_kernel
from reference_kernel import divisor_enumerate, reference_enumerate
from stabwalls.errors import BadCrossSection
from stabwalls.lattice import Context, MukaiVector, self_pairing
from stabwalls.surd import is_perfect_square
from stabwalls import walls as walls_mod
from stabwalls.walls import cross_section, crosses, enumerate_walls_on_line

# explicit cross-sections: A = 0 with rank >= 2, rank 0 with A = 0, A != 0
EXPLICIT = (
    (1, (2, 0, -8), -2), (1, (3, 0, -12), -2), (2, (2, 0, -16), -2), (3, (3, 0, -12), -1),
    (1, (0, 4, 6), F(3, 4)), (1, (0, 6, 9), F(3, 4)), (1, (0, 5, 10), 1), (2, (0, 3, 12), 1),
    (1, (2, 1, -3), -1), (1, (2, 1, -7), -2), (1, (3, 1, -8), -2),
)
S0 = (F(-2), F(-1), F(0), F(1), F(-1, 2), F(1, 3), F(-3, 2), F(2, 3), F(-5, 4))


def _cases():
    yield from EXPLICIT
    for n, sections in ((1, S0), (2, S0[:3])):
        for r in range(-1, 3):
            for d in range(-2, 3):
                for a in range(-4, 5, 2):
                    for s0 in sections:
                        yield n, (r, d, a), s0
    # the cross-sections that wall_set and verify use, square and Pell case
    for n, ell in ((1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3), (1, 9), (2, 2), (3, 2)):
        yield n, (1, 0, -ell), cross_section(n, ell)[0]


def _branches(v, s0, ctx):
    """The reference kernel's branches that this cross-section reaches,
    and "D < 0" when the kernel walks j over negative values."""
    r, D, A = beta_data(v, s0, ctx)  # mirroring negates D and keeps A
    sign = {"D < 0"} if D < 0 else set()
    D = abs(D)
    kind = "A != 0" if A else ("A = 0, r != 0" if r else "r = A = 0")
    q, half = s0.denominator, int(self_pairing(v, ctx)) // 2
    p_zero = any(
        ctx.n * j * j == m1 * q * q for j in range(int(D * q) + 1) for m1 in range(half)
    )
    return sign | {kind} | ({f"P = 0, {kind}"} if p_zero else set())


def test_kernel_matches_reference():
    reached = set()
    checked = 0
    for n, triple, s0 in _cases():
        ctx, v, s0 = Context(n), MukaiVector(*triple), F(s0)
        if self_pairing(v, ctx) <= 0:
            continue
        try:
            expected = reference_enumerate(v, s0, ctx)
        except BadCrossSection:
            continue
        got = enumerate_walls_on_line(v, s0, ctx)
        assert [(w.shape, w.witness) for w in got] == [
            (w.shape, w.witness) for w in expected
        ], (n, triple, s0)
        reached |= _branches(v, s0, ctx)
        checked += 1
    assert checked > 300
    assert reached >= {
        "A != 0", "A = 0, r != 0", "r = A = 0", "P = 0, A != 0", "P = 0, A = 0, r != 0", "D < 0"
    }


def test_kernel_matches_divisor_kernel_at_pell_cross_sections():
    """Every non-square (n, l) with n = 1 and l < 31, or n in {2, 3, 5, 6}
    and l < 19, at lambda_0: the cross-section that `walls` enumerates."""
    checked = 0
    for n, top in ((1, 31), (2, 19), (3, 19), (5, 19), (6, 19)):
        for ell in range(1, top):
            if is_perfect_square(n * ell):
                continue
            ctx, v = Context(n), MukaiVector(1, 0, -ell)
            s0 = cross_section(n, ell)[0]
            got = enumerate_walls_on_line(v, s0, ctx)
            expected = divisor_enumerate(v, s0, ctx)
            assert [(w.shape, w.witness) for w in got] == [
                (w.shape, w.witness) for w in expected
            ], (n, ell)
            checked += 1
    assert checked == 90


def _seeded_cases(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        triple = (rng.randint(-3, 3), rng.randint(-4, 4), rng.randint(-10, 10))
        yield n, triple, F(rng.randint(-9, 9), rng.randint(1, 5))


def test_every_kernel_candidate_crosses(monkeypatch):
    """The kernel calls wall_between only on candidates that pass the m2
    bracket and the t^2 sign test, and keeps its shape with no crossing
    test: each call must return a circle that meets {s0} x R_{>0}, on the
    cases above and on seeded classes and cross-sections."""
    shapes = []
    wall_between = walls_mod.wall_between

    def recorded(*args):
        shapes.append(wall_between(*args))
        return shapes[-1]

    monkeypatch.setattr(walls_mod, "wall_between", recorded)
    checked = {"cases": 0, "seeded": 0}
    for source, cases in (("cases", _cases()), ("seeded", _seeded_cases(450, 2323))):
        for n, triple, s0 in cases:
            ctx, v, s0 = Context(n), MukaiVector(*triple), F(s0)
            if self_pairing(v, ctx) <= 0:
                continue
            shapes.clear()
            try:
                enumerate_walls_on_line(v, s0, ctx)
            except BadCrossSection:
                continue
            for shape in shapes:
                assert shape is not None and crosses(shape, s0.numerator, s0.denominator), (
                    n, triple, s0, shape
                )
            checked[source] += 1
    assert checked["cases"] > 700 and checked["seeded"] >= 300, checked


def _pell_sections(limit: int):
    """The cases (n, v, lambda_0) of the non-square (n, l) with n*l < limit."""
    for n in range(1, limit):
        for ell in range(1, (limit - 1) // n + 1):
            if not is_perfect_square(n * ell):
                yield n, (1, 0, -ell), cross_section(n, ell)[0]


def _grid(n, triple, s0) -> int:
    """|q*D(v)| * <v^2>/2 at s0 = p/q, the size of the grid of pairs
    (j, m1) before the m1 bound; 0 when <v^2> <= 0 or D(v) = 0."""
    ctx, v, s0 = Context(n), MukaiVector(*triple), F(s0)
    _, D, _ = beta_data(v, s0, ctx)
    return max(0, int(abs(D) * s0.denominator * self_pairing(v, ctx) / 2))


def test_m1_bound_holds_for_every_reference_witness(monkeypatch):
    """The kernel stops its m1 loop at j*<v^2>/2 / (q*D(v)).  Checked here
    without it: every v1 whose wall the reference kernel finds crossing
    {s0} x R_{>0}, and its complement v - v1, has
    m1*|q*D(v)| < |j|*<v^2>/2 with j = q*D(v1) and m1 = <v1^2>/2.  The
    cases are seeded classes and cross-sections with a grid of at most 100
    pairs (j, m1), rank 0, D(v) < 0 and P = 0 rows among them, and the Pell
    lambda_0 of n*l < 200 with such a grid and a denominator of at most 3:
    the reference kernel's r1 ranges grow with the denominator, to over a
    minute at (59,1)'s lambda_0 = -69/530."""
    seen = []
    wall_between = reference_kernel.reference_wall_between

    def recorded(v, v1, ctx):
        w = wall_between(v, v1, ctx)
        seen.append((v1, w))
        return w

    monkeypatch.setattr(reference_kernel, "reference_wall_between", recorded)
    seeded = [case for case in _seeded_cases(450, 2424) if 0 < _grid(*case) <= 100]
    pell = [
        case for case in _pell_sections(200) if case[2].denominator <= 3 and _grid(*case) <= 100
    ]
    reached = set()
    witnesses = 0
    for n, triple, s0 in seeded + pell:
        ctx, v, s0 = Context(n), MukaiVector(*triple), F(s0)
        seen.clear()
        reference_enumerate(v, s0, ctx)
        r, d, a = triple
        if beta_data(v, s0, ctx)[1] < 0:
            # the reference enumerates the mirror (r, -d, a) at -s0 instead
            reached.add("D < 0")
            d, s0 = -d, -s0
        p, q = s0.numerator, s0.denominator
        Dq, half = q * d - r * p, n * d * d - r * a
        for v1, w in seen:
            if w is None or reference_kernel._crossing_t_sq(w, s0) is None:
                continue
            r1, d1, a1 = v1.r, int(v1.d), int(v1.a)
            for rw, dw, aw in ((r1, d1, a1), (r - r1, d - d1, a - a1)):
                j, m1 = q * dw - rw * p, n * dw * dw - rw * aw
                assert m1 * abs(Dq) < abs(j) * half, (n, triple, s0, (rw, dw, aw))
                reached |= {"rank 0"} if r == 0 else set()
                reached |= {"P = 0"} if n * j * j == m1 * q * q else set()
                witnesses += 1
    assert len(seeded) > 150 and len(pell) > 100 and witnesses > 3000, (
        len(seeded), len(pell), witnesses
    )
    assert reached == {"rank 0", "D < 0", "P = 0"}


def _isqrt_calls(fn, *args):
    """fn(*args) and the number of math.isqrt calls it made."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "c_call" and arg is math.isqrt:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, count


def test_kernel_stops_m1_at_the_bound():
    """The kernel takes one isqrt per grid pair (j, m1) with P != 0, and
    visits m1 only below ceil(|j|*<v^2>/2 / |q*D(v)|): 591 pairs instead
    of 2,154 at (1,22)'s lambda_0 = -197/42, 246 instead of 858 at
    (1,144)'s s0 = -12."""
    cases = [(1, (1, 0, -22), cross_section(1, 22)[0]), (1, (1, 0, -144), F(-12))]
    cases += [case for case in _pell_sections(60) if _grid(*case) <= 2000]
    cases += [case for case in _seeded_cases(200, 2525) if _grid(*case)]
    counts = {}
    for n, triple, s0 in cases:
        ctx, v, s0 = Context(n), MukaiVector(*triple), F(s0)
        r, d, a = triple
        Dq, half = s0.denominator * d - r * s0.numerator, n * d * d - r * a
        mid = abs(Dq) // 2
        bound = sum(-(-j * half // abs(Dq)) for j in range(1, mid + 1))
        _, calls = _isqrt_calls(enumerate_walls_on_line, v, s0, ctx)
        assert calls <= bound, (n, triple, s0, calls, bound)
        counts[(n, triple, s0)] = calls
    assert counts[(1, (1, 0, -22), F(-197, 42))] == 591
    assert counts[(1, (1, 0, -144), F(-12))] == 246
    assert len(counts) > 150
