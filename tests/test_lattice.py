import random
from fractions import Fraction as F

import pytest

from paper_checks import beta_data, twist
from reference_kernel import proportional
from stabwalls.errors import NonIntegral
from stabwalls.jsonio import parse_vector
from stabwalls.lattice import Context, MukaiVector, RHO, UNIT, pairing, self_pairing

C1 = Context(1)


def test_pairing_known_values():
    v = MukaiVector(1, 0, -2)
    assert pairing(v, v, C1) == 4
    assert pairing(RHO, RHO, C1) == 0
    assert pairing(MukaiVector(1, -1, 1), MukaiVector(1, -2, 4), C1) == -1


def test_entries_are_integers():
    """An integral rational entry is stored as an int, and any other
    entry raises NonIntegral, naming the entries as given."""
    for v in (MukaiVector(F(2), F(-6, 3), F(0)), parse_vector(" 2, -4/2 ,0/5")):
        assert v == MukaiVector(2, -2, 0) and hash(v) == hash(MukaiVector(2, -2, 0))
        assert [type(x) for x in (v.r, v.d, v.a)] == [int, int, int]
    for build, text in (
        (lambda: MukaiVector(1, F(1, 2), 0), "1,1/2,0"),
        (lambda: MukaiVector(F(1, 3), 0, 0), "1/3,0,0"),
        (lambda: MukaiVector(0, F(4, 2), F(-5, 2)), "0,2,-5/2"),
        (lambda: parse_vector("1,1/2,4/2"), "1,1/2,2"),
    ):
        with pytest.raises(NonIntegral) as err:
            build()
        assert str(err.value) == f"{text} is not integral"


def test_twist_examples():
    assert twist(MukaiVector(1, 0, -3), 2, C1) == (1, 2, 1)
    assert twist(RHO, F(7, 3), C1) == (0, 0, 1)
    w = twist(MukaiVector(1, 0, -2), -2, C1)
    assert w == (1, -2, 2)
    assert self_pairing(w, C1) == 4


def test_beta_data_examples():
    assert beta_data(MukaiVector(1, 0, -3), 0, C1) == (1, 0, -3)
    assert beta_data(MukaiVector(1, 0, -3), -2, C1) == (1, 2, 1)
    assert beta_data(RHO, F(5, 7), C1) == (0, 0, 1)


def test_beta_data_sign_convention():
    # a_beta = -<v, e^{sH}> exactly
    rng = random.Random(7)
    for _ in range(100):
        v = MukaiVector(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        s = F(rng.randint(-6, 6), rng.randint(1, 4))
        n = rng.randint(1, 3)
        ctx = Context(n)
        _, _, a_b = beta_data(v, s, ctx)
        assert a_b == -pairing(v, twist(UNIT, s, ctx), ctx)


def _random_integral(rng, bound=9):
    return MukaiVector(
        rng.randint(-bound, bound), rng.randint(-bound, bound), rng.randint(-bound, bound)
    )


def test_randomized_invariants():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 3)
        ctx = Context(n)
        v, w = _random_integral(rng), _random_integral(rng)
        # twist composition and pairing invariance
        s1 = F(rng.randint(-5, 5), rng.randint(1, 3))
        s2 = F(rng.randint(-5, 5), rng.randint(1, 3))
        assert twist(twist(v, s1, ctx), s2, ctx) == twist(v, s1 + s2, ctx)
        assert pairing(twist(v, s1, ctx), twist(w, s1, ctx), ctx) == pairing(v, w, ctx)
        # <v^2> is even
        assert self_pairing(v, ctx) % 2 == 0


def test_proportional():
    assert proportional(MukaiVector(2, 4, -6), MukaiVector(1, 2, -3))
    assert not proportional(MukaiVector(1, 0, -2), MukaiVector(1, 0, -3))
    assert proportional(MukaiVector(0, 0, 0), UNIT)
