import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from paper_checks import (
    MixedRadicand,
    qnc_rat,
    surd_add,
    surd_as_fraction,
    surd_compare,
    surd_float,
    surd_mul,
    surd_square,
)
from stabwalls.surd import QnComplex, QnNumber, Surd, squarefree_decompose, sqrt_of_fraction


def test_squarefree_decompose():
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(12) == (2, 3)
    assert squarefree_decompose(49) == (7, 1)
    assert squarefree_decompose(360) == (6, 10)


def _full_trial_division(m: int) -> tuple[int, int]:
    """(k, d) with m = k^2 * d, d squarefree, by trial division while
    p^2 <= rest: the reference for the cube-root bound."""
    k, d, rest, p = 1, 1, m, 2
    while p * p <= rest:
        e = 0
        while rest % p == 0:
            rest //= p
            e += 1
        k *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    return k, d * rest


def _primes_below(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


def test_squarefree_decompose_matches_full_trial_division():
    """Trial division to the cube root, then a square test of the rest,
    splits m as full trial division does: every m < 20,000 and seeded
    m < 10^8.  Seeded products of primes with exponents 1..3 (p^2, p*q,
    p^2*q, p*q*r, p^3, ...) and squares and products of primes near 10^9
    split as their exponents say.  The rest left by the cube-root bound is
    1, a prime, a product of two primes or a prime square."""
    for m in range(1, 20_000):
        assert squarefree_decompose(m) == _full_trial_division(m), m
    rng = random.Random(2501)
    for _ in range(2_000):
        m = rng.randrange(1, 10**8)
        assert squarefree_decompose(m) == _full_trial_division(m), m
    primes = _primes_below(20_000)
    small, medium = primes[:25], primes[168:]  # below 100, and 1,000..20,000
    big = (999_999_937, 1_000_000_007)
    cases = [{p: 2} for p in big] + [{big[0]: 1, big[1]: 1}, {2: 1, big[1]: 2}, {big[0]: 1}]
    while len(cases) < 3_000:
        picked = rng.sample(small, rng.randint(0, 2)) + rng.sample(medium, rng.randint(1, 3))
        cases.append({p: rng.randint(1, 3) for p in picked})
    for exps in cases:
        m = k = d = 1
        for p, e in exps.items():
            m, k, d = m * p**e, k * p ** (e // 2), d * p ** (e % 2)
        assert squarefree_decompose(m) == (k, d), exps


def test_mul_examples():
    assert surd_mul(Surd(1, 2), Surd(1, 2)) == Surd(2, 1)
    assert surd_mul(Surd(2, 3), Surd(5, 1)) == Surd(10, 3)
    assert surd_mul(Surd(1, 2), Surd(1, 3)) == Surd(1, 6)


def test_add_examples():
    assert surd_add(Surd(1, 2), Surd(3, 2)) == Surd(4, 2)
    assert surd_add(Surd(0), Surd(5, 3)) == Surd(5, 3)
    with pytest.raises(MixedRadicand):
        surd_add(Surd(1, 2), Surd(1, 3))


def test_cmp_examples():
    assert surd_compare(Surd(1, 2), Surd(1, 3)) < 0
    assert surd_compare(Surd(F(3, 2)), Surd(1, 2)) > 0  # 9/4 > 2
    assert surd_compare(Surd(2, 2), Surd(2, 2)) == 0
    assert surd_compare(Surd(-1, 2), Surd(0)) < 0
    assert surd_compare(Surd(-1, 3), Surd(-1, 2)) < 0


surds = st.builds(
    Surd,
    st.fractions(min_value=-30, max_value=30, max_denominator=12),
    st.integers(min_value=1, max_value=60),
)


@given(surds, surds, surds)
def test_mul_associative_commutative(a, b, c):
    assert surd_mul(surd_mul(a, b), c) == surd_mul(a, surd_mul(b, c))
    assert surd_mul(a, b) == surd_mul(b, a)
    k, d = squarefree_decompose(surd_mul(a, b).rad)
    assert k == 1  # always canonical


@given(surds, surds)
def test_cmp_matches_float(a, b):
    if abs(surd_float(a) - surd_float(b)) > 1e-6:
        assert (surd_compare(a, b) > 0) == (surd_float(a) > surd_float(b))


def test_canonical_zero():
    assert Surd(0, 7).rad == 1
    assert Surd(F(0), 5).coef == 0


def test_integral_coefficient_is_int():
    for rad in range(1, 31):
        for k in range(-6, 7):
            for x in (Surd(k, rad), Surd(F(k), rad), Surd(F(2 * k, 2), rad)):
                assert type(x.coef) is int and x == Surd(k, rad) and hash(x) == hash(Surd(k, rad))
                assert type(surd_square(x)) is F and surd_square(x) == k * k * rad
                if x.rad == 1:
                    assert type(surd_as_fraction(x)) is F and surd_as_fraction(x) == x.coef
            half = Surd(F(k, 2), rad)
            assert type(half.coef) is (int if k % 2 == 0 else F)
            assert type(surd_mul(half, Surd(2, rad)).coef) is int


def test_qn_fold_square_n():
    x = QnNumber(1, 3, 4)  # 1 + 3*sqrt(4) = 7
    assert x.u == 7 and x.v == 0


def test_qn_sign():
    assert QnNumber(-3, 2, 2).sign() == -1  # 2*sqrt(2) < 3
    assert QnNumber(-2, 2, 2).sign() == 1
    assert QnNumber(2, -1, 4).sign() == 0  # degenerate: 2 - 2


def test_qnc_examples():
    one = qnc_rat(1, 0, 2)
    assert one.inverse() == one
    s2 = QnComplex(QnNumber(0, 1, 2), QnNumber(0, 0, 2))
    assert s2 * s2 == qnc_rat(2, 0, 2)
    num = qnc_rat(1, 1, 2)
    den = qnc_rat(1, -1, 2)
    assert num / den == qnc_rat(0, 1, 2)  # (1+i)/(1-i) = i


@given(
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
def test_qnc_field(a, b, c, d):
    x = QnComplex(QnNumber(a, b, 3), QnNumber(c, d, 3))
    y = QnComplex(QnNumber(d, a, 3), QnNumber(b, c, 3))
    if not (y.re.is_zero() and y.im.is_zero()):
        assert (x * y) / y == x


def test_sqrt_of_fraction():
    assert sqrt_of_fraction(F(9, 4)) == Surd(F(3, 2))
    assert sqrt_of_fraction(F(1, 2)) == Surd(F(1, 2), 2)
    s = sqrt_of_fraction(F(5, 12))
    assert surd_square(s) == F(5, 12)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        qnc_rat(0, 0, 2).inverse()
    with pytest.raises(ZeroDivisionError):
        QnNumber(0, 0, 3).inverse()
