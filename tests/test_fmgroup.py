import itertools
import math
import random
from fractions import Fraction as F

import pytest

from paper_checks import (
    DegenerateGamma,
    SamePoint,
    charge_at_z,
    charge_compat_check,
    delta_matrix,
    dual_flip,
    equal_up_to_sign,
    g_inverse,
    g_mul,
    g_power,
    gamma0_check,
    half_plane_image_check,
    identity_matrix,
    param_transform,
    psi_apply_to_wall,
    psi_map,
    qnc_rat,
    reference_act,
    reference_iterate,
    reference_mobius,
    surd_as_fraction,
    surd_mul,
    surd_square,
    swap_diagonal,
    vec_neg,
)
from reference_pell import divisors
from stabwalls.errors import NotInGHat
from stabwalls.fmgroup import (
    act_on_vector,
    g_membership,
    mobius,
    require_member,
)
from stabwalls.lattice import Context, MukaiVector, RHO, UNIT, pairing
from stabwalls.pell import GMatrix, iterate, solve_generator
from stabwalls.surd import (
    QnComplex,
    QnNumber,
    Surd,
    is_perfect_square,
    squarefree_decompose,
)
from stabwalls.walls import codim0_walls

C1 = Context(1)
C2 = Context(2)


def _rng_ghat(rng, n):
    """Random group element: a short product of Pell generators and the
    dualizing factor."""
    gens = []
    for ell in (2, 3, 5):
        if (ell * n) ** 0.5 % 1:
            pc = solve_generator(n, ell)
            gens.append(pc.generator)
    gens.append(delta_matrix())
    if n == 1:
        gens.append(GMatrix(Surd(1), Surd(1), Surd(0), Surd(1)))
    out = identity_matrix()
    for _ in range(rng.randint(1, 4)):
        out = g_mul(out, rng.choice(gens))
    return out


# -- group structure ----------------------------------------------------------


def _member_product(x, y, ctx):
    """x * y, which must lie in the group again."""
    out = g_mul(x, y)
    require_member(out, ctx)
    return out


def test_g_mul_examples():
    pc2 = solve_generator(1, 2)
    a2 = pc2.generator
    sq = _member_product(a2, a2, C1)
    assert sq == GMatrix(Surd(3), Surd(4), Surd(2), Surd(3))
    a3 = solve_generator(1, 3).generator
    conj = _member_product(_member_product(delta_matrix(), a3, C1), delta_matrix(), C1)
    assert conj == GMatrix(Surd(2), Surd(-3), Surd(-1), Surd(2))
    g = GMatrix(Surd(1, 2), Surd(1), Surd(1), Surd(1, 2))
    assert g_membership(g, C2).det == 1


def test_membership_rejects():
    assert g_membership(GMatrix(Surd(1), Surd(1), Surd(1), Surd(1)), C1) is None  # det 0
    assert g_membership(GMatrix(Surd(2), Surd(0), Surd(0), Surd(1)), C1) is None  # det 2
    # mixed radicands across a diagonal
    bad = GMatrix(Surd(1, 2), Surd(1), Surd(1), Surd(1, 3))
    assert g_membership(bad, Context(6)) is None
    with pytest.raises(NotInGHat):
        _member_product(GMatrix(Surd(2), Surd(0), Surd(0), Surd(1)), identity_matrix(), C1)


def _brute_membership(g, n):
    """The determinant of g when some radicands r*s = n make every entry an
    integer times its sqrt(r) or sqrt(s) and the determinant is +-1, else
    None: the definition of the group, tried divisor by divisor."""
    for r in divisors(n):
        coefs = []
        for e, q in ((g.a, r), (g.b, n // r), (g.c, n // r), (g.d, r)):
            square = F(e.coef) ** 2 * e.rad / q  # (e/sqrt(q))^2
            root = math.isqrt(square.numerator)
            if square.denominator != 1 or root * root != square.numerator:
                break
            coefs.append(root if e.coef >= 0 else -root)
        else:
            a, b, c, d = coefs
            det = a * d * r - b * c * (n // r)
            return det if det in (1, -1) else None
    return None


def _sweep(n, coefs):
    """Every matrix of determinant +-1 whose diagonals have coefficients in
    coefs over one radicand each, taken from the squarefree divisors of n
    and the least squarefree non-divisor."""
    squarefree = [m for m in range(1, 2 * n + 3) if squarefree_decompose(m)[0] == 1]
    rads = [m for m in squarefree if n % m == 0] + [next(m for m in squarefree if n % m)]
    for ra, rb in itertools.product(rads, repeat=2):
        for a, b, c, d in itertools.product(coefs, repeat=4):
            if a * d * ra - b * c * rb in (1, -1):
                yield GMatrix(Surd(a, ra), Surd(b, rb), Surd(c, rb), Surd(d, ra))


def test_membership_is_the_definition():
    """g_membership agrees with the definition of the group for every n <= 18
    on the `_sweep` with coefficients -3..3.  Where n has a square factor
    the canonical radicands do not decide alone: for n = 4, (1, 1; 0, 1)
    has determinant 1 and n/(r*s) = 4 a square, yet no radicands r*s = 4
    make a = 1 an integer times sqrt(r) and b = 1 one times sqrt(s)."""
    counts = {True: 0, False: 0}
    for n in range(1, 19):
        ctx = Context(n)
        for g in _sweep(n, range(-3, 4)):
            member = g_membership(g, ctx)
            assert (member and member.det) == _brute_membership(g, n), (n, g)
            if member:
                assert member.k ** 2 * member.r * member.s == n, (n, g)
            counts[member is not None] += 1
    assert g_membership(GMatrix(Surd(1), Surd(1), Surd(0), Surd(1)), Context(4)) is None
    assert g_membership(GMatrix(Surd(1), Surd(2), Surd(0), Surd(1)), Context(4)).k == 2
    assert min(counts.values()) > 1000, counts


def _group_elements(pc):
    """The generator powers -4..4, each also times diag(1, -1) on the left,
    and the torsion (0, 1; 1, 0) of l = 1 with its diag(1, -1) product."""
    powers = [g_power(pc.generator, k) for k in range(-4, 5)]
    if pc.torsion is not None:
        powers.append(pc.torsion)
    return powers + [g_mul(delta_matrix(), g) for g in powers]


def test_integer_forms_are_the_surd_products():
    """iterate, act_on_vector and mobius, computed on integers, equal their
    surd-product forms in paper_checks: for every non-square (n <= 12,
    l < 15) on the generator powers -4..4 and their diag(1, -1) products
    (both signs of epsilon, the torsion of l = 1, and n = 4, 8, 9, 12
    among them), and on every member of the `_sweep` with coefficients
    -2..2 for the non-squarefree n <= 18.  Each matrix acts on four
    vectors and on one of three points."""
    vectors = [MukaiVector(*v) for v in ((1, 0, 0), (0, 0, 1), (2, -3, 5), (-1, 4, 7))]
    points = [(0, 1), (F(1, 2), 3), (F(-3, 2), F(1, 3))]
    cases = [
        (n, ell) for n in range(1, 13) for ell in range(1, 15) if not is_perfect_square(n * ell)
    ]
    eps_seen, mats = set(), []
    for n, ell in cases:
        pc = solve_generator(n, ell)
        eps_seen.add(pc.epsilon)
        for m in range(-4, 5):
            it = iterate(pc, m)
            assert type(it.alpha) is int and type(it.beta) is int, (n, ell, m)
            assert (it.a, it.b) == reference_iterate(pc, m), (n, ell, m)
        mats += [(Context(n), g) for g in _group_elements(pc)]
    assert eps_seen == {1, -1} and len(cases) == 146
    for n in (4, 8, 9, 12, 16, 18):
        ctx = Context(n)
        mats += [(ctx, g) for g in _sweep(n, range(-2, 3)) if g_membership(g, ctx)]
    for i, (ctx, g) in enumerate(mats):
        for v in vectors:
            assert act_on_vector(v, g, ctx) == reference_act(v, g, ctx), (ctx.n, g, v)
        z = qnc_rat(*points[i % len(points)], ctx.n)
        assert mobius(g, z, ctx) == reference_mobius(g, z, ctx), (ctx.n, g, z)
    assert len(mats) == 2934, len(mats)


def test_g_inv():
    rng = random.Random(8)
    for _ in range(50):
        g = _rng_ghat(rng, 1)
        inv = g_inverse(g)
        require_member(inv, C1)
        assert equal_up_to_sign(_member_product(g, inv, C1), identity_matrix())


def test_power_matches_naive_product():
    rng = random.Random(12)
    parities = set()
    for n in (1, 2, 3):
        ctx = Context(n)
        for _ in range(12):
            g = _rng_ghat(rng, n)
            parities.add(g_membership(g, ctx).det)
            for k in range(-7, 8):
                naive = identity_matrix()
                for _ in range(abs(k)):
                    naive = g_mul(naive, g if k >= 0 else g_inverse(g))
                assert g_power(g, k) == naive, (n, g, k)
    assert parities == {1, -1}


def test_act_examples():
    a2 = solve_generator(1, 2).generator
    assert act_on_vector(RHO, a2, C1) == MukaiVector(1, 1, 1)
    assert act_on_vector(UNIT, a2, C1) == MukaiVector(1, 2, 4)
    v = MukaiVector(3, -1, 2)
    assert act_on_vector(v, identity_matrix(), C1) == v


def test_act_isometry_and_contravariance():
    rng = random.Random(99)
    for n in (1, 2):
        ctx = Context(n)
        for _ in range(250):
            g1, g2 = _rng_ghat(rng, n), _rng_ghat(rng, n)
            v = MukaiVector(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            w = MukaiVector(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5))
            assert pairing(
                act_on_vector(v, g1, ctx), act_on_vector(w, g1, ctx), ctx
            ) == pairing(v, w, ctx)
            assert act_on_vector(act_on_vector(v, g1, ctx), g2, ctx) == act_on_vector(
                v, _member_product(g1, g2, ctx), ctx
            )


def test_theta_phi_convert():
    g = GMatrix(Surd(2), Surd(5), Surd(1), Surd(3))
    assert swap_diagonal(swap_diagonal(g)) == g
    assert dual_flip(g) == GMatrix(Surd(2), Surd(-5), Surd(-1), Surd(3))
    sym = solve_generator(1, 2).generator
    assert swap_diagonal(sym) == sym  # equal diagonal entries


# -- half-plane action --------------------------------------------------------


def test_mobius_examples():
    a3sq = g_power(solve_generator(1, 3).generator, 2)
    assert a3sq == GMatrix(Surd(7), Surd(12), Surd(4), Surd(7))
    img = mobius(a3sq, qnc_rat(0, 1, 1), C1)
    assert img == qnc_rat(F(112, 65), F(1, 65), 1)
    z = qnc_rat(F(5, 7), F(2, 3), 1)
    assert mobius(identity_matrix(), z, C1) == z
    assert mobius(delta_matrix(), qnc_rat(1, 1, 1), C1) == qnc_rat(-1, 1, 1)


def test_mobius_preserves_upper_half_plane_and_composes():
    rng = random.Random(13)
    count = 0
    for n in (1, 2):
        ctx = Context(n)
        for _ in range(100):
            g1, g2 = _rng_ghat(rng, n), _rng_ghat(rng, n)
            z = QnComplex(
                QnNumber(F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-2, 2), 3), n),
                QnNumber(F(rng.randint(1, 6), rng.randint(1, 3)), 0, n),
            )
            if z.im.sign() <= 0:
                continue
            left = mobius(g1, mobius(g2, z, ctx), ctx)
            right = mobius(_member_product(g1, g2, ctx), z, ctx)
            assert left == right
            assert left.im.sign() > 0
            count += 1
    assert count == 200


def test_charge_compat_golden_and_random():
    a3sq = g_power(solve_generator(1, 3).generator, 2)
    assert charge_compat_check(a3sq, MukaiVector(1, 0, -3), qnc_rat(0, 1, 1), C1)
    assert charge_compat_check(
        identity_matrix(), MukaiVector(2, -1, 3), qnc_rat(F(1, 3), F(7, 2), 1), C1
    )
    rng = random.Random(4)
    count = 0
    while count < 200:
        n = rng.choice([1, 2])
        ctx = Context(n)
        g = _rng_ghat(rng, n)
        try:
            parity = g.det()
        except NotInGHat:
            continue
        if parity != 1:
            continue
        v = MukaiVector(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
        z = QnComplex(
            QnNumber(F(rng.randint(-5, 5), 2), F(rng.randint(-2, 2), 2), n),
            QnNumber(F(rng.randint(1, 5), 2), 0, n),
        )
        assert charge_compat_check(g, v, z, ctx)
        count += 1


def test_charge_compat_negative_control():
    # the wrong orientation (dual flip instead of swap) breaks the identity
    g = GMatrix(Surd(2), Surd(5), Surd(1), Surd(3))
    v, z = MukaiVector(1, 2, -1), qnc_rat(F(1, 2), F(3, 2), 1)
    lhs = charge_at_z(v, z, C1)
    z_img = mobius(g, z, C1)
    wrong = vec_neg(act_on_vector(v, dual_flip(g), C1))
    cd = surd_as_fraction(surd_mul(g.c, g.d))
    zeta = (
        (z * z) * surd_square(g.c)
        + z * QnComplex(QnNumber(2 * cd, 0, 1), QnNumber(0, 0, 1))
        + qnc_rat(surd_square(g.d), 0, 1)
    )
    assert lhs != zeta * charge_at_z(wrong, z_img, C1) * -1


# -- wall swapping ------------------------------------------------------------


def test_theta_psi_matrix_identity():
    for n, ell in [(1, 2), (1, 3), (2, 3)]:
        ctx = Context(n)
        pc = solve_generator(n, ell)
        a = pc.generator
        for m in range(-5, 6):
            psi = psi_map(pc, m)
            assert g_membership(psi, ctx).det == -1  # contravariant
            for k in range(-5, 6):
                lhs = _member_product(g_power(a, m + k), psi, ctx)
                rhs = _member_product(delta_matrix(), g_power(a, m - k), ctx)
                assert equal_up_to_sign(lhs, rhs)


def test_psi_wall_transport():
    pc2 = solve_generator(1, 2)
    fam = {w.label: w for w in codim0_walls(pc2, range(-3, 4))}
    t = psi_apply_to_wall(pc2, 0, fam[-1], C1)
    assert t.shape == fam[1].shape and t.label == 1
    t = psi_apply_to_wall(pc2, -1, fam[-2], C1)
    assert t.shape == fam[0].shape and t.label == 0
    t = psi_apply_to_wall(pc2, -1, fam[-1], C1)
    assert t.shape == fam[-1].shape and t.label == -1


def test_remark_2m_composite():
    # theta of the there-and-back composite is +-A^{2m}
    for n, ell in [(1, 2), (1, 3)]:
        ctx = Context(n)
        pc = solve_generator(n, ell)
        a = pc.generator
        for m in range(-3, 4):
            theta_back = g_power(a, m)
            if pc.epsilon**m == -1:
                theta_back = _member_product(delta_matrix(), theta_back, ctx)
            composite = _member_product(swap_diagonal(theta_back), theta_back, ctx)
            assert equal_up_to_sign(composite, g_power(a, 2 * m))


# -- parameter transform ------------------------------------------------------


def test_param_transform_examples():
    assert param_transform(0, 1, -1, 1, C1) == (F(1, 2), F(1, 4))
    # circle |z - lam| = sqrt(2/(|r1|(H^2))) maps to the same-radius circle
    lam, r1 = F(0), 1
    target = F(2, 1 * 2)  # 2/(|r1|(H^2)) = 1 for n = 1
    for s in (F(1, 2), F(-3, 4), F(9, 10)):
        t_sq = target - (s - lam) ** 2
        if t_sq <= 0:
            continue
        sp, tp2 = param_transform(lam, r1, s, t_sq, C1)
        assert sp * sp + tp2 == target


def test_param_transform_against_mobius():
    # independent codepath: the half-plane action of a matching matrix
    cases = [
        (C1, GMatrix(Surd(2), Surd(5), Surd(1), Surd(3)), F(-1), 2),
        (C1, GMatrix(Surd(7), Surd(12), Surd(4), Surd(7)), F(0), 1),
        (C2, GMatrix(Surd(1, 2), Surd(1), Surd(1), Surd(1, 2)), F(1), 3),
        (C2, GMatrix(Surd(1), Surd(1, 2), Surd(1, 2), Surd(3)), F(-2), F(1, 2)),
    ]
    for ctx, g, s, t in cases:
        n = ctx.n
        gamma, srad = g.c.coef, g.c.rad
        lam = F(-g.d.coef, gamma * srad)
        lam_prime = F(g.a.coef, gamma * srad)
        r1 = gamma * gamma * srad
        sp, tp2 = param_transform(lam, r1, s, F(t) ** 2, ctx)
        z = QnComplex(QnNumber(0, s, n), QnNumber(0, F(t), n))  # sqrt(n)(s+ti)
        zi = mobius(g, z, ctx)
        s_abs = zi.re * QnNumber(0, 1, n) * F(1, n)
        t_abs = zi.im * QnNumber(0, 1, n) * F(1, n)
        assert s_abs == QnNumber(lam_prime + sp, 0, n)
        assert t_abs * t_abs == QnNumber(tp2, 0, n)


def test_half_plane_image_check():
    v = MukaiVector(1, 0, -2)
    assert half_plane_image_check(v, -1, 1, F(-3, 2), F(1, 100), C1)
    # boundary point (on the circle t^2 = (lam-s)(2+s)): equality holds
    assert half_plane_image_check(v, -1, 1, F(-3, 2), F(1, 4), C1)
    assert not half_plane_image_check(v, -1, 1, F(0), F(1), C1)
    with pytest.raises(DegenerateGamma):
        half_plane_image_check(v, 0, 1, F(1), F(1), C1)


def test_half_plane_matches_direct_disk_test():
    v, lam = MukaiVector(1, 0, -2), F(-1)
    # C_{v,lam}: t^2 = (lam - s)((a - d*lam*n)/(n(lam*r - d)) + s) = (-1-s)(2+s)
    rng = random.Random(55)
    for _ in range(120):
        s = F(rng.randint(-12, 6), 4)
        t_sq = F(rng.randint(1, 30), 10)
        direct = t_sq <= (lam - s) * (2 + s)
        assert half_plane_image_check(v, lam, 1, s, t_sq, C1) == direct


# -- modular conjugation ------------------------------------------------------


def test_gamma0_check():
    assert gamma0_check(identity_matrix(), C2)
    assert gamma0_check(GMatrix(Surd(1), Surd(1, 2), Surd(1, 2), Surd(3)), C2)
    assert not gamma0_check(GMatrix(Surd(1, 2), Surd(1), Surd(1), Surd(1, 2)), C2)
    assert not gamma0_check(delta_matrix(), C1)  # determinant -1
    # n=1: everything with det 1 conjugates into SL(2, Z) = Gamma_0(1)
    assert gamma0_check(GMatrix(Surd(2), Surd(5), Surd(1), Surd(3)), C1)


def test_param_transform_same_point():
    with pytest.raises(SamePoint):
        param_transform(F(1), 1, F(1), F(0), C1)
    with pytest.raises(DegenerateGamma):
        param_transform(F(1), 0, F(0), F(1), C1)


def test_param_transform_pure_imaginary_direction():
    # s = lam: the image lands on the positive imaginary axis (s' = 0)
    sp, tp2 = param_transform(F(3, 2), 2, F(3, 2), F(1), C1)
    assert sp == 0 and tp2 > 0
