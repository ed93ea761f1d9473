"""Independent answer checkers for the benchmark, standard library only.

Nothing here imports stabwalls.  Each checker recomputes what it needs from
its own Mukai pairing, its own wall-from-witness derivation (the alignment
polynomial of two central charges), its own continued-fraction unit solve
and its own Pell iterates, or tests a property the method must have.  No
check compares against a stored copy of an earlier output.

Every `check_*` function returns None when the answer holds and a one-line
reason when it does not.  `self_test()` plants one corruption per checker
into real answers and requires each to be flagged.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from fractions import Fraction
from functools import cmp_to_key

F = Fraction

# ---------------------------------------------------------------------------
# lattice and walls


def pair(n, v, w):
    """Mukai pairing <v, w> = 2n*d_v*d_w - (r_v*a_w + r_w*a_v)."""
    return 2 * n * v[1] * w[1] - (v[0] * w[2] + w[0] * v[2])


def parse_vec(text):
    r, d, a = (F(p) for p in text.split(","))
    return (r, d, a)


def _poly_mul(p, q):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _poly_sub(p, q):
    out = dict(p)
    for key, c in q.items():
        out[key] = out.get(key, 0) - c
    return out


def _charge_parts(n, w):
    """Re Z(w) and Im Z(w)/(2n*t) at (s, t) = (x, sqrt(T)), as polynomials
    in x and T (keys are exponent pairs (i, j) of x^i T^j)."""
    r, d, a = w
    # twisted to base x: d_b = d - r*x, a_b = a - 2n*d*x + n*r*x^2
    re_z = {(0, 0): -a, (1, 0): 2 * n * d, (2, 0): -n * r, (0, 1): n * r}
    im_z = {(0, 0): d, (1, 0): -r}
    return re_z, im_z


def wall_shape(n, v, w):
    """The locus where Z(w) and Z(v) are aligned, or None.

    Expands Re Z(v) * Im Z(w) - Re Z(w) * Im Z(v) (divided by 2n*t) and reads
    off a circle ("c", center, radius^2) or a vertical line ("v", s)."""
    re_v, im_v = _charge_parts(n, v)
    re_w, im_w = _charge_parts(n, w)
    poly = _poly_sub(_poly_mul(re_v, im_w), _poly_mul(re_w, im_v))
    poly = {k: c for k, c in poly.items() if c != 0}
    alpha = poly.pop((0, 1), 0)
    beta = poly.pop((1, 0), 0)
    gamma = poly.pop((0, 0), 0)
    if poly.pop((2, 0), 0) != alpha or poly:
        raise ValueError(f"alignment locus of {w} is not a circle or a line")
    if alpha != 0:
        center = -F(beta) / (2 * alpha)
        radius_sq = center * center - F(gamma) / alpha
        return ("c", center, radius_sq) if radius_sq > 0 else None
    if beta != 0:
        return ("v", -F(gamma) / beta)
    return None


def wall_conditions(n, v, w):
    """The three wall inequalities for witness w of v."""
    rest = tuple(x - y for x, y in zip(v, w))
    return pair(n, w, w) >= 0 and pair(n, rest, rest) >= 0 and pair(n, w, rest) > 0


def shape_of_record(rec):
    sh = rec["shape"]
    if "vline" in sh:
        return ("v", F(sh["vline"]["s"]))
    return ("c", F(sh["circle"]["center"]), F(sh["circle"]["radius_sq"]))


def t_sq_at(shape, s0):
    """t^2 where a circle meets the vertical line s = s0 (None for lines)."""
    if shape[0] != "c":
        return None
    return shape[2] - (s0 - shape[1]) ** 2


def crosses(shape, s0):
    t2 = t_sq_at(shape, s0)
    return t2 is not None and t2 > 0


def scan_walls(n, v, s0, bound):
    """Shapes of all walls for v owning a witness with entries within
    `bound` that meet the open ray {s0} x R_{>0}."""
    r, d, a = (int(x) for x in v)
    vv = pair(n, v, v)
    out = set()
    rng = range(-bound, bound + 1)
    for r1 in rng:
        for d1 in rng:
            for a1 in rng:
                w11 = 2 * n * d1 * d1 - 2 * r1 * a1
                if w11 < 0:
                    continue
                vw = 2 * n * d * d1 - (r * a1 + r1 * a)
                if vw - w11 <= 0 or vv - 2 * vw + w11 < 0:
                    continue
                shape = wall_shape(n, (r, d, a), (r1, d1, a1))
                if shape is not None and crosses(shape, s0):
                    out.add(shape)
    return out


def _sign(x):
    return (x > 0) - (x < 0)


def _sign_root1(a, b, p):
    """sign(a + b*sqrt(p)), p >= 0."""
    if b == 0 or p == 0:
        return _sign(a)
    sa, sb = _sign(a), _sign(b)
    if sa == 0 or sa == sb:
        return sb if sa == 0 else sa
    diff = a * a - b * b * p
    return sa if diff > 0 else (sb if diff < 0 else 0)


def _sign_root2(a, b, p, c, q):
    """sign(a + b*sqrt(p) + c*sqrt(q)), p, q >= 0."""
    if c == 0 or q == 0:
        return _sign_root1(a, b, p)
    sx, sy = _sign_root1(a, b, p), -_sign(c)  # x = a + b*sqrt(p), y = -c*sqrt(q)
    if sx != sy:
        return 1 if sx > sy else -1
    return sx * _sign_root1(a * a + b * b * p - c * c * q, 2 * a * b, p)


def _cmp_endpoint(e1, e2):
    (c1, s1, r1), (c2, s2, r2) = e1, e2
    return _sign_root2(c1 - c2, s1, r1, -s2, r2)


def laminar(shapes):
    """None when the walls are pairwise nested or disjoint in t > 0."""
    circles = [s for s in shapes if s[0] == "c"]
    for line in (s for s in shapes if s[0] == "v"):
        for c in circles:
            if crosses(c, line[1]):
                return f"vertical wall s={line[1]} crosses circle {c[1:]}"
    # by left end, the wider circle first on a tie
    spans = sorted(
        (((c, -1, rr), (c, 1, rr)) for _, c, rr in circles),
        key=cmp_to_key(lambda x, y: _cmp_endpoint(x[0], y[0]) or _cmp_endpoint(y[1], x[1])),
    )
    stack = []
    for lo, hi in spans:
        while stack and _cmp_endpoint(stack[-1][1], lo) <= 0:
            stack.pop()
        if stack and _cmp_endpoint(hi, stack[-1][1]) >= 0:
            return f"circles {stack[-1][0][0]} and {lo[0]} cross"
        stack.append((lo, hi))
    return None


def pencil_defect(n, v, shape):
    """None when a circle lies in the pencil of v (all walls for v do)."""
    r, d, a = v
    if shape[0] != "c":
        return None
    if r == 0:
        return None if shape[1] == F(a) / (2 * n * d) else "rank-0 circle off-center"
    p = F(d) / r
    q = F(pair(n, v, v)) / (2 * n * r * r)
    if shape[2] != (shape[1] - p) ** 2 - q:
        return f"radius^2 != (center - {p})^2 - {q} for center {shape[1]}"
    return None


def check_wall_records(n, v, records):
    """Witness integrality, wall inequalities, recomputed shape, pencil
    identity and pairwise nesting; returns (reason, shapes)."""
    shapes = []
    for rec in records:
        w = parse_vec(rec["witness"])
        if any(F(x).denominator != 1 for x in w):
            return f"witness {rec['witness']} is not integral", None
        if not wall_conditions(n, v, w):
            return f"witness {rec['witness']} fails the wall inequalities", None
        shape = shape_of_record(rec)
        if wall_shape(n, v, w) != shape:
            return f"printed shape of {rec['witness']} differs from its recomputed wall", None
        defect = pencil_defect(n, v, shape)
        if defect:
            return defect, None
        shapes.append(shape)
    if len(set(shapes)) != len(shapes):
        return "a wall is listed twice", None
    return laminar(shapes), shapes


# ---------------------------------------------------------------------------
# Pell group: own continued-fraction solve and iterates


def divisors(k):
    return [d for d in range(1, k + 1) if k % d == 0]


def fundamental_unit(dd):
    """Least Y + X*sqrt(dd) > 1 with Y^2 - dd*X^2 = +-1 (continued fraction)."""
    a0 = math.isqrt(dd)
    if a0 * a0 == dd:
        raise ValueError(f"{dd} is a square")
    m, den, a = 0, 1, a0
    h_prev, h, k_prev, k = 1, a0, 0, 1
    while h * h - dd * k * k not in (1, -1):
        m = den * a - m
        den = (dd - m * m) // den
        a = (a0 + m) // den
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
    return h, k


def _split_square(n, ell, yy, xx):
    """Members g with phi(g)^2 = yy + xx*sqrt(n*l): (a, r, b, s, eps) with
    g = (b*sqrt(s), l*a*sqrt(r); a*sqrt(r), b*sqrt(s)), r*s = n."""
    out = []
    for eps in (1, -1):  # b^2*s - l*a^2*r = eps, b^2*s + l*a^2*r = yy
        if (yy + eps) % 2:
            continue
        big_b, big_a = (yy + eps) // 2, (yy - eps) // 2
        for r in divisors(n):
            s = n // r
            if big_a % (r * ell) or big_b % s:
                continue
            a2, b2 = big_a // (r * ell), big_b // s
            a, b = math.isqrt(a2), math.isqrt(b2)
            if a * a == a2 and b * b == b2 and a >= 1 and b >= 1 and 2 * a * b == xx:
                out.append((a, r, b, s, eps))
    return out


class PellData:
    """Minimal generator and iterates of the group for (n, l), derived from
    the fundamental unit eps of Z[sqrt(n*l)]: eps itself is a member, so the
    minimal member g has phi(g)^2 in {eps, eps^2}."""

    def __init__(self, n, ell):
        self.n, self.ell = n, ell
        dd = n * ell
        y1, x1 = fundamental_unit(dd)
        self.unit = (y1, x1)
        found = _split_square(n, ell, y1, x1) if y1 * y1 - dd * x1 * x1 == 1 else []
        self.unit_is_square = bool(found)
        if not found:
            found = _split_square(n, ell, y1 * y1 + dd * x1 * x1, 2 * x1 * y1)
        self.a, self.r, self.b, self.s, self.eps = found[0]
        self._pos = {0: (0, 1, False), 1: (self.a, self.b, True)}
        self._neg = {0: (0, 1, False), 1: (-self.eps * self.a, self.eps * self.b, True)}

    def _mul(self, elem, base):
        (big_a, big_b, odd), (a0, b0) = elem, base
        if odd:  # x = A*sqrt(r), y = B*sqrt(s) times an odd base: even result
            return (big_a * b0 + big_b * a0, big_b * b0 * self.s + self.ell * big_a * a0 * self.r, False)
        return (big_a * b0 * self.s + big_b * a0, big_b * b0 + self.ell * big_a * a0 * self.r, True)

    def power(self, m):
        """g^m = (b_m, l*a_m; a_m, b_m) as (A, B, odd): odd powers have
        a_m = A*sqrt(r), b_m = B*sqrt(s); even ones a_m = A*sqrt(n), b_m = B."""
        table = self._pos if m >= 0 else self._neg
        base = table[1][:2]
        k = abs(m)
        top = max(table)
        while top < k:
            table[top + 1] = self._mul(table[top], base)
            top += 1
        return table[k]

    def a_sq_b_sq(self, m):
        big_a, big_b, odd = self.power(m)
        if odd:
            return big_a * big_a * self.r, big_b * big_b * self.s, _sign(big_a), _sign(big_b)
        return big_a * big_a * self.n, big_b * big_b, _sign(big_a), _sign(big_b)

    def endpoints(self, m):
        """(b_m/(a_m*sqrt n), l*a_m/(b_m*sqrt n)): the real-axis ends of C_m."""
        big_a, big_b, odd = self.power(m)
        if odd:
            return F(big_b, big_a * self.r), F(self.ell * big_a, big_b * self.s)
        return F(big_b, big_a * self.n), F(self.ell * big_a, big_b)

    def codim0_shape(self, m):
        if m == 0:
            return ("v", F(0))
        lam1, lam2 = self.endpoints(m)
        return ("c", (lam1 + lam2) / 2, ((lam1 - lam2) / 2) ** 2)

    def cross_section(self):
        """lambda_0 = b_-1/(a_-1*sqrt n), where fundamental walls cross."""
        return self.endpoints(-1)[0]

    def matrix_text(self, m):
        """g^m as a CLI matrix literal "y,l*x;x,y"."""
        big_a, big_b, odd = self.power(m)
        if odd:
            x, y = (big_a, self.r), (big_b, self.s)
        else:
            x, y = (big_a, self.n), (big_b, 1)
        lx = (self.ell * x[0], x[1])
        return ";".join(",".join(f"{c}*sqrt({rad})" for c, rad in row) for row in ((y, lx), (x, y)))


_SURD_RE = re.compile(r"^(-?\d+(?:/\d+)?)(?:\*sqrt\((\d+)\))?$")


def surd_sq_sign(text):
    """(value^2, sign) of a printed surd "c" or "c*sqrt(t)"."""
    m = _SURD_RE.match(text)
    if not m:
        raise ValueError(f"bad surd {text!r}")
    c = F(m.group(1))
    t = int(m.group(2) or 1)
    return c * c * t, _sign(c)


def check_pell(out, n, ell, m_range, pd):
    x_sq, x_sg = surd_sq_sign(out["generator"]["p"])
    y_sq, y_sg = surd_sq_sign(out["generator"]["q"])
    if x_sg <= 0 or y_sg <= 0:
        return "generator entries are not positive"
    if y_sq - ell * x_sq != out["epsilon"] or out["epsilon"] not in (1, -1):
        return f"generator norm {y_sq - ell * x_sq} != epsilon {out['epsilon']}"
    if (x_sq, y_sq) != (pd.a * pd.a * pd.r, pd.b * pd.b * pd.s):
        return "generator is not the minimal member (continued-fraction solve disagrees)"
    by_m = {it["m"]: it for it in out["iterates"]}
    if sorted(by_m) != list(m_range):
        return "iterates do not cover the label range"
    for m, it in by_m.items():
        a = surd_sq_sign(it["a"])
        b = surd_sq_sign(it["b"])
        a_sq, b_sq, a_sg, b_sg = pd.a_sq_b_sq(m)
        if (a, b) != ((a_sq, a_sg), (b_sq, b_sg)):
            return f"iterate m={m} differs from the generator power"
        if b_sq - ell * a_sq != pd.eps ** abs(m):
            return f"iterate m={m} has the wrong norm"
    for rec in out["u_vectors"]:
        u, up = parse_vec(rec["u"]), parse_vec(rec["u_prime"])
        if pair(n, u, u) != 0 or pair(n, up, up) != 0 or pair(n, u, up) != -1:
            return f"u-vectors for m={rec['m']} are not an isotropic pair with <u,u'> = -1"
        if rec["m"] != 0:
            a_sq, b_sq, a_sg, b_sg = pd.a_sq_b_sq(rec["m"])
            if (u[0], u[2]) != (a_sq, b_sq) or u[1] * u[1] * n != a_sq * b_sq:
                return f"u-vector for m={rec['m']} does not match the iterate"
    v = (1, 0, -ell)
    for sol in out["numerical_solutions"]:
        v1, v2 = parse_vec(sol["v1"]), parse_vec(sol["v2"])
        l1, l2 = sol["l1"], sol["l2"]
        combo = tuple(l1 * x - l2 * y for x, y in zip(v1, v2))
        if combo != v and combo != tuple(-x for x in v):
            return f"numerical solution {sol} is not +-v"
        if (l1 - 1) * (l2 - 1) != 0 or pair(n, v1, v2) != -1:
            return f"numerical solution {sol} breaks (l1-1)(l2-1)=0 or <v1,v2>=-1"
    if len(out["numerical_solutions"]) != len(m_range):
        return "numerical solutions do not cover the label range"
    return None


# ---------------------------------------------------------------------------
# slope intervals


def _endpoint(pd, k, which, sign):
    """sign * (b_k/a_k or l*a_k/b_k) as ("q", q) meaning q*sqrt(n), or an
    infinity ("inf", sign)."""
    big_a, _, _ = pd.power(k)
    if which == "ba" and big_a == 0:
        return ("inf", sign)
    lam1, lam2 = pd.endpoints(k)
    return ("q", sign * (lam1 if which == "ba" else lam2))


def _pieces(pd, m):
    """The two half-open pieces of I_m (the paper's interval families)."""
    ba = lambda k, s=1: _endpoint(pd, k, "ba", s)
    lab = lambda k, s=1: _endpoint(pd, k, "lab", s)
    zero, pinf, minf = ("q", F(0)), ("inf", 1), ("inf", -1)
    if pd.eps == -1:
        if m == 1:
            return [(zero, ba(1)), (lab(1), pinf)]
        if m == 0:
            return [(minf, lab(1, -1)), (ba(1, -1), zero)]
        if m >= 2:
            k = m // 2
            if m % 2 == 0:
                return [(ba(2 * k - 1), lab(2 * k)), (ba(2 * k), lab(2 * k - 1))]
            return [(lab(2 * k), ba(2 * k + 1)), (lab(2 * k + 1), ba(2 * k))]
        mm = -m
        if mm % 2 == 0:
            k = mm // 2
            return [(ba(2 * k, -1), lab(2 * k + 1, -1)), (ba(2 * k + 1, -1), lab(2 * k, -1))]
        k = (mm + 1) // 2
        return [(lab(2 * k - 1, -1), ba(2 * k, -1)), (lab(2 * k, -1), ba(2 * k - 1, -1))]
    if m == 1:
        return [(zero, lab(1)), (ba(1), pinf)]
    if m == 0:
        return [(minf, ba(1, -1)), (lab(1, -1), zero)]
    if m >= 2:
        return [(lab(m - 1), lab(m)), (ba(m), ba(m - 1))]
    mm = -m
    return [(ba(mm, -1), ba(mm + 1, -1)), (lab(mm + 1, -1), lab(mm, -1))]


def _cmp_lam(end, lam, n):
    """sign(end - lam) for an endpoint q*sqrt(n) or an infinity."""
    if end[0] == "inf":
        return end[1]
    return _sign_root1(-lam, end[1], n)


def in_interval(pd, lam, m, starred):
    for lo, hi in _pieces(pd, m):
        lo_c, hi_c = _cmp_lam(lo, lam, pd.n), _cmp_lam(hi, lam, pd.n)
        if (lo_c < 0 and hi_c >= 0) if starred else (lo_c <= 0 and hi_c > 0):
            return True
    return False


def check_intervals(out, lam, pd):
    m = out["m"]
    if F(out["lambda"]) != lam:
        return "lambda echoed wrongly"
    if not in_interval(pd, lam, m, starred=False):
        return f"slope {lam} is not in the piece of I_{m}"
    starred = in_interval(pd, lam, m, starred=True)
    if out["starred"] != starred:
        return f"starred is {out['starred']}, own test says {starred}"
    if m <= 0:
        want = "Both" if starred else "StableSheaf"
        if out.get("verdict") != want:
            return f"verdict {out.get('verdict')} != {want}"
    return None


# ---------------------------------------------------------------------------
# walls answers


def check_walls_ell(out, n, ell, m_range, pd, scan_bound, scan):
    """`walls --ell`: every wall valid, codim-0 walls at their own C_m, the
    others crossing the cross-section, nothing missing from a bounded scan."""
    v = (1, 0, -ell)
    reason, shapes = check_wall_records(n, v, out["walls"])
    if reason:
        return reason
    root = math.isqrt(ell * n)
    if root * root == ell * n:
        s0 = -F(root, n)
        for shape in shapes:
            if shape != ("v", 0) and not (crosses(shape, s0) or crosses(shape, -s0)):
                return f"wall {shape[1:]} crosses neither +-{s0}"
        missing = (scan(n, v, s0, scan_bound) | scan(n, v, -s0, scan_bound)) - set(shapes)
    else:
        s0 = pd.cross_section()
        for rec, shape in zip(out["walls"], shapes):
            if rec["codim0"] and "m" in rec:
                if shape != pd.codim0_shape(rec["m"]):
                    return f"wall labeled m={rec['m']} is not C_{rec['m']}"
            elif not crosses(shape, s0):
                return f"unlabeled wall {shape[1:]} does not cross s = {s0}"
        for m in m_range:
            if pd.codim0_shape(m) not in shapes:
                return f"C_{m} missing"
        missing = scan(n, v, s0, scan_bound) - set(shapes)
    if missing:
        return f"{len(missing)} wall(s) of the bounded scan missing, e.g. {sorted(missing)[0][1:]}"
    return None


def check_walls_v(out, n, v, s0, scan_bound, scan):
    """`walls --v --s0`: every wall valid and crossing s0, none missing."""
    reason, shapes = check_wall_records(n, v, out["walls"])
    if reason:
        return reason
    for shape in shapes:
        if not crosses(shape, s0):
            return f"wall {shape[1:]} does not cross s = {s0}"
    missing = scan(n, v, s0, scan_bound) - set(shapes)
    if missing:
        return f"{len(missing)} wall(s) of the bounded scan missing"
    return None


def containment_verdict(listed, n, v, s0, bound, scan):
    """The benchmark's own verify verdict: every wall a bounded witness scan
    finds is listed.  Returns (agree, exhaustive)."""
    brute = scan(n, v, s0, bound)
    return brute <= set(listed), brute == set(listed)


def check_verify_flag(out, n, v, s0, scan):
    shapes = [shape_of_record(r) for r in out["walls"]]
    bound = out["verify"]["brute_force_bound"]
    agree, _ = containment_verdict(shapes, n, v, s0, bound, scan)
    if out["verify"]["agree"] != agree:
        return f"walls --verify says agree={out['verify']['agree']}, containment test says {agree}"
    return None


def check_verify(out, n, ell, pd, listed, scan):
    """`verify`: cross-section, count and verdicts against the own scan and
    the (separately checked) wall listing at the same cross-section."""
    v = (1, 0, -ell)
    root = math.isqrt(ell * n)
    s0 = -F(root, n) if root * root == ell * n else pd.cross_section()
    if F(out["cross_section"]) != s0:
        return f"cross-section {out['cross_section']} != {s0}"
    if listed is None:
        return "no checked wall listing at this cross-section"
    if out["enumerated"] != len(listed):
        return f"enumerated {out['enumerated']} != {len(listed)} listed"
    agree, exhaustive = containment_verdict(listed, n, v, s0, out["brute_force_bound"], scan)
    if (out["agree"], out["exhaustive"]) != (agree, exhaustive):
        return f"verdict {out['agree']}/{out['exhaustive']} != containment {agree}/{exhaustive}"
    return None


def check_classify(out, n, ell, s, t2, m, pd):
    if out.get("kind") != "OnWall":
        return f"point on C_{m} classified as {out.get('kind')}"
    rec = out["wall"]
    reason, shapes = check_wall_records(n, (1, 0, -ell), [rec])
    if reason:
        return reason
    shape = shapes[0]
    if shape != pd.codim0_shape(m) or (s - shape[1]) ** 2 + t2 != shape[2]:
        return f"reported wall is not C_{m} through the point"
    if rec.get("m") != m:
        return f"wall record labels m={rec.get('m')}, expected {m}"
    if out.get("codim0") is not True or out.get("m") != m:
        return f"top-level codim0={out.get('codim0')} m={out.get('m')}, wall record says m={m}"
    return None


def check_act(out, n, v, det):
    img = parse_vec(out["image"])
    if any(x.denominator != 1 for x in img):
        return "image is not integral"
    if pair(n, img, img) != pair(n, v, v):
        return f"Mukai square {pair(n, img, img)} != {pair(n, v, v)}"
    if F(out["g"]["det"]) != det:
        return f"det {out['g']['det']} != {det}"
    return None


# ---------------------------------------------------------------------------
# Moebius action, exact in Q(sqrt n)(i): elements (re_u, re_v, im_u, im_v)
# meaning (re_u + re_v*sqrt n) + i*(im_u + im_v*sqrt n)


def _qmul(x, y, n):
    return (x[0] * y[0] + n * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _qadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _qneg(x):
    return (-x[0], -x[1])


def _qinv(x, n):
    nrm = x[0] * x[0] - n * x[1] * x[1]
    return (x[0] / nrm, -x[1] / nrm)


def _cmul(z, w, n):
    re = _qadd(_qmul(z[0], w[0], n), _qneg(_qmul(z[1], w[1], n)))
    im = _qadd(_qmul(z[0], w[1], n), _qmul(z[1], w[0], n))
    return (re, im)


def _cdiv(z, w, n):
    nrm = _qadd(_qmul(w[0], w[0], n), _qmul(w[1], w[1], n))
    inv = _qinv(nrm, n)
    conj = (w[0], _qneg(w[1]))
    num = _cmul(z, conj, n)
    return (_qmul(num[0], inv, n), _qmul(num[1], inv, n))


_QN_RE = re.compile(r"^(?:(-?\d+(?:/\d+)?)(?=[+-]))?([+-]?\d+(?:/\d+)?)\*sqrt\((\d+)\)$")


def parse_qn(text, n):
    """A printed field element "u", "v*sqrt(n)" or "u+v*sqrt(n)"."""
    if "sqrt" not in text:
        return (F(text), F(0))
    m = _QN_RE.match(text)
    if not m or int(m.group(3)) != n:
        raise ValueError(f"bad field element {text!r}")
    return (F(m.group(1) or 0), F(m.group(2)))


def parse_qnc(text, n):
    m = re.match(r"^\((.*)\)\+\((.*)\)\*i$", text)
    return (parse_qn(m.group(1), n), parse_qn(m.group(2), n))


def mobius_image(pd, k, z):
    """g^k . z = (P z + Q)/(R z + S) with the entries scaled into Q(sqrt n)."""
    n = pd.n
    big_a, big_b, odd = pd.power(k)
    scale = pd.s if odd else 1  # odd powers: multiply every entry by sqrt(s)
    p = (F(big_b * scale), F(0))
    q = (F(0), F(pd.ell * big_a))
    r = (F(0), F(big_a))
    num = _cmul(z, (p, (0, 0)), n)
    num = (_qadd(num[0], q), num[1])
    den = _cmul(z, (r, (0, 0)), n)
    den = (_qadd(den[0], p), den[1])
    return _cdiv(num, den, n)


def _fold(z, n):
    """Canonical form: over a square n, sqrt(n) parts fold into the rational part."""
    root = math.isqrt(n)
    if root * root != n:
        return z
    return tuple((part[0] + part[1] * root, F(0)) for part in z)


def check_mobius(out, pd, k, z):
    img = parse_qnc(out["image"], pd.n)
    want = mobius_image(pd, k, z)
    if _fold(img, pd.n) != _fold(want, pd.n):
        return f"image {out['image']} != own (az+b)/(cz+d)"
    return None


def check_svg(text, walls_out, earlier):
    if earlier is not None and text != earlier:
        return "SVG bytes differ between two renders of the same query"
    try:
        root = ET.fromstring(text.encode())
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg"):
        return "root element is not svg"
    drawn = sum(1 for el in root.iter() if el.tag.endswith("circle"))
    if drawn > len(walls_out["walls"]):
        return f"{drawn} circles drawn for {len(walls_out['walls'])} walls"
    return None


# ---------------------------------------------------------------------------
# self-test: each checker must flag a planted corruption


def self_test(run_query, scan=scan_walls):
    """`run_query(argv)` returns the parsed JSON answer of the program.
    Returns the list of corruptions that went unflagged (empty when sound)."""
    import copy

    missed = []

    def expect_flag(name, reason):
        if reason is None:
            missed.append(name)

    pd7 = PellData(1, 7)
    walls7 = run_query(["walls", "--n", "1", "--ell", "7"])
    if check_walls_ell(walls7, 1, 7, range(-2, 3), pd7, 6, scan) is not None:
        missed.append("walls (1,7) fails its own check")
    bad = copy.deepcopy(walls7)
    circ = next(r for r in bad["walls"] if "circle" in r["shape"])
    circ["shape"]["circle"]["radius_sq"] = str(F(circ["shape"]["circle"]["radius_sq"]) + F(1, 1000))
    expect_flag("perturbed radius", check_walls_ell(bad, 1, 7, range(-2, 3), pd7, 6, scan))
    bad = copy.deepcopy(walls7)
    bad["walls"] = [r for r in bad["walls"] if r["codim0"]] + [r for r in bad["walls"] if not r["codim0"]][1:]
    expect_flag("dropped wall", check_walls_ell(bad, 1, 7, range(-2, 3), pd7, 6, scan))

    pell = run_query(["pell", "--n", "2", "--ell", "3", "--m-range=-3..3"])
    pd23 = PellData(2, 3)
    if check_pell(pell, 2, 3, range(-3, 4), pd23) is not None:
        missed.append("pell (2,3) fails its own check")
    bad = copy.deepcopy(pell)
    a2, b2, _, _ = pd23.a_sq_b_sq(2)  # g^2 is a member, but not the minimal one
    bad["generator"]["p"] = f"{math.isqrt(a2 // pd23.n)}*sqrt({pd23.n})"
    bad["generator"]["q"] = str(math.isqrt(b2))
    bad["epsilon"] = 1
    expect_flag("non-minimal generator", check_pell(bad, 2, 3, range(-3, 4), pd23))

    pd2 = PellData(1, 2)
    lam = F(-3, 2)
    iv = run_query(["intervals", "--n", "1", "--ell", "2", f"--lambda={lam}"])
    if check_intervals(iv, lam, pd2) is not None:
        missed.append("intervals (1,2) fails its own check")
    bad = dict(iv, m=iv["m"] + 1)
    expect_flag("wrong interval index", check_intervals(bad, lam, pd2))

    s, t2 = point_on(pd2, 3, F(1, 2))
    cl = run_query(["classify", "--n", "1", "--ell", "2", "--m-range=-3..3", f"--s={s}", f"--t2={t2}"])
    if check_classify(cl, 1, 2, s, t2, 3, pd2) is not None:
        missed.append("classify fails its own check")
    expect_flag("wrong label", check_classify(dict(cl, m=2), 1, 2, s, t2, 3, pd2))

    act = run_query(["act", "--n", "1", "--g", pd2.matrix_text(3), "--v", "1,2,3"])
    if check_act(act, 1, (1, 2, 3), F(pd2.eps) ** 3) is not None:
        missed.append("act fails its own check")
    r, d, a = parse_vec(act["image"])
    expect_flag("perturbed image", check_act(dict(act, image=f"{r},{d},{a + 1}"), 1, (1, 2, 3), F(pd2.eps) ** 3))

    z = ((F(1, 3), F(1, 5)), (F(2), F(0)))
    mob = run_query(["mobius", "--n", "2", "--g", pd23.matrix_text(2), "--z", "1/3+1/5*sqrt(2)+2*i"])
    if check_mobius(mob, pd23, 2, z) is not None:
        missed.append("mobius fails its own check")
    expect_flag("perturbed Moebius image", check_mobius(dict(mob, image="(1)+(1)*i"), pd23, 2, z))

    pd3 = PellData(1, 3)
    s0 = pd3.cross_section()
    listing = run_query(["walls", "--n", "1", "--v", "1,0,-3", f"--s0={s0}"])
    shapes = [shape_of_record(r) for r in listing["walls"]]
    ver = run_query(["verify", "--n", "1", "--ell", "3"])
    if check_verify(ver, 1, 3, pd3, shapes, scan) is not None:
        missed.append("verify (1,3) fails its own check")
    expect_flag("flipped verdict", check_verify(dict(ver, agree=not ver["agree"]), 1, 3, pd3, shapes, scan))

    svg = '<svg xmlns="http://www.w3.org/2000/svg"><circle r="1"/></svg>\n'
    expect_flag("unstable SVG", check_svg(svg, {"walls": [{}]}, svg + " "))
    expect_flag("broken SVG", check_svg("<svg>", {"walls": []}, None))
    return missed


def point_on(pd, m, u):
    """The point of C_m at fraction u of the way between its ends."""
    lam1, lam2 = pd.endpoints(m)
    s = lam1 + u * (lam2 - lam1)
    center, radius_sq = (lam1 + lam2) / 2, ((lam1 - lam2) / 2) ** 2
    return s, radius_sq - (s - center) ** 2


if __name__ == "__main__":
    # standalone self-test: python3 bench/checks.py (from the repository root)
    import io
    import json
    import os
    import sys
    from contextlib import redirect_stdout

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from stabwalls import cli

    def run_query(argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli.main(argv)
        return json.loads(buf.getvalue())

    missed = self_test(run_query)
    try:
        from sympy.solvers.diophantine.diophantine import diop_DN
    except ImportError:
        diop_DN = None
    if diop_DN is not None:  # optional second opinion on the unit solve
        for dd in (2, 3, 7, 13, 61, 94, 109, 139):
            sols = diop_DN(dd, -1) or diop_DN(dd, 1)
            if tuple(sorted(sols)[0]) != fundamental_unit(dd):
                missed.append(f"fundamental unit of {dd} disagrees with sympy")
    print(json.dumps({"self_test": "ok" if not missed else "failed", "missed": missed}))
    sys.exit(1 if missed else 0)
