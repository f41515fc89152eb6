import itertools
import math
import random
from fractions import Fraction

import pytest

from adlv import sigma as sg
from adlv.affine import affine_context
from adlv.alcoves import pair_two_rho
from adlv.engine import newton_orbit
from adlv.roots import build_root_datum, semistandard_parabolics, standard_parabolic
from adlv.snf import integer_kernel, solve_integer


def test_newton_points(a2_ctx, gl2_ctx):
    ctx = a2_ctx
    b = ctx.parse("t[2,0,-2]")
    assert sg.newton_point(ctx, b) == (2, 0, -2)
    # translations: the dominant conjugate
    assert sg.newton_point(ctx, ctx.from_translation((-1, 0, 1))) == (1, 0, -1)
    # GL2: eps^{(1,0)} s1 has the half-integral average
    assert sg.newton_point(gl2_ctx, gl2_ctx.parse("t[1,0]*s1")) == \
        (Fraction(1, 2), Fraction(1, 2))


def test_classify_basic_identity(a2_ctx):
    c = sg.classify(a2_ctx, a2_ctx.identity)
    assert sg.is_basic(a2_ctx.datum, c)
    assert c.kappa == a2_ctx.datum.lambda_g.zero()
    assert all(v == 0 for v in c.newton)


def test_classify_distinguishes_the_two_key_classes(a2_ctx):
    # the aligned pair: same component, different Newton points, so the
    # emptiness assertion between them is non-vacuous
    ctx = a2_ctx
    c1 = sg.classify(ctx, ctx.parse("t[3,1,-4]*s1*s2*s1"))
    c2 = sg.classify(ctx, ctx.parse("t[2,0,-2]"))
    assert c1.kappa == c2.kappa == ctx.datum.lambda_g.zero()
    assert c1.newton != c2.newton
    assert c1.newton == (1, Fraction(-1, 2), Fraction(-1, 2))


def brute_enumerate(ctx, bound, box, wmax=None):
    """Independent oracle: classify eps^lam w over a box of cocharacters."""
    datum = ctx.datum
    seen = {}
    for w in datum.weyl.elements():
        for lam in itertools.product(range(-box, box + 1), repeat=datum.d):
            if datum.central is not None and not 0 <= sum(lam) < datum.d:
                continue
            x = ctx.intern(lam, w)
            nu = sg.newton_point(ctx, x)
            if pair_two_rho(datum, nu) > bound:
                continue
            c = sg.classify(ctx, x)
            seen[c.key()] = c
    return seen


def test_enumerate_classes_sl2():
    d = build_root_datum("A", 1, "SL")
    ctx = affine_context(d)
    got = {c.key() for c in sg.enumerate_classes(ctx, 2)}
    want = brute_enumerate(ctx, 2, 3)
    assert got == set(want)
    basics = [c for c in sg.enumerate_classes(ctx, 2) if sg.is_basic(d, c)]
    others = [c for c in sg.enumerate_classes(ctx, 2) if not sg.is_basic(d, c)]
    assert len(basics) == 2
    assert sorted(c.newton for c in others) == [
        (Fraction(1, 2), Fraction(-1, 2)), (1, -1)]


def test_enumerate_matches_brute_oracle(a2_ctx, c2_ctx):
    for ctx, bound, box in ((a2_ctx, 4, 4), (c2_ctx, 4, 4)):
        got = {c.key() for c in sg.enumerate_classes(ctx, bound)}
        want = set(brute_enumerate(ctx, bound, box))
        assert got == want


def test_bound_zero_is_lambda_g(a2_ctx, c2_ctx, gl3_ctx):
    for ctx in (a2_ctx, c2_ctx):
        cls = sg.enumerate_classes(ctx, 0)
        assert len(cls) == ctx.datum.lambda_g.order()
        assert all(sg.is_basic(ctx.datum, c) for c in cls)
    # GL3: the basic classes of slope bound 0 are the integral central ones;
    # one per kappa in a window is enough to check distinctness
    cls = sg.enumerate_classes(gl3_ctx, 0)
    assert all(sg.is_basic(gl3_ctx.datum, c) for c in cls)
    assert len({c.kappa for c in cls}) == len(cls) >= 3


def reference_enumerate_classes(ctx, bound):
    """
    The earlier scan, kept as a reference for enumerate_classes: per normal
    form, the average over W_M one Weyl element at a time, then both tests
    on the Newton point in Fractions.
    """
    datum = ctx.datum
    out = {}
    subsets = [frozenset()]
    for ri in datum.simple_idx:
        subsets = subsets + [s | {ri} for s in subsets]
    for home in subsets:
        p = standard_parabolic(datum, home)
        lat = p.lattice
        outside = [ri for ri in datum.simple_idx if ri not in home]
        for nf in lat.window(bound + 2):
            lam = lat.lift(nf)
            acc = [Fraction(0)] * datum.d
            for w in p.w_m:
                acc = [a + b for a, b in zip(acc, datum.weyl.apply(w, lam))]
            nu = datum.coweight_nf_frac(tuple(a / len(p.w_m) for a in acc))
            if any(datum.pairing(ri, nu) <= 0 for ri in outside):
                continue
            if sum(Fraction(t) * v for t, v in zip(datum.two_rho, nu)) > bound:
                continue
            c = sg.SigmaConjClass(nu, datum.lambda_g.normal_form(lam), home,
                                  lat.normal_form(lam))
            out.setdefault(c.key(), c)
    return sorted(out.values(), key=lambda c: (pair_two_rho(datum, c.newton), c.key()))


@pytest.mark.parametrize("spec,bound", [(("A", 2, "SL"), 6), (("C", 2, ""), 6),
                                        (("G", 2, ""), 8), (("GL", 3, ""), 4),
                                        (("GL", 4, ""), 2), (("D", 4, ""), 3)])
def test_enumerate_classes_matches_fraction_scan(spec, bound):
    # the integer averaging matrix against the per-element Fraction scan:
    # same classes, same home data, same order
    ctx = affine_context(build_root_datum(*spec))
    got = sg.enumerate_classes(ctx, bound)
    assert len(got) > 1
    assert got == reference_enumerate_classes(ctx, bound)


def test_gl3_duality_closure(gl3_ctx):
    ctx = gl3_ctx
    datum = ctx.datum
    cls = sg.enumerate_classes(ctx, 4)
    keys = {c.key() for c in cls}
    w0 = datum.weyl.w0
    for c in cls:
        dual_nu = datum.dominant(tuple(-v for v in datum.weyl.apply(w0, c.newton)))
        dual_kappa = datum.lambda_g.neg(c.kappa)
        dual = sg.class_from_invariants(datum, dual_nu, dual_kappa)
        assert dual.key() in keys


def test_standard_representatives(a2_ctx, gl2_ctx):
    # basic GL2 class of slope 1/2
    c = sg.classify(gl2_ctx, gl2_ctx.parse("t[1,0]*s1"))
    assert gl2_ctx.format(sg.standard_representative(gl2_ctx, c)) == "t[1,0]*s1"
    # dominant regular translation class: the translation itself
    lam = (2, 1, -3)
    c2 = sg.classify(a2_ctx, a2_ctx.from_translation(lam))
    assert sg.standard_representative(a2_ctx, c2) == a2_ctx.from_translation(lam)


def test_gl4_two_block_representative():
    d = build_root_datum("GL", 4)
    ctx = affine_context(d)
    c = sg.class_from_invariants(d, (1, 1, Fraction(1, 2), Fraction(1, 2)),
                                 d.lambda_g.normal_form((1, 1, 1, 0)))
    rep = sg.standard_representative(ctx, c)
    lam, w = ctx.translation(rep), ctx.finite(rep)
    assert lam == (1, 1, 1, 0)
    assert d.weyl.order_of(w) == 2
    assert d.is_dominant(lam)
    from adlv.alcoves import is_fundamental_p_alcove
    assert is_fundamental_p_alcove(ctx, rep, standard_parabolic(d, c.home_simple))


def test_classify_standard_rep_roundtrip(a2_ctx, c2_ctx, gl3_ctx):
    for ctx in (a2_ctx, c2_ctx, gl3_ctx):
        for c in sg.enumerate_classes(ctx, 6):
            rep = sg.standard_representative(ctx, c)
            assert sg.classify(ctx, rep).key() == c.key()


def test_fundamental_representatives(a2_ctx, gl3_ctx):
    # trivial class: the identity alcove with P = G
    c = sg.classify(a2_ctx, a2_ctx.identity)
    x0, p0 = sg.fundamental_representative(a2_ctx, c)
    assert x0 == a2_ctx.identity and p0.is_full
    # regular dominant translation: itself, for a Borel
    lam = (2, 1, -3)
    c2 = sg.classify(a2_ctx, a2_ctx.from_translation(lam))
    x0, p0 = sg.fundamental_representative(a2_ctx, c2)
    assert x0 == a2_ctx.from_translation(lam)
    assert len(p0.levi_simple) == 0
    # GL3 block class whose standard representative is already fundamental
    cg = sg.class_from_invariants(gl3_ctx.datum, (1, Fraction(1, 2), Fraction(1, 2)),
                                  gl3_ctx.datum.lambda_g.normal_form((1, 1, 0)))
    x0, p0 = sg.fundamental_representative(gl3_ctx, cg)
    assert x0 == sg.standard_representative(gl3_ctx, cg)
    # every representative classifies back
    for ctx in (a2_ctx, gl3_ctx):
        for c in sg.enumerate_classes(ctx, 4):
            x0, p0 = sg.fundamental_representative(ctx, c)
            from adlv.alcoves import is_fundamental_p_alcove
            assert is_fundamental_p_alcove(ctx, x0, p0)
            assert sg.classify(ctx, x0).key() == c.key()


def test_defect(a2_ctx, gl2_ctx, gl3_ctx):
    # translation classes have defect zero
    for lam in [(1, 0, -1), (2, 1, -3)]:
        c = sg.classify(a2_ctx, a2_ctx.from_translation(lam))
        assert sg.defect(a2_ctx, c) == 0
    # superbasic GL_n: n - gcd(m, n) = n - 1
    c2 = sg.classify(gl2_ctx, gl2_ctx.parse("t[1,0]*s1"))
    assert sg.defect(gl2_ctx, c2) == 1
    c3 = sg.class_from_invariants(
        gl3_ctx.datum, (Fraction(1, 3),) * 3, gl3_ctx.datum.lambda_g.normal_form((1, 0, 0)))
    assert sg.defect(gl3_ctx, c3) == 2
    # GL4 with blocks (3, 1): defect 4 - (1 + 1) = 2
    d4 = build_root_datum("GL", 4)
    c4 = sg.class_from_invariants(
        d4, (Fraction(1, 3),) * 3 + (0,), d4.lambda_g.normal_form((1, 0, 0, 0)))
    assert sg.defect(affine_context(d4), c4) == 2


def test_eta_omega_bijection(a2_ctx, c2_ctx):
    for ctx in (a2_ctx, c2_ctx):
        om = ctx.omega_g_elements()
        vals = {ctx.omega_class(x) for x in om.values()}
        assert len(vals) == len(om) == ctx.datum.lambda_g.order()


def test_grassmannian_criterion(a2_ctx):
    ctx = a2_ctx
    d = ctx.datum
    mu = (1, 0, -1)
    c = sg.classify(ctx, ctx.from_translation(mu))
    assert sg.grassmannian_nonempty(ctx, mu, c)
    # a non-dominant mu is an explicit error, which also holds under -O
    with pytest.raises(ValueError, match="dominant"):
        sg.grassmannian_nonempty(ctx, (-1, 0, 1), c)
    # SL2-like check inside A1
    d1 = build_root_datum("A", 1, "SL")
    c1x = affine_context(d1)
    av = d1.coroots[0]
    basic0 = sg.classify(c1x, c1x.identity)
    basic1 = sg.basic_class_of_component(c1x, (0, 1))
    assert sg.grassmannian_nonempty(c1x, av, basic0)
    assert not sg.grassmannian_nonempty(c1x, av, basic1)
    assert sg.grassmannian_dim_basic(c1x, av, basic0) == 1
    with pytest.raises(ValueError):
        nb = next(c for c in sg.enumerate_classes(c1x, 2) if not sg.is_basic(d1, c))
        sg.grassmannian_dim_basic(c1x, av, nb)


def test_newton_and_kappa_conjugation_invariant(c2_ctx):
    ctx = c2_ctx
    rng = random.Random(21)
    els = [ctx.from_word(tuple(rng.randrange(3) for _ in range(rng.randrange(8))))
           for _ in range(25)]
    for x in els[:12]:
        for g in els[:12]:
            y = ctx.conj(g, x)
            assert sg.newton_point(ctx, y) == sg.newton_point(ctx, x)
            assert ctx.omega_class(y) == ctx.omega_class(x)


def test_newton_functorial_through_levi(a2_ctx):
    # for x in the Levi's affine Weyl group, the M-average dominizes to the
    # G-Newton point
    ctx = a2_ctx
    d = ctx.datum
    from adlv.alcoves import newton_vector
    p = standard_parabolic(d, frozenset({d.simple_idx[0]}))
    rng = random.Random(23)
    for _ in range(25):
        lam = tuple(rng.randint(-3, 3) for _ in range(3))
        w = rng.choice(sorted(p.w_m))
        x = ctx.intern(lam, w)
        assert d.dominant(newton_vector(ctx, x)) == sg.newton_point(ctx, x)


def test_enumerate_distinct_invariants(c2_ctx):
    cls = sg.enumerate_classes(c2_ctx, 8)
    pairs = {(c.newton, c.kappa) for c in cls}
    assert len(pairs) == len(cls)


def test_lambda_m_pushes_to_kappa(a2_ctx, c2_ctx, gl3_ctx):
    # the Lambda_M datum of every class maps to its kappa under
    # Lambda_M -> Lambda_G
    for ctx in (a2_ctx, c2_ctx, gl3_ctx):
        datum = ctx.datum
        for c in sg.enumerate_classes(ctx, 6):
            p = standard_parabolic(datum, c.home_simple)
            assert datum.lambda_g.normal_form(p.lattice.lift(c.lambda_m)) == c.kappa


def reference_levi_classes(datum, m_root_idxs, nu):
    """
    The earlier scan, kept as a reference: every central shift k in
    [-2d, 2d], and all combinations with coefficients in [-3, 3] of an
    integer kernel basis added to each solution.
    """
    nu = datum.coweight_nf_frac(nu)
    m1 = frozenset(i for i in m_root_idxs if datum.pairing(i, nu) == 0)
    wm1 = sorted(datum.reflection_subgroup(m1))
    d, n = datum.d, len(wm1)
    cols = []
    for j in range(d):
        e = tuple(int(t == j) for t in range(d))
        cols.append([sum(datum.weyl.apply(w, e)[t] for w in wm1) for t in range(d)])
    denom = n
    for v in nu:
        q = Fraction(v).denominator
        denom = denom * q // math.gcd(denom, q)
    mat = [[v * (denom // n) for v in col] for col in cols]
    base = [v * denom for v in nu]
    if datum.central is None:
        targets = [base]
    else:
        targets = [[b + Fraction(k * denom, d) * c for b, c in zip(base, datum.central)]
                   for k in range(-2 * d, 2 * d + 1)]
    sols = [solve_integer(mat, [int(v) for v in t]) for t in targets
            if all(v.denominator == 1 for v in t)]
    ker = integer_kernel(mat)
    out = set()
    for s in (s for s in sols if s is not None):
        for coeffs in itertools.product(range(-3, 4), repeat=len(ker)):
            out.add(tuple(s[t] + sum(c * b[t] for c, b in zip(coeffs, ker))
                          for t in range(d)))
    return m1, out


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, ""), ("G", 2, ""),
                                  ("A", 3, ""), ("B", 3, ""), ("GL", 3, ""),
                                  ("GL", 4, "")])
def test_levi_classes_match_reference_scan(spec):
    # the torsion coset against the earlier radius-3 scan, on every
    # semistandard Levi over the Newton orbit of every class of slope <= 3
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    levis = {p.r_m for p in semistandard_parabolics(datum)}
    nus = {nu for c in sg.enumerate_classes(ctx, 3) for nu in newton_orbit(ctx, c.newton)}
    assert len(levis) > 1 and len(nus) > 1
    for r_m in sorted(levis, key=sorted):
        for nu in sorted(nus):
            m1, want = reference_levi_classes(datum, r_m, nu)
            lat = datum.levi_lattice_quotient(m1)
            got = sg.levi_classes_with_newton(datum, r_m, nu)
            assert {lat.normal_form(v) for v in got} == \
                {lat.normal_form(v) for v in want}, (r_m, nu)
            if got:
                assert len(got) == len(list(lat.window(0))), (r_m, nu)
