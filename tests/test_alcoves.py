import itertools
import random
from fractions import Fraction

import pytest

from adlv import alcoves as al
from adlv import roots
from adlv.affine import affine_context
from adlv.roots import (SemistdParabolic, build_root_datum, semistandard_parabolics,
                        standard_parabolic)
from conftest import P_ALCOVE_DATA, ball_with_omega, pair_two_rho_n, twisted_ball


def s1_p2_parabolic(a2):
    """The conjugate-by-s1 of the standard parabolic with Levi {alpha_2}."""
    s1 = a2.reflection_index(a2.simple_idx[0])
    return SemistdParabolic(a2, s1, frozenset({a2.simple_idx[1]}))


def test_identity_is_p_alcove_for_all(a2_ctx):
    for p in semistandard_parabolics(a2_ctx.datum):
        assert al.is_p_alcove(a2_ctx, a2_ctx.identity, p).verdict


def test_p_alcove_inequalities(a2, a2_ctx):
    # x = eps^mu s1s2s1 is a P-alcove iff mu_2 - mu_1 >= -1 and mu_2 - mu_3 >= 1
    P = s1_p2_parabolic(a2)
    s121 = next(w for w in a2.weyl.elements() if a2.weyl.length[w] == 3)
    for mu in itertools.product(range(-4, 5), repeat=3):
        if sum(mu) != 0:
            continue
        x = a2_ctx.intern(mu, s121)
        want = (mu[1] - mu[0] >= -1) and (mu[1] - mu[2] >= 1)
        assert al.is_p_alcove(a2_ctx, x, P).verdict == want
    assert al.is_p_alcove(a2_ctx, a2_ctx.intern((0, 1, -1), s121), P).verdict


def test_no_proper_p_alcove_for_generic_element(a2_ctx):
    x = a2_ctx.parse("t[3,1,-4]*s1*s2*s1")
    for p in semistandard_parabolics(a2_ctx.datum):
        if p.is_full:
            continue
        assert not al.is_p_alcove(a2_ctx, x, p).verdict


def test_failure_witnesses_explain_verdict(a2_ctx):
    P = s1_p2_parabolic(a2_ctx.datum)
    s121 = next(w for w in a2_ctx.datum.weyl.elements()
                if a2_ctx.datum.weyl.length[w] == 3)
    rep = al.is_p_alcove(a2_ctx, a2_ctx.intern((3, 0, -3), s121), P)
    assert not rep.verdict
    assert rep.witnesses
    for (r, kx, kb) in rep.witnesses:
        assert kx < kb


def test_strict_p_alcove(a2_ctx):
    P = s1_p2_parabolic(a2_ctx.datum)
    s121 = next(w for w in a2_ctx.datum.weyl.elements()
                if a2_ctx.datum.weyl.length[w] == 3)
    x_eq = a2_ctx.intern((2, 1, -3), s121)   # attains equality in one bound
    assert al.is_p_alcove(a2_ctx, x_eq, P).verdict
    assert not al.is_p_alcove(a2_ctx, x_eq, P, strict=True).verdict
    x_str = a2_ctx.intern((0, 2, -2), s121)
    assert al.is_p_alcove(a2_ctx, x_str, P, strict=True).verdict


@pytest.mark.parametrize("spec", P_ALCOVE_DATA)
def test_p_alcove_witness_rows(spec):
    # is_p_alcove against its definition from k_alpha: a finite part
    # outside W_M is one row; otherwise one row (r, k(r, x.a), k(r, a)) per
    # root r of N, in index order, that breaks the (strict) inequality
    ctx = affine_context(build_root_datum(*spec))
    seen = set()
    for x in twisted_ball(ctx, 4):
        for p in semistandard_parabolics(ctx.datum):
            for strict in (False, True):
                if ctx.finite(x) not in p.w_m:
                    rows = [("finite part not in W_M", None, None)]
                else:
                    rows = [(r, ctx.k_alpha(r, x), ctx.k_alpha(r, ctx.identity))
                            for r in sorted(p.r_n)]
                    rows = [(r, kx, kb) for r, kx, kb in rows
                            if not (kx > kb if strict else kx >= kb)]
                rep = al.is_p_alcove(ctx, x, p, strict)
                assert (rep.verdict, rep.witnesses) == (not rows, rows), \
                    (spec, ctx.format(x), p, strict)
                seen.add((strict, not rows, bool(rows) and rows[0][1] is None))
    # accepted, rejected outside W_M and rejected with violation rows, both ways
    assert seen == {(strict, ok, wm) for strict in (False, True)
                    for ok, wm in ((True, False), (False, True), (False, False))}


def test_acute_cones_basic(a2_ctx):
    ctx = a2_ctx
    for w in ctx.datum.weyl.elements():
        assert al.acute_cone_contains(ctx, ctx.identity, w)
    x = ctx.from_translation((2, 1, -3))
    assert al.acute_cone_contains(ctx, x, 0)


def test_region_is_union_of_acute_cones(c2_ctx):
    # exhaustive at moderate radius; the acceptance suite pushes it further
    ctx = c2_ctx
    xs = ball_with_omega(ctx, 7)
    for p in semistandard_parabolics(ctx.datum):
        dirs = al.cone_directions(ctx.datum, p)
        for x in xs:
            lhs = al.in_region_p(ctx, x, p)
            rhs = any(al.acute_cone_contains(ctx, x, w) for w in dirs)
            assert lhs == rhs


def test_region_p_omega_invariance(c2_ctx):
    ctx = c2_ctx
    om = list(ctx.omega_g_elements().values())
    xs = ball_with_omega(ctx, 5)
    for p in semistandard_parabolics(ctx.datum):
        for x in xs[:60]:
            for tau in om:
                assert al.in_region_p(ctx, x, p) == \
                    al.in_region_p(ctx, ctx.mul(x, tau), p)


def test_shrunken(c2_ctx, a2_ctx):
    assert not al.is_shrunken(c2_ctx, c2_ctx.identity)
    x = a2_ctx.from_translation((2, 1, -3))
    assert al.is_shrunken(a2_ctx, x)


def test_eta_maps(a2_ctx):
    ctx = a2_ctx
    lam = (2, 1, -3)  # dominant regular
    x = ctx.from_translation(lam)
    assert al.eta1(ctx, x) == 0
    assert al.eta2(ctx, x) == 0
    # deep antidominant alcoves have eta2 = w0
    w0 = ctx.datum.weyl.w0
    y = ctx.from_translation((-3, -1, 4))
    assert al.eta2(ctx, y) == w0
    # eta1 is the projection
    for word in [(0, 1), (1, 2, 1), (0, 2, 0, 1)]:
        z = ctx.from_word(word)
        assert al.eta1(ctx, z) == ctx.finite(z)


def reference_eta2(ctx, xid):
    """
    eta_2 by the chamber walk on an exact interior point of x.a, the image of
    the barycenter of the base alcove: reflect the point in each simple wall
    it lies below, and multiply u by that reflection on the right.
    """
    datum = ctx.datum
    W = datum.weyl
    verts = datum.base_alcove_vertices()
    base = [sum(col) / len(verts) for col in zip(*verts)]
    lam, w = ctx._elts[xid]
    pt = [a + b for a, b in zip(W.apply(w, base), lam)]
    u = 0
    moved = True
    while moved:
        moved = False
        for pos, ri in enumerate(datum.simple_idx):
            val = datum.pairing(ri, pt)
            assert val != 0, "an alcove point on a chamber wall"
            if val < 0:
                pt = [c - val * cr for c, cr in zip(pt, datum.coroots[ri])]
                u = W.rmul[u][pos]
                moved = True
    return u


@pytest.mark.parametrize("spec", sorted(roots.SUPPORTED) + [
    ("A", 2, "coroot"), ("B", 2, "coroot"), ("C", 2, "coroot"), ("G", 2, "coroot")],
    ids=lambda s: "".join(map(str, s)))
def test_eta2_matches_the_chamber_walk(spec):
    ctx = affine_context(build_root_datum(*spec))
    xs = ball_with_omega(ctx, 6 if ctx.datum.weyl.rank <= 2 else 3)
    assert [al.eta2(ctx, x) for x in xs] == [reference_eta2(ctx, x) for x in xs]


def test_minimal_levis(a2_ctx):
    ctx = a2_ctx
    d = ctx.datum
    # regular dominant translation: both Levis are the torus, P+ a Borel
    mm, mp, plist = al.minimal_levis(ctx, ctx.from_translation((2, 1, -3)))
    assert mm == frozenset() and mp == frozenset()
    assert all(len(p.levi_simple) == 0 for p in plist)
    # Coxeter finite part: contained in no proper Levi
    cox = ctx.from_word((1, 2))
    mm, mp, _ = al.minimal_levis(ctx, cox)
    assert len(mm) == len(d.roots) and len(mp) == len(d.roots)
    # the Levi-{alpha_2}-conjugate example: M+ inside that Levi
    P = s1_p2_parabolic(d)
    s121 = next(w for w in d.weyl.elements() if d.weyl.length[w] == 3)
    x = ctx.intern((0, 1, -1), s121)
    mm, mp, plist = al.minimal_levis(ctx, x)
    assert mp <= P.r_m
    assert any(p.r_n == P.r_n for p in plist)


def test_fundamental_p_alcoves_and_nu(gl3_ctx):
    ctx = gl3_ctx
    d = ctx.datum
    for p in semistandard_parabolics(d):
        assert al.is_fundamental_p_alcove(ctx, ctx.identity, p)
        assert al.nu_x(ctx, ctx.identity, p) == tuple(Fraction(0) for _ in range(3))
    # GL3, M = GL2 x GL1, x = eps^{(1,0,0)} s1: nu = (1/2,1/2,0),
    # <2 rho_N, nu> = 1 = ell(x)
    p = standard_parabolic(d, frozenset({d.simple_idx[0]}))
    s1 = d.reflection_index(d.simple_idx[0])
    x = ctx.intern((1, 0, 0), s1)
    assert al.is_fundamental_p_alcove(ctx, x, p)
    nu = al.nu_x(ctx, x, p)
    assert nu == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
    assert pair_two_rho_n(p, nu) == 1 == ctx.length(x)


def test_gl_standard_block_reps_are_fundamental(gl3_ctx):
    # dominant translation part iff k_i > k_{i+1} whenever the next block is
    # genuinely fractional; then the standard representative is fundamental
    from adlv import sigma as sg
    ctx = gl3_ctx
    d = ctx.datum
    c = sg.class_from_invariants(d, (1, Fraction(1, 2), Fraction(1, 2)),
                                 d.lambda_g.normal_form((1, 1, 0)))
    rep = sg.standard_representative(ctx, c)
    p = standard_parabolic(d, c.home_simple)
    assert d.is_dominant(ctx.translation(rep))
    assert al.is_fundamental_p_alcove(ctx, rep, p)


def test_omega_p_monoid(c2_ctx, gl3_ctx):
    rng = random.Random(17)
    for ctx in (c2_ctx, gl3_ctx):
        for p in semistandard_parabolics(ctx.datum):
            els = al.omega_p_elements(ctx, p, 2)
            for x in els:
                assert ctx.length(x) == pair_two_rho_n(p, al.nu_x(ctx, x, p))
            for _ in range(min(40, len(els) ** 2)):
                x = rng.choice(els)
                y = rng.choice(els)
                xy = ctx.mul(x, y)
                assert al.is_fundamental_p_alcove(ctx, xy, p)
                assert ctx.length(xy) == ctx.length(x) + ctx.length(y)
                assert al.nu_x(ctx, xy, p) == tuple(
                    a + b for a, b in zip(al.nu_x(ctx, x, p), al.nu_x(ctx, y, p)))


def test_chamber_levi_compatibility(c2_ctx):
    # (a) x in W~_M and P containing the eta_2-chamber Borel => P-alcove;
    # (b) shrunken P-alcoves only for P containing that Borel
    ctx = c2_ctx
    datum = ctx.datum
    npos = datum.nposroots
    xs = ball_with_omega(ctx, 6)
    for x in xs:
        u = al.eta2(ctx, x)
        upos = {datum.weyl.root_act[u][i] for i in range(npos)}
        for p in semistandard_parabolics(datum):
            contains_borel = p.r_n <= upos
            if contains_borel and ctx.finite(x) in p.w_m:
                assert al.is_p_alcove(ctx, x, p).verdict
            if al.is_shrunken(ctx, x) and al.is_p_alcove(ctx, x, p).verdict:
                assert contains_borel


def test_nu_x_rejects_non_omega(a2_ctx):
    p = standard_parabolic(a2_ctx.datum, frozenset(a2_ctx.datum.simple_idx))
    with pytest.raises(ValueError):
        al.nu_x(a2_ctx, a2_ctx.from_word((1,)), p)
