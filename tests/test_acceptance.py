"""
Acceptance suite: one test per exit criterion, each printing a PASS line.
All comparisons are exact; the sweep cutoffs quoted in the criteria are
hard-coded here.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from adlv import engine as eng
from adlv import sigma as sg
from adlv.affine import affine_context
from adlv.alcoves import is_p_alcove, is_shrunken, nu_x, omega_p_elements, pair_two_rho
from adlv.hecke import Hecke, poly_deg
from adlv.roots import (SemistdParabolic, build_root_datum, semistandard_parabolics,
                        standard_parabolic)
from conftest import affine_ball, ball_with_omega, pair_two_rho_n


def report(name, detail):
    print(f"\nACCEPTANCE PASS {name}: {detail}")


def test_criterion_01_emptiness_beyond_obstructions(a2_ctx):
    """SL3: x >= b yet X_x(b) stays empty up to the cutoff, with no P-alcove."""
    t0 = time.time()
    ctx = a2_ctx
    x_word = ctx.from_word((0, 1, 2, 1, 0, 1, 2, 0, 1, 2, 0))
    x = ctx.parse("t[3,1,-4]*s1*s2*s1")
    assert x_word == x, "the two presentations must coincide"
    b = ctx.parse("t[2,0,-2]")
    cls = sg.classify(ctx, b)
    assert ctx.bruhat_leq(b, x)
    for p in semistandard_parabolics(ctx.datum):
        if not p.is_full:
            assert not is_p_alcove(ctx, x, p).verdict
    res = eng.solve(ctx, x, cls, cutoff=12)
    assert res.status == "empty-up-to-cutoff"
    report("1 (order-comparable yet empty)",
           f"x >= b, no proper P-alcove, no stratum to cutoff 12; "
           f"{time.time()-t0:.1f}s")


def test_criterion_02_levi_obstruction_cutout(a2, a2_ctx):
    """SL3: the Levi obstruction passes exactly on the four cocharacters."""
    t0 = time.time()
    ctx = a2_ctx
    cls = sg.class_from_invariants(a2, (1, Fraction(-1, 2), Fraction(-1, 2)),
                                   a2.lambda_g.zero())
    s1 = a2.reflection_index(a2.simple_idx[0])
    P = SemistdParabolic(a2, s1, frozenset({a2.simple_idx[1]}))
    s121 = next(w for w in a2.weyl.elements() if a2.weyl.length[w] == 3)
    passed = []
    for mu in itertools.product(range(-7, 8), repeat=3):
        if sum(mu) != 0:
            continue
        x = ctx.intern(mu, s121)
        if not is_p_alcove(ctx, x, P).verdict:
            continue
        if eng.necessary_condition(ctx, x, cls) is None:
            passed.append(mu)
    assert sorted(passed) == [(-1, 1, 0), (0, 1, -1), (1, 1, -2), (2, 1, -3)]
    report("2 (Levi obstruction)",
           f"exactly the four surviving cocharacters; {time.time()-t0:.2f}s")


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint")])
def test_criterion_03_translation_criterion(spec):
    """Translations: non-empty iff the class is the translation's own."""
    t0 = time.time()
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    classes = sg.enumerate_classes(ctx, 12)
    # all translations of length <= 12 (every omega component)
    lams = set()
    box = 7
    for lam in itertools.product(range(-box, box + 1), repeat=datum.d):
        x = ctx.from_translation(lam)
        if ctx.length(x) <= 12:
            lams.add(ctx.translation(x))
    checked = 0
    for lam in sorted(lams):
        x = ctx.from_translation(lam)
        own = sg.classify(ctx, x)
        for cls in classes:
            res = eng.solve(ctx, x, cls, cutoff=12)
            if cls.key() == own.key():
                assert res.status == "nonempty", (lam, cls.key())
            else:
                assert res.status == "empty-certified", (lam, cls.key(), res.status)
            checked += 1
    report(f"3 (translation criterion, {spec[0]}{spec[1]})",
           f"{len(lams)} translations x {len(classes)} classes = {checked} "
           f"decisions; {time.time()-t0:.1f}s")


def test_criterion_04_shrunken_rule_c2(c2_ctx):
    """C2, trivial class: the shrunken rule gives status and dimension."""
    t0 = time.time()
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    assert sg.defect(ctx, cls) == 0
    xs = [x for x in ball_with_omega(ctx, 14) if is_shrunken(ctx, x)]
    res = eng.survey_batch(ctx, cls, xs, cutoff=16)
    for x in xs:
        status, dim = eng.predict_shrunken(ctx, x, cls)
        r = res[x]
        if status == "empty":
            assert r.status == "empty-certified", ctx.format(x)
        else:
            assert r.status == "nonempty" and r.dim == dim, \
                (ctx.format(x), r.status, r.dim, dim)
    report("4a (shrunken rule, C2 length<=14)",
           f"{len(xs)} shrunken alcoves match exactly; {time.time()-t0:.1f}s")


def test_criterion_04_shrunken_rule_a3():
    """A3 substitute sweep: zero disagreements at length <= 10."""
    t0 = time.time()
    datum = build_root_datum("A", 3, "SL")
    ctx = affine_context(datum)
    cls = sg.classify(ctx, ctx.identity)
    ball = affine_ball(ctx, 10)
    xs = sorted((u for u in ball
                 if ctx.omega_class(u) == cls.kappa and is_shrunken(ctx, u)),
                key=lambda z: (ctx.length(z), ctx.format(z)))
    res = eng.survey_batch(ctx, cls, xs, cutoff=10)
    for x in xs:
        status, dim = eng.predict_shrunken(ctx, x, cls)
        r = res[x]
        if status == "empty":
            assert r.status == "empty-certified", ctx.format(x)
        else:
            assert r.status == "nonempty" and r.dim == dim, ctx.format(x)
    report("4b (shrunken rule, A3 length<=10)",
           f"{len(xs)} shrunken alcoves, zero disagreements; {time.time()-t0:.1f}s")


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint")])
def test_criterion_05_oracle_equivalence(spec):
    """Folding tables equal Hecke structure-constant degrees (P = G)."""
    t0 = time.time()
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    H = Hecke(ctx)
    pg = standard_parabolic(datum, frozenset(datum.simple_idx))
    ball = affine_ball(ctx, 8)
    oms = list(ctx.omega_g_elements().values())
    ws = sorted({ctx.mul(u, t) for u, l in ball.items() if l <= 6 for t in oms},
                key=lambda z: (ctx.length(z), ctx.format(z)))
    parents = {ctx.identity: None}
    for u in sorted(ball, key=ctx.length):
        if u == ctx.identity:
            continue
        for gi, g in enumerate(ctx.gens):
            v = ctx.mul(u, g)
            if ball.get(v, -1) == ball[u] - 1:
                parents[u] = (v, gi)
                break
    order = sorted(parents, key=ctx.length)
    checked = 0
    for w in ws:
        profile = eng.orientation_profile(ctx, pg, w)
        lw = ctx.length(w)
        fr = {ctx.identity: {ctx.identity: 0}}
        hk = {ctx.identity: H.t(w)}
        for u in order:
            if u == ctx.identity:
                continue
            par, gi = parents[u]
            fr[u] = eng.fold_step(ctx, fr[par], gi, profile)
            hk[u] = H.mul_gen(hk[par], ctx.gens[gi])
        for u in order:
            table, prod = fr[u], hk[u]
            assert len(prod) == len(table)
            for tau in oms:
                # x = u tau: T_w T_x = (T_w T_u) T_tau, tables shift by tau
                for y0, dim in table.items():
                    wy_len = ctx.length(ctx.mul(w, y0))
                    want = poly_deg(prod[ctx.mul(w, y0)]) + wy_len - lw
                    assert dim == want
                    checked += 1
    report(f"5 (oracle equivalence, {spec[0]}{spec[1]})",
           f"{checked} table entries equal Hecke degrees; {time.time()-t0:.1f}s")


def test_criterion_06_omega_p_properties(c2_ctx, gl3_ctx):
    """Fundamental-P-alcove monoids: closure, additivity, length formula."""
    t0 = time.time()
    rng = random.Random(61)
    total = 0
    gl4 = affine_context(build_root_datum("GL", 4))
    contexts = [(c2_ctx, 2, None), (gl3_ctx, 2, None), (gl4, 1, 20)]
    for ctx, bound, pcap in contexts:
        paras = semistandard_parabolics(ctx.datum)
        if pcap is not None:
            paras = paras[:pcap]
        for p in paras:
            els = omega_p_elements(ctx, p, bound)
            for x in els:
                assert ctx.length(x) == pair_two_rho_n(p, nu_x(ctx, x, p))
            pairs = [(rng.choice(els), rng.choice(els))
                     for _ in range(min(30, len(els) ** 2))]
            for x, y in pairs:
                xy = ctx.mul(x, y)
                assert ctx.finite(xy) in p.w_m and ctx.length_levi(xy, p) == 0
                assert is_p_alcove(ctx, xy, p).verdict  # monoid closure
                assert ctx.length(xy) == ctx.length(x) + ctx.length(y)
            total += len(els)
    report("6 (fundamental-alcove monoids)",
           f"{total} elements across C2/GL3/GL4 Levis; {time.time()-t0:.1f}s")


@pytest.mark.parametrize("spec", [("C", 2, "adjoint"), ("G", 2, "adjoint")])
def test_criterion_07_acute_cone_decomposition(spec):
    """The P-region is the union of acute cones over compatible directions."""
    from adlv.alcoves import acute_cone_contains, cone_directions, in_region_p
    t0 = time.time()
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    xs = ball_with_omega(ctx, 10)
    checked = 0
    for p in semistandard_parabolics(datum):
        dirs = cone_directions(datum, p)
        for x in xs:
            lhs = in_region_p(ctx, x, p)
            rhs = any(acute_cone_contains(ctx, x, w) for w in dirs)
            assert lhs == rhs
            checked += 1
    report(f"7 (acute cones, {spec[0]}{spec[1]})",
           f"{checked} (alcove, parabolic) pairs; {time.time()-t0:.1f}s")


def test_criterion_08_grassmannian_dimension(a2_ctx):
    """A2, trivial class: sup over the spherical double coset recovers the
    Grassmannian dimension <rho, mu> shifted by ell(w0)."""
    t0 = time.time()
    ctx = a2_ctx
    datum = ctx.datum
    cls = sg.classify(ctx, ctx.identity)
    w0len = datum.weyl.length[datum.weyl.w0]
    mus = set()
    for lam in itertools.product(range(-4, 5), repeat=3):
        nf = datum.coweight_nf(lam)
        if not datum.is_dominant(nf):
            continue
        if datum.lambda_g.normal_form(nf) != cls.kappa:
            continue
        if pair_two_rho(datum, nf) <= 8:
            mus.add(nf)
    assert len(mus) == 5
    for mu in sorted(mus):
        xs = set()
        tmu = ctx.from_translation(mu)
        for u in datum.weyl.elements():
            for v in datum.weyl.elements():
                gu = ctx.intern((0,) * 3, u)
                gv = ctx.intern((0,) * 3, v)
                xs.add(ctx.mul(ctx.mul(gu, tmu), gv))
        res = eng.survey_batch(ctx, cls, sorted(xs, key=ctx.length), cutoff=12)
        best = max((r.dim for r in res.values() if r.status == "nonempty"),
                   default=None)
        want = pair_two_rho(datum, mu) // 2 + w0len
        assert best == want, (mu, best, want)
    report("8 (Grassmannian dimensions)",
           f"5 dominant cocharacters match <rho,mu> + ell(w0); {time.time()-t0:.1f}s")


def test_criterion_09_classification_integrity():
    """classify o standard_representative = id; Omega bijection; defects."""
    t0 = time.time()
    specs = [("A", 1, "SL"), ("A", 2, "SL"), ("GL", 3, ""), ("C", 2, "adjoint")]
    n = 0
    for spec in specs:
        datum = build_root_datum(*spec)
        ctx = affine_context(datum)
        for c in sg.enumerate_classes(ctx, 8):
            rep = sg.standard_representative(ctx, c)
            assert sg.classify(ctx, rep).key() == c.key()
            n += 1
        if datum.lambda_g.order() is not None:
            om = ctx.omega_g_elements()
            vals = {ctx.omega_class(x) for x in om.values()}
            assert len(vals) == len(om) == datum.lambda_g.order()
    # superbasic defects follow the n - gcd rule
    gl2 = affine_context(build_root_datum("GL", 2))
    c12 = sg.classify(gl2, gl2.parse("t[1,0]*s1"))
    assert sg.defect(gl2, c12) == 1
    gl3 = affine_context(build_root_datum("GL", 3))
    for m in (1, 2):
        c = sg.class_from_invariants(gl3.datum, (Fraction(m, 3),) * 3,
                                     gl3.datum.lambda_g.normal_form((m, 0, 0)))
        assert sg.defect(gl3, c) == 2
    report("9 (classification integrity)",
           f"{n} classes round-trip; Omega bijections; superbasic defects; "
           f"{time.time()-t0:.1f}s")


def test_criterion_10_method_cross_agreement(c2_ctx):
    """C2, basic class with nonzero kappa: solve, superset and the P-alcove
    prediction agree wherever the solver is definite."""
    t0 = time.time()
    ctx = c2_ctx
    cls = sg.basic_class_of_component(ctx, (0, 1))
    xs = ball_with_omega(ctx, 10)
    res = eng.survey_batch(ctx, cls, xs, cutoff=12)
    sup = eng.superset(ctx, cls, 10)
    logged = 0
    for x in xs:
        r = res[x]
        pl, _cert = eng.predict_levi(ctx, x, cls)
        if r.status == "nonempty":
            assert x in sup, ctx.format(x)
            assert pl == "nonempty-predicted", ctx.format(x)
        elif r.status == "empty-certified":
            assert x not in sup, ctx.format(x)
            assert pl == "empty", ctx.format(x)
        else:
            logged += 1  # undecided: logged, never counted as disagreement
    report("10 (method cross-agreement)",
           f"{len(xs)} alcoves, {logged} undecided logged; {time.time()-t0:.1f}s")


def test_criterion_11_dimension_difference_report(a2_ctx, capsys):
    """Spot report: how often dim X_x(b) - dim X_x(b_basic) matches the
    slope correction -(<2rho,nu> + def(b) - def(b_b))/2.  No threshold."""
    t0 = time.time()
    ctx = a2_ctx
    datum = ctx.datum
    cls_b = sg.classify(ctx, ctx.from_translation((1, 0, -1)))
    cls_bb = sg.classify(ctx, ctx.identity)
    assert cls_b.kappa == cls_bb.kappa
    corr = (pair_two_rho(datum, cls_b.newton)
            + sg.defect(ctx, cls_b) - sg.defect(ctx, cls_bb)) / 2
    xs = [x for x in ball_with_omega(ctx, 12)
          if 6 <= ctx.length(x) <= 12 and ctx.omega_class(x) == cls_b.kappa]
    res_b = eng.survey_batch(ctx, cls_b, xs, cutoff=14)
    res_bb = eng.survey_batch(ctx, cls_bb, xs, cutoff=14)
    both = [x for x in xs
            if res_b[x].status == "nonempty" and res_bb[x].status == "nonempty"]
    hits = sum(1 for x in both
               if Fraction(res_b[x].dim - res_bb[x].dim) == -corr)
    frac = Fraction(hits, len(both)) if both else None
    report("11 (dimension-difference report)",
           f"fraction {hits}/{len(both)} = {float(frac):.3f} of doubly non-empty "
           f"x satisfy the slope correction {-corr}; {time.time()-t0:.1f}s")
    assert both, "the report must cover at least one doubly non-empty x"
