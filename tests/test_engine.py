import collections
import itertools
import random
from fractions import Fraction

import pytest

from adlv import engine as eng
from adlv import sigma as sg
from adlv.affine import affine_context
from adlv.alcoves import is_p_alcove, is_shrunken
from adlv.cli import parse_class_key, survey_elements
from adlv.hecke import Hecke
from adlv.roots import (RootDatum, SemistdParabolic, build_root_datum,
                        semistandard_levis, semistandard_parabolics,
                        standard_parabolic)
from conftest import (P_ALCOVE_DATA, affine_ball, ball_with_omega, structure_deg,
                      twisted_ball, wall_from_k_alpha)


def full_parabolic(datum):
    return standard_parabolic(datum, frozenset(datum.simple_idx))


def test_table_of_identity(a2_ctx):
    p = full_parabolic(a2_ctx.datum)
    t = eng.orbit_dim_table(a2_ctx, a2_ctx.identity, p, a2_ctx.identity)
    assert t == {a2_ctx.identity: 0}


def test_table_p_g_w_identity(a2_ctx):
    # Iwahori orbits are disjoint: the only entry is at x itself, with the
    # full orbit dimension ell(x) (matching deg C(x, x^{-1}, e))
    ctx = a2_ctx
    p = full_parabolic(ctx.datum)
    for word in [(0,), (1, 2), (0, 1, 2, 1)]:
        x = ctx.from_word(word)
        t = eng.orbit_dim_table(ctx, x, p, ctx.identity)
        assert t == {x: ctx.length(x)}


def test_table_rank_one_hand_computation():
    # A1, x = s, w = s: the orbit of the base alcove meets I.a_s in the q-1
    # branches (dimension 1); the s-alcove itself is the J-orbit of s (dim 0)
    d = build_root_datum("A", 1, "SL")
    ctx = affine_context(d)
    p = full_parabolic(d)
    s = ctx.gens[1]
    t = eng.orbit_dim_table(ctx, s, p, s)
    assert t == {ctx.identity: 1, s: 0}


def _check_trace_identity(ctx, H, x, w):
    # the fold table of x against w (P = G), checked against the Hecke
    # product T_w T_x through the trace identity
    # deg C(x, y^{-1}w^{-1}, w^{-1}) = deg (T_w T_x)[wy] + ell(wy) - ell(w);
    # returns the table
    from adlv.hecke import poly_deg
    table = eng.orbit_dim_table(ctx, x, full_parabolic(ctx.datum), w)
    prod = H.mul_basis(H.t(w), x)
    assert {ctx.mul(w, y) for y in table} == set(prod)
    lw = ctx.length(w)
    for y, dim in table.items():
        wy = ctx.mul(w, y)
        assert dim == poly_deg(prod[wy]) + ctx.length(wy) - lw
    return table


def test_oracle_equivalence_small(a2_ctx):
    # folding tables = Hecke structure-constant degrees, P = G
    ctx = a2_ctx
    H = Hecke(ctx)
    xs = ball_with_omega(ctx, 4)
    ws = [w for w in ball_with_omega(ctx, 3)]
    for x in xs:
        for w in ws:
            table = _check_trace_identity(ctx, H, x, w)
            # and the direct oracle on a sample of entries
            winv = ctx.inv(w)
            for y, dim in list(table.items())[:4]:
                assert dim == structure_deg(H, x, ctx.mul(ctx.inv(y), winv), winv)


def test_fold_is_hecke_degree_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from([("A", 2, "SL"), ("C", 2, "adjoint"),
                                ("G", 2, "adjoint"), ("GL", 2, "")]),
               st.lists(st.integers(0, 2), max_size=5),
               st.lists(st.integers(0, 2), max_size=4),
               st.integers(-2, 2), st.integers(-2, 2))
    def check(spec, x_word, w_word, x_omega, w_omega):
        ctx = affine_context(build_root_datum(*spec))
        try:
            omegas = sorted(ctx.omega_g_elements().values())
        except ValueError:
            omegas = [ctx.parse(f"tau^{k}") for k in range(-2, 3)]
        ngens = len(ctx.gens)
        x = ctx.from_word([i % ngens for i in x_word], omegas[x_omega % len(omegas)])
        w = ctx.from_word([i % ngens for i in w_word], omegas[w_omega % len(omegas)])
        assert ctx.length(x) <= 5 and ctx.length(w) <= 4
        _check_trace_identity(ctx, Hecke(ctx), x, w)

    check()


def test_at_infinity_tables(a2_ctx):
    # P = B: the at-infinity and periodic tables coincide (the Levi is the
    # torus, whose Iwahori fixes every apartment alcove)
    ctx = a2_ctx
    p0 = standard_parabolic(ctx.datum, frozenset())
    x = ctx.parse("t[1,0,-1]*s1")
    for w in ball_with_omega(ctx, 2):
        tp = eng.orbit_dim_table(ctx, x, p0, w, "periodic")
        ti = eng.orbit_dim_table(ctx, x, p0, w, "at-infinity")
        pprime = eng.conj_parabolic(p0, ctx.datum.weyl.inv[ctx.finite(w)])
        sub = {y: d for y, d in tp.items() if ctx.finite(y) in pprime.w_m}
        assert ti == sub
    # P = G: the at-infinity table is the single entry {x: 0}
    pg = full_parabolic(ctx.datum)
    ti = eng.orbit_dim_table(ctx, x, pg, ctx.identity, "at-infinity")
    assert ti == {x: 0}


def test_dim_stratum_translation_case(a2_ctx):
    # x = b = dominant regular translation: the w = e stratum is a point
    ctx = a2_ctx
    lam = (2, 1, -3)
    x = ctx.from_translation(lam)
    cls = sg.classify(ctx, x)
    assert dim_stratum(ctx, x, cls, ctx.identity) == 0


def test_dim_stratum_basic_has_no_correction(c2_ctx):
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    _b, _p, corr = eng.class_data(ctx, cls)
    assert corr == 0
    x = ctx.from_word((1, 2, 1))
    for w in ball_with_omega(ctx, 3):
        t = eng.orbit_dim_table(ctx, x, full_parabolic(ctx.datum), w)
        d = dim_stratum(ctx, x, cls, w, table=t)
        if d is not None:
            assert d >= 0
            return
    raise AssertionError("no stratum found at small w")


def test_solve_translation_criterion_small(a2_ctx):
    # nonempty iff the classes agree
    ctx = a2_ctx
    classes = sg.enumerate_classes(ctx, 4)
    for lam in [(0, 0, 0), (1, 0, -1), (1, 1, -2), (1, 0, 0)]:
        x = ctx.from_translation(lam)
        own = sg.classify(ctx, x)
        for cls in classes:
            res = eng.solve(ctx, x, cls, cutoff=6)
            if cls.key() == own.key():
                assert res.status == "nonempty"
            else:
                assert res.status == "empty-certified", (lam, cls.key(), res.status)


def test_solve_example_94(a2_ctx):
    ctx = a2_ctx
    x = ctx.parse("t[3,1,-4]*s1*s2*s1")
    b = ctx.parse("t[2,0,-2]")
    cls = sg.classify(ctx, b)
    assert ctx.bruhat_leq(b, x)
    res = eng.solve(ctx, x, cls, cutoff=6)
    assert res.status == "empty-up-to-cutoff"
    # while the variety for x's own class is nonempty
    res2 = eng.solve(ctx, x, sg.classify(ctx, x), cutoff=6)
    assert res2.status == "nonempty"


def test_necessary_condition_example_93(a2, a2_ctx):
    ctx = a2_ctx
    cls = sg.class_from_invariants(a2, (1, Fraction(-1, 2), Fraction(-1, 2)),
                                   a2.lambda_g.zero())
    s1 = a2.reflection_index(a2.simple_idx[0])
    P = SemistdParabolic(a2, s1, frozenset({a2.simple_idx[1]}))
    s121 = next(w for w in a2.weyl.elements() if a2.weyl.length[w] == 3)
    passed = []
    for mu in itertools.product(range(-6, 7), repeat=3):
        if sum(mu) != 0:
            continue
        x = ctx.intern(mu, s121)
        if not is_p_alcove(ctx, x, P).verdict:
            continue
        if eng.necessary_condition(ctx, x, cls) is None:
            passed.append(mu)
    assert sorted(passed) == [(-1, 1, 0), (0, 1, -1), (1, 1, -2), (2, 1, -3)]


def test_surviving_cocharacters_are_nonempty(a2, a2_ctx):
    # the four elements passing the obstruction really carry non-empty
    # varieties (the conjectural converse, confirmed by the sweep)
    ctx = a2_ctx
    cls = sg.class_from_invariants(a2, (1, Fraction(-1, 2), Fraction(-1, 2)),
                                   a2.lambda_g.zero())
    s121 = next(w for w in a2.weyl.elements() if a2.weyl.length[w] == 3)
    for mu in [(-1, 1, 0), (0, 1, -1), (1, 1, -2), (2, 1, -3)]:
        res = eng.solve(ctx, ctx.intern(mu, s121), cls, cutoff=10)
        assert res.status == "nonempty", mu


def test_necessary_condition_eta_targets_93(a2, a2_ctx):
    # the admissible Levi values come from the single Newton conjugate
    # (-1/2, 1, -1/2); they coincide with eta_M of the cocharacter (0,1,-1)
    cls = sg.class_from_invariants(a2, (1, Fraction(-1, 2), Fraction(-1, 2)),
                                   a2.lambda_g.zero())
    s1 = a2.reflection_index(a2.simple_idx[0])
    P = SemistdParabolic(a2, s1, frozenset({a2.simple_idx[1]}))
    targets = eng.levi_eta_targets(a2_ctx, P, cls)
    assert targets == {P.eta_m((0, 1, -1))}


def test_necessary_condition_no_levi_reduces_to_kappa(a2_ctx):
    # x contained in no proper Levi: only the component map can obstruct
    ctx = a2_ctx
    cox = ctx.from_word((1, 2))  # Coxeter finite part
    cls0 = sg.classify(ctx, ctx.identity)
    assert eng.necessary_condition(ctx, cox, cls0) is None
    om = ctx.omega_g_elements()
    other = next(k for k in om if k != ctx.datum.lambda_g.zero())
    cls1 = sg.basic_class_of_component(ctx, other)
    cert = eng.necessary_condition(ctx, cox, cls1)
    assert cert is not None and cert.kind == "component"


def test_predict_levi_matches_corollary(c2_ctx):
    # for basic classes, predicted-empty must imply certified emptiness of
    # the computed result (the proved direction)
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    for x in ball_with_omega(ctx, 6):
        status, cert = eng.predict_levi(ctx, x, cls)
        if status == "empty":
            res = eng.solve(ctx, x, cls, cutoff=6)
            assert res.status == "empty-certified"


def test_predict_shrunken_examples(a2_ctx, c2_ctx):
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    # deep dominant translation: eta1 = e lies in every parabolic subgroup
    x = ctx.from_translation((3, 2))
    assert is_shrunken(ctx, x)
    assert eng.predict_shrunken(ctx, x, cls) == ("empty", None)
    # an element with conjugated finite part w0 is predicted nonempty with
    # dimension (ell + ell(w0))/2
    from adlv.alcoves import conjugated_finite_part
    for x in ball_with_omega(ctx, 9):
        if not is_shrunken(ctx, x):
            continue
        if ctx.omega_class(x) != cls.kappa:
            continue
        u = conjugated_finite_part(ctx, x)
        if u == ctx.datum.weyl.w0:
            status, dim = eng.predict_shrunken(ctx, x, cls)
            assert status == "nonempty"
            assert dim == (ctx.length(x) + ctx.datum.weyl.length[u]) // 2
            break
    else:
        raise AssertionError("no w0-type shrunken element found")
    with pytest.raises(ValueError):
        eng.predict_shrunken(c2_ctx, c2_ctx.identity, cls)  # not shrunken


def test_predict_shrunken_gl2_defect_term(gl2_ctx):
    # superbasic GL2: the defect shifts the dimension formula; check against
    # the solver on a sample
    ctx = gl2_ctx
    cls = sg.classify(ctx, ctx.parse("t[1,0]*s1"))
    assert sg.defect(ctx, cls) == 1
    checked = 0
    for x in ball_with_omega(ctx, 8):
        xt = ctx.mul(x, ctx.parse("t[1,0]*s1"))
        if ctx.omega_class(xt) != cls.kappa or not is_shrunken(ctx, xt):
            continue
        status, dim = eng.predict_shrunken(ctx, xt, cls)
        res = eng.solve(ctx, xt, cls, cutoff=9)
        if status == "empty":
            assert res.status == "empty-certified"
        else:
            assert res.status == "nonempty" and res.dim == dim
        checked += 1
        if checked >= 12:
            break
    assert checked >= 8


def test_predictors_agree_on_shrunken_alcoves(c2_ctx):
    # on shrunken alcoves the Levi-obstruction prediction reduces to the
    # chamber-support rule
    ctx = c2_ctx
    for kappa in ((0, 0), (0, 1)):
        cls = sg.basic_class_of_component(ctx, kappa)
        for x in ball_with_omega(ctx, 8):
            if not is_shrunken(ctx, x):
                continue
            levi_status, _ = eng.predict_levi(ctx, x, cls)
            shr_status, _ = eng.predict_shrunken(ctx, x, cls)
            assert (levi_status == "empty") == (shr_status == "empty"), ctx.format(x)


def dim_stratum(ctx, xid, cls, wid, table=None):
    """dim(X_x(b) cap I_P w.a) from one orbit_dim_table, or None when empty."""
    b, p, corr2 = eng.class_data(ctx, cls)
    if table is None:
        table = eng.orbit_dim_table(ctx, xid, p, wid, "periodic")
    got = table.get(ctx.conj(ctx.inv(wid), b))
    return None if got is None else eng.stratum_value(got, corr2)


def reference_solve(ctx, x, cls, cutoff):
    """
    The per-w solver the sweep kernel replaced, kept as an independent route:
    its own sweep (not the one the context keeps), one orbit_dim_table and
    dim_stratum per w, no prefix sharing and no central classes.  Returns
    (status, dim, witness).
    """
    if eng.emptiness_certificate(ctx, x, cls) is not None:
        return "empty-certified", None, None
    b, p, _corr = eng.class_data(ctx, cls)
    omegas = eng.omega_window(ctx, cls, [x, b])
    sweep = sorted({ctx.mul(u, t) for u in affine_ball(ctx, cutoff) for t in omegas},
                   key=lambda w: (ctx.length(w), ctx.format(w)))
    best = best_w = None
    for w in sweep:
        table = eng.orbit_dim_table(ctx, x, p, w, "periodic")
        if ctx.mul(ctx.mul(ctx.inv(w), b), w) not in table:
            continue
        val = dim_stratum(ctx, x, cls, w, table)
        if best is None or val > best:
            best, best_w = val, w
    if best is None:
        return "empty-up-to-cutoff", None, None
    return "nonempty", best, best_w


def outcome(res):
    return res.status, res.dim, res.witness_w


def _wide_window_gl3_elements(ctx, cls):
    # x of GL3 in the trivial component with |translation(x)| 3 or 4, whose
    # Omega-windows (spread |translation(x)| + 2) hold 11 to 13 elements
    xs = [x for x in survey_elements(ctx, cls, 10)
          if 3 <= max(map(abs, ctx.translation(x))) <= 4]
    wide = [x for x in xs if max(map(abs, ctx.translation(x))) == 4]
    assert wide
    return wide + random.Random(5).sample([x for x in xs if x not in wide], 4)


def test_survey_matches_single_solve(c2_ctx, gl2_ctx, gl3_ctx):
    gl3_nonbasic = parse_class_key(gl3_ctx, "nu=[1,0,0];kappa=[0,0,1]")
    assert not sg.is_basic(gl3_ctx.datum, gl3_nonbasic)
    gl3_trivial = parse_class_key(gl3_ctx, "trivial")
    gl2_trivial = parse_class_key(gl2_ctx, "trivial")
    cases = [
        (c2_ctx, sg.classify(c2_ctx, c2_ctx.identity), ball_with_omega(c2_ctx, 5), 7),
        # infinite Lambda_G: each x keeps the Omega-window solve gives it,
        # whatever else is in the batch, and the windows hold central
        # translates w * t[k,..,k] that share their work with w
        (gl2_ctx, gl2_trivial, survey_elements(gl2_ctx, gl2_trivial, 6), 8),
        (gl3_ctx, gl3_nonbasic, survey_elements(gl3_ctx, gl3_nonbasic, 4), 8),
        (gl3_ctx, gl3_trivial, _wide_window_gl3_elements(gl3_ctx, gl3_trivial), 8),
    ]
    for ctx, cls, xs, cutoff in cases:
        batch = eng.survey_batch(ctx, cls, xs, cutoff)
        assert any(r.nonempty for r in batch.values())
        for x in xs:
            want = reference_solve(ctx, x, cls, cutoff)
            assert outcome(batch[x]) == want, ctx.format(x)
            assert outcome(eng.solve(ctx, x, cls, cutoff=cutoff)) == want


@pytest.mark.parametrize("spec,key,max_len", [
    (("GL", 2, ""), "trivial", 10),
    (("GL", 2, ""), "nu=[1,0];kappa=[0,1]", 10),
    (("GL", 3, ""), "trivial", 5),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 5),
    (("GL", 3, ""), "nu=[1/2,1/2,0];kappa=[0,0,1]", 6),
])
def test_gl_omega_window_sets_only_the_witness(monkeypatch, spec, key, max_len):
    # the GL Omega window (spread |translation| + 2) is a witness rule, not a
    # search bound: widened to spread + 6, no status and no dim moves
    ctx = affine_context(RootDatum(*spec))
    datum = ctx.datum
    cls = parse_class_key(ctx, key)
    xs = survey_elements(ctx, cls, max_len)
    cutoff = max_len + 2 * eng.coxeter_number(datum)
    narrow = eng.survey_batch(ctx, cls, xs, cutoff)
    p_full = full_parabolic(datum)

    def wide_window(ctx, cls, xids):
        spread = max([2] + [max(map(abs, ctx.translation(x))) + 2 for x in xids]) + 6
        return [ctx.omega_element(p_full, nf) for nf in datum.lambda_g.window(spread)]

    b = sg.standard_representative(ctx, cls)
    assert set(eng.omega_window(ctx, cls, [b])) < set(wide_window(ctx, cls, [b]))
    monkeypatch.setattr(eng, "omega_window", wide_window)
    wide = eng.survey_batch(ctx, cls, xs, cutoff)
    assert any(r.nonempty for r in narrow.values())
    assert {x: (r.status, r.dim) for x, r in wide.items()} == \
        {x: (r.status, r.dim) for x, r in narrow.items()}


def _reference_sweep(ctx, cutoff, omegas):
    ball = affine_ball(ctx, cutoff)
    return sorted({ctx.mul(u, tau) for u in ball for tau in omegas},
                  key=lambda w: (ctx.length(w), ctx.format(w)))


def test_sweep_elements_kept_prefix():
    # the context keeps only the ball, to the largest cutoff asked; every
    # sweep, over all of Omega_G or a proper subset, equals an independent
    # build, and a caller owns its copy
    ctx = affine_context(RootDatum("C", 2, "adjoint"))
    omega_g = list(ctx.omega_g_elements().values())
    for cutoff in (8, 12, 6, 12):
        for omegas in (omega_g, [ctx.identity]):
            got = eng.sweep_elements(ctx, cutoff, omegas)
            assert got == _reference_sweep(ctx, cutoff, omegas)
            assert max(ctx.length(w) for w in got) == cutoff
            got.clear()
    assert ctx.sweep.depth == 12 and ctx.sweep.ball == affine_ball(ctx, 12)
    # GL3: nested Omega windows; a smaller cutoff leaves the ball as it is,
    # a larger one grows it, and no window is kept
    ctx = affine_context(RootDatum("GL", 3, ""))
    p_full = full_parabolic(ctx.datum)

    def window(spread):
        return [ctx.omega_element(p_full, nf)
                for nf in ctx.datum.lambda_g.window(spread)]

    largest = 0
    for spread, cutoff in ((4, 6), (2, 4), (6, 5), (3, 7)):
        before = ctx.sweep
        got = eng.sweep_elements(ctx, cutoff, window(spread))
        assert got == _reference_sweep(ctx, cutoff, window(spread))
        assert (ctx.sweep is before) == (before is not None and cutoff <= before.depth)
        largest = max(largest, cutoff)
        assert ctx.sweep.depth == largest
    assert ctx.sweep.ball == affine_ball(ctx, 7) and not ctx.sweep.conj_tables


def _profile_all_roots(ctx, p, w):
    # m_J over all roots, one k_alpha per root: the reference formula
    W = ctx.datum.weyl
    winv = ctx.inv(w)
    out = []
    for i in range(len(ctx.datum.roots)):
        img = W.root_act[ctx.finite(w)][i]
        if img in p.r_n:
            out.append(-eng.INF)
        elif img in p.r_nbar:
            out.append(eng.INF)
        else:
            out.append(ctx.k_alpha(i, winv))
    return out


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"),
                                  ("G", 2, "adjoint"), ("GL", 3, "")])
def test_orientation_profile_matches_all_roots_formula(spec):
    ctx = affine_context(build_root_datum(*spec))
    npos = ctx.datum.nposroots
    ws = ball_with_omega(ctx, 3)
    if ctx.datum.lambda_g.order() is None:
        ws = [ctx.mul(w, ctx.parse(f"tau^{k}")) for w in ws for k in (-2, 0, 1, 3)]
    # every component of the ball: all of Omega_G, or four tau^k for GL3
    assert len({ctx.omega_class(w) for w in ws}) == (ctx.datum.lambda_g.order() or 4)
    for p in semistandard_parabolics(ctx.datum):
        for w in ws:
            assert eng.orientation_profile(ctx, p, w) == \
                _profile_all_roots(ctx, p, w)[:npos]


def _twist(ctx, p, tau, b):
    # the pair (P_tau, b_tau) = (tau^{-1} P tau, tau^{-1} b tau), by conj
    # and inv
    v = ctx.datum.weyl.inv[ctx.finite(tau)]
    return eng.conj_parabolic(p, v), ctx.conj(ctx.inv(tau), b)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_central_translates_share_profile_and_btilde(n):
    # GL_n: w and its central translates w * t^(k,..,k) have one profile
    # under every standard P and one w^{-1} b w; so tau and tau * t^(k,..,k)
    # have one twist pair, and a window of tau has at most n pairs
    ctx = affine_context(build_root_datum("GL", n))
    datum = ctx.datum
    z = ctx.from_translation((1,) * n)
    assert ctx.is_central(z)
    rng = random.Random(n)
    ball = sorted(affine_ball(ctx, 6))
    ws = rng.sample(ball, min(20, len(ball)))
    ws = [ctx.mul(w, ctx.parse(f"tau^{rng.randrange(-3, 4)}")) for w in ws]
    bs = rng.sample(ws, 5)
    taus = [ctx.parse(f"tau^{k}") for k in range(-2 * n, 2 * n + 1)]
    for r in range(len(datum.simple_idx) + 1):
        for J in itertools.combinations(datum.simple_idx, r):
            p = standard_parabolic(datum, frozenset(J))
            for w in ws:
                for k in (1, -2):
                    wz = ctx.mul(w, ctx.from_translation((k,) * n))
                    assert eng.orientation_profile(ctx, p, wz) == \
                        eng.orientation_profile(ctx, p, w)
            for b in bs:
                pairs = set()
                for tau in taus:
                    p_tau, b_tau = _twist(ctx, p, tau, b)
                    pairs.add((p_tau.r_n, p_tau.r_nbar, b_tau))
                    tz = ctx.mul(tau, z)
                    pz_tau, bz_tau = _twist(ctx, p, tz, b)
                    assert (pz_tau.r_n, bz_tau) == (p_tau.r_n, b_tau), ctx.format(tau)
                assert len(pairs) <= n
    for w in ws:
        wz = ctx.mul(w, z)
        assert ctx.omega_class(wz) != ctx.omega_class(w)
        for b in bs:
            assert ctx.mul(ctx.mul(ctx.inv(wz), b), wz) == \
                ctx.mul(ctx.mul(ctx.inv(w), b), w)


def _check_kept_sweep(ctx):
    # the kept ball and its conjugate tables against the functions they
    # stand for; returns the number of filled entries
    kept = ctx.sweep
    # the ball: every u of W_a up to its depth, with its exact length, in
    # length order
    assert kept.ball == affine_ball(ctx, kept.depth)
    lengths = list(kept.ball.values())
    assert lengths == sorted(lengths)
    us = list(kept.ball)
    filled = 0
    for b, table in kept.conj_tables.items():
        assert not ctx.is_central(b) and len(table) <= len(us)
        for u, got in zip(us, table):
            if got >= 0:
                assert got == ctx.conj(ctx.inv(u), b), ctx.format(u)
                filled += 1
            else:
                assert got == -1
    return filled


@pytest.mark.parametrize("spec", [("GL", 3, ""), ("GL", 2, ""), ("A", 2, "SL"),
                                  ("C", 2, "adjoint")])
def test_conjugate_tables_on_the_kept_sweep(spec):
    # a scripted run of solve calls over several classes, whose cutoffs grow
    # so that the ball grows between them; the ball-indexed tables stay
    # exact through it and across the classes, and the last round, on a
    # context warmed by the others, agrees with the per-w reference; a new
    # datum gives a new context
    ctx = affine_context(RootDatum(*spec))
    datum = ctx.datum
    unit = (1,) + (0,) * (datum.d - 1)
    seeds = [ctx.identity, ctx.from_translation(unit),
             ctx.from_translation(tuple(2 * v for v in unit))]
    if datum.lambda_g.order() not in (None, 1):
        seeds.append(ctx.parse("tau"))
    classes = [sg.classify(ctx, g) for g in seeds]
    assert not all(sg.is_basic(datum, cls) for cls in classes)
    rounds = ((4, 2), (6, 3), (5, 4), (7, 4))
    builds, filled = [], 0
    for n, (cutoff, max_len) in enumerate(rounds):
        for cls in classes:
            xs = [x for x in survey_elements(ctx, cls, max_len)
                  if eng.emptiness_certificate(ctx, x, cls) is None]
            wide = max(xs, key=lambda x: (max(map(abs, ctx.translation(x))),
                                          ctx.length(x)))
            for x in dict.fromkeys([wide, xs[-1]]):
                got = eng.solve(ctx, x, cls, cutoff)
                if not builds or ctx.sweep is not builds[-1]:
                    builds.append(ctx.sweep)
                filled = max(filled, _check_kept_sweep(ctx))
                if n == len(rounds) - 1:
                    assert outcome(got) == reference_solve(ctx, x, cls, cutoff), \
                        ctx.format(x)
    assert len(builds) > 2 and filled
    assert len(ctx.sweep.conj_tables) > 1


def _filled_entries(kept):
    # {(b, u): u^{-1} b u} over the filled entries of the kept tables
    return {(b, u): got for b, table in kept.conj_tables.items()
            for u, got in zip(kept.ball, table) if got >= 0}


@pytest.mark.parametrize("spec,key,grows", [
    (("C", 2, "adjoint"), "nu=[1,0];kappa=[0,0]", "cutoff"),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", "union"),
])
def test_conjugate_tables_survive_growth(spec, key, grows):
    # a table entry filled before the ball grows is still there, and exact,
    # after it, with no solve in between to fill it again, and every kept u
    # keeps its ball position: C2 grows the cutoff, which appends to the
    # ball; GL3 widens the Omega window, whose new tau share their twist
    # pairs with the old ones, so it makes no table and grows no ball
    ctx = affine_context(RootDatum(*spec))
    cls = parse_class_key(ctx, key)
    xs = [x for x in survey_elements(ctx, cls, 4)
          if eng.emptiness_certificate(ctx, x, cls) is None]

    def spread(x):
        return max(map(abs, ctx.translation(x)))

    narrow, wide = min(xs, key=spread), max(xs, key=spread)
    eng.solve(ctx, narrow, cls, 6)
    before = ctx.sweep
    # growth extends the ball and tables in place, so copy what it must keep
    us, tables = list(before.ball), set(before.conj_tables)
    filled = _filled_entries(before)
    assert filled
    if grows == "cutoff":
        kept = eng.kept_ball(ctx, 9)
        assert kept.depth == 9 and len(kept.ball) > len(us)
    else:
        assert set(eng.omega_window(ctx, cls, [wide])) > set(eng.omega_window(ctx, cls, [narrow]))
        eng.solve(ctx, wide, cls, 6)
        kept = ctx.sweep
        assert kept is before and set(kept.conj_tables) == tables
    assert list(kept.ball)[:len(us)] == us
    assert filled.items() <= _filled_entries(kept).items()
    _check_kept_sweep(ctx)
    # and a solve on the grown ball fills more, all exact
    eng.solve(ctx, wide, cls, kept.depth + 1)
    assert len(_filled_entries(ctx.sweep)) > len(filled)
    _check_kept_sweep(ctx)


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"),
                                  ("G", 2, "adjoint"), ("GL", 3, "")])
def test_conj_inv_closed_form(spec):
    # w^{-1} b w in closed form against conj and inv, over the length-3 ball
    # times Omega_G, or times tau^k, k in {-2, 0, 1, 3}, for GL3; one affine
    # map per (finite part of w, b), as the conjugate tables are filled, is
    # applied to the translation part of every w with that finite part
    ctx = affine_context(build_root_datum(*spec))
    ws = ball_with_omega(ctx, 3)
    if ctx.datum.lambda_g.order() is None:
        ws = [ctx.mul(w, ctx.parse(f"tau^{k}")) for w in ws for k in (-2, 0, 1, 3)]
    assert len({ctx.omega_class(w) for w in ws}) == (ctx.datum.lambda_g.order() or 4)
    # and translations b, central (e, and t[1,1,1] for GL3) and not, whose
    # map returns one value for every lam
    datum = ctx.datum
    unit = (1,) + (0,) * (datum.d - 1)
    translations = [ctx.identity, ctx.from_translation(unit),
                    ctx.from_translation((1, -1) + (0,) * (datum.d - 2))]
    if datum.lambda_g.order() is None:
        translations.append(ctx.from_translation((1,) * datum.d))
    assert {ctx.is_central(b) for b in translations} == {True, False}
    bs = random.Random(7).sample(ws, 12) + translations
    for b in bs:
        maps = {}
        for w in ws:
            u = ctx.finite(w)
            if u not in maps:
                maps[u] = ctx.conj_inv_map(u, b)
            want = ctx.conj(ctx.inv(w), b)
            assert ctx.conj_inv(w, b) == want, ctx.format(w)
            assert maps[u](ctx.translation(w)) == want, ctx.format(w)
        assert len(maps) < len(ws)


@pytest.mark.parametrize("spec,key", [
    (("A", 2, "SL"), "trivial"),
    (("GL", 3, ""), "nu=[1,1,1];kappa=[0,0,3]"),
])
def test_central_class_makes_no_table(spec, key):
    # for a central b every twisted representative b_tau is b itself, and
    # central: survey_batch makes no conjugate table, grows the ball to the
    # cutoff, gives every member the lookup key b, and every result is the
    # per-w reference's
    ctx = affine_context(RootDatum(*spec))
    cls = parse_class_key(ctx, key)
    b = eng.class_data(ctx, cls)[0]
    assert ctx.is_central(b)
    xs = survey_elements(ctx, cls, 3)
    batch = eng.prepare_batch(ctx, cls, xs, 5)
    kept = ctx.sweep
    assert not kept.conj_tables and kept.depth == 5
    assert batch.records and {btilde for _w, btilde, _tau in batch.records} == {b}
    _check_kept_sweep(ctx)
    got = {**batch.certified, **eng.walk_batch(ctx, batch)}
    for x in xs:
        assert outcome(got[x]) == reference_solve(ctx, x, cls, 5), ctx.format(x)


def test_noncentral_class_table_starts_unfilled():
    # for a non-central b each table of a b_tau starts at -1 and
    # survey_batch fills the entries of the u it sweeps: on a ball kept to
    # length 7, a survey to cutoff 4 leaves the longer u unfilled
    ctx = affine_context(RootDatum("C", 2, "adjoint"))
    cls = sg.classify(ctx, ctx.from_translation((1, 0)))
    b = eng.class_data(ctx, cls)[0]
    assert not ctx.is_central(b)
    eng.sweep_elements(ctx, 7, [ctx.identity])
    xs = survey_elements(ctx, cls, 4)
    eng.survey_batch(ctx, cls, xs, 4)
    kept = ctx.sweep
    assert kept.depth == 7 and b in kept.conj_tables
    for table in kept.conj_tables.values():
        assert len(table) == len(kept.ball)
        for got, n in zip(table, kept.ball.values()):
            assert (got >= 0) == (n <= 4)
    _check_kept_sweep(ctx)


@pytest.mark.parametrize("spec,key,b_text,central", [
    (("A", 2, "SL"), "trivial", "e", True),
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", "tau", False),
    (("C", 2, "adjoint"), "trivial", "e", True),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", "t[1,0,0]", False),
    # a central b whose tau windows meet a prefilled table
    (("GL", 3, ""), "nu=[1,1,1];kappa=[0,0,3]", "t[1,1,1]", True),
])
def test_grouped_lookups_match_reference(spec, key, b_text, central):
    # survey_batch looks up a member of a wall group only when no earlier
    # member had its key, w^{-1} b w (with tau for GL's per-x windows); the
    # status, dim and witness of every x are still those of the per-w
    # reference
    ctx = affine_context(RootDatum(*spec))
    cls = parse_class_key(ctx, key)
    b = eng.class_data(ctx, cls)[0]
    assert b == ctx.parse(b_text) and ctx.is_central(b) == central
    xs = survey_elements(ctx, cls, 4)
    cutoff = 6
    batch = eng.survey_batch(ctx, cls, xs, cutoff)
    assert any(r.nonempty for r in batch.values())
    for x in xs:
        assert outcome(batch[x]) == reference_solve(ctx, x, cls, cutoff), ctx.format(x)


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"), ("GL", 3, "")])
def test_kept_sweep_grows_the_ball(spec):
    # a ball grown 0 -> 3 -> 7 by the ascent test holds the ball of length
    # 7, with the lengths measured afresh, and keeps the positions of the
    # shorter ball; the sweep over it equals an independent build
    ctx = affine_context(RootDatum(*spec))
    shorter = []
    for cutoff in (3, 7):
        kept = eng.kept_ball(ctx, cutoff)
        assert kept is ctx.sweep and kept.depth == cutoff
        assert kept.ball == affine_ball(ctx, cutoff)
        assert list(kept.ball)[:len(shorter)] == shorter
        shorter = list(kept.ball)
    union = [ctx.identity]
    assert eng.sweep_elements(ctx, 7, union) == _reference_sweep(ctx, 7, union)
    assert ctx.sweep is kept
    _check_kept_sweep(ctx)


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("B", 2, "adjoint"), ("C", 2, "adjoint"),
                                  ("A", 3, ""), ("D", 4, "")])
def test_omega_cosets_share_profile_and_conjugate(spec):
    # the identity ball_groups rests on: for every semistandard P (a sample
    # of 30 for A3 and D4), every tau of Omega_G, every u of the length-3 ball
    # of W_a and several b, tau * u has the length of u, the profile of u
    # under P_tau = tau^{-1} P tau and the conjugate u^{-1} b_tau u, b_tau =
    # tau^{-1} b tau.  For a basic class (P = G, b in Omega_G) every tau has
    # the pair (G, b): one twist pair, as the Omega-coset sweep had
    ctx = affine_context(build_root_datum(*spec))
    datum = ctx.datum
    omegas = list(ctx.omega_g_elements().values())
    us = list(affine_ball(ctx, 3))
    rng = random.Random(5)
    ps = semistandard_parabolics(datum)
    ps = rng.sample(ps, 30) if len(ps) > 30 else ps
    bs = rng.sample(ball_with_omega(ctx, 3), 4) + omegas
    basics = [sg.classify(ctx, tau) for tau in omegas]
    assert len({cls.kappa for cls in basics}) == len(omegas) > 1
    for p in ps:
        for tau in omegas:
            p_tau = _twist(ctx, p, tau, ctx.identity)[0]
            b_taus = [_twist(ctx, p, tau, b)[1] for b in bs]
            for u in us:
                w = ctx.mul(tau, u)
                assert ctx.length(w) == ctx.length(u)
                assert eng.orientation_profile(ctx, p, w) == \
                    eng.orientation_profile(ctx, p_tau, u), ctx.format(w)
                for b, b_tau in zip(bs, b_taus):
                    assert ctx.conj_inv(w, b) == ctx.conj_inv(u, b_tau), ctx.format(w)
    for cls in basics:
        b, p, _corr2 = eng.class_data(ctx, cls)
        assert sg.is_basic(datum, cls) and p.is_full
        pairs = {(p_tau.r_n, p_tau.r_nbar, b_tau)
                 for p_tau, b_tau in (_twist(ctx, p, tau, b) for tau in omegas)}
        assert pairs == {(frozenset(), frozenset(), b)}


def _reference_groups(ctx, b, p, walls, ends, cutoff, omegas, allowed):
    # the wall groups by brute force over the (length, text) sweep of the
    # w = u * tau: per w its conjugate, profile and wall key, and per (wall
    # key, lookup key) the first w; ({wall key: member indices}, records)
    p_full = full_parabolic(ctx.datum)
    firsts = {}
    for w in eng.sweep_elements(ctx, cutoff, omegas):
        btilde = ctx.conj_inv(w, b)
        if btilde not in ends:
            continue
        key = eng.wall_key(walls, eng.orientation_profile(ctx, p, w))
        tau = ctx.omega_element(p_full, ctx.omega_class(w))
        assert tau in omegas
        look = btilde if allowed is None else (btilde, tau)
        firsts.setdefault((key, look), (w, btilde, tau))
    groups = {}
    for i, (key, _look) in enumerate(firsts):
        groups.setdefault(key, []).append(i)
    return groups, list(firsts.values())


@pytest.mark.parametrize("spec,key,cutoff", [
    (("C", 2, "adjoint"), "nu=[0,0];kappa=[0,1]", 6),
    (("A", 3, ""), "nu=[0,0,0,0];kappa=[0,0,0,2]", 5),
    (("D", 4, ""), "nu=[0,0,0,0];kappa=[0,0,1,1]", 4),
    (("G", 2, "adjoint"), "trivial", 6),
    (("C", 2, "adjoint"), "trivial", 6),
    (("A", 2, "SL"), "nu=[1,0,-1];kappa=[0,0,0]", 6),
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", 6),
    (("C", 2, "adjoint"), "nu=[1,0];kappa=[0,0]", 6),
    (("G", 2, "adjoint"), "nu=[0,1];kappa=[0,0]", 8),
    (("GL", 2, ""), "nu=[1,0];kappa=[0,1]", 6),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 5),
    (("GL", 3, ""), "nu=[1,1,1];kappa=[0,0,3]", 5),
])
def test_ball_groups_match_reference(spec, key, cutoff):
    # ball_groups gives the wall keys, the members and the member records
    # of the brute-force sweep: finite basic classes, central (trivial) and
    # not, finite non-basic ones, and GL_n with per-x windows; over the
    # walls and ends of a survey and over no walls and every end.  With no
    # walls every w has one wall key, so many u tie, across twist pairs too,
    # and the member is the text-least tau * u over all of them
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, key)
    b, p, _corr2 = eng.class_data(ctx, cls)
    # the non-basic classes meet no end below x of length 3 or 5
    xs = survey_elements(ctx, cls, 3 if sg.is_basic(ctx.datum, cls) else 6)
    if ctx.datum.lambda_g.order() is None:
        allowed = {x: frozenset(eng.omega_window(ctx, cls, [x, b])) for x in xs}
        omegas = frozenset().union(*allowed.values())
    else:
        allowed, omegas = None, frozenset(eng.omega_window(ctx, cls, [b]))
    walls, ends, _reach = eng.fold_walls(
        ctx, eng.prefix_tree(ctx, {x: ctx.reduced_word(x) for x in xs}))
    every = {ctx.conj_inv(w, b) for w in eng.sweep_elements(ctx, cutoff, omegas)}
    sizes = []
    for levels, lookups in ((walls, ends), ([[] for _ in walls], every)):
        groups, records = eng.ball_groups(ctx, b, p, levels, lookups, cutoff, omegas, allowed)
        want_groups, want_records = _reference_groups(ctx, b, p, levels, lookups, cutoff,
                                                      omegas, allowed)
        assert records == want_records
        assert {k: members for k, (_, members) in groups.items()} == want_groups
        for k, (profile, _members) in groups.items():
            assert eng.wall_key(levels, profile) == k
        sizes.append((len(groups), len(records)))
    assert sizes[1][0] == 1 and sizes[1][1] >= len(every)
    assert sizes[0][1] > 0


@pytest.mark.parametrize("spec,basic,other", [
    (("C", 2, "adjoint"), "trivial", "nu=[1,0];kappa=[0,0]"),
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", "nu=[1,0,-1];kappa=[0,0,0]"),
])
def test_ball_grows_ahead_of_the_products(spec, basic, other):
    # a basic class at cutoff 8 grows the ball to 8, while its survey's
    # products are made only to length 4; a non-basic class then sweeps the
    # deeper ball at cutoff 6, and grows it to 9.  The kept ball and the
    # filled entries of the non-basic class's tables equal those of a fresh
    # context that ran only the non-basic surveys, and every result equals
    # a fresh run's
    plan = [(basic, 8), (other, 6), (other, 9)]

    def run(ctx, steps):
        out = []
        for key, cutoff in steps:
            cls = parse_class_key(ctx, key)
            xs = survey_elements(ctx, cls, 4)
            assert max(ctx.length(x) for x in xs) == 4
            got = eng.survey_batch(ctx, cls, xs, cutoff)
            assert any(r.nonempty for r in got.values())
            # by text, as element ids differ between contexts
            out.append({ctx.format(x): (r.status, r.dim, r.witness_w is not None
                                        and ctx.format(r.witness_w))
                        for x, r in got.items()})
            _check_kept_sweep(ctx)
        return out

    def kept(ctx):
        # the ball and the other class's filled entries, by text
        sweep = ctx.sweep
        cls = parse_class_key(ctx, other)
        b, p, _corr2 = eng.class_data(ctx, cls)
        p_full = full_parabolic(ctx.datum)
        b_taus = {ctx.conj_inv(ctx.omega_element(p_full, nf), b)
                  for nf in ctx.datum.lambda_g.elements()}
        return ([ctx.format(u) for u in sweep.ball],
                {ctx.format(b_tau): [got >= 0 and ctx.format(got)
                                     for got in sweep.conj_tables[b_tau]]
                 for b_tau in b_taus if not ctx.is_central(b_tau)})

    warm = affine_context(RootDatum(*spec))
    got = run(warm, plan)
    assert warm.sweep.depth == 9
    assert got == [run(affine_context(RootDatum(*spec)), [step])[0] for step in plan]
    fresh = affine_context(RootDatum(*spec))
    run(fresh, plan[1:])
    assert kept(warm) == kept(fresh)


@pytest.mark.parametrize("spec,class_key,max_len,cutoff", [
    (("C", 2, "adjoint"), "trivial", 6, 8),
    (("G", 2, "adjoint"), "trivial", 5, 7),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 4, 7),
])
def test_wall_key_fixes_the_fold(spec, class_key, max_len, cutoff):
    # all w of one sweep that share a wall key have the same dimension table
    # for every x whose words gave the walls
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, class_key)
    xs = random.Random(7).sample(survey_elements(ctx, cls, max_len), 6)
    b, p, _corr2 = eng.class_data(ctx, cls)
    walls, _ends, _reach = eng.fold_walls(
        ctx, eng.prefix_tree(ctx, {x: ctx.reduced_word(x) for x in xs}))
    ws = eng.sweep_elements(ctx, cutoff, eng.omega_window(ctx, cls, xs + [b]))
    groups = {}
    for w in ws:
        key = eng.wall_key(walls, eng.orientation_profile(ctx, p, w))
        groups.setdefault(key, []).append(w)
    assert 1 < len(groups) < len(ws)
    for members in groups.values():
        for x in xs:
            table = eng.orbit_dim_table(ctx, x, p, members[0])
            for w in members[1:]:
                assert eng.orbit_dim_table(ctx, x, p, w) == table, \
                    (ctx.format(x), ctx.format(members[0]), ctx.format(w))


def _carried_to_a_key(ctx, tree, keys):
    # {v: {y: kept}} over the nodes v other than e of the prefix tree
    # (parents, need, order) and the y of the Bruhat interval below the
    # parent of v, the elements its frontier can hold: y is kept iff some
    # subword of a word suffix below v carries y to a lookup key, that is
    # y times some of the letters on the path from the parent of v to a
    # node u, times tau, lies in keys for an x = word * tau ending at u.
    # Found forward, by multiplying out the subwords
    parents, need, order = tree
    children = {}
    for u in order:
        children.setdefault(parents[u][0], []).append(u)

    def hits(u, ys):
        if any(ctx.mul(y, tau) in keys for _x, tau in need.get(u, ()) for y in ys):
            return True
        return any(hits(c, ys | {ctx.mul(y, ctx.gens[parents[c][1]]) for y in ys})
                   for c in children.get(u, ()))

    below = {ctx.identity: {ctx.identity}}
    out = {}
    for v in order:
        par, gi = parents[v]
        below[v] = below[par] | {ctx.mul(y, ctx.gens[gi]) for y in below[par]}
        out[v] = {y: hits(v, {y, ctx.mul(y, ctx.gens[gi])}) for y in below[par]}
    return out


@pytest.mark.parametrize("spec,class_key,max_len,cutoff", [
    (("C", 2, "adjoint"), "trivial", 6, 8),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 4, 7),
])
def test_refinement_folds_once_per_fold_history(monkeypatch, spec, class_key,
                                                max_len, cutoff):
    # two wall groups fold alike at a node exactly when their folds passed
    # the same tests at every step of its path, each at the walls crossed
    # out of the group's own frontier cut to the entries that can still
    # reach a lookup key below the node; survey_batch folds once per class
    # of groups per node whose cut frontier is not empty, so its fold_step
    # calls number the distinct (node, history of test vectors), found here
    # by folding each group on its own, cut by the definition of the keys
    # a subword carries an entry to.  Uncut, the groups have more histories
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, class_key)
    xs = survey_elements(ctx, cls, max_len)
    profiles = {}
    folds = []
    wall_key, fold_step = eng.wall_key, eng.fold_step

    def recording_key(walls, profile):
        key = wall_key(walls, profile)
        profiles.setdefault(key, profile)
        return key

    def counting_fold(*args):
        folds.append(args[2])
        return fold_step(*args)

    monkeypatch.setattr(eng, "wall_key", recording_key)
    monkeypatch.setattr(eng, "fold_step", counting_fold)
    batch = eng.prepare_batch(ctx, cls, xs, cutoff)
    eng.walk_batch(ctx, batch)
    monkeypatch.undo()
    carried = _carried_to_a_key(ctx, batch.tree,
                                {btilde for _w, btilde, _tau in batch.records})
    parents, _need, order = batch.tree
    histories, uncut = set(), set()
    for profile in profiles.values():
        for cut, found in ((True, histories), (False, uncut)):
            frontiers = {ctx.identity: {ctx.identity: 0}}
            history = {ctx.identity: ()}
            for u in order:
                par, gi = parents[u]
                frontier = {c: d for c, d in frontiers.get(par, {}).items()
                            if not cut or carried[u][c]}
                if not frontier:
                    continue
                vector = set()
                for c in frontier:
                    _cs, beta, j, _upper = ctx.step_row(c)[gi]
                    vector.add((beta, j, j >= profile[beta]))
                history[u] = history[par] + (frozenset(vector),)
                found.add((u, history[u]))
                frontiers[u] = fold_step(ctx, frontier, gi, profile)
    assert len(profiles) > 1 and order
    assert len(folds) == len(histories) < len(profiles) * len(order)
    assert len(histories) < len(uncut)


@pytest.mark.parametrize("spec,class_key,max_len,cutoff", [
    (("C", 2, "adjoint"), "trivial", 5, 7),
    (("C", 2, "adjoint"), "nu=[1,0];kappa=[0,0]", 4, 6),
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", 4, 6),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 3, 5),
])
def test_pruned_walk_keeps_every_lookup_value(spec, class_key, max_len, cutoff):
    # the walk cuts each frontier to the entries that can still reach a
    # lookup key below the node (pull_back), yet reads the value of the
    # uncut fold at every lookup: walking the batch with one member at a
    # time gives each x the stratum of that member's w alone, which must be
    # the one orbit_dim_table gives, for the whole batch and for chunks of
    # it.  And every entry a cut drops reaches no key below its node, by
    # the definition of the keys a subword carries it to
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, class_key)
    xs = survey_elements(ctx, cls, max_len)
    batch = eng.prepare_batch(ctx, cls, xs, cutoff)
    _b, p, corr2 = eng.class_data(ctx, cls)
    pending = list(batch.words)
    keys = {btilde for _w, btilde, _tau in batch.records}
    chunks = [pending, pending[0::3], pending[1::3], pending[2::3]]
    dropped = hits = 0
    for chunk in chunks:
        tree = batch.tree if chunk is pending else \
            eng.prefix_tree(ctx, {x: batch.words[x] for x in chunk})
        keep = eng.pull_back(ctx, tree, batch.reach, keys)
        carried = _carried_to_a_key(ctx, tree, keys)
        assert set(keep) == set(carried)
        for v, kept in carried.items():
            assert keep[v] == {y for y, hit in kept.items() if hit}, ctx.format(v)
            dropped += sum(1 for hit in kept.values() if not hit)
    for i, (w, btilde, tau_w) in enumerate(batch.records):
        alone = batch._replace(members=[[i] if i in m else [] for m in batch.members])
        for chunk in chunks:
            got = eng.walk_batch(ctx, alone, chunk)
            for x in chunk:
                val = eng.orbit_dim_table(ctx, x, p, w).get(btilde)
                if val is None or batch.allowed is not None and \
                        tau_w not in batch.allowed[x]:
                    want = "empty-up-to-cutoff", None, None
                else:
                    want = "nonempty", eng.stratum_value(val, corr2), w
                    hits += 1
                assert outcome(got[x]) == want, (ctx.format(x), ctx.format(w))
    assert dropped and hits


@pytest.mark.parametrize("spec,class_key,max_len,cutoff,twisted", [
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", 4, 6, True),
    (("C", 2, "adjoint"), "nu=[1,0];kappa=[0,0]", 4, 6, False),
    (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 3, 5, True),
])
def test_pruned_w_have_empty_strata(spec, class_key, max_len, cutoff, twisted):
    # prepare_batch drops the w whose w^{-1} b w is no end of the batch:
    # no x of the batch has that element in its dimension table, so a
    # dropped w can never give a stratum.  And the ends of one x = word *
    # tau are {y * tau : y <= word in Bruhat order}
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, class_key)
    b, p, _corr2 = eng.class_data(ctx, cls)
    xs = survey_elements(ctx, cls, max_len)
    # twisted: every x = word * tau of the class has tau != e
    assert twisted == all(ctx.reduced_word(x)[1] != ctx.identity for x in xs)
    dropped = 0
    for batch in (xs[:2], random.Random(3).sample(xs, 4)):
        _walls, ends, _reach = eng.fold_walls(
            ctx, eng.prefix_tree(ctx, {x: ctx.reduced_word(x) for x in batch}))
        for w in eng.sweep_elements(ctx, cutoff, eng.omega_window(ctx, cls, batch + [b])):
            btilde = ctx.conj_inv(w, b)
            if btilde in ends:
                continue
            dropped += 1
            for x in batch:
                assert eng.orbit_dim_table(ctx, x, p, w).get(btilde) is None, \
                    (ctx.format(x), ctx.format(w))
    assert dropped
    e = frozenset([ctx.identity])
    for x in xs[::len(xs) // 4]:
        word, tau = ctx.reduced_word(x)
        top = ctx.mul(x, ctx.inv(tau))
        _walls, ends, _reach = eng.fold_walls(ctx, eng.prefix_tree(ctx, {x: (word, tau)}))
        below = [y for y in eng.sweep_elements(ctx, len(word), e) if ctx.bruhat_leq(y, top)]
        assert ends == {ctx.mul(y, tau) for y in below}, ctx.format(x)


@pytest.mark.parametrize("spec,class_key,central", [
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", False),
    (("GL", 3, ""), "nu=[1/2,1/2,0];kappa=[0,0,1]", False),
    (("C", 2, "adjoint"), "trivial", True),
])
def test_profiles_only_for_the_w_that_reach_an_end(monkeypatch, spec, class_key,
                                                   central):
    # prepare_batch computes one profile per twist pair (P_tau, b_tau) of
    # its Omega set and u of the ball up to the cutoff whose u^{-1} b_tau u
    # is an end of the batch: fewer than all such pairs and u for a
    # non-central b, all of them for the trivial class
    ctx = affine_context(build_root_datum(*spec))
    cls = parse_class_key(ctx, class_key)
    b, p, _corr2 = eng.class_data(ctx, cls)
    assert ctx.is_central(b) == central
    xs = survey_elements(ctx, cls, 4)
    calls = []
    profile = eng.orientation_profile
    monkeypatch.setattr(eng, "orientation_profile",
                        lambda *args: calls.append(args) or profile(*args))
    batch = eng.prepare_batch(ctx, cls, xs, 6)
    monkeypatch.undo()
    assert batch.words
    _walls, ends, _reach = eng.fold_walls(ctx, batch.tree)
    if batch.allowed is None:
        omegas = eng.omega_window(ctx, cls, [b])
    else:
        omegas = frozenset().union(*batch.allowed.values())
    pairs = {}
    for tau in omegas:
        p_tau, b_tau = _twist(ctx, p, tau, b)
        pairs[p_tau.r_n, p_tau.r_nbar, b_tau] = p_tau
    every = [u for u, n in ctx.sweep.ball.items() if n <= 6]
    reached = collections.Counter(
        (r_n, r_nbar, u) for (r_n, r_nbar, b_tau) in pairs for u in every
        if ctx.conj_inv(u, b_tau) in ends)
    assert collections.Counter((args[1].r_n, args[1].r_nbar, args[2])
                               for args in calls) == reached
    assert (sum(reached.values()) == len(pairs) * len(every)) == central
    assert batch.allowed is None or len(pairs) > 1


def _for_every_case(hyp, cases, check):
    # check(case, data) on 5 derandomized examples of every case, so that
    # every case runs however many there are
    for case in sorted(cases):
        hyp.settings(max_examples=5, deadline=None, derandomize=True)(
            hyp.given(hyp.strategies.just(case), hyp.strategies.data())(check))()


def test_survey_batch_matches_reference_on_random_batches():
    # the refinement partitions the prefix tree of each batch differently;
    # random subsets of a survey, in random order, still give every x the
    # per-w reference's answer
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cases = {}
    for spec, key, max_len, cutoff in [(("A", 2, "SL"), "trivial", 4, 5),
                                       (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", 4, 5),
                                       (("C", 2, "adjoint"), "trivial", 5, 6),
                                       (("C", 2, "adjoint"), "nu=[1,0];kappa=[0,0]", 4, 6),
                                       (("C", 2, "adjoint"), "nu=[0,0];kappa=[0,1]", 5, 6),
                                       (("B", 2, "adjoint"), "nu=[0,0];kappa=[0,1]", 5, 6),
                                       (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 4, 5),
                                       (("G", 2, "adjoint"), "nu=[0,1];kappa=[0,0]", 6, 7),
                                       (("GL", 3, ""), "nu=[1/2,1/2,0];kappa=[0,0,1]", 4, 5)]:
        ctx = affine_context(build_root_datum(*spec))
        cls = parse_class_key(ctx, key)
        cases[spec, key] = (ctx, cls, survey_elements(ctx, cls, max_len), cutoff)
    want = {}

    def check(case, data):
        ctx, cls, xs, cutoff = cases[case]
        batch = data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=10,
                                   unique=True))
        got = eng.survey_batch(ctx, cls, batch, cutoff)
        assert set(got) == set(batch)
        for x in batch:
            if (case, x) not in want:
                want[case, x] = reference_solve(ctx, x, cls, cutoff)
            assert outcome(got[x]) == want[case, x], ctx.format(x)

    _for_every_case(hyp, cases, check)
    assert {case for case, _x in want} == set(cases)
    assert any(status == "nonempty" for status, _dim, _w in want.values())


def test_walks_of_a_split_batch_match_one_survey_batch():
    # survey --jobs prepares once and walks each chunk against the groups of
    # all pending x: random subsets of a survey, split into 1-3 random
    # chunks, give every x the status, dim and witness of one survey_batch
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    cases = {}
    for spec, key, max_len, cutoff in [(("A", 2, "SL"), "trivial", 4, 5),
                                       (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]", 4, 5),
                                       (("C", 2, "adjoint"), "trivial", 5, 6),
                                       (("C", 2, "adjoint"), "nu=[0,0];kappa=[0,1]", 5, 6),
                                       (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]", 4, 5),
                                       (("G", 2, "adjoint"), "nu=[0,1];kappa=[0,0]", 6, 7),
                                       (("GL", 3, ""), "nu=[1/2,1/2,0];kappa=[0,0,1]", 4, 5)]:
        ctx = affine_context(build_root_datum(*spec))
        cls = parse_class_key(ctx, key)
        cases[spec, key] = (ctx, cls, survey_elements(ctx, cls, max_len), cutoff)
    walked = []

    def check(case, data):
        ctx, cls, xs, cutoff = cases[case]
        subset = data.draw(st.lists(st.sampled_from(xs), min_size=1, max_size=12,
                                    unique=True))
        want = eng.survey_batch(ctx, cls, subset, cutoff)
        batch = eng.prepare_batch(ctx, cls, subset, cutoff)
        pending = list(batch.words)
        nchunks = data.draw(st.integers(1, 3))
        where = data.draw(st.lists(st.integers(0, nchunks - 1), min_size=len(pending),
                                   max_size=len(pending)))
        got = dict(batch.certified)
        for i in range(nchunks):
            chunk = [x for x, k in zip(pending, where) if k == i]
            got.update(eng.walk_batch(ctx, batch, chunk))
        assert set(got) == set(subset)
        for x in subset:
            assert outcome(got[x]) == outcome(want[x]), ctx.format(x)
        walked.extend(got[x].status for x in pending)

    _for_every_case(hyp, cases, check)
    assert "nonempty" in walked


def test_p_alcove_parabolics_is_the_filtered_list():
    # the pass over one offset vector per x against the per-P reference
    # report, for every semistandard P and every x of the twisted ball
    for spec in P_ALCOVE_DATA:
        ctx = affine_context(build_root_datum(*spec))
        paras = semistandard_parabolics(ctx.datum)
        kept = 0
        for x in twisted_ball(ctx, 4):
            want = [p for p in paras
                    if not p.is_full and is_p_alcove(ctx, x, p).verdict]
            assert list(eng.p_alcove_parabolics(ctx, x)) == want, (spec, ctx.format(x))
            kept += len(want)
        assert kept, spec


def test_memo_tables_live_on_their_objects():
    d1 = RootDatum("C", 2, "adjoint")
    d2 = RootDatum("C", 2, "adjoint")
    c1, c2 = affine_context(d1), affine_context(d2)
    assert d1._context is c1 and affine_context(d1) is c1
    assert c2 is not c1
    cls = sg.classify(c1, c1.identity)
    assert sg.classify(c1, c1.identity) is cls
    assert list(c1.classes.values()) == [cls]
    assert c2.classes == {}
    assert sg.classify(c2, c2.identity) is not cls
    # class_from_invariants and classify share the context's memo, either
    # one building the class first
    assert sg.class_from_invariants(d1, cls.newton, cls.kappa) is cls
    x = c1.from_translation((2, 1))
    nb = sg.class_from_invariants(d1, sg.newton_point(c1, x), c1.omega_class(x))
    assert not sg.is_basic(d1, nb) and sg.classify(c1, x) is nb
    assert len(c1.classes) == 2
    assert sg.class_from_invariants(d2, nb.newton, nb.kappa) is not nb
    assert sg.class_from_invariants(d2, cls.newton, cls.kappa) is sg.classify(c2, c2.identity)


def test_superset_basics(a2_ctx):
    ctx = a2_ctx
    cls0 = sg.classify(ctx, ctx.identity)
    sup0 = eng.superset(ctx, cls0, 0)
    assert sup0 == {ctx.identity}
    # no nonzero translation ever enters the superset of the trivial class
    sup = eng.superset(ctx, cls0, 6)
    for y in sup:
        if ctx.finite(y) == 0:
            assert y == ctx.identity
    # agreement with the solver on a ball
    xs = ball_with_omega(ctx, 6)
    res = eng.survey_batch(ctx, cls0, xs, cutoff=8)
    sup8 = eng.superset(ctx, cls0, 8)
    for x in xs:
        if res[x].status == "nonempty":
            assert x in sup8
        elif res[x].status == "empty-certified":
            assert x not in sup8


def test_reduce_to_basic_degenerates_for_basic_classes(c2_ctx):
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    x = ctx.from_word((1, 2, 0))
    r1 = eng.solve(ctx, x, cls, cutoff=8)
    r2 = eng.reduce_to_basic(ctx, x, cls, cutoff=8)
    assert (r1.status, r1.dim) == (r2.status, r2.dim)


def test_reduce_to_basic_translation_class(a2_ctx):
    # regular translation class: the recursion passes through the torus and
    # reproduces the direct algorithm, including dimensions
    ctx = a2_ctx
    cls = sg.classify(ctx, ctx.from_translation((1, 0, -1)))
    for x in ball_with_omega(ctx, 5):
        r1 = eng.solve(ctx, x, cls, cutoff=9)
        r2 = eng.reduce_to_basic(ctx, x, cls, cutoff=9)
        assert (r1.status == "nonempty") == (r2.status == "nonempty"), ctx.format(x)
        if r1.status == r2.status == "nonempty":
            assert r1.dim == r2.dim, ctx.format(x)


def test_reduce_to_basic_nontorus_levi(a2_ctx):
    # the class with a rank-one Levi exercises the Hecke recursion inside a
    # conjugated Levi; statuses and dimensions must match the direct sweep
    ctx = a2_ctx
    cls = sg.class_from_invariants(ctx.datum, (1, Fraction(-1, 2), Fraction(-1, 2)),
                                   ctx.datum.lambda_g.zero())
    assert len(cls.home_simple) == 1
    for x in ball_with_omega(ctx, 5):
        r1 = eng.solve(ctx, x, cls, cutoff=9)
        r2 = eng.reduce_to_basic(ctx, x, cls, cutoff=9)
        assert (r1.status == "nonempty") == (r2.status == "nonempty"), ctx.format(x)
        if r1.status == r2.status == "nonempty":
            assert r1.dim == r2.dim, ctx.format(x)


def test_reduce_to_basic_example_94(a2_ctx):
    ctx = a2_ctx
    x = ctx.parse("t[3,1,-4]*s1*s2*s1")
    cls = sg.classify(ctx, ctx.parse("t[2,0,-2]"))
    r = eng.reduce_to_basic(ctx, x, cls, cutoff=8)
    assert r.status == "empty-up-to-cutoff"


def test_reduce_to_basic_rejects_wrong_levi_rep(a2_ctx):
    # the standard representative is always basic over its Levi, so the
    # recursion applies to every class; spot-check the Levi solver's
    # basicness check instead (an exception, so it survives python -O)
    ctx = a2_ctx
    p = standard_parabolic(ctx.datum, frozenset({ctx.datum.simple_idx[0]}))
    y = ctx.from_translation((1, -1, 0))
    with pytest.raises(ValueError, match="basic over the Levi"):
        eng.solve_levi_basic(ctx, p, y, ctx.from_translation((2, -2, 0)), 4)


@pytest.mark.parametrize("spec,maxlen,cutoff", [
    (("A", 1, "SL"), 14, 16),
    (("A", 2, "SL"), 10, 12),
    (("G", 2, "adjoint"), 12, 19),  # deep G2 witnesses run long
])
def test_shrunken_rule_other_rank2_types(spec, maxlen, cutoff):
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    cls = sg.classify(ctx, ctx.identity)
    xs = [x for x in ball_with_omega(ctx, maxlen) if is_shrunken(ctx, x)]
    res = eng.survey_batch(ctx, cls, xs, cutoff=cutoff)
    for x in xs:
        status, dim = eng.predict_shrunken(ctx, x, cls)
        r = res[x]
        if status == "empty":
            assert r.status == "empty-certified", ctx.format(x)
        else:
            assert r.status == "nonempty" and r.dim == dim, \
                (ctx.format(x), r.status, r.dim, dim)


def test_table_entries_bounded_by_length(c2_ctx):
    ctx = c2_ctx
    p = full_parabolic(ctx.datum)
    for x in ball_with_omega(ctx, 6)[::5]:
        for w in ball_with_omega(ctx, 4)[::7]:
            table = eng.orbit_dim_table(ctx, x, p, w)
            assert all(0 <= d <= ctx.length(x) for d in table.values())


def test_superset_matches_solve_trivial_class_c2(c2_ctx):
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    xs = ball_with_omega(ctx, 10)
    res = eng.survey_batch(ctx, cls, xs, cutoff=12)
    sup = eng.superset(ctx, cls, 10)
    for x in xs:
        if res[x].status == "nonempty":
            assert x in sup, ctx.format(x)
        elif res[x].status == "empty-certified":
            assert x not in sup, ctx.format(x)


def test_solve_monotone_in_cutoff(c2_ctx):
    ctx = c2_ctx
    cls = sg.classify(ctx, ctx.identity)
    rng = random.Random(41)
    xs = ball_with_omega(ctx, 7)
    sample = [xs[rng.randrange(len(xs))] for _ in range(8)]
    for x in sample:
        dims = []
        for cut in (2, 5, 8, 11):
            r = eng.solve(ctx, x, cls, cutoff=cut)
            dims.append(r.dim if r.status == "nonempty" else -1)
        assert dims == sorted(dims)
        # certified emptiness never flips
        r0 = eng.solve(ctx, x, cls, cutoff=2)
        if r0.status == "empty-certified":
            assert eng.solve(ctx, x, cls, cutoff=11).status == "empty-certified"


@pytest.mark.parametrize("spec", [("C", 3, "adjoint"), ("B", 3, "adjoint")])
def test_rank_three_pipeline_smoke(spec):
    datum = build_root_datum(*spec)
    ctx = affine_context(datum)
    cls = sg.classify(ctx, ctx.identity)
    assert len({ctx.omega_class(v) for v in ctx.omega_g_elements().values()}) == 2
    for word in [(0,), (1, 2), (0, 1, 2, 1)]:
        x = ctx.from_word(word)
        r = eng.solve(ctx, x, cls, cutoff=5)
        if r.status == "nonempty":
            # spot-check one stratum against the Hecke oracle
            table = eng.orbit_dim_table(ctx, x, full_parabolic(datum), r.witness_w)
            b = sg.standard_representative(ctx, cls)
            btilde = ctx.conj(ctx.inv(r.witness_w), b)
            H = Hecke(ctx)
            winv = ctx.inv(r.witness_w)
            assert table[btilde] == structure_deg(
                H, x, ctx.mul(ctx.inv(btilde), winv), winv) == r.dim


def test_default_cutoff_formula(a2_ctx):
    ctx = a2_ctx
    x = ctx.parse("t[2,0,-2]")
    cls = sg.classify(ctx, x)
    assert eng.default_cutoff(ctx, x, cls) == 8 + 8 + 2 * 3


def _fold_step_reference(ctx, frontier, gen, profile):
    # the group product and a wall recomputed from alcove coordinates, in
    # place of the step table
    out = {}
    g = ctx.gens[gen]
    for c, d in frontier.items():
        cs = ctx.mul(c, g)
        beta, j, c_upper = wall_from_k_alpha(ctx, c, cs)
        fold_upper = j >= profile[beta]
        if c_upper != fold_upper:
            if out.get(cs, -1) < d + 1:
                out[cs] = d + 1
        else:
            if out.get(cs, -1) < d:
                out[cs] = d
            if out.get(c, -1) < d + 1:
                out[c] = d + 1
    return out


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"),
                                  ("G", 2, "adjoint"), ("GL", 3, "")])
def test_fold_step_matches_reference(spec):
    ctx = affine_context(build_root_datum(*spec))
    rng = random.Random(17)
    paras = semistandard_parabolics(ctx.datum)
    ws = ball_with_omega(ctx, 3)
    xs = ball_with_omega(ctx, 6)
    steps = 0
    for _ in range(12):
        p = rng.choice(paras)
        profile = eng.orientation_profile(ctx, p, rng.choice(ws))
        for x in rng.sample(xs, 5):
            word, _tau = ctx.reduced_word(x)
            frontier = {ctx.identity: 0}
            for gi in word:
                want = _fold_step_reference(ctx, frontier, gi, profile)
                frontier = eng.fold_step(ctx, frontier, gi, profile)
                assert frontier == want
                steps += 1
    assert steps > 100


def _targets_from_scratch(datum, p, cls, kappa_filter):
    # the Newton orbit and the Levi classes recomputed without any memo;
    # with kappa_filter, the paper's form for basic b: only the classes over
    # M in the component of the class
    W = datum.weyl
    orbit = {datum.coweight_nf_frac(W.apply(w, cls.newton)) for w in W.elements()}
    out = set()
    for nu in orbit:
        for lam in sg.levi_classes_with_newton(datum, p.r_m, nu):
            if not kappa_filter or datum.lambda_g.normal_form(lam) == cls.kappa:
                out.add(p.lattice.normal_form(lam))
    return out


@pytest.mark.parametrize("spec,lam", [(("A", 2, "SL"), (1, 0, -1)),
                                      (("C", 2, "adjoint"), (1, 0)),
                                      (("G", 2, "adjoint"), (1, 0))])
def test_levi_targets_shared_by_levi(spec, lam):
    # the target memo is keyed by M and the Newton point: parabolics with
    # one Levi, and the basic classes of all components, share an entry,
    # and it equals a fresh computation for each of them
    from adlv.affine import AffineWeyl
    datum = build_root_datum(*spec)
    lam = lam + (0,) * (datum.d - len(lam))
    ctx = AffineWeyl(datum)
    basics = [sg.classify(ctx, tau) for tau in ctx.omega_g_elements().values()]
    classes = basics + [sg.classify(ctx, ctx.from_translation(datum.dominant(lam)))]
    shared = 0
    for ps in semistandard_levis(datum).values():
        for cls in classes:
            first = eng.levi_eta_targets(ctx, ps[0], cls)
            for p in ps:
                assert eng.levi_eta_targets(ctx, p, cls) is first
                assert first == _targets_from_scratch(datum, p, cls, False)
            shared += len(ps) > 1
        for cls in basics:
            assert eng.levi_eta_targets(ctx, ps[0], cls) is \
                eng.levi_eta_targets(ctx, ps[0], basics[0])
    assert shared


@pytest.mark.parametrize("spec,max_len,drops", [(("A", 2, "SL"), 6, True),
                                                (("C", 2, "adjoint"), 6, True),
                                                (("G", 2, "adjoint"), 6, False),
                                                (("GL", 3, ""), 5, False)])
def test_kappa_filter_drops_no_tested_value(spec, max_len, drops):
    # for a basic class the paper keeps only the classes over M in the
    # component of b (the kappa-filtered reference).  Once kappa(x) =
    # kappa(b) that filter drops no value eta_M(x) can take, as Lambda_M ->
    # Lambda_G is well defined: necessary_condition gives the reference's
    # verdict and first P for every x of every component of a window, and
    # predict_levi says "empty" exactly when the sweep has a certificate
    ctx = affine_context(build_root_datum(*spec))
    datum = ctx.datum
    p_full = full_parabolic(datum)
    taus = [ctx.omega_element(p_full, nf) for nf in datum.lambda_g.window(1)]
    xs = [ctx.mul(u, tau) for u in affine_ball(ctx, max_len) for tau in taus]
    proper = [p for p in semistandard_parabolics(datum) if not p.is_full]
    filtered = {}
    verdicts = set()
    for tau in taus:
        cls = sg.classify(ctx, tau)
        assert sg.is_basic(datum, cls)
        for x in xs:
            want = "component" if ctx.omega_class(x) != cls.kappa else None
            for p in proper if want is None else ():
                if not is_p_alcove(ctx, x, p).verdict:
                    continue
                if (p, cls) not in filtered:
                    filtered[p, cls] = _targets_from_scratch(datum, p, cls, True)
                if p.eta_m(ctx.translation(x)) not in filtered[p, cls]:
                    want = p.key()
                    break
            cert = eng.necessary_condition(ctx, x, cls)
            got = None if cert is None else \
                "component" if cert.kind == "component" else cert.parabolic_key
            assert got == want, (ctx.format(x), cls.key())
            status, _cert = eng.predict_levi(ctx, x, cls)
            assert (status == "empty") == \
                (eng.emptiness_certificate(ctx, x, cls) is not None), ctx.format(x)
            verdicts.add(want if want in (None, "component") else "levi")
    assert verdicts == ({None, "component", "levi"} if len(taus) > 1 else {None, "levi"})
    # the filter keeps every value where kappa_G is determined by the Newton
    # point (G2 has one component; for GL3 it is the sum of the coordinates),
    # and drops some for torsion Lambda_G
    assert drops == any(eng.levi_eta_targets(ctx, p, cls) > want
                        for (p, cls), want in filtered.items())


def _levi_generators_wide_k(ctx, p):
    # the generator list over the wider range k in [-2, 4) used before
    datum = ctx.datum
    gens = []
    for i in sorted(p.r_m):
        if i >= datum.nposroots:
            continue
        for k in range(-2, 4):
            refl = ctx.intern(tuple(k * v for v in datum.coroots[i]),
                              ctx._reflection_index(i))
            if ctx.length_levi(refl, p) == 1 and refl not in gens:
                gens.append(refl)
    return gens


@pytest.mark.parametrize("spec", [("C", 2, "adjoint"), ("G", 2, "adjoint"),
                                  ("A", 3, "")])
def test_levi_affine_generators_walls_at_0_and_1(spec):
    ctx = affine_context(build_root_datum(*spec))
    for p in semistandard_parabolics(ctx.datum):
        assert eng.levi_affine_generators(ctx, p) == _levi_generators_wide_k(ctx, p)
