import random
from collections import deque

import pytest

from adlv.roots import (build_root_datum, semistandard_levis, semistandard_parabolics,
                        standard_parabolic)
from adlv.snf import solve_frac
from adlv.affine import AffineWeyl, affine_context
from conftest import P_ALCOVE_DATA, ball_with_omega, twisted_ball, wall_from_k_alpha


def rand_elements(ctx, rng, count, maxword):
    r = len(ctx.gens)
    return [ctx.from_word(tuple(rng.randrange(r) for _ in range(rng.randrange(maxword))))
            for _ in range(count)]


def test_group_axioms(a2_ctx):
    ctx = a2_ctx
    rng = random.Random(2)
    els = rand_elements(ctx, rng, 30, 8)
    for x in els:
        assert ctx.mul(x, ctx.inv(x)) == ctx.identity
        assert ctx.mul(ctx.inv(x), x) == ctx.identity
    for x in els[:10]:
        for y in els[:10]:
            for z in els[:5]:
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))


def _apply_by_matrix(W, w, vec):
    # the matrix-vector product, entry by entry: the reference for W.apply
    m = W.mats[w]
    return tuple(sum(m[a][b] * vec[b] for b in range(W.d)) for a in range(W.d))


AXIOM_DATA = [("A", 2, "SL"), ("C", 2, ""), ("G", 2, ""), ("GL", 3, ""), ("B", 3, "")]


def test_group_axioms_property():
    # associativity, inverses and the identity on random elements (lam, w)
    # of each datum; the closed-form conj against the product, and the
    # Weyl action against the matrix product
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    elt = st.tuples(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                    st.integers(0, 10 ** 6))

    @hyp.settings(max_examples=80, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(AXIOM_DATA), elt, elt, elt)
    def check(spec, a, b, c):
        ctx = affine_context(build_root_datum(*spec))
        W = ctx.datum.weyl
        parts = [(tuple(lam[:W.d]), w % W.n) for lam, w in (a, b, c)]
        x, y, z = (ctx.intern(lam, w) for lam, w in parts)
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        assert ctx.mul(x, ctx.inv(x)) == ctx.identity == ctx.mul(ctx.inv(x), x)
        assert ctx.mul(x, ctx.identity) == x == ctx.mul(ctx.identity, x)
        assert ctx.conj(x, y) == ctx.mul(ctx.mul(x, y), ctx.inv(x))
        for lam, w in parts:
            assert W.apply(w, lam) == _apply_by_matrix(W, w, lam)

    check()


def test_translations_commute(a2_ctx):
    ctx = a2_ctx
    a = ctx.from_translation((1, 0, -1))
    b = ctx.from_translation((0, 1, -1))
    assert ctx.mul(a, b) == ctx.from_translation((1, 1, -2))
    assert ctx.mul(a, b) == ctx.mul(b, a)


def test_inverse_formula(a2_ctx):
    ctx = a2_ctx
    W = ctx.datum.weyl
    rng = random.Random(4)
    for x in rand_elements(ctx, rng, 40, 9):
        lam, w = ctx._elts[x]
        wi = W.inv[w]
        want = ctx.intern(tuple(-v for v in W.apply(wi, lam)), wi)
        assert ctx.inv(x) == want
        assert ctx.inv(want) == x  # the memo answers the reverse direction


def test_length_of_translation_and_reduced_expression(a2_ctx):
    ctx = a2_ctx
    b = ctx.parse("t[2,0,-2]")
    assert ctx.length(b) == 8
    # a known reduced expression of length 8 for this translation
    assert ctx.from_word((0, 1, 2, 1, 0, 1, 2, 1)) == b
    word, tau = ctx.reduced_word(b)
    assert len(word) == 8 and tau == ctx.identity
    assert ctx.length(ctx.identity) == 0
    # dominant translations: ell = <2rho, mu>
    for mu in [(1, 0, -1), (2, 1, -3), (3, 0, -3)]:
        tw = sum(a * b for a, b in zip(ctx.datum.two_rho, mu))
        assert ctx.length(ctx.from_translation(mu)) == tw


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("B", 2, "adjoint"),
                                  ("C", 2, "adjoint"), ("G", 2, "adjoint")])
def test_length_equals_alcove_graph_distance(spec):
    # independent oracle: breadth-first distance in the alcove graph equals
    # the hyperplane separation count, on every supported rank-2 datum
    ctx = affine_context(build_root_datum(*spec))
    radius = 8
    dist = {ctx.identity: 0}
    q = deque([ctx.identity])
    while q:
        u = q.popleft()
        if dist[u] >= radius:
            continue
        for g in ctx.gens:
            v = ctx.mul(u, g)
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    assert len(dist) > 50
    for u, dd in dist.items():
        if dd < radius:  # interior of the ball: distance is exact
            assert ctx.length(u) == dd


def test_k_alpha_values(a2_ctx, c2_ctx):
    for ctx in (a2_ctx, c2_ctx):
        npos = ctx.datum.nposroots
        for i in range(npos):
            assert ctx.k_alpha(i, ctx.identity) == 1
            assert ctx.k_alpha(i + npos, ctx.identity) == 0
        rng = random.Random(6)
        for x in rand_elements(ctx, rng, 25, 9):
            for i in range(npos):
                assert ctx.k_alpha(i, x) + ctx.k_alpha(i + npos, x) == 1


@pytest.mark.parametrize("spec", P_ALCOVE_DATA)
def test_offsets_match_k_alpha(spec):
    # the offset vector against the reference formula, root by root
    ctx = affine_context(build_root_datum(*spec))
    roots = range(len(ctx.datum.roots))
    base = [ctx.k_alpha(r, ctx.identity) for r in roots]
    for x in twisted_ball(ctx, 4):
        assert ctx.offsets(x) == tuple(ctx.k_alpha(r, x) - kb for r, kb in zip(roots, base))


def test_k_alpha_a1_coroot():
    d = build_root_datum("A", 1, "SL")
    ctx = affine_context(d)
    x = ctx.from_translation(d.coroots[0])
    assert ctx.k_alpha(0, x) == 3


def test_k_alpha_omega_invariance(a2_ctx):
    # condition on k depends only on the non-extended alcove
    ctx = a2_ctx
    rng = random.Random(8)
    om = [t for t in ctx.omega_g_elements().values()]
    for x in rand_elements(ctx, rng, 15, 7):
        for tau in om:
            xt = ctx.mul(x, tau)
            for i in range(len(ctx.datum.roots)):
                assert ctx.k_alpha(i, x) == ctx.k_alpha(i, xt)


def test_length_triangle_inequality(c2_ctx):
    ctx = c2_ctx
    rng = random.Random(9)
    els = rand_elements(ctx, rng, 25, 9)
    for x in els:
        for y in els:
            assert ctx.length(ctx.mul(x, y)) <= ctx.length(x) + ctx.length(y)


def test_bruhat_reflexive_and_example(a2_ctx):
    ctx = a2_ctx
    b = ctx.parse("t[2,0,-2]")
    x = ctx.from_word((0, 1, 2, 1, 0, 1, 2, 0, 1, 2, 0))
    assert x == ctx.parse("t[3,1,-4]*s1*s2*s1")
    assert ctx.length(x) == 11
    assert ctx.bruhat_leq(b, x)
    assert not ctx.bruhat_leq(x, b)
    assert ctx.bruhat_leq(x, x)


def brute_bruhat_leq(ctx, xid, yid):
    """Independent subword oracle: enumerate all subwords of red(y)."""
    if ctx.omega_class(xid) != ctx.omega_class(yid):
        return False
    word, tau = ctx.reduced_word(yid)
    n = len(word)
    target = ctx.mul(xid, ctx.inv(tau))
    tl = ctx.length(target)
    seen = set()
    for mask in range(1 << n):
        if bin(mask).count("1") != tl:
            continue
        cur = ctx.identity
        for i in range(n):
            if mask >> i & 1:
                cur = ctx.mul(cur, ctx.gens[word[i]])
        if cur == target and ctx.length(cur) == tl:
            return True
    return False


def test_bruhat_against_subword_oracle(c2_ctx):
    ctx = c2_ctx
    rng = random.Random(10)
    els = [e for e in rand_elements(ctx, rng, 40, 6) if ctx.length(e) <= 5]
    for x in els[:18]:
        for y in els[:18]:
            assert ctx.bruhat_leq(x, y) == brute_bruhat_leq(ctx, x, y)


def test_bruhat_against_subword_oracle_property():
    # y = word * tau^k with ell(y) <= 6; x is the product of a subword of a
    # reduced word of y times its tau (so x <= y), or an element drawn the
    # same way as y (mostly incomparable, often in another component)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    word = st.lists(st.integers(0, 10), max_size=6)

    @hyp.settings(max_examples=150, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from([("A", 2, "SL"), ("C", 2, ""), ("GL", 3, "")]),
               word, st.integers(-2, 2), st.booleans(), st.integers(0, 63),
               word, st.integers(-2, 2))
    def check(spec, yword, yk, from_y, mask, xword, xk):
        ctx = affine_context(build_root_datum(*spec))
        r = len(ctx.gens)
        y = ctx.from_word([g % r for g in yword], ctx.parse(f"tau^{yk}"))
        if from_y:
            red, tau = ctx.reduced_word(y)
            x = ctx.from_word([g for i, g in enumerate(red) if mask >> i & 1], tau)
        else:
            x = ctx.from_word([g % r for g in xword], ctx.parse(f"tau^{xk}"))
        want = brute_bruhat_leq(ctx, x, y)
        assert ctx.bruhat_leq(x, y) == want
        if from_y:
            assert want

    check()


def test_bruhat_needs_same_component(c2_ctx):
    ctx = c2_ctx
    om = ctx.omega_g_elements()
    tau = next(v for v in om.values() if v != ctx.identity)
    assert not ctx.bruhat_leq(ctx.identity, tau)
    assert not ctx.bruhat_leq(tau, ctx.identity)


def test_bruhat_implies_length(c2_ctx):
    ctx = c2_ctx
    rng = random.Random(12)
    els = rand_elements(ctx, rng, 30, 8)
    for x in els:
        for y in els:
            if ctx.bruhat_leq(x, y):
                assert ctx.length(x) <= ctx.length(y)


def test_omega_groups(a2_ctx, gl2_ctx):
    ctx = a2_ctx
    om = ctx.omega_g_elements()
    assert len(om) == 3
    for cls, el in om.items():
        assert ctx.length(el) == 0
        assert ctx.omega_class(el) == cls
        # conjugation by a length-zero element permutes the affine generators
        gens = set(ctx.gens)
        assert {ctx.mul(ctx.mul(el, g), ctx.inv(el)) for g in ctx.gens} == gens
    nontriv = [el for el in om.values() if el != ctx.identity]
    assert all(ctx.finite(el) != 0 for el in nontriv)
    # GL2: the generator with eta = 1 is eps^{(1,0)} s_1, squaring to eps^{(1,1)}
    g2 = gl2_ctx
    p = standard_parabolic(g2.datum, frozenset(g2.datum.simple_idx))
    tau = g2.omega_element(p, g2.datum.lambda_g.normal_form((1, 0)))
    assert g2.format(tau) == "t[1,0]*s1"
    assert g2.mul(tau, tau) == g2.from_translation((1, 1))


def test_omega_of_torus_is_translations(a2_ctx):
    ctx = a2_ctx
    p = standard_parabolic(ctx.datum, frozenset())
    for lam in [(1, 0, -1), (2, 1, 0), (0, 0, 0)]:
        x = ctx.omega_element(p, p.lattice.normal_form(lam))
        assert ctx.finite(x) == 0
        assert p.lattice.normal_form(ctx.translation(x)) == p.lattice.normal_form(lam)


def test_eta_levi(a2_ctx):
    ctx = a2_ctx
    d = ctx.datum
    # eta_G of a coroot translation is zero
    assert ctx.omega_class(ctx.from_translation(d.coroots[0])) == d.lambda_g.zero()
    # the Levi of Example-type {conjugated alpha_2}: finite part dies
    s1 = d.reflection_index(d.simple_idx[0])
    from adlv.roots import SemistdParabolic
    p = SemistdParabolic(d, s1, frozenset({d.simple_idx[1]}))
    s121 = next(w for w in d.weyl.elements() if d.weyl.length[w] == 3)
    for mu in [(0, 1, -1), (1, 1, -2), (2, -1, -1)]:
        x = ctx.intern(mu, s121)
        assert ctx.eta_levi(x, p) == p.eta_m(mu)
    # the value is determined by the pair (mu_1 + mu_3, mu_2): two
    # cocharacters agree iff those pairs agree (given sum zero)
    pairs = {}
    for mu in [(-1, 1, 0), (0, 1, -1), (1, 1, -2), (0, 2, -2), (1, 0, -1)]:
        pairs.setdefault((mu[0] + mu[2], mu[1]), set()).add(p.eta_m(mu))
    for vals in pairs.values():
        assert len(vals) == 1
    assert p.eta_m((-1, 1, 0)) == p.eta_m((0, 1, -1))
    assert p.eta_m((-1, 1, 0)) != p.eta_m((1, 0, -1))
    # rejection outside the Levi
    s1el = ctx.intern((0,) * 3, s1)
    with pytest.raises(ValueError):
        ctx.eta_levi(s1el, p)


def test_text_roundtrip(a2_ctx, c2_ctx, gl3_ctx):
    rng = random.Random(14)
    for ctx in (a2_ctx, c2_ctx, gl3_ctx):
        for x in rand_elements(ctx, rng, 25, 8):
            assert ctx.parse(ctx.format(x)) == x
    # affine words and omega tokens parse
    ctx = a2_ctx
    assert ctx.parse("s0 s1 s2") == ctx.from_word((0, 1, 2))
    assert ctx.parse("tau") != ctx.identity
    assert ctx.parse("tau^3") == ctx.identity


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"), ("GL", 3, "")])
def test_tau_power_is_one_normal_form(spec, monkeypatch):
    # tau^k is k times the generator in one normal form: no Lambda_G.add, at
    # any k, and the same element as the product of |k| factors tau^{+-1}
    ctx = affine_context(build_root_datum(*spec))
    lam_g = type(ctx.datum.lambda_g)
    want = {}
    for k in range(-4, 5):
        step = ctx.parse("tau" if k >= 0 else "tau^-1")
        want[k] = ctx.identity
        for _ in range(abs(k)):
            want[k] = ctx.mul(want[k], step)

    def no_add(self, a, b):
        raise AssertionError("tau^k must not add k times")
    monkeypatch.setattr(lam_g, "add", no_add)
    for k, x in want.items():
        assert ctx.parse(f"tau^{k}") == x, k
    n = ctx.datum.lambda_g.order()
    if n is not None:
        # on A2 SL (n = 3): tau^1000000001 = tau^2 and tau^-1000000001 = tau^-2
        k = (10 ** 9 + 1) % n
        assert ctx.parse(f"tau^{10 ** 9 + 1}") == want[k]
        assert ctx.parse(f"tau^-{10 ** 9 + 1}") == want[-k]


@pytest.mark.parametrize("spec", [("C", 2, "adjoint"), ("G", 2, "adjoint"),
                                  ("GL", 3, "")])
def test_step_table_matches_mul_and_walls(spec):
    # every row of the step table against the group product and a wall
    # recomputed from alcove coordinates
    ctx = affine_context(build_root_datum(*spec))
    xs = ball_with_omega(ctx, 4)
    xs += [ctx.mul(ctx.from_translation((0,) * (ctx.datum.d - 1) + (1,)), x)
           for x in xs[:20]]
    for c in xs:
        row = ctx.step_row(c)
        assert len(row) == len(ctx.gens)
        for i, g in enumerate(ctx.gens):
            cs, beta, j, upper = row[i]
            assert cs == ctx.mul(c, g)
            assert (beta, j, upper) == wall_from_k_alpha(ctx, c, cs)
            assert ctx.wall_data(c, i) == (beta, j, upper)
        assert ctx.step_row(c) is row


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"), ("G", 2, "adjoint"),
                                  ("GL", 3, ""), ("A", 3, ""), ("D", 4, "")])
def test_ascends_is_the_length_step(spec):
    # the ascent test, read off the crossed wall, against two lengths
    ctx = affine_context(build_root_datum(*spec))
    ascents = 0
    for c in ball_with_omega(ctx, 5):
        for i, g in enumerate(ctx.gens):
            up = ctx.length(ctx.mul(c, g)) == ctx.length(c) + 1
            assert ctx.ascends(c, i) == up, (ctx.format(c), i)
            ascents += up
    assert ascents


def test_step_table_wall_check_raises():
    # the wall check is an explicit exception, so it also runs under -O
    ctx = AffineWeyl(build_root_datum("A", 2, "SL"))
    ctx.k_alpha = lambda root_idx, xid: 10 ** 6
    with pytest.raises(RuntimeError, match="must cross the computed wall"):
        ctx.step_row(ctx.identity)


# -- Omega_M: the descent against the ball search it replaced -----------------

def _ball(basis, radius, d):
    """All integer combinations of basis vectors with |coefficients| <= radius."""
    def rec(i, acc):
        if i == len(basis):
            yield tuple(acc)
            return
        for c in range(-radius, radius + 1):
            yield from rec(i + 1, [a + c * b for a, b in zip(acc, basis[i])])
    yield from rec(0, [0] * d)


def _reduce_mod_levi_coroots(datum, p, lam):
    """Shift lam by Levi coroots so its Levi-simple-root pairings are small."""
    pos_m = [i for i in p.r_m if i < datum.nposroots]
    sums = {tuple(x + y for x, y in zip(datum.roots[a], datum.roots[b]))
            for a in pos_m for b in pos_m}
    simples = sorted(i for i in pos_m if datum.roots[i] not in sums)
    if not simples:
        return tuple(lam)
    cartan = [[datum.pairing(si, datum.coroots[sj]) for sj in simples]
              for si in simples]
    rhs = [datum.pairing(si, lam) for si in simples]
    coeffs = solve_frac(cartan, rhs, len(simples))[0]
    out = list(lam)
    for c, sj in zip(coeffs, simples):
        k = int(round(float(c)))
        out = [a - k * b for a, b in zip(out, datum.coroots[sj])]
    return tuple(out)


def search_omega_element(ctx, p, cls):
    """
    The length-zero x of W~_M with eta_M(x) = cls, by the ball search that
    omega_element used before the descent: a coroot ball of M of radius < 6
    around a reduced lift, against every finite part in W_M.
    """
    datum = ctx.datum
    lam0 = _reduce_mod_levi_coroots(datum, p, p.lattice.lift(cls))
    coroots_m = [datum.coroots[i] for i in sorted(p.r_m) if i < datum.nposroots]
    for radius in range(0, 6):
        for shift in _ball(coroots_m, radius, datum.d):
            lam = tuple(a + b for a, b in zip(lam0, shift))
            for w in sorted(p.w_m):
                x = ctx.intern(lam, w)
                if ctx.length_levi(x, p) == 0 and p.eta_m(ctx.translation(x)) == cls:
                    return x
    raise AssertionError("Omega_M element not found (search bound too small)")


SMALL_DATA = [("A", 1, ""), ("A", 2, ""), ("A", 3, ""), ("B", 2, ""), ("B", 3, ""),
              ("C", 2, ""), ("C", 3, ""), ("G", 2, ""), ("GL", 2, ""), ("GL", 3, "")]


@pytest.mark.parametrize("spec", SMALL_DATA, ids=lambda s: s[0] + str(s[1]))
def test_omega_descent_matches_search(spec):
    # omega_element depends on P only through M (its table is keyed by the
    # Levi), so one parabolic per Levi covers every semistandard parabolic
    datum = build_root_datum(*spec)
    ctx = AffineWeyl(datum)
    for ps in semistandard_levis(datum).values():
        p = ps[0]
        for cls in p.lattice.window(1):
            assert ctx.omega_element(p, cls) == search_omega_element(ctx, p, cls), \
                (p, cls)


@pytest.mark.parametrize("spec", [("A", 4, ""), ("D", 4, ""), ("GL", 4, ""),
                                  ("GL", 5, "")], ids=lambda s: s[0] + str(s[1]))
def test_omega_descent_invariants_rank_4(spec):
    datum = build_root_datum(*spec)
    ctx = AffineWeyl(datum)
    for ps in semistandard_levis(datum).values():
        p = ps[0]
        for cls in p.lattice.window(1):
            x = ctx.omega_element(p, cls)
            assert ctx.length_levi(x, p) == 0
            assert ctx.finite(x) in p.w_m
            assert ctx.eta_levi(x, p) == cls


def test_omega_descent_matches_search_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, derandomize=True)
    @hyp.given(st.sampled_from(SMALL_DATA), st.integers(0, 10 ** 6),
               st.lists(st.integers(-3, 3), min_size=5, max_size=5))
    def check(spec, pick, coords):
        datum = build_root_datum(*spec)
        ps = semistandard_parabolics(datum)
        p = ps[pick % len(ps)]
        cls = p.lattice.normal_form(coords[:datum.d])
        ctx = AffineWeyl(datum)
        assert ctx.omega_element(p, cls) == search_omega_element(ctx, p, cls)

    check()


def test_parse_rejects_bad_omega_token(c2_ctx):
    ctx = c2_ctx
    for tok in ("o[1]", "o[5,5]", "o[1,0]"):
        with pytest.raises(ValueError, match="normal form"):
            ctx.parse(tok)
    x = ctx.parse("o[0,1]")
    assert ctx.length(x) == 0 and ctx.omega_class(x) == (0, 1)
    assert ctx.parse("tau") == x
