import random

from math import comb

from adlv.hecke import PBITS, Hecke, poly_deg
from conftest import structure_deg


def poly_qm1_coeffs(v):
    """Coefficients of a packed polynomial in the (q-1)-power basis, low degree first."""
    out = []
    while v:
        out.append(v & ((1 << PBITS) - 1))
        v >>= PBITS
    return out or [0]


def poly_q_coeffs(v):
    """Coefficients in the q-power basis, low degree first."""
    cs = poly_qm1_coeffs(v)
    out = [0] * len(cs)
    # (q-1)^i = sum_j binom(i,j) (-1)^{i-j} q^j
    for i, c in enumerate(cs):
        for j in range(i + 1):
            out[j] += c * comb(i, j) * (-1) ** (i - j)
    return out


def poly_eval(v, q):
    return sum(c * (q - 1) ** i for i, c in enumerate(poly_qm1_coeffs(v)))


def rand_elements(ctx, rng, count, maxword):
    r = len(ctx.gens)
    return [ctx.from_word(tuple(rng.randrange(r) for _ in range(rng.randrange(maxword))))
            for _ in range(count)]


def test_quadratic_relation(c2_ctx):
    H = Hecke(c2_ctx)
    s = c2_ctx.gens[1]
    prod = H.mul(H.t(s), H.t(s))
    assert poly_q_coeffs(prod[c2_ctx.identity]) == [0, 1]     # q
    assert poly_q_coeffs(prod[s]) == [-1, 1]                  # q - 1
    assert structure_deg(H, s, s, s) == 1


def test_length_additive_products(c2_ctx):
    ctx = c2_ctx
    H = Hecke(ctx)
    rng = random.Random(31)
    found = 0
    for x in rand_elements(ctx, rng, 40, 8):
        for y in rand_elements(ctx, rng, 10, 6):
            if ctx.length(ctx.mul(x, y)) == ctx.length(x) + ctx.length(y):
                found += 1
                assert H.mul(H.t(x), H.t(y)) == H.t(ctx.mul(x, y))
                assert structure_deg(H, x, y, ctx.mul(x, y)) == 0
    assert found > 20


def test_associativity(c2_ctx):
    ctx = c2_ctx
    H = Hecke(ctx)
    rng = random.Random(32)
    els = [e for e in rand_elements(ctx, rng, 60, 7) if ctx.length(e) <= 6]
    for _ in range(35):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert H.mul(H.mul(H.t(a), H.t(b)), H.t(c)) == \
            H.mul(H.t(a), H.mul(H.t(b), H.t(c)))


def test_structure_deg_inverse_pairs(c2_ctx, a2_ctx):
    rng = random.Random(33)
    for ctx in (c2_ctx, a2_ctx):
        H = Hecke(ctx)
        for x in rand_elements(ctx, rng, 25, 9):
            assert structure_deg(H, x, ctx.inv(x), ctx.identity) == ctx.length(x)
    # stronger: C(x, x^{-1}, e) is exactly q^{ell(x)} (value check at q = 5)
    ctx = c2_ctx
    H = Hecke(ctx)
    for x in rand_elements(ctx, rng, 10, 8):
        c = H.structure_constant(x, ctx.inv(x), ctx.identity)
        assert poly_eval(c, 5) == 5 ** ctx.length(x)


def test_degree_bounds_and_parity(c2_ctx):
    ctx = c2_ctx
    H = Hecke(ctx)
    rng = random.Random(34)
    for x in rand_elements(ctx, rng, 15, 7):
        for y in rand_elements(ctx, rng, 8, 7):
            prod = H.mul_basis(H.t(x), y)
            lx, ly = ctx.length(x), ctx.length(y)
            for z, c in prod.items():
                lz = ctx.length(z)
                assert poly_deg(c) <= min(lx, ly)
                # note: lengths in the support need not have the parity of
                # ell(x) + ell(y) (the (q-1)-branch of the quadratic relation
                # keeps the length), cf. T_s T_s containing T_s
                assert abs(lx - ly) <= lz <= lx + ly
                # positivity in the (q-1) basis
                assert all(v >= 0 for v in poly_qm1_coeffs(c))
                assert poly_eval(c, 2) > 0


def test_omega_equivariance(a2_ctx):
    ctx = a2_ctx
    H = Hecke(ctx)
    rng = random.Random(35)
    taus = [v for v in ctx.omega_g_elements().values() if v != ctx.identity]
    for _ in range(15):
        x, y = rand_elements(ctx, rng, 2, 6)
        for tau in taus:
            lhs = H.mul(H.t(ctx.mul(x, tau)), H.t(ctx.mul(ctx.inv(tau), y)))
            assert lhs == H.mul(H.t(x), H.t(y))


def test_specialization_q1_group_algebra(c2_ctx):
    # at q = 1 the product collapses to the group multiplication
    ctx = c2_ctx
    H = Hecke(ctx)
    rng = random.Random(36)
    for _ in range(25):
        x, y = rand_elements(ctx, rng, 2, 7)
        spec = {u: poly_eval(c, 1) for u, c in H.mul(H.t(x), H.t(y)).items()
                if poly_eval(c, 1) != 0}
        assert spec == {ctx.mul(x, y): 1}


def test_coset_product_supports(c2_ctx, a2_ctx):
    ctx = c2_ctx
    H = Hecke(ctx)
    s = ctx.gens[1]
    assert H.coset_product_support([s]) == {s}
    assert H.coset_product_support([s, s]) == {ctx.identity, s}
    # tiny self-oracle in A1: support of T_{y^{-1}} T_b T_y via direct product
    d1 = __import__("adlv.roots", fromlist=["build_root_datum"]).build_root_datum("A", 1, "SL")
    from adlv.affine import affine_context
    c1 = affine_context(d1)
    H1 = Hecke(c1)
    b = c1.from_translation(d1.coroots[0])
    y = c1.gens[1]
    supp = H1.coset_product_support([c1.inv(y), b, y])
    direct = H1.mul(H1.mul(H1.t(c1.inv(y)), H1.t(b)), H1.t(y))
    assert supp == set(direct)
