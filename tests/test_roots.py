import itertools
import operator
import random
from fractions import Fraction

import pytest

from adlv import roots
from adlv.roots import (build_root_datum, semistandard_levis, semistandard_parabolics,
                        standard_parabolic, SemistdParabolic)
from adlv.snf import solve_integer


def describe(lattice):
    """The group Lambda as text, e.g. "Z/2" or "Z/2 x Z^1"."""
    tors = [str(m) for m in lattice.invariants if m != 0]
    free = sum(1 for m in lattice.moduli if m == 0)
    parts = [f"Z/{t}" for t in tors] + (["Z^%d" % free] if free else [])
    return " x ".join(parts) if parts else "0"


def lattice_member(rows, target):
    """Is target in the Z-span of the given rows?"""
    return solve_integer(rows, target) is not None


def test_c2_counts_and_fundamental_group(c2):
    assert c2.nposroots == 4
    assert c2.weyl.n == 8
    assert describe(c2.lambda_g) == "Z/2"


def test_a2_fundamental_group(a2):
    # computed via Smith normal form of the coroot lattice inside Z^3/(1,1,1)
    assert describe(a2.lambda_g) == "Z/3"
    assert a2.lambda_g.order() == 3


def test_gl3_fundamental_group_is_grading(gl3):
    assert gl3.lambda_g.order() is None  # infinite: Z
    # the normal form is determined by the coordinate sum
    assert gl3.lambda_g.normal_form((1, 1, 1)) == gl3.lambda_g.normal_form((3, 0, 0))
    assert gl3.lambda_g.normal_form((1, 0, 0)) != gl3.lambda_g.normal_form((2, 0, 0))


def test_unsupported_type_rejected():
    with pytest.raises(ValueError):
        build_root_datum("E", 8, "adjoint")
    with pytest.raises(ValueError):
        build_root_datum("A", 7, "SL")


@pytest.mark.parametrize("spec,worder", [
    (("A", 1, "SL"), 2), (("A", 2, "SL"), 6), (("A", 3, "SL"), 24),
    (("B", 2, "sc"), 8), (("B", 3, "sc"), 48), (("C", 2, "sc"), 8),
    (("C", 3, "sc"), 48), (("D", 4, "sc"), 192), (("G", 2, "sc"), 12),
    (("GL", 4, ""), 24), (("GL", 2, ""), 2), (("A", 2, "coroot"), 6),
])
def test_weyl_orders_and_pairings(spec, worder):
    d = build_root_datum(*spec)
    assert d.weyl.n == worder
    for i in range(len(d.roots)):
        assert d.pairing(i, d.coroots[i]) == 2
    # the diagonal of GL_n is a central cocharacter, orthogonal to every
    # root (in the type A lattice Z^n / Z(1,..,1) it is zero)
    if spec[0] == "GL":
        assert all(d.pairing(i, (1,) * d.d) == 0 for i in range(len(d.roots)))
    # reflections preserve the root set: the closure construction guarantees
    # membership, re-check through the Weyl action tables
    for w in d.weyl.elements():
        assert sorted(d.weyl.root_act[w]) == list(range(len(d.roots)))


def test_rho_pairs_integrally(c2, a2, gl3):
    for d in (c2, a2, gl3):
        for c in d.coroots:
            assert sum(d.two_rho[j] * c[j] for j in range(d.d)) % 2 == 0


def test_lambda_normal_form_additive(a2):
    rng = random.Random(3)
    lat = a2.lambda_g
    for _ in range(60):
        x = [rng.randint(-9, 9) for _ in range(3)]
        y = [rng.randint(-9, 9) for _ in range(3)]
        s = [u + v for u, v in zip(x, y)]
        assert lat.add(lat.normal_form(x), lat.normal_form(y)) == lat.normal_form(s)
        assert lat.normal_form(lat.lift(lat.normal_form(x))) == lat.normal_form(x)


def test_weyl_action_examples(gl3, a2):
    W = gl3.weyl
    lam = (2, 0, -2)
    assert W.apply(0, lam) == lam
    s1 = gl3.reflection_index(gl3.simple_idx[0])
    assert W.apply(s1, (2, 0, -2)) == (0, 2, -2)
    # s_alpha(alpha_vee) = -alpha_vee, and pairing is W-equivariant
    for d in (gl3, a2):
        for i in d.simple_idx:
            s = d.reflection_index(i)
            img = d.weyl.apply(s, d.coroots[i])
            assert d.coweight_nf(img) == d.coweight_nf(tuple(-v for v in d.coroots[i]))
        rng = random.Random(5)
        for _ in range(30):
            w = rng.randrange(d.weyl.n)
            lam = tuple(rng.randint(-4, 4) for _ in range(d.d))
            for i in range(len(d.roots)):
                lhs = d.pairing(d.weyl.root_act[w][i], d.weyl.apply(w, lam))
                assert lhs == d.pairing(i, lam)


def test_eta_finite_examples(a2, gl3):
    # coroots die in Lambda_G
    for i in a2.simple_idx:
        assert a2.lambda_g.normal_form(a2.coroots[i]) == a2.lambda_g.zero()
    # Levi of type {alpha_1} in SL3: kernel is exactly Z alpha_1^vee
    p = standard_parabolic(a2, frozenset({a2.simple_idx[0]}))
    assert p.eta_m((1, -1, 0)) == p.lattice.zero()
    assert p.eta_m((0, 0, 0)) == p.lattice.zero()
    assert p.eta_m((1, 0, -1)) != p.lattice.zero()
    # independent oracle: membership in the relation lattice via linear solve
    rels = [list(a2.coroots[a2.simple_idx[0]]), [1, 1, 1]]
    assert lattice_member(rels, (1, -1, 0))
    assert not lattice_member(rels, (1, 0, -1))
    # GL3, M = G: the grading is the coordinate sum
    assert gl3.lambda_g.normal_form((1, 1, 1)) == gl3.lambda_g.normal_form((0, 3, 0))


def test_lambda_m_factors_through_lambda_g(a2, c2):
    for d in (a2, c2):
        for J in (frozenset(), frozenset({d.simple_idx[0]}), frozenset(d.simple_idx)):
            p = standard_parabolic(d, J)
            rng = random.Random(11)
            for _ in range(25):
                lam = tuple(rng.randint(-5, 5) for _ in range(d.d))
                mu = tuple(rng.randint(-5, 5) for _ in range(d.d))
                if p.eta_m(lam) == p.eta_m(mu):
                    assert d.lambda_g.normal_form(lam) == d.lambda_g.normal_form(mu)


def test_rho_n_identity(c2, a2):
    # for standard P and dominant lam orthogonal to the Levi part,
    # <2 rho, lam> = <2 rho_N, lam>
    for d in (c2, a2):
        for J in (frozenset(), frozenset({d.simple_idx[0]})):
            p = standard_parabolic(d, J)
            rng = random.Random(13)
            for _ in range(40):
                lam = tuple(rng.randint(0, 5) for _ in range(d.d))
                if not d.is_dominant(lam):
                    continue
                if any(d.pairing(i, lam) != 0 for i in J):
                    continue
                lhs = sum(d.two_rho[j] * lam[j] for j in range(d.d))
                rhs = sum(p.two_rho_n[j] * lam[j] for j in range(d.d))
                assert lhs == rhs


def test_parabolic_root_partition(c2):
    npos = c2.nposroots
    for p in semistandard_parabolics(c2):
        allr = set(range(2 * npos))
        assert p.r_m | p.r_n | p.r_nbar == allr
        assert not (p.r_m & p.r_n) and not (p.r_m & p.r_nbar) and not (p.r_n & p.r_nbar)
        # R_N is W_M-stable
        for w in p.w_m:
            assert {c2.weyl.root_act[w][i] for i in p.r_n} == p.r_n
        if p.is_full:
            assert not p.r_n
        if not p.levi_simple:
            assert len(p.r_n) == npos


def test_parabolic_conjugator_normalization(c2):
    # u P_J u^{-1} with u replaced inside u W_J gives the same parabolic
    J = frozenset({c2.simple_idx[0]})
    seen = {}
    for u in c2.weyl.elements():
        p = SemistdParabolic(c2, u, J)
        seen.setdefault(p.key(), set()).add(u)
    for key, us in seen.items():
        assert len(us) == len(c2.weyl.elements()) // (len(seen))


def test_descriptor_roundtrip(c2):
    desc = c2.json_descriptor()
    d2 = build_root_datum(desc["type"], desc["rank"], desc["variant"])
    assert d2 is c2  # cached, canonical


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"), ("GL", 3, "")])
def test_semistandard_parabolics_built_once(spec):
    d = build_root_datum(*spec)
    first = semistandard_parabolics(d)
    assert isinstance(first, tuple)
    assert semistandard_parabolics(d) is first
    assert [p.key() for p in first] == [p.key() for p in roots._build_parabolics(d)]
    ids = {id(p) for p in first}
    for ps in semistandard_levis(d).values():
        assert all(id(p) in ids for p in ps)


def test_support_is_checked_before_construction(monkeypatch):
    # a rank far out of range must be refused before any roots are built
    def boom(*args):
        raise AssertionError("built a root system for an unsupported rank")

    monkeypatch.setattr(roots.RootDatum, "_build_type_a", boom)
    monkeypatch.setattr(roots.RootDatum, "_build_from_cartan", boom)
    for spec in [("GL", 6), ("A", 5), ("GL", 1000000), ("D", 2), ("G", 3)]:
        with pytest.raises(ValueError, match="unsupported type/rank"):
            build_root_datum(*spec)


# every supported (type, rank), and the coroot lattice of the rank-2 types
ALL_DATA = sorted(roots.SUPPORTED) + [("A", 2, "coroot"), ("B", 2, "coroot"),
                                      ("C", 2, "coroot"), ("G", 2, "coroot")]


@pytest.mark.parametrize("spec", ALL_DATA, ids=lambda s: "".join(map(str, s)))
def test_base_alcove_vertices(spec):
    # the origin and omega_i / c_i: <alpha_j, v_i> = delta_ij / c_i, and each
    # vertex but the origin lies on the wall {theta = 1}
    d = build_root_datum(*spec)
    verts = d.base_alcove_vertices()
    theta = d.pos_root_coords[d.theta_idx]
    assert len(verts) == len(d.simple_idx) + 1
    assert all(d.pairing(r, verts[0]) == 0 for r in range(len(d.roots)))
    for i, v in enumerate(verts[1:]):
        assert [d.pairing(r, v) for r in d.simple_idx] == [
            Fraction(int(i == j), theta[i]) for j in range(len(d.simple_idx))]
        assert d.pairing(d.theta_idx, v) == 1


def reference_weyl(datum):
    """
    The matrix-keyed enumeration of W: breadth-first over products of the
    simple reflection matrices, each matrix keyed by the coweight normal
    forms of its images of the coroots, with the other tables read off the
    matrices.  Returns a dict of the WeylGroup tables.
    """
    d, nf = datum.d, datum.coweight_nf

    def matmul(a, b):
        return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(d)) for j in range(d))
                     for i in range(d))

    def image(m, v):
        return tuple(sum(m[a][b] * v[b] for b in range(d)) for a in range(d))

    def key(m):
        return tuple(nf(image(m, c)) for c in datum.coroots)

    gens = [tuple(tuple(int(a == b) - datum.coroots[i][a] * datum.roots[i][b]
                        for b in range(d)) for a in range(d)) for i in datum.simple_idx]
    mats = [tuple(tuple(int(a == b) for b in range(d)) for a in range(d))]
    index = {key(mats[0]): 0}
    words = {0: ()}
    frontier = [0]
    while frontier:
        new = []
        for w in frontier:
            for gi, g in enumerate(gens):
                m = matmul(g, mats[w])
                if key(m) not in index:
                    index[key(m)] = len(mats)
                    words[len(mats)] = (gi,) + words[w]
                    new.append(len(mats))
                    mats.append(m)
        frontier = new
    coroot_index = {c: i for i, c in enumerate(datum.coroots)}
    root_act = [tuple(coroot_index[image(m, c)] for c in datum.coroots) for m in mats]
    lmul = [[index[key(matmul(g, m))] for m in mats] for g in gens]
    rmul = [[index[key(matmul(m, g))] for g in gens] for m in mats]
    inv = []
    for w in range(len(mats)):
        v = 0
        for i in words[w]:
            v = lmul[i][v]
        inv.append(v)
    npos = datum.nposroots
    length = [sum(1 for i in range(npos) if act[i] >= npos) for act in root_act]
    return {"mats": mats, "words": words, "root_act": root_act, "lmul": lmul,
            "rmul": rmul, "inv": inv, "length": length,
            "w0": max(range(len(mats)), key=length.__getitem__)}


def reference_reflection_index(datum, mats, root_idx):
    """The reflection in a root, found by scanning W for its coroot images."""
    bv = datum.coroots[root_idx]
    want = [datum.coweight_nf(tuple(c[t] - datum.pairing(root_idx, c) * bv[t]
                                    for t in range(datum.d))) for c in datum.coroots]
    for w, m in enumerate(mats):
        if [datum.coweight_nf(tuple(sum(map(operator.mul, row, c)) for row in m))
                for c in datum.coroots] == want:
            return w
    raise LookupError("reflection not found")


@pytest.mark.parametrize("spec", ALL_DATA, ids=lambda s: "".join(map(str, s)))
def test_weyl_group_matches_matrix_keyed_reference(spec):
    d = build_root_datum(*spec)
    W = d.weyl
    ref = reference_weyl(d)
    assert W.n == len(ref["mats"])
    for name in ("mats", "words", "root_act", "lmul", "rmul", "inv", "length", "w0"):
        assert getattr(W, name) == ref[name], name
    for i in range(len(d.roots)):
        assert d.reflection_index(i) == reference_reflection_index(d, ref["mats"], i)


def reference_parabolics(datum):
    """
    (key, w_m, r_m, r_n) of every semistandard parabolic: every u in W is
    tried with every J, normalized by right descents in W_J and deduplicated,
    and W_M is u W_J u^{-1} for W_J grown from its simple reflections.
    """
    W = datum.weyl
    npos = datum.nposroots
    found = set()
    subsets = [frozenset(c) for k in range(len(datum.simple_idx) + 1)
               for c in itertools.combinations(datum.simple_idx, k)]
    for J in subsets:
        for u in W.elements():
            moved = True
            while moved:
                moved = False
                for i, ri in enumerate(datum.simple_idx):
                    if ri in J and W.length[W.rmul[u][i]] < W.length[u]:
                        u, moved = W.rmul[u][i], True
            found.add((u, J))
    out = []
    for u, J in sorted(found, key=lambda uj: (-len(uj[1]), uj[0], sorted(uj[1]))):
        wj = {0}
        while True:
            grown = wj | {W.lmul[datum.simple_idx.index(ri)][w] for w in wj for ri in J}
            if grown == wj:
                break
            wj = grown
        w_m = frozenset(W.mul(W.mul(u, w), W.inv[u]) for w in wj)
        std_m = {i for i in range(len(datum.roots))
                 if all(c == 0 or ri in J for c, ri in
                        zip(datum.pos_root_coords[i % npos], datum.simple_idx))}
        r_m = frozenset(W.root_act[u][i] for i in std_m)
        r_n = frozenset(W.root_act[u][i] for i in range(npos) if i not in std_m)
        out.append(((u, tuple(sorted(J))), w_m, r_m, r_n))
    return out


@pytest.mark.parametrize("spec", ALL_DATA, ids=lambda s: "".join(map(str, s)))
def test_semistandard_parabolics_match_every_u_reference(spec):
    d = build_root_datum(*spec)
    got = [(p.key(), p.w_m, p.r_m, p.r_n) for p in semistandard_parabolics(d)]
    assert got == reference_parabolics(d)
