"""
Geometric predicates on extended alcoves.

For a semistandard parabolic P = MN, the alcove x.a is a P-alcove when the
finite part of x lies in W_M and k(alpha, x.a) >= k(alpha, a) for every root
alpha of N; the strict variant asks for strict inequalities.  Every predicate
here reads these comparisons off AffineWeyl.offsets, which documents the
alcove coordinates k and the base alcove a.  The region cut out by the
k-inequalities alone is a union of acute cones C(a, w) over the w in W with
P containing the w-conjugate Borel, which gives a second route to the same
predicate (and an exhaustive cross-check in the tests).

Also here: the shrunken condition, the two chamber maps eta_1 (finite part)
and eta_2 (the finite Weyl chamber containing x.a), smallest Levis, and
fundamental P-alcoves x in Omega_M with their slope vectors nu_x.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .affine import AffineWeyl
from .roots import SemistdParabolic, semistandard_levis


@dataclass
class AlcovePredicateReport:
    subject: int
    parabolic_key: tuple | None
    verdict: bool
    witnesses: list = field(default_factory=list)  # rows (root_idx, k(alpha,x.a), k(alpha,a))

    def __bool__(self):
        return self.verdict

    def rows_json(self, datum):
        return [{"root": list(datum.roots[r]), "k_x": kx, "k_base": kb}
                for (r, kx, kb) in self.witnesses]


def is_p_alcove(ctx: AffineWeyl, xid: int, p: SemistdParabolic,
                strict: bool = False) -> AlcovePredicateReport:
    """P-alcove test with failure witnesses."""
    rep = AlcovePredicateReport(xid, p.key(), True)
    if ctx.finite(xid) not in p.w_m:
        rep.verdict = False
        rep.witnesses.append(("finite part not in W_M", None, None))
        return rep
    off = ctx.offsets(xid)
    for r in sorted(p.r_n):
        if not (off[r] > 0 if strict else off[r] >= 0):
            rep.verdict = False
            kx = ctx.k_alpha(r, xid)
            rep.witnesses.append((r, kx, kx - off[r]))
    return rep


def in_region_p(ctx: AffineWeyl, xid: int, p: SemistdParabolic) -> bool:
    """Only the k-inequalities of the P-alcove condition (drops x in W~_M)."""
    off = ctx.offsets(xid)
    return all(off[r] >= 0 for r in p.r_n)


def acute_cone_contains(ctx: AffineWeyl, xid: int, w: int) -> bool:
    """
    Membership of x.a in the acute cone C(a, w): for every root alpha in
    w(R^+), the alcove satisfies k(alpha, x.a) >= k(alpha, a).
    """
    off = ctx.offsets(xid)
    return all(off[r] >= 0 for r in ctx.datum.weyl.root_act[w][:ctx.datum.nposroots])


def cone_directions(datum, p: SemistdParabolic):
    """The w in W with P containing the w-conjugate of the standard Borel."""
    npos = datum.nposroots
    out = []
    for w in datum.weyl.elements():
        wpos = {datum.weyl.root_act[w][i] for i in range(npos)}
        if p.r_n <= wpos:
            out.append(w)
    return out


def is_shrunken(ctx: AffineWeyl, xid: int) -> bool:
    """k(alpha, x.a) != k(alpha, a) for every root alpha."""
    return all(ctx.offsets(xid))


def eta1(ctx: AffineWeyl, xid: int) -> int:
    """Projection to the finite Weyl group."""
    return ctx.finite(xid)


def eta2(ctx: AffineWeyl, xid: int) -> int:
    """
    The u in W with u^{-1} x.a inside the dominant chamber.  Alcove interiors
    meet no root hyperplane through the origin, so u is unique.  A root beta
    is positive on x.a exactly when k(beta, x.a) >= 1, so the walk u <- u s_i
    while u(alpha_i) is negative on x.a needs only alcove coordinates.
    """
    datum = ctx.datum
    W = datum.weyl
    u = 0
    moved = True
    while moved:
        moved = False
        for pos, ri in enumerate(datum.simple_idx):
            if ctx.k_alpha(W.root_act[u][ri], xid) <= 0:
                u = W.rmul[u][pos]
                moved = True
    return u


def conjugated_finite_part(ctx: AffineWeyl, xid: int) -> int:
    """eta_2(x)^{-1} eta_1(x) eta_2(x)."""
    W = ctx.datum.weyl
    u = eta2(ctx, xid)
    return W.mul(W.mul(W.inv[u], eta1(ctx, xid)), u)


def has_full_support(datum, w: int) -> bool:
    """Does every simple reflection occur in a reduced word for w?"""
    return set(datum.weyl.words[w]) == set(range(datum.weyl.rank))


def minimal_levis(ctx: AffineWeyl, xid: int):
    """
    (M_-, M_+, parabolics): the smallest semistandard Levi containing x, the
    smallest one admitting a parabolic P with x.a a P-alcove, and the list of
    such P with Levi M_+.
    """
    datum = ctx.datum
    w = ctx.finite(xid)
    levis = semistandard_levis(datum)
    containing = [(rm, ps) for rm, ps in levis.items() if w in ps[0].w_m]
    m_minus = min(containing, key=lambda t: (len(t[0]), sorted(t[0])))
    if any(not m_minus[0] <= rm for rm, _ in containing):
        raise RuntimeError("smallest containing Levi must be unique")
    candidates = []
    for rm, ps in containing:
        if not (m_minus[0] <= rm):
            continue
        good = [p for p in ps if is_p_alcove(ctx, xid, p).verdict]
        if good:
            candidates.append((rm, good))
    best = min(candidates, key=lambda t: (len(t[0]), sorted(t[0])))
    if any(not best[0] <= rm for rm, _ in candidates):
        raise RuntimeError("smallest P-alcove Levi must be unique")
    return m_minus[0], best[0], best[1]


def is_fundamental_p_alcove(ctx: AffineWeyl, xid: int, p: SemistdParabolic) -> bool:
    """P-alcove with x of length zero in the Levi's affine Weyl group."""
    if ctx.finite(xid) not in p.w_m:
        return False
    off = ctx.offsets(xid)
    return not any(off[r] for r in p.r_m) and all(off[r] >= 0 for r in p.r_n)


def nu_x(ctx: AffineWeyl, xid: int, p: SemistdParabolic):
    """
    Slope vector of x in Omega_M: the average (1/N) sum_i w^i lambda over the
    cyclic group of the finite part.  Central in M for x in Omega_M.
    """
    if ctx.finite(xid) not in p.w_m or ctx.length_levi(xid, p) != 0:
        raise ValueError("nu_x needs x in Omega_M")
    return newton_vector(ctx, xid)


def newton_vector(ctx: AffineWeyl, xid: int):
    """The averaged translation vector (1/N) sum_{i<N} w^i lambda, not dominized."""
    datum = ctx.datum
    lam, w = ctx._elts[xid]
    W = datum.weyl
    n = W.order_of(w)
    acc = [Fraction(0)] * datum.d
    v = list(lam)
    cur = 0
    for _ in range(n):
        img = W.apply(cur, lam)
        acc = [a + b for a, b in zip(acc, img)]
        cur = W.mul(cur, w)
    out = tuple(a / n for a in acc)
    return datum.coweight_nf_frac(out)


def pair_two_rho(datum, vec):
    """<2 rho, vec>, exact on integer and Fraction vectors alike."""
    return sum(map(operator.mul, datum.two_rho, vec))


def omega_p_elements(ctx: AffineWeyl, p: SemistdParabolic, bound: int):
    """
    Elements of Omega_P (fundamental P-alcoves in Omega_M) whose eta_M normal
    form has coordinates bounded by the given translation norm.
    """
    out = []
    for cls in p.lattice.window(bound):
        x = ctx.omega_element(p, cls)
        if is_p_alcove(ctx, x, p).verdict:
            out.append(x)
    return out
