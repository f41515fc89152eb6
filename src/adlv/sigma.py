"""
Sigma-conjugacy classes of the loop group, in their combinatorial form.

A class [b] is stored as the pair (Newton point, component class): the
dominant rational cocharacter nu and the image kappa in the fundamental group
Lambda_G.  This pair is a complete invariant.  Each class lives over a unique
standard parabolic P = MN ("home"): the one whose Levi is the centralizer of
nu, i.e. nu is strictly positive on the simple roots outside M.  A class is
basic when its home parabolic is all of G.

Standard representatives are the length-zero elements of the Levi's extended
affine Weyl group: for [b] over P = MN, the unique x in Omega_M with
eta_M(x) equal to the class's Lambda_M-datum.  Fundamental representatives
are finite-Weyl conjugates of these that are fundamental P'-alcoves; one
always exists and makes the double coset IxI lie in a single class, which is
what drives the superset method.

The classes over a Levi M with a given Newton point nu are found exactly:
they live over the centralizer M_1 of nu in M and form one coset of the
torsion subgroup of Lambda_{M_1} (levi_classes_with_newton), so one integer
solution of the averaging equation gives them all, and the shifts along a
central line are derived, not searched.  classify and class_from_invariants
build a class through one constructor, memoized on the context by
(nu, kappa).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .affine import AffineWeyl, affine_context
from .alcoves import is_fundamental_p_alcove, newton_vector, pair_two_rho
from .roots import RootDatum, semistandard_parabolics, simple_subsets, standard_parabolic
from .snf import solve_frac, solve_integer


@dataclass(frozen=True)
class SigmaConjClass:
    newton: tuple          # dominant rational cocharacter, canonical form
    kappa: tuple           # Lambda_G normal form
    home_simple: frozenset  # simple roots of the home Levi
    lambda_m: tuple        # Lambda_M normal form determining the class over M

    def key(self) -> str:
        return _key_text(self.newton, self.kappa)


def _key_text(nu, kappa) -> str:
    """The --class-key form of (nu, kappa): nu=[..];kappa=[..]."""
    nu = ",".join(str(v) for v in nu)
    ka = ",".join(str(v) for v in kappa)
    return f"nu=[{nu}];kappa=[{ka}]"


def newton_point(ctx: AffineWeyl, xid: int):
    """Dominant Newton point of x = eps^lambda w: dominize the w-average of lambda."""
    return ctx.datum.dominant(newton_vector(ctx, xid))


def home_parabolic_of(datum: RootDatum, nu) -> frozenset:
    """Simple roots vanishing on nu (the Levi of the home parabolic)."""
    return frozenset(ri for ri in datum.simple_idx if datum.pairing(ri, nu) == 0)


def is_basic(datum: RootDatum, c: SigmaConjClass) -> bool:
    return c.home_simple == frozenset(datum.simple_idx)


def levi_classes_with_newton(datum: RootDatum, m_root_idxs, nu):
    """
    Representative cocharacters lam, one per class [b'] of the Levi M with
    root set m_root_idxs whose M-Newton point equals nu (as a W_M-orbit).

    The classes live over the centralizer Levi M_1 of nu inside M; they are
    the integer solutions of  average over W_{M_1} of lam == nu, taken modulo
    the coroot lattice of M_1.  Averaging is injective on Lambda_{M_1} (x) Q,
    so these form one coset of the torsion subgroup of Lambda_{M_1}: one
    integer solution and that subgroup give every class, each once.  With a
    central line c the target is nu + (k/d) c; lam + c moves k by d and c is
    a relation of Lambda_{M_1}, so k in range(d) is every shift needed.
    Returns a set of integer tuples, empty when no class has Newton point nu.
    """
    nu = datum.coweight_nf_frac(nu)
    m1_roots = frozenset(i for i in m_root_idxs if datum.pairing(i, nu) == 0)
    d = datum.d
    order, avg = datum.levi_average(m1_roots)
    denom = math.lcm(order, *(v.denominator for v in nu))
    scale = denom // order
    # row j: denom * average(e_j), as |W_{M_1}| * average(e_j) is column j
    # of the averaging matrix
    mat = [[scale * avg[t][j] for t in range(d)] for j in range(d)]
    central = datum.central or (0,) * d
    for k in ([0] if datum.central is None else range(d)):
        target = [v * denom + Fraction(k * denom, d) * c for v, c in zip(nu, central)]
        if all(v.denominator == 1 for v in target):
            sol = solve_integer(mat, [int(v) for v in target])
            if sol is not None:
                break
    else:
        return set()
    lat_m1 = datum.levi_lattice_quotient(m1_roots)
    nf = lat_m1.normal_form(sol)
    return {lat_m1.lift(lat_m1.add(nf, t)) for t in lat_m1.window(0)}


def _class_of(ctx: AffineWeyl, nu, kappa) -> SigmaConjClass:
    """The class with dominant Newton point nu and kappa, memoized on ctx."""
    key = (nu, kappa)
    got = ctx.classes.get(key)
    if got is not None:
        return got
    datum = ctx.datum
    home = home_parabolic_of(datum, nu)
    p = standard_parabolic(datum, home)
    matches = {p.lattice.normal_form(lam)
               for lam in levi_classes_with_newton(datum, p.r_m, nu)
               if datum.lambda_g.normal_form(lam) == kappa}
    if not matches:
        raise ValueError(f"no class with these invariants: {_key_text(nu, kappa)}")
    if len(matches) > 1:
        raise RuntimeError(f"expected one class over the home Levi for "
                           f"{_key_text(nu, kappa)}, found {len(matches)}")
    got = SigmaConjClass(nu, kappa, home, next(iter(matches)))
    ctx.classes[key] = got
    return got


def classify(ctx: AffineWeyl, xid: int) -> SigmaConjClass:
    """The sigma-conjugacy class of x, as (Newton point, kappa) plus home data."""
    kappa = ctx.datum.lambda_g.normal_form(ctx.translation(xid))
    return _class_of(ctx, newton_point(ctx, xid), kappa)


def class_from_invariants(datum: RootDatum, nu, kappa) -> SigmaConjClass:
    """The class with Newton point nu and kappa; ValueError when there is none."""
    nu = datum.coweight_nf_frac(nu)
    if not datum.is_dominant(nu):
        raise ValueError("Newton point must be dominant")
    return _class_of(affine_context(datum), nu, tuple(kappa))


def standard_representative(ctx: AffineWeyl, c: SigmaConjClass) -> int:
    """The length-zero element of W~_M representing the class."""
    p = standard_parabolic(ctx.datum, c.home_simple)
    x = ctx.omega_element(p, c.lambda_m)
    return x


def fundamental_representative(ctx: AffineWeyl, c: SigmaConjClass):
    """
    (x0, P') with x0 a fundamental P'-alcove representing the class, found by
    scanning finite-Weyl conjugates of the standard representative.  Existence
    is a theorem; exhaustion of the search signals a bug.
    """
    datum = ctx.datum
    b = standard_representative(ctx, c)
    paras = semistandard_parabolics(datum)
    W = datum.weyl
    for u in sorted(W.elements(), key=lambda w: W.length[w]):
        g = ctx.intern((0,) * datum.d, u)
        x = ctx.conj(g, b)
        wpart = ctx.finite(x)
        for p in paras:
            if wpart in p.w_m and is_fundamental_p_alcove(ctx, x, p):
                return x, p
    raise RuntimeError("no fundamental representative found; this contradicts "
                         "the existence theorem and indicates a bug")


def defect(ctx: AffineWeyl, c: SigmaConjClass) -> int:
    """
    Rank of X_*(A) minus the dimension of the fixed space of the finite part
    of the standard representative.  Agrees with the F-rank recipe for GL_n
    (blockwise cycles) and vanishes on translation classes.
    """
    datum = ctx.datum
    x = standard_representative(ctx, c)
    w = ctx.finite(x)
    W = datum.weyl
    d = datum.d
    m = [[W.mats[w][i][j] - (i == j) for j in range(d)] for i in range(d)]
    fixdim = d - solve_frac(m, [0] * d, d)[1]
    rank = d - (1 if datum.central is not None else 0)
    if datum.central is not None:
        fixdim -= 1  # the central line is always fixed
    return rank - fixdim


def enumerate_classes(ctx: AffineWeyl, bound: int):
    """
    All classes with <2 rho, nu> <= bound, each once, ordered by
    (<2 rho, nu>, key).  Per standard parabolic P = MN, the classes over P
    are the Lambda_M-values whose averaged vector is strictly positive on the
    simple roots outside M; these are scanned through the normal forms of
    Lambda_M with free coordinates in a window sized by the bound.

    Both tests run on the integer vector acc = |W_M| * average, from
    levi_average: |W_M| > 0, and the central shift of coweight_nf_frac is
    invisible to the roots and to 2 rho.  Only the survivors are lifted and
    get their Newton point in Fractions.
    """
    datum = ctx.datum
    out = {}
    box = bound + 2
    for home in simple_subsets(datum):
        p = standard_parabolic(datum, home)
        lat = p.lattice
        order, avg = datum.levi_average(p.r_m)
        # acc = avg . lift(nf) as one integer matrix on the normal form, as
        # lift(nf)[j] = sum_i nf[i] * Vinv[i][j]
        avg_lift = [[sum(map(operator.mul, row, vrow)) for vrow in lat.Vinv]
                    for row in avg]
        outside = [ri for ri in datum.simple_idx if ri not in home]
        for nf in lat.window(box):
            acc = [sum(map(operator.mul, row, nf)) for row in avg_lift]
            if any(datum.pairing(ri, acc) <= 0 for ri in outside) or \
                    pair_two_rho(datum, acc) > bound * order:
                continue
            lam = lat.lift(nf)
            nu = datum.coweight_nf_frac(tuple(Fraction(a, order) for a in acc))
            kappa = datum.lambda_g.normal_form(lam)
            c = SigmaConjClass(nu, kappa, home, lat.normal_form(lam))
            out.setdefault(c.key(), c)
    res = sorted(out.values(), key=lambda c: (pair_two_rho(datum, c.newton), c.key()))
    return res


def slope_dominance_holds(datum: RootDatum, mu, nu) -> bool:
    """Is mu - nu a nonnegative rational combination of positive coroots?"""
    diff = tuple(Fraction(a) - Fraction(b) for a, b in zip(mu, nu))
    return datum.in_positive_coroot_cone(diff)


def grassmannian_nonempty(ctx: AffineWeyl, mu, c: SigmaConjClass) -> bool:
    """
    Non-emptiness in the affine Grassmannian: kappa agreement plus the
    dominance inequality between mu and the Newton point.
    """
    datum = ctx.datum
    mu = tuple(mu)
    if not datum.is_dominant(mu):
        raise ValueError("mu must be dominant")
    if datum.lambda_g.normal_form(mu) != c.kappa:
        return False
    return slope_dominance_holds(datum, datum.coweight_nf_frac(mu), c.newton)


def grassmannian_dim_basic(ctx: AffineWeyl, mu, c: SigmaConjClass) -> Fraction:
    """dim = <rho, mu> - def/2 for basic classes (reference value)."""
    datum = ctx.datum
    if not is_basic(datum, c):
        raise ValueError("dimension formula needs a basic class")
    val = pair_two_rho(datum, datum.coweight_nf_frac(mu)) / 2 \
        - Fraction(defect(ctx, c), 2)
    if (2 * val).denominator != 1:
        raise RuntimeError(f"dimension {val} is not a half-integer")
    return val


def basic_class_of_component(ctx: AffineWeyl, kappa) -> SigmaConjClass:
    """The unique basic class with the given kappa."""
    datum = ctx.datum
    p = standard_parabolic(datum, frozenset(datum.simple_idx))
    x = ctx.omega_element(p, datum.lambda_g.normal_form(datum.lambda_g.lift(tuple(kappa))))
    return classify(ctx, x)
