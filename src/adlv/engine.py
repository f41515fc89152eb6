"""
Emptiness and dimension of affine Deligne-Lusztig varieties X_x(b), by orbit
intersections in the affine flag variety.

The computational primitive is the dimension table of the intersections of
the Iwahori orbit of x.a with the orbits of a twisted group J = w^{-1} I_P w,
for the standard parabolic P = MN housing the class of b.  These tables are
computed by walking a reduced word of x through the apartment and folding:
for each wall crossed, the J-orbit structure marks one side of the wall as
the "fold side" (the side the building branches retract onto); a crossing
into the fold side costs one dimension, while a crossing out of it is free
but may instead fold back at cost one.  Concretely the fold side of the wall
{beta = j} is the upper side iff the affine root group of (beta, j) lies in
J, which reduces to integer comparisons against the profile

    m_J(beta) = -inf               if w beta lies in R_N,
              = +inf               if w beta lies in -R_N,
              = k(beta, w^{-1}.a)  if w beta lies in R_M,

for the positive roots beta: every wall {beta = j} is named by a positive
beta, so the folds read no other entry.

For P = G these tables coincide with q-degrees of Hecke structure constants,
and that identity is both the calibration that fixes the folding convention
and a standing cross-check (the two routes stay independent).

The stratum dimension for a class with standard representative b over P is

    dim(X_x(b) cap I_P w.a) = table[w^{-1} b w] - <rho, nu + nu_dom>,

and dim X_x(b) is the sup over w.  Emptiness certificates come first: the
component map, and the Levi obstruction (for every semistandard P with x.a a
P-alcove, eta_M(x) must be an eta_M-value of a class over M whose Newton
point is W-conjugate to that of b).  The sup over w is swept in length
shells up to a cutoff, with the honest outcome "empty up to cutoff" when
nothing is found.  One sweep kernel, survey_batch (prepare_batch, then
walk_batch), does this for any number of x at once; solve is survey_batch
on a single x.

Wall patterns.  A fold over the reduced words of the x meets only finitely
many walls {beta = j}, and reads the profile m_J only through the tests
j >= m_J(beta) at those walls.  So the w of a sweep fall into wall patterns,
the classes of w that pass the same tests, and all w of one pattern have the
same dimension tables; the w of a pattern are looked up once per distinct
w^{-1} b w (and tau, where the x accept w by tau).  Patterns that differ
only at walls a fold never reaches fold alike, so survey_batch does not
fold them one by one.  It runs in two steps.  prepare_batch decides the
certificates and groups the w of the sweep by pattern over the walls
of all the words; walk_batch then walks the prefix tree of the words depth
first, refining a partition of the groups.  Only the w whose w^{-1} b w is
an end of the batch are grouped.  A frontier at the node of a word holds
products of subwords of it, the Bruhat interval below the word, and x =
word * tau looks w^{-1} b w up after moving tau onto it; so the ends,
{y * tau : y below the word} over the x (fold_walls), hold every element
that any table of any x of the batch can have, and a w whose w^{-1} b w
lies outside them has no stratum for any x.  All groups start in one class
at the root; at each step a class is split by the tests at the walls the
step crosses out of the class's own frontier, and each part is folded once.
Each test is a threshold on the wall key (wall_key), so a class that keeps
bounds on its keys skips a wall that cannot cut it in O(1).  A walk over
the words of some of the x meets only walls of the prepared groups, so
survey --jobs prepares once and its workers walk parts of the x.

Pulled-back keys.  The walk reads a frontier only at the lookup keys, the
w^{-1} b w of the members, once tau is moved on; so it folds only the
entries that can still reach one.  Before its depth-first walk, walk_batch
pulls the keys back through the prefix tree, children first (pull_back):
keep[v] holds the entries of the frontier at the parent of v that some
subword of a word suffix below v carries to a key, bounded by the reach
sets of fold_walls.  fold_step sends an entry c to c * s or keeps it at c
at cost one, so the value at y after a step is a max over the entries y and
y * s before it, and by induction a frontier cut to keep[v] still gives
every value a lookup reads.  A class is split by the walls crossed out of
its cut frontier, and a class whose cut frontier is empty is dropped: no
lookup at or below the node can hit it.  On the C2 trivial survey to length
10 this leaves 1,303 of the 5,033 fold steps and 3,415 of the 44,487
frontier entries folded, with a peak frontier of 12 entries instead of 38.

Twists.  W~ = W_a x| Omega_G, so every w of a sweep over u' * tau, ell(u')
<= cutoff and tau in an Omega set, is tau * u for the one tau of its
component and u = tau^{-1} u' tau in W_a, of the length of u', and each tau
* u with ell(u) <= cutoff comes from one u'.  tau stabilizes the base alcove,
so (tau u)^{-1}.a = u^{-1}.a, and the finite part of tau u moves a root beta
into R_N iff the finite part of u moves it into the R_N of P_tau = tau^{-1}
P tau.  So the profile of tau * u under P is the profile of u under P_tau,
and (tau u)^{-1} b (tau u) = u^{-1} b_tau u with b_tau = tau^{-1} b tau: the
length, the profile, the wall key and the lookup key of w depend on tau
only through the pair (P_tau, b_tau), and the profile reads P_tau only
through R_N and its opposite.  So prepare_batch buckets the tau by that
pair, and each bucket walks the ball of W_a once (ball_groups).  For a
basic class of a datum with finite Lambda_G (P = G, b in the abelian group
Omega_G) there is one bucket; for GL_n tau and tau * t^(k,..,k), a central
translate, have one pair, so there are at most n.  The w with a given wall
key and lookup key (w^{-1} b w, with tau where the x accept w by tau) are
then the tau * u over the buckets of the u with that key, so the first such
w in (length, text) order is the text-least tau * u over the u of least
length among them, over all buckets: the members, and so the ties and the
witnesses, are those of the full sweep in (length, text) order.  Only the
members are multiplied out and formatted.

Conjugate tables.  u^{-1} b_tau u does not depend on x, so the context keeps
it (kept_ball): per b_tau an array over the positions of the kept ball,
-1 where not filled yet, read by every later query or survey of a class
with that twisted representative.  ball_groups fills an entry as it first
meets u, through one affine map per finite part f of u
(AffineWeyl.conj_inv_map): for u = (lam, f), u^{-1} b_tau u is A_f lam + c_f
with the finite part f^{-1} v f.  The ball only grows by appending, so
growth extends the arrays with -1 and keeps every filled entry.  A central
b_tau (AffineWeyl.is_central: the trivial class, and GL_n classes with
central Newton point) has u^{-1} b_tau u = b_tau for every u, so it gets no
table, and the one test b_tau in ends keeps or drops its whole bucket.
ball_groups reads or fills the entry of u before anything else of u, and
drops u when the entry is no end of the batch (see Wall patterns): no
profile, no wall key, no group entry.  Two more per-w steps go by tau alone:
x = word * tau meets w^{-1} b w where the word's frontier holds w^{-1} b w
tau^{-1}, so walk_batch moves tau onto the frontier once per class at the
node of x, {y * tau}, and looks w^{-1} b w up in it; and for infinite
Lambda_G it tests eta_G(w) against the window of x by tau, since eta_G(tau *
u) = eta_G(tau) and eta_G is injective on Omega.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .affine import AffineWeyl
from .alcoves import newton_vector, pair_two_rho
from .hecke import Hecke, poly_deg
from .roots import SemistdParabolic, closure, semistandard_parabolics, standard_parabolic
from .sigma import (SigmaConjClass, fundamental_representative, is_basic,
                    levi_classes_with_newton, standard_representative)

INF = 10 ** 9


# ---------------------------------------------------------------------------
# orientations and folding walks

def conj_parabolic(p: SemistdParabolic, v: int) -> SemistdParabolic:
    """The parabolic v P v^{-1} (v a finite Weyl element)."""
    datum = p.datum
    return SemistdParabolic(datum, datum.weyl.mul(v, p.u), p.levi_simple)


def orientation_profile(ctx: AffineWeyl, p: SemistdParabolic, wid: int):
    """
    m_J over the positive roots for J = w^{-1} (I_M N) w: list indexed by
    positive root index, entries in Z or +-INF.  The folds and wall keys
    read no other entry.  For w = (lam, v) the inverse is (-v^{-1} lam,
    v^{-1}), so k(beta, w^{-1}.a) = -<v beta, lam> + [v beta > 0].
    """
    datum = ctx.datum
    npos = datum.nposroots
    lam = ctx.translation(wid)
    r_n, r_nbar = p.r_n, p.r_nbar
    out = []
    for img in datum.weyl.root_act[ctx.finite(wid)][:npos]:
        if img in r_n:
            out.append(-INF)
        elif img in r_nbar:
            out.append(INF)
        else:
            out.append((img < npos) - datum.pairing(img, lam))
    return out


def fold_step(ctx: AffineWeyl, frontier: dict, gen: int, profile) -> dict:
    """One letter of the folding walk; merges by max dimension."""
    out: dict[int, int] = {}
    steps = ctx.steps
    for c, d in frontier.items():
        row = steps.get(c)
        if row is None:
            row = ctx.step_row(c)
        cs, beta, j, c_upper = row[gen]
        fold_upper = j >= profile[beta]
        if c_upper != fold_upper:
            # crossing into the fold side: forced, costs one
            if out.get(cs, -1) < d + 1:
                out[cs] = d + 1
        else:
            # crossing out of the fold side: free, or fold back at cost one
            if out.get(cs, -1) < d:
                out[cs] = d
            if out.get(c, -1) < d + 1:
                out[c] = d + 1
    return out


def orbit_dim_table(ctx: AffineWeyl, xid: int, p: SemistdParabolic, wid: int,
                    orientation: str = "periodic") -> dict:
    """
    entries[y] = dim( I.a_x  cap  (w^{-1} I_P w).a_y ), as a dict on element
    ids.  orientation "periodic" is the table above; "at-infinity" restricts
    to y in the twisted Levi's affine Weyl group and subtracts its internal
    length, modelling N'-orbits in place of I_{P'}-orbits.
    """
    profile = orientation_profile(ctx, p, wid)
    word, tau = ctx.reduced_word(xid)
    frontier = {ctx.identity: 0}
    for i in word:
        frontier = fold_step(ctx, frontier, i, profile)
    if tau != ctx.identity:
        frontier = {ctx.mul(c, tau): d for c, d in frontier.items()}
    if orientation == "periodic":
        return frontier
    if orientation != "at-infinity":
        raise ValueError("orientation must be 'periodic' or 'at-infinity'")
    pprime = conj_parabolic(p, ctx.datum.weyl.inv[ctx.finite(wid)])
    out = {}
    for y, d in frontier.items():
        if ctx.finite(y) in pprime.w_m:
            out[y] = d - ctx.length_levi(y, pprime)
    return out


# ---------------------------------------------------------------------------
# certificates (the Levi obstruction) and results

@dataclass
class Certificate:
    kind: str                 # "component" | "levi-obstruction"
    parabolic_key: tuple | None = None
    detail: str = ""

    def to_json(self):
        return {"kind": self.kind, "parabolic": self.parabolic_key, "detail": self.detail}


@dataclass
class AdlvResult:
    status: str               # "nonempty" | "empty-certified" | "empty-up-to-cutoff"
    dim: int | None = None
    witness_w: int | None = None
    cutoff: int | None = None
    certificates: list = field(default_factory=list)

    @property
    def nonempty(self):
        return self.status == "nonempty"

    def to_json(self, ctx):
        return {
            "status": self.status,
            "dim": self.dim,
            "witness_w": ctx.format(self.witness_w) if self.witness_w is not None else None,
            "cutoff": self.cutoff,
            "certificates": [c.to_json() for c in self.certificates],
        }


def newton_orbit(ctx: AffineWeyl, nu) -> tuple:
    """The W-orbit of the Newton point nu, in canonical form; built once per nu."""
    got = ctx.newton_orbits.get(nu)
    if got is None:
        datum = ctx.datum
        W = datum.weyl
        got = tuple(dict.fromkeys(datum.coweight_nf_frac(W.apply(w, nu))
                                  for w in W.elements()))
        ctx.newton_orbits[nu] = got
    return got


def levi_eta_targets(ctx: AffineWeyl, p: SemistdParabolic, cls: SigmaConjClass):
    """
    The admissible eta_M-values: eta_M of the classes over M whose Newton
    point is W-conjugate to that of cls.  They depend on P only through M
    and on cls only through its Newton point, so the memo is keyed by both.
    """
    key = (p.levi_key(), cls.newton)
    got = ctx.levi_targets.get(key)
    if got is not None:
        return got
    datum = ctx.datum
    targets = {p.lattice.normal_form(lam) for nu in newton_orbit(ctx, cls.newton)
               for lam in levi_classes_with_newton(datum, p.r_m, nu)}
    ctx.levi_targets[key] = targets
    return targets


def p_alcove_parabolics(ctx: AffineWeyl, xid: int):
    """
    The proper semistandard P with x.a a P-alcove, in their fixed order: the
    finite part of x lies in W_M and R_N lies in the roots of offset >= 0.
    """
    w = ctx.finite(xid)
    up = {r for r, o in enumerate(ctx.offsets(xid)) if o >= 0}
    for p in semistandard_parabolics(ctx.datum):
        if w in p.w_m and p.r_n <= up and not p.is_full:
            yield p


def necessary_condition(ctx: AffineWeyl, xid: int, cls: SigmaConjClass):
    """
    The non-emptiness obstruction (a theorem): returns None when the test
    passes, else a Certificate.  Checks the component map, then, for every
    semistandard P = MN with x.a a P-alcove, membership of eta_M(x) in the
    eta_M-values allowed by the Newton point of the class.
    """
    if ctx.omega_class(xid) != cls.kappa:
        return Certificate("component", None, "kappa(x) != kappa(b)")
    for p in p_alcove_parabolics(ctx, xid):
        if p.eta_m(ctx.translation(xid)) not in levi_eta_targets(ctx, p, cls):
            return Certificate("levi-obstruction", p.key(),
                               "eta_M(x) not an eta_M-value over the Newton orbit")
    return None


def predict_levi(ctx: AffineWeyl, xid: int, cls: SigmaConjClass):
    """
    The P-alcove prediction for basic classes: empty iff necessary_condition
    fails.  The "empty" direction is a theorem; "nonempty" is the
    conjectural one.  Returns ("empty", certificate) or
    ("nonempty-predicted", None).
    """
    if not is_basic(ctx.datum, cls):
        raise ValueError("the P-alcove prediction applies to basic classes")
    cert = necessary_condition(ctx, xid, cls)
    return ("nonempty-predicted", None) if cert is None else ("empty", cert)


def emptiness_certificate(ctx: AffineWeyl, xid: int, cls: SigmaConjClass):
    """
    The theorem-level emptiness certificate of the sweep: necessary_condition.
    For a basic class the paper reads the Levi condition over the class over
    M, keeping only the lam with kappa_G(lam) = kappa(b).  That filter never
    drops the value tested.  The component map comes first, so kappa_G(x) =
    kappa(b); and Lambda_M -> Lambda_G is well defined, as the coroots of M
    are coroots of G.  So every lam with eta_M(lam) = eta_M(x) has
    kappa_G(lam) = kappa_G(x) = kappa(b).
    """
    return necessary_condition(ctx, xid, cls)


def predict_shrunken(ctx: AffineWeyl, xid: int, cls: SigmaConjClass):
    """
    The shrunken-chamber rule for basic classes: non-empty iff the component
    matches and eta_2^{-1} eta_1 eta_2 has full support, with dimension
    (ell(x) + ell(eta_2^{-1} eta_1 eta_2) - defect)/2.
    Returns ("empty", None) or ("nonempty", dim).
    """
    from .alcoves import conjugated_finite_part, has_full_support, is_shrunken
    from .sigma import defect
    datum = ctx.datum
    if not is_basic(datum, cls):
        raise ValueError("the shrunken rule applies to basic classes")
    if not is_shrunken(ctx, xid):
        raise ValueError("x must lie in the shrunken chambers")
    if ctx.omega_class(xid) != cls.kappa:
        return "empty", None
    u = conjugated_finite_part(ctx, xid)
    if not has_full_support(datum, u):
        return "empty", None
    num = ctx.length(xid) + datum.weyl.length[u] - defect(ctx, cls)
    if num % 2:
        raise ArithmeticError("parity failure in the shrunken dimension formula")
    return "nonempty", num // 2


# ---------------------------------------------------------------------------
# the sweep over w

def coxeter_number(datum) -> int:
    return len(datum.roots) // max(1, datum.weyl.rank)


def default_cutoff(ctx: AffineWeyl, xid: int, cls: SigmaConjClass) -> int:
    nu_dom = ctx.datum.dominant(cls.newton)
    extra = pair_two_rho(ctx.datum, nu_dom)
    if extra.denominator not in (1, 2):
        raise ArithmeticError(f"<2rho, nu> = {extra} is not a half-integer")
    return ctx.length(xid) + int(extra) + 2 * coxeter_number(ctx.datum)


def omega_window(ctx: AffineWeyl, cls: SigmaConjClass | None, xids) -> list:
    """
    The omega parts to sweep: all of Omega_G when the fundamental group is
    finite, else a window of the free coordinates sized by the inputs,
    spread = max |translation(x)| + 2.

    For GL_n the window is a witness rule, not a search bound: it sets which
    w a survey or query reports as witness_w, not the status or the dim.
    Narrowed by 1 or widened by 6 on GL3 and GL4 surveys it moved no status
    and no dim but did move witnesses, and a test widens it by 6 on GL2 and
    GL3 surveys.  So a change to the window changes witness_w in the output.
    cls is not read; bench/make_reference.py passes it.
    """
    datum = ctx.datum
    p_full = standard_parabolic(datum, frozenset(datum.simple_idx))
    spread = max([2] + [max(abs(v) for v in ctx.translation(x)) + 2 for x in xids])
    return [ctx.omega_element(p_full, nf) for nf in datum.lambda_g.window(spread)]


class Sweep(NamedTuple):
    """
    What a context keeps of the sweep (AffineWeyl.sweep).  ball maps each u
    of W_a with ell(u) <= depth to ell(u), in length order; it grows on its
    own (kept_ball) and only by appending.  conj_tables maps the element id
    of a twisted representative b_tau to its conjugate table, an array over
    the ball positions holding u^{-1} b_tau u, -1 where not filled yet
    (Conjugate tables in the module docstring).
    """
    ball: dict
    depth: int
    conj_tables: dict


def kept_ball(ctx: AffineWeyl, max_len: int) -> Sweep:
    """
    The context's kept sweep, with its ball grown in place first when it
    does not reach max_len.  The ball grows from its deepest shell by the
    ascents u * s_i of AffineWeyl.ascends, each one longer than u, so no
    u * s_i is measured and no descent is multiplied out; it grows breadth
    first (roots.closure), so it stays in length order and every kept u
    keeps its position.
    """
    kept = ctx.sweep
    if kept is None:
        kept = ctx.sweep = Sweep({ctx.identity: 0}, 0, {})
    if max_len <= kept.depth:
        return kept
    ball = kept.ball

    def up(u):
        # the u * s_i one longer than u, entered in the ball with that length
        n = ball[u] + 1
        if n > max_len:
            return ()
        ups = [ctx.mul(u, g) for i, g in enumerate(ctx.gens) if ctx.ascends(u, i)]
        ball.update(dict.fromkeys(ups, n))
        return ups

    closure([u for u, n in ball.items() if n == kept.depth], up)
    kept = ctx.sweep = kept._replace(depth=max_len)
    return kept


def sweep_elements(ctx: AffineWeyl, max_len: int, omegas) -> list:
    """
    All w = u * tau, u in W_a with ell(u) <= max_len, tau in omegas, sorted
    by (length, text), as a new list: the products over the kept ball
    (kept_ball), made afresh by each call.  ell(u * tau) = ell(u) and the
    sort puts length first, so the sweep for a cutoff is a prefix of the
    sweep for any larger one.
    """
    omegas = frozenset(omegas)
    found = []
    for u, n in kept_ball(ctx, max_len).ball.items():
        if n > max_len:
            break
        for tau in omegas:
            w = ctx.mul(u, tau)
            found.append((n, ctx.format(w), w))
    found.sort()
    return [w for _n, _text, w in found]


def class_data(ctx: AffineWeyl, cls: SigmaConjClass):
    """
    (standard rep, home parabolic, corr2), with corr2 = <2rho, nu + nu_dom>
    the integer twice the correction <rho, nu + nu_dom>.
    """
    datum = ctx.datum
    p = standard_parabolic(datum, cls.home_simple)
    b = standard_representative(ctx, cls)
    nu = newton_vector(ctx, b)
    nu_dom = datum.dominant(nu)
    corr2 = pair_two_rho(datum, nu) + pair_two_rho(datum, nu_dom)
    if corr2.denominator != 1:
        raise ArithmeticError(f"<2rho, nu + nu_dom> = {corr2} is not an integer")
    return b, p, int(corr2)


def stratum_value(got: int, corr2: int) -> int:
    """
    A table entry minus the correction corr2 / 2 = <rho, nu + nu_dom>: the
    dimension of a non-empty stratum.  A fractional or negative value
    violates the theory and raises.
    """
    twice = 2 * got - corr2
    if twice % 2 or twice < 0:
        raise ArithmeticError(
            f"stratum dimension {Fraction(twice, 2)} is not a nonnegative integer")
    return twice // 2


def solve(ctx: AffineWeyl, xid: int, cls: SigmaConjClass,
          cutoff: int | None = None) -> AdlvResult:
    """
    Decide X_x(b): survey_batch on the one element x, with default_cutoff
    when no cutoff is given.
    """
    if cutoff is None:
        cutoff = default_cutoff(ctx, xid, cls)
    return survey_batch(ctx, cls, [xid], cutoff)[xid]


# ---------------------------------------------------------------------------
# the sweep kernel (folding frontiers shared across all x and, per class of
# wall patterns, across all w)

def prefix_tree(ctx: AffineWeyl, words: dict):
    """
    The prefix tree of the reduced words {x: (word, tau)}, deduped by
    element: (parents, need, order), with parents[u] = (previous prefix,
    generator), need[u] = [(x, tau), ...] for the x whose word ends at u, and
    order the prefixes other than e by length, so parents come first.
    """
    parents: dict[int, tuple | None] = {ctx.identity: None}
    need: dict[int, list] = {}
    for x, (word, tau) in words.items():
        cur = ctx.identity
        for gi in word:
            nxt = ctx.step_row(cur)[gi][0]
            if nxt not in parents:
                parents[nxt] = (cur, gi)
            cur = nxt
        need.setdefault(cur, []).append((x, tau))
    order = sorted((u for u in parents if u != ctx.identity), key=ctx.length)
    return parents, need, order


def fold_walls(ctx: AffineWeyl, tree: tuple) -> tuple:
    """
    (walls, ends, reach) of the prefix tree (parents, need, order) of
    prefix_tree.  walls[beta]: the sorted levels j of every wall {beta = j}
    that a fold over the tree can meet.  A frontier only holds elements of
    its node's reach set, reach[e] = {e} and reach[u] = reach[par] together
    with reach[par] * s_gi, so the walls are those of the steps out of
    reach[par], and their step rows are filled.  By the subword property
    reach[u] is the Bruhat interval below u; reach maps each node to its
    reach set as a tuple, through which walk_batch pulls its lookup keys
    back (pull_back).

    ends: the elements a lookup can find, the union over the x = word * tau
    of the tree of {y * tau : y in reach[node of word]}, as walk_batch moves
    tau onto the frontier of x at its node.  It is gathered per tau while
    the reach sets are built, so no second pass goes over the tree.
    """
    parents, need, order = tree
    walls = [set() for _ in range(ctx.datum.nposroots)]
    reach = {ctx.identity: (ctx.identity,)}
    # tau -> the union of the reach sets of the nodes of the x = word * tau
    tails = {tau: {ctx.identity} for _x, tau in need.get(ctx.identity, ())}
    for u in order:
        par, gi = parents[u]
        grown = set(reach[par])
        for c in reach[par]:
            cs, beta, j, _ = ctx.step_row(c)[gi]
            walls[beta].add(j)
            grown.add(cs)
        # a tuple holds the batch's reach sets in a fifth of the memory
        reach[u] = tuple(grown)
        for _x, tau in need.get(u, ()):
            got = tails.get(tau)
            if got is None:
                tails[tau] = set(grown)
            else:
                got |= grown
    ends = set()
    for tau, ys in tails.items():
        ends.update(ys if tau == ctx.identity else (ctx.mul(y, tau) for y in ys))
    return [sorted(levels) for levels in walls], ends, reach


def pull_back(ctx: AffineWeyl, tree: tuple, reach: dict, keys: set) -> dict:
    """
    keep[v] for each node v other than e of the prefix tree (parents, need,
    order), reach its reach sets (fold_walls): the elements of reach[par],
    par the parent of v, that some subword of a word suffix below v carries
    to a lookup key, an element y * tau in keys at a node of an x = word *
    tau.  Children first, with gi the generator from par to v,

        back[v] = {y in reach[v] : y * tau in keys for an x = word * tau
                   whose word ends at v}, with keep[c] for each child c of v,
        keep[v] = {c in reach[par] : c or c * s_gi lies in back[v]}.

    fold_step sends an entry c to c * s_gi, or keeps it at c at cost one, so
    the value at y after the step is a max over the entries c = y and c = y
    * s_gi before it.  So a frontier at par cut to keep[v] still gives every
    element of back[v] its value at v, and by induction from the root every
    value that a lookup reads is the one of the uncut walk.  The sets stay
    inside reach, whose step rows fold_walls has filled.
    """
    parents, need, order = tree
    steps = ctx.steps
    # tau -> {y: whether y * tau is a key}, filled as the y come
    moved: dict[int, dict] = {}
    back: dict[int, set] = {}
    keep = {}
    for v in reversed(order):
        par, gi = parents[v]
        got = back.pop(v, set())
        for tau in {tau for _x, tau in need.get(v, ())}:
            if tau == ctx.identity:
                got |= keys.intersection(reach[v])
                continue
            hits = moved.setdefault(tau, {})
            for y in reach[v]:
                hit = hits.get(y)
                if hit is None:
                    hit = hits[y] = ctx.mul(y, tau) in keys
                if hit:
                    got.add(y)
        kept = keep[v] = {c for c in reach[par] if c in got or steps[c][gi][0] in got} \
            if got else set()
        if kept:
            back.setdefault(par, set()).update(kept)
    return keep


def wall_key(walls: list, profile) -> tuple:
    """
    For each positive root beta, how many walls {beta = j} of walls lie
    below profile[beta]: fold_step tests j >= profile[beta], so two profiles
    with one key fold identically over the tree the walls came from.
    """
    return tuple(bisect_left(levels, profile[beta])
                 for beta, levels in enumerate(walls))


class Batch(NamedTuple):
    """
    A survey_batch prepared up to its walk (prepare_batch).  certified holds
    the results of the x a certificate decided, words the reduced words of
    the others, the pending x, in input order.  The rest serves the walk:
    corr2 of class_data, the Omega window of each x (allowed, None for
    finite Lambda_G), the prefix tree of all pending words and the reach
    set of each of its nodes (fold_walls), index[beta] mapping each level j
    of walls[beta] to its place, and the wall groups of ball_groups:
    columns[beta] the wall_key[beta] of each group, the profile of one w of
    it, and its members, as indices into records.  records holds one (w,
    w^{-1} b w, tau) per member, w = tau * u, in the (length, text) order of
    w, so a lower index is an earlier w of the sweep.  The walk reads no
    kept ball and no conjugate table.
    With no pending x the fields after words are None.
    """
    cutoff: int
    certified: dict
    words: dict
    corr2: int | None = None
    allowed: dict | None = None
    tree: tuple | None = None
    reach: dict | None = None
    index: list | None = None
    columns: list | None = None
    profiles: list | None = None
    members: list | None = None
    records: list | None = None


def survey_batch(ctx: AffineWeyl, cls: SigmaConjClass, xids, cutoff: int):
    """
    Decide X_x(b) for many x at once; returns {x: AdlvResult}.  Certificates
    come first, per x (sound emptiness).  The x they leave are decided by one
    sweep over w in length shells up to the cutoff, reporting for each x its
    best stratum and the first w of the sweep that reaches it.  Each x keeps
    its own Omega-window (omega_window(ctx, cls, [x, b])) and accepts only
    the w whose component lies in it, so a result does not depend on how the
    x are split into batches.

    It is prepare_batch, which decides the certificates and builds the wall
    groups of the sweep, then walk_batch over all pending x, on the prefix
    tree the preparation built.  A caller that splits the walk (survey
    --jobs) prepares once and walks each part with walk_batch.
    """
    batch = prepare_batch(ctx, cls, xids, cutoff)
    return {**batch.certified, **walk_batch(ctx, batch)}


def prepare_batch(ctx: AffineWeyl, cls: SigmaConjClass, xids, cutoff: int) -> Batch:
    """
    Everything of survey_batch before the walk, as a Batch: the certificates
    of every x, and for the x they leave the reduced words, the class data,
    the Omega windows, the prefix tree of the words, its walls (fold_walls),
    and the wall groups with their member records.

    The folding frontiers are shared twice.  Across the x, by a walk over the
    prefix tree of their reduced words.  Across the w, by wall pattern: a fold
    reads the profile of w only through the tests j >= profile[beta] at the
    walls {beta = j} of fold_walls, and wall_key, which counts for each
    positive beta the walls below profile[beta], turns each test into the
    threshold wall_key[beta] <= (index of j in walls[beta]).  The sweep
    groups the w by key.  A member is kept only when no earlier w of its
    group had its w^{-1} b w, and its tau when each x accepts w by tau
    (infinite Lambda_G): two members with one key pass every test alike and
    the later one loses every tie.

    The groups come from one walk of the ball of W_a per twist pair
    (ball_groups, and Twists in the module docstring), for every class and
    datum alike.

    w^{-1} b w is computed first, and w is skipped, with no profile, wall
    key or group entry, when it is no end of the batch (fold_walls); for a
    central b one test b in ends decides every w of a twist pair at once.
    That is exact:
    - a skipped w can never give a hit: its w^{-1} b w is in no frontier of
      any x once tau is on it;
    - a group's profile may be that of any of its w, as all w with one key
      fold alike, so the first w that is not skipped gives it;
    - each lookup key that is kept keeps its first w of the sweep, since the
      skipped w have only other keys, so ties and witnesses are unchanged;
    - a survey --jobs chunk's ends lie in the batch's: its nodes are nodes
      of the batch's tree and reach[u] depends on u alone, so the groups of
      the batch hold every w that a chunk can hit.
    """
    certified: dict[int, AdlvResult] = {}
    words = {}
    for x in xids:
        cert = emptiness_certificate(ctx, x, cls)
        if cert is not None:
            certified[x] = AdlvResult("empty-certified", certificates=[cert],
                                      cutoff=cutoff)
        else:
            words[x] = ctx.reduced_word(x)
    if not words:
        return Batch(cutoff, certified, words)
    b, p, corr2 = class_data(ctx, cls)
    # for finite Lambda_G every x sweeps all of Omega_G, and each w = tau * u
    # has eta_G(w) = eta_G(tau), so every w is allowed; else x allows the w
    # whose tau lies in its window, as eta_G is injective on Omega
    allowed = None
    if ctx.datum.lambda_g.order() is not None:
        omegas = frozenset(omega_window(ctx, cls, [b]))
    else:
        allowed = {x: frozenset(omega_window(ctx, cls, [x, b])) for x in words}
        omegas = frozenset().union(*allowed.values())
    tree = prefix_tree(ctx, words)
    walls, ends, reach = fold_walls(ctx, tree)
    groups, records = ball_groups(ctx, b, p, walls, ends, cutoff, omegas, allowed)
    # the test j >= profile[beta] at the wall {beta = j} passes iff
    # wall_key[beta] <= index[beta][j], the index of j in walls[beta]
    index = [{j: i for i, j in enumerate(levels)} for levels in walls]
    return Batch(cutoff, certified, words, corr2, allowed, tree, reach, index,
                 list(zip(*groups)), [profile for profile, _ in groups.values()],
                 [members for _, members in groups.values()], records)


def ball_groups(ctx: AffineWeyl, b: int, p: SemistdParabolic, walls: list, ends: set,
                cutoff: int, omegas: frozenset, allowed: dict | None):
    """
    The wall groups of prepare_batch, ({wall key: (profile, member
    indices)}, records), from the ball of W_a grown to the cutoff
    (kept_ball).  The w of the sweep are the tau * u, tau in omegas and u in
    the ball, and tau * u has the profile of u under P_tau = tau^{-1} P tau
    and w^{-1} b w = u^{-1} b_tau u, b_tau = tau^{-1} b tau (Twists in the
    module docstring).  So the tau are bucketed by (R_N of P_tau, its
    opposite, b_tau), all that the profile and the conjugate read, and each
    bucket walks the ball up to the cutoff once.  For each u it reads or
    fills u^{-1} b_tau u in the conjugate table of b_tau, and skips u when
    that is no end; for a central b_tau one test b_tau in ends decides the
    whole bucket.  Else it computes the profile and the wall key of u, and
    keeps, per wall key and lookup key, the tied u of least length over all
    buckets, with their tau; the lookup key is u^{-1} b_tau u, with tau when
    each x accepts w by tau (allowed, infinite Lambda_G).  The member is the
    text-least tau * u over those ties: the first w in (length, text) order
    with that wall key and lookup key.  Only the members are multiplied out
    and formatted.
    """
    kept = kept_ball(ctx, cutoff)
    ball, tables = kept.ball, kept.conj_tables
    weyl = ctx.datum.weyl
    # (R_N, R_Nbar, b_tau) -> (P_tau, its tau); P_tau once per finite part,
    # and tau^{-1} G tau = G is not built again
    parabolics: dict[int, SemistdParabolic] = {}
    buckets: dict[tuple, tuple] = {}
    for tau in omegas:
        f = ctx.finite(tau)
        p_tau = parabolics.get(f)
        if p_tau is None:
            p_tau = parabolics[f] = p if p.is_full else conj_parabolic(p, weyl.inv[f])
        bucket = (p_tau.r_n, p_tau.r_nbar, ctx.conj_inv(tau, b))
        buckets.setdefault(bucket, (p_tau, []))[1].append(tau)
    # wall key -> (profile of its first u, {lookup key: (ell(u), [(u, the
    # tau of its bucket that the lookup takes)] of least length)}), the
    # lookup key (u^{-1} b_tau u,), or (u^{-1} b_tau u, tau) for allowed
    groups: dict[tuple, tuple] = {}
    for (_r_n, _r_nbar, b_tau), (p_tau, taus) in buckets.items():
        central = ctx.is_central(b_tau)
        if central and b_tau not in ends:
            continue
        if not central:
            table = tables.get(b_tau)
            if table is None:
                table = tables[b_tau] = array("q")
            table.extend(array("q", [-1]) * (len(ball) - len(table)))
            maps = {}
        lookups = [((), tuple(taus))] if allowed is None else [((tau,), (tau,)) for tau in taus]
        for pos, (u, n) in enumerate(ball.items()):
            if n > cutoff:
                break
            btilde = b_tau
            if not central:
                btilde = table[pos]
                if btilde < 0:
                    f = ctx.finite(u)
                    at = maps.get(f)
                    if at is None:
                        at = maps[f] = ctx.conj_inv_map(f, b_tau)
                    btilde = table[pos] = at(ctx.translation(u))
                if btilde not in ends:
                    continue
            profile = orientation_profile(ctx, p_tau, u)
            key = wall_key(walls, profile)
            got = groups.get(key)
            if got is None:
                got = groups[key] = (profile, {})
            for suffix, ties in lookups:
                look = (btilde, *suffix)
                least = got[1].get(look)
                if least is None or least[0] > n:
                    got[1][look] = (n, [(u, ties)])
                elif least[0] == n:
                    least[1].append((u, ties))
    # (ell(w), text of w, w, w^{-1} b w, tau, wall key) per member; no two
    # members have one text
    found = []
    for key, (_profile, least) in groups.items():
        for look, (n, ties) in least.items():
            text, w, tau = min((ctx.format(w), w, tau) for u, taus in ties for tau in taus
                               for w in (ctx.mul(tau, u),))
            found.append((n, text, w, look[0], tau, key))
    found.sort()
    members = {key: [] for key in groups}
    records = []
    for _n, _text, w, btilde, tau, key in found:
        members[key].append(len(records))
        records.append((w, btilde, tau))
    return {key: (profile, members[key]) for key, (profile, _) in groups.items()}, records


def walk_batch(ctx: AffineWeyl, batch: Batch, xids=None) -> dict:
    """
    The walk of a prepared batch for the pending x in xids, all of them when
    None; returns {x: AdlvResult}.  A subset walks the prefix tree of its own
    words against the groups of the whole batch.  That is exact: the walls of
    its tree are among the batch's, so every test is a threshold on the same
    wall keys; groups finer than its own walls need only refine its
    partition; and between equal strata the lowest member index, the first
    w of the sweep, still wins.  So a result does not depend on how the
    pending x are split.  The walk reads only the batch: its members are
    records (w, w^{-1} b w, tau), so it reads no kept ball and no
    conjugate table.

    One depth-first walk of the prefix tree refines a partition of the
    groups: all groups start in one class at the root, and at a child
    par * s_gi each class is split by the tests at the walls that gi crosses
    out of the class's own frontier at par, then folded once.  A class keeps
    bounds on wall_key[beta] over its groups, so a wall that cannot cut it
    costs O(1).  Groups in one class have one fold history, so one frontier
    serves them all, and only the frontiers on the current path are held.
    The x whose words end at a node are looked up there, in the frontier of
    every class, for every member of its groups; between equal strata the
    lowest member index wins, over all classes, which is the first w in
    sweep order.  The tau of each x goes onto the frontier of each class at
    its node (see the module docstring).

    Each frontier is cut before its step to keep[v] of pull_back, the
    entries that can still reach a lookup key of the walk's own x at or
    below the child v (Pulled-back keys in the module docstring), and a
    class whose cut frontier is empty is dropped.  That is exact:
    - every value a lookup reads equals the uncut one (pull_back);
    - a class is split by the walls crossed out of its cut frontier, and
      groups that differ only at walls crossed by dropped entries fold alike
      on every kept entry, so the profile of its first group still gives
      each kept entry its test;
    - lookups read the same values, so the lowest member index still wins
      ties.  A walk of a subset of the x (a survey --jobs chunk) pulls back
      its own keys over its own tree, whose nodes and reach sets are the
      batch's (reach[u] depends on u alone).
    """
    words = batch.words if xids is None else {x: batch.words[x] for x in xids}
    if not words:
        return {}
    tree = batch.tree if xids is None else prefix_tree(ctx, words)
    parents, need, order = tree
    index, columns, profiles, members = batch.index, batch.columns, batch.profiles, \
        batch.members
    records, corr2, allowed = batch.records, batch.corr2, batch.allowed
    keep = pull_back(ctx, tree, batch.reach, {btilde for _w, btilde, _tau in records})
    children: dict[int, list] = {}
    for u in order:
        par, gi = parents[u]
        children.setdefault(par, []).append((u, gi))
    steps = ctx.steps

    def refine(part, gi, kept):
        # the classes of part at its child by gi, each with its frontier,
        # from the entries of part's frontier in kept; a class is (group
        # ids, lo, hi, frontier), lo[beta] <= wall_key[beta] <= hi[beta]
        # over its groups, and its bounds travel with its ids, so they may
        # be tightened in place
        frontier = {c: d for c, d in part[3].items() if c in kept}
        if not frontier:
            return []
        subs = [part[:3]]
        crossed = () if len(part[0]) == 1 else \
            {(steps.get(c) or ctx.step_row(c))[gi][1:3] for c in frontier}
        for beta, j in crossed:
            t = index[beta][j]
            col = columns[beta]
            cut = []
            for gids, lo, hi in subs:
                if lo[beta] <= t < hi[beta]:
                    passed = [g for g in gids if col[g] <= t]
                    if len(passed) == len(gids):
                        hi[beta] = t
                    elif not passed:
                        lo[beta] = t + 1
                    else:
                        # a cut gives each half its own copies
                        pass_hi = hi[:]
                        pass_hi[beta] = t
                        cut.append((passed, lo[:], pass_hi))
                        gids = [g for g in gids if col[g] > t]
                        lo, hi = lo[:], hi[:]
                        lo[beta] = t + 1
                cut.append((gids, lo, hi))
            subs = cut
        return [(gids, lo, hi, fold_step(ctx, frontier, gi, profiles[gids[0]]))
                for gids, lo, hi in subs]

    # best[x] = (dim, member index, w) of the stratum kept so far
    best: dict[int, tuple | None] = dict.fromkeys(words)
    root = (list(range(len(profiles))), [min(col) for col in columns],
            [max(col) for col in columns], {ctx.identity: 0})
    # (node, generator from its parent, the parent's classes): a node's
    # classes are built when it is visited, so only the path's are held
    stack = [(ctx.identity, None, None)] if profiles else []
    while stack:
        u, gi, above = stack.pop()
        parts = [root] if above is None else \
            [sub for part in above for sub in refine(part, gi, keep[u])]
        for x, tau in need.get(u, ()):
            ok = None if allowed is None else allowed[x]
            for gids, _lo, _hi, frontier in parts:
                # x = word * tau meets btilde = w^{-1} b w where the word's
                # frontier holds btilde * tau^{-1}, that is where {y * tau}
                # holds btilde
                if tau != ctx.identity:
                    frontier = {ctx.mul(y, tau): d for y, d in frontier.items()}
                for g in gids:
                    for i in members[g]:
                        w, btilde, tau_w = records[i]
                        got = frontier.get(btilde)
                        if got is None:
                            continue
                        if ok is not None and tau_w not in ok:
                            continue
                        val = stratum_value(got, corr2)
                        cur = best[x]
                        if cur is None or (val, -i) > (cur[0], -cur[1]):
                            best[x] = (val, i, w)
        if parts:
            for v, g in children.get(u, ()):
                stack.append((v, g, parts))
    cutoff = batch.cutoff
    return {x: AdlvResult("empty-up-to-cutoff", cutoff=cutoff) if hit is None else
            AdlvResult("nonempty", dim=hit[0], witness_w=hit[2], cutoff=cutoff)
            for x, hit in best.items()}


# ---------------------------------------------------------------------------
# the superset method

def superset(ctx: AffineWeyl, cls: SigmaConjClass, cutoff: int):
    """
    {x : IxI contained in I y^{-1} I b0 I y I for some y with ell(y) <= cutoff},
    for a fundamental-alcove representative b0 of the class.  This is exactly
    the non-emptiness locus of X_x(b0), monotonically approximated in cutoff.
    """
    b0, _p0 = fundamental_representative(ctx, cls)
    H = Hecke(ctx)
    base = H.t(b0)
    # y in length order: Q_{ys} = T_s Q_y T_s when the lengths grow, filled
    # when the closure first reaches ys
    qs = {ctx.identity: base}
    omegas = omega_window(ctx, cls, [b0])

    def up(y):
        for g in ctx.gens:
            ys = ctx.mul(y, g)
            if ys not in qs and ctx.length(ys) == ctx.length(y) + 1 <= cutoff:
                qs[ys] = H.mul_gen(H.mul_gen(qs[y], g, left=True), g)
                yield ys

    out = set()
    for y in closure([ctx.identity], up):
        out |= H.support(qs[y])
    # omega parts of y contribute conjugated supports
    return {ctx.conj_inv(tau, z) for tau in omegas for z in out}


# ---------------------------------------------------------------------------
# reduction to the basic case over a Levi

def minimal_coset_reps(datum, p: SemistdParabolic):
    """Minimal length representatives of W_M \\ W."""
    W = datum.weyl
    reps = []
    for w in W.elements():
        if all(W.length[W.mul(m, w)] >= W.length[w] for m in p.w_m):
            reps.append(w)
    return reps


def levi_affine_generators(ctx: AffineWeyl, p: SemistdParabolic):
    """
    Elements of length one in the affine Weyl group of the Levi: the affine
    reflections s_{beta,k} in the walls of the M-base alcove.
    """
    datum = ctx.datum
    gens = []
    npos = datum.nposroots
    for i in sorted(p.r_m):
        if i >= npos:
            continue
        # a lies in 0 < beta < 1, so the M-base alcove has walls at k = 0, 1 only
        for k in (0, 1):
            refl = ctx.intern(tuple(k * v for v in datum.coroots[i]),
                              ctx._reflection_index(i))
            if ctx.length_levi(refl, p) == 1 and refl not in gens:
                gens.append(refl)
    return gens


def solve_levi_basic(ctx: AffineWeyl, p: SemistdParabolic, yid: int, bid: int,
                     cutoff: int):
    """
    Non-emptiness and dimension of the Levi variety X^M_y(b) for b of length
    zero in W~_M (basic over M), via the Hecke degrees of W~_M.
    Returns (status, dim) with status in {"nonempty", "empty-up-to-cutoff",
    "empty-certified"}.
    """
    if not p.r_m:
        # torus: X^A_y(b) is a point when y = b, else empty
        if yid == bid:
            return "nonempty", 0
        return "empty-certified", None
    if ctx.length_levi(bid, p) != 0:
        raise ValueError("representative must be basic over the Levi")
    if p.eta_m(ctx.translation(yid)) != p.eta_m(ctx.translation(bid)):
        return "empty-certified", None
    gens = levi_affine_generators(ctx, p)
    lenf = lambda u: ctx.length_levi(u, p)
    H = Hecke(ctx, gens=gens, length=lenf)
    # affine ball of the Levi, then all components of its omega group within
    # a translation window sized by the inputs
    def up(v):
        longer = lenf(v) + 1
        return [u for u in (ctx.mul(v, g) for g in gens) if lenf(u) == longer <= cutoff]

    ball = closure([ctx.identity], up)
    spread = 2 + max(max(abs(t) for t in ctx.translation(yid)),
                     max(abs(t) for t in ctx.translation(bid)))
    omegas = [ctx.omega_element(p, nf) for nf in p.lattice.window(spread)]
    best = None
    binv = ctx.inv(bid)
    for u in ball:
        for om in omegas:
            v = ctx.mul(u, om)
            # C^M(y, v^{-1} b^{-1}, v^{-1})
            arg = ctx.mul(ctx.inv(v), binv)
            prod = H.mul_basis(H.t(yid), arg)
            c = prod.get(ctx.inv(v), 0)
            if c:
                d = poly_deg(c)
                if best is None or d > best:
                    best = d
    if best is None:
        return "empty-up-to-cutoff", None
    return "nonempty", best


def reduce_to_basic(ctx: AffineWeyl, xid: int, cls: SigmaConjClass,
                    cutoff: int | None = None) -> AdlvResult:
    """
    dim X_x(b) through the Levi recursion: strata over pairs (w, y) with w a
    minimal coset representative and y in the twisted Levi's affine Weyl
    group meeting the Iwahori orbit of x at infinity.
    """
    datum = ctx.datum
    if cutoff is None:
        cutoff = default_cutoff(ctx, xid, cls)
    if cls.home_simple == frozenset(datum.simple_idx):
        return solve(ctx, xid, cls, cutoff)
    b, p, corr2 = class_data(ctx, cls)
    best = None
    best_w = None
    for wfin in minimal_coset_reps(datum, p):
        w = ctx.intern((0,) * datum.d, wfin)
        table = orbit_dim_table(ctx, xid, p, w, "at-infinity")
        if not table:
            continue
        pprime = conj_parabolic(p, datum.weyl.inv[wfin])
        btilde = ctx.conj_inv(w, b)
        if ctx.length_levi(btilde, pprime) != 0:
            raise RuntimeError("the conjugated representative is not basic over the Levi")
        for y, dinf in sorted(table.items()):
            status, dm = solve_levi_basic(ctx, pprime, y, btilde, cutoff)
            if status != "nonempty":
                continue
            twice = 2 * (dinf + dm) - corr2
            if twice % 2:
                raise ArithmeticError("fractional dimension in the Levi recursion")
            if twice < 0:
                continue
            if best is None or twice // 2 > best:
                best, best_w = twice // 2, w
    if best is None:
        return AdlvResult("empty-up-to-cutoff", cutoff=cutoff)
    return AdlvResult("nonempty", dim=best, witness_w=best_w, cutoff=cutoff)
