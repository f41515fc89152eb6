"""
The extended affine Weyl group W~ = X_*(A) x| W and its alcove model.

Elements are pairs x = (lambda, w): the translation part lambda (a cocharacter
in canonical form) and the finite part w (a Weyl-group index).  Composition is
(lam, w)(mu, v) = (lam + w mu, w v).  Elements are interned per context, so an
element is just an int id; the hot paths (length, alcove coordinates, folding
walks) run on small-integer arithmetic only.

Conventions.  The base alcove "a" is the alcove in the dominant chamber whose
closure contains the origin; the Iwahori subgroup is its fixer, i.e. the
preimage of the *opposite* Borel.  The alcove coordinates k(alpha, x.a) and
their offsets from those of a are documented at AffineWeyl.offsets.

Length is the number of affine root hyperplanes separating a from x.a: the
sum of |offset| over the positive roots.  Reduced words use the affine
generators s_1..s_r (finite simple reflections) and s_0 (the reflection in
the wall {theta = 1} for the highest root theta), followed by a length-zero
element.
"""

from __future__ import annotations

import operator

from .roots import RootDatum, SemistdParabolic, standard_parabolic


class AffineWeyl:
    """Interning context for elements of W~ over a fixed root datum.

    All operations are pure; the interning and memo tables are the only
    mutable state and are only ever extended (insert-if-absent under the
    interpreter lock), and contexts are cheap to fork into worker
    processes.  The kept sweep is extended in place too: engine.kept_ball
    appends to its ball and engine.ball_groups to its conjugate tables, so
    two threads must not sweep one context at once.
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        self._elts: list[tuple[tuple[int, ...], int]] = []
        self._index: dict[tuple[tuple[int, ...], int], int] = {}
        self._len: dict[int, int] = {}
        self._word: dict[int, tuple[tuple[int, ...], int]] = {}
        self._inv: dict[int, int] = {}
        self._bruhat: dict[tuple[int, int], bool] = {}
        # the step table, filled by step_row: element id -> one row entry
        # (c * s_i, beta, j, upper) per affine generator s_i
        self.steps: dict[int, tuple] = {}
        # memo of engine.levi_eta_targets: (Levi root set, Newton point) ->
        # targets; the targets depend on P only through M
        self.levi_targets: dict[tuple, set] = {}
        # memo of engine.newton_orbit: Newton point -> its W-orbit
        self.newton_orbits: dict[tuple, tuple] = {}
        # memo of the classes of sigma.classify and sigma.class_from_invariants:
        # (Newton point, kappa) -> class
        self.classes: dict[tuple, object] = {}
        # the kept sweep: None, or an engine.Sweep (the ball of W_a with its
        # depth, and the conjugate tables u^{-1} b u over the ball positions
        # by the element id of b), grown in place by engine.kept_ball and
        # engine.ball_groups, which keep every ball position and filled entry
        self.sweep: tuple | None = None
        self.identity = self.intern((0,) * datum.d, 0)
        # affine generators: index 0 = affine node, 1..r = finite simples
        gens = [self.intern(datum.coroots[datum.theta_idx],
                            self._reflection_index(datum.theta_idx))]
        for ri in datum.simple_idx:
            gens.append(self.intern((0,) * datum.d, self._reflection_index(ri)))
        self.gens = tuple(gens)
        for i, g in enumerate(self.gens):
            if self.length(g) != 1:
                raise RuntimeError(f"affine generator s{i} must have length 1")
        self._omega: dict[frozenset, dict] = {}

    # -- interning ------------------------------------------------------------

    def _reflection_index(self, root_idx: int) -> int:
        return self.datum.reflection_index(root_idx)

    def intern(self, lam, w: int) -> int:
        key = (self.datum.coweight_nf(lam), w)
        got = self._index.get(key)
        if got is None:
            got = len(self._elts)
            self._elts.append(key)
            self._index[key] = got
        return got

    def translation(self, xid: int) -> tuple[int, ...]:
        return self._elts[xid][0]

    def finite(self, xid: int) -> int:
        return self._elts[xid][1]

    def from_translation(self, lam) -> int:
        return self.intern(lam, 0)

    # -- group operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        la, wa = self._elts[a]
        lb, wb = self._elts[b]
        W = self.datum.weyl
        return self.intern(tuple(map(operator.add, la, W.apply(wa, lb))), W.mul(wa, wb))

    def inv(self, a: int) -> int:
        got = self._inv.get(a)
        if got is None:
            la, wa = self._elts[a]
            W = self.datum.weyl
            wi = W.inv[wa]
            got = self.intern(tuple(-x for x in W.apply(wi, la)), wi)
            self._inv[a] = got
            self._inv[got] = a
        return got

    def conj(self, g: int, x: int) -> int:
        """
        g x g^{-1}, in closed form: for g = (lam, u) and x = (mu, v) it is
        (lam + u mu - c lam, c) with c = u v u^{-1}.
        """
        lam, u = self._elts[g]
        mu, v = self._elts[x]
        W = self.datum.weyl
        c = W.mul(W.mul(u, v), W.inv[u])
        return self.intern(tuple(a + b - e for a, b, e in
                                 zip(lam, W.apply(u, mu), W.apply(c, lam))), c)

    def conj_inv(self, g: int, x: int) -> int:
        """
        g^{-1} x g, in closed form through conj_inv_map of the finite part
        of g.  Interns no g^{-1}.
        """
        lam, u = self._elts[g]
        return self.conj_inv_map(u, x)(lam)

    def conj_inv_map(self, u: int, x: int):
        """
        g -> g^{-1} x g on the g with finite part u, as a function of the
        translation part lam of g = (lam, u): with x = (mu, v), g^{-1} x g =
        (u^{-1}(mu + v lam - lam), u^{-1} v u), whose translation part is the
        affine map lam -> A lam + c, A = u^{-1}(v - 1) and c = u^{-1} mu.
        Built once per (u, x), it costs one matrix product per g.  For a
        translation x (v = e) A is zero, and the map returns the one value
        (u^{-1} mu, e), interned once.
        """
        mu, v = self._elts[x]
        W = self.datum.weyl
        ui = W.inv[u]
        uiv = W.mul(ui, v)
        # A = u^{-1} v - u^{-1}, as rows
        rows = tuple(tuple(map(operator.sub, r, s)) for r, s in zip(W.mats[uiv], W.mats[ui]))
        c = W.apply(ui, mu)
        f = W.mul(uiv, u)
        if not any(map(any, rows)):
            value = self.intern(c, f)
            return lambda lam: value
        intern, mul = self.intern, operator.mul

        def at(lam):
            return intern(tuple(sum(map(mul, row, lam)) + ci for row, ci in zip(rows, c)), f)

        return at

    def is_central(self, x: int) -> bool:
        """
        Whether x is central in W~: finite part e and a translation part
        orthogonal to every root, so that g^{-1} x g = x for every g.
        """
        datum = self.datum
        lam = self.translation(x)
        return self.finite(x) == 0 and not any(datum.pairing(i, lam)
                                               for i in range(datum.nposroots))

    # -- alcove coordinates ----------------------------------------------------

    def k_alpha(self, root_idx: int, xid: int) -> int:
        """k(alpha, x.a), the reference formula of offsets."""
        lam, w = self._elts[xid]
        datum = self.datum
        W = datum.weyl
        npos = datum.nposroots
        img = W.root_act[W.inv[w]][root_idx if root_idx < npos else root_idx - npos]
        pos = img < npos
        if root_idx >= npos:
            pos = not pos
        return datum.pairing(root_idx, lam) + (1 if pos else 0)

    def offsets(self, xid: int) -> tuple[int, ...]:
        """
        k(alpha, x.a) - k(alpha, a) for every root alpha, indexed by root.

        The alcove coordinate of alpha at x.a, for x = (lambda, w), is

            k(alpha, x.a) = <alpha, lambda> + [w^{-1} alpha > 0],

        the unique integer k with k-1 < <alpha, p> < k for interior points p
        of x.a, and k(alpha, .) + k(-alpha, .) = 1.  At the base alcove
        k(alpha, a) = 1 for alpha > 0 and 0 for alpha < 0, so the entry of a
        positive alpha is <alpha, lambda> - [w^{-1} alpha < 0], and the entry
        of -alpha is minus that of alpha.  The entry of alpha is zero exactly
        when no wall {alpha = j} separates a from x.a.
        """
        lam, w = self._elts[xid]
        datum = self.datum
        npos = datum.nposroots
        back = datum.weyl.root_act[datum.weyl.inv[w]]
        pos = [sum(map(operator.mul, r, lam)) - (b >= npos)
               for r, b in zip(datum.roots[:npos], back)]
        return tuple(pos + [-o for o in pos])

    def length(self, xid: int) -> int:
        got = self._len.get(xid)
        if got is None:
            got = sum(map(abs, self.offsets(xid)[:self.datum.nposroots]))
            self._len[xid] = got
        return got

    def length_levi(self, xid: int, p: SemistdParabolic) -> int:
        """Length of x inside the affine Weyl group of the Levi of p."""
        npos = self.datum.nposroots
        off = self.offsets(xid)
        return sum(abs(off[i]) for i in p.r_m if i < npos)

    # -- reduced words -----------------------------------------------------------

    def reduced_word(self, xid: int) -> tuple[tuple[int, ...], int]:
        """(word, tau): x = s_{i_1} ... s_{i_r} tau with ell(tau) = 0."""
        got = self._word.get(xid)
        if got is None:
            got = self._word[xid] = self.peel_descents(xid, self.gens, self.length)
        return got

    def peel_descents(self, xid: int, gens, length) -> tuple[tuple[int, ...], int]:
        """
        (word, tau) with x = g_{i_1} ... g_{i_r} tau and length(tau) = 0, for
        the generators gens and a length function: each step takes off the
        first generator that shortens.  Also serves a Levi's Hecke algebra.
        """
        word = []
        cur = xid
        n = length(cur)
        while n > 0:
            for i, g in enumerate(gens):
                nxt = self.mul(g, cur)
                ln = length(nxt)
                if ln < n:
                    word.append(i)
                    cur, n = nxt, ln
                    break
            else:
                raise RuntimeError("no descent found")
        return tuple(word), cur

    def from_word(self, word, tau: int | None = None) -> int:
        out = self.identity
        for i in word:
            out = self.mul(out, self.gens[i])
        if tau is not None:
            out = self.mul(out, tau)
        return out

    def omega_class(self, xid: int):
        """eta_G(x): the connected component of x in the loop group."""
        return self.datum.lambda_g.normal_form(self.translation(xid))

    def eta_levi(self, xid: int, p: SemistdParabolic):
        """eta_M(x) for x in W~_M; rejects x outside W~_M."""
        if self.finite(xid) not in p.w_m:
            raise ValueError("element is not in the extended affine Weyl group of the Levi")
        return p.eta_m(self.translation(xid))

    # -- Omega (length-zero) subgroups -------------------------------------------

    def omega_of_levi(self, p: SemistdParabolic) -> dict:
        """
        The group Omega_M of length-zero elements of W~_M (length in the
        M-affine sense), as a map eta_M-value -> element id.  For infinite
        Lambda_M the map is filled lazily by ``omega_element``.
        """
        key = p.levi_key()
        got = self._omega.get(key)
        if got is None:
            got = {}
            self._omega[key] = got
        return got

    def omega_element(self, p: SemistdParabolic, cls) -> int:
        """
        The unique x in Omega_M with eta_M(x) = cls, a Lambda_M normal form.

        Found by descent from the translation by a lift of cls.  While x.a
        lies outside 0 < beta < 1 for some positive root beta of M, say
        k = k(beta, x.a) != 1, left-multiply x by the reflection in the wall
        {beta = j} with j = k - 1 if k > 1, else j = k.  That wall separates
        a from x.a, so the M-length drops; the reflection lies in the affine
        Weyl group of M, so eta_M is kept.  The descent ends at M-length 0.
        """
        table = self.omega_of_levi(p)
        got = table.get(cls)
        if got is not None:
            return got
        datum = self.datum
        pos_m = sorted(i for i in p.r_m if i < datum.nposroots)
        x = self.intern(p.lattice.lift(cls), 0)
        moved = True
        while moved:
            moved = False
            for i in pos_m:
                k = self.k_alpha(i, x)
                if k != 1:
                    j = k - 1 if k > 1 else k
                    refl = self.intern(tuple(j * v for v in datum.coroots[i]),
                                       self._reflection_index(i))
                    x = self.mul(refl, x)
                    moved = True
        if self.length_levi(x, p) != 0 or p.eta_m(self.translation(x)) != cls:
            raise RuntimeError(f"Omega_M descent failed for class {cls}")
        table[cls] = x
        return x

    def omega_g_elements(self):
        """All of Omega_G for finite Lambda_G, as {eta_G value: element id}."""
        p_full = standard_parabolic(self.datum, frozenset(self.datum.simple_idx))
        lam = self.datum.lambda_g
        if lam.order() is None:
            raise ValueError("Omega_G is infinite for this datum")
        return {cls: self.omega_element(p_full, cls) for cls in lam.elements()}

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, xid: int, yid: int) -> bool:
        """Subword criterion; elements in different components are incomparable."""
        if self.omega_class(xid) != self.omega_class(yid):
            return False
        key = (xid, yid)
        got = self._bruhat.get(key)
        if got is not None:
            return got
        lx, ly = self.length(xid), self.length(yid)
        if lx > ly:
            res = False
        elif xid == yid:
            res = True
        else:
            word, tau = self.reduced_word(yid)
            cur = self.mul(xid, self.inv(tau))
            for i in word:
                nxt = self.mul(self.gens[i], cur)
                if self.length(nxt) < self.length(cur):
                    cur = nxt
            res = cur == self.identity
        self._bruhat[key] = res
        return res

    # -- folding walls: the step table -----------------------------------------------

    def step_row(self, cid: int) -> tuple:
        """
        The step-table row of c: for each affine generator s_i, the entry
        (c * s_i, beta, j, upper).  The wall between c.a and (c s_i).a is
        {beta = j}, with beta the index of a positive root, and upper says
        whether c.a lies on its upper side {beta > j}.  Filled on first use.
        """
        row = self.steps.get(cid)
        if row is not None:
            return row
        row = tuple((self.mul(cid, g), *self._wall(cid, gen))
                    for gen, g in enumerate(self.gens))
        self.steps[cid] = row
        return row

    def _wall(self, cid: int, gen: int) -> tuple[int, int, bool]:
        """
        (beta, j, upper) for the step c -> c * s_gen: the wall {beta = j}
        between the two alcoves, beta the index of a positive root, and
        whether c.a lies on its upper side {beta > j}.
        """
        datum = self.datum
        npos = datum.nposroots
        lam, u = self._elts[cid]
        if gen == 0:
            base_root, j = datum.theta_idx, 1
        else:
            base_root, j = datum.simple_idx[gen - 1], 0
        beta = datum.weyl.root_act[u][base_root]
        if beta >= npos:
            beta -= npos
            j = -j
        j += datum.pairing(beta, lam)
        kc = self.k_alpha(beta, cid)
        if kc != j and kc != j + 1:
            raise RuntimeError("step must cross the computed wall")
        return beta, j, kc == j + 1

    def ascends(self, cid: int, gen: int) -> bool:
        """
        Whether ell(c * s_gen) = ell(c) + 1: the crossed wall {beta = j}
        does not separate c.a from a, which lies on its upper side exactly
        when j <= 0, since 0 < beta < 1 on a.
        """
        _beta, j, upper = self._wall(cid, gen)
        return upper == (j <= 0)

    def wall_data(self, cid: int, gen: int) -> tuple[int, int, bool]:
        """
        For the step c -> c * s_gen: the wall between the two alcoves as a pair
        (root index beta of a positive root, level j), plus whether c.a lies on
        the upper side {beta > j}.  A read of the step table.
        """
        return self.step_row(cid)[gen][1:]

    # -- text form -------------------------------------------------------------------

    def format(self, xid: int) -> str:
        lam, w = self._elts[xid]
        parts = []
        if any(lam):
            parts.append("t[" + ",".join(str(v) for v in lam) + "]")
        if w != 0:
            parts.extend("s%d" % (i + 1) for i in self.datum.weyl.words[w])
        if not parts:
            return "e"
        return "*".join(parts)

    def parse(self, text: str) -> int:
        datum = self.datum
        out = self.identity
        toks = [t for t in text.replace("*", " ").replace("·", " ").split() if t]
        for tok in toks:
            if tok == "e":
                continue
            if tok.startswith("t[") and tok.endswith("]"):
                lam = tuple(int(v) for v in tok[2:-1].split(","))
                if len(lam) != datum.d:
                    raise ValueError(f"translation needs {datum.d} coordinates")
                out = self.mul(out, self.intern(lam, 0))
            elif tok.startswith("o[") and tok.endswith("]"):
                cls = tuple(int(v) for v in tok[2:-1].split(","))
                lam_g = datum.lambda_g
                if len(cls) != lam_g.d or lam_g.normal_form(lam_g.lift(cls)) != cls:
                    raise ValueError(f"{tok} is not a Lambda_G normal form "
                                     f"with {lam_g.d} coordinates")
                p = standard_parabolic(datum, frozenset(datum.simple_idx))
                out = self.mul(out, self.omega_element(p, cls))
            elif tok.startswith("tau"):
                k = int(tok.split("^")[1]) if "^" in tok else 1
                lam_g = datum.lambda_g
                gen = lam_g.lift(self._cyclic_omega_generator())
                cls = lam_g.normal_form(tuple(k * v for v in gen))
                p = standard_parabolic(datum, frozenset(datum.simple_idx))
                out = self.mul(out, self.omega_element(p, cls))
            elif tok.startswith("s"):
                i = int(tok[1:])
                if not 0 <= i <= len(self.gens) - 1:
                    raise ValueError(f"bad generator {tok}")
                out = self.mul(out, self.gens[i])
            else:
                raise ValueError(f"cannot parse token {tok!r}")
        return out

    def _cyclic_omega_generator(self):
        lam = self.datum.lambda_g
        nz = [i for i, m in enumerate(lam.moduli) if m != 1]
        if len(nz) != 1:
            raise ValueError("tau shorthand needs cyclic Lambda_G")
        return tuple(1 if i == nz[0] else 0 for i in range(lam.d))


def affine_context(datum: RootDatum) -> AffineWeyl:
    """The interning context of the datum, built on first use and kept on it."""
    if datum._context is None:
        datum._context = AffineWeyl(datum)
    return datum._context
