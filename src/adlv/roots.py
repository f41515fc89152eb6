"""
Root data for split reductive groups, with exact integer arithmetic.

A ``RootDatum`` fixes once and for all:

  * a coordinate lattice Z^d carrying the cocharacters X_*(A), possibly
    modulo a central vector (type A adjoint lattices are realized as
    Z^n / Z(1,..,1), so cocharacters keep their familiar n-tuple form);
  * the roots as integer covectors and the coroots as integer vectors,
    enumerated in a fixed order;
  * the finite Weyl group W as integer matrices, fully indexed, with
    precomputed action tables on roots and generators;
  * the quotients Lambda_M = X_*(A) / (coroot lattice of M) for Levi
    subgroups M, via Smith normal form.

Supported Cartan types: A1-A4, B2, B3, C2, C3, D4, G2, and GL_n (n <= 5).

Lattice variants.  ``GL`` is the full lattice Z^n.  For the other types the
variant labels ``SL``, ``sc``, ``simply-connected``, ``adjoint`` and ``PGL``
all select the *adjoint* coweight lattice, which carries the full group Omega
of length-zero elements (for type A this is Z^n mod the diagonal, so e.g. the
A2 datum has fundamental group Z/3).  The bare coroot lattice, with trivial
fundamental group, is available as variant ``coroot``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

from .snf import LatticeQuotient, solve_frac

WEYL_ORDERS = {"A": lambda n: _fact(n + 1), "B": lambda n: 2 ** n * _fact(n),
               "C": lambda n: 2 ** n * _fact(n), "D": lambda n: 2 ** (n - 1) * _fact(n),
               "G": lambda n: 12}


def _fact(n):
    r = 1
    for i in range(2, n + 1):
        r *= i
    return r


def cartan_matrix(ctype: str, rank: int):
    """Cartan matrix a[i][j] = <alpha_i, alpha_j^vee> (Bourbaki numbering)."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        a[i][i + 1] = a[i + 1][i] = -1
    if ctype == "B" and rank >= 2:
        a[rank - 2][rank - 1] = -2
    elif ctype == "C" and rank >= 2:
        a[rank - 1][rank - 2] = -2
    elif ctype == "D":
        if rank < 3:
            raise ValueError("D needs rank >= 3")
        a[rank - 2][rank - 1] = a[rank - 1][rank - 2] = 0
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
        a[rank - 2][rank - 3] = a[rank - 3][rank - 2] = -1
    elif ctype == "G":
        if rank != 2:
            raise ValueError("G2 only")
        a = [[2, -1], [-3, 2]]
    elif ctype != "A":
        raise ValueError(f"unsupported type {ctype}")
    return a


def closure(seeds, step) -> list:
    """
    Everything reachable from the seeds under step, in breadth-first order.

    The list starts with the seeds, duplicates dropped, and then holds each
    new element in the order step first yields it, with the elements taken
    in list order.  That order is a guarantee, not an accident: element ids
    (the index of a Weyl element, and so W.words) and every sweep built on
    a closure depend on it.  step(x) returns an iterable of elements.
    """
    out = list(dict.fromkeys(seeds))
    seen = set(out)
    for x in out:
        for y in step(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def _reflect(vec, form, image):
    """vec - <form, vec> image: a reflection, on coweights or on roots."""
    c = sum(map(operator.mul, form, vec))
    return tuple(x - c * y for x, y in zip(vec, image))


def _compose(a, b):
    """The permutation a o b, as a tuple of images."""
    return tuple(map(a.__getitem__, b))


class WeylGroup:
    """Finite Weyl group, fully enumerated and indexed.

    An element is its permutation of the coroot indices, ``root_act[w]``
    (the same as its permutation of the root indices), and the elements are
    numbered in breadth-first order from the simple reflections.  Tables:

      * ``root_act[w][r]``: index of w(beta_r) among the roots
      * ``mats[w]``: integer matrix of w on coweight column vectors
      * ``words[w]``: a reduced word (simple indices 0..r-1)
      * ``lmul[i][w]`` / ``rmul[w][i]``: products s_i * w and w * s_i
      * ``inv[w]``, ``length[w]``
    """

    def __init__(self, roots, coroots, simple_idx):
        self.d = d = len(coroots[0])
        self.simple_idx = simple_idx
        self.rank = len(simple_idx)
        self._roots = roots
        self._coroots = coroots
        self._coroot_index = {c: i for i, c in enumerate(coroots)}
        gens = [self.reflection_perm(i) for i in simple_idx]
        self.root_act = closure([tuple(range(len(coroots)))],
                                lambda p: [_compose(g, p) for g in gens])
        self.n = len(self.root_act)
        self.index = {p: w for w, p in enumerate(self.root_act)}
        self.lmul = [[self.index[_compose(g, p)] for p in self.root_act] for g in gens]
        self.rmul = [[self.index[_compose(p, g)] for g in gens] for p in self.root_act]
        self.inv = [self.index[tuple(sorted(range(len(p)), key=p.__getitem__))]
                    for p in self.root_act]
        # the word and matrix of each element, from its breadth-first parent
        self.words = {0: ()}
        self.mats = [None] * self.n
        self.mats[0] = tuple(tuple(int(a == b) for b in range(d)) for a in range(d))
        for w in range(self.n):
            for i, ri in enumerate(simple_idx):
                v = self.lmul[i][w]
                if v not in self.words:
                    self.words[v] = (i,) + self.words[w]
                    cols = [_reflect(col, roots[ri], coroots[ri]) for col in zip(*self.mats[w])]
                    self.mats[v] = tuple(zip(*cols))
        npos = len(roots) // 2
        self.length = [sum(1 for i in range(npos) if self.root_act[w][i] >= npos)
                       for w in range(self.n)]
        self._mul_cache: dict[tuple[int, int], int] = {}
        self.w0 = max(range(self.n), key=lambda w: self.length[w])

    def reflection_perm(self, root_idx: int) -> tuple:
        """The permutation of the coroot indices made by the reflection in a root."""
        al, av = self._roots[root_idx], self._coroots[root_idx]
        return tuple(self._coroot_index[_reflect(c, al, av)] for c in self._coroots)

    def apply(self, w: int, vec):
        mul = operator.mul
        return tuple(sum(map(mul, row, vec)) for row in self.mats[w])

    def mul(self, a: int, b: int) -> int:
        key = (a, b)
        got = self._mul_cache.get(key)
        if got is None:
            got = self._mul_cache[key] = self.index[_compose(self.root_act[a],
                                                             self.root_act[b])]
        return got

    def order_of(self, w: int) -> int:
        n, v = 1, w
        while v != 0:
            v = self.mul(v, w)
            n += 1
        return n

    def elements(self):
        return range(self.n)


SUPPORTED = {("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 4), ("G", 2),
             ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)}


@dataclass(frozen=True)
class DatumSpec:
    ctype: str
    rank: int
    variant: str


class RootDatum:
    """Immutable root datum; see module docstring for the conventions."""

    def __init__(self, ctype: str, rank: int, variant: str):
        ctype = ctype.upper()
        variant = _canonical_variant(ctype, variant)
        # checked before any construction, whose cost grows fast with the rank
        if (ctype, rank) not in SUPPORTED:
            raise ValueError(f"unsupported type/rank {ctype}{rank}")
        self.spec = DatumSpec(ctype, rank, variant)
        # lazily filled memo tables (see reflection_index, levi_average,
        # semistandard_parabolics and affine.affine_context)
        self._refl_cache: dict[int, int] = {}
        self._levi_averages: dict[frozenset, tuple] = {}
        self._parabolics: tuple | None = None
        self._context = None
        if ctype == "GL":
            self._build_type_a(rank, gl=True)
        elif ctype == "A":
            self._build_type_a(rank + 1, gl=False)
        else:
            self._build_from_cartan(ctype, rank, variant)
        self.nposroots = len(self.roots) // 2
        self.weyl = WeylGroup(self.roots, self.coroots, self.simple_idx)
        expected = WEYL_ORDERS[("A" if ctype == "GL" else ctype)](
            rank - 1 if ctype == "GL" else rank)
        if self.weyl.n != expected:
            raise RuntimeError(f"{self.spec}: Weyl group of order {self.weyl.n}, "
                               f"expected {expected}")
        self.two_rho = tuple(sum(self.roots[i][j] for i in range(self.nposroots))
                             for j in range(self.d))
        self._lambda_cache: dict[frozenset, LatticeQuotient] = {}
        self.lambda_g = self.levi_lattice_quotient(frozenset(range(len(self.roots))))
        # coordinates of the positive roots in the basis of simple roots
        simple_roots = [self.roots[i] for i in self.simple_idx]
        self.pos_root_coords = [self._alpha_coords(self.roots[i], simple_roots)
                                for i in range(self.nposroots)]
        self.theta_idx = max(range(self.nposroots),
                             key=lambda i: sum(self.pos_root_coords[i]))
        self._sanity_checks()

    # -- construction -------------------------------------------------------

    def _build_type_a(self, n, gl):
        self.d = n
        roots = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    v = [0] * n
                    v[i], v[j] = 1, -1
                    roots.append(tuple(v))
        pos = [r for r in roots if r.index(1) < r.index(-1)]
        neg = [tuple(-x for x in r) for r in pos]
        self.roots = pos + neg
        self.coroots = list(self.roots)  # self-dual in these coordinates
        self.simple_idx = [self.roots.index(tuple([0] * i + [1, -1] + [0] * (n - i - 2)))
                           for i in range(n - 1)]
        if gl:
            self.central = None
        else:
            self.central = tuple([1] * n)

    def _build_from_cartan(self, ctype, rank, variant):
        a = cartan_matrix(ctype, rank)
        self.d = rank
        if variant == "coroot":
            # basis = simple coroots: coroot_j = e_j, root_i = row i of Cartan
            simple_roots = [tuple(a[i]) for i in range(rank)]
            simple_coroots = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
        else:
            # adjoint: basis = fundamental coweights: root_i = e_i,
            # coroot_j = column j of Cartan
            simple_roots = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
            simple_coroots = [tuple(a[i][j] for i in range(rank)) for j in range(rank)]
        self.central = None
        # (root, coroot) pairs, closed under the simple reflections
        simple = list(zip(simple_roots, simple_coroots))
        pairs = closure(simple, lambda rc: [(_reflect(rc[0], av, al), _reflect(rc[1], al, av))
                                            for al, av in simple])
        pos = sorted((r, c) for r, c in pairs
                     if all(x >= 0 for x in self._alpha_coords(r, simple_roots)))
        self.roots = [r for r, _ in pos] + [tuple(-x for x in r) for r, _ in pos]
        self.coroots = [c for _, c in pos] + [tuple(-x for x in c) for _, c in pos]
        self.simple_idx = [self.roots.index(tuple(s)) for s in simple_roots]

    @staticmethod
    def _alpha_coords(r, simple_roots):
        # r = sum c_i alpha_i over Q (the simple roots are independent)
        n = len(simple_roots)
        rows = [[simple_roots[j][t] for j in range(n)] for t in range(len(r))]
        return solve_frac(rows, r, n)[0]

    def _sanity_checks(self):
        counts = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n,
                  "C": lambda n: 2 * n * n, "D": lambda n: 2 * n * (n - 1),
                  "G": lambda n: 12}
        ct = "A" if self.spec.ctype == "GL" else self.spec.ctype
        rk = self.spec.rank - 1 if self.spec.ctype == "GL" else self.spec.rank
        if len(self.roots) != counts[ct](rk):
            raise RuntimeError(f"{self.spec}: {len(self.roots)} roots, "
                               f"expected {counts[ct](rk)}")
        for i, c in enumerate(self.coroots):
            if self.pairing(i, c) != 2:
                raise RuntimeError("pairing <alpha, alpha^vee> must be 2")
        # 2rho pairs evenly with coroots (rho integral on coroots)
        for c in self.coroots:
            if sum(self.two_rho[j] * c[j] for j in range(self.d)) % 2:
                raise RuntimeError("<2rho, alpha^vee> must be even")
        # a generic interior point of the base alcove: its barycenter
        verts = self.base_alcove_vertices()
        p = [sum(col) / len(verts) for col in zip(*verts)]
        for i in range(len(self.roots)):
            v = self.pairing(i, p)
            if v.denominator == 1:
                raise RuntimeError("base point must be generic")
            if i < self.nposroots and not 0 < v < 1:
                raise RuntimeError("base point must lie in the base alcove")

    # -- basic operations ----------------------------------------------------

    def coweight_nf(self, vec):
        """Canonical representative of a cocharacter (mod the central line)."""
        if self.central is None:
            return tuple(vec)
        s = sum(vec)
        n = self.d
        k = s // n
        return tuple(x - k for x in vec)

    def coweight_nf_frac(self, vec):
        if self.central is None:
            return tuple(Fraction(x) for x in vec)
        s = sum(Fraction(x) for x in vec)
        n = self.d
        return tuple(Fraction(x) - s / n for x in vec)

    def pairing(self, root_idx: int, vec):
        """<root, vec>, exact on integer and Fraction vectors alike."""
        return sum(map(operator.mul, self.roots[root_idx], vec))

    def base_alcove_vertices(self):
        """
        The vertices of the base alcove, as exact fractions: the origin and
        omega_i / c_i, with omega_i the fundamental coweights
        (<alpha_j, omega_i> = delta_ij) and c_i the coefficients of the
        highest root theta.
        """
        r = len(self.simple_idx)
        rows = [self.roots[i] for i in self.simple_idx]
        theta_coeffs = self.pos_root_coords[self.theta_idx]
        verts = [tuple(Fraction(0) for _ in range(self.d))]
        for i in range(r):
            fw = solve_frac(rows, [1 if j == i else 0 for j in range(r)], self.d)[0]
            verts.append(tuple(c / theta_coeffs[i] for c in fw))
        return verts

    # -- lattices ------------------------------------------------------------

    def levi_lattice_quotient(self, levi_root_idxs: frozenset) -> LatticeQuotient:
        """Lambda_M = X_*(A) / (Z-span of the coroots of M + central line)."""
        key = frozenset(levi_root_idxs)
        got = self._lambda_cache.get(key)
        if got is None:
            rels = [list(self.coroots[i]) for i in sorted(key)]
            if self.central is not None:
                rels.append(list(self.central))
            if not rels:
                rels = [[0] * self.d]
            got = LatticeQuotient(self.d, rels)
            self._lambda_cache[key] = got
        return got

    def dominant(self, vec):
        """The dominant representative of a rational coweight, canonical form."""
        v = list(self.coweight_nf_frac(vec))
        moved = True
        while moved:
            moved = False
            for i, ri in enumerate(self.simple_idx):
                c = self.pairing(ri, v)
                if c < 0:
                    cr = self.coroots[ri]
                    v = [x - c * cr[j] for j, x in enumerate(v)]
                    moved = True
        return self.coweight_nf_frac(v)

    def is_dominant(self, vec) -> bool:
        return all(self.pairing(ri, vec) >= 0 for ri in self.simple_idx)

    def in_positive_coroot_cone(self, vec) -> bool:
        """Is vec a nonnegative rational combination of the simple coroots?"""
        if self.central is not None:
            vec = self.coweight_nf_frac(vec)
        coeffs = self._coroot_coords(vec)
        if coeffs is None:
            return False
        return all(c >= 0 for c in coeffs)

    def _coroot_coords(self, vec):
        """Coordinates of vec in the simple-coroot basis (None if outside span)."""
        r = len(self.simple_idx)
        cols = [self.coroots[ri] for ri in self.simple_idx]
        rows = [[cols[j][t] for j in range(r)] for t in range(self.d)]
        coeffs = solve_frac(rows, vec, r)[0]
        # verify (handles the central quotient: compare normal forms)
        chk = [sum(coeffs[j] * cols[j][t] for j in range(r)) for t in range(self.d)]
        if self.coweight_nf_frac(chk) != self.coweight_nf_frac(vec):
            return None
        return coeffs

    def reflection_index(self, root_idx: int) -> int:
        """Index in W of the reflection in the given root."""
        got = self._refl_cache.get(root_idx)
        if got is None:
            W = self.weyl
            got = self._refl_cache[root_idx] = W.index[W.reflection_perm(root_idx)]
        return got

    def reflection_subgroup(self, root_idxs) -> frozenset:
        """The subgroup of W generated by the reflections in the given roots."""
        gens = [self.reflection_index(i) for i in root_idxs]
        return frozenset(closure([0], lambda w: [self.weyl.mul(g, w) for g in gens]))

    def levi_average(self, root_idxs) -> tuple:
        """
        (|W_M|, A) for the Levi M with the given root set: A is the integer
        matrix sum_{w in W_M} w, so A lam = |W_M| times the W_M-average of
        lam.  Memoized by root set.
        """
        key = frozenset(root_idxs)
        got = self._levi_averages.get(key)
        if got is None:
            mats = [self.weyl.mats[w] for w in self.reflection_subgroup(key)]
            total = tuple(tuple(sum(m[a][b] for m in mats) for b in range(self.d))
                          for a in range(self.d))
            got = self._levi_averages[key] = (len(mats), total)
        return got

    def json_descriptor(self) -> dict:
        return {"type": self.spec.ctype, "rank": self.spec.rank,
                "variant": self.spec.variant}


def _canonical_variant(ctype, variant):
    v = (variant or "").replace("_", "-").lower()
    if ctype == "GL":
        if v in ("", "gl"):
            return "GL"
        raise ValueError("GL_n supports only the GL variant")
    if v in ("", "sl", "sc", "simply-connected", "adjoint", "pgl", "ad"):
        return "adjoint"
    if v in ("coroot", "qv"):
        return "coroot"
    raise ValueError(f"unknown lattice variant {variant!r}")


_datum_cache: dict[DatumSpec, RootDatum] = {}


def build_root_datum(ctype: str, rank: int, variant: str = "") -> RootDatum:
    """Build (and cache) the root datum for a supported type/rank/variant."""
    ct = ctype.upper()
    spec = DatumSpec(ct, rank, _canonical_variant(ct, variant))
    got = _datum_cache.get(spec)
    if got is None:
        got = RootDatum(ct, rank, variant)
        _datum_cache[spec] = got
    return got


class SemistdParabolic:
    """
    A semistandard parabolic P = MN, encoded by (conjugator u, subset J of the
    simple roots): P = u P_J u^{-1} with P_J standard.  u is normalized to the
    minimal-length representative of its coset u W_J.

    Carries the root sets R_M, R_N, the Weyl subgroup W_M, the half sum of
    R_N, and the lattice quotient Lambda_M.
    """

    def __init__(self, datum: RootDatum, u: int, levi_simple: frozenset):
        self.datum = datum
        W = datum.weyl
        self.levi_simple = frozenset(levi_simple)
        # normalize u to minimal length in u W_J
        u0 = u
        moved = True
        while moved:
            moved = False
            for i_pos, ri in enumerate(datum.simple_idx):
                if ri in self.levi_simple:
                    cand = W.rmul[u0][i_pos]
                    if W.length[cand] < W.length[u0]:
                        u0 = cand
                        moved = True
        self.u = u0
        npos = datum.nposroots
        std_m_roots = set()
        for i in range(len(datum.roots)):
            base = i if i < npos else i - npos
            # roots of the standard Levi M_J: support inside J
            if all(c == 0 or ri in self.levi_simple
                   for c, ri in zip(datum.pos_root_coords[base], datum.simple_idx)):
                std_m_roots.add(i)
        act = W.root_act[self.u]
        self.r_m = frozenset(act[i] for i in std_m_roots)
        self.w_m = datum.reflection_subgroup(self.r_m)
        std_n = [i for i in range(npos) if i not in std_m_roots]
        self.r_n = frozenset(act[i] for i in std_n)
        self.r_nbar = frozenset(j + npos if j < npos else j - npos for j in self.r_n)
        self.two_rho_n = tuple(sum(datum.roots[i][t] for i in self.r_n)
                               for t in range(datum.d))
        self.lattice = datum.levi_lattice_quotient(self.r_m)

    @property
    def is_full(self):
        return len(self.levi_simple) == len(self.datum.simple_idx)

    def eta_m(self, vec):
        return self.lattice.normal_form(vec)

    def key(self):
        return (self.u, tuple(sorted(self.levi_simple)))

    def levi_key(self):
        return self.r_m

    def __repr__(self):
        return f"Parabolic(u=w{self.u}, J={sorted(self.levi_simple)})"


def semistandard_parabolics(datum: RootDatum) -> tuple:
    """
    All semistandard parabolics, one per (min-coset rep, J) pair.  Built on
    the first call and kept on the datum as an immutable tuple.
    """
    if datum._parabolics is None:
        datum._parabolics = _build_parabolics(datum)
    return datum._parabolics


def simple_subsets(datum: RootDatum) -> list:
    """Every subset J of the simple roots, as a frozenset of root indices."""
    subsets = [frozenset()]
    for ri in datum.simple_idx:
        subsets += [s | {ri} for s in subsets]
    return subsets


def _build_parabolics(datum: RootDatum) -> tuple:
    # u runs over the minimal representatives of W / W_J: u(alpha_j) > 0
    # for every j in J
    W = datum.weyl
    npos = datum.nposroots
    out = [SemistdParabolic(datum, u, J) for J in simple_subsets(datum)
           for u in W.elements() if all(W.root_act[u][ri] < npos for ri in J)]
    out.sort(key=lambda p: (-len(p.levi_simple), p.u, tuple(sorted(p.levi_simple))))
    return tuple(out)


def semistandard_levis(datum: RootDatum):
    """Distinct semistandard Levis, as {R_M root-index set: [parabolics]}."""
    levis: dict[frozenset, list] = {}
    for p in semistandard_parabolics(datum):
        levis.setdefault(p.levi_key(), []).append(p)
    return levis


def standard_parabolic(datum: RootDatum, levi_simple) -> SemistdParabolic:
    return SemistdParabolic(datum, 0, frozenset(levi_simple))
