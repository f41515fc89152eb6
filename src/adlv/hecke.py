"""
The affine Iwahori-Hecke algebra over Z[q], in the standard basis T_x.

Multiplication is the usual one: T_x T_y = T_{xy} when lengths add, and the
quadratic relation T_s^2 = (q-1) T_s + q T_e for the affine simple
reflections; length-zero elements act by permuting the basis, T_x T_tau =
T_{x tau}.

Polynomial representation.  Every coefficient arising from standard-basis
products is a nonnegative combination of powers of (q-1) -- each elementary
step multiplies by q = (q-1) + 1 or by (q-1).  Polynomials are therefore
packed into single Python ints, base 2**PBITS digits = coefficients in the
basis {(q-1)^i}: addition is integer addition, multiplication by (q-1) is a
shift, and deg_q equals the top digit index.  Digits stay far below 2**PBITS
for every product length this package can reach (coefficient sums grow by at
most a factor of 3 per letter).

Structure constants C(x, y, z) are defined by T_x T_y = sum_z C(x,y,z) T_z;
their q-degrees are the dimensions the folding engine computes by walking
galleries, which makes the two modules independent oracles for each other.
"""

from __future__ import annotations

from .affine import AffineWeyl

PBITS = 96

POLY_ONE = 1


def poly_qm1(v: int) -> int:
    """Multiply by (q-1)."""
    return v << PBITS


def poly_q(v: int) -> int:
    """Multiply by q = (q-1) + 1."""
    return (v << PBITS) + v


def poly_deg(v: int) -> int:
    """Degree in q (= degree in q-1); only for v != 0."""
    return (v.bit_length() - 1) // PBITS


class Hecke:
    """Hecke algebra bound to an affine Weyl context.

    Elements are dicts {element id: packed polynomial}.  A ``length`` override
    and generator list can be supplied to realize the Hecke algebra of a Levi
    subgroup on the same element set.
    """

    def __init__(self, ctx: AffineWeyl, gens=None, length=None):
        self.ctx = ctx
        self.gens = tuple(gens) if gens is not None else ctx.gens
        self._len = length if length is not None else ctx.length

    def unit(self, xid=None) -> dict:
        if xid is None:
            xid = self.ctx.identity
        return {xid: POLY_ONE}

    def mul_gen(self, h: dict, g: int, left: bool = False) -> dict:
        """h * T_s, or T_s * h when left, for a generator element s (of length 1)."""
        ctx = self.ctx
        ln = self._len
        out: dict[int, int] = {}
        for u, c in h.items():
            us = ctx.mul(g, u) if left else ctx.mul(u, g)
            if ln(us) > ln(u):
                out[us] = out.get(us, 0) + c
            else:
                out[u] = out.get(u, 0) + poly_qm1(c)
                out[us] = out.get(us, 0) + poly_q(c)
        return out

    def mul_omega(self, h: dict, tau: int) -> dict:
        if tau == self.ctx.identity:
            return dict(h)
        ctx = self.ctx
        return {ctx.mul(u, tau): c for u, c in h.items()}

    def mul_basis(self, h: dict, yid: int, word=None, tau=None) -> dict:
        """h * T_y, with y given directly or by a reduced word and omega part."""
        if word is None:
            word, tau = self.reduced(yid)
        out = h
        for i in word:
            out = self.mul_gen(out, self.gens[i])
        if tau is not None and tau != self.ctx.identity:
            out = self.mul_omega(out, tau)
        return out

    def reduced(self, yid: int):
        if self.gens == self.ctx.gens:
            return self.ctx.reduced_word(yid)
        return self.ctx.peel_descents(yid, self.gens, self._len)

    def mul(self, h1: dict, h2: dict) -> dict:
        out: dict[int, int] = {}
        for y, c in h2.items():
            word, tau = self.reduced(y)
            part = self.mul_basis({u: v * c for u, v in h1.items()} if c != POLY_ONE
                                  else dict(h1), y, word, tau)
            for u, v in part.items():
                out[u] = out.get(u, 0) + v
        return {u: v for u, v in out.items() if v}

    def t(self, xid: int) -> dict:
        return {xid: POLY_ONE}

    def structure_constant(self, xid: int, yid: int, zid: int) -> int:
        """C(x, y, z) as a packed polynomial (0 if absent)."""
        prod = self.mul_basis(self.t(xid), yid)
        return prod.get(zid, 0)

    def support(self, h: dict):
        return {u for u, c in h.items() if c}

    def coset_product_support(self, xids):
        """Support of T_{x_1} ... T_{x_r}: the double cosets in the product set."""
        out = self.unit()
        for x in xids:
            out = self.mul_basis(out, x)
        return self.support(out)
