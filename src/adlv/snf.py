"""
Integer linear algebra over Z: Smith normal form with transforms, and the
lattice-quotient bookkeeping built on top of it.

Everything here works on small dense integer matrices (rank <= 5 in this
package), represented as lists of lists of Python ints, so exactness is free.

The central object is ``LatticeQuotient``: given relation vectors r_1..r_k in
Z^d, it presents the abelian group Z^d / <r_1..r_k> with

  * a canonical normal form for cosets (additive, idempotent),
  * invariant factors (torsion + free rank),
  * a section lifting a normal form back to Z^d.

This is what realizes the algebraic fundamental groups Lambda_M = X_*(A)/Q_M^v
of Levi subgroups as concrete computable groups.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(mat):
    """
    Smith normal form with transforms.

    Returns (d, U, V) where U * mat * V = D, U and V unimodular, and
    d = [d_1, d_2, ...] are the nonzero diagonal entries of D with
    d_1 | d_2 | ... .  mat is a list of m rows, each of length n.

    >>> d, U, V = smith_normal_form([[2, 4], [6, 8]])
    >>> d
    [2, 4]
    """
    m = len(mat)
    n = len(mat[0]) if m else 0
    a = [row[:] for row in mat]
    U = identity_matrix(m)
    V = identity_matrix(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row_dst += c * row_src
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # find a pivot: nonzero entry of minimal absolute value in a[t:][t:]
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            # clear column t
            done = True
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    add_row(t, i, -q)
                    if a[i][t] != 0:
                        swap_rows(t, i)
                        done = False
            # clear row t
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(t, j, -q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                        done = False
            if done:
                break
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    # enforce divisibility d_i | d_{i+1}
    r = t
    changed = True
    while changed:
        changed = False
        for i in range(r - 1):
            if a[i + 1][i + 1] % a[i][i] != 0:
                # standard trick: fold entry i+1 into row/col i and re-reduce
                add_col(i + 1, i, 1)
                while True:
                    q = a[i + 1][i] // a[i][i]
                    add_row(i, i + 1, -q)
                    if a[i + 1][i] == 0:
                        break
                    swap_rows(i, i + 1)
                q = a[i][i + 1] // a[i][i] if a[i][i] != 0 else 0
                if a[i][i + 1] != 0:
                    add_col(i, i + 1, -q)
                changed = True
    for i in range(r):
        if a[i][i] < 0:
            negate_row(i)
    d = [a[i][i] for i in range(r)]
    return d, U, V


def solve_frac(rows, rhs, ncols):
    """
    Exact Gauss-Jordan elimination of rows * x = rhs over Q, with ncols
    unknowns.  Returns (x, rank): x has its free coordinates set to 0 and
    solves the system whenever it is consistent (callers that may pass an
    inconsistent system verify x).

    >>> solve_frac([[1, 1], [2, 2]], [3, 6], 2)
    ([Fraction(3, 1), Fraction(0, 1)], 1)
    """
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [v / pv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                c = a[i][col]
                a[i] = [v - c * w for v, w in zip(a[i], a[r])]
        pivots.append(col)
    x = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        x[col] = a[k][ncols]
    return x, len(pivots)


def mat_inverse_unimodular(V):
    """Inverse of a unimodular integer matrix, again integral."""
    n = len(V)
    cols = [solve_frac(V, identity_matrix(n)[j], n)[0] for j in range(n)]
    if any(v.denominator != 1 for col in cols for v in col):
        raise ArithmeticError("matrix was not unimodular")
    return [[int(cols[j][i]) for j in range(n)] for i in range(n)]


def integer_kernel(mat):
    """
    Basis of {x in Z^m : x * mat = 0} for an m x n integer matrix,
    as a list of length-m integer vectors.
    """
    d, U, V = smith_normal_form(mat)
    r = len(d)
    return [U[i][:] for i in range(r, len(mat))]


class LatticeQuotient:
    """
    The abelian group Z^d / L where L is spanned by given relation rows.

    Normal forms are tuples of length d: coordinates in the SNF basis, reduced
    mod the invariant factors (0 meaning a free coordinate).
    """

    def __init__(self, d: int, relations):
        self.d = d
        rels = [list(r) for r in relations]
        if not rels:
            rels = [[0] * d]
        self.divisors, _U, self.V = smith_normal_form(rels)
        self.Vinv = mat_inverse_unimodular(self.V)
        # moduli per SNF coordinate; 0 = free
        self.moduli = list(self.divisors) + [0] * (d - len(self.divisors))
        self.invariants = tuple(m for m in self.moduli if m != 1)

    def normal_form(self, vec) -> tuple[int, ...]:
        y = [sum(vec[i] * self.V[i][j] for i in range(self.d)) for j in range(self.d)]
        return tuple(yj % m if m else yj for yj, m in zip(y, self.moduli))

    def lift(self, nf) -> tuple[int, ...]:
        """A vector in Z^d mapping to the given normal form."""
        return tuple(sum(nf[i] * self.Vinv[i][j] for i in range(self.d)) for j in range(self.d))

    def add(self, a, b):
        return tuple((x + y) % m if m else x + y for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m if m else -x for x, m in zip(a, self.moduli))

    def zero(self):
        return tuple(0 for _ in range(self.d))

    def window(self, spread: int):
        """
        Normal forms with every free coordinate in [-spread, spread] and every
        torsion coordinate in [0, m), in itertools.product order.  window(0)
        is exactly the torsion subgroup.
        """
        ranges = [range(-spread, spread + 1) if m == 0 else range(m)
                  for m in self.moduli]
        return itertools.product(*ranges)

    def elements(self):
        """All elements; only valid when the group is finite."""
        if self.order() is None:
            raise ValueError("infinite group")
        return list(self.window(0))

    def order(self):
        n = 1
        for m in self.moduli:
            if m == 0:
                return None
            n *= m
        return n


def solve_integer(mat, target):
    """
    One integer solution x of x * mat = target, or None.

    mat: k x n matrix (rows r_i), target: length-n vector; finds integer
    coefficients c with sum c_i r_i = target.
    """
    d, U, V = smith_normal_form(mat)
    k = len(mat)
    n = len(mat[0]) if mat else 0
    y = [sum(target[i] * V[i][j] for i in range(n)) for j in range(n)]
    c_prime = [0] * k
    for i in range(len(d)):
        if y[i] % d[i] != 0:
            return None
        c_prime[i] = y[i] // d[i]
    for i in range(len(d), n):
        if y[i] != 0:
            return None
    # x = c' * U
    return tuple(sum(c_prime[i] * U[i][j] for i in range(k)) for j in range(k))
