import itertools
import random
from fractions import Fraction

import pytest

from adlv.roots import build_root_datum, semistandard_parabolics
from adlv.snf import LatticeQuotient, mat_inverse_unimodular, solve_frac

SUPPORTED = [("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3),
             ("C", 2), ("C", 3), ("D", 4), ("G", 2),
             ("GL", 2), ("GL", 3), ("GL", 4), ("GL", 5)]


def product_window(lat, spread):
    """The moduli -> ranges expansion that LatticeQuotient.window replaced."""
    ranges = []
    for m in lat.moduli:
        if m == 1:
            ranges.append([0])
        elif m == 0:
            ranges.append(range(-spread, spread + 1))
        else:
            ranges.append(range(m))
    return list(itertools.product(*ranges))


def gauss_jordan(rows, rhs, ncols):
    """The hand-written elimination the old _alpha_coords/_coroot_coords used."""
    a = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    rr, pivots = 0, []
    for col in range(ncols):
        piv = next((i for i in range(rr, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[rr], a[piv] = a[piv], a[rr]
        pv = a[rr][col]
        a[rr] = [x / pv for x in a[rr]]
        for i in range(len(a)):
            if i != rr and a[i][col] != 0:
                c = a[i][col]
                a[i] = [x - c * y for x, y in zip(a[i], a[rr])]
        pivots.append(col)
        rr += 1
    out = [Fraction(0)] * ncols
    for k, col in enumerate(pivots):
        out[col] = a[k][ncols]
    return out


def old_alpha_coords(r, simple_roots):
    # the square system on the first len(simple_roots) coordinates
    n = len(simple_roots)
    return gauss_jordan([[simple_roots[j][t] for j in range(n)] for t in range(n)],
                        r[:n], n)


def old_coroot_coords(datum, vec):
    r = len(datum.simple_idx)
    cols = [datum.coroots[ri] for ri in datum.simple_idx]
    coeffs = gauss_jordan([[cols[j][t] for j in range(r)] for t in range(datum.d)],
                          vec, r)
    chk = [sum(coeffs[j] * cols[j][t] for j in range(r)) for t in range(datum.d)]
    if datum.coweight_nf_frac(chk) != datum.coweight_nf_frac(vec):
        return None
    return coeffs


@pytest.mark.parametrize("spec", [("A", 2, "SL"), ("C", 2, "adjoint"), ("GL", 3, "")])
def test_window_matches_product_expansion(spec):
    d = build_root_datum(*spec)
    lattices = [d.lambda_g] + [p.lattice for p in semistandard_parabolics(d)]
    for lat in lattices:
        for spread in range(4):
            assert list(lat.window(spread)) == product_window(lat, spread)


def test_window_mixed_torsion_and_free():
    for lat in (LatticeQuotient(3, [[2, 0, 0], [0, 3, 0]]),
                LatticeQuotient(2, [[2, 0]]),
                LatticeQuotient(3, [[2, 4, 0], [0, 6, 0]])):
        assert any(m == 0 for m in lat.moduli)
        assert any(m > 1 for m in lat.moduli)
        for spread in range(3):
            assert list(lat.window(spread)) == product_window(lat, spread)
        with pytest.raises(ValueError):
            lat.elements()
    finite = LatticeQuotient(2, [[2, 0], [0, 6]])
    assert finite.elements() == product_window(finite, 0)
    assert len(finite.elements()) == finite.order() == 12


def test_solve_frac_rank_of_singular_matrix():
    rows = [[1, 2, 3], [2, 4, 6], [1, 0, 1]]
    x, rank = solve_frac(rows, [0, 0, 0], 3)
    assert rank == 2
    assert x == [0, 0, 0]
    assert solve_frac([[0, 0], [0, 0]], [0, 0], 2) == ([0, 0], 0)
    assert solve_frac([], [], 2) == ([0, 0], 0)


def test_solve_frac_underdetermined_free_coordinates_zero():
    # pivots in columns 0 and 2: column 1 is free and set to 0
    x, rank = solve_frac([[1, 1, 0], [0, 0, 2]], [2, 3], 3)
    assert rank == 2
    assert x == [2, 0, Fraction(3, 2)]
    x, rank = solve_frac([[0, 1, 1]], [5], 3)
    assert (x, rank) == ([0, 5, 0], 1)


def test_solve_frac_square_systems():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        x, rank = solve_frac(rows, rhs, n)
        assert x == gauss_jordan(rows, rhs, n)
        if rank == n:
            assert [sum(r[j] * x[j] for j in range(n)) for r in rows] == rhs


@pytest.mark.parametrize("spec", SUPPORTED)
def test_solve_frac_reproduces_old_coordinates(spec):
    d = build_root_datum(*spec)
    simple_roots = [d.roots[i] for i in d.simple_idx]
    for r in d.roots:
        assert d._alpha_coords(r, simple_roots) == old_alpha_coords(r, simple_roots)
    rng = random.Random(11)
    vecs = [tuple(c) for c in d.coroots]
    vecs += [tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(d.d))
             for _ in range(20)]
    vecs += [tuple(1 if t == 0 else 0 for t in range(d.d))]
    for v in vecs:
        assert d._coroot_coords(v) == old_coroot_coords(d, v)


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)] for i in range(n)]


def test_unimodular_inverse():
    V = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
    inv = mat_inverse_unimodular(V)
    assert mat_mul(V, inv) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(ArithmeticError):
        mat_inverse_unimodular([[2, 0], [0, 1]])
