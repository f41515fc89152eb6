import operator

import pytest

from adlv.affine import affine_context
from adlv.hecke import poly_deg
from adlv.roots import build_root_datum, closure


@pytest.fixture(scope="session")
def a2():
    return build_root_datum("A", 2, "SL")


@pytest.fixture(scope="session")
def a2_ctx(a2):
    return affine_context(a2)


@pytest.fixture(scope="session")
def c2():
    return build_root_datum("C", 2, "adjoint")


@pytest.fixture(scope="session")
def c2_ctx(c2):
    return affine_context(c2)


@pytest.fixture(scope="session")
def gl2():
    return build_root_datum("GL", 2)


@pytest.fixture(scope="session")
def gl2_ctx(gl2):
    return affine_context(gl2)


@pytest.fixture(scope="session")
def gl3():
    return build_root_datum("GL", 3)


@pytest.fixture(scope="session")
def gl3_ctx(gl3):
    return affine_context(gl3)


def affine_ball(ctx, max_len):
    """All elements of the affine Weyl group (no omega part) of length <= max_len."""
    ball = closure([ctx.identity], lambda u: [
        v for v in (ctx.mul(u, g) for g in ctx.gens) if ctx.length(v) <= max_len])
    return {v: ctx.length(v) for v in ball}


def ball_with_omega(ctx, max_len):
    """All extended elements of length <= max_len, sorted deterministically."""
    ball = affine_ball(ctx, max_len)
    try:
        om = list(ctx.omega_g_elements().values())
    except ValueError:
        om = [ctx.identity]
    xs = {ctx.mul(u, t) for u in ball for t in om}
    return sorted(xs, key=lambda z: (ctx.length(z), ctx.format(z)))


# the data of the P-alcove pass checks, in build_root_datum's argument form
P_ALCOVE_DATA = [("A", 2, "SL"), ("B", 2, "adjoint"), ("C", 2, "adjoint"),
                 ("G", 2, "adjoint"), ("A", 3, ""), ("GL", 3, "")]


def twisted_ball(ctx, max_len):
    """
    ball_with_omega, and for infinite Omega_G (GL_n) the ball twisted by the
    four tau^k with k in (-2, 0, 1, 3).
    """
    xs = ball_with_omega(ctx, max_len)
    if ctx.datum.lambda_g.order() is None:
        taus = [ctx.parse(f"tau^{k}") for k in (-2, 0, 1, 3)]
        xs = [ctx.mul(x, tau) for x in xs for tau in taus]
    return xs


def wall_from_k_alpha(ctx, c, cs):
    """
    The wall crossed by the step c -> cs between adjacent alcoves, from alcove
    coordinates alone: (positive root index beta, level j, c.a above it).
    """
    npos = ctx.datum.nposroots
    moved = [b for b in range(npos) if ctx.k_alpha(b, c) != ctx.k_alpha(b, cs)]
    assert len(moved) == 1, "adjacent alcoves are separated by one wall"
    beta = moved[0]
    kc, kcs = ctx.k_alpha(beta, c), ctx.k_alpha(beta, cs)
    assert abs(kc - kcs) == 1
    return beta, min(kc, kcs), kc > kcs


def structure_deg(H, x, y, z):
    """deg_q of the Hecke structure constant C(x, y, z), or None when it vanishes."""
    c = H.structure_constant(x, y, z)
    return poly_deg(c) if c else None


def pair_two_rho_n(p, vec):
    """<2 rho_N, vec> for P = MN."""
    return sum(map(operator.mul, p.two_rho_n, vec))
