"""
Rank-2 alcove pictures: an SVG tiling of the apartment around the origin,
one polygon per alcove, colored by the computed status of X_x(b), with the
dimension printed inside non-empty alcoves.  The base alcove is black, empty
alcoves are white, and the first root hyperplanes (the walls bounding the
shrunken chambers) are drawn thick.  A TSV twin carries the same records in
textual form.

All alcove vertices are computed in exact rational coordinates; floats enter
only in the final scaling to SVG units.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .affine import AffineWeyl


def drawing_basis(datum):
    """
    A rational 2D basis of the apartment plane, plus its Gram matrix;
    ValueError when the apartment of the datum is no plane.
    """
    d = datum.d
    if datum.weyl.rank != 2:
        raise ValueError("rank-2 drawing only")
    if datum.central is not None:
        bas = []
        for i in range(2):
            v = [Fraction(0)] * d
            v[i] = Fraction(1)
            v[d - 1] -= 1
            bas.append(tuple(v))
    else:
        if d != 2:
            raise ValueError("rank-2 drawing only")
        bas = [(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))]
    gram = [[sum(datum.pairing(k, bas[i]) * datum.pairing(k, bas[i2])
                 for k in range(len(datum.roots)))
             for i2 in range(2)] for i in range(2)]
    return bas, gram


def plane_coords(datum, vec):
    """Coordinates of a cocharacter (rational vector) in the drawing basis."""
    if datum.central is not None:
        v = datum.coweight_nf_frac(vec)
        last = v[-1]
        return (v[0] - last, v[1] - last)
    return (Fraction(vec[0]), Fraction(vec[1]))


def embed(gram):
    """Cholesky factor of the Gram matrix: returns a 2x2 float matrix E with
    euclidean = E . coords."""
    g11, g12, g22 = float(gram[0][0]), float(gram[0][1]), float(gram[1][1])
    a = math.sqrt(g11)
    b = g12 / a
    c = math.sqrt(max(g22 - b * b, 1e-12))
    return ((a, b), (0.0, c))


def alcove_polygon(ctx: AffineWeyl, xid: int, verts):
    """
    Exact rational plane coordinates of the vertices of x.a, for verts the
    vertices of the base alcove (RootDatum.base_alcove_vertices).
    """
    datum = ctx.datum
    lam, w = ctx._elts[xid]
    out = []
    for v in verts:
        img = datum.weyl.apply(w, v)
        pt = tuple(a + b for a, b in zip(lam, img))
        out.append(plane_coords(datum, pt))
    return out


def _to_xy(E, c):
    """Pre-scale SVG coordinates of plane coordinates c (SVG y grows downward)."""
    x = E[0][0] * float(c[0]) + E[0][1] * float(c[1])
    y = E[1][0] * float(c[0]) + E[1][1] * float(c[1])
    return x, -y


def render_svg(ctx: AffineWeyl, records, size: int = 900) -> str:
    """
    records: list of (x, computed) pairs, an element id and its
    AdlvResult.to_json record.  Returns the SVG document as a string.
    """
    datum = ctx.datum
    bas, gram = drawing_basis(datum)
    E = embed(gram)
    verts = datum.base_alcove_vertices()

    polys = []
    xs, ys = [], []
    for x, rec in records:
        pts = [_to_xy(E, c) for c in alcove_polygon(ctx, x, verts)]
        polys.append((pts, x, rec))
        for px, py in pts:
            xs.append(px)
            ys.append(py)
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny) or 1.0
    scale = (size - 40) / span

    def place(p):
        return 20 + (p[0] - minx) * scale, 20 + (p[1] - miny) * scale

    def fmt(p):
        return "%.2f,%.2f" % place(p)

    out = ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">' % (size, size)]
    out.append('<rect width="100%" height="100%" fill="white"/>')
    labels = []
    for pts, x, rec in polys:
        if x == ctx.identity:
            fill = "black"
        elif rec["status"] == "nonempty":
            fill = "#bbbbbb"
        else:
            fill = "white"
        out.append('<polygon points="%s" fill="%s" stroke="#777777" stroke-width="0.6"/>'
                   % (" ".join(fmt(p) for p in pts), fill))
        if rec["status"] == "nonempty" and x != ctx.identity:
            cx = sum(p[0] for p in pts) / len(pts)
            cy = sum(p[1] for p in pts) / len(pts)
            labels.append((cx, cy, rec["dim"]))
    # thick lines: the hyperplanes {alpha = 0} and {alpha = 1} per positive root
    for i in range(datum.nposroots):
        for level in (0, 1):
            seg = _clip_hyperplane(datum, bas, i, level, minx, maxx, miny, maxy, E)
            if seg:
                (ax, ay), (bx, by) = place(seg[0]), place(seg[1])
                out.append('<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
                           'stroke="black" stroke-width="2.2"/>' % (ax, ay, bx, by))
    for cx, cy, dim in labels:
        out.append('<text x="%.2f" y="%.2f" font-size="%.1f" text-anchor="middle" '
                   'dominant-baseline="middle">%d</text>'
                   % (20 + (cx - minx) * scale, 20 + (cy - miny) * scale,
                      min(14.0, 26.0 / math.sqrt(len(polys)) * 8), dim))
    origin = _to_xy(E, (Fraction(0), Fraction(0)))
    out.append('<circle cx="%.2f" cy="%.2f" r="3.5" fill="black"/>'
               % (20 + (origin[0] - minx) * scale, 20 + (origin[1] - miny) * scale))
    out.append('</svg>')
    return "\n".join(out)


def _clip_hyperplane(datum, bas, root_idx, level, minx, maxx, miny, maxy, E):
    """Intersect {alpha = level} with the drawing window, in pre-scale xy."""
    # alpha(c1 * bas1 + c2 * bas2) = level: a line in (c1, c2)
    a1 = datum.pairing(root_idx, bas[0])
    a2 = datum.pairing(root_idx, bas[1])
    pts = []
    # param by c1 or c2; sample generously beyond the window and clip via bbox
    big = 40
    if a2 != 0:
        for c1 in (-big, big):
            c2 = (Fraction(level) - a1 * c1) / a2
            pts.append((c1, c2))
    elif a1 != 0:
        for c2 in (-big, big):
            c1 = (Fraction(level) - a2 * c2) / a1
            pts.append((c1, c2))
    else:
        return None
    (x1, y1), (x2, y2) = _to_xy(E, pts[0]), _to_xy(E, pts[1])
    # Liang-Barsky clip to the bbox
    dx, dy = x2 - x1, y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - minx), (dx, maxx - x1), (-dy, y1 - miny), (dy, maxy - y1)):
        if p == 0:
            if q < 0:
                return None
            continue
        r = q / p
        if p < 0:
            if r > t1:
                return None
            t0 = max(t0, r)
        else:
            if r < t0:
                return None
            t1 = min(t1, r)
    return ((x1 + t0 * dx, y1 + t0 * dy), (x1 + t1 * dx, y1 + t1 * dy))


def render_tsv(ctx: AffineWeyl, records) -> str:
    """records: (x, computed) pairs, as for render_svg."""
    from .alcoves import is_shrunken
    lines = ["alcove\tlength\tshrunken\tstatus\tdim"]
    for x, rec in records:
        lines.append("%s\t%d\t%d\t%s\t%s" % (
            ctx.format(x), ctx.length(x), int(is_shrunken(ctx, x)),
            rec["status"], "" if rec["dim"] is None else rec["dim"]))
    return "\n".join(lines) + "\n"
