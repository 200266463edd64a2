"""Independent reference implementations used to cross-check results.

Everything here is deliberately naive (plain loops, Fractions, direct
formulas) and shares no code with the package beyond numpy arrays, so a
bug in the fast paths cannot hide in its own oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def min_image_delta(a, b, lengths):
    """Shortest displacement b -> a on the torus, one axis at a time."""
    out = []
    for ai, bi, li in zip(a, b, lengths):
        d = ai - bi
        d -= round(d / li) * li
        out.append(d)
    return out


def periodic_dist(a, b, lengths) -> float:
    return math.sqrt(sum(d * d for d in min_image_delta(a, b, lengths)))


def count_in_window_brute(points, lengths, center, radius,
                          tol=1e-12) -> int:
    n = 0
    for p in points:
        if periodic_dist(p, center, lengths) <= radius + tol:
            n += 1
    return n


def variance_unbiased(values) -> float:
    vals = [float(v) for v in values]
    n = len(vals)
    mean = sum(vals) / n
    return sum((v - mean) ** 2 for v in vals) / (n - 1)


def orient2d_fraction(a, b, c) -> int:
    """Sign of the CCW determinant, computed in exact rationals."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def incircle_fraction(a, b, c, d) -> int:
    """Sign of the incircle determinant (positive: d strictly inside the
    circle through CCW a, b, c), in exact rationals."""
    rows = []
    dx, dy = Fraction(d[0]), Fraction(d[1])
    for p in (a, b, c):
        px, py = Fraction(p[0]) - dx, Fraction(p[1]) - dy
        rows.append((px, py, px * px + py * py))
    det = (
        rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
        - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
        + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
    )
    return (det > 0) - (det < 0)


def circumcircle_fraction(a, b, c):
    """Exact circumcenter and squared radius as Fractions."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    d = 2 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    ux = ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay)
          + (cx * cx + cy * cy) * (ay - by)) / d
    uy = ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx)
          + (cx * cx + cy * cy) * (bx - ax)) / d
    r2 = (ux - ax) ** 2 + (uy - ay) ** 2
    return (ux, uy), r2


def shoelace_area(poly) -> float:
    # exact rational evaluation, then one rounding at the end
    s = Fraction(0)
    m = len(poly)
    for i in range(m):
        x0, y0 = (Fraction(float(v)) for v in poly[i])
        x1, y1 = (Fraction(float(v)) for v in poly[(i + 1) % m])
        s += x0 * y1 - x1 * y0
    return float(s / 2)


def dark_fraction_window_brute(bits, lengths, center, radius,
                               tol=1e-12):
    """Dark fraction by looping over every pixel center; returns
    (dark, total) integer counts."""
    ny, nx = bits.shape
    h = lengths[0] / nx
    dark = total = 0
    r = radius + tol
    for i in range(ny):
        for j in range(nx):
            p = ((j + 0.5) * h, (i + 0.5) * h)
            if periodic_dist(p, center, lengths) <= r:
                total += 1
                dark += bool(bits[i, j])
    return dark, total


def pixels_near_segments_brute(segments, lengths, shape, halfwidth):
    """Reference rasterizer: for each pixel center, the exact minimum
    periodic distance to any segment, marked dark iff <= halfwidth.
    Segments are ((x0, y0), (x1, y1)) in unwrapped box coordinates."""
    ny, nx = shape
    h = lengths[0] / nx
    bits = np.zeros((ny, nx), dtype=bool)
    shifts = [(sx * lengths[0], sy * lengths[1])
              for sx in (-1, 0, 1) for sy in (-1, 0, 1)]
    for i in range(ny):
        for j in range(nx):
            px, py = (j + 0.5) * h, (i + 0.5) * h
            best = math.inf
            for (x0, y0), (x1, y1) in segments:
                for sx, sy in shifts:
                    qx, qy = px + sx, py + sy
                    dx, dy = x1 - x0, y1 - y0
                    seg2 = dx * dx + dy * dy
                    if seg2 == 0:
                        d2 = (qx - x0) ** 2 + (qy - y0) ** 2
                    else:
                        t = ((qx - x0) * dx + (qy - y0) * dy) / seg2
                        t = min(1.0, max(0.0, t))
                        d2 = (qx - x0 - t * dx) ** 2 + (qy - y0 - t * dy) ** 2
                    if d2 < best:
                        best = d2
            bits[i, j] = best <= halfwidth * halfwidth
    return bits


def voronoi_cell_faults(points, lengths, generator, polygon, neighbors,
                        rtol=1e-9):
    """Check one periodic Voronoi cell against every nearby periodic image.

    Each corner must be equidistant from the generator and from at least
    two other images, with no image nearer; the midpoint of each side must
    be equidistant from the generator and from some image of the neighbor
    that side names, again with no image nearer.  Returns the faults found
    as strings (empty for a correct cell).
    """
    lx, ly = lengths
    diag = math.hypot(lx, ly)
    tol = rtol * diag
    # a corner lies within diag/2 of its generator, so farther images of a
    # point in the box can never be nearer to it than the generator is
    kx = int(diag / lx) + 1
    ky = int(diag / ly) + 1
    images = []
    for j, (px, py) in enumerate(points):
        for ox in range(-kx, kx + 1):
            for oy in range(-ky, ky + 1):
                if j != generator or ox != 0 or oy != 0:
                    images.append((j, px + ox * lx, py + oy * ly))
    gx, gy = points[generator]
    faults = []
    m = len(polygon)
    for k in range(m):
        cx, cy = polygon[k]
        nx, ny = polygon[(k + 1) % m]
        for label, (qx, qy), want in (
                (f"corner {k}", (cx, cy), None),
                (f"side {k}", ((cx + nx) / 2, (cy + ny) / 2), neighbors[k])):
            d0 = math.hypot(qx - gx, qy - gy)
            ties = []
            for j, ix, iy in images:
                d = math.hypot(qx - ix, qy - iy)
                if d < d0 - tol:
                    faults.append(f"{label}: an image of point {j} is nearer")
                elif d <= d0 + tol:
                    ties.append(j)
            if want is None and len(ties) < 2:
                faults.append(f"{label}: equidistant from {len(ties)} images")
            if want is not None and want not in ties:
                faults.append(f"{label}: not on a bisector with point {want}")
    return faults


def rsa_reference(lengths, hard_radius, target, max_attempts, seed):
    """Random sequential addition one draw at a time, each candidate tested
    against every accepted center.

    Returns the (target, dim) array of centers, or ("unreachable", placed)
    once max_attempts consecutive candidates are rejected.
    """
    L = np.asarray(lengths, dtype=float)
    rng = np.random.default_rng(seed)
    min_dist = 2.0 * float(hard_radius)
    min_dist_sq = min_dist * min_dist
    accepted = np.empty((0, len(L)))
    rejections = 0
    while len(accepted) < target:
        if rejections >= max_attempts:
            return ("unreachable", len(accepted))
        cand = rng.random(len(L)) * L
        cand = cand - np.floor(cand / L) * L  # into [0, L)
        cand = np.where(cand >= L, 0.0, cand)
        if len(accepted):
            d = np.abs(accepted - cand)
            d = np.minimum(d, L - d)
            if np.min(np.einsum("ij,ij->i", d, d)) < min_dist_sq:
                rejections += 1
                continue
        accepted = np.vstack([accepted, cand])
        rejections = 0
    return accepted


def poisson_cdf(k: int, lam: float) -> float:
    """P(X <= k) for X ~ Poisson(lam), by direct summation."""
    term = math.exp(-lam)
    total = term
    for i in range(1, k + 1):
        term *= lam / i
        total += term
    return min(1.0, total)


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of the chi-square distribution via the
    regularized upper incomplete gamma function (series/continued
    fraction, Numerical Recipes style)."""
    a = df / 2.0
    z = x / 2.0
    if z < 0:
        return 1.0
    if z == 0:
        return 1.0
    lg = math.lgamma(a)
    if z < a + 1:
        # lower series
        term = 1.0 / a
        total = term
        n = a
        for _ in range(1000):
            n += 1
            term *= z / n
            total += term
            if abs(term) < abs(total) * 1e-15:
                break
        p = total * math.exp(-z + a * math.log(z) - lg)
        return max(0.0, 1.0 - p)
    # upper continued fraction (Lentz)
    tiny = 1e-300
    b = z + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, 1000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return f * math.exp(-z + a * math.log(z) - lg)


class PnmReferenceError(Exception):
    """A malformed PBM/PGM input: the message and its byte offset."""

    def __init__(self, message, offset):
        super().__init__(message)
        self.message = message
        self.offset = offset


class _PnmTokens:
    """Whitespace/comment-aware PNM scanner that tracks offsets."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def skip_space(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in b"#":
                while self.pos < n and data[self.pos] not in b"\n":
                    self.pos += 1
            elif c in b" \t\r\n\x0b\x0c":
                self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        self.skip_space()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos:self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise PnmReferenceError(f"expected {what}", start)
        return int(data[start:self.pos])


def pnm_reference(data: bytes, threshold=None) -> np.ndarray:
    """Dark bits of a P1/P2/P4/P5 image, read one byte at a time.

    PGM values <= threshold are dark, PBM 1-bits are dark; a P2 value
    above maxval is an error at the value's offset.  Raises
    PnmReferenceError with the message and offset a malformed input
    should give.  The threshold rules are not checked here.
    """
    if len(data) < 2 or data[:2] not in (b"P1", b"P2", b"P4", b"P5"):
        raise PnmReferenceError("not a PBM/PGM file (bad magic number)", 0)
    magic = data[:2]
    tok = _PnmTokens(data, 2)
    width = tok.next_int("width")
    height = tok.next_int("height")
    if width < 1 or height < 1:
        raise PnmReferenceError(f"bad dimensions {width}x{height}", tok.pos)
    n = len(data)
    count = width * height
    kind = "graymap" if magic in (b"P2", b"P5") else "bitmap"
    if kind == "graymap":
        maxval_at = tok.pos
        maxval = tok.next_int("maxval")
        if not 0 < maxval <= 255:
            raise PnmReferenceError(
                f"maxval {maxval} out of range (1-255)", maxval_at)
    if magic in (b"P4", b"P5"):
        if tok.pos >= n or data[tok.pos] not in b" \t\r\n":
            raise PnmReferenceError("missing separator before raster",
                                    tok.pos)
        row_bytes = (width + 7) // 8 if magic == b"P4" else width
        start = tok.pos + 1
        if n - start < row_bytes * height:
            raise PnmReferenceError(f"truncated {kind} payload", n)
        rows = [data[start + i * row_bytes:start + (i + 1) * row_bytes]
                for i in range(height)]
        if magic == b"P4":
            return np.array([[(row[j // 8] >> (7 - j % 8)) & 1 == 1
                              for j in range(width)] for row in rows])
        return np.array([[v <= threshold for v in row] for row in rows])
    vals = []
    for _ in range(count):
        tok.skip_space()
        if tok.pos >= n:
            raise PnmReferenceError(f"truncated {kind} payload", n)
        if magic == b"P1":
            c = data[tok.pos]
            if c not in b"01":
                raise PnmReferenceError(f"bad bitmap digit {chr(c)!r}",
                                        tok.pos)
            vals.append(c == ord("1"))
            tok.pos += 1
        else:
            at = tok.pos
            v = tok.next_int("pixel value")
            if v > maxval:
                raise PnmReferenceError(
                    f"pixel value above maxval {maxval}", at)
            vals.append(v <= threshold)
    return np.array(vals, dtype=bool).reshape(height, width)
