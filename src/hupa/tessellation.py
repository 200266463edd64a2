"""Periodic Delaunay triangulations and Voronoi tessellations in 2D.

Vertices live on a flat torus, so a triangle is stored as three (point
index, integer offset) pairs: the offset says which periodic image of the
point the corner uses.  Construction tiles the pattern 3x3, takes the
lower convex hull of the paraboloid-lifted tiling (with a small per-point
height so ties are broken the same way in every tile), folds the result
back to the torus, and then repairs it with an edge-flip pass driven by
exact predicates.  The flip pass is the authority: whatever the hull
stage produced, flipping runs until every edge passes the exact
(symbolically perturbed) circumcircle test, which pins down a unique
triangulation for any input without coincident points.

The Voronoi tessellation is read off as the dual for three or more
generators; one- and two-point patterns are handled by direct half-plane
clipping against periodic images.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.spatial import ConvexHull

from .errors import (DegenerateInputError, PatternFormatError,
                     TessellationError)
from .pattern import BoxDomain, PointPattern, wrap_point
from .predicates import circumcenter, incircle_perturbed, orient2d

# Offsets and vertices: a vertex is (base point index, (ox, oy)), placing
# the point at its position plus (ox*Lx, oy*Ly).
Offset = tuple
Vertex = tuple

MERGE_TOL_FACTOR = 1e-10
AREA_RTOL = 1e-9
CIRCUMCIRCLE_RTOL = 1e-9

_LIFT_ETA_FACTOR = 1e-10
_TILE_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]


def _oadd(a: Offset, b: Offset) -> Offset:
    return (a[0] + b[0], a[1] + b[1])


def _osub(a: Offset, b: Offset) -> Offset:
    return (a[0] - b[0], a[1] - b[1])


def _oneg(a: Offset) -> Offset:
    return (-a[0], -a[1])


def _lexpos(o: Offset) -> bool:
    return o > (0, 0)


def _unroll(pts: np.ndarray, lengths, v: Vertex):
    i, (ox, oy) = v
    return (pts[i, 0] + ox * lengths[0], pts[i, 1] + oy * lengths[1])


def _point_ranks(points: np.ndarray) -> np.ndarray:
    """Rank of each point in lexicographic coordinate order.

    The ranks drive symbolic perturbation, so they must depend on the
    geometry alone: permuting the input rows must not change any
    tie-break decision.
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    sorted_pts = points[order]
    if len(points) > 1 and np.any(np.all(sorted_pts[1:] == sorted_pts[:-1], axis=1)):
        raise DegenerateInputError("pattern contains coincident points")
    ranks = np.empty(len(points), dtype=np.int64)
    ranks[order] = np.arange(len(points))
    return ranks


def _canonical_triangle(verts, pts, lengths):
    """Unique representative of a torus triangle: the lexicographically
    smallest vertex comes first with offset (0, 0), orientation CCW."""
    anchor = min(range(3), key=lambda t: verts[t])
    rolled = [verts[anchor], verts[(anchor + 1) % 3], verts[(anchor + 2) % 3]]
    shift = _oneg(rolled[0][1])
    shifted = [(b, _oadd(o, shift)) for b, o in rolled]
    a, b, c = (_unroll(pts, lengths, v) for v in shifted)
    side = orient2d(a, b, c)
    if side == 0:
        raise TessellationError("degenerate zero-area triangle")
    if side < 0:
        shifted[1], shifted[2] = shifted[2], shifted[1]
    return tuple(shifted)


def _shift_triangle(tri, shift: Offset):
    return tuple((b, _oadd(o, shift)) for b, o in tri)


def _edge_key_for(a: Vertex, b: Vertex):
    """Canonical undirected key of the torus edge a-b, plus the shift that
    moves this occurrence into the key's frame and which side of the key
    direction the left face lies on (0 = this directed edge runs with the
    key, 1 = against it)."""
    (ia, oa), (ib, ob) = a, b
    delta = _osub(ob, oa)
    if ia < ib or (ia == ib and _lexpos(delta)):
        return (ia, ib, delta), _oneg(oa), 0
    if ia > ib or (ia == ib and _lexpos(_oneg(delta))):
        return (ib, ia, _oneg(delta)), _oneg(ob), 1
    raise TessellationError("edge joins a vertex image to itself")


def _triangle_edge_entries(tid: int, tri):
    for t in range(3):
        key, shift, side = _edge_key_for(tri[t], tri[(t + 1) % 3])
        yield key, (tid, shift, side)


def _build_edge_map(tris: dict):
    edge_map: dict = {}
    for tid, tri in tris.items():
        for key, entry in _triangle_edge_entries(tid, tri):
            edge_map.setdefault(key, []).append(entry)
    return edge_map


def _check_structure(tris: dict, edge_map: dict, n_points: int) -> bool:
    if len(tris) != 2 * n_points or len(edge_map) != 3 * n_points:
        return False
    for entries in edge_map.values():
        if len(entries) != 2 or entries[0][2] + entries[1][2] != 1:
            return False
    used = {b for tri in tris.values() for b, _ in tri}
    return used == set(range(n_points))


def _initial_triangulation(pattern: PointPattern, ranks: np.ndarray, eta: float):
    """Candidate triangulation from the lower hull of the lifted 3x3 tiling.

    Each point gets the same finite height in all nine tiles, so whatever
    Qhull decides about near-cocircular quadruples it decides identically
    for every copy; the exact flip pass afterwards removes any remaining
    dependence on this stage.
    """
    pts = pattern.points
    lengths = pattern.box.lengths
    n = len(pts)
    tiles = [pts + np.array(off, dtype=float) * pattern.box.lengths_array()
             for off in _TILE_OFFSETS]
    ghost = np.vstack(tiles)
    heights = eta * (ranks + 1.0)
    lifted = np.column_stack([
        ghost[:, 0], ghost[:, 1],
        ghost[:, 0] ** 2 + ghost[:, 1] ** 2 + np.tile(heights, len(_TILE_OFFSETS)),
    ])
    hull = ConvexHull(lifted, qhull_options="Qt")
    lower = hull.equations[:, 2] < -1e-12
    tris: dict = {}
    seen = set()
    for simplex in hull.simplices[lower]:
        gx = ghost[simplex, 0]
        gy = ghost[simplex, 1]
        cx = gx.mean()
        cy = gy.mean()
        if not (0.0 <= cx < lengths[0] and 0.0 <= cy < lengths[1]):
            continue
        verts = [(int(g % n), _TILE_OFFSETS[int(g // n)]) for g in simplex]
        tri = _canonical_triangle(verts, pts, lengths)
        if tri not in seen:
            seen.add(tri)
            tris[len(tris)] = tri
    return tris


def _flip_to_delaunay(tris: dict, pattern: PointPattern, ranks: np.ndarray) -> dict:
    """Lawson's edge-flip loop with exact, symbolically perturbed tests.

    Every edge is examined in its own canonical frame, so a given torus
    edge always sees the same floating-point coordinates no matter which
    triangle pair brought it up; that keeps decisions consistent across
    periodic copies.  Terminates because each convex flip strictly lowers
    the lifted surface; the sweep cap turns any failure of that argument
    into an error instead of a hang.
    """
    pts = pattern.points
    lengths = pattern.box.lengths
    edge_map = _build_edge_map(tris)
    next_tid = max(tris, default=0) + 1
    max_sweeps = 64 + 2 * len(pattern)
    for _ in range(max_sweeps):
        flipped_any = False
        for key in sorted(edge_map.keys()):
            entries = edge_map.get(key)
            if entries is None or len(entries) != 2:
                if entries is None:
                    continue
                raise TessellationError("inconsistent edge structure during flips")
            e_left = next(e for e in entries if e[2] == 0)
            e_right = next(e for e in entries if e[2] == 1)
            if e_left[0] == e_right[0] and e_left[1] == e_right[1]:
                # A face glued to itself across this edge cannot be flipped.
                continue
            i, j, delta = key
            va: Vertex = (i, (0, 0))
            vb: Vertex = (j, delta)
            tri_l = _shift_triangle(tris[e_left[0]], e_left[1])
            tri_r = _shift_triangle(tris[e_right[0]], e_right[1])
            vc = next(v for v in tri_l if v != va and v != vb)
            vd = next(v for v in tri_r if v != va and v != vb)
            if vc == vd:
                continue
            pa = _unroll(pts, lengths, va)
            pb = _unroll(pts, lengths, vb)
            pc = _unroll(pts, lengths, vc)
            pd = _unroll(pts, lengths, vd)
            s = incircle_perturbed(pa, pb, pc, pd,
                                   (ranks[i], ranks[j], ranks[vc[0]], ranks[vd[0]]))
            if s == 0:
                raise TessellationError(
                    "unresolved degeneracy after symbolic perturbation"
                )
            if s < 0:
                continue
            # Flip only strictly convex quadrilaterals (a, d, b, c).
            if (orient2d(pa, pd, pb) <= 0 or orient2d(pd, pb, pc) <= 0
                    or orient2d(pb, pc, pa) <= 0 or orient2d(pc, pa, pd) <= 0):
                continue
            for tid in (e_left[0], e_right[0]):
                for k, entry in _triangle_edge_entries(tid, tris[tid]):
                    edge_map[k].remove(entry)
                    if not edge_map[k]:
                        del edge_map[k]
                del tris[tid]
            for verts in ((va, vd, vc), (vd, vb, vc)):
                tri = _canonical_triangle(list(verts), pts, lengths)
                tris[next_tid] = tri
                for k, entry in _triangle_edge_entries(next_tid, tri):
                    edge_map.setdefault(k, []).append(entry)
                next_tid += 1
            flipped_any = True
        if not flipped_any:
            return tris
    raise TessellationError("edge-flip pass did not converge")


@dataclass(frozen=True)
class Triangulation:
    """Periodic Delaunay triangulation.

    triangles holds canonical (index, offset) triples, CCW.  circumcenters
    and areas are per-triangle, evaluated in each triangle's canonical
    frame (so circumcenters may fall slightly outside the box).
    """

    pattern: PointPattern
    triangles: tuple
    circumcenters: np.ndarray
    circumradii: np.ndarray
    areas: np.ndarray

    def __post_init__(self):
        for name in ("circumcenters", "circumradii", "areas"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_vertices(self) -> int:
        return len(self.pattern)

    @property
    def n_faces(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edge_keys())

    def edge_keys(self) -> list:
        return sorted(_build_edge_map(dict(enumerate(self.triangles))).keys())


@dataclass(frozen=True)
class Cell:
    """One Voronoi cell: CCW polygon in the generator's frame, plus the
    loop expressed as references into the tessellation vertex table."""

    generator: int
    polygon: np.ndarray
    loop: tuple          # ((vertex table index, (ox, oy)), ...)
    area: float
    sides: int
    neighbors: tuple     # generator indices, CCW, aligned with polygon sides

    def __post_init__(self):
        arr = np.asarray(self.polygon, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "polygon", arr)


@dataclass(frozen=True)
class Tessellation:
    """Periodic Voronoi tessellation: one cell per generating point."""

    pattern: PointPattern
    cells: tuple
    vertices: np.ndarray   # shared cell-corner table, wrapped into the box

    def __post_init__(self):
        arr = np.asarray(self.vertices, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "vertices", arr)

    @property
    def mean_sides(self) -> float:
        return sum(c.sides for c in self.cells) / len(self.cells)


def _shoelace(poly: np.ndarray) -> float:
    x = poly[:, 0]
    y = poly[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _require_2d(pattern: PointPattern, op: str):
    if pattern.dim != 2:
        raise TessellationError(f"{op} supports 2D patterns only")


def delaunay(pattern: PointPattern) -> Triangulation:
    """Periodic Delaunay triangulation of a 2D pattern with >= 3 points."""
    _require_2d(pattern, "delaunay")
    n = len(pattern)
    if n < 3:
        raise TessellationError("triangulation needs at least 3 points")
    ranks = _point_ranks(pattern.points)
    eta = _LIFT_ETA_FACTOR * pattern.box.min_length ** 2
    tris = None
    for attempt in range(3):
        candidate = _initial_triangulation(pattern, ranks, eta * 100.0 ** attempt)
        if _check_structure(candidate, _build_edge_map(candidate), n):
            tris = candidate
            break
    if tris is None:
        raise TessellationError(
            "could not assemble a consistent periodic triangulation; a "
            "triangle may span more than one box period"
        )
    tris = _flip_to_delaunay(tris, pattern, ranks)
    triangles = tuple(sorted(tris.values()))
    tri_obj = _finish_triangulation(pattern, triangles)
    _validate_triangulation(tri_obj)
    return tri_obj


def _finish_triangulation(pattern: PointPattern, triangles) -> Triangulation:
    pts = pattern.points
    lengths = pattern.box.lengths
    centers = np.empty((len(triangles), 2))
    radii = np.empty(len(triangles))
    areas = np.empty(len(triangles))
    for t, tri in enumerate(triangles):
        a, b, c = (_unroll(pts, lengths, v) for v in tri)
        cc = circumcenter(a, b, c)
        centers[t] = cc
        radii[t] = math.hypot(cc[0] - a[0], cc[1] - a[1])
        areas[t] = 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    return Triangulation(pattern=pattern, triangles=triangles,
                         circumcenters=centers, circumradii=radii, areas=areas)


def _validate_triangulation(tri: Triangulation):
    pattern = tri.pattern
    n = len(pattern)
    edge_map = _build_edge_map(dict(enumerate(tri.triangles)))
    if not _check_structure(dict(enumerate(tri.triangles)), edge_map, n):
        raise TessellationError("triangulation violates the torus edge structure")
    # V - E + F = 0 on the torus, with E = 3N and F = 2N.
    if n - len(edge_map) + len(tri.triangles) != 0:
        raise TessellationError("triangulation violates the Euler relation")
    limit = pattern.box.min_length / 2.0
    if float(tri.circumradii.max()) >= limit:
        raise TessellationError(
            f"circumradius {tri.circumradii.max():g} reaches the period "
            f"limit {limit:g}; the pattern is too sparse for this box"
        )
    total = float(tri.areas.sum())
    if not math.isclose(total, pattern.box.volume, rel_tol=AREA_RTOL):
        raise TessellationError(
            f"triangle areas sum to {total!r}, expected {pattern.box.volume!r}"
        )
    if circumcircle_violations(tri) != 0:
        raise TessellationError("empty-circumcircle property violated")


def circumcircle_violations(tri: Triangulation,
                            rel_tol: float = CIRCUMCIRCLE_RTOL) -> int:
    """Number of (triangle, point) pairs where the point sits inside the
    triangle's circumdisk by more than rel_tol of the circumradius."""
    pattern = tri.pattern
    centers = wrap_point(tri.circumcenters, pattern.box)
    radii = tri.circumradii * (1.0 - rel_tol)
    hits = pattern.tree.query_ball_point(centers, radii)
    violations = 0
    for t, inside in enumerate(hits):
        member = {b for b, _ in tri.triangles[t]}
        violations += sum(1 for p in inside if p not in member)
    return violations


def _degenerate_edges(tri: Triangulation, edge_map: dict, tol: float) -> set:
    """Edges whose two adjacent circumcenters coincide (cocircular quads).

    Decided once per edge in the edge's own frame, so both incident cells
    later agree on whether the dual edge has zero length.
    """
    lengths = np.asarray(tri.pattern.box.lengths)
    degenerate = set()
    for key, entries in edge_map.items():
        (t0, s0, _), (t1, s1, _) = entries
        c0 = tri.circumcenters[t0] + np.asarray(s0) * lengths
        c1 = tri.circumcenters[t1] + np.asarray(s1) * lengths
        if float(np.hypot(*(c0 - c1))) <= tol:
            degenerate.add(key)
    return degenerate


def voronoi(pattern: PointPattern) -> Tessellation:
    """Periodic Voronoi tessellation of a 2D pattern with >= 1 point."""
    _require_2d(pattern, "voronoi")
    if len(pattern) == 0:
        raise DegenerateInputError("empty pattern has no tessellation")
    if len(pattern) <= 2:
        tess = _voronoi_small(pattern)
    else:
        tess = _voronoi_dual(pattern)
    _validate_tessellation(tess)
    return tess


def _voronoi_dual(pattern: PointPattern) -> Tessellation:
    tri = delaunay(pattern)
    lengths = np.asarray(pattern.box.lengths)
    tris = dict(enumerate(tri.triangles))
    edge_map = _build_edge_map(tris)
    tol = MERGE_TOL_FACTOR * pattern.box.min_length
    degenerate = _degenerate_edges(tri, edge_map, tol)

    # Union circumcenters across degenerate edges; the class representative
    # (smallest triangle id) owns the row in the shared vertex table.
    parent = list(range(len(tri.triangles)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key in degenerate:
        (t0, _, _), (t1, _, _) = edge_map[key]
        r0, r1 = find(t0), find(t1)
        if r0 != r1:
            parent[max(r0, r1)] = min(r0, r1)

    reps = sorted({find(t) for t in range(len(tri.triangles))})
    rep_row = {rep: row for row, rep in enumerate(reps)}
    table = wrap_point(tri.circumcenters[reps], pattern.box)

    # star[(i, u in i's frame)] = (triangle, shift into i's frame, w in i's
    # frame) for the CCW triangle (i, u, w): following w walks CCW around i.
    star: dict = {}
    first_key: dict = {}
    for tid, tri_c in tris.items():
        for p in range(3):
            bi, oi = tri_c[p]
            u = tri_c[(p + 1) % 3]
            w = tri_c[(p + 2) % 3]
            rel_u = (u[0], _osub(u[1], oi))
            rel_w = (w[0], _osub(w[1], oi))
            star[(bi, rel_u)] = (tid, _oneg(oi), rel_w)
            cur = first_key.get(bi)
            if cur is None or rel_u < cur:
                first_key[bi] = rel_u

    cells = []
    for i in range(len(pattern)):
        u0 = first_key.get(i)
        if u0 is None:
            raise TessellationError(f"generator {i} has no incident triangle")
        walk = []
        u = u0
        while True:
            tid, shift, w = star[(i, u)]
            crossing, _, _ = _edge_key_for((i, (0, 0)), w)
            walk.append((tid, shift, crossing, w[0]))
            u = w
            if u == u0:
                break
            if len(walk) > len(tri.triangles):
                raise TessellationError("star walk failed to close")
        # Collapse runs of triangles joined by degenerate edges: each run
        # contributes one polygon corner; the crossing edge that ends a run
        # is a real cell side and names the neighbor across it.
        corners = [tri.circumcenters[tid] + np.asarray(shift) * lengths
                   for tid, shift, _, _ in walk]
        keep = [k for k, (_, _, crossing, _) in enumerate(walk)
                if crossing not in degenerate]
        if len(keep) < 3:
            raise TessellationError(
                f"cell of generator {i} collapsed to fewer than 3 corners"
            )
        polygon = np.array([corners[(k + 1) % len(walk)] for k in keep])
        # Side j runs from polygon[j] to polygon[j+1] and is dual to the
        # kept crossing that ends the next corner's run.
        neighbors = tuple(walk[keep[(j + 1) % len(keep)]][3]
                          for j in range(len(keep)))
        loop = []
        for k in keep:
            tid = walk[(k + 1) % len(walk)][0]
            row = rep_row[find(tid)]
            off = np.rint((corners[(k + 1) % len(walk)] - table[row]) / lengths)
            loop.append((row, (int(off[0]), int(off[1]))))
        area = _shoelace(polygon)
        cells.append(Cell(generator=i, polygon=polygon, loop=tuple(loop),
                          area=area, sides=len(polygon), neighbors=neighbors))
    return Tessellation(pattern=pattern, cells=tuple(cells), vertices=table)


def _voronoi_small(pattern: PointPattern) -> Tessellation:
    """Direct construction for one or two generators: clip the box-sized
    rectangle around each generator by bisectors against all nearby
    periodic images (of the other point and of the generator itself)."""
    pts = pattern.points
    lengths = np.asarray(pattern.box.lengths)
    n = len(pattern)
    tol = MERGE_TOL_FACTOR * pattern.box.min_length
    if n == 2 and bool(np.all(pts[0] == pts[1])):
        raise DegenerateInputError("pattern contains coincident points")

    cells = []
    all_corners = []
    for i in range(n):
        g = pts[i]
        hx, hy = lengths[0] / 2.0, lengths[1] / 2.0
        poly = [g + np.array(d) for d in
                ((-hx, -hy), (hx, -hy), (hx, hy), (-hx, hy))]
        sources = [None] * len(poly)  # neighbor base per side, None = unclipped
        for j in range(n):
            for ox in (-2, -1, 0, 1, 2):
                for oy in (-2, -1, 0, 1, 2):
                    if j == i and ox == 0 and oy == 0:
                        continue
                    image = pts[j] + np.array([ox, oy]) * lengths
                    poly, sources = _clip_halfplane(poly, sources, g, image, j)
                    if len(poly) < 3:
                        raise TessellationError("cell clipped away entirely")
        poly, sources = _merge_sides(poly, sources, tol)
        polygon = np.array(poly)
        area = _shoelace(polygon)
        neighbors = tuple(i if s is None else s for s in sources)
        cells.append((i, polygon, area, neighbors))
        all_corners.extend(polygon)

    # Shared corner table: wrapped positions, deduplicated within tolerance.
    table = []
    refs = []
    for corner in all_corners:
        w = wrap_point(np.asarray(corner, dtype=float), pattern.box)
        row = next((r for r, t in enumerate(table)
                    if np.hypot(*(w - t)) <= tol), None)
        if row is None:
            table.append(w)
            row = len(table) - 1
        off = np.rint((corner - table[row]) / lengths)
        refs.append((row, (int(off[0]), int(off[1]))))
    table = np.array(table) if table else np.empty((0, 2))

    out = []
    pos = 0
    for i, polygon, area, neighbors in cells:
        m = len(polygon)
        out.append(Cell(generator=i, polygon=polygon,
                        loop=tuple(refs[pos:pos + m]), area=area,
                        sides=m, neighbors=neighbors))
        pos += m
    return Tessellation(pattern=pattern, cells=tuple(out), vertices=table)


def _clip_halfplane(poly, sources, g, image, neighbor):
    """Keep the part of the polygon closer to g than to image.

    sources[k] names the neighbor whose bisector created the side running
    from vertex k to vertex k+1 (None for never-clipped box sides).
    """
    mid = (np.asarray(g, dtype=float) + image) / 2.0
    normal = image - np.asarray(g, dtype=float)  # positive = closer to image
    vals = [float(np.dot(p - mid, normal)) for p in poly]
    if all(v <= 0.0 for v in vals):
        return poly, sources
    new_poly = []
    new_sources = []
    m = len(poly)
    for k in range(m):
        p0, v0 = poly[k], vals[k]
        p1, v1 = poly[(k + 1) % m], vals[(k + 1) % m]
        in0, in1 = v0 <= 0.0, v1 <= 0.0
        if in0 and in1:
            new_poly.append(p0)
            new_sources.append(sources[k])
        elif in0 and not in1:
            new_poly.append(p0)
            new_sources.append(sources[k])
            t = v0 / (v0 - v1)
            new_poly.append(p0 + t * (p1 - p0))
            new_sources.append(neighbor)  # cut runs along the new bisector
        elif not in0 and in1:
            t = v0 / (v0 - v1)
            new_poly.append(p0 + t * (p1 - p0))
            new_sources.append(sources[k])
    return new_poly, new_sources


def _merge_sides(poly, sources, tol):
    """Drop duplicate consecutive corners and join collinear consecutive
    sides that face the same neighbor."""
    m = len(poly)
    keep_poly = []
    keep_sources = []
    for k in range(m):
        nxt = (k + 1) % m
        if np.hypot(*(np.asarray(poly[nxt]) - poly[k])) <= tol:
            # Zero-length side: its source label dies with it.
            continue
        keep_poly.append(np.asarray(poly[k], dtype=float))
        keep_sources.append(sources[k])
    poly, sources = keep_poly, keep_sources
    changed = True
    while changed and len(poly) > 3:
        changed = False
        m = len(poly)
        for k in range(m):
            prv = (k - 1) % m
            if sources[prv] != sources[k]:
                continue
            a, b, c = poly[prv], poly[k], poly[(k + 1) % m]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if abs(cross) <= tol * max(1.0, np.hypot(*(c - a))):
                del poly[k]
                del sources[k]
                changed = True
                break
    return poly, sources


def _validate_tessellation(tess: Tessellation):
    box = tess.pattern.box
    total = float(sum(c.area for c in tess.cells))
    if not math.isclose(total, box.volume, rel_tol=AREA_RTOL):
        raise TessellationError(
            f"cell areas sum to {total!r}, expected {box.volume!r}"
        )
    for cell in tess.cells:
        poly = cell.polygon
        g = tess.pattern.points[cell.generator]
        m = len(poly)
        scale = max(1.0, float(np.abs(poly).max()))
        for k in range(m):
            a = poly[k]
            b = poly[(k + 1) % m]
            c = poly[(k + 2) % m]
            cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if cross < -1e-9 * scale * scale:
                raise TessellationError(
                    f"cell of generator {cell.generator} is not convex"
                )
            side_cross = ((b[0] - a[0]) * (g[1] - a[1])
                          - (b[1] - a[1]) * (g[0] - a[0]))
            if side_cross <= 0:
                raise TessellationError(
                    f"generator {cell.generator} lies outside its cell"
                )


@dataclass(frozen=True)
class CellStats:
    """Summary statistics over a collection of Voronoi cells."""

    n_cells: int
    mean_area: float
    cv_area: float
    side_histogram: dict
    mean_edge_length: float
    cv_edge_length: float


def _cv(values: np.ndarray) -> float:
    mean = float(values.mean())
    if mean == 0.0:
        return 0.0
    return float(values.std()) / mean


def _edge_lengths(cell: Cell) -> np.ndarray:
    poly = cell.polygon
    return np.hypot(*(np.roll(poly, -1, axis=0) - poly).T)


def cell_statistics(tess: Tessellation) -> CellStats:
    return _pooled_stats(tess.cells)


def ensemble_cell_statistics(patterns: Iterable[PointPattern]) -> CellStats:
    """Cell statistics pooled over the Voronoi cells of many patterns."""
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    if len({p.dim for p in patterns}) != 1:
        raise ValueError("patterns mix dimensions")
    cells = []
    for p in patterns:
        cells.extend(voronoi(p).cells)
    return _pooled_stats(cells)


def _pooled_stats(cells) -> CellStats:
    areas = np.array([c.area for c in cells])
    sides = [c.sides for c in cells]
    hist: dict = {}
    for s in sides:
        hist[s] = hist.get(s, 0) + 1
    edges = np.concatenate([_edge_lengths(c) for c in cells])
    return CellStats(
        n_cells=len(cells),
        mean_area=float(areas.mean()),
        cv_area=_cv(areas),
        side_histogram=dict(sorted(hist.items())),
        mean_edge_length=float(edges.mean()),
        cv_edge_length=_cv(edges),
    )


_TESS_MAGIC = "#hupa-tess v1"
_F17 = "{:#.17g}"


@dataclass(frozen=True)
class FaceRecord:
    """One face: corners as (vertex index, (ox, oy)) pairs plus the
    stored area and side count."""

    corners: tuple
    area: float
    sides: int


@dataclass(frozen=True)
class FaceModel:
    """Geometry view shared by the text writer, loader, and renderer.

    Corner positions are vertices[i] + (ox, oy) * lengths; generators are
    the seed points when known (None for loaded files).
    """

    rule: str
    lengths: tuple
    vertices: np.ndarray
    faces: tuple
    provenance: str = ""
    generators: np.ndarray | None = None


def face_model(obj) -> FaceModel:
    """Build the face model of a Triangulation or Tessellation."""
    if isinstance(obj, Triangulation):
        faces = tuple(
            FaceRecord(corners=tri, area=float(a), sides=3)
            for tri, a in zip(obj.triangles, obj.areas)
        )
        return FaceModel(rule="delaunay", lengths=obj.pattern.box.lengths,
                         vertices=obj.pattern.points, faces=faces,
                         provenance=obj.pattern.provenance)
    if isinstance(obj, Tessellation):
        faces = tuple(
            FaceRecord(corners=c.loop, area=c.area, sides=c.sides)
            for c in obj.cells
        )
        return FaceModel(rule="voronoi", lengths=obj.pattern.box.lengths,
                         vertices=obj.vertices, faces=faces,
                         provenance=obj.pattern.provenance,
                         generators=obj.pattern.points)
    raise TypeError("expected a Triangulation or Tessellation")


def save_tess(obj, path):
    """Write a Triangulation or Tessellation as line-oriented text.

    Layout: header, provenance, a `v` line per shared vertex, then an `f`
    line per face: corner count, (vertex index, ox, oy) per corner, then
    area and side-count columns.
    """
    model = obj if isinstance(obj, FaceModel) else face_model(obj)
    lines = [_TESS_MAGIC]
    lengths = ",".join(_F17.format(x) for x in model.lengths)
    lines.append(f"rule={model.rule} dim=2 lengths={lengths} "
                 f"n_vertices={len(model.vertices)} "
                 f"n_faces={len(model.faces)}")
    lines.append(f"provenance={model.provenance}")
    for vx, vy in np.asarray(model.vertices):
        lines.append(f"v {_F17.format(vx)} {_F17.format(vy)}")
    for face in model.faces:
        parts = [f"f {len(face.corners)}"]
        for idx, (ox, oy) in face.corners:
            parts.append(f"{idx} {ox} {oy}")
        parts.append(f"{_F17.format(face.area)} {face.sides}")
        lines.append(" ".join(parts))
    text = "\n".join(lines) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def load_tess(path) -> FaceModel:
    """Read a tessellation text file back into a face model."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if raw and raw[-1] == "":
        raw.pop()

    def bad(msg, line):
        return PatternFormatError(msg, line=line)

    if not raw or raw[0].strip() != _TESS_MAGIC:
        raise bad(f"missing header {_TESS_MAGIC!r}", 1)
    if len(raw) < 3:
        raise bad("truncated file", len(raw))
    fields = {}
    for part in raw[1].split():
        key, eq, value = part.partition("=")
        if not eq:
            raise bad(f"malformed header field {part!r}", 2)
        fields[key] = value
    try:
        rule = fields["rule"]
        dim = int(fields["dim"])
        lengths = tuple(float(v) for v in fields["lengths"].split(","))
        n_vertices = int(fields["n_vertices"])
        n_faces = int(fields["n_faces"])
    except (KeyError, ValueError) as exc:
        raise bad(f"bad header: {exc}", 2) from None
    if rule not in ("voronoi", "delaunay"):
        raise bad(f"unknown rule {rule!r}", 2)
    if dim != 2 or len(lengths) != 2:
        raise bad("only 2D tessellation files are supported", 2)
    if not raw[2].startswith("provenance="):
        raise bad("missing provenance line", 3)
    provenance = raw[2][len("provenance="):]
    expected = 3 + n_vertices + n_faces
    if len(raw) != expected:
        raise bad(f"expected {expected} lines, found {len(raw)}", len(raw))

    vertices = np.empty((n_vertices, 2))
    for k in range(n_vertices):
        lineno = 4 + k
        parts = raw[3 + k].split()
        if len(parts) != 3 or parts[0] != "v":
            raise bad("malformed vertex line", lineno)
        try:
            vertices[k] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise bad("malformed vertex coordinates", lineno) from None

    faces = []
    for k in range(n_faces):
        lineno = 4 + n_vertices + k
        parts = raw[3 + n_vertices + k].split()
        try:
            if len(parts) < 2 or parts[0] != "f":
                raise ValueError
            m = int(parts[1])
            if m < 3 or len(parts) != 2 + 3 * m + 2:
                raise ValueError
            corners = []
            for c in range(m):
                idx = int(parts[2 + 3 * c])
                ox = int(parts[3 + 3 * c])
                oy = int(parts[4 + 3 * c])
                if not 0 <= idx < n_vertices:
                    raise ValueError
                corners.append((idx, (ox, oy)))
            area = float(parts[2 + 3 * m])
            sides = int(parts[3 + 3 * m])
        except ValueError:
            raise bad("malformed face line", lineno) from None
        faces.append(FaceRecord(corners=tuple(corners), area=area,
                                sides=sides))
    return FaceModel(rule=rule, lengths=lengths, vertices=vertices,
                     faces=tuple(faces), provenance=provenance)
