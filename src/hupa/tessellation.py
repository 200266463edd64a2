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

One half-edge table holds the torus edge structure.  Its key (i, (j, d))
is the directed edge from point i at offset (0, 0) to point j at offset d,
so j is given in i's frame; its value (triangle, shift, w) names the CCW
triangle (i, j, w) to the left of that edge, the shift that moves the
triangle into i's frame, and its third vertex w in i's frame.  The twin of
(i, (j, d)) is (j, (i, -d)), and the half-edge with (i, (0, 0)) < (j, d)
keys the edge.  The table is built once from the hull candidate, checked,
kept in step by the flip pass, renumbered with the sorted triangles and
read by validation.

The Voronoi tessellation is read off as the dual, walking the same edges
as numpy arrays, into CSR cell arrays.  A pattern with fewer than three
points, or too sparse for a triangulation of its own box, is tessellated
the same way on a covering torus of box copies, and the cells of the
first copy are folded back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
from scipy.spatial import ConvexHull, cKDTree

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
_COVER_MAX_POINTS = 4096
_TILE_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]


class _TooSparseError(TessellationError):
    """A 1-sheet build failed because the pattern is too sparse for its box;
    voronoi() answers it with the covering torus."""


def _oadd(a: Offset, b: Offset) -> Offset:
    return (a[0] + b[0], a[1] + b[1])


def _osub(a: Offset, b: Offset) -> Offset:
    return (a[0] - b[0], a[1] - b[1])


def _oneg(a: Offset) -> Offset:
    return (-a[0], -a[1])


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


def _half_edges(tid: int, tri):
    """(key, value) of the three half-edges of the CCW triangle tri."""
    for p in range(3):
        (i, oi), (j, oj), (k, ok) = tri[p], tri[p - 2], tri[p - 1]
        yield (i, (j, _osub(oj, oi))), (tid, _oneg(oi), (k, _osub(ok, oi)))


def _half_edge_table(tris: dict) -> dict:
    """The half-edge table of tris, as described in the module docstring."""
    return dict(entry for tid, tri in tris.items()
                for entry in _half_edges(tid, tri))


def _twin(h):
    i, (j, delta) = h
    return (j, (i, _oneg(delta)))


def _is_edge_key(h) -> bool:
    """True for the half-edge (i, u) that keys its edge: (i, (0, 0)) < u."""
    return (h[0], (0, 0)) < h[1]


def _check_structure(tris, table: dict, n_points: int) -> bool:
    """F = 2N faces, no half-edge claimed twice (6N distinct), every
    half-edge has its twin, and every point is a vertex."""
    return (len(tris) == 2 * n_points and len(table) == 6 * n_points
            and all(_twin(h) in table for h in table)
            and {i for i, _ in table} == set(range(n_points)))


def _initial_triangulation(pattern: PointPattern, ranks: np.ndarray, eta: float):
    """Candidate triangulation from the lower hull of the lifted 3x3 tiling.

    Each point gets the same finite height in all nine tiles, so whatever
    Qhull decides about near-cocircular quadruples it decides identically
    for every copy; the exact flip pass afterwards removes any remaining
    dependence on this stage.  The heights are strictly convex in the rank:
    on a lattice the rank is affine in the site index, and affine heights
    would leave every lifted cocircular quad coplanar.  The paraboloid is
    centred on the box, which keeps the lifted coordinate small on long
    covering tori.
    """
    pts = pattern.points
    lengths = pattern.box.lengths
    size = pattern.box.lengths_array()
    n = len(pts)
    ghost = np.vstack([pts + np.array(off, dtype=float) * size
                       for off in _TILE_OFFSETS])
    heights = eta * (ranks + 1.0) * (ranks + 2.0) / n
    rel = ghost - size / 2.0
    lifted = np.column_stack([
        ghost[:, 0], ghost[:, 1],
        rel[:, 0] ** 2 + rel[:, 1] ** 2 + np.tile(heights, len(_TILE_OFFSETS)),
    ])
    hull = ConvexHull(lifted, qhull_options="Qt")
    lower = hull.simplices[hull.equations[:, 2] < -1e-12]
    centroids = ghost[lower].mean(axis=1)
    kept = lower[np.all((centroids >= 0.0) & (centroids < size), axis=1)]
    tris = dict.fromkeys(
        _canonical_triangle([(b, _TILE_OFFSETS[t]) for b, t in zip(bs, ts)],
                            pts, lengths)
        for bs, ts in zip((kept % n).tolist(), (kept // n).tolist()))
    return dict(enumerate(tris))


def _flip_to_delaunay(tris: dict, table: dict, pattern: PointPattern,
                      ranks: np.ndarray) -> tuple:
    """Lawson's edge-flip loop with exact, symbolically perturbed tests.

    Flips tris in place with their half-edge table in step; returns the
    sorted triangles, with the table renumbered to match.

    Every edge is examined in the frame of its key's first vertex, so a
    given torus edge always sees the same floating-point coordinates no
    matter which triangle pair brought it up; that keeps decisions
    consistent across periodic copies.  Terminates because each convex
    flip strictly lowers the lifted surface; the sweep cap turns any
    failure of that argument into an error instead of a hang.
    """
    pts = pattern.points
    lengths = pattern.box.lengths
    next_tid = max(tris, default=0) + 1
    max_sweeps = 64 + 2 * len(pattern)
    for _ in range(max_sweeps):
        flipped_any = False
        for h in sorted(filter(_is_edge_key, table)):
            left = table.get(h)
            right = table.get(_twin(h))
            if left is None or right is None:
                if left is None and right is None:
                    continue  # flipped away earlier in this sweep
                raise TessellationError("inconsistent edge structure during flips")
            # Two CCW triangles on opposite sides of the edge: they differ,
            # and so do c and d, which the right entry gives in j's frame.
            i, (j, delta) = h
            t_left, _, vc = left
            t_right, _, (d, od) = right
            vd = (d, _oadd(od, delta))
            va: Vertex = (i, (0, 0))
            vb: Vertex = (j, delta)
            pa, pb, pc, pd = (_unroll(pts, lengths, v) for v in (va, vb, vc, vd))
            s = incircle_perturbed(pa, pb, pc, pd,
                                   (ranks[i], ranks[j], ranks[vc[0]], ranks[d]))
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
            for tid in (t_left, t_right):
                for key, _ in _half_edges(tid, tris.pop(tid)):
                    del table[key]
            for verts in ((va, vd, vc), (vd, vb, vc)):
                tri = _canonical_triangle(list(verts), pts, lengths)
                tris[next_tid] = tri
                table.update(_half_edges(next_tid, tri))
                next_tid += 1
            flipped_any = True
        if not flipped_any:
            order = sorted(tris, key=tris.__getitem__)
            renumber = {tid: k for k, tid in enumerate(order)}
            for h, (tid, shift, w) in table.items():
                table[h] = (renumber[tid], shift, w)
            return tuple(tris[tid] for tid in order)
    raise TessellationError("edge-flip pass did not converge")


@dataclass(frozen=True)
class Triangulation:
    """Periodic Delaunay triangulation.

    triangles holds canonical (index, offset) triples, CCW.  circumcenters
    and areas are per-triangle, evaluated in each triangle's canonical
    frame (so circumcenters may fall slightly outside the box).
    half_edges is their half-edge table (see the module docstring): 6N
    entries, two per edge, kept in step by the flip pass.  vertex and
    offset hold the triangles as (F, 3) and (F, 3, 2) integer arrays.
    """

    pattern: PointPattern
    triangles: tuple
    circumcenters: np.ndarray
    circumradii: np.ndarray
    areas: np.ndarray
    half_edges: dict = field(repr=False, compare=False)
    vertex: np.ndarray = field(repr=False, compare=False)
    offset: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        for arr in (self.circumcenters, self.circumradii, self.areas):
            arr.setflags(write=False)

    @property
    def n_vertices(self) -> int:
        return len(self.pattern)

    @property
    def n_faces(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.half_edges) // 2

    def edge_keys(self) -> list:
        """Sorted (i, j, delta) keys, one per edge: j's image at offset
        delta is joined to point i, with (i, (0, 0)) < (j, delta)."""
        return [(i, j, delta) for i, (j, delta)
                in sorted(filter(_is_edge_key, self.half_edges))]


@dataclass(frozen=True)
class Cell:
    """Read-only view of one Voronoi cell: CCW polygon in the generator's
    frame, plus the loop as references into the tessellation vertex table."""

    generator: int
    polygon: np.ndarray
    loop: tuple          # ((vertex table index, (ox, oy)), ...)
    area: float
    sides: int
    neighbors: tuple     # generator indices, CCW, aligned with polygon sides


def _next_corner(ptr: np.ndarray) -> np.ndarray:
    """Index of the next corner CCW of every corner of the CSR rows."""
    nxt = np.arange(1, ptr[-1] + 1)
    full = ptr[1:] > ptr[:-1]
    nxt[ptr[1:][full] - 1] = ptr[:-1][full]
    return nxt


def _corner_refs(rows: np.ndarray, offsets: np.ndarray) -> list:
    """(vertex row, (ox, oy)) per corner, in Python ints."""
    return [(r, (ox, oy)) for r, (ox, oy) in zip(rows.tolist(), offsets.tolist())]


@dataclass(frozen=True)
class Tessellation:
    """Periodic Voronoi tessellation: one cell per generating point.

    Cell i owns corners ptr[i]:ptr[i + 1], CCW: polygon (E, 2) in the
    generator's frame, or vertices[corner_row] + corner_offset * lengths;
    neighbor is the generator across the side to the next corner.  cells
    holds Cell views of the same data, built on first access.
    """

    pattern: PointPattern
    vertices: np.ndarray   # shared cell-corner table, wrapped into the box
    ptr: np.ndarray
    polygon: np.ndarray
    corner_row: np.ndarray
    corner_offset: np.ndarray
    neighbor: np.ndarray
    area: np.ndarray

    def __post_init__(self):
        for arr in (self.vertices, self.ptr, self.polygon, self.corner_row,
                    self.corner_offset, self.neighbor, self.area):
            arr.setflags(write=False)

    @cached_property
    def sides(self) -> np.ndarray:
        return np.diff(self.ptr)

    @property
    def mean_sides(self) -> float:
        return int(self.sides.sum()) / len(self.sides)

    @cached_property
    def cells(self) -> tuple:
        b, nb = self.ptr.tolist(), self.neighbor.tolist()
        loop = _corner_refs(self.corner_row, self.corner_offset)
        return tuple(Cell(i, self.polygon[s:e], tuple(loop[s:e]), a, e - s,
                          tuple(nb[s:e]))
                     for i, (s, e, a) in enumerate(zip(b, b[1:],
                                                       self.area.tolist())))


def _require_2d(pattern: PointPattern, op: str):
    if pattern.dim != 2:
        raise TessellationError(f"{op} supports 2D patterns only")


def delaunay(pattern: PointPattern) -> Triangulation:
    """Periodic Delaunay triangulation of a 2D pattern with >= 3 points."""
    _require_2d(pattern, "delaunay")
    n = len(pattern)
    if n < 3:
        raise _TooSparseError("triangulation needs at least 3 points")
    ranks = _point_ranks(pattern.points)
    eta = _LIFT_ETA_FACTOR * pattern.box.min_length ** 2
    for attempt in range(3):
        tris = _initial_triangulation(pattern, ranks, eta * 100.0 ** attempt)
        table = _half_edge_table(tris)
        if _check_structure(tris, table, n):
            break
    else:
        raise _TooSparseError(
            "could not assemble a consistent periodic triangulation; a "
            "triangle may span more than one box period"
        )
    triangles = _flip_to_delaunay(tris, table, pattern, ranks)
    pts = pattern.points
    lengths = pattern.box.lengths
    centers = np.empty((len(triangles), 2))
    radii = np.empty(len(triangles))
    areas = np.empty(len(triangles))
    for t, verts in enumerate(triangles):
        a, b, c = (_unroll(pts, lengths, v) for v in verts)
        cc = circumcenter(a, b, c)
        centers[t] = cc
        radii[t] = math.hypot(cc[0] - a[0], cc[1] - a[1])
        areas[t] = 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    corners = np.array([(b, ox, oy) for verts in triangles
                        for b, (ox, oy) in verts]).reshape(-1, 3, 3)
    tri = Triangulation(pattern=pattern, triangles=triangles,
                        circumcenters=centers, circumradii=radii, areas=areas,
                        half_edges=table, vertex=corners[:, :, 0],
                        offset=corners[:, :, 1:])
    _validate_triangulation(tri)
    return tri


def _validate_triangulation(tri: Triangulation):
    pattern = tri.pattern
    if not _check_structure(tri.triangles, tri.half_edges, len(pattern)):
        raise TessellationError("triangulation violates the torus edge structure")
    limit = pattern.box.min_length / 2.0
    if float(tri.circumradii.max()) >= limit:
        raise _TooSparseError(
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
    corners = np.repeat(tri.vertex, [len(h) for h in hits], axis=0)
    inside = np.concatenate(hits).astype(int)[:, None]
    return int(np.all(corners != inside, axis=1).sum())


def _half_edge_arrays(tri: Triangulation) -> tuple:
    """The half-edge table as arrays: half-edge 3t + p runs from corner p
    to p + 1 of triangle t, with key (src, (dst, delta)) and entry (t,
    shift, ...).  Also returns twin and order, the half-edges sorted by key;
    the k-th key and the k-th reversed key (dst, src, -delta) are twins."""
    src = tri.vertex.ravel()
    dst = np.roll(tri.vertex, -1, axis=1).ravel()
    shift = -tri.offset.reshape(-1, 2)
    delta = np.roll(tri.offset, -1, axis=1).reshape(-1, 2) + shift
    order = np.lexsort((delta[:, 1], delta[:, 0], dst, src))
    twin = np.empty_like(order)
    twin[order] = np.lexsort((-delta[:, 1], -delta[:, 0], src, dst))
    return src, dst, delta, shift, twin, order


def _degenerate_edges(tri: Triangulation, edges: tuple, tol: float):
    """Mask of the half-edges whose two circumcenters coincide (cocircular
    quads), and the (left, right) triangle pairs across them, (m, 2).

    Decided once per edge in the frame of its key's first vertex, so both
    incident cells later agree on whether the dual edge has zero length.
    """
    src, dst, delta, shift, twin, _ = edges
    dx, dy = delta.T
    key = np.flatnonzero(
        (src < dst) | ((src == dst) & ((dx > 0) | ((dx == 0) & (dy > 0)))))
    right = twin[key]
    lengths = np.asarray(tri.pattern.box.lengths)
    c0 = tri.circumcenters[key // 3] + shift[key] * lengths
    c1 = tri.circumcenters[right // 3] + (shift[right] + delta[key]) * lengths
    hit = np.hypot(*(c0 - c1).T) <= tol
    mask = np.zeros(len(src), dtype=bool)
    mask[key[hit]] = mask[right[hit]] = True
    return mask, np.column_stack((key[hit] // 3, right[hit] // 3))


def voronoi(pattern: PointPattern) -> Tessellation:
    """Periodic Voronoi tessellation of a 2D pattern with >= 1 point.

    A pattern with fewer than 3 points, or too sparse for its box, is
    tessellated on a covering torus and folded back (_voronoi_cover).
    """
    _require_2d(pattern, "voronoi")
    if len(pattern) == 0:
        raise DegenerateInputError("empty pattern has no tessellation")
    try:
        tess = _voronoi_dual(pattern)
    except _TooSparseError:
        tess = _voronoi_cover(pattern)
    _validate_tessellation(tess)
    return tess


def _voronoi_cover(pattern: PointPattern) -> Tessellation:
    """Build the dual on a kx-by-ky covering torus and keep copy (0, 0).

    The cover holds a full lattice of copies of point 0, so no empty circle
    has a radius above half the box diagonal, and k_a * L_a exceeds that
    diagonal on each axis: every circumradius stays under the cover's
    period limit.
    Cells keep their polygon, area and sides; neighbours are taken mod N
    and the corners are merged into a vertex table of the original box.
    """
    box = pattern.box
    lengths = box.lengths_array()
    n = len(pattern)
    reps = (np.floor(math.hypot(*lengths) / lengths) + 1).astype(int)
    size = int(reps.prod()) * n
    if size > _COVER_MAX_POINTS:
        raise TessellationError(
            f"pattern needs a {reps[0]}x{reps[1]} covering torus of {size} "
            f"points, above the limit of {_COVER_MAX_POINTS}; the pattern is "
            f"too sparse or the box too elongated"
        )
    cover_box = BoxDomain(lengths=tuple(reps * lengths))
    copies = [pattern.points + np.array((cx, cy)) * lengths
              for cx in range(reps[0]) for cy in range(reps[1])]
    cover = PointPattern(box=cover_box,
                         points=wrap_point(np.vstack(copies), cover_box))
    try:
        dual = _voronoi_dual(cover)
    except TessellationError as err:
        raise TessellationError(
            f"could not tessellate {n} points in the {lengths[0]:g}x{lengths[1]:g} "
            f"box on its {reps[0]}x{reps[1]} covering torus: {err}") from err

    end = dual.ptr[n]
    corners = dual.polygon[:end]
    wrapped = wrap_point(corners, box)
    tol = MERGE_TOL_FACTOR * box.min_length
    near = cKDTree(wrapped, boxsize=lengths).query_ball_point(wrapped, tol)
    # each corner takes the row of the first corner it is merged with
    first = np.array([min(hits) for hits in near])
    while np.any(first[first] != first):
        first = first[first]
    new = first == np.arange(len(first))
    rows = (np.cumsum(new) - 1)[first]
    table = wrapped[new]
    return Tessellation(
        pattern=pattern, vertices=table, ptr=dual.ptr[:n + 1], polygon=corners,
        corner_row=rows,
        corner_offset=np.rint((corners - table[rows]) / lengths).astype(int),
        neighbor=dual.neighbor[:end] % n, area=dual.area[:n])


def _voronoi_dual(pattern: PointPattern) -> Tessellation:
    # scipy.sparse.csgraph is imported here, not at module level, so it
    # stays off the start-up of every command
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    tri = delaunay(pattern)
    n = len(pattern)
    lengths = np.asarray(pattern.box.lengths)
    edges = _half_edge_arrays(tri)
    src, dst, _, shift, twin, order = edges
    degenerate, joined = _degenerate_edges(
        tri, edges, MERGE_TOL_FACTOR * pattern.box.min_length)

    # Circumcenters joined across degenerate edges share one row of the
    # vertex table.  connected_components numbers the classes in order of
    # their smallest triangle id, which is also the row order.
    graph = coo_matrix((np.ones(len(joined)), (joined[:, 0], joined[:, 1])),
                       shape=(len(tri.triangles),) * 2)
    _, labels = connected_components(graph, directed=False)
    first = np.unique(labels, return_index=True)[1]
    vertices = wrap_point(tri.circumcenters[first], pattern.box)

    # The twin of the half-edge before h is the next one out of h's source,
    # CCW.  All rings take one step per pass from their smallest key:
    # ring[ring_ptr[i] + k] is k + 1 steps past point i's start.
    h = np.arange(len(src))
    step = twin[h - h % 3 + (h + 2) % 3]
    degree = np.bincount(src, minlength=n)
    ring_ptr = np.cumsum(np.r_[0, degree])
    ring = np.empty_like(h)
    cur = step[order[ring_ptr[:-1]]]
    for k in range(int(degree.max())):
        live = np.flatnonzero(degree > k)
        ring[ring_ptr[live] + k] = cur[live]
        cur = step[cur]

    # An entry's corner is its triangle's circumcenter; its edge is the side
    # to the next corner.  A run joined by degenerate edges keeps its last
    # corner, so every kept edge is a cell side facing the neighbour dst.
    kept = ring[~degenerate[ring]]
    ptr = np.cumsum(np.r_[0, np.bincount(src[kept], minlength=n)])
    polygon = tri.circumcenters[kept // 3] + shift[kept] * lengths
    rows = labels[kept // 3]
    # Shoelace areas, each from a strided column and a contiguous gather of
    # the next corners: the BLAS calls, and bits, of a per-cell (m, 2) array.
    nxt = _next_corner(ptr)
    (x, y), (xn, yn) = polygon.T, polygon[nxt].T.copy()
    b = ptr.tolist()
    area = [np.dot(x[s:e], yn[s:e]) - np.dot(y[s:e], xn[s:e])
            for s, e in zip(b, b[1:])]
    return Tessellation(
        pattern=pattern, vertices=vertices, ptr=ptr, polygon=polygon,
        corner_row=rows,
        corner_offset=np.rint((polygon - vertices[rows]) / lengths).astype(int),
        neighbor=dst[kept][nxt], area=0.5 * np.array(area))


def _validate_tessellation(tess: Tessellation):
    """Cells of 3 or more corners tile the box, each convex around its
    generator; a failure names the first failing cell and corner."""
    collapsed = np.flatnonzero(tess.sides < 3)
    if len(collapsed):
        raise TessellationError(f"cell of generator {collapsed[0]} "
                                f"collapsed to fewer than 3 corners")
    volume = tess.pattern.box.volume
    total = float(sum(tess.area.tolist()))
    if not math.isclose(total, volume, rel_tol=AREA_RTOL):
        raise TessellationError(
            f"cell areas sum to {total!r}, expected {volume!r}")
    generator = np.repeat(np.arange(len(tess.sides)), tess.sides)
    nxt = _next_corner(tess.ptr)
    (ax, ay), (bx, by) = tess.polygon.T, tess.polygon[nxt].T
    cx, cy = tess.polygon[nxt[nxt]].T
    gx, gy = tess.pattern.points[generator].T
    scale = np.maximum(1.0, np.maximum.reduceat(
        np.abs(tess.polygon).max(axis=1), tess.ptr[:-1]))[generator]
    concave = ((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
               < -1e-9 * scale * scale)
    outside = (bx - ax) * (gy - ay) - (by - ay) * (gx - ax) <= 0
    bad = np.flatnonzero(concave | outside)
    if len(bad) and concave[bad[0]]:
        raise TessellationError(
            f"cell of generator {generator[bad[0]]} is not convex")
    if len(bad):
        raise TessellationError(
            f"generator {generator[bad[0]]} lies outside its cell")


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


def cell_statistics(tess: Tessellation) -> CellStats:
    return _pooled_stats([tess])


def ensemble_cell_statistics(patterns: Iterable[PointPattern]) -> CellStats:
    """Cell statistics pooled over the Voronoi cells of many patterns."""
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    if len({p.dim for p in patterns}) != 1:
        raise ValueError("patterns mix dimensions")
    return _pooled_stats([voronoi(p) for p in patterns])


def _pooled_stats(tessellations) -> CellStats:
    areas = np.concatenate([t.area for t in tessellations])
    counts = np.bincount(np.concatenate([t.sides for t in tessellations]))
    edges = np.concatenate([
        np.hypot(*(t.polygon[_next_corner(t.ptr)] - t.polygon).T)
        for t in tessellations])
    return CellStats(
        n_cells=len(areas),
        mean_area=float(areas.mean()),
        cv_area=_cv(areas),
        side_histogram={s: int(counts[s]) for s in np.flatnonzero(counts).tolist()},
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

    CSR faces as in Tessellation, with stored area and sides columns;
    generators are the seed points when known (None for loaded files).
    faces holds FaceRecord views of the same data, built on first access.
    """

    rule: str
    lengths: tuple
    vertices: np.ndarray
    ptr: np.ndarray
    corner_row: np.ndarray
    corner_offset: np.ndarray
    area: np.ndarray
    sides: np.ndarray
    provenance: str = ""
    generators: np.ndarray | None = None

    @cached_property
    def faces(self) -> tuple:
        ptr = self.ptr.tolist()
        corners = _corner_refs(self.corner_row, self.corner_offset)
        return tuple(FaceRecord(corners=tuple(corners[s:e]), area=a, sides=m)
                     for s, e, a, m in zip(ptr, ptr[1:], self.area.tolist(),
                                           self.sides.tolist()))


def face_model(obj) -> FaceModel:
    """Build the face model of a Triangulation or Tessellation."""
    if isinstance(obj, Triangulation):
        n_faces = len(obj.triangles)
        return FaceModel(rule="delaunay", lengths=obj.pattern.box.lengths,
                         vertices=obj.pattern.points,
                         ptr=np.arange(0, 3 * n_faces + 1, 3),
                         corner_row=obj.vertex.ravel(),
                         corner_offset=obj.offset.reshape(-1, 2),
                         area=obj.areas, sides=np.full(n_faces, 3),
                         provenance=obj.pattern.provenance)
    if isinstance(obj, Tessellation):
        return FaceModel(rule="voronoi", lengths=obj.pattern.box.lengths,
                         vertices=obj.vertices, ptr=obj.ptr,
                         corner_row=obj.corner_row,
                         corner_offset=obj.corner_offset, area=obj.area,
                         sides=obj.sides, provenance=obj.pattern.provenance,
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
                 f"n_faces={len(model.sides)}")
    lines.append(f"provenance={model.provenance}")
    lines.extend(f"v {_F17.format(vx)} {_F17.format(vy)}"
                 for vx, vy in np.asarray(model.vertices).tolist())
    corners = [f"{r} {ox} {oy}" for r, (ox, oy)
               in _corner_refs(model.corner_row, model.corner_offset)]
    ptr = model.ptr.tolist()
    lines.extend(
        f"f {e - s} {' '.join(corners[s:e])} {_F17.format(area)} {sides}"
        for s, e, area, sides in zip(ptr, ptr[1:], model.area.tolist(),
                                     model.sides.tolist()))
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
    for k, line in enumerate(raw[3:3 + n_vertices]):
        parts = line.split()
        if len(parts) != 3 or parts[0] != "v":
            raise bad("malformed vertex line", 4 + k)
        try:
            vertices[k] = (float(parts[1]), float(parts[2]))
        except ValueError:
            raise bad("malformed vertex coordinates", 4 + k) from None

    counts, corners, areas, sides = [], [], [], []
    for lineno, line in enumerate(raw[3 + n_vertices:], start=4 + n_vertices):
        parts = line.split()
        try:
            if len(parts) < 2 or parts[0] != "f":
                raise ValueError
            m = int(parts[1])
            if m < 3 or len(parts) != 2 + 3 * m + 2:
                raise ValueError
            cols = [int(v) for v in parts[2:2 + 3 * m]]
            if not all(0 <= idx < n_vertices for idx in cols[::3]):
                raise ValueError
            areas.append(float(parts[2 + 3 * m]))
            sides.append(int(parts[3 + 3 * m]))
        except ValueError:
            raise bad("malformed face line", lineno) from None
        counts.append(m)
        corners.extend(cols)
    corners = np.array(corners, dtype=np.int64).reshape(-1, 3)
    return FaceModel(rule=rule, lengths=lengths, vertices=vertices,
                     ptr=np.cumsum([0, *counts]), corner_row=corners[:, 0],
                     corner_offset=corners[:, 1:],
                     area=np.array(areas, dtype=float),
                     sides=np.array(sides, dtype=np.int64),
                     provenance=provenance)
