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

One half-edge table holds the torus edge structure, as numpy arrays over
the triangle rows vertex (F, 3) and offset (F, 3, 2).  Half-edge 3t + p runs
from corner p to corner p + 1 of triangle t.  Its key (src, dst, delta) is
the directed edge from point src at offset (0, 0) to point dst at offset
delta, so dst is given in src's frame, and its shift moves triangle t into
src's frame.  twin pairs each key with its reverse (dst, src, -delta),
order sorts the half-edges by key, and the half-edge with
(src, (0, 0)) < (dst, delta) keys its edge.  The table is built and checked
once per hull candidate, rebuilt after each flip sweep that rewrote
triangles, and built once more over the sorted triangles; validation and
the dual walk read that last one.

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

MERGE_TOL_FACTOR = 1e-10
AREA_RTOL = 1e-9
CIRCUMCIRCLE_RTOL = 1e-9

_LIFT_ETA_FACTOR = 1e-10
_FLIP_BLOCK = 4096  # flip quads turned into Python floats at once; bounds memory
_COVER_MAX_POINTS = 4096
_TILE_OFFSETS = [(ox, oy) for ox in (-1, 0, 1) for oy in (-1, 0, 1)]


class _TooSparseError(TessellationError):
    """A 1-sheet build failed because the pattern is too sparse for its box;
    voronoi() answers it with the covering torus."""


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


def _anchored(vertex: np.ndarray, offset: np.ndarray) -> tuple:
    """Each triangle rotated to start at its smallest (index, ox, oy)
    corner, and moved so that corner sits at offset (0, 0)."""
    first = np.lexsort((offset[..., 1], offset[..., 0], vertex), axis=1)[:, :1]
    turn = (first + np.arange(3)) % 3
    offset = np.take_along_axis(offset, turn[..., None], axis=1)
    return (np.take_along_axis(vertex, turn, axis=1),
            offset - offset[:, :1])


def _canonical(vertex: np.ndarray, offset: np.ndarray) -> tuple:
    """The distinct CCW triangles, anchored, in sorted row order."""
    vertex, offset = _anchored(vertex, offset)
    rows = np.unique(np.concatenate((vertex[..., None], offset), axis=2)
                     .reshape(-1, 9), axis=0).reshape(-1, 3, 3)
    return rows[..., 0], rows[..., 1:]


def _half_edge_arrays(vertex: np.ndarray, offset: np.ndarray) -> tuple:
    """The half-edge table (src, dst, delta, shift, twin, order) of the
    triangle rows; see the module docstring.  The k-th key and the k-th
    reversed key (dst, src, -delta) in sorted order are twins."""
    src = vertex.ravel()
    dst = np.roll(vertex, -1, axis=1).ravel()
    shift = -offset.reshape(-1, 2)
    delta = np.roll(offset, -1, axis=1).reshape(-1, 2) + shift
    order = np.lexsort((delta[:, 1], delta[:, 0], dst, src))
    twin = np.empty_like(order)
    twin[order] = np.lexsort((-delta[:, 1], -delta[:, 0], src, dst))
    return src, dst, delta, shift, twin, order


def _is_key(src: np.ndarray, dst: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Mask of the half-edges that key their edge: (src, (0, 0)) < (dst, delta)."""
    dx, dy = delta.T
    return (src < dst) | ((src == dst) & ((dx > 0) | ((dx == 0) & (dy > 0))))


def _prev(h: np.ndarray) -> np.ndarray:
    """The half-edge before h in its triangle: it ends at h's source and
    starts at the corner opposite h."""
    return h - h % 3 + (h + 2) % 3


def _check_structure(edges: tuple, n_points: int) -> bool:
    """6N half-edges (so F = 2N faces), no key twice, every half-edge
    paired with its reverse, and every point a source."""
    src, dst, delta, _, twin, order = edges
    key = np.column_stack((src, dst, delta))
    ordered = key[order]
    return bool(len(src) == 6 * n_points
                and np.all(np.any(ordered[1:] != ordered[:-1], axis=1))
                and np.array_equal(key[twin], np.column_stack((dst, src, -delta)))
                and np.array_equal(np.unique(src), np.arange(n_points)))


def _initial_triangulation(pattern: PointPattern, ranks: np.ndarray, eta: float):
    """Candidate triangulation from the lower hull of the lifted 3x3 tiling,
    as canonical vertex (F, 3) and offset (F, 3, 2) rows.

    Each point gets the same finite height in all nine tiles, so whatever
    Qhull decides about near-cocircular quadruples it decides identically
    for every copy; the exact flip pass afterwards removes any remaining
    dependence on this stage.  The heights are strictly convex in the rank:
    on a lattice the rank is affine in the site index, and affine heights
    would leave every lifted cocircular quad coplanar.  The paraboloid is
    centred on the box, which keeps the lifted coordinate small on long
    covering tori.  Each facet is oriented CCW by one exact orient2d in the
    frame of its smallest corner.
    """
    pts = pattern.points
    size = pattern.box.lengths_array()
    n = len(pts)
    tiles = np.array(_TILE_OFFSETS)
    ghost = (pts[None] + tiles[:, None] * size).reshape(-1, 2)
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
    vertex, offset = _anchored(kept.astype(np.int64) % n, tiles[kept // n])
    sides = np.array([orient2d(a, b, c)
                      for a, b, c in (pts[vertex] + offset * size).tolist()])
    if np.any(sides == 0):
        raise TessellationError("degenerate zero-area triangle")
    cw = sides < 0
    vertex[cw, 1:] = vertex[cw, :0:-1]
    offset[cw, 1:] = offset[cw, :0:-1]
    return _canonical(vertex, offset)


def _quads(h: np.ndarray, edges: tuple) -> tuple:
    """The quads (a, b, c, d) of the key half-edges h, as point indices
    (m, 4) and offsets (m, 4, 2) in a's frame: the edge a -> b, c left of
    it and d right of it."""
    src, dst, delta, shift, twin, _ = edges
    r = twin[h]
    hp, rp = _prev(h), _prev(r)
    quad = np.column_stack((src[h], dst[h], src[hp], src[rp]))
    qoff = np.stack((np.zeros_like(delta[h]), delta[h], shift[h] - shift[hp],
                     shift[r] - shift[rp] + delta[h]), axis=1)
    return quad, qoff


def _flip_to_delaunay(vertex: np.ndarray, offset: np.ndarray, edges: tuple,
                      pattern: PointPattern, ranks: np.ndarray) -> tuple:
    """Lawson's edge-flip loop with exact, symbolically perturbed tests.

    Takes the triangle rows with their half-edge table and returns the
    canonical rows of the Delaunay triangulation.  A sweep tests its
    candidate edges in key order: every edge at first, then the edges of
    the triangles the previous sweep rewrote.  An edge whose triangle this
    sweep already flipped waits for the next sweep.

    Every edge is examined in the frame of its key's first vertex, so a
    given torus edge always sees the same floating-point coordinates no
    matter which triangle pair brought it up; that keeps decisions
    consistent across periodic copies.  Terminates because each convex
    flip strictly lowers the lifted surface; the sweep cap turns any
    failure of that argument into an error instead of a hang.
    """
    pts = pattern.points
    size = pattern.box.lengths_array()
    vertex, offset = vertex.copy(), offset.copy()
    rewritten = np.ones(len(vertex), dtype=bool)
    for _ in range(64 + 2 * len(pts)):
        src, dst, delta, _, twin, order = edges
        h = order[_is_key(src, dst, delta)[order]]
        h = h[rewritten[h // 3] | rewritten[twin[h] // 3]]
        flipped = set()
        for block in np.split(h, range(_FLIP_BLOCK, len(h), _FLIP_BLOCK)):
            quad, qoff = _quads(block, edges)
            for k, (t, u, (pa, pb, pc, pd), rank) in enumerate(zip(
                    (block // 3).tolist(), (twin[block] // 3).tolist(),
                    (pts[quad] + qoff * size).tolist(), ranks[quad].tolist())):
                if t in flipped or u in flipped:
                    continue
                s = incircle_perturbed(pa, pb, pc, pd, rank)
                if s == 0:
                    raise TessellationError(
                        "unresolved degeneracy after symbolic perturbation"
                    )
                if s < 0:
                    continue
                # Flip only strictly convex quadrilaterals (a, d, b, c).
                if (orient2d(pa, pd, pb) <= 0 or orient2d(pd, pb, pc) <= 0
                        or orient2d(pb, pc, pa) <= 0
                        or orient2d(pc, pa, pd) <= 0):
                    continue
                (i, j, c, d), (_, ob, oc, od) = quad[k].tolist(), qoff[k].tolist()
                vertex[t], offset[t] = (i, d, c), ((0, 0), od, oc)
                vertex[u], offset[u] = (d, j, c), (od, ob, oc)
                flipped |= {t, u}
        if not flipped:
            return _canonical(vertex, offset)
        rewritten[:] = False
        rewritten[list(flipped)] = True
        edges = _half_edge_arrays(vertex, offset)
    raise TessellationError("edge-flip pass did not converge")


@dataclass(frozen=True)
class Triangulation:
    """Periodic Delaunay triangulation.

    vertex (F, 3) and offset (F, 3, 2) hold the triangles as integer rows,
    CCW, each from its smallest (index, ox, oy) corner at offset (0, 0), in
    sorted row order; triangles holds the same rows as (index, offset)
    triples.  circumcenters and areas are per-triangle, evaluated in each
    triangle's frame (so circumcenters may fall slightly outside the box).
    half_edges is the table (src, dst, delta, shift, twin, order) of those
    rows, 6N half-edges, two per edge (see the module docstring).
    """

    pattern: PointPattern
    triangles: tuple
    circumcenters: np.ndarray
    circumradii: np.ndarray
    areas: np.ndarray
    half_edges: tuple = field(repr=False, compare=False)
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
        return len(self.half_edges[0]) // 2

    def edge_keys(self) -> list:
        """Sorted (i, j, delta) keys, one per edge: j's image at offset
        delta is joined to point i, with (i, (0, 0)) < (j, delta)."""
        src, dst, delta, _, _, order = self.half_edges
        h = order[_is_key(src, dst, delta)[order]]
        return [(i, j, (dx, dy)) for i, j, (dx, dy)
                in zip(src[h].tolist(), dst[h].tolist(), delta[h].tolist())]


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
        vertex, offset = _initial_triangulation(pattern, ranks,
                                                eta * 100.0 ** attempt)
        edges = _half_edge_arrays(vertex, offset)
        if _check_structure(edges, n):
            break
    else:
        raise _TooSparseError(
            "could not assemble a consistent periodic triangulation; a "
            "triangle may span more than one box period"
        )
    vertex, offset = _flip_to_delaunay(vertex, offset, edges, pattern, ranks)
    corners = pattern.points[vertex] + offset * pattern.box.lengths_array()
    centers = np.empty((len(vertex), 2))
    radii = np.empty(len(vertex))
    areas = np.empty(len(vertex))
    for t, (a, b, c) in enumerate(corners.tolist()):
        cc = circumcenter(a, b, c)
        centers[t] = cc
        radii[t] = math.hypot(cc[0] - a[0], cc[1] - a[1])
        areas[t] = 0.5 * abs(
            (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        )
    tri = Triangulation(
        pattern=pattern,
        triangles=tuple(tuple(zip(vs, map(tuple, os)))
                        for vs, os in zip(vertex.tolist(), offset.tolist())),
        circumcenters=centers, circumradii=radii, areas=areas,
        half_edges=_half_edge_arrays(vertex, offset), vertex=vertex,
        offset=offset)
    _validate_triangulation(tri)
    return tri


def _validate_triangulation(tri: Triangulation):
    pattern = tri.pattern
    if not _check_structure(tri.half_edges, len(pattern)):
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


def _degenerate_edges(tri: Triangulation, tol: float):
    """Mask of the half-edges whose two circumcenters coincide (cocircular
    quads), and the (left, right) triangle pairs across them, (m, 2).

    Decided once per edge in the frame of its key's first vertex, so both
    incident cells later agree on whether the dual edge has zero length.
    """
    src, dst, delta, shift, twin, _ = tri.half_edges
    key = np.flatnonzero(_is_key(src, dst, delta))
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
    src, dst, _, shift, twin, order = tri.half_edges
    degenerate, joined = _degenerate_edges(
        tri, MERGE_TOL_FACTOR * pattern.box.min_length)

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
    step = twin[_prev(h)]
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
