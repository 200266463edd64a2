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
read by validation and the Voronoi walk, which follows w around i.

The Voronoi tessellation is read off as the dual.  A pattern with fewer
than three points, or too sparse for a triangulation of its own box, is
tessellated the same way on a covering torus of box copies, and the cells
of the first copy are folded back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
    entries, two per edge, kept in step by the flip pass.
    """

    pattern: PointPattern
    triangles: tuple
    circumcenters: np.ndarray
    circumradii: np.ndarray
    areas: np.ndarray
    half_edges: dict = field(repr=False, compare=False)

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
        return len(self.half_edges) // 2

    def edge_keys(self) -> list:
        """Sorted (i, j, delta) keys, one per edge: j's image at offset
        delta is joined to point i, with (i, (0, 0)) < (j, delta)."""
        return [(i, j, delta) for i, (j, delta)
                in sorted(filter(_is_edge_key, self.half_edges))]


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
    tri = Triangulation(pattern=pattern, triangles=triangles,
                        circumcenters=centers, circumradii=radii, areas=areas,
                        half_edges=table)
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
    violations = 0
    for t, inside in enumerate(hits):
        member = {b for b, _ in tri.triangles[t]}
        violations += sum(1 for p in inside if p not in member)
    return violations


def _degenerate_edges(tri: Triangulation, tol: float):
    """Edges whose two adjacent circumcenters coincide (cocircular quads).

    Decided once per edge in the frame of its key's first vertex, so both
    incident cells later agree on whether the dual edge has zero length.
    Returns the set of degenerate half-edges, both directions, and the
    (left, right) triangle pairs across them as an (m, 2) array.
    """
    table = tri.half_edges
    keys = list(filter(_is_edge_key, table))
    ends = [(table[h], table[_twin(h)], h[1][1]) for h in keys]
    pairs = np.array([(left[0], right[0]) for left, right, _ in ends])
    shifts = np.array([(*left[1], *_oadd(right[1], d)) for left, right, d in ends])
    lengths = np.asarray(tri.pattern.box.lengths)
    c0 = tri.circumcenters[pairs[:, 0]] + shifts[:, :2] * lengths
    c1 = tri.circumcenters[pairs[:, 1]] + shifts[:, 2:] * lengths
    hit = np.hypot(*(c0 - c1).T) <= tol
    degenerate = {h for h, flag in zip(keys, hit.tolist()) if flag}
    return degenerate | {_twin(h) for h in degenerate}, pairs[hit]


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
        built = _voronoi_dual(cover).cells[:n]
    except TessellationError as err:
        raise TessellationError(
            f"could not tessellate {n} points in the {lengths[0]:g}x{lengths[1]:g} "
            f"box on its {reps[0]}x{reps[1]} covering torus: {err}") from err

    corners = np.vstack([c.polygon for c in built])
    wrapped = wrap_point(corners, box)
    tol = MERGE_TOL_FACTOR * box.min_length
    near = cKDTree(wrapped, boxsize=lengths).query_ball_point(wrapped, tol)
    rows = np.empty(len(corners), dtype=int)
    table = []
    for k, hits in enumerate(near):
        first = min(hits)
        if first < k:
            rows[k] = rows[first]
        else:
            rows[k] = len(table)
            table.append(wrapped[k])
    table = np.array(table)
    offsets = np.rint((corners - table[rows]) / lengths).astype(int)
    refs = [(int(r), (int(ox), int(oy))) for r, (ox, oy) in zip(rows, offsets)]
    ends = np.cumsum([c.sides for c in built])
    cells = tuple(replace(c, loop=tuple(refs[end - c.sides:end]),
                          neighbors=tuple(j % n for j in c.neighbors))
                  for c, end in zip(built, ends))
    return Tessellation(pattern=pattern, cells=cells, vertices=table)


def _voronoi_dual(pattern: PointPattern) -> Tessellation:
    # scipy.sparse.csgraph is imported here, not at module level, so it
    # stays off the start-up of every command
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    tri = delaunay(pattern)
    table = tri.half_edges
    lengths = np.asarray(pattern.box.lengths)
    tol = MERGE_TOL_FACTOR * pattern.box.min_length
    degenerate, joined = _degenerate_edges(tri, tol)

    # Circumcenters joined across degenerate edges share one row of the
    # vertex table.  connected_components numbers the classes in order of
    # their smallest triangle id, which is also the row order.
    graph = coo_matrix((np.ones(len(joined)), (joined[:, 0], joined[:, 1])),
                       shape=(len(tri.triangles),) * 2)
    _, labels = connected_components(graph, directed=False)
    first = np.unique(labels, return_index=True)[1]
    vertices = wrap_point(tri.circumcenters[first], pattern.box)
    rows = labels.tolist()

    # The walk around i starts at its smallest half-edge (i, u).  The
    # checked table holds no half-edge twice, pairs each with its twin and
    # uses every point, so each walk exists and closes.
    start: dict = {}
    for i, u in table:
        if u < start.setdefault(i, u):
            start[i] = u

    cells = []
    for i in range(len(pattern)):
        # (i, u, w) is CCW, so following w walks CCW around i; the edge
        # i-w is the one crossed into the next triangle.
        walk = [table[(i, start[i])]]
        while walk[-1][2] != start[i]:
            walk.append(table[(i, walk[-1][2])])
        m = len(walk)
        # Collapse runs of triangles joined by degenerate edges: each run
        # contributes one polygon corner; the crossing edge that ends a run
        # is a real cell side and names the neighbor across it.
        corners = [tri.circumcenters[tid] + np.asarray(shift) * lengths
                   for tid, shift, _ in walk]
        keep = [k for k, (_, _, w) in enumerate(walk)
                if (i, w) not in degenerate]
        if len(keep) < 3:
            raise TessellationError(
                f"cell of generator {i} collapsed to fewer than 3 corners"
            )
        polygon = np.array([corners[(k + 1) % m] for k in keep])
        # Side j runs from polygon[j] to polygon[j+1] and is dual to the
        # kept crossing that ends the next corner's run.
        neighbors = tuple(walk[keep[(j + 1) % len(keep)]][2][0]
                          for j in range(len(keep)))
        loop = []
        for k in keep:
            row = rows[walk[(k + 1) % m][0]]
            off = np.rint((corners[(k + 1) % m] - vertices[row]) / lengths)
            loop.append((row, (int(off[0]), int(off[1]))))
        area = _shoelace(polygon)
        cells.append(Cell(generator=i, polygon=polygon, loop=tuple(loop),
                          area=area, sides=len(polygon), neighbors=neighbors))
    return Tessellation(pattern=pattern, cells=tuple(cells), vertices=vertices)


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
