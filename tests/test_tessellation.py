import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import hupa.tessellation
from hupa.errors import (DegenerateInputError, PatternFormatError,
                         TessellationError)
from hupa.generators import GeneratorSpec, generate
from hupa.pattern import BoxDomain, PointPattern, wrap_point
from hupa.tessellation import (FaceModel, cell_statistics, circumcircle_violations,
                               delaunay, ensemble_cell_statistics, face_model,
                               load_tess, save_tess, voronoi)
from oracles import (half_edge_dict_reference, incircle_fraction,
                     shoelace_area, tessellation_fault_reference,
                     voronoi_cell_faults, voronoi_dual_reference)

SQRT3 = math.sqrt(3.0)


def make_pattern(points, lengths):
    return PointPattern(points=np.asarray(points, dtype=float),
                        box=BoxDomain(lengths=tuple(lengths)))


def poisson(box, rho, seed):
    return generate(GeneratorSpec(kind="poisson", box=BoxDomain(lengths=box),
                                  seed=seed, params={"intensity": rho}))


def lattice(box, kind, spacing=1.0, seed=0):
    return generate(GeneratorSpec(kind="lattice", box=BoxDomain(lengths=box),
                                  seed=seed,
                                  params={"lattice_kind": kind, "spacing": spacing}))


def triangle_corners(model, face):
    lengths = np.asarray(model.lengths)
    return np.array([model.vertices[i] + np.asarray(off) * lengths
                     for i, off in face.corners])


class TestDelaunayStructure:
    def test_counts_and_euler(self, poisson32):
        tri = delaunay(poisson32)
        n = len(poisson32)
        assert tri.n_faces == 2 * n
        assert tri.n_edges == 3 * n
        assert tri.n_vertices - tri.n_edges + tri.n_faces == 0

    def test_areas_tile_the_box(self, poisson32):
        tri = delaunay(poisson32)
        assert math.isclose(float(tri.areas.sum()), poisson32.box.volume,
                            rel_tol=1e-9)

    def test_dual_and_validation_reuse_the_table(self, poisson32,
                                                 monkeypatch):
        # delaunay builds the table of its final triangles; once it returns,
        # neither validation nor the dual walk builds another
        calls = []
        build = hupa.tessellation._half_edge_arrays
        triangulate = hupa.tessellation.delaunay

        def counted(vertex, offset):
            calls.append(phase[-1])
            return build(vertex, offset)

        def then_validate(pattern):
            tri = triangulate(pattern)
            phase.append("after")
            hupa.tessellation._validate_triangulation(tri)
            return tri

        phase = ["delaunay"]
        monkeypatch.setattr(hupa.tessellation, "_half_edge_arrays", counted)
        monkeypatch.setattr(hupa.tessellation, "delaunay", then_validate)
        voronoi(poisson32)
        assert "delaunay" in calls
        assert "after" not in calls

    def test_empty_circumcircles(self, poisson32):
        assert circumcircle_violations(delaunay(poisson32)) == 0

    def test_circumcircle_violations_match_a_loop(self, poisson32):
        # doubled circumradii take in points beyond each triangle's corners
        tri = delaunay(poisson32)
        tri = replace(tri, circumradii=2.0 * tri.circumradii)
        hits = poisson32.tree.query_ball_point(
            wrap_point(tri.circumcenters, poisson32.box),
            tri.circumradii * (1.0 - hupa.tessellation.CIRCUMCIRCLE_RTOL))
        want = sum(p not in {b for b, _ in verts}
                   for verts, inside in zip(tri.triangles, hits)
                   for p in inside)
        assert circumcircle_violations(tri) == want > 0

    def test_triangular_lattice_equilateral(self):
        pat = lattice((8.0, 8.0 * SQRT3 / 2.0), "triangular")
        tri = delaunay(pat)
        assert tri.n_faces == 2 * len(pat)
        target = SQRT3 / 4.0
        assert np.all(np.abs(tri.areas - target) <= 1e-9)
        # every edge has unit length
        pts = pat.points
        lengths = np.asarray(pat.box.lengths)
        for ia, ib, delta in tri.edge_keys():
            d = pts[ib] + np.asarray(delta) * lengths - pts[ia]
            assert math.isclose(math.hypot(*d), 1.0, abs_tol=1e-9)

    def test_square_lattice_cocircular_still_valid(self):
        # every quad of a square lattice is cocircular; tie-breaking must
        # still deliver a structurally valid triangulation
        pat = lattice((8.0, 8.0), "square")
        tri = delaunay(pat)
        assert tri.n_faces == 2 * len(pat)
        assert np.all(np.abs(tri.areas - 0.5) <= 1e-12)
        assert circumcircle_violations(tri) == 0

    def test_triangle_geometry_matches_stored_areas(self, poisson32):
        tri = delaunay(poisson32)
        model = face_model(tri)
        for face in model.faces:
            poly = triangle_corners(model, face)
            assert math.isclose(abs(shoelace_area(poly)), face.area,
                                rel_tol=1e-9)

    def test_circumcenter_equidistant_from_triangle_vertices(self, poisson32):
        tri = delaunay(poisson32)
        model = face_model(tri)
        for t, face in enumerate(model.faces[:50]):
            poly = triangle_corners(model, face)
            cc = tri.circumcenters[t]
            dists = np.hypot(*(poly - cc).T)
            assert np.allclose(dists, tri.circumradii[t], rtol=1e-9)

    def test_permutation_invariance(self):
        pat = poisson((16.0, 16.0), 1.0, seed=41)
        rng = np.random.default_rng(5)
        perm = rng.permutation(len(pat))
        shuffled = make_pattern(pat.points[perm], pat.box.lengths)

        def geometric_keys(tri):
            centers = wrap_point(tri.circumcenters, tri.pattern.box)
            return sorted(zip(np.round(centers[:, 0], 6),
                              np.round(centers[:, 1], 6),
                              np.round(tri.areas, 6)))

        assert geometric_keys(delaunay(pat)) == geometric_keys(delaunay(shuffled))

    def test_rejects_small_or_wrong_inputs(self):
        with pytest.raises(TessellationError):
            delaunay(make_pattern([[1.0, 1.0], [2.0, 2.0]], (5.0, 5.0)))
        with pytest.raises(TessellationError):
            delaunay(make_pattern([[1.0, 1.0, 1.0]] , (5.0, 5.0, 5.0)))

    def test_rejects_coincident_points(self):
        pts = [[1.0, 1.0], [3.0, 2.0], [1.0, 1.0], [4.0, 4.0]]
        with pytest.raises(DegenerateInputError):
            delaunay(make_pattern(pts, (5.0, 5.0)))

    def test_too_sparse_for_box(self):
        pts = [[50.0, 50.0], [50.5, 50.0], [50.0, 50.5]]
        with pytest.raises(TessellationError):
            delaunay(make_pattern(pts, (100.0, 100.0)))

    def test_degenerate_edges_match_a_loop(self, poisson32):
        # one loop over the edges, each decided in its key's frame
        for pat, n_degenerate in ((lattice((8.0, 8.0), "square"), 64),
                                  (poisson32, 0)):
            tri = delaunay(pat)
            tol = hupa.tessellation.MERGE_TOL_FACTOR * pat.box.min_length
            lengths = np.asarray(pat.box.lengths)
            table = half_edge_dict_reference(tri.triangles)
            want = set()
            for (i, (j, d)), (t0, s0, _) in table.items():
                if (i, (0, 0)) < (j, d):
                    twin = (j, (i, (-d[0], -d[1])))
                    t1, s1, _ = table[twin]
                    c0 = tri.circumcenters[t0] + np.asarray(s0) * lengths
                    c1 = (tri.circumcenters[t1]
                          + (np.asarray(s1) + np.asarray(d)) * lengths)
                    if math.hypot(*(c0 - c1)) <= tol:
                        want |= {(i, (j, d)), twin}
            mask, joined = hupa.tessellation._degenerate_edges(tri, tol)
            src, dst, delta = tri.half_edges[:3]
            got = {(src[h], (dst[h], tuple(delta[h])))
                   for h in np.flatnonzero(mask).tolist()}
            assert got == want
            assert len(joined) == n_degenerate == len(want) // 2

    def test_check_structure_rejects_broken_tables(self, poisson32):
        n = len(poisson32)
        tri = delaunay(poisson32)
        build = hupa.tessellation._half_edge_arrays
        check = hupa.tessellation._check_structure
        assert check(build(tri.vertex, tri.offset), n)
        # a duplicated half-edge: triangle 0 twice, triangle 1 gone
        vertex, offset = tri.vertex.copy(), tri.offset.copy()
        vertex[1], offset[1] = vertex[0], offset[0]
        assert not check(build(vertex, offset), n)
        # a missing twin, with the count of half-edges kept at 6N
        offset = tri.offset.copy()
        offset[0, 1, 0] += 5
        lonely = build(tri.vertex, offset)
        assert len(lonely[0]) == 6 * n
        assert not check(lonely, n)
        # point 0 unused: every index moved up by one, twins all present
        assert not check(build(tri.vertex + 1, tri.offset), n)


class TestVoronoi:
    def test_single_point(self):
        tess = voronoi(make_pattern([[2.0, 3.0]], (5.0, 5.0)))
        assert len(tess.cells) == 1
        cell = tess.cells[0]
        assert math.isclose(cell.area, 25.0, rel_tol=1e-12)
        assert cell.sides == 4
        assert cell.neighbors == (0, 0, 0, 0)

    def test_two_points_equal_halves(self):
        tess = voronoi(make_pattern([[1.0, 2.0], [4.0, 2.0]], (6.0, 4.0)))
        assert len(tess.cells) == 2
        for cell in tess.cells:
            assert math.isclose(cell.area, 12.0, rel_tol=1e-9)
            assert cell.sides == 4
        # vertical sides face the other point; the cell spans the full box
        # height, so top and bottom wrap onto the cell itself
        assert sorted(tess.cells[0].neighbors) == [0, 0, 1, 1]

    def test_empty_pattern(self):
        with pytest.raises(DegenerateInputError):
            voronoi(make_pattern(np.empty((0, 2)), (4.0, 4.0)))

    def test_two_coincident_points(self):
        with pytest.raises(DegenerateInputError):
            voronoi(make_pattern([[1.0, 1.0], [1.0, 1.0]], (4.0, 4.0)))

    def test_areas_tile_the_box(self, poisson32):
        tess = voronoi(poisson32)
        total = sum(c.area for c in tess.cells)
        assert math.isclose(total, poisson32.box.volume, rel_tol=1e-9)

    def test_mean_sides_exactly_six(self, poisson32):
        tess = voronoi(poisson32)
        assert sum(c.sides for c in tess.cells) == 6 * len(tess.cells)
        assert tess.mean_sides == 6.0

    def test_square_lattice_unit_cells(self):
        tess = voronoi(lattice((8.0, 8.0), "square"))
        for cell in tess.cells:
            assert cell.sides == 4
            assert math.isclose(cell.area, 1.0, rel_tol=1e-9)
        stats = cell_statistics(tess)
        assert stats.cv_area == 0.0
        assert stats.side_histogram == {4: 64}

    def test_triangular_lattice_hexagons(self):
        tess = voronoi(lattice((8.0, 8.0 * SQRT3 / 2.0), "triangular"))
        target = SQRT3 / 2.0  # hexagon area at unit spacing
        for cell in tess.cells:
            assert cell.sides == 6
            assert math.isclose(cell.area, target, rel_tol=1e-9)

    def test_loop_references_match_polygon(self, poisson32):
        tess = voronoi(poisson32)
        lengths = np.asarray(poisson32.box.lengths)
        for cell in tess.cells[:40]:
            rebuilt = np.array([tess.vertices[i] + np.asarray(off) * lengths
                                for i, off in cell.loop])
            assert np.allclose(rebuilt, cell.polygon, atol=1e-9)

    def test_cell_contains_its_generator(self, poisson32):
        # generator is strictly inside its own convex cell
        tess = voronoi(poisson32)
        for cell in tess.cells:
            g = poisson32.points[cell.generator]
            poly = cell.polygon
            nxt = np.roll(poly, -1, axis=0)
            cross = ((nxt[:, 0] - poly[:, 0]) * (g[1] - poly[:, 1])
                     - (nxt[:, 1] - poly[:, 1]) * (g[0] - poly[:, 0]))
            assert np.all(cross > 0)

    def test_neighbors_are_symmetric(self, poisson32):
        tess = voronoi(poisson32)
        adj = {c.generator: set(c.neighbors) for c in tess.cells}
        for g, ns in adj.items():
            for n in ns:
                assert g in adj[n]


def assert_valid_cells(tess):
    pat = tess.pattern
    lengths = np.asarray(pat.box.lengths)
    assert len(tess.cells) == len(pat)
    assert np.all((tess.vertices >= 0) & (tess.vertices < lengths))
    for cell in tess.cells:
        assert voronoi_cell_faults(pat.points.tolist(), pat.box.lengths,
                                   cell.generator, cell.polygon.tolist(),
                                   cell.neighbors) == []
        rebuilt = np.array([tess.vertices[i] + np.asarray(off) * lengths
                            for i, off in cell.loop])
        assert np.allclose(rebuilt, cell.polygon, atol=1e-9)


def offset_square_lattice(m, offset):
    sites = [(i, j) for i in range(m) for j in range(m)]
    return make_pattern(np.mod(np.array(sites) + offset, m), (m, m))


class TestCoveringTorus:
    """voronoi() falls back to a covering torus for N < 3 and for patterns
    too sparse for a 1-sheet triangulation of their own box."""

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_offset_square_lattice(self, m):
        rng = np.random.default_rng(500 + m)
        for offset in rng.uniform(0.0, 1.0, size=(4, 2)):
            tess = voronoi(offset_square_lattice(m, offset))
            assert len(tess.cells) == m * m
            for cell in tess.cells:
                assert cell.sides == 4
                assert math.isclose(cell.area, 1.0, rel_tol=1e-9)
            assert_valid_cells(tess)

    @pytest.mark.parametrize("n, seed", [(3, 303), (4, 404), (6, 606)])
    def test_sparse_random_patterns(self, n, seed):
        rng = np.random.default_rng(seed)
        for _ in range(50):
            pat = make_pattern(rng.uniform(0.0, 10.0, size=(n, 2)),
                               (10.0, 10.0))
            assert_valid_cells(voronoi(pat))

    def test_too_sparse_for_delaunay_still_has_voronoi(self):
        pat = make_pattern([[50.0, 50.0], [50.5, 50.0], [50.0, 50.5]],
                           (100.0, 100.0))
        with pytest.raises(TessellationError):
            delaunay(pat)
        tess = voronoi(pat)
        assert math.isclose(sum(c.area for c in tess.cells), 1e4,
                            rel_tol=1e-9)
        assert_valid_cells(tess)

    @pytest.mark.parametrize("points, lengths", [
        ([[2.0, 3.0]], (5.0, 5.0)),
        ([[1.0, 2.0], [4.0, 2.0]], (6.0, 4.0)),
        ([[7.3, 0.2]], (10.0, 1.0)),
        ([[1.1, 0.7], [6.4, 0.25]], (10.0, 1.0)),
        ([[0.3, 2.2], [0.9, 6.8], [0.1, 4.0]], (1.0, 7.3)),
    ])
    def test_small_and_anisotropic_pass_oracle(self, points, lengths):
        assert_valid_cells(voronoi(make_pattern(points, lengths)))

    def test_one_point_in_long_box(self):
        tess = voronoi(make_pattern([[37.5, 0.4]], (100.0, 1.0)))
        (cell,) = tess.cells
        assert cell.sides == 4
        assert math.isclose(cell.area, 100.0, rel_tol=1e-9)
        assert_valid_cells(tess)

    def test_one_point_in_very_long_box(self):
        # the lift is centred on the box, which keeps the lifted coordinate
        # of the 2x701 cover small enough for Qhull
        box = (700.0, 1.0)
        for seed in range(10):
            pts = np.random.default_rng(seed).random((1, 2)) * box
            tess = voronoi(make_pattern(pts, box))
            assert tess.cells[0].sides == 4
            assert math.isclose(tess.cells[0].area, 700.0, rel_tol=1e-9)
            assert_valid_cells(tess)

    def test_cover_cap_raises_before_building(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hupa.tessellation, "_initial_triangulation",
                            lambda *args: calls.append(args))
        with pytest.raises(TessellationError, match="2x5001 covering torus"):
            voronoi(make_pattern([[1.0, 0.5]], (5000.0, 1.0)))
        assert calls == []

    def test_cover_failure_names_the_users_box(self, monkeypatch):
        def too_sparse(pattern):
            raise hupa.tessellation._TooSparseError("hull structure failed")
        monkeypatch.setattr(hupa.tessellation, "_voronoi_dual", too_sparse)
        with pytest.raises(TessellationError) as err:
            voronoi(make_pattern([[1.0, 2.0], [4.0, 3.0], [7.0, 5.0]], (9.0, 6.0)))
        assert type(err.value) is TessellationError
        assert "3 points in the 9x6 box on its 2x2 covering torus" in str(err.value)
        assert "hull structure failed" in str(err.value)
        assert isinstance(err.value.__cause__, hupa.tessellation._TooSparseError)


def assert_same_cells(a, b):
    assert len(a.cells) == len(b.cells)
    for ca, cb in zip(a.cells, b.cells):
        assert ca.generator == cb.generator
        assert math.isclose(ca.area, cb.area, rel_tol=1e-9)
        assert ca.sides == cb.sides
        assert sorted(ca.neighbors) == sorted(cb.neighbors)
        gaps = np.hypot(*(ca.polygon[:, None, :] - cb.polygon[None, :, :]).T)
        assert np.all(gaps.min(axis=0) <= 1e-9)
        assert np.all(gaps.min(axis=1) <= 1e-9)


@given(n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1))
def test_cover_matches_one_sheet(n, seed):
    # the Voronoi diagram does not depend on which torus it is built on
    lengths = (9.0, 6.0)
    rng = np.random.default_rng(seed)
    pat = make_pattern(rng.uniform(0.0, 1.0, size=(n, 2)) * lengths, lengths)
    try:
        one_sheet = hupa.tessellation._voronoi_dual(pat)
    except hupa.tessellation._TooSparseError:
        return
    assert_same_cells(hupa.tessellation._voronoi_cover(pat), one_sheet)


def corner_keys(tri):
    """Each triangle as its corners' coordinates and offsets relative to one
    corner, taking the smallest over the corners: a key that depends on the
    geometry alone, not on the order of the input rows."""
    pts = tri.pattern.points
    return sorted(
        min(sorted((tuple(pts[b]), (o[0] - a[0], o[1] - a[1])) for b, o in verts)
            for _, a in verts)
        for verts in tri.triangles)


@given(n=st.integers(6, 40), seed=st.integers(0, 2**32 - 1))
def test_half_edge_table_properties(n, seed):
    lengths = (9.0, 6.0)
    rng = np.random.default_rng(seed)
    pat = make_pattern(rng.uniform(0.0, 1.0, size=(n, 2)) * lengths, lengths)
    try:
        tri = delaunay(pat)
    except hupa.tessellation._TooSparseError:
        return
    src, dst, delta, shift, twin, order = tri.half_edges
    key = np.column_stack((src, dst, delta))
    assert key[order].tolist() == sorted(key.tolist())
    # every half-edge has its twin
    assert np.array_equal(key[twin], np.column_stack((dst, src, -delta)))
    stars: dict = {}
    for h, ((i, j, dx, dy), (sx, sy)) in enumerate(zip(key.tolist(),
                                                       shift.tolist())):
        # half-edge 3t + p starts at corner p of triangle t, the CCW
        # triangle (i, j, w) moved into i's frame
        moved = [(b, (ox + sx, oy + sy)) for b, (ox, oy) in tri.triangles[h // 3]]
        assert moved[h % 3] == (i, (0, 0))
        assert moved[(h + 1) % 3] == (j, (dx, dy))
        stars.setdefault(i, {})[(j, (dx, dy))] = moved[(h + 2) % 3]
    assert sorted(stars) == list(range(n))
    degrees = 0
    for i, star in stars.items():
        u0 = u = min(star)
        seen = []
        while True:
            seen.append(u)
            u = star[u]
            if u == u0:
                break
            assert len(seen) < len(star)
        assert sorted(seen) == sorted(star)
        degrees += len(seen)
    assert degrees == 6 * n
    shuffled = make_pattern(pat.points[rng.permutation(n)], lengths)
    assert corner_keys(delaunay(shuffled)) == corner_keys(tri)


def incircle_signs(triangles, pattern):
    """Fraction incircle sign of every edge's quad (a, b, c, d), taken in
    the frame of the edge's key: positive when d is inside circle abc."""
    pts, (lx, ly) = pattern.points, pattern.box.lengths
    table = half_edge_dict_reference(triangles)

    def at(b, o):
        return (pts[b][0] + o[0] * lx, pts[b][1] + o[1] * ly)

    signs = []
    for (i, (j, d)), (_, _, w) in table.items():
        if (i, (0, 0)) < (j, d):
            _, _, (k, (ox, oy)) = table[(j, (i, (-d[0], -d[1])))]
            signs.append(incircle_fraction(at(i, (0, 0)), at(j, d), at(*w),
                                           at(k, (ox + d[0], oy + d[1]))))
    return signs


def rows_as_triangles(vertex, offset):
    return [tuple((b, tuple(o)) for b, o in zip(vs, os))
            for vs, os in zip(vertex.tolist(), offset.tolist())]


@given(seed=st.integers(0, 2**20), eta=st.floats(1e-3, 1e-2))
def test_flip_pass_repairs_a_tilted_hull(seed, eta):
    # a lift tilted far beyond the default heights gives hull candidates
    # with illegal edges; the flip pass must turn each into delaunay()'s
    tess = hupa.tessellation
    pat = poisson((12.0, 12.0), 1.0, seed)
    ranks = tess._point_ranks(pat.points)
    vertex, offset = tess._initial_triangulation(pat, ranks, eta)
    edges = tess._half_edge_arrays(vertex, offset)
    assume(tess._check_structure(edges, len(pat)))
    assume(max(incircle_signs(rows_as_triangles(vertex, offset), pat)) > 0)
    vertex, offset = tess._flip_to_delaunay(vertex, offset, edges, pat, ranks)
    tri = delaunay(pat)
    assert rows_as_triangles(vertex, offset) == list(tri.triangles)
    assert max(incircle_signs(tri.triangles, pat)) < 0


def test_flipping_pattern_bytes_are_pinned(tmp_path, monkeypatch):
    # perfbench's pinned pattern needs no flips; this one needs a second
    # sweep, so its bytes pin the flip pass
    pat = poisson((80.0, 80.0), 1.0, seed=1)
    calls = []
    incircle = hupa.tessellation.incircle_perturbed

    def counted(*args):
        calls.append(args)
        return incircle(*args)

    monkeypatch.setattr(hupa.tessellation, "incircle_perturbed", counted)
    tri = delaunay(pat)
    assert len(calls) > 3 * len(pat) == 3 * 6403
    for obj, digest in (
            (tri, "4850f696fe989d9bf7bf1e02c3dd92cd06b741363773d856acbf707af0f89320"),
            (voronoi(pat),
             "9e25bd0640f67dc4ac6e3369c9234c4d81a13ec5b3e4c112b5bf111579b72ecf")):
        save_tess(obj, tmp_path / "out.tess")
        assert hashlib.sha256((tmp_path / "out.tess").read_bytes()).hexdigest() == digest


def reference_pattern(kind, size, seed):
    """A small pattern of one kind: Poisson, square or triangular lattices
    shifted by a random offset (cocircular quads everywhere), a perturbed
    lattice, or 1 to 6 random points (covering torus)."""
    rng = np.random.default_rng(seed)
    if kind == "poisson":
        return poisson((2.0 * size, 1.5 * size), 1.0, seed)
    if kind == "perturbed":
        return generate(GeneratorSpec(
            kind="perturbed_lattice", box=BoxDomain(lengths=(size, size)),
            seed=seed, params={"spacing": 1.0, "jitter": 0.3}))
    if kind == "few":
        lengths = tuple(rng.uniform(1.0, 10.0, size=2))
        return make_pattern(rng.uniform(size=(size - 1, 2)) * lengths, lengths)
    if kind == "square":
        pat = lattice((float(size), float(size)), "square")
    else:
        m = 2 * (size // 2)
        pat = lattice((float(m), m * SQRT3 / 2.0), "triangular")
    return make_pattern(wrap_point(pat.points + rng.uniform(size=2), pat.box),
                        pat.box.lengths)


def assert_matches_reference(tess, tol=None):
    cells, vertices = voronoi_dual_reference(delaunay(tess.pattern), tol)
    assert np.array_equal(tess.vertices, vertices)
    assert len(tess.cells) == len(cells)
    for cell, ref in zip(tess.cells, cells):
        assert np.array_equal(cell.polygon, ref["polygon"])
        assert cell.loop == ref["loop"]
        assert cell.neighbors == ref["neighbors"]
        assert cell.area == ref["area"]
        assert cell.sides == ref["sides"]


@given(kind=st.sampled_from(("poisson", "square", "triangular", "perturbed",
                             "few")),
       size=st.integers(2, 7), seed=st.integers(0, 2**32 - 1))
def test_dual_matches_reference(kind, size, seed):
    # every dual that voronoi() builds, on the pattern's own torus or on its
    # cover, is the reference walk's dual bit for bit
    built = []
    dual = hupa.tessellation._voronoi_dual

    def spy(pattern):
        built.append(dual(pattern))
        return built[-1]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(hupa.tessellation, "_voronoi_dual", spy)
        voronoi(reference_pattern(kind, size, seed))
    assert len(built) == 1
    assert_matches_reference(built[0])


def test_dual_matches_reference_on_1k_poisson():
    assert_matches_reference(
        hupa.tessellation._voronoi_dual(poisson((32.0, 32.0), 1.0, seed=3)))


def test_collapsed_cell_named_like_reference(monkeypatch):
    # a merge tolerance above the shortest cell sides collapses the
    # smallest cells; the first one is named, as the reference walk does
    pat = poisson((16.0, 16.0), 1.0, seed=21)
    factor = 0.02
    monkeypatch.setattr(hupa.tessellation, "MERGE_TOL_FACTOR", factor)
    with pytest.raises(ValueError) as want:
        voronoi_dual_reference(delaunay(pat), factor * 16.0)
    with pytest.raises(TessellationError) as got:
        voronoi(pat)
    assert str(got.value) == str(want.value)
    assert "collapsed to fewer than 3 corners" in str(got.value)


def fault_reference(tess):
    return tessellation_fault_reference(
        tess.pattern.points, tess.pattern.box.volume,
        [(c.generator, c.polygon, c.area) for c in tess.cells])


def reversed_cells(tess, cells):
    polygon = tess.polygon.copy()
    for g in cells:
        s, e = tess.ptr[g], tess.ptr[g + 1]
        polygon[s:e] = polygon[s:e][::-1]
    return replace(tess, polygon=polygon)


def moved_generators(tess, cells):
    points = tess.pattern.points.copy()
    for g in cells:
        points[g] += np.asarray(tess.pattern.box.lengths) / 2.0
    return replace(tess, pattern=make_pattern(
        wrap_point(points, tess.pattern.box), tess.pattern.box.lengths))


def inserted_corner(tess, g, k, point):
    """tess with point inserted into cell g's loop after its corner k."""
    at = tess.ptr[g] + k + 1
    ptr = tess.ptr.copy()
    ptr[g + 1:] += 1
    return replace(
        tess, ptr=ptr, polygon=np.insert(tess.polygon, at, point, axis=0),
        corner_row=np.insert(tess.corner_row, at, 0),
        corner_offset=np.insert(tess.corner_offset, at, (0, 0), axis=0),
        neighbor=np.insert(tess.neighbor, at, tess.neighbor[at - 1]))


class TestValidationMutations:
    """_validate_tessellation on altered arrays gives the message of the
    one-cell-at-a-time reference, naming the same first failing cell."""

    @pytest.fixture(scope="class")
    def tess(self):
        return voronoi(poisson((16.0, 16.0), 1.0, seed=11))

    @staticmethod
    def check(tess, text):
        want = fault_reference(tess)
        with pytest.raises(TessellationError) as got:
            hupa.tessellation._validate_tessellation(tess)
        assert str(got.value) == want
        assert text in want

    def test_valid_tessellation_passes(self, tess):
        hupa.tessellation._validate_tessellation(tess)
        assert fault_reference(tess) is None

    def test_reversed_polygon_is_not_convex(self, tess):
        self.check(reversed_cells(tess, (40, 17)),
                   "cell of generator 17 is not convex")

    def test_moved_generator_lies_outside(self, tess):
        self.check(moved_generators(tess, (33, 9)),
                   "generator 9 lies outside its cell")

    @pytest.mark.parametrize("concave, outside, text", [
        (30, 12, "generator 12 lies outside its cell"),
        (12, 30, "cell of generator 12 is not convex"),
    ])
    def test_first_failing_cell_is_named(self, tess, concave, outside, text):
        self.check(moved_generators(reversed_cells(tess, (concave,)),
                                    (outside,)), text)

    def test_convexity_tolerance_scales_with_the_cell(self, tess):
        # a corner pushed into a side of a cell far from the origin makes a
        # cross product of -0.5 or -2 times the tolerance 1e-9 * scale**2
        far = np.abs(tess.polygon).max(axis=1) > 12.0
        g = int(tess.ptr.searchsorted(np.argmax(far), side="right")) - 1
        poly = tess.polygon[tess.ptr[g]:tess.ptr[g + 1]]
        scale = float(np.abs(poly).max())
        a, c = poly[0], poly[1]
        side = float(np.hypot(*(c - a)))
        inward = np.array([a[1] - c[1], c[0] - a[0]]) / side
        for factor, fault in ((0.5, None),
                              (2.0, f"cell of generator {g} is not convex")):
            push = factor * 1e-9 * scale * scale / side
            bent = inserted_corner(tess, g, 0, (a + c) / 2 + push * inward)
            assert fault_reference(bent) == fault
            if fault is None:
                hupa.tessellation._validate_tessellation(bent)
            else:
                self.check(bent, fault)

    def test_scaled_area_breaks_the_sum(self, tess):
        area = tess.area.copy()
        area[5] *= 1.5
        self.check(replace(tess, area=area), "cell areas sum to ")

    def test_two_corner_cell_collapsed(self, tess):
        keep = np.ones(len(tess.polygon), dtype=bool)
        sides = tess.sides.copy()
        for g in (50, 23):
            keep[tess.ptr[g] + 2:tess.ptr[g + 1]] = False
            sides[g] = 2
        cut = replace(tess, ptr=np.concatenate(([0], np.cumsum(sides))),
                      polygon=tess.polygon[keep],
                      corner_row=tess.corner_row[keep],
                      corner_offset=tess.corner_offset[keep],
                      neighbor=tess.neighbor[keep])
        self.check(cut, "cell of generator 23 collapsed to fewer than 3 corners")


class TestCellStatistics:
    def test_pooled_matches_direct_computation(self, poisson32):
        tess = voronoi(poisson32)
        stats = cell_statistics(tess)
        areas = np.array([c.area for c in tess.cells])
        assert stats.n_cells == len(tess.cells)
        assert math.isclose(stats.mean_area, float(areas.mean()), rel_tol=1e-12)
        assert math.isclose(stats.cv_area,
                            float(areas.std() / areas.mean()), rel_tol=1e-12)
        assert sum(stats.side_histogram.values()) == stats.n_cells
        edges = np.concatenate(
            [np.hypot(*(np.roll(c.polygon, -1, axis=0) - c.polygon).T)
             for c in tess.cells])
        assert math.isclose(stats.mean_edge_length, float(edges.mean()),
                            rel_tol=1e-12)

    def test_ensemble_pools_cells(self):
        pats = [poisson((16.0, 16.0), 1.0, seed=s) for s in (60, 61)]
        pooled = ensemble_cell_statistics(pats)
        singles = [cell_statistics(voronoi(p)) for p in pats]
        assert pooled.n_cells == sum(s.n_cells for s in singles)
        want_mean = (sum(s.mean_area * s.n_cells for s in singles)
                     / pooled.n_cells)
        assert math.isclose(pooled.mean_area, want_mean, rel_tol=1e-12)

    def test_ensemble_rejects_empty_and_mixed(self):
        with pytest.raises(ValueError):
            ensemble_cell_statistics([])

    def test_disorder_widens_area_distribution(self):
        spec = GeneratorSpec(kind="perturbed_lattice",
                             box=BoxDomain(lengths=(16.0, 16.0)), seed=7,
                             params={"spacing": 1.0, "jitter": 0.2})
        ordered = cell_statistics(voronoi(generate(spec)))
        disordered = cell_statistics(voronoi(poisson((16.0, 16.0), 1.0, 7)))
        assert disordered.cv_area > ordered.cv_area


class TestTessIO:
    def test_round_trip_voronoi(self, poisson32, tmp_path):
        tess = voronoi(poisson32)
        path = tmp_path / "cells.tess"
        save_tess(tess, path)
        model = load_tess(path)
        assert model.rule == "voronoi"
        assert model.lengths == poisson32.box.lengths
        assert model.provenance == poisson32.provenance
        assert np.array_equal(model.vertices, tess.vertices)
        assert len(model.faces) == len(tess.cells)
        for face, cell in zip(model.faces, tess.cells):
            assert face.corners == cell.loop
            assert face.area == cell.area
            assert face.sides == cell.sides

    def test_round_trip_delaunay(self, poisson32, tmp_path):
        tri = delaunay(poisson32)
        path = tmp_path / "tri.tess"
        save_tess(tri, path)
        model = load_tess(path)
        assert model.rule == "delaunay"
        assert np.array_equal(model.vertices, poisson32.points)
        assert tuple(f.corners for f in model.faces) == tri.triangles
        assert all(f.sides == 3 for f in model.faces)

    def test_face_model_accepted_by_save(self, poisson32, tmp_path):
        model = face_model(voronoi(poisson32))
        assert isinstance(model, FaceModel)
        path = tmp_path / "model.tess"
        save_tess(model, path)
        again = load_tess(path)
        assert len(again.faces) == len(model.faces)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#something-else\n")
        with pytest.raises(PatternFormatError) as err:
            load_tess(path)
        assert err.value.line == 1

    def test_bad_header_field(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#hupa-tess v1\nrule=voronoi nonsense\nprovenance=\n")
        with pytest.raises(PatternFormatError) as err:
            load_tess(path)
        assert err.value.line == 2

    def test_unknown_rule(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#hupa-tess v1\n"
                        "rule=medial dim=2 lengths=4.,4. n_vertices=0 "
                        "n_faces=0\nprovenance=\n")
        with pytest.raises(PatternFormatError) as err:
            load_tess(path)
        assert err.value.line == 2

    def test_line_count_mismatch(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#hupa-tess v1\n"
                        "rule=voronoi dim=2 lengths=4.,4. n_vertices=2 "
                        "n_faces=0\nprovenance=\nv 0. 0.\n")
        with pytest.raises(PatternFormatError):
            load_tess(path)

    def test_malformed_vertex_line(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#hupa-tess v1\n"
                        "rule=voronoi dim=2 lengths=4.,4. n_vertices=1 "
                        "n_faces=0\nprovenance=\nv zero 0.\n")
        with pytest.raises(PatternFormatError) as err:
            load_tess(path)
        assert err.value.line == 4

    def test_face_vertex_index_out_of_range(self, tmp_path):
        path = tmp_path / "bad.tess"
        path.write_text("#hupa-tess v1\n"
                        "rule=voronoi dim=2 lengths=4.,4. n_vertices=1 "
                        "n_faces=1\nprovenance=\nv 0. 0.\n"
                        "f 3 0 0 0 5 0 0 0 0 0 1.0 3\n")
        with pytest.raises(PatternFormatError) as err:
            load_tess(path)
        assert err.value.line == 5
