import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hupa.tessellation
from hupa.errors import (DegenerateInputError, PatternFormatError,
                         TessellationError)
from hupa.generators import GeneratorSpec, generate
from hupa.pattern import BoxDomain, PointPattern, wrap_point
from hupa.tessellation import (FaceModel, cell_statistics, circumcircle_violations,
                               delaunay, ensemble_cell_statistics, face_model,
                               load_tess, save_tess, voronoi)
from oracles import shoelace_area, voronoi_cell_faults

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

    def test_voronoi_builds_half_edge_table_once(self, poisson32,
                                                 monkeypatch):
        # one table for the hull candidate, kept in step by the flip pass
        # and then read by validation and the dual walk
        calls = []
        build = hupa.tessellation._half_edge_table

        def counted(tris):
            calls.append(len(tris))
            return build(tris)

        monkeypatch.setattr(hupa.tessellation, "_half_edge_table", counted)
        voronoi(poisson32)
        assert len(calls) == 1

    def test_empty_circumcircles(self, poisson32):
        assert circumcircle_violations(delaunay(poisson32)) == 0

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
            want = set()
            for (i, (j, d)), (t0, s0, _) in tri.half_edges.items():
                if (i, (0, 0)) < (j, d):
                    twin = (j, (i, (-d[0], -d[1])))
                    t1, s1, _ = tri.half_edges[twin]
                    c0 = tri.circumcenters[t0] + np.asarray(s0) * lengths
                    c1 = (tri.circumcenters[t1]
                          + (np.asarray(s1) + np.asarray(d)) * lengths)
                    if math.hypot(*(c0 - c1)) <= tol:
                        want |= {(i, (j, d)), twin}
            got, joined = hupa.tessellation._degenerate_edges(tri, tol)
            assert got == want
            assert len(joined) == n_degenerate == len(want) // 2

    def test_check_structure_rejects_broken_tables(self, poisson32):
        n = len(poisson32)
        tris = dict(enumerate(delaunay(poisson32).triangles))
        table = hupa.tessellation._half_edge_table(tris)
        check = hupa.tessellation._check_structure
        assert check(tris, table, n)
        # a duplicated half-edge: triangle 0 twice, triangle 1 gone
        twice = dict(tris)
        twice[1] = tris[0]
        assert not check(twice, hupa.tessellation._half_edge_table(twice), n)
        # a missing twin, with the count of half-edges kept at 6N
        lonely = dict(table)
        i, (j, (dx, dy)) = next(iter(lonely))
        lonely[(i, (j, (dx + 5, dy)))] = lonely.pop((i, (j, (dx, dy))))
        assert len(lonely) == 6 * n
        assert not check(tris, lonely, n)
        # point 0 unused: every index moved up by one, twins all present
        moved = {t: tuple((b + 1, o) for b, o in tri) for t, tri in tris.items()}
        assert not check(moved, hupa.tessellation._half_edge_table(moved), n)


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
    table = tri.half_edges
    stars: dict = {}
    for (i, (j, (dx, dy))), (t, (sx, sy), w) in table.items():
        assert (j, (i, (-dx, -dy))) in table
        # the entry names the CCW triangle (i, j, w) moved into i's frame
        moved = [(b, (ox + sx, oy + sy)) for b, (ox, oy) in tri.triangles[t]]
        k = moved.index((i, (0, 0)))
        assert moved[(k + 1) % 3] == (j, (dx, dy))
        assert moved[(k + 2) % 3] == w
        stars.setdefault(i, set()).add((j, (dx, dy)))
    assert sorted(stars) == list(range(n))
    degrees = 0
    for i, star in stars.items():
        u0 = u = min(star)
        seen = []
        while True:
            seen.append(u)
            u = table[(i, u)][2]
            if u == u0:
                break
            assert len(seen) < len(star)
        assert sorted(seen) == sorted(star)
        degrees += len(seen)
    assert degrees == 6 * n
    shuffled = make_pattern(pat.points[rng.permutation(n)], lengths)
    assert corner_keys(delaunay(shuffled)) == corner_keys(tri)


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
