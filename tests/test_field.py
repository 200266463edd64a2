import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from hupa.errors import (DegenerateInputError, FieldFormatError,
                         WindowTooLargeError)
from hupa.field import (_CHUNK_ELEMENTS, BinaryField, load_field,
                        rasterize_tessellation, save_field)
from hupa.generators import GeneratorSpec, generate
from hupa.pattern import BoxDomain, PointPattern
from hupa.tessellation import voronoi
from hupa.variance import default_radii
from oracles import dark_fraction_window_brute, pixels_near_segments_brute


def make_field(bits, lengths, **kw):
    return BinaryField(box=BoxDomain(lengths=lengths),
                       bits=np.asarray(bits, dtype=bool), **kw)


def random_field(rng, n, lengths, p=0.5):
    return make_field(rng.random((n, n)) < p, lengths)


def lattice_tess(box_edge=8.0, spacing=1.0):
    spec = GeneratorSpec(kind="lattice",
                         box=BoxDomain(lengths=(box_edge, box_edge)), seed=0,
                         params={"lattice_kind": "square", "spacing": spacing})
    return voronoi(generate(spec))


class TestBinaryField:
    def test_basic_properties(self):
        f = make_field([[1, 0], [0, 0]], (4.0, 4.0))
        assert f.shape == (2, 2)
        assert f.pixel_size == 2.0
        assert f.dark_fraction == 0.25

    def test_bits_read_only_and_copied(self):
        src = np.zeros((4, 4), dtype=bool)
        f = make_field(src, (4.0, 4.0))
        src[0, 0] = True
        assert not f.bits[0, 0]
        with pytest.raises(ValueError):
            f.bits[0, 0] = True

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            make_field(np.zeros((0, 4), dtype=bool), (4.0, 4.0))
        with pytest.raises(ValueError):
            BinaryField(box=BoxDomain(lengths=(4.0, 4.0)),
                        bits=np.zeros(16, dtype=bool))

    def test_rejects_nonsquare_pixels(self):
        with pytest.raises(ValueError, match="square"):
            make_field(np.zeros((4, 8), dtype=bool), (4.0, 4.0))

    def test_rejects_3d_box(self):
        with pytest.raises(ValueError):
            BinaryField(box=BoxDomain(lengths=(4.0, 4.0, 4.0)),
                        bits=np.zeros((4, 4), dtype=bool))

    def test_nonsquare_grid_square_pixels_ok(self):
        f = make_field(np.zeros((2, 4), dtype=bool), (8.0, 4.0))
        assert f.pixel_size == 2.0


class TestWindowFractions:
    def test_matches_brute_force_exactly(self):
        rng = np.random.default_rng(11)
        f = random_field(rng, 24, (12.0, 12.0), p=0.4)
        centers = rng.uniform(0.0, 12.0, size=(30, 2))
        for radius in (0.2, 1.1, 2.3, 3.7, 5.9):
            got = f.window_dark_fractions(centers, radius)
            for c, frac in zip(centers, got):
                dark, total = dark_fraction_window_brute(
                    f.bits, f.box.lengths, c, radius)
                want = 0.0 if total == 0 else dark / total
                assert frac == want, (c, radius)
                if total:
                    assert Fraction(frac).limit_denominator(total) == \
                        Fraction(dark, total)

    def test_empty_window_reports_zero(self):
        f = make_field(np.ones((8, 8), dtype=bool), (8.0, 8.0))
        # radius much smaller than half the pixel spacing, centered on a
        # pixel corner: no pixel center inside
        frac = f.window_dark_fractions(np.array([[1.0, 1.0]]), 0.2)
        assert frac[0] == 0.0

    def test_boundary_pixel_center_counts(self):
        f = make_field(np.eye(8, dtype=bool), (8.0, 8.0))
        # center on a pixel center; another center exactly R away
        center = np.array([[0.5, 0.5]])
        r = 1.0
        a = f.window_dark_fractions(center, r)[0]
        dark, total = dark_fraction_window_brute(
            f.bits, f.box.lengths, center[0], r)
        assert total == 5  # 4-neighborhood plus the center pixel
        assert a == dark / total

    def test_wraparound_window(self):
        bits = np.zeros((8, 8), dtype=bool)
        bits[0, 0] = True   # pixel center (0.5, 0.5)
        bits[7, 7] = True   # pixel center (7.5, 7.5)
        f = make_field(bits, (8.0, 8.0))
        frac = f.window_dark_fractions(np.array([[0.0, 0.0]]), 0.9)[0]
        # window at the origin sees both dark corners through the seams
        dark, total = dark_fraction_window_brute(
            f.bits, f.box.lengths, (0.0, 0.0), 0.9)
        assert dark == 2
        assert frac == dark / total

    def test_scalar_helpers_agree(self):
        rng = np.random.default_rng(12)
        f = random_field(rng, 16, (8.0, 8.0))
        c = (3.0, 2.0)
        batch = f.window_dark_fractions(np.array([c]), 1.5)[0]
        assert f.window_dark_fractions([c], 1.5)[0] == batch

    def test_workers_do_not_change_values(self):
        rng = np.random.default_rng(13)
        f = random_field(rng, 32, (16.0, 16.0))
        # the largest radius visits all 32 rows, so the windows fill more
        # than three chunks and the thread pool really runs; a short
        # switch interval interleaves the threads' writes into the output
        n = 3 * _CHUNK_ELEMENTS // 32 + 1
        centers = rng.uniform(0.0, 16.0, size=(n, 2))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for radius in (0.3, 2.5, 7.5):
                a = f.window_dark_fractions(centers, radius, workers=1)
                for workers in (2, 4):
                    b = f.window_dark_fractions(centers, radius,
                                                workers=workers)
                    assert np.array_equal(a, b), (radius, workers)
        finally:
            sys.setswitchinterval(interval)

    def test_row_band_edges_match_brute_force(self):
        # 30 x 20 pixels: the row band wraps through the y seam, and the
        # largest radii switch from a band of rows to every row
        rng = np.random.default_rng(16)
        nx, ny, h = 30, 20, 0.37
        f = make_field(rng.random((ny, nx)) < 0.45, (nx * h, ny * h))
        lx, ly = f.box.lengths
        xs = [0.0, h, 0.5 * h, 13 * h, 13.5 * h, (nx - 0.5) * h, lx - 1e-9]
        ys = [0.0, h, 0.5 * h, 9 * h, 9.5 * h, (ny - 0.5) * h, ly - 1e-9]
        centers = np.array([(x, y) for x in xs for y in ys])
        # a band of ceil(2R/h) + 3 rows stays below ny up to R = 8h
        band_max = (ny - 4) / 2 * h - 1e-9
        for radius in (0.5 * h, 2 * h, band_max, 0.49 * min(lx, ly)):
            got = f.window_dark_fractions(centers, radius)
            for c, frac in zip(centers, got):
                dark, total = dark_fraction_window_brute(
                    f.bits, f.box.lengths, c, radius)
                want = 0.0 if total == 0 else dark / total
                assert frac == want, (c, radius)

    def test_radius_limits(self):
        f = make_field(np.zeros((8, 8), dtype=bool), (8.0, 8.0))
        with pytest.raises(WindowTooLargeError):
            f.window_dark_fractions(np.array([[1.0, 1.0]]), 4.0)
        with pytest.raises(WindowTooLargeError):
            f.window_dark_fractions(np.array([[1.0, 1.0]]), 0.0)

    def test_half_plane_window(self):
        # left half dark: a window centered on the dividing line sees a
        # fraction within a couple of pixel widths of one half
        n = 256
        bits = np.zeros((n, n), dtype=bool)
        bits[:, : n // 2] = True
        f = make_field(bits, (16.0, 16.0))
        h = f.pixel_size
        for r in (2.0, 4.0, 7.0):
            frac = f.window_dark_fractions([(8.0, 5.0)], r)[0]
            assert abs(frac - 0.5) <= 2.0 * h / r

    def test_mean_window_fraction_near_global(self):
        rng = np.random.default_rng(14)
        n = 128
        bits = rng.random((n, n)) < 0.3
        f = make_field(bits, (32.0, 32.0))
        centers = rng.uniform(0.0, 32.0, size=(10000, 2))
        fracs = f.window_dark_fractions(centers, 3.0)
        se = float(fracs.std()) / math.sqrt(len(fracs))
        assert abs(float(fracs.mean()) - f.dark_fraction) <= 3.0 * se + 1e-4


class TestRasterize:
    def test_strip_area_estimate(self):
        # unit square lattice walls of total length 2 per unit area: dark
        # fraction tracks 2 * halfwidth * length / area = 0.2.  Walls sit on
        # the pixel grid, so each strip quantizes to a whole column count:
        # at 256 px (h = 1/32) a 0.1-wide strip rounds up to 4 columns and
        # the fraction is exactly 2*(4/32) - (4/32)^2; at 320 px (h = 1/40)
        # the strip is exactly 4 columns = 0.1 and the estimate lands
        # inside a 10% band
        tess = lattice_tess(8.0)
        f = rasterize_tessellation(tess, 256, 0.05)
        assert f.dark_fraction == 2 * (4 / 32) - (4 / 32) ** 2
        assert f.periodic_asserted
        assert f.shape == (256, 256)
        g = rasterize_tessellation(tess, 320, 0.05)
        assert abs(g.dark_fraction - 0.2) <= 0.1 * 0.2

    def test_zero_halfwidth_marks_nothing_off_grid(self):
        f = rasterize_tessellation(lattice_tess(8.0), 256, 0.0)
        assert f.dark_fraction == 0.0

    def test_wide_walls_fill_box(self):
        # halfwidth at half the cell inradius reaches every pixel center
        f = rasterize_tessellation(lattice_tess(8.0), 64, 0.5)
        assert f.dark_fraction == 1.0

    def test_matches_reference_rasterizer(self):
        spec = GeneratorSpec(kind="poisson",
                             box=BoxDomain(lengths=(6.0, 6.0)), seed=3,
                             params={"intensity": 1.0})
        tess = voronoi(generate(spec))
        f = rasterize_tessellation(tess, 48, 0.12)
        segments = []
        for cell in tess.cells:
            poly = cell.polygon
            for k in range(len(poly)):
                segments.append((tuple(poly[k]),
                                 tuple(poly[(k + 1) % len(poly)])))
        want = pixels_near_segments_brute(segments, (6.0, 6.0), (48, 48),
                                          0.12)
        assert np.array_equal(f.bits, want)

    def test_refinement_changes_bounded_by_edge_length(self):
        tess = lattice_tess(8.0)
        total_edges = sum(
            np.hypot(*(np.roll(c.polygon, -1, axis=0) - c.polygon).T).sum()
            for c in tess.cells) / 2.0
        coarse = rasterize_tessellation(tess, 256, 0.1)
        fine = rasterize_tessellation(tess, 512, 0.1)
        bound = 4.0 * coarse.pixel_size * total_edges / tess.pattern.box.volume
        assert abs(coarse.dark_fraction - fine.dark_fraction) <= bound

    def test_parameter_validation(self):
        tess = lattice_tess(8.0)
        with pytest.raises(ValueError):
            rasterize_tessellation(tess, 8, 0.1)
        with pytest.raises(ValueError):
            rasterize_tessellation(tess, 64, -0.1)

    def test_incommensurate_aspect_rejected(self):
        pat = PointPattern(points=np.array([[4.0, 4.0]]),
                           box=BoxDomain(lengths=(8.0, 8.3)))
        with pytest.raises(ValueError, match="square pixels"):
            rasterize_tessellation(voronoi(pat), 256, 0.1)


class TestDefaultRadii:
    def test_bounds_and_monotonicity(self):
        f = make_field(np.zeros((256, 256), dtype=bool), (64.0, 64.0))
        radii = default_radii(f)
        assert len(radii) == 16
        assert math.isclose(radii[0], 4.0 * f.pixel_size, rel_tol=1e-12)
        assert math.isclose(radii[-1], 16.0, rel_tol=1e-12)
        assert np.all(np.diff(radii) > 0)

    def test_collapsed_sweep_rejected(self):
        f = make_field(np.zeros((8, 8), dtype=bool), (8.0, 8.0))
        with pytest.raises(DegenerateInputError):
            default_radii(f)


class TestFieldIO:
    def test_p1_all_dark(self, tmp_path):
        path = tmp_path / "ones.pbm"
        path.write_text("P1\n4 4\n1 1 1 1\n1 1 1 1\n1 1 1 1\n1 1 1 1\n")
        f = load_field(path)
        assert f.dark_fraction == 1.0
        assert f.box.lengths == (4.0, 4.0)
        assert not f.periodic_asserted
        assert "format=P1" in f.provenance

    def test_p1_comments_and_layout(self, tmp_path):
        path = tmp_path / "c.pbm"
        path.write_text("P1 # tiny\n# another comment\n2 2\n10\n01\n")
        f = load_field(path)
        assert np.array_equal(f.bits, [[True, False], [False, True]])

    def test_p2_all_bright_is_light(self, tmp_path):
        path = tmp_path / "bright.pgm"
        path.write_text("P2\n4 4\n255\n" + ("255 " * 16).strip() + "\n")
        f = load_field(path, threshold=128)
        assert f.dark_fraction == 0.0
        assert "threshold=128" in f.provenance

    def test_p2_threshold_boundary(self, tmp_path):
        path = tmp_path / "mid.pgm"
        path.write_text("P2\n2 1\n255\n128 129\n")
        f = load_field(path, threshold=128)
        assert np.array_equal(f.bits, [[True, False]])

    def test_p5_matches_p2(self, tmp_path):
        rng = np.random.default_rng(15)
        vals = rng.integers(0, 256, size=(6, 5), dtype=np.uint8)
        ascii_path = tmp_path / "a.pgm"
        rows = "\n".join(" ".join(str(v) for v in row) for row in vals)
        ascii_path.write_text(f"P2\n5 6\n255\n{rows}\n")
        raw_path = tmp_path / "b.pgm"
        raw_path.write_bytes(b"P5\n5 6\n255\n" + vals.tobytes())
        a = load_field(ascii_path, threshold=100)
        b = load_field(raw_path, threshold=100)
        assert np.array_equal(a.bits, b.bits)

    def test_grayscale_requires_threshold(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_text("P2\n1 1\n255\n7\n")
        with pytest.raises(ValueError, match="threshold"):
            load_field(path)
        with pytest.raises(ValueError):
            load_field(path, threshold=300)

    def test_p4_round_trip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(16)
        f = make_field(rng.random((12, 20)) < 0.5, (40.0, 24.0),
                       periodic_asserted=True)
        path = tmp_path / "field.pbm"
        save_field(f, path)
        (tmp_path / "field.pbm.hupa").write_text(
            "# sidecar\nlengths=40,24\nperiodic=true\n")
        back = load_field(path)
        assert np.array_equal(back.bits, f.bits)
        assert back.box.lengths == (40.0, 24.0)
        assert back.periodic_asserted

    def test_p4_odd_width_padding(self, tmp_path):
        f = make_field([[1, 0, 1], [0, 1, 0], [1, 1, 1]], (3.0, 3.0))
        path = tmp_path / "odd.pbm"
        save_field(f, path)
        assert np.array_equal(load_field(path).bits, f.bits)

    def test_bad_magic_offset_zero(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_bytes(b"P7\n1 1\n0\n")
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        assert err.value.offset == 0
        assert "byte 0" in str(err.value)

    def test_maxval_out_of_range(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n70000\n0 0 0 0\n")
        with pytest.raises(FieldFormatError, match="maxval"):
            load_field(path, threshold=10)

    def test_truncated_p4_payload(self, tmp_path):
        data = b"P4\n16 16\n" + b"\x00" * 5
        path = tmp_path / "t.pbm"
        path.write_bytes(data)
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        assert err.value.offset == len(data)

    def test_truncated_p5_payload(self, tmp_path):
        data = b"P5\n4 4\n255\n" + b"\x10" * 3
        path = tmp_path / "t.pgm"
        path.write_bytes(data)
        with pytest.raises(FieldFormatError) as err:
            load_field(path, threshold=50)
        assert err.value.offset == len(data)

    def test_truncated_p1_payload(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_text("P1\n4 4\n1 1 0\n")
        with pytest.raises(FieldFormatError, match="truncated"):
            load_field(path)

    def test_p1_bad_digit(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_text("P1\n2 2\n1 0 2 0\n")
        with pytest.raises(FieldFormatError, match="digit"):
            load_field(path)

    def test_bad_dimensions(self, tmp_path):
        path = tmp_path / "t.pbm"
        path.write_text("P1\n0 4\n\n")
        with pytest.raises(FieldFormatError, match="dimensions"):
            load_field(path)

    def test_sidecar_unknown_key(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_text("P1\n1 1\n1\n")
        (tmp_path / "x.pbm.hupa").write_text("lengths=1,1\nscale=7\n")
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        assert "scale" in str(err.value)
        assert err.value.offset == len("lengths=1,1\n")

    def test_sidecar_bad_periodic_value(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_text("P1\n1 1\n1\n")
        (tmp_path / "x.pbm.hupa").write_text("periodic=maybe\n")
        with pytest.raises(FieldFormatError) as err:
            load_field(path)
        assert err.value.offset == 0

    def test_sidecar_nonsquare_lengths_rejected(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_text("P1\n2 2\n1 0 0 1\n")
        (tmp_path / "x.pbm.hupa").write_text("lengths=2,9\n")
        with pytest.raises(FieldFormatError, match="nonsquare"):
            load_field(path)

    def test_sidecar_scales_box(self, tmp_path):
        path = tmp_path / "x.pbm"
        path.write_text("P1\n4 4\n" + "1 " * 16 + "\n")
        (tmp_path / "x.pbm.hupa").write_text("lengths=10,10\nperiodic=false\n")
        f = load_field(path)
        assert f.box.lengths == (10.0, 10.0)
        assert f.pixel_size == 2.5
        assert not f.periodic_asserted
