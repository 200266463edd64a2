import json
import os
import subprocess
import sys

import numpy as np
import pytest

import hupa.tessellation
from hupa import cli, svg
from hupa.field import load_field
from hupa.generators import GENERATORS, GeneratorSpec, generate
from hupa.pattern import BoxDomain, PointPattern, load_pattern, save_pattern
from hupa.report import load_schema, validate_report
from hupa.tessellation import CellStats, delaunay, load_tess, voronoi
from hupa.variance import MAX_WINDOWS
from oracles import (cell_stats_reference, svg_face_paths_reference,
                     tess_text_reference, voronoi_dual_reference)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_pattern(capsys, tmp_path, name, *argv):
    out = str(tmp_path / name)
    code, _, _ = run(capsys, *argv, "-o", out)
    assert code == 0
    return out


class TestGenerate:
    def test_poisson_happy_path(self, capsys, tmp_path):
        out = str(tmp_path / "p.pat")
        code, stdout, stderr = run(
            capsys, "generate", "poisson", "--box", "64x64", "--rho", "1",
            "--seed", "7", "-o", out)
        assert code == 0
        assert stdout.strip() == out
        assert stderr.startswith("elapsed:")
        pat = load_pattern(out)
        assert pat.box.lengths == (64.0, 64.0)
        assert 0.8 <= pat.intensity() <= 1.2
        assert "seed=7" in pat.provenance

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a = str(tmp_path / "a.pat")
        b = str(tmp_path / "b.pat")
        for out in (a, b):
            code, _, _ = run(capsys, "generate", "poisson", "--box", "32x32",
                             "--rho", "2", "--seed", "11", "-o", out)
            assert code == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_lattice_with_default_kind(self, capsys, tmp_path):
        out = str(tmp_path / "l.pat")
        code, _, _ = run(capsys, "generate", "lattice", "--box", "8x8",
                         "--spacing", "1", "-o", out)
        assert code == 0
        assert len(load_pattern(out)) == 64

    def test_incommensurate_spacing_is_usage_error(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "generate", "lattice", "--box", "10x10",
            "--spacing", "3", "-o", str(tmp_path / "x.pat"))
        assert code == 2
        assert "usage error:" in stderr
        assert "3.33333333333" in stderr

    def test_3d_poisson(self, capsys, tmp_path):
        out = str(tmp_path / "p3.pat")
        code, _, _ = run(capsys, "generate", "poisson", "--box", "16x16x16",
                         "--rho", "0.5", "--seed", "3", "-o", out)
        assert code == 0
        assert load_pattern(out).box.dim == 3

    def test_rsa_needs_exactly_one_target(self, capsys, tmp_path):
        base = ["generate", "rsa_packing", "--box", "10x10",
                "--hard-radius", "0.3", "-o", str(tmp_path / "r.pat")]
        code, _, stderr = run(capsys, *base)
        assert code == 2
        code, _, _ = run(capsys, *base, "--count", "5", "--fraction", "0.1")
        assert code == 2

    def test_rsa_unreachable_target_fails(self, capsys, tmp_path):
        code, _, stderr = run(
            capsys, "generate", "rsa_packing", "--box", "4x4",
            "--hard-radius", "1.9", "--count", "9", "--max-attempts", "50",
            "-o", str(tmp_path / "r.pat"))
        assert code == 1
        assert "error:" in stderr

    def test_rsa_huge_count_fails_cleanly(self, capsys, tmp_path):
        # a target far beyond memory: only the centers placed are stored
        code, _, stderr = run(
            capsys, "generate", "rsa_packing", "--box", "10x10",
            "--hard-radius", "0.1", "--count", "100000000000",
            "--max-attempts", "200", "-o", str(tmp_path / "r.pat"))
        assert code == 1
        assert ("error: placed 1395 of 100000000000 centers before hitting "
                "200 consecutive rejections") in stderr
        assert not (tmp_path / "r.pat").exists()

    def test_flag_mixups_are_usage_errors(self, capsys, tmp_path):
        code, _, _ = run(capsys, "generate", "poisson", "--box", "8x8",
                         "--rho", "1", "--spacing", "2",
                         "-o", str(tmp_path / "x.pat"))
        assert code == 2
        code, _, _ = run(capsys, "generate", "lattice", "--box", "8x8",
                         "-o", str(tmp_path / "x.pat"))
        assert code == 2

    def test_max_attempts_does_not_apply_to_lattice(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "generate", "lattice", "--box", "8x8",
                              "--spacing", "1", "--max-attempts", "5",
                              "-o", str(tmp_path / "x.pat"))
        assert code == 2
        assert "--max-attempts does not apply to lattice" in stderr

    # small, valid parameters for every kind in the generator table
    TABLE_VALUES = {
        "poisson": {"intensity": 1.5},
        "lattice": {"spacing": 1.0},
        "perturbed_lattice": {"spacing": 1.0, "jitter": 0.2},
        "rsa_packing": {"hard_radius": 0.3, "count": 20, "max_attempts": 500},
    }

    @pytest.mark.parametrize("kind", list(GENERATORS))
    def test_cli_file_matches_library(self, capsys, tmp_path, kind):
        values = self.TABLE_VALUES[kind]
        argv = ["generate", kind, "--box", "8x8", "--seed", "5"]
        for param in GENERATORS[kind].params:
            if param.name in values:
                argv += [param.flag, str(values[param.name])]
        out = gen_pattern(capsys, tmp_path, "cli.pat", *argv)
        lib = str(tmp_path / "lib.pat")
        save_pattern(generate(GeneratorSpec(kind, BoxDomain(lengths=(8.0, 8.0)),
                                            values, seed=5)), lib)
        assert open(out, "rb").read() == open(lib, "rb").read()

    def test_bad_box_or_seed_rejected(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "generate", "poisson", "--box", "8xfoo",
                              "--rho", "1", "-o", str(tmp_path / "x.pat"))
        assert code == 2
        assert "usage error:" in stderr
        # seed validation lives in the argument parser itself
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "poisson", "--box", "8x8", "--rho", "1",
                      "--seed", "-1"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestVariance:
    def test_poisson_labelled_non_hyperuniform(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "32x32", "--rho", "2", "--seed", "5")
        base = str(tmp_path / "var")
        code, stdout, _ = run(capsys, "variance", pat, "--radii", "1,2,4,8",
                              "--windows", "4000", "--seed", "1", "-o", base)
        assert code == 0
        assert stdout.splitlines() == [base + ".csv", base + ".json"]
        report = json.load(open(base + ".json"))
        assert report["class"]["label"] == "non_hyperuniform"
        assert report["class"]["mode"] == "number_count"
        assert report["params"]["radii"] == "1,2,4,8"
        assert report["params"]["radii_resolved"] == [1.0, 2.0, 4.0, 8.0]
        assert report["params"]["windows"] == 4000
        csv_lines = open(base + ".csv").read().splitlines()
        assert csv_lines[0] == "R,mean,variance,n_windows,mode"
        assert len(csv_lines) == 5

    def test_lattice_labelled_hyperuniform(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "l.pat", "generate", "lattice",
                          "--box", "32x32", "--spacing", "1")
        base = str(tmp_path / "var")
        code, _, _ = run(capsys, "variance", pat, "--radii", "2,4,8,12",
                         "--windows", "8000", "-o", base)
        assert code == 0
        report = json.load(open(base + ".json"))
        assert report["class"]["label"] == "hyperuniform"

    def test_report_validates_against_schema(self, capsys, tmp_path):
        pytest.importorskip("jsonschema")
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1", "--seed", "2")
        base = str(tmp_path / "var")
        assert run(capsys, "variance", pat, "--radii", "1,2,4",
                   "--windows", "500", "-o", base)[0] == 0
        report = json.load(open(base + ".json"))
        validate_report(report)
        assert load_schema()["properties"]["tool"]["const"] == "hupa"

    def test_byte_identical_across_threads(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "2", "--seed", "4")
        # identical invocations except --threads must leave identical bytes
        base = str(tmp_path / "var")
        blobs = []
        for threads in ("1", "4"):
            code, _, _ = run(capsys, "variance", pat, "--radii", "1,2,4",
                             "--windows", "1000", "--threads", threads,
                             "-o", base)
            assert code == 0
            blobs.append((open(base + ".csv", "rb").read(),
                          open(base + ".json", "rb").read()))
        assert blobs[0][0] == blobs[1][0]
        # reports echo parameters, not runtime configuration, so they
        # cannot differ by thread count
        assert blobs[0][1] == blobs[1][1]

    def test_image_input_dispatches_to_dark_fraction(self, capsys, tmp_path):
        img = tmp_path / "stripes.pbm"
        rng = np.random.default_rng(8)
        bits = rng.random((64, 64)) < 0.5
        rows = "\n".join(" ".join("1" if v else "0" for v in row)
                         for row in bits)
        img.write_text(f"P1\n64 64\n{rows}\n")
        base = str(tmp_path / "img")
        code, _, _ = run(capsys, "variance", str(img), "--radii", "4,8,12",
                         "--windows", "2000", "-o", base)
        assert code == 0
        report = json.load(open(base + ".json"))
        assert report["class"]["mode"] == "dark_fraction"
        assert report["field"]["pixels"] == [64, 64]
        assert any("periodicity" in n for n in report["notes"])

    def test_threshold_on_pattern_input_rejected(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1")
        code, _, _ = run(capsys, "variance", pat, "--threshold", "100",
                         "-o", str(tmp_path / "v"))
        assert code == 2

    @pytest.mark.parametrize("command", ["variance", "field"])
    def test_one_window_is_usage_error(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(tmp_path / "in.pbm"), "--windows", "1"])
        assert exc.value.code == 2
        assert "must be >= 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["variance", "field"])
    def test_window_count_above_limit_is_usage_error(self, capsys, tmp_path,
                                                     command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(tmp_path / "in.pbm"),
                      "--windows", "100000000000"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be <= {MAX_WINDOWS}" in err
        assert "Traceback" not in err

    def test_missing_input_exits_1(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "variance",
                              str(tmp_path / "nope.pat"),
                              "-o", str(tmp_path / "v"))
        assert code == 1
        assert "error:" in stderr

    def test_bad_radii_list(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1")
        for radii in ("4,2,8", "0,1,2", "a,b"):
            code, _, _ = run(capsys, "variance", pat, "--radii", radii,
                             "-o", str(tmp_path / "v"))
            assert code == 2


class TestTessellate:
    def test_square_lattice_stats(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "l.pat", "generate", "lattice",
                          "--box", "8x8", "--spacing", "1")
        out = str(tmp_path / "cells.tess")
        code, stdout, _ = run(capsys, "tessellate", pat, "-o", out)
        assert code == 0
        json_path = str(tmp_path / "cells.json")
        assert stdout.splitlines() == [out, json_path]
        report = json.load(open(json_path))
        stats = report["cell_stats"]
        assert stats["n_cells"] == 64
        assert stats["cv_area"] == 0.0
        assert stats["side_histogram"] == {"4": 64}
        model = load_tess(out)
        assert model.rule == "voronoi"
        assert len(model.faces) == 64

    def test_poisson_mean_sides(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1", "--seed", "9")
        out = str(tmp_path / "cells.tess")
        assert run(capsys, "tessellate", pat, "-o", out)[0] == 0
        report = json.load(open(str(tmp_path / "cells.json")))
        stats = report["cell_stats"]
        hist = stats["side_histogram"]
        n = stats["n_cells"]
        assert sum(int(k) * v for k, v in hist.items()) == 6 * n

    def test_svg_output(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "10x10", "--rho", "1", "--seed", "6")
        out = str(tmp_path / "cells.tess")
        code, stdout, _ = run(capsys, "tessellate", pat, "--svg", "-o", out)
        assert code == 0
        svg_path = str(tmp_path / "cells.svg")
        assert svg_path in stdout.splitlines()
        svg = open(svg_path).read()
        n_cells = len(load_tess(out).faces)
        assert svg.count("<path d=") == n_cells
        assert svg.count("<circle") == len(load_pattern(pat))

    def test_delaunay_rule(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "12x12", "--rho", "1", "--seed", "2")
        out = str(tmp_path / "tri.tess")
        code, stdout, _ = run(capsys, "tessellate", pat, "--rule", "delaunay",
                              "-o", out)
        assert code == 0
        model = load_tess(out)
        assert model.rule == "delaunay"
        assert len(model.faces) == 2 * len(load_pattern(pat))
        report = json.load(open(str(tmp_path / "tri.json")))
        assert "cell_stats" not in report

    def test_sparse_three_points(self, capsys, tmp_path):
        # too sparse for a triangulation of its own box, so the cells are
        # built on a covering torus
        pattern = PointPattern(box=BoxDomain(lengths=(100.0, 100.0)),
                               points=[[50.0, 50.0], [50.5, 50.0], [50.0, 50.5]])
        pat = str(tmp_path / "sparse.pat")
        save_pattern(pattern, pat)
        out = str(tmp_path / "cells.tess")
        assert run(capsys, "tessellate", pat, "-o", out)[0] == 0
        model = load_tess(out)
        lengths = np.asarray(model.lengths)
        cells = voronoi(pattern).cells
        assert len(model.faces) == len(cells) == 3
        for face, cell in zip(model.faces, cells):
            corners = np.array([model.vertices[i] + np.asarray(off) * lengths
                                for i, off in face.corners])
            assert np.allclose(corners, cell.polygon, atol=1e-9)
            assert face.area == cell.area
            assert face.sides == cell.sides

    def test_bytes_match_reference_path(self, capsys, tmp_path, monkeypatch):
        # the array dual, statistics, writer and renderer give the bytes of
        # the one-cell-at-a-time reference path on a 1k-point pattern
        gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                    "--box", "32x32", "--rho", "1", "--seed", "3")

        def tessellate(sub):
            (tmp_path / sub).mkdir()
            monkeypatch.chdir(tmp_path / sub)
            assert run(capsys, "tessellate", "../p.pat", "--svg",
                       "-o", "cells.tess")[0] == 0
            return [(tmp_path / sub / name).read_bytes()
                    for name in ("cells.tess", "cells.svg", "cells.json")]

        def ref_voronoi(pattern):
            return (pattern, *voronoi_dual_reference(delaunay(pattern)))

        def ref_stats(ref):
            return CellStats(**cell_stats_reference(
                [(c["polygon"], c["area"]) for c in ref[1]]))

        def ref_save(ref, path):
            pattern, cells, vertices = ref
            text = tess_text_reference(
                "voronoi", pattern.box.lengths, pattern.provenance, vertices,
                [(c["loop"], c["area"], c["sides"]) for c in cells])
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)

        def ref_render(ref, scale):
            pattern, cells, vertices = ref
            lengths = pattern.box.lengths
            r = f"{0.006 * min(lengths):.6f}"
            lines = (svg._header(lengths, scale)
                     + svg_face_paths_reference(
                         lengths, vertices,
                         [(c["loop"], c["sides"]) for c in cells],
                         svg._SIDE_FILLS)
                     + [f'<circle cx="{x:.6f}" cy="{y:.6f}" r="{r}" '
                        f'fill="#1f3044"/>' for x, y in pattern.points]
                     + svg._footer(lengths))
            return "\n".join(lines) + "\n"

        arrays = tessellate("arrays")
        for name, fn in (("voronoi", ref_voronoi), ("cell_statistics", ref_stats),
                         ("save_tess", ref_save), ("face_model", lambda ref: ref),
                         ("render_tess_model", ref_render)):
            monkeypatch.setattr(cli, name, fn)
        assert tessellate("reference") == arrays

    def test_builds_no_cell_or_face_record(self, capsys, tmp_path, monkeypatch):
        made = []
        for name in ("Cell", "FaceRecord"):
            cls = getattr(hupa.tessellation, name)
            monkeypatch.setattr(hupa.tessellation, name,
                                lambda *a, _cls=cls, **k: made.append(_cls)
                                or _cls(*a, **k))
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "10x10", "--rho", "1", "--seed", "6")
        out = str(tmp_path / "cells.tess")
        assert run(capsys, "tessellate", pat, "--svg", "-o", out)[0] == 0
        assert made == []
        # the counter sees the views when they are asked for
        assert len(load_tess(out).faces) == len(made) > 0

    def test_degenerate_pattern_exits_1(self, capsys, tmp_path):
        pat = tmp_path / "dup.pat"
        pat.write_text("#hupa-pattern v1\n"
                       "dim=2 lengths=4.,4. hard_radius=none\n"
                       "provenance=\n1. 1.\n1. 1.\n")
        code, _, stderr = run(capsys, "tessellate", str(pat),
                              "-o", str(tmp_path / "t.tess"))
        assert code == 1
        assert "error:" in stderr


class TestField:
    def make_image(self, tmp_path, bits, periodic=True):
        img = tmp_path / "img.pbm"
        rows = "\n".join(" ".join("1" if v else "0" for v in row)
                         for row in bits)
        img.write_text(f"P1\n{bits.shape[1]} {bits.shape[0]}\n{rows}\n")
        if periodic:
            (tmp_path / "img.pbm.hupa").write_text("periodic=true\n")
        return str(img)

    def test_random_image_analysis(self, capsys, tmp_path):
        rng = np.random.default_rng(21)
        img = self.make_image(tmp_path, rng.random((96, 96)) < 0.4)
        base = str(tmp_path / "f")
        code, stdout, _ = run(capsys, "field", img, "--radii", "6,9,14,20",
                              "--windows", "3000", "-o", base)
        assert code == 0
        report = json.load(open(base + ".json"))
        assert report["command"] == "field"
        assert report["field"]["dark_fraction"] == pytest.approx(0.4, abs=0.05)
        assert report["field"]["periodic_asserted"] is True
        assert "notes" not in report
        assert report["class"]["mode"] == "dark_fraction"

    def test_byte_identical_across_threads(self, capsys, tmp_path):
        rng = np.random.default_rng(23)
        img = self.make_image(tmp_path, rng.random((96, 96)) < 0.4)
        base = str(tmp_path / "f")
        blobs = []
        # 8000 windows span two or more engine chunks at each radius
        for threads in ("1", "2"):
            code, _, _ = run(capsys, "field", img, "--radii", "12,20,30",
                             "--windows", "8000", "--threads", threads,
                             "-o", base)
            assert code == 0
            blobs.append((open(base + ".csv", "rb").read(),
                          open(base + ".json", "rb").read()))
        assert blobs[0] == blobs[1]

    def test_all_dark_image_is_degenerate(self, capsys, tmp_path):
        img = self.make_image(tmp_path, np.ones((32, 32), dtype=bool))
        code, _, stderr = run(capsys, "field", img, "--radii", "2,4,8",
                              "-o", str(tmp_path / "f"))
        assert code == 1
        assert "degenerate field: zero variance at all radii" in stderr

    def test_variance_on_image_matches_field(self, capsys, tmp_path):
        rng = np.random.default_rng(24)
        img = self.make_image(tmp_path, rng.random((64, 64)) < 0.4,
                              periodic=False)
        base = str(tmp_path / "same")
        outputs = {}
        for command in ("variance", "field"):
            code, _, _ = run(capsys, command, img, "--radii", "4,8,12",
                             "--windows", "2000", "--seed", "5", "-o", base)
            assert code == 0
            outputs[command] = (open(base + ".csv", "rb").read(),
                                json.load(open(base + ".json")))
        assert outputs["variance"][0] == outputs["field"][0]
        reports = [outputs[c][1] for c in ("variance", "field")]
        assert [r.pop("command") for r in reports] == ["variance", "field"]
        assert reports[0] == reports[1]

    def test_grayscale_needs_threshold(self, capsys, tmp_path):
        img = tmp_path / "g.pgm"
        img.write_text("P2\n16 16\n255\n" + " ".join(["7"] * 256) + "\n")
        code, _, stderr = run(capsys, "field", str(img),
                              "-o", str(tmp_path / "f"))
        assert code == 2
        assert "threshold" in stderr

    @pytest.mark.parametrize("value", ["300", "-1"])
    def test_threshold_out_of_range_is_usage_error(self, capsys, tmp_path,
                                                   value):
        img = tmp_path / "g.pgm"
        img.write_text("P2\n16 16\n255\n" + " ".join(["7"] * 256) + "\n")
        code, _, stderr = run(capsys, "field", str(img), "--threshold", value,
                              "-o", str(tmp_path / "f"))
        assert code == 2
        assert "threshold must be in [0, 255]" in stderr
        assert not os.path.exists(tmp_path / "f.json")

    @pytest.mark.parametrize("command", ["variance", "field"])
    def test_threshold_on_bitmap_is_usage_error(self, capsys, tmp_path,
                                                command):
        img = self.make_image(tmp_path, np.eye(16, dtype=bool))
        code, _, stderr = run(capsys, command, img, "--threshold", "7",
                              "-o", str(tmp_path / "f"))
        assert code == 2
        assert "grayscale" in stderr
        assert not os.path.exists(tmp_path / "f.json")

    @pytest.mark.parametrize("value", ["256", "1" * 20])
    def test_value_above_maxval_is_error(self, capsys, tmp_path, value):
        img = tmp_path / "big.pgm"
        img.write_text(f"P2\n2 1\n255\n7 {value}\n")
        code, _, stderr = run(capsys, "field", str(img), "--threshold", "3",
                              "-o", str(tmp_path / "f"))
        assert code == 1
        assert "byte 13: pixel value above maxval 255" in stderr

    def test_p5_byte_above_maxval_is_error(self, capsys, tmp_path):
        img = tmp_path / "big.pgm"
        img.write_bytes(b"P5\n2 1\n100\n" + bytes([7, 101]))
        code, _, stderr = run(capsys, "field", str(img), "--threshold", "3",
                              "-o", str(tmp_path / "f"))
        assert code == 1
        assert "byte 12: pixel value above maxval 100" in stderr
        assert "Traceback" not in stderr
        assert not os.path.exists(tmp_path / "f.json")

    def test_pattern_input_rejected(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1")
        code, _, _ = run(capsys, "field", pat, "-o", str(tmp_path / "f"))
        assert code == 2

    def test_pixel_size_scales_radii(self, capsys, tmp_path):
        rng = np.random.default_rng(22)
        img = self.make_image(tmp_path, rng.random((64, 64)) < 0.5)
        base = str(tmp_path / "f")
        code, _, _ = run(capsys, "field", img, "--pixel-size", "0.5",
                         "--radii", "2,4,8", "-o", base)
        assert code == 0
        report = json.load(open(base + ".json"))
        assert report["field"]["pixel_size"] == 0.5


class TestRender:
    def test_one_circle_per_point(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "0.4", "--seed", "13")
        out = str(tmp_path / "img.svg")
        code, stdout, _ = run(capsys, "render", pat, "-o", out)
        assert code == 0
        assert stdout.strip() == out
        svg = open(out).read()
        assert svg.count("<circle") == len(load_pattern(pat))
        assert svg.startswith("<?xml")

    def test_empty_pattern_draws_outline_only(self, capsys, tmp_path):
        pat = tmp_path / "empty.pat"
        pat.write_text("#hupa-pattern v1\n"
                       "dim=2 lengths=8.,8. hard_radius=none\n"
                       "provenance=\n")
        out = str(tmp_path / "img.svg")
        assert run(capsys, "render", str(pat), "-o", out)[0] == 0
        svg = open(out).read()
        assert svg.count("<circle") == 0
        assert svg.count("<rect") == 2  # background and box outline

    def test_deterministic_bytes(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "8x8", "--rho", "1", "--seed", "3")
        outs = []
        for name in ("a.svg", "b.svg"):
            out = str(tmp_path / name)
            assert run(capsys, "render", pat, "-o", out)[0] == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_3d_pattern_rejected(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "8x8x8", "--rho", "0.5")
        code, _, _ = run(capsys, "render", pat, "-o", str(tmp_path / "x.svg"))
        assert code == 1

    def test_hard_core_pattern_true_scale_disks(self, capsys, tmp_path):
        pat = gen_pattern(capsys, tmp_path, "r.pat", "generate",
                          "rsa_packing", "--box", "10x10",
                          "--hard-radius", "0.5", "--count", "10",
                          "--seed", "5")
        out = str(tmp_path / "img.svg")
        assert run(capsys, "render", pat, "-o", out)[0] == 0
        assert 'r="0.500000"' in open(out).read()


@pytest.mark.parametrize("argv", [
    ["tessellate", "{pat}", "--svg", "--scale", "0"],
    ["render", "{pat}", "--scale", "nan"],
    ["render", "{pat}", "--scale", "inf"],
    ["render", "{pat}", "--scale", "-2"],
    ["field", "{img}", "--pixel-size", "nan"],
    ["field", "{img}", "--pixel-size", "inf"],
    ["field", "{img}", "--pixel-size", "0"],
], ids=["tessellate-scale-0", "render-scale-nan", "render-scale-inf",
        "render-scale-negative", "field-pixel-size-nan",
        "field-pixel-size-inf", "field-pixel-size-0"])
def test_nonpositive_or_nonfinite_float_is_usage_error(capsys, tmp_path, argv):
    inputs = tmp_path / "in"
    inputs.mkdir()
    pat = gen_pattern(capsys, inputs, "p.pat", "generate", "poisson",
                      "--box", "8x8", "--rho", "1")
    img = inputs / "img.pbm"
    img.write_text("P1\n4 4\n" + "0 1 1 0\n" * 4)
    out_dir = tmp_path / "out"
    argv = [a.format(pat=pat, img=img) for a in argv]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out-dir", str(out_dir)])
    assert exc.value.code == 2
    assert "must be a positive finite number" in capsys.readouterr().err
    assert not out_dir.exists()


class TestGlobalFlags:
    def test_out_dir_prefixes_relative_output(self, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run(capsys, "generate", "poisson", "--box", "8x8",
                              "--rho", "1", "--out-dir", "sub", "-o", "p.pat")
        assert code == 0
        assert stdout.strip() == os.path.join("sub", "p.pat")
        assert (tmp_path / "sub" / "p.pat").exists()

    def test_default_output_name(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "generate", "poisson", "--box", "8x8",
                              "--rho", "1", "--out-dir", str(tmp_path))
        assert code == 0
        assert stdout.strip() == str(tmp_path / "pattern.txt")

    def test_hupa_threads_env(self, capsys, tmp_path, monkeypatch):
        pat = gen_pattern(capsys, tmp_path, "p.pat", "generate", "poisson",
                          "--box", "16x16", "--rho", "1", "--seed", "1")
        base = str(tmp_path / "v")
        monkeypatch.setenv("HUPA_THREADS", "3")
        code, _, _ = run(capsys, "variance", pat, "--radii", "1,2,4",
                         "--windows", "500", "-o", base)
        assert code == 0
        monkeypatch.setenv("HUPA_THREADS", "zero")
        code, _, _ = run(capsys, "variance", pat, "--radii", "1,2,4",
                         "--windows", "500", "-o", base)
        assert code == 2

    @pytest.mark.parametrize("module", ["hupa", "hupa.cli"])
    def test_python_m_runs_cli(self, tmp_path, module):
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        done = subprocess.run(
            [sys.executable, "-m", module, "generate", "poisson", "--box",
             "8x8", "--rho", "1", "-o", "m.pat"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert len(load_pattern(str(tmp_path / "m.pat"))) > 0

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("hupa ")

    def test_elapsed_always_on_stderr(self, capsys, tmp_path):
        code, _, stderr = run(capsys, "variance",
                              str(tmp_path / "missing.pat"),
                              "-o", str(tmp_path / "v"))
        assert code == 1
        assert "elapsed:" in stderr
