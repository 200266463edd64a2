"""Command-line front end.

Subcommands: generate, variance, tessellate, field, render.  Every run is
seed-driven and writes byte-identical outputs for identical invocations;
analysis commands also emit a JSON run report capturing the resolved
parameters and file digests.  Exit codes: 0 success, 1 domain or runtime
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

from . import __version__
from .errors import HupaError, IncommensurateBoxError
from .field import PNM_MAGICS, BinaryField, load_field
from .generators import GENERATOR_KINDS, GENERATORS, GeneratorSpec, generate
from .pattern import BoxDomain, load_pattern, save_pattern
from .report import build_report, write_report
from .svg import DEFAULT_SCALE, render_pattern, render_tess_model
from .tessellation import (cell_statistics, delaunay, face_model, save_tess,
                           voronoi)
from .variance import classify, default_radii, fit_scaling, variance_curve

class _Usage(Exception):
    """Flag/argument validation failure -> exit 2."""


def _min_int(lo: int):
    """argparse type: an integer >= lo."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}")
        return value
    return parse


def _positive_float(text: str) -> float:
    """argparse type: a finite number > 0."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be a positive finite number")
    return value


def _u64(text: str) -> int:
    value = _min_int(0)(text)
    if value >= 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _parse_box(text: str):
    parts = text.lower().split("x")
    try:
        lengths = tuple(float(p) for p in parts)
    except ValueError:
        raise _Usage(f"bad box {text!r}; expected WxH or WxHxD") from None
    if len(lengths) not in (2, 3) or any(
        not math.isfinite(v) or v <= 0 for v in lengths
    ):
        raise _Usage(f"bad box {text!r}; expected positive WxH or WxHxD")
    return lengths


def _parse_radii(text: str):
    try:
        radii = [float(p) for p in text.split(",")]
    except ValueError:
        raise _Usage(f"bad radii list {text!r}") from None
    if not radii or any(not math.isfinite(r) or r <= 0 for r in radii):
        raise _Usage("radii must be positive numbers")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise _Usage("radii must be strictly increasing")
    return radii


def _resolve_out(args, default_name: str) -> str:
    """Output path (or base path) for this run; makes its directory."""
    name = args.out if args.out else default_name
    path = os.path.join(args.out_dir, name)  # an absolute name wins
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return path


def _resolve_threads(args) -> int:
    if args.threads is not None:
        return args.threads
    env = os.environ.get("HUPA_THREADS", "")
    if not env:
        return 1
    try:
        return _min_int(1)(env)
    except argparse.ArgumentTypeError as exc:
        raise _Usage(f"HUPA_THREADS: {exc}") from None


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _magic(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read(2)


def _load_input_field(args) -> BinaryField:
    try:
        field = load_field(args.input, threshold=args.threshold)
    except ValueError as exc:  # the --threshold rule
        raise _Usage(str(exc)) from None
    if args.pixel_size is not None:
        ny, nx = field.bits.shape
        box = BoxDomain(lengths=(nx * args.pixel_size, ny * args.pixel_size))
        field = BinaryField(box=box, bits=field.bits,
                            provenance=field.provenance,
                            periodic_asserted=field.periodic_asserted)
    return field


# ---------------------------------------------------------------- generate

def _generator_params():
    """Each parameter in GENERATORS once, in table order, with its kinds."""
    params = dict.fromkeys(p for gen in GENERATORS.values() for p in gen.params)
    return [(p, [k for k, gen in GENERATORS.items() if p in gen.params])
            for p in params]


def _add_generate(sub, common):
    p = sub.add_parser(
        "generate", parents=[common],
        help="generate a point pattern and write it as text",
        description="Generate a seeded point pattern on a periodic box.",
    )
    p.add_argument("kind", choices=GENERATOR_KINDS,
                   help="generator recipe")
    p.add_argument("--box", required=True,
                   help="box lengths, e.g. 64x64 or 20x20x20")
    for param, kinds in _generator_params():
        p.add_argument(param.flag, dest=param.name, type=param.type,
                       choices=param.choices, default=None,
                       help=f"{', '.join(kinds)}: {param.help}")
    p.set_defaults(handler=cmd_generate, default_out="pattern.txt")


def cmd_generate(args) -> int:
    box = BoxDomain(lengths=_parse_box(args.box))
    own = GENERATORS[args.kind].params
    for param in own:
        if param.required and getattr(args, param.name) is None:
            raise _Usage(f"{args.kind} requires {param.flag}")
    for param, _ in _generator_params():
        if param not in own and getattr(args, param.name) is not None:
            raise _Usage(f"{param.flag} does not apply to {args.kind}")
    # omitted flags are left out, so the library's defaults apply
    params = {param.name: getattr(args, param.name) for param in own
              if getattr(args, param.name) is not None}
    try:
        spec = GeneratorSpec(kind=args.kind, box=box, params=params,
                             seed=args.seed)
        pattern = generate(spec)
    except (IncommensurateBoxError, ValueError, TypeError) as exc:
        # bad spacing for the requested box is a flag problem too
        raise _Usage(str(exc)) from None
    out = _resolve_out(args, args.default_out)
    save_pattern(pattern, out)
    print(out)
    return 0


# ---------------------------------------------------- variance and field

def _add_sweep(sub, common, name, summary, description, input_help):
    p = sub.add_parser(name, parents=[common], help=summary,
                       description=description)
    p.add_argument("input", help=input_help)
    p.add_argument("--radii", default=None,
                   help="comma-separated window radii (default: auto sweep)")
    p.add_argument("--windows", type=_min_int(2), default=None,
                   help="window placements per radius")
    p.add_argument("--fit-min", type=float, default=None,
                   help="smallest radius used in the scaling fit")
    p.add_argument("--fit-max", type=float, default=None,
                   help="largest radius used in the scaling fit")
    p.add_argument("--threshold", type=int, default=None,
                   help="P2/P5 images only: values <= threshold are dark")
    p.add_argument("--pixel-size", type=_positive_float, default=None,
                   help="images: model length of one pixel edge (default 1)")
    p.set_defaults(handler=cmd_sweep, default_out=name)


def _fit_range(args):
    if args.fit_min is None and args.fit_max is None:
        return None
    lo = 0.0 if args.fit_min is None else args.fit_min
    hi = math.inf if args.fit_max is None else args.fit_max
    return (lo, hi)


def cmd_sweep(args) -> int:
    """variance and field: one window-variance run, written as <out>.csv
    and <out>.json.  field accepts only images; variance takes a pattern
    or an image."""
    magic = _magic(args.input)
    if args.command == "field" and magic not in PNM_MAGICS:
        raise _Usage("field requires a PBM/PGM image input")
    field = None
    if magic in PNM_MAGICS:
        subject = field = _load_input_field(args)
    else:  # not an image: load_pattern reports any format error
        if args.threshold is not None or args.pixel_size is not None:
            raise _Usage("--threshold/--pixel-size only apply to image input")
        subject = load_pattern(args.input)
    threads = _resolve_threads(args)
    # the same sweep variance_curve would choose, resolved here so that a
    # trace of hupa.cli.default_radii times it (perfbench/layers.py)
    radii = (_parse_radii(args.radii) if args.radii is not None
             else default_radii(subject))
    curve = variance_curve(subject, radii=radii, n_windows=args.windows,
                           seed=args.seed, workers=threads)
    fit = fit_scaling(curve, fit_range=_fit_range(args))
    order = classify(fit, curve.dim, mode=curve.mode)
    base = _resolve_out(args, args.default_out)
    csv_path = base + ".csv"
    _write_text(csv_path, curve.to_csv())
    # thread count is deliberately absent: like wall-clock time it is an
    # execution detail that cannot change results, and including it would
    # break byte-identity of reports across --threads
    params = {
        "input": args.input,
        "radii": args.radii if args.radii is not None else "auto",
        "radii_resolved": [float(r) for r in curve.radii],
        "windows": int(curve.n_windows),
        "fit_min": args.fit_min,
        "fit_max": args.fit_max,
        "seed": args.seed,
        "out": args.out if args.out else args.default_out,
        "out_dir": args.out_dir,
        "threshold": args.threshold,
        "pixel_size": args.pixel_size,
    }
    notes = []
    if field is not None and not field.periodic_asserted:
        notes.append("input image carries no periodicity assertion; "
                     "contents treated as periodic")
    report = build_report(
        args.command, params, {"windows": args.seed},
        inputs=[args.input], outputs=[csv_path],
        curve=curve, fit=fit, order=order, field=field, notes=notes,
    )
    json_path = base + ".json"
    write_report(report, json_path)
    print(csv_path)
    print(json_path)
    return 0


# -------------------------------------------------------------- tessellate

def _add_tessellate(sub, common):
    p = sub.add_parser(
        "tessellate", parents=[common],
        help="periodic Voronoi or Delaunay tessellation of a pattern",
        description="Tessellate a 2D pattern; writes the tessellation "
                    "file, a stats JSON, and optionally an SVG.",
    )
    p.add_argument("input", help="pattern file")
    p.add_argument("--rule", choices=("voronoi", "delaunay"),
                   default="voronoi", help="tessellation rule")
    p.add_argument("--svg", action="store_true",
                   help="also write an SVG rendering")
    p.add_argument("--scale", type=_positive_float, default=DEFAULT_SCALE,
                   help="SVG pixels per model unit")
    p.set_defaults(handler=cmd_tessellate, default_out="tess.txt")


def cmd_tessellate(args) -> int:
    pattern = load_pattern(args.input)
    if args.rule == "voronoi":
        obj = voronoi(pattern)
        stats = cell_statistics(obj)
    else:
        obj = delaunay(pattern)
        stats = None
    out = _resolve_out(args, args.default_out)
    save_tess(obj, out)
    written = [out]
    base = os.path.splitext(out)[0]
    if args.svg:
        svg_path = base + ".svg"
        _write_text(svg_path, render_tess_model(face_model(obj), args.scale))
        written.append(svg_path)
    params = {
        "input": args.input,
        "rule": args.rule,
        "svg": bool(args.svg),
        "scale": args.scale,
        "seed": args.seed,
        "out": args.out if args.out else args.default_out,
        "out_dir": args.out_dir,
    }
    report = build_report("tessellate", params, {}, inputs=[args.input],
                          outputs=written, cell_stats=stats)
    json_path = base + ".json"
    if json_path == out:
        json_path = out + ".json"
    write_report(report, json_path)
    for path in written:
        print(path)
    print(json_path)
    return 0


# ------------------------------------------------------------------ render

def _add_render(sub, common):
    p = sub.add_parser(
        "render", parents=[common],
        help="render a pattern file to SVG",
        description="Draw a 2D pattern as an SVG plate: one circle per "
                    "point plus the box outline.",
    )
    p.add_argument("input", help="pattern file")
    p.add_argument("--scale", type=_positive_float, default=DEFAULT_SCALE,
                   help="SVG pixels per model unit")
    p.set_defaults(handler=cmd_render, default_out="render.svg")


def cmd_render(args) -> int:
    pattern = load_pattern(args.input)
    if pattern.box.dim != 2:
        raise HupaError("only 2D patterns can be rendered")
    out = _resolve_out(args, args.default_out)
    _write_text(out, render_pattern(pattern, args.scale))
    print(out)
    return 0


# -------------------------------------------------------------------- main

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_u64, default=0,
                        help="unsigned 64-bit seed (default 0)")
    common.add_argument("--threads", type=_min_int(1), default=None,
                        help="worker threads (default: HUPA_THREADS or 1); "
                             "never changes output bytes")
    common.add_argument("--out-dir", default=".",
                        help="directory for output files")
    common.add_argument("-o", "--out", default=None,
                        help="output path (or base path), relative to --out-dir")

    parser = argparse.ArgumentParser(
        prog="hupa",
        description="Point-pattern and raster order analysis on periodic boxes.",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_generate(sub, common)
    _add_sweep(sub, common, "variance",
               summary="window-variance curve, scaling fit, and "
                       "classification",
               description="Measure variance scaling for a pattern or raster "
                           "image; writes <out>.csv and <out>.json.",
               input_help="pattern file or PBM/PGM image")
    _add_tessellate(sub, common)
    _add_sweep(sub, common, "field",
               summary="dark-fraction variance analysis of a PBM/PGM image",
               description="Run the dark-fraction variance pipeline on a "
                           "binary or gray raster; writes <out>.csv and "
                           "<out>.json.",
               input_help="PBM (P1/P4) or PGM (P2/P5) image")
    _add_render(sub, common)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        code = args.handler(args)
    except _Usage as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, HupaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        elapsed = time.monotonic() - started
        print(f"elapsed: {elapsed:.3f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
