"""End-to-end and per-layer benchmark of the hupa pipelines.

Usage, from the root of a source checkout (no install needed; the package
is imported from ``src/``):

    python3 perfbench/run.py --workload points-2d --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Workloads (why each was chosen is recorded in BENCHMARK.json):

    points-2d     Poisson N~65k; `variance` with 16 radii x 20000 windows.
                  KD-tree window counting dominates.
    voronoi-16k   Poisson N~16k; `tessellate --rule voronoi --svg`.
                  Hull stage, flip pass, validation and dual walk dominate.
    walls-raster  RSA N~520; library voronoi -> rasterize (1024^2) ->
                  save_field, then `field`.  The raster window engine
                  dominates; tessellation is under 2%.
    packing-3d    `generate rsa_packing` 20^3 then 3D `variance`.  RSA
                  placement dominates.

A run sets the workload's inputs up from ``--seed``, then times passes of
the workload's steps in pairs whose order alternates, until the next pair
would end after ``--seconds`` (at least two pairs).  Each set-up and each
pass is a fresh worker process that calls ``hupa.cli.main`` in-process.
With ``--trace 0`` a pair is one pass at ``--threads 1`` and one at
``--threads 2``; with ``--trace 1`` it is one untraced and one traced pass,
both at one thread, and the per-layer metrics come from the traced passes
(see layers.py).  Every pass is checked: exit codes, output bytes equal
across passes, threads and tracing, pinned digests at the default seed, and
per-workload content checks.  A failed pass counts in ``failed``;
error_rate = failed / attempted.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it give the same metrics with
their sample counts, the output digests and the environment.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from layers import COUNT_METRICS, TIME_METRICS, LayerTrace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PINNED = HERE / "pinned_sha256.json"

DEFAULT_SEED = 0
MIN_PAIRS = 2
SETUP_REPEATS = 5
LABELS = ("non_hyperuniform", "hyperuniform", "intermediate", "undetermined")

# Sizes: "full" is the benchmark; "tiny" exists for selftest.py.
SIZES = {
    "full": {
        "points-2d": {"box": "256x256", "windows": 20000},
        "voronoi-16k": {"box": "128x128"},
        "walls-raster": {"box": "32x32", "fraction": 0.4, "pixels": 1024,
                         "windows": None},
        "packing-3d": {"box": "20x20x20", "fraction": 0.25},
    },
    "tiny": {
        "points-2d": {"box": "32x32", "windows": 500},
        "voronoi-16k": {"box": "16x16"},
        "walls-raster": {"box": "8x8", "fraction": 0.3, "pixels": 128,
                         "windows": 500},
        "packing-3d": {"box": "12x12x12", "fraction": 0.2},
    },
}
HARD_RADIUS = 0.5
WALL_HALFWIDTH = 0.05

# hupa's classifier rule (hupa.variance.classify), restated here so that the
# check does not trust the code it checks: a fit with r^2 below the floor is
# "undetermined"; otherwise the slope alpha of count variance is compared with
# the anchors dim (Poisson) and dim - 1 (hyperuniform), each with a dead band.
R_SQUARED_FLOOR = 0.9
CLASS_DEAD_BAND = 0.25
# Slopes a correct window counter gives for a 2D Poisson pattern: the anchor
# 2 +- twice the dead band.  Over seeds 0-39 of points-2d alpha had mean 1.94
# and standard deviation 0.06, so the band is about 7 standard deviations
# wide on the low side; a broken counter or fit lands outside it.
POISSON_2D_ALPHA = (1.5, 2.5)

END_TO_END_UNITS = {
    "wall_s": "s",
    "wall_2t_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def per_layer_units():
    units = {name: "s" for name in TIME_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units["generators.points_per_s"] = "1/s"
    units["cli.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class PassFailed(Exception):
    """A timed pass exited nonzero or produced wrong output."""


def derived_seed(workload: str, seed: int, purpose: str) -> str:
    """Program seed for one purpose, derived from the workload seed."""
    digest = hashlib.sha256(f"{workload}/{purpose}/{seed}".encode()).digest()
    return str(int.from_bytes(digest[:8], "big"))


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cli(argv):
    """Run hupa.cli.main in-process with its console output captured."""
    from hupa.cli import main
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    if code != 0:
        message = err.getvalue().strip().splitlines()
        raise PassFailed(f"hupa {argv[0]} exited {code}: "
                         f"{message[0] if message else ''}")


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def data_rows(path) -> int:
    """Point rows of a pattern file (three header lines)."""
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 3


def rsa_count(box: str, fraction: float) -> int:
    lengths = [float(x) for x in box.split("x")]
    volume = math.prod(lengths)
    if len(lengths) == 2:
        grain = math.pi * HARD_RADIUS ** 2
    else:
        grain = 4.0 / 3.0 * math.pi * HARD_RADIUS ** 3
    return round(fraction * volume / grain)


# ----------------------------------------------------------------- workloads
#
# Each workload names its set-up commands (timed as setup_s, never as
# wall_s), its timed steps, its output files and its content checks.

@dataclass
class Ctx:
    workload: str
    size: dict
    gen_seed: str
    win_seed: str
    seed: int
    n_input: int = 0  # points in the set-up pattern, when there is one
    notes: set = dataclasses.field(default_factory=set)  # printed once with the results


def _windows(size):
    return ["--windows", size["windows"]] if size.get("windows") else []


def setup_points(ctx):
    return [["generate", "poisson", "--box", ctx.size["box"], "--rho", "1",
             "--seed", ctx.gen_seed, "-o", "points.txt"]]


def steps_points(ctx, threads):
    cli(["variance", "points.txt", *_windows(ctx.size), "--seed", ctx.win_seed,
         "--threads", threads, "-o", "variance"])


def expected_label(alpha, r_squared, dim):
    if r_squared < R_SQUARED_FLOOR:
        return "undetermined"
    if alpha >= dim - CLASS_DEAD_BAND:
        return "non_hyperuniform"
    if alpha <= dim - 1 + CLASS_DEAD_BAND:
        return "hyperuniform"
    return "intermediate"


def check_points(ctx):
    """The label must follow from the reported fit by hupa's rule, and the
    slope must be Poisson-like.  The label itself must be non_hyperuniform
    at the default seed.  At other seeds a Poisson sample's slope can fall
    just inside the intermediate band (seed 1883375869 gives alpha 1.7485
    against the band edge 1.75): the classifier's fixed dead band has no
    error bar yet.  Such a label is printed as a note, not counted as a
    failed pass."""
    report = load_json("variance.json")
    label, alpha = report["class"]["label"], report["class"]["alpha"]
    expected = expected_label(alpha, report["fit"]["r_squared"], 2)
    if label != expected:
        raise PassFailed(f"label {label} for alpha {alpha!r}, expected {expected}")
    if not POISSON_2D_ALPHA[0] <= alpha <= POISSON_2D_ALPHA[1]:
        raise PassFailed(f"Poisson pattern has slope {alpha!r}, outside "
                         f"{POISSON_2D_ALPHA}")
    if label != "non_hyperuniform":
        if ctx.seed == DEFAULT_SEED:
            raise PassFailed(f"Poisson pattern labelled {label}")
        ctx.notes.add(f"note: Poisson pattern labelled {label} "
                      f"(alpha {alpha:.4f}; band edge {2 - CLASS_DEAD_BAND})")
    if report["curve"]["n_windows"] != ctx.size["windows"]:
        raise PassFailed("wrong window count in the variance report")
    if len(report["curve"]["radii"]) != 16:
        raise PassFailed("default sweep is not 16 radii")


def setup_voronoi(ctx):
    return [["generate", "poisson", "--box", ctx.size["box"], "--rho", "1",
             "--seed", ctx.gen_seed, "-o", "points.txt"]]


def steps_voronoi(ctx, threads):
    cli(["tessellate", "points.txt", "--rule", "voronoi", "--svg",
         "--seed", ctx.win_seed, "--threads", threads, "-o", "cells.tess"])


def check_voronoi(ctx):
    stats = load_json("cells.json")["cell_stats"]
    n = stats["n_cells"]
    if n != ctx.n_input:
        raise PassFailed(f"{n} Voronoi cells for {ctx.n_input} generators")
    sides = sum(int(k) * v for k, v in stats["side_histogram"].items())
    if sides != 6 * n:
        raise PassFailed(f"mean side count {sides / n!r} is not 6")


def setup_walls(ctx):
    return [["generate", "rsa_packing", "--box", ctx.size["box"],
             "--hard-radius", HARD_RADIUS, "--fraction", ctx.size["fraction"],
             "--seed", ctx.gen_seed, "-o", "packing.txt"]]


def steps_walls(ctx, threads):
    # The library flow of the README, through module attributes so that
    # the layer trace sees the calls.
    from hupa import field, pattern, tessellation
    pat = pattern.load_pattern("packing.txt")
    walls = field.rasterize_tessellation(tessellation.voronoi(pat),
                                         ctx.size["pixels"], WALL_HALFWIDTH)
    field.save_field(walls, "walls.pbm")
    cli(["field", "walls.pbm", *_windows(ctx.size), "--seed", ctx.win_seed,
         "--threads", threads, "-o", "field"])


def check_walls(ctx):
    report = load_json("field.json")
    px = ctx.size["pixels"]
    if report["field"]["pixels"] != [px, px]:
        raise PassFailed("raster size changed on the PBM round trip")
    if not 0.0 < report["field"]["dark_fraction"] < 1.0:
        raise PassFailed("wall raster is all dark or all light")
    if report["curve"]["mode"] != "dark_fraction":
        raise PassFailed("field report is not in dark_fraction mode")
    if report["class"]["label"] not in LABELS:
        raise PassFailed(f"unknown label {report['class']['label']!r}")


def steps_packing(ctx, threads):
    cli(["generate", "rsa_packing", "--box", ctx.size["box"],
         "--hard-radius", HARD_RADIUS, "--fraction", ctx.size["fraction"],
         "--seed", ctx.gen_seed, "--threads", threads, "-o", "packing.txt"])
    cli(["variance", "packing.txt", *_windows(ctx.size), "--seed", ctx.win_seed,
         "--threads", threads, "-o", "variance"])


def check_packing(ctx):
    expected = rsa_count(ctx.size["box"], ctx.size["fraction"])
    if data_rows("packing.txt") != expected:
        raise PassFailed(f"RSA placed {data_rows('packing.txt')} of {expected}")
    report = load_json("variance.json")
    if report["class"]["dim"] != 3 or report["class"]["label"] not in LABELS:
        raise PassFailed("3D variance report has a bad class section")


@dataclass(frozen=True)
class Workload:
    setup: object  # ctx -> list of CLI argv lists, or None
    steps: object  # (ctx, threads) -> None
    check: object  # ctx -> None, raises PassFailed
    outputs: tuple


WORKLOADS = {
    "points-2d": Workload(setup_points, steps_points, check_points,
                          ("variance.csv", "variance.json")),
    "voronoi-16k": Workload(setup_voronoi, steps_voronoi, check_voronoi,
                            ("cells.tess", "cells.svg", "cells.json")),
    "walls-raster": Workload(setup_walls, steps_walls, check_walls,
                             ("walls.pbm", "field.csv", "field.json")),
    "packing-3d": Workload(None, steps_packing, check_packing,
                           ("packing.txt", "variance.csv", "variance.json")),
}


# -------------------------------------------------------------------- workers
#
# Every set-up and every timed pass runs in a fresh interpreter, one at a
# time, that imports hupa and calls hupa.cli.main in-process, as the `hupa`
# command does.  Passes in one process tend to share a speed level that can
# differ by ~10% from another process's (measured on a 2-vCPU VM with the
# same input), so samples from many processes give a steadier median than
# many passes in one.

def make_ctx(name, seed, size_name):
    return Ctx(name, SIZES[size_name][name], derived_seed(name, seed, "generate"),
               derived_seed(name, seed, "windows"), seed)


def worker(spec):
    """Body of a worker process: one set-up or one pass, reported as JSON."""
    t0 = time.perf_counter()
    import_checkout_hupa()
    import_s = time.perf_counter() - t0
    workload = WORKLOADS[spec["workload"]]
    ctx = make_ctx(spec["workload"], spec["seed"], spec["size"])
    mode = spec["mode"]
    trace = LayerTrace() if spec["traced"] else None
    gc.collect()
    if trace is not None:
        trace.install()
    error = None
    t1 = time.perf_counter()
    try:
        if mode == "setup":
            for cmd in (workload.setup(ctx) if workload.setup else []):
                cli(cmd)
        else:
            workload.steps(ctx, 2 if mode == "t2" else 1)
    except Exception as exc:  # any failure of the program counts
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t1
        if trace is not None:
            trace.uninstall()
    print(json.dumps({
        "import_s": import_s,
        "wall": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "error": error,
        "layers": trace.metrics(wall) if trace is not None else None,
    }))


def call_worker(ctx, seed, size_name, mode, traced):
    spec = {"workload": ctx.workload, "seed": seed, "size": size_name,
            "mode": mode, "traced": traced}
    failed = {"wall": 0.0, "rss_mb": 0.0, "layers": None}
    try:
        proc = subprocess.run(
            [sys.executable, __file__, "--worker", json.dumps(spec)],
            cwd=WORK / ctx.workload, capture_output=True, text=True,
            timeout=170, check=False)
    except subprocess.TimeoutExpired:
        return {**failed, "error": "worker timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {**failed, "error": f"worker exited {proc.returncode}: "
                                   f"{proc.stderr[-500:]}"}
    return json.loads(lines[-1])


def setup_inputs(commands):
    """Output paths of the set-up commands (their -o argument)."""
    return [cmd[cmd.index("-o") + 1] for cmd in commands]


# ------------------------------------------------------------------ measuring

@dataclass
class PassResult:
    mode: str
    wall: float
    rss_mb: float
    error: str | None
    layers: dict | None = None


def run_passes(run_pass, modes, seconds):
    """Alternate-order pairs of passes until the next pair would end after
    `seconds`, and at least MIN_PAIRS pairs."""
    results = []
    start = time.perf_counter()
    last_pair = 0.0
    pairs = 0
    while pairs < MIN_PAIRS or time.perf_counter() - start + last_pair <= seconds:
        t0 = time.perf_counter()
        for mode in (modes if pairs % 2 == 0 else modes[::-1]):
            results.append(run_pass(mode))
        last_pair = time.perf_counter() - t0
        pairs += 1
    return results


def make_pass(workload, ctx, seed, size_name, reference):
    """Return run_pass(mode) for modes "t1", "t2", "plain" and "traced".

    `reference` maps output name -> sha256; when empty, the first pass that
    succeeds fills it and later passes are compared with it.
    """
    def run_pass(mode):
        for name in workload.outputs:
            if os.path.exists(name):
                os.remove(name)
        r = call_worker(ctx, seed, size_name, "t2" if mode == "t2" else "t1",
                        mode == "traced")
        error = r["error"]
        if error is None:
            try:
                digests = {name: sha256_file(name) for name in workload.outputs}
                if not reference:
                    reference.update(digests)
                for name, digest in reference.items():
                    if digests[name] != digest:
                        raise PassFailed(f"{name} bytes differ ({mode} pass): "
                                         f"{digests[name]} != {digest}")
                workload.check(ctx)
            except (PassFailed, OSError, KeyError, ValueError) as exc:
                error = f"check failed: {exc}"
        if error is not None:
            print(f"pass failed ({mode}): {error}", file=sys.stderr)
        return PassResult(mode, r["wall"], r["rss_mb"], error, r["layers"])
    return run_pass


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def describe(name, values, unit):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    samples = " ".join(f"{v:.4f}" for v in values)
    return (f"  {name:<38} {med:.6g} {unit}  (median of {len(values)}; "
            f"q1 {q1:.6g}, q3 {q3:.6g}; samples {samples})")


# ---------------------------------------------------------------- environment

def environment():
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    affinity = (sorted(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": cpu,
        "hupa_commit": git_commit(),
        "hupa_src_sha256": source_digest(),
    }


def git_commit():
    """Commit of the checkout, or None outside a git work tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over src/hupa's files, identifying the code when there is no
    git metadata."""
    h = hashlib.sha256()
    for path in sorted((SRC / "hupa").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


# ----------------------------------------------------------------------- main

def run_workload(name, seed, seconds, traced, size_name):
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    os.chdir(workdir)
    try:
        return measure(WORKLOADS[name], make_ctx(name, seed, size_name), seed,
                       seconds, traced, size_name)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, ctx, seed, seconds, traced, size_name):
    inputs = setup_inputs(workload.setup(ctx) if workload.setup else [])
    # Set-up: SETUP_REPEATS timed set-ups, or one traced one for the
    # generator metrics of workloads whose generation is not timed.
    setups, input_digests = [], set()
    for _ in range(1 if traced else SETUP_REPEATS):
        r = call_worker(ctx, seed, size_name, "setup", traced)
        if r["error"] is not None:
            print(f"set-up failed: {r['error']}", file=sys.stderr)
            return False, 1, 1, {}, []
        setups.append(r)
        input_digests.add(tuple(sha256_file(p) for p in inputs))
    if len(input_digests) != 1:
        print("set-up wrote different inputs for the same seed", file=sys.stderr)
        return False, 1, 1, {}, []
    if "points.txt" in inputs:
        ctx.n_input = data_rows("points.txt")

    reference = {}
    if seed == DEFAULT_SEED and size_name == "full" and PINNED.exists():
        reference.update(load_json(PINNED)[ctx.workload])
    run_pass = make_pass(workload, ctx, seed, size_name, reference)
    modes = ("plain", "traced") if traced else ("t1", "t2")
    results = run_passes(run_pass, modes, seconds)

    lines = []
    if traced:
        metrics = layer_metrics(results, setups[0]["layers"], lines)
    else:
        metrics = end_to_end_metrics(results, setups, lines)
    failed = sum(r.error is not None for r in results)
    lines.append(f"  {'error_rate':<38} {failed / len(results):.6g}  "
                 f"({failed} failed of {len(results)} attempted)")
    lines.append("  outputs " + json.dumps(reference, sort_keys=True))
    lines.extend(f"  {note}" for note in sorted(ctx.notes))
    return failed == 0, len(results), failed, metrics, lines


def end_to_end_metrics(results, setups, lines):
    walls = {m: [r.wall for r in results if r.mode == m and r.error is None]
             for m in ("t1", "t2")}
    if not (walls["t1"] and walls["t2"]):
        return {}
    setup_s = [r["import_s"] + r["wall"] for r in setups]
    rss = [r.rss_mb for r in results if r.error is None]
    lines.append(describe("wall_s", walls["t1"], "s"))
    lines.append(describe("wall_2t_s", walls["t2"], "s"))
    lines.append(describe("peak_rss_mb", rss, "MiB"))
    lines.append(describe("setup_s", setup_s, "s"))
    return {
        "wall_s": statistics.median(walls["t1"]),
        "wall_2t_s": statistics.median(walls["t2"]),
        "peak_rss_mb": max(rss),  # the largest peak of any pass's process
        "setup_s": statistics.median(setup_s),
    }


def layer_metrics(results, setup_layers, lines):
    traced = [r for r in results if r.mode == "traced" and r.error is None]
    plain = [r for r in results if r.mode == "plain" and r.error is None]
    if not (traced and plain):
        return {}
    units = per_layer_units()
    first = traced[0].layers
    counts = [k for k in first if units.get(k) == "count"]
    for r in traced[1:]:
        moved = [k for k in counts if r.layers[k] != first[k]]
        if moved:
            r.error = f"counts differ between traced passes: {moved}"
            print(r.error, file=sys.stderr)
    metrics = {k: first[k] for k in counts}
    for key in first:
        if key not in counts:
            metrics[key] = statistics.median(r.layers[key] for r in traced)
    if metrics["generators.points_generated"] == 0:
        # Generation is set-up here, not a timed step.
        for key in ("generators.generate_s", "generators.points_generated"):
            metrics[key] = setup_layers[key]
    gen_s = metrics["generators.generate_s"]
    metrics["generators.points_per_s"] = (
        metrics["generators.points_generated"] / gen_s if gen_s else 0.0)
    traced_wall = statistics.median(r.wall for r in traced)
    plain_wall = statistics.median(r.wall for r in plain)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    lines.append(describe("untraced wall_s", [r.wall for r in plain], "s"))
    lines.append(describe("traced wall_s", [r.wall for r in traced], "s"))
    lines.append(f"  {'cli.self_s share of traced wall_s':<38} "
                 f"{metrics['cli.self_s'] / traced_wall:.2%}")
    for key, unit in units.items():
        lines.append(f"  {key:<38} {metrics[key]:.6g} {unit}")
    return metrics


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(SIZES), default="full",
                   help="input sizes; 'tiny' is for the self-test only")
    p.add_argument("--worker", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.worker is None and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    return args


def require_sources():
    if not (SRC / "hupa" / "__init__.py").is_file():
        sys.exit(f"error: no hupa sources under {SRC}; run from a full checkout")


def import_checkout_hupa():
    """Import hupa from this checkout's src/, never from elsewhere."""
    require_sources()
    sys.path.insert(0, str(SRC))
    import hupa.cli
    if not Path(hupa.cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported hupa from {hupa.cli.__file__}, not {SRC}")


def run_all(args):
    """Every workload in turn, printed as one result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace), "--size", args.size],
            capture_output=True, text=True, timeout=900, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for key, value in result["metrics"].items():
            metrics[f"{name}/{key}"] = value
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None):
    args = parse_args(argv)
    if args.worker is not None:
        worker(json.loads(args.worker))
        return 0
    require_sources()
    if args.workload == "all":
        run_all(args)
        return 0
    correct, attempted, failed, metrics, lines = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"size {args.size}")
    print("\n".join(lines))
    print("env " + json.dumps(environment(), sort_keys=True))
    if set(metrics) != set(units):
        print(f"metrics not computed: {sorted(set(units) - set(metrics))}",
              file=sys.stderr)
        correct = False
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items() if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
