"""Pattern generators covering the order-disorder spectrum.

Four recipes: fully random (Poisson), perfect lattices (square, triangular,
cubic), independently jittered lattices (disordered but with lattice-grade
large-scale density control), and hard-core packings built by random
sequential addition, one tree-narrowed loop whose memory grows with the
centers placed.  Every generator is a pure function of its parameters and a
64-bit seed; identical inputs give bit-identical patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .errors import IncommensurateBoxError, TargetUnreachableError
from .pattern import BoxDomain, PointPattern, wrap_point

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

LATTICE_KINDS = ("square", "triangular", "cubic")
_DEFAULT_LATTICE = {2: "square", 3: "cubic"}  # by box dimension
_RSA_BATCH = 256  # fewest RSA candidates drawn per batch


def validate_seed(seed) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def derive_seed(base_seed: int, index: int) -> int:
    """Deterministic per-realization seed: output index+1 of the splitmix64
    stream started at base_seed.

    Direct computation (no stream walking), so realization i gets the same
    seed regardless of evaluation order or thread schedule.
    """
    base_seed = validate_seed(base_seed)
    if index < 0:
        raise ValueError("index must be nonnegative")
    z = (base_seed + (index + 1) * _GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _fmt_box(box: BoxDomain) -> str:
    return "x".join(f"{x:g}" for x in box.lengths)


def _commensurate_steps(length: float, cell: float, axis: int, spacing: float,
                        parity: int = 1) -> int:
    """Number of cells along an axis; errors if not an integer multiple.

    ``parity`` requires the count to also be a multiple of that value
    (triangular lattices need an even number of rows).  The error names
    both the nearest commensurate length and the spacing that would make
    the given length commensurate.
    """
    n = length / cell
    n_round = max(parity, parity * round(n / parity))
    if not math.isclose(n_round * cell, length, rel_tol=1e-9, abs_tol=0.0):
        nearest_spacing = spacing * length / (n_round * cell)
        raise IncommensurateBoxError(axis, length, n_round * cell, nearest_spacing)
    return int(n_round)


def generate_poisson(box: BoxDomain, intensity: float, seed: int) -> PointPattern:
    """Homogeneous Poisson pattern: count ~ Poisson(intensity * |box|),
    positions independent and uniform."""
    seed = validate_seed(seed)
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    rng = np.random.default_rng(seed)
    n = int(rng.poisson(intensity * box.volume))
    pts = wrap_point(rng.random((n, box.dim)) * box.lengths_array(), box)
    prov = f"poisson(rho={intensity:g}, box={_fmt_box(box)}, seed={seed})"
    return PointPattern(box=box, points=pts, provenance=prov)


def _lattice_sites(box: BoxDomain, lattice_kind: str, spacing: float) -> np.ndarray:
    a = float(spacing)
    if a <= 0:
        raise ValueError("spacing must be positive")
    if lattice_kind in ("square", "cubic"):
        dim = 2 if lattice_kind == "square" else 3
        if box.dim != dim:
            raise ValueError(f"{lattice_kind} lattice needs a {dim}D box")
        ns = [_commensurate_steps(box.lengths[k], a, axis=k, spacing=a)
              for k in range(dim)]
        grids = np.meshgrid(*[np.arange(n) for n in ns], indexing="ij")
        return np.column_stack([g.ravel() * a for g in grids])
    if lattice_kind == "triangular":
        if box.dim != 2:
            raise ValueError("triangular lattice needs a 2D box")
        dy = a * math.sqrt(3.0) / 2.0
        ncols = _commensurate_steps(box.lengths[0], a, axis=0, spacing=a)
        # Rows come in offset pairs, so the height must hold an even count.
        nrows = _commensurate_steps(box.lengths[1], dy, axis=1, spacing=a, parity=2)
        rows = np.arange(nrows)
        cols = np.arange(ncols)
        cc, rr = np.meshgrid(cols, rows, indexing="ij")
        x = cc * a + (rr % 2) * (a / 2.0)
        y = rr * dy
        return np.column_stack([x.ravel(), y.ravel()])
    raise ValueError(f"unknown lattice kind {lattice_kind!r}; expected one of {LATTICE_KINDS}")


def generate_lattice(box: BoxDomain, lattice_kind: str | None = None, *,
                     spacing: float, seed: int = 0) -> PointPattern:
    """Perfect lattice filling the box; lattice_kind None means square in
    2D and cubic in 3D.

    The box must be commensurate with the generating cell; the error for an
    incommensurate axis names the nearest commensurate length.  The seed is
    recorded in the provenance for interface symmetry and otherwise ignored.
    """
    seed = validate_seed(seed)
    if lattice_kind is None:
        lattice_kind = _DEFAULT_LATTICE[box.dim]
    sites = wrap_point(_lattice_sites(box, lattice_kind, spacing), box)
    prov = (f"lattice(kind={lattice_kind}, a={spacing:g}, box={_fmt_box(box)}, "
            f"seed={seed})")
    return PointPattern(box=box, points=sites, provenance=prov)


def generate_perturbed_lattice(box: BoxDomain, spacing: float, jitter: float,
                               seed: int) -> PointPattern:
    """Square (2D) or cubic (3D) lattice with each site displaced
    independently and uniformly in [-jitter, +jitter] per axis, then wrapped.

    With jitter = 0 this reproduces generate_lattice exactly.
    """
    seed = validate_seed(seed)
    a = float(spacing)
    d = float(jitter)
    if not 0 <= d < a / 2:
        raise ValueError(f"jitter must satisfy 0 <= jitter < spacing/2, got {d}")
    sites = _lattice_sites(box, _DEFAULT_LATTICE[box.dim], a)
    rng = np.random.default_rng(seed)
    if d > 0:
        sites = sites + rng.uniform(-d, d, sites.shape)
    pts = wrap_point(sites, box)
    prov = (f"perturbed_lattice(a={a:g}, jitter={d:g}, box={_fmt_box(box)}, "
            f"seed={seed})")
    return PointPattern(box=box, points=pts, provenance=prov)


def _rsa_target_count(box: BoxDomain, hard_radius: float, count, fraction) -> int:
    if (count is None) == (fraction is None):
        raise ValueError("give exactly one of count or fraction")
    if count is not None:
        n = int(count)
        if n < 0:
            raise ValueError("count must be nonnegative")
        return n
    cap = 0.5 if box.dim == 2 else 0.3
    if not 0 < fraction <= cap:
        raise ValueError(
            f"packing fraction must be in (0, {cap}] for {box.dim}D "
            f"(random sequential addition saturates above that), got {fraction:g}"
        )
    if box.dim == 2:
        grain = math.pi * hard_radius ** 2
    else:
        grain = 4.0 / 3.0 * math.pi * hard_radius ** 3
    return round(fraction * box.volume / grain)


def generate_rsa_packing(box: BoxDomain, hard_radius: float, *,
                         count: int | None = None,
                         fraction: float | None = None,
                         max_attempts: int = 10_000,
                         seed: int) -> PointPattern:
    """Random sequential addition of hard disks (2D) or spheres (3D).

    Candidate centers are drawn uniformly; a candidate is accepted iff its
    periodic distance to every accepted center is >= 2 * hard_radius.  Stops
    at the target count, or raises TargetUnreachableError (carrying the
    partial count) after max_attempts consecutive rejections.

    Candidates are drawn in batches, which gives the same stream as single
    draws; one periodic KD-tree per batch narrows each one's neighbours, and
    the accept test runs in draw order, so batching never changes the output.
    Memory grows with the centers placed, not with the target.
    """
    seed = validate_seed(seed)
    r = float(hard_radius)
    if r <= 0:
        raise ValueError("hard_radius must be positive")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    target = _rsa_target_count(box, r, count, fraction)
    rng = np.random.default_rng(seed)
    L = box.lengths_array()
    min_dist = 2.0 * r
    min_dist_sq = min_dist * min_dist
    reach = min_dist * (1.0 + 1e-9)  # the tree only narrows; min_dist_sq decides
    accepted = np.empty((0, box.dim))
    rejections = 0
    while len(accepted) < target:
        n = len(accepted)
        # A batch as large as the packing spreads each tree build over at
        # least as many draws as the tree holds points.
        draws = rng.random((max(_RSA_BATCH, n), box.dim))
        pts = np.concatenate([accepted, wrap_point(draws * L, box)])
        a, b = cKDTree(pts, boxsize=L).query_pairs(reach, output_type="ndarray").T
        d = np.abs(pts[a] - pts[b])  # a < b: point a came first
        d = np.minimum(d, L - d)
        hit = np.einsum("ij,ij->i", d, d) < min_dist_sq
        blocked = set(b[hit & (a < n)].tolist())  # by points placed before
        later: dict[int, list[int]] = {}  # candidate -> later ones it blocks
        own = hit & (a >= n)
        for i, k in zip(a[own].tolist(), b[own].tolist()):
            later.setdefault(i, []).append(k)
        kept = []
        for i in range(n, len(pts)):
            if rejections >= max_attempts:
                raise TargetUnreachableError(n + len(kept), target, max_attempts)
            if i in blocked:
                rejections += 1
                continue
            kept.append(i)
            rejections = 0
            if n + len(kept) == target:
                break
            blocked.update(later.get(i, ()))
        accepted = np.concatenate([accepted, pts[kept]])

    kind = "fraction" if fraction is not None else "count"
    val = fraction if fraction is not None else count
    prov = (f"rsa_packing(r={r:g}, {kind}={val:g}, box={_fmt_box(box)}, "
            f"max_attempts={max_attempts}, seed={seed})")
    return PointPattern(box=box, points=accepted, hard_radius=r, provenance=prov)


class Param(NamedTuple):
    """A generator parameter: library keyword, CLI flag and parse type,
    whether a spec must give it, and its help text."""

    name: str
    flag: str
    type: Callable
    required: bool
    help: str
    choices: tuple | None = None


class Generator(NamedTuple):
    fn: Callable  # called as fn(box, seed=..., **params)
    params: tuple


_SPACING = Param("spacing", "--spacing", float, True, "lattice spacing a")

# One table of generator kinds: GeneratorSpec checks parameters against it,
# generate() dispatches through it and the CLI builds its flags from it, so a
# new kind is one function plus one entry.  Defaults live in the signatures;
# lattice's seed is recorded in its provenance but drives nothing.
GENERATORS = {
    "poisson": Generator(generate_poisson, (
        Param("intensity", "--rho", float, True, "expected points per unit volume"),
    )),
    "lattice": Generator(generate_lattice, (
        Param("lattice_kind", "--kind", str, False, "cell geometry", LATTICE_KINDS),
        _SPACING,
    )),
    "perturbed_lattice": Generator(generate_perturbed_lattice, (
        _SPACING,
        Param("jitter", "--jitter", float, True, "uniform displacement half-width"),
    )),
    "rsa_packing": Generator(generate_rsa_packing, (
        Param("hard_radius", "--hard-radius", float, True, "hard-core radius"),
        Param("count", "--count", int, False, "number of centers to place"),
        Param("fraction", "--fraction", float, False, "target packing fraction"),
        Param("max_attempts", "--max-attempts", int, False,
              "consecutive-rejection budget"),
    )),
}
GENERATOR_KINDS = tuple(GENERATORS)


@dataclass(frozen=True)
class GeneratorSpec:
    """A generator recipe: kind, box, kind-specific parameters, and seed.

    The parameter names are checked against GENERATORS: an unknown name, or
    a missing (or None) required one, raises ValueError.
    """

    kind: str
    box: BoxDomain
    params: Mapping = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GENERATORS:
            raise ValueError(
                f"unknown generator kind {self.kind!r}; expected one of {GENERATOR_KINDS}"
            )
        params = dict(self.params)
        known = GENERATORS[self.kind].params
        names = tuple(p.name for p in known)
        for name in params:
            if name not in names:
                raise ValueError(f"unknown parameter {name!r} for {self.kind}; "
                                 f"it takes {names}")
        for p in known:
            if p.required and params.get(p.name) is None:
                raise ValueError(f"{self.kind} requires parameter {p.name!r}")
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "seed", validate_seed(self.seed))


def generate(spec: GeneratorSpec) -> PointPattern:
    """Run the generator described by a GeneratorSpec."""
    return GENERATORS[spec.kind].fn(spec.box, seed=spec.seed, **spec.params)


def ensemble(spec: GeneratorSpec, n_realizations: int,
             base_seed: int | None = None) -> list[PointPattern]:
    """n independent realizations of one recipe.

    Realization i uses derive_seed(base_seed, i), so members are identical
    across runs and independent of generation order.
    """
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    base = spec.seed if base_seed is None else validate_seed(base_seed)
    return [generate(GeneratorSpec(spec.kind, spec.box, spec.params,
                                   derive_seed(base, i)))
            for i in range(n_realizations)]
