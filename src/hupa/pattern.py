"""Periodic-domain point patterns and their file format.

The domain is an axis-aligned rectangle (2D) or cuboid (3D) with fully
periodic boundaries.  Coordinates use the half-open convention [0, L) per
axis so every point has a unique representative.  All types are immutable
after construction and safe to share across threads.

Pattern file format (text, UTF-8, LF newlines)::

    #hupa-pattern v1
    dim=2 lengths=10,10 hard_radius=none
    provenance=<free text>
    <x> <y>            one point per line, 17 significant digits
    ...
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial import cKDTree

from .errors import PatternFormatError

MAGIC = "#hupa-pattern v1"

# Re-parses to the identical double; keeps >= 12 significant digits.
_COORD_FMT = "{:#.17g}"

_HARD_CORE_TOL = 1e-9


@dataclass(frozen=True)
class BoxDomain:
    """Axis-aligned periodic box, 2D or 3D.

    ``lengths`` is one extent per axis in model units.  Opposite faces are
    identified, so the box is a flat torus; there is no boundary.
    """

    lengths: tuple[float, ...]

    def __post_init__(self):
        lengths = tuple(float(x) for x in self.lengths)
        object.__setattr__(self, "lengths", lengths)
        if len(lengths) not in (2, 3):
            raise ValueError(f"box must be 2D or 3D, got {len(lengths)} axes")
        if any(not np.isfinite(x) or x <= 0 for x in lengths):
            raise ValueError(f"box lengths must be finite and positive: {lengths}")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def volume(self) -> float:
        """Area in 2D, volume in 3D."""
        return float(np.prod(self.lengths))

    @property
    def min_length(self) -> float:
        return min(self.lengths)

    def lengths_array(self) -> np.ndarray:
        return np.asarray(self.lengths, dtype=float)


def wrap_point(p, box: BoxDomain) -> np.ndarray:
    """Map a coordinate (or an array of them) into [0, L) per axis.

    The result differs from the input by an integer number of periods on
    each axis.  Points already inside the box are returned unchanged, so
    wrapping is idempotent.
    """
    p = np.asarray(p, dtype=float)
    L = box.lengths_array()
    out = p - np.floor(p / L) * L
    # floor() can land exactly on L for tiny negative inputs; fold to 0.
    out = np.where(out >= L, 0.0, out)
    return out


def periodic_delta(p, q, box: BoxDomain) -> np.ndarray:
    """Minimum-image displacement p - q, componentwise in (-L/2, L/2]."""
    d = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    L = box.lengths_array()
    return d - np.round(d / L) * L

def periodic_distance(p, q, box: BoxDomain) -> float:
    """Euclidean distance under the minimum-image convention.

    Returns the smallest distance between p and any periodic image of q;
    the result never exceeds half of the box diagonal.
    """
    return float(np.linalg.norm(periodic_delta(p, q, box)))


@dataclass(frozen=True, eq=False)
class PointPattern:
    """An ordered set of points in a periodic box.

    ``hard_radius`` is set for packings (every distinct pair then keeps a
    periodic distance of at least twice the radius); ``provenance`` records
    the generator, seed, and parameters that produced the pattern.
    """

    box: BoxDomain
    points: np.ndarray
    hard_radius: float | None = None
    provenance: str = ""

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.size == 0:
            pts = pts.reshape(0, self.box.dim)
        if pts.ndim != 2 or pts.shape[1] != self.box.dim:
            raise ValueError(
                f"points must have shape (n, {self.box.dim}), got {pts.shape}"
            )
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.hard_radius is not None:
            object.__setattr__(self, "hard_radius", float(self.hard_radius))
            if self.hard_radius < 0:
                raise ValueError("hard_radius must be nonnegative")
        L = self.box.lengths_array()
        if pts.size and (np.any(pts < 0) or np.any(pts >= L) or not np.isfinite(pts).all()):
            raise ValueError("coordinates must lie in [0, length) per axis")
        if self.hard_radius:
            self._check_hard_core()

    def _check_hard_core(self):
        r = self.hard_radius
        if len(self.points) < 2 or r == 0:
            return
        for i, j in sorted(self.tree.query_pairs(2.0 * r)):
            d = periodic_distance(self.points[i], self.points[j], self.box)
            if d < 2.0 * r - _HARD_CORE_TOL:
                raise ValueError(
                    f"hard-core violation: points {i} and {j} are {d:.12g} apart, "
                    f"need >= {2 * r:.12g}"
                )

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def tree(self) -> cKDTree:
        """Periodic KD-tree over the points, built on first use and shared
        by window counting, nearest-neighbor distances and the hard-core
        check."""
        return cKDTree(self.points, boxsize=self.box.lengths)

    @property
    def dim(self) -> int:
        return self.box.dim

    def intensity(self) -> float:
        """Points per unit area (2D) or volume (3D)."""
        return len(self.points) / self.box.volume

    def mean_nearest_neighbor_distance(self) -> float:
        """Mean over points of the periodic distance to the nearest other point."""
        if len(self.points) < 2:
            raise ValueError("need at least 2 points")
        d, _ = self.tree.query(self.points, k=2)
        return float(d[:, 1].mean())


def save_pattern(pattern: PointPattern, path) -> None:
    """Write a pattern file; the round trip through load_pattern is exact."""
    if "\n" in pattern.provenance or "\r" in pattern.provenance:
        raise ValueError("provenance must not contain newlines")
    hr = "none" if pattern.hard_radius is None else _COORD_FMT.format(pattern.hard_radius)
    lengths = ",".join(_COORD_FMT.format(x) for x in pattern.box.lengths)
    lines = [
        MAGIC,
        f"dim={pattern.dim} lengths={lengths} hard_radius={hr}",
        f"provenance={pattern.provenance}",
    ]
    for row in pattern.points:
        lines.append(" ".join(_COORD_FMT.format(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_header_fields(line: str, lineno: int) -> dict:
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise PatternFormatError(f"expected key=value, got {tok!r}", lineno)
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _parse_float(tok: str, lineno: int, what: str) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise PatternFormatError(f"unparseable {what} {tok!r}", lineno) from None
    if not np.isfinite(v):
        raise PatternFormatError(f"{what} {tok!r} outside representable range", lineno)
    return v


def load_pattern(path) -> PointPattern:
    """Read a pattern file.

    Points are wrapped into the declared box; provenance is preserved from
    the header.  Format violations raise PatternFormatError with the
    offending line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().split("\n")
    if raw and raw[-1] == "":
        raw.pop()
    if not raw or raw[0].strip() != MAGIC:
        raise PatternFormatError(f"missing magic line {MAGIC!r}", 1)
    if len(raw) < 3:
        raise PatternFormatError("truncated header: need dim and provenance lines", len(raw))

    fields = _parse_header_fields(raw[1], 2)
    for key in ("dim", "lengths", "hard_radius"):
        if key not in fields:
            raise PatternFormatError(f"header missing {key}=", 2)
    try:
        dim = int(fields["dim"])
    except ValueError:
        raise PatternFormatError(f"bad dim={fields['dim']!r}", 2) from None
    if dim not in (2, 3):
        raise PatternFormatError(f"dim must be 2 or 3, got {dim}", 2)
    lengths = tuple(
        _parse_float(tok, 2, "box length") for tok in fields["lengths"].split(",")
    )
    if len(lengths) != dim:
        raise PatternFormatError(
            f"lengths has {len(lengths)} axes but dim={dim}", 2
        )
    if fields["hard_radius"] == "none":
        hard_radius = None
    else:
        hard_radius = _parse_float(fields["hard_radius"], 2, "hard_radius")

    if not raw[2].startswith("provenance="):
        raise PatternFormatError("third line must start with provenance=", 3)
    provenance = raw[2][len("provenance="):]

    box = BoxDomain(lengths)
    rows = []
    for lineno, line in enumerate(raw[3:], start=4):
        if not line.strip():
            continue
        toks = line.split()
        if len(toks) != dim:
            raise PatternFormatError(
                f"point row has {len(toks)} components, header declares dim={dim}",
                lineno,
            )
        rows.append([_parse_float(t, lineno, "coordinate") for t in toks])

    pts = np.asarray(rows, dtype=float).reshape(len(rows), dim)
    pts = wrap_point(pts, box)
    return PointPattern(box=box, points=pts, hard_radius=hard_radius,
                        provenance=provenance)


def pattern_to_csv(pattern: PointPattern) -> str:
    """CSV rendering of the coordinate table (header x,y[,z])."""
    header = ",".join("xyz"[: pattern.dim])
    lines = [header]
    for row in pattern.points:
        lines.append(",".join(_COORD_FMT.format(v) for v in row))
    return "\n".join(lines) + "\n"
