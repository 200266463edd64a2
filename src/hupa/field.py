"""Two-phase (dark/light) raster fields on a periodic box.

A field is a grid of square pixels, each dark or light.  The analysis
mirrors the point-pattern one: drop circular windows, measure the dark
fraction inside each, and study how its variance decays with window
radius.  Membership is by pixel center, no partial-pixel clipping: cheap,
unbiased as the pixel size goes to zero, and consistent with how the
point-count path treats window boundaries.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import FieldFormatError
from .pattern import BoxDomain
from .variance import (MEMBERSHIP_TOL, check_centers, check_window_radius,
                       check_workers)

# Windows x visited rows per chunk of the window engine (~1 MiB per
# temporary array).
_CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class BinaryField:
    """Immutable dark/light pixel grid over a periodic 2D box.

    bits is (rows, cols) boolean, True = dark; row i, column j has its
    pixel center at ((j + 0.5) * h, (i + 0.5) * h).  periodic_asserted
    records whether the source claimed periodic content (loaded photos
    wrap artificially; reports flag that).
    """

    box: BoxDomain
    bits: np.ndarray
    provenance: str = ""
    periodic_asserted: bool = False
    _prefix: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=bool)
        if bits.ndim != 2 or bits.shape[0] < 1 or bits.shape[1] < 1:
            raise ValueError("bits must be a nonempty 2D array")
        if self.box.dim != 2:
            raise ValueError("fields are 2D in this version")
        ny, nx = bits.shape
        hx = self.box.lengths[0] / nx
        hy = self.box.lengths[1] / ny
        if not math.isclose(hx, hy, rel_tol=1e-12):
            raise ValueError(
                f"pixels are not square: {hx!r} x {hy!r}; adjust box or grid"
            )
        bits = bits.copy()
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)
        # Per-row dark-count prefix sums: the window engine reduces every
        # circular window to one column interval per row.
        pref = np.zeros((ny, nx + 1), dtype=np.int64)
        np.cumsum(bits, axis=1, out=pref[:, 1:])
        pref.setflags(write=False)
        object.__setattr__(self, "_prefix", pref)

    @property
    def shape(self):
        return self.bits.shape

    @property
    def pixel_size(self) -> float:
        return self.box.lengths[0] / self.bits.shape[1]

    @property
    def dark_fraction(self) -> float:
        return float(self.bits.sum()) / self.bits.size

    def window_dark_fractions(self, centers, radius: float,
                              workers: int = 1) -> np.ndarray:
        """Dark fraction among pixel centers within periodic distance
        radius of each window center.

        Exact: per window and per grid row, the in-window pixels form one
        wrapped column interval, counted against the row prefix sums.
        Only the band of ceil(2R/h) + 3 rows around each center is
        visited (all rows once the band would cover the grid); rows
        outside it lie more than R + h from the center.  A window too
        small to contain any pixel center reports 0.

        Windows are evaluated in chunks of about 2**17 window rows, so
        temporaries stay bounded for any raster.  ``workers`` is an integer
        >= 1; above 1 the chunks run on that many threads.  Every count is
        an exact integer, so the values never depend on ``workers``.
        """
        radius = check_window_radius(self.box, radius) + MEMBERSHIP_TOL
        centers = check_centers(self.box, centers)
        workers = check_workers(workers)
        out = np.empty(len(centers))
        band = min(math.ceil(2.0 * radius / self.pixel_size) + 3,
                   self.bits.shape[0])
        step = max(1, _CHUNK_ELEMENTS // band)
        starts = range(0, len(centers), step)

        def run(lo):
            out[lo:lo + step] = self._fractions_chunk(
                centers[lo:lo + step], radius, band)

        if workers > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, starts))
        else:
            for lo in starts:
                run(lo)
        return out

    def _fractions_chunk(self, centers: np.ndarray, radius: float,
                         band: int) -> np.ndarray:
        ny, nx = self.bits.shape
        ly = self.box.lengths[1]
        h = self.pixel_size
        cx = centers[:, 0:1]
        cy = centers[:, 1:2]
        if band < ny:
            first = np.floor((cy - radius) / h - 0.5).astype(np.int64)
            rows = (first + np.arange(band)) % ny
        else:
            rows = np.broadcast_to(np.arange(ny), (len(centers), ny))
        dy = (rows + 0.5) * h - cy
        dy -= np.round(dy / ly) * ly
        inside = np.abs(dy) <= radius
        half = np.sqrt(np.maximum(radius * radius - dy * dy, 0.0))
        jlo = np.ceil((cx - half) / h - 0.5).astype(np.int64)
        jhi = np.floor((cx + half) / h - 0.5).astype(np.int64)
        n_states = np.where(inside, np.clip(jhi - jlo + 1, 0, nx), 0)

        # One flat gather into the (ny, nx + 1) prefix table per interval
        # end; a wrapped interval adds the whole row back.
        pref = self._prefix.ravel()
        base = rows * (nx + 1)
        row_total = pref[base + nx]
        a = jlo % nx
        b = jhi % nx
        dark = pref[base + b + 1] - pref[base + a]
        dark += np.where(a > b, row_total, 0)
        dark = np.where(n_states >= nx, row_total, dark)
        dark = np.where(n_states > 0, dark, 0)
        total = n_states.sum(axis=1)
        dark_total = dark.sum(axis=1)
        return np.where(total > 0, dark_total / np.maximum(total, 1), 0.0)


def rasterize_tessellation(tess, pixels_per_axis: int,
                           wall_halfwidth: float) -> BinaryField:
    """Render cell boundaries as dark walls on a light background.

    A pixel is dark iff its center lies within wall_halfwidth (periodic
    metric) of some cell edge segment; exact hits are dark.
    """
    pixels_per_axis = int(pixels_per_axis)
    if pixels_per_axis < 16:
        raise ValueError("pixels_per_axis must be >= 16")
    w = float(wall_halfwidth)
    if w < 0:
        raise ValueError("wall_halfwidth must be nonnegative")
    box = tess.pattern.box
    lx, ly = box.lengths
    nx = pixels_per_axis
    h = lx / nx
    ny_f = ly / h
    ny = round(ny_f)
    if ny < 1 or not math.isclose(ny * h, ly, rel_tol=1e-9):
        raise ValueError(
            "box aspect ratio does not give an integer pixel row count; "
            "square pixels are required"
        )
    bits = np.zeros((ny, nx), dtype=bool)
    reach = w + h  # stamp margin: pixel centers this close may qualify
    for cell in tess.cells:
        poly = cell.polygon
        for k in range(len(poly)):
            p0 = poly[k]
            p1 = poly[(k + 1) % len(poly)]
            _stamp_segment(bits, p0, p1, w, reach, h, nx, ny)
    prov = (f"rasterized_walls(source={tess.pattern.provenance}, "
            f"pixels={nx}, wall_halfwidth={w:g})")
    return BinaryField(box=box, bits=bits, provenance=prov,
                       periodic_asserted=True)


def _stamp_segment(bits, p0, p1, w, reach, h, nx, ny):
    """Mark pixels whose centers lie within w of segment p0-p1.

    Works on the unwrapped pixel index grid covering the segment's
    bounding box, then folds indices into the periodic grid.
    """
    x0, x1 = sorted((p0[0], p1[0]))
    y0, y1 = sorted((p0[1], p1[1]))
    jlo = math.floor((x0 - reach) / h - 0.5)
    jhi = math.ceil((x1 + reach) / h - 0.5)
    ilo = math.floor((y0 - reach) / h - 0.5)
    ihi = math.ceil((y1 + reach) / h - 0.5)
    jj = np.arange(jlo, min(jhi, jlo + nx - 1) + 1)
    ii = np.arange(ilo, min(ihi, ilo + ny - 1) + 1)
    xs = (jj + 0.5) * h
    ys = (ii + 0.5) * h
    px, py = np.meshgrid(xs, ys)
    dx, dy = p1[0] - p0[0], p1[1] - p0[1]
    seg2 = dx * dx + dy * dy
    if seg2 == 0.0:
        qx, qy = p0[0], p0[1]
        d2 = (px - qx) ** 2 + (py - qy) ** 2
    else:
        t = ((px - p0[0]) * dx + (py - p0[1]) * dy) / seg2
        t = np.clip(t, 0.0, 1.0)
        qx = p0[0] + t * dx
        qy = p0[1] + t * dy
        d2 = (px - qx) ** 2 + (py - qy) ** 2
    mask = d2 <= w * w
    if not mask.any():
        return
    rows = ii % ny
    cols = jj % nx
    # Fold the stamped patch into the periodic grid row by row.
    for r_local, r in enumerate(rows):
        hit = cols[mask[r_local]]
        bits[r, hit] = True


_PNM_MAGICS = {b"P1", b"P2", b"P4", b"P5"}


class _Tokenizer:
    """Whitespace/comment-aware PNM header scanner that tracks offsets."""

    def __init__(self, data: bytes, pos: int):
        self.data = data
        self.pos = pos

    def skip_space(self):
        data = self.data
        n = len(data)
        while self.pos < n:
            c = data[self.pos]
            if c in b"#":
                while self.pos < n and data[self.pos] not in b"\n":
                    self.pos += 1
            elif c in b" \t\r\n\x0b\x0c":
                self.pos += 1
            else:
                return

    def next_int(self, what: str) -> int:
        self.skip_space()
        start = self.pos
        data = self.data
        while self.pos < len(data) and data[self.pos : self.pos + 1].isdigit():
            self.pos += 1
        if self.pos == start:
            raise FieldFormatError(f"expected {what}", offset=start)
        return int(data[start:self.pos])


def load_field(path, threshold: int | None = None) -> BinaryField:
    """Load a PBM (P1/P4) or PGM (P2/P5) image as a binary field.

    PGM pixels with value <= threshold are dark; PBM 1-bits are dark.  Box
    lengths default to one model unit per pixel; a sidecar file
    `<image>.hupa` can override them and assert periodic content.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2 or data[:2] not in _PNM_MAGICS:
        raise FieldFormatError("not a PBM/PGM file (bad magic number)", offset=0)
    magic = data[:2].decode()
    tok = _Tokenizer(data, 2)
    width = tok.next_int("width")
    height = tok.next_int("height")
    if width < 1 or height < 1:
        raise FieldFormatError(f"bad dimensions {width}x{height}", offset=tok.pos)
    if magic in ("P2", "P5"):
        maxval_at = tok.pos
        maxval = tok.next_int("maxval")
        if not 0 < maxval <= 255:
            raise FieldFormatError(
                f"maxval {maxval} out of range (1-255)", offset=maxval_at
            )
        if threshold is None:
            raise ValueError("a threshold is required for grayscale input")
        if not 0 <= int(threshold) <= 255:
            raise ValueError("threshold must be in [0, 255]")
    if magic == "P1":
        bits = _read_p1(tok, width, height)
    elif magic == "P2":
        bits = _read_p2(tok, width, height) <= int(threshold)
    elif magic == "P4":
        bits = _read_p4(tok, width, height)
    else:
        bits = _read_p5(tok, width, height) <= int(threshold)

    lengths = (float(width), float(height))
    periodic = False
    sidecar = str(path) + ".hupa"
    if os.path.exists(sidecar):
        lengths, periodic = _read_sidecar(sidecar, lengths)
    box = BoxDomain(lengths=lengths)
    ny, nx = bits.shape
    hx, hy = lengths[0] / nx, lengths[1] / ny
    if not math.isclose(hx, hy, rel_tol=1e-12):
        raise FieldFormatError(
            f"sidecar lengths {lengths[0]:g},{lengths[1]:g} give nonsquare "
            f"pixels for a {nx}x{ny} grid",
            offset=0,
        )
    prov = f"loaded({os.path.basename(str(path))}, format={magic}"
    if magic in ("P2", "P5"):
        prov += f", threshold={int(threshold)}"
    prov += ")"
    return BinaryField(box=box, bits=bits, provenance=prov,
                       periodic_asserted=periodic)


def _read_p1(tok: _Tokenizer, width: int, height: int) -> np.ndarray:
    vals = np.empty(width * height, dtype=bool)
    data = tok.data
    n = len(data)
    for k in range(width * height):
        tok.skip_space()
        if tok.pos >= n:
            raise FieldFormatError("truncated bitmap payload", offset=n)
        c = data[tok.pos]
        if c == 0x30:
            vals[k] = False
        elif c == 0x31:
            vals[k] = True
        else:
            raise FieldFormatError(
                f"bad bitmap digit {chr(c)!r}", offset=tok.pos
            )
        tok.pos += 1
    return vals.reshape(height, width)


def _read_p2(tok: _Tokenizer, width: int, height: int) -> np.ndarray:
    vals = np.empty(width * height, dtype=np.int64)
    for k in range(width * height):
        tok.skip_space()
        if tok.pos >= len(tok.data):
            raise FieldFormatError("truncated graymap payload", offset=len(tok.data))
        vals[k] = tok.next_int("pixel value")
    return vals.reshape(height, width)


def _read_p4(tok: _Tokenizer, width: int, height: int) -> np.ndarray:
    pos = tok.pos
    data = tok.data
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise FieldFormatError("missing separator before raster", offset=pos)
    pos += 1
    row_bytes = (width + 7) // 8
    need = row_bytes * height
    if len(data) - pos < need:
        raise FieldFormatError("truncated bitmap payload", offset=len(data))
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    bits = np.unpackbits(raw.reshape(height, row_bytes), axis=1)[:, :width]
    return bits.astype(bool)


def _read_p5(tok: _Tokenizer, width: int, height: int) -> np.ndarray:
    pos = tok.pos
    data = tok.data
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise FieldFormatError("missing separator before raster", offset=pos)
    pos += 1
    need = width * height
    if len(data) - pos < need:
        raise FieldFormatError("truncated graymap payload", offset=len(data))
    raw = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    return raw.reshape(height, width).astype(np.int64)


def _read_sidecar(path, default_lengths):
    lengths = default_lengths
    periodic = False
    with open(path, "rb") as fh:
        data = fh.read()
    offset = 0
    for raw_line in data.split(b"\n"):
        line = raw_line.decode("utf-8", errors="replace").strip()
        if line and not line.startswith("#"):
            if "=" not in line:
                raise FieldFormatError(
                    f"sidecar line {line!r} is not key=value", offset=offset
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key == "lengths":
                try:
                    parts = [float(v) for v in value.split(",")]
                except ValueError:
                    parts = []
                if len(parts) != 2 or any(
                    not math.isfinite(v) or v <= 0 for v in parts
                ):
                    raise FieldFormatError(
                        f"bad sidecar lengths {value!r}", offset=offset
                    )
                lengths = (parts[0], parts[1])
            elif key == "periodic":
                if value not in ("true", "false"):
                    raise FieldFormatError(
                        f"bad sidecar periodic flag {value!r}", offset=offset
                    )
                periodic = value == "true"
            else:
                raise FieldFormatError(
                    f"unknown sidecar key {key!r}", offset=offset
                )
        offset += len(raw_line) + 1
    return lengths, periodic


def save_field(field_: BinaryField, path):
    """Write a field as binary PBM (P4); 1-bits mark dark pixels."""
    ny, nx = field_.bits.shape
    header = f"P4\n{nx} {ny}\n".encode()
    packed = np.packbits(field_.bits.astype(np.uint8), axis=1)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(packed.tobytes())
