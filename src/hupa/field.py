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
import re
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


PNM_MAGICS = (b"P1", b"P2", b"P4", b"P5")
# Whitespace and `#` comments, then one decimal header field.
_HEADER_FIELD = re.compile(rb"(?:\s|#[^\n]*)*(\d*)")
_COMMENT = re.compile(rb"#[^\n]*")


def load_field(path, threshold: int | None = None) -> BinaryField:
    """Load a PBM (P1/P4) or PGM (P2/P5) image as a binary field.

    PGM pixels with value <= threshold are dark; PBM 1-bits are dark.  A
    threshold in 0..255 is required for PGM input and refused for PBM
    input (ValueError).  Comments may appear in the header and in an
    ASCII payload; P2 values above maxval are a FieldFormatError.  Box
    lengths default to one model unit per pixel; a sidecar file
    `<image>.hupa` can override them and assert periodic content.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in PNM_MAGICS:
        raise FieldFormatError("not a PBM/PGM file (bad magic number)", offset=0)
    gray = magic in (b"P2", b"P5")
    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise FieldFormatError(f"bad dimensions {width}x{height}", offset=pos)
    maxval = 1
    if gray:
        maxval_at = pos
        maxval, pos = _header_int(data, pos, "maxval")
        if not 0 < maxval <= 255:
            raise FieldFormatError(
                f"maxval {maxval} out of range (1-255)", offset=maxval_at
            )
        if threshold is None:
            raise ValueError("a threshold is required for grayscale input")
        threshold = int(threshold)
        if not 0 <= threshold <= 255:
            raise ValueError("threshold must be in [0, 255]")
    elif threshold is not None:
        raise ValueError("a threshold applies only to grayscale (P2/P5) input")
    if magic in (b"P1", b"P2"):
        values = _decode_ascii(data, pos, width * height, maxval, not gray)
        values = values.reshape(height, width)
    else:
        values = _decode_binary(data, pos, width, height, not gray)
    bits = values <= threshold if gray else values.view(bool)  # 0s and 1s

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
    extra = f", threshold={threshold}" if gray else ""
    prov = (f"loaded({os.path.basename(str(path))}, "
            f"format={magic.decode()}{extra})")
    return BinaryField(box=box, bits=bits, provenance=prov,
                       periodic_asserted=periodic)


def _header_int(data: bytes, pos: int, what: str):
    """The header field after pos, and the offset just past it."""
    m = _HEADER_FIELD.match(data, pos)
    if not m[1]:
        raise FieldFormatError(f"expected {what}", offset=m.start(1))
    try:
        return int(m[1]), m.end()
    except ValueError:  # past Python's 4300-digit limit
        raise FieldFormatError(f"{what} has too many digits",
                               offset=m.start(1)) from None


def _decode_ascii(data: bytes, pos: int, count: int, maxval: int,
                  bitmap: bool) -> np.ndarray:
    """The first count values of a P1 (bitmap) or P2 payload at data[pos:].

    Comments become spaces of the same length, so offsets still point
    into data.  A P1 value is one non-space byte, a P2 value a run of
    digits.  The first bad byte or P2 value above maxval met before the
    count-th value is an error at its offset.  Temporaries take one or
    two bytes per payload byte.
    """
    body = _COMMENT.sub(lambda m: b" " * len(m[0]), data)
    body = np.frombuffer(body, dtype=np.uint8)[pos:]
    digit = body - 48  # non-digits wrap to >= 10
    errors = (body != 32) & (body - 9 >= 5)  # non-space; narrowed below
    if bitmap:
        ends = errors.copy()
        errors &= digit > 1
    else:
        isd = digit < 10
        digit *= isd
        ends = isd.copy()
        ends[:-1] &= ~isd[1:]
        errors &= ~isd
        # A nonzero digit with three more after it makes a value >= 1000;
        # else the value is that of the run's last three digits, read
        # where the run ends.
        errors[:-3] |= (digit[:-3] - 1 < 9) & isd[1:-2] & isd[2:-1] & isd[3:]
        value = digit.astype(np.uint16)
        value[1:] += 10 * digit[:-1]
        value[2:] += np.uint16(100) * (digit[:-2] * isd[1:-1])
        errors |= ends & (value > maxval)
        digit = value
    if errors.any():
        at = int(errors.argmax())
        if bitmap:
            message = f"bad bitmap digit {chr(body[at])!r}"
        elif not isd[at]:
            message = "expected pixel value"
        else:  # at the value's start; the header took the digits before pos
            at -= int(isd[at::-1].argmin()) - 1
            message = f"pixel value above maxval {maxval}"
        if np.count_nonzero(ends[:at]) < count:  # values before the error
            raise FieldFormatError(message, offset=pos + at)
    values = digit[ends]
    if len(values) < count:
        kind = "bitmap" if bitmap else "graymap"
        raise FieldFormatError(f"truncated {kind} payload", offset=len(data))
    return values[:count]


def _decode_binary(data: bytes, pos: int, width: int, height: int,
                   bitmap: bool) -> np.ndarray:
    """The (height, width) raster of a P4 (bitmap) or P5 payload: one
    whitespace byte, then rows of packed bits or of one byte per pixel."""
    if pos >= len(data) or data[pos] not in b" \t\r\n":
        raise FieldFormatError("missing separator before raster", offset=pos)
    row_bytes = (width + 7) // 8 if bitmap else width
    if len(data) - pos - 1 < row_bytes * height:
        kind = "bitmap" if bitmap else "graymap"
        raise FieldFormatError(f"truncated {kind} payload", offset=len(data))
    raw = np.frombuffer(data, dtype=np.uint8, count=row_bytes * height,
                        offset=pos + 1).reshape(height, row_bytes)
    return np.unpackbits(raw, axis=1, count=width) if bitmap else raw


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
