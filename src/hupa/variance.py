"""Growing-window variance analysis and scaling classification.

The measurement: drop many equal-radius windows into the periodic box,
record how much the per-window statistic (point count, or dark-pixel
fraction) fluctuates, repeat over a sweep of radii, and fit the log-log
slope of variance against radius.  The slope separates Poisson-like
patterns, whose count variance grows like the window volume, from
hyperuniform ones, where growth tracks the window surface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CannotFitError, DegenerateInputError, WindowTooLargeError
from .pattern import BoxDomain, PointPattern

MODE_NUMBER = "number_count"
MODE_FRACTION = "dark_fraction"

MEMBERSHIP_TOL = 1e-12
MIN_FIT_POINTS = 3
R_SQUARED_FLOOR = 0.9
CLASS_DEAD_BAND = 0.25

DEFAULT_N_WINDOWS = {2: 10_000, 3: 4_000}
DEFAULT_N_RADII = 16
DEFAULT_R_MAX_FACTOR = 0.25
DEFAULT_R_MIN_SPACINGS = 2.0
DEFAULT_R_MIN_PIXELS = 4.0

NON_HYPERUNIFORM = "non_hyperuniform"
HYPERUNIFORM = "hyperuniform"
INTERMEDIATE = "intermediate"
UNDETERMINED = "undetermined"


def window_radius_limit(box: BoxDomain) -> float:
    """Largest usable window radius: half the shortest box edge.  Beyond it
    a window overlaps its own periodic image and counts double."""
    return box.min_length / 2.0


def check_window_radius(box: BoxDomain, radius: float) -> float:
    radius = float(radius)
    limit = window_radius_limit(box)
    if not 0.0 < radius < limit:
        raise WindowTooLargeError(radius, limit)
    return radius


def check_centers(box: BoxDomain, centers) -> np.ndarray:
    """Window centers as an (n, dim) float array; ValueError unless every
    coordinate is finite and there is one column per box axis."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    if centers.ndim != 2 or centers.shape[1] != box.dim:
        raise ValueError(
            f"centers must have shape (n, {box.dim}), got {centers.shape}"
        )
    if not np.isfinite(centers).all():
        raise ValueError("window centers must be finite")
    return centers


def check_workers(workers) -> int:
    """Thread count of a window engine: an integer >= 1, else ValueError."""
    if (isinstance(workers, bool)
            or not isinstance(workers, (int, np.integer)) or workers < 1):
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    return int(workers)


def random_centers(box: BoxDomain, n: int, seed: int) -> np.ndarray:
    """n window centers drawn uniformly over the box."""
    if n < 1:
        raise ValueError("need at least one window center")
    rng = np.random.default_rng(seed)
    return rng.random((n, box.dim)) * box.lengths_array()


def grid_centers(box: BoxDomain, shape) -> np.ndarray:
    """Regular grid of window centers, one per cell center.  Dense grids
    approximate the exhaustive (every possible placement) variance."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != box.dim or any(s < 1 for s in shape):
        raise ValueError(f"grid shape {shape} does not fit a {box.dim}D box")
    axes = [(np.arange(s) + 0.5) * (L / s) for s, L in zip(shape, box.lengths)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def window_counts(pattern: PointPattern, radius: float, centers: np.ndarray,
                  workers: int = 1) -> np.ndarray:
    """Number of pattern points inside a periodic ball around each center.

    Membership is distance <= radius + MEMBERSHIP_TOL, so points sitting
    exactly on the boundary count as inside regardless of rounding
    direction.  ``workers`` affects speed only; counts are identical for
    any thread count.
    """
    radius = check_window_radius(pattern.box, radius)
    centers = check_centers(pattern.box, centers)
    workers = check_workers(workers)
    if len(pattern) == 0:
        return np.zeros(len(centers), dtype=np.int64)
    counts = pattern.tree.query_ball_point(
        centers, radius + MEMBERSHIP_TOL, workers=workers, return_length=True
    )
    return np.asarray(counts, dtype=np.int64)


@dataclass(frozen=True)
class VarianceCurve:
    """Variance-versus-radius measurement for one pattern or field.

    mean/variance are the per-radius sample mean and unbiased sample
    variance of the window statistic over n_windows windows.
    """

    radii: np.ndarray
    mean: np.ndarray
    variance: np.ndarray
    n_windows: int
    mode: str
    dim: int
    source: str = ""

    def __post_init__(self):
        for name in ("radii", "mean", "variance"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (len(self.radii) == len(self.mean) == len(self.variance)):
            raise ValueError("radii, mean, variance must have equal length")
        if np.any(np.diff(self.radii) <= 0):
            raise ValueError("radii must be strictly increasing")
        if self.n_windows < 2:
            raise ValueError("n_windows must be >= 2")
        if self.mode not in (MODE_NUMBER, MODE_FRACTION):
            raise ValueError(f"unknown curve mode {self.mode!r}")
        if np.any(self.variance < 0):
            raise ValueError("variance must be nonnegative")
        if self.mode == MODE_FRACTION:
            # Fractions live in [0,1]; the unbiased variance of n such
            # values is at most n/(4(n-1)).
            vmax = 0.25 * self.n_windows / (self.n_windows - 1) + 1e-12
            if (np.any(self.mean < -1e-12) or np.any(self.mean > 1 + 1e-12)
                    or np.any(self.variance > vmax)):
                raise ValueError("dark_fraction statistics out of range")

    def to_csv(self) -> str:
        lines = ["R,mean,variance,n_windows,mode"]
        for r, m, v in zip(self.radii, self.mean, self.variance):
            lines.append(f"{r:.17g},{m:.17g},{v:.17g},{self.n_windows},{self.mode}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ScalingFit:
    """Least-squares line through (ln R, ln variance)."""

    alpha: float
    log_prefactor: float
    r_squared: float
    n_points: int
    fit_range: tuple[float, float]


@dataclass(frozen=True)
class OrderClass:
    """Classification verdict for one fitted curve."""

    label: str
    alpha: float
    dim: int
    mode: str


def radius_sweep(r_min: float, r_max: float, n_radii: int) -> np.ndarray:
    if n_radii < 1:
        raise ValueError("n_radii must be >= 1")
    if not 0 < r_min <= r_max:
        raise DegenerateInputError(
            f"cannot build a radius sweep over [{r_min:g}, {r_max:g}]"
        )
    if n_radii == 1:
        return np.array([float(r_min)])
    return np.exp(np.linspace(np.log(r_min), np.log(r_max), n_radii))


def _subject_kind(subject):
    """The one place that tells a point pattern from a binary field.

    Returns the curve mode, the window statistic as
    ``statistic(centers, radius, workers)``, and a function giving the
    smallest radius of the default sweep with its name for messages.
    Point patterns count points (below two mean spacings counts are
    mostly 0/1); fields take dark fractions (below a few pixel edges a
    window holds too few pixel centers to carry a meaningful fraction).
    """
    if isinstance(subject, PointPattern):
        def r_min():
            if len(subject) < 2:
                raise DegenerateInputError(
                    "need at least 2 points to choose a default radius sweep"
                )
            spacing = subject.mean_nearest_neighbor_distance()
            return DEFAULT_R_MIN_SPACINGS * spacing, "2x mean spacing"
        return (MODE_NUMBER,
                lambda c, r, w: window_counts(subject, r, c, workers=w), r_min)
    return (MODE_FRACTION, subject.window_dark_fractions,
            lambda: (DEFAULT_R_MIN_PIXELS * subject.pixel_size,
                     "4 pixel edges"))


def default_radii(subject, n_radii: int = DEFAULT_N_RADII) -> np.ndarray:
    """Log-spaced sweep for a point pattern or a binary field, from the
    smallest radius _subject_kind gives up to a quarter of the shortest box
    edge (above that, periodic self-overlap artifacts set in)."""
    r_min, what = _subject_kind(subject)[2]()
    r_max = DEFAULT_R_MAX_FACTOR * subject.box.min_length
    if r_min >= r_max:
        raise DegenerateInputError(
            f"default sweep collapsed: {what} {r_min:g} reaches the "
            f"window limit {r_max:g}; pass radii explicitly"
        )
    return radius_sweep(r_min, r_max, n_radii)


def variance_curve(subject, radii=None, n_windows: int | None = None,
                   seed: int = 0, workers: int = 1,
                   centers: np.ndarray | None = None) -> VarianceCurve:
    """Window-variance curve of a point pattern (number_count mode) or a
    binary field (dark_fraction mode) over a radius sweep.

    ``radii`` defaults to default_radii(subject) and ``n_windows`` to
    DEFAULT_N_WINDOWS for the box dimension.  Window centers are drawn once
    and reused for every radius: common random numbers make the curve
    smoother and cross-radius ratios less noisy than independent draws
    would.  Pass explicit ``centers`` (e.g. an exhaustive grid) to bypass
    random placement.  An empty pattern, or a field whose windows show
    zero variance at every radius, raises DegenerateInputError.
    """
    mode, statistic, _ = _subject_kind(subject)
    box = subject.box
    if mode == MODE_NUMBER and len(subject) == 0:
        raise DegenerateInputError("cannot measure variance of an empty pattern")
    if radii is None:
        radii = default_radii(subject)
    radii = np.asarray(radii, dtype=float)
    if radii.ndim != 1 or len(radii) == 0:
        raise ValueError("radii must be a nonempty 1D array")
    for r in radii:
        check_window_radius(box, r)
    if centers is None:
        if n_windows is None:
            n_windows = DEFAULT_N_WINDOWS[box.dim]
        if n_windows < 2:
            raise ValueError("n_windows must be >= 2")
        centers = random_centers(box, int(n_windows), seed)
    else:
        centers = check_centers(box, centers)
    means = np.empty(len(radii))
    variances = np.empty(len(radii))
    for i, r in enumerate(radii):
        values = statistic(centers, r, workers)
        means[i] = values.mean()
        variances[i] = values.var(ddof=1)
    if mode == MODE_FRACTION and not np.any(variances > 0):
        raise DegenerateInputError("degenerate field: zero variance at all radii")
    return VarianceCurve(radii=radii, mean=means, variance=variances,
                         n_windows=len(centers), mode=mode, dim=box.dim,
                         source=subject.provenance)


def fit_scaling(curve: VarianceCurve,
                fit_range: tuple[float, float] | None = None) -> ScalingFit:
    """Fit ln(variance) = alpha * ln(R) + c by ordinary least squares.

    Radii outside fit_range are excluded before fitting.  Fewer than
    MIN_FIT_POINTS usable radii, or any zero variance in range, is an
    error: a log-log slope from such data would be meaningless, and
    silently dropping zero-variance radii would bias the slope.
    """
    if fit_range is None:
        lo, hi = -np.inf, np.inf
    else:
        lo, hi = float(fit_range[0]), float(fit_range[1])
    keep = (curve.radii >= lo) & (curve.radii <= hi)
    radii = curve.radii[keep]
    var = curve.variance[keep]
    if len(radii) < MIN_FIT_POINTS:
        raise CannotFitError(
            f"need at least {MIN_FIT_POINTS} radii in the fit range, have {len(radii)}"
        )
    if np.any(var <= 0):
        raise CannotFitError(
            "zero variance at one or more radii in range; narrow the fit "
            "range to exclude them"
        )
    x = np.log(radii)
    y = np.log(var)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(dx @ dx)
    if sxx == 0.0:
        raise CannotFitError("all radii in range are identical")
    ss_tot = float(dy @ dy)
    if ss_tot == 0.0:
        # Flat response: OLS slope is exactly 0 and the fit is exact.
        alpha, r_squared = 0.0, 1.0
    else:
        alpha = float(dx @ dy) / sxx
        resid = dy - alpha * dx
        r_squared = max(0.0, 1.0 - float(resid @ resid) / ss_tot)
    log_prefactor = float(y.mean() - alpha * x.mean())
    return ScalingFit(alpha=alpha, log_prefactor=log_prefactor,
                      r_squared=r_squared, n_points=len(radii),
                      fit_range=(float(radii.min()), float(radii.max())))


def classify(fit: ScalingFit, dim: int, mode: str = MODE_NUMBER) -> OrderClass:
    """Map a fitted slope to a hyperuniformity label.

    Anchors: count variance grows like R^dim for Poisson-like patterns and
    like R^(dim-1) for strongly hyperuniform ones; dark-fraction variance
    decays like R^-dim versus R^-(dim+1).  A dead band of CLASS_DEAD_BAND
    around each anchor absorbs estimator noise; slopes between the bands
    are "intermediate" rather than a forced binary call, and a fit with
    r_squared below R_SQUARED_FLOOR is "undetermined" because the curve is
    not a power law to begin with.
    """
    if dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    if mode == MODE_NUMBER:
        upper, lower = float(dim), float(dim - 1)
    elif mode == MODE_FRACTION:
        upper, lower = float(-dim), float(-(dim + 1))
    else:
        raise ValueError(f"unknown curve mode {mode!r}")
    if fit.r_squared < R_SQUARED_FLOOR:
        label = UNDETERMINED
    elif fit.alpha >= upper - CLASS_DEAD_BAND:
        label = NON_HYPERUNIFORM
    elif fit.alpha <= lower + CLASS_DEAD_BAND:
        label = HYPERUNIFORM
    else:
        label = INTERMEDIATE
    return OrderClass(label=label, alpha=fit.alpha, dim=dim, mode=mode)


def analyze(pattern_or_field, radii=None, n_windows: int | None = None,
            seed: int = 0, workers: int = 1,
            fit_range: tuple[float, float] | None = None
            ) -> tuple[VarianceCurve, ScalingFit, OrderClass]:
    """End-to-end pipeline: curve, then fit, then classification."""
    curve = variance_curve(pattern_or_field, radii=radii, n_windows=n_windows,
                           seed=seed, workers=workers)
    fit = fit_scaling(curve, fit_range=fit_range)
    order = classify(fit, curve.dim, curve.mode)
    return curve, fit, order
