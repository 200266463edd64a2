"""hupa: order metrics for point patterns and two-phase rasters.

Generate point patterns on a periodic box (Poisson, lattices, perturbed
lattices, hard-core packings), measure how their number variance scales
with window size, classify the scaling, tessellate them (periodic Voronoi
and Delaunay), and run the same variance analysis on dark/light images.
Everything is seed-driven and byte-reproducible.
"""

__version__ = "0.1.0"

from .errors import (CannotFitError, DegenerateInputError, FieldFormatError,
                     HupaError, IncommensurateBoxError, PatternFormatError,
                     TargetUnreachableError, TessellationError,
                     WindowTooLargeError)
from .field import (BinaryField, load_field, rasterize_tessellation,
                    save_field)
from .generators import (GENERATOR_KINDS, LATTICE_KINDS, GeneratorSpec,
                         derive_seed, ensemble, generate, generate_lattice,
                         generate_perturbed_lattice, generate_poisson,
                         generate_rsa_packing)
from .pattern import (BoxDomain, PointPattern, load_pattern, pattern_to_csv,
                      periodic_distance, save_pattern, wrap_point)
from .report import (build_report, file_digest, report_json, validate_report,
                     write_report)
from .svg import render_pattern, render_tess_model
from .tessellation import (Cell, CellStats, FaceModel, FaceRecord,
                           Tessellation, Triangulation, cell_statistics,
                           circumcircle_violations, delaunay,
                           ensemble_cell_statistics, face_model, load_tess,
                           save_tess, voronoi)
from .variance import (MODE_FRACTION, MODE_NUMBER, OrderClass, ScalingFit,
                       VarianceCurve, analyze, classify, default_radii,
                       fit_scaling, grid_centers, radius_sweep, random_centers,
                       variance_curve, window_counts)

__all__ = [
    "__version__",
    "HupaError", "PatternFormatError", "FieldFormatError",
    "IncommensurateBoxError", "TargetUnreachableError", "WindowTooLargeError",
    "DegenerateInputError", "CannotFitError", "TessellationError",
    "BoxDomain", "PointPattern", "wrap_point", "periodic_distance",
    "save_pattern", "load_pattern", "pattern_to_csv",
    "GENERATOR_KINDS", "LATTICE_KINDS", "GeneratorSpec", "derive_seed",
    "generate", "ensemble", "generate_poisson", "generate_lattice",
    "generate_perturbed_lattice", "generate_rsa_packing",
    "MODE_NUMBER", "MODE_FRACTION", "VarianceCurve", "ScalingFit",
    "OrderClass", "analyze", "classify", "default_radii", "fit_scaling",
    "grid_centers", "radius_sweep", "random_centers", "variance_curve",
    "window_counts",
    "Triangulation", "Tessellation", "Cell", "CellStats", "FaceModel",
    "FaceRecord", "delaunay", "voronoi", "cell_statistics",
    "ensemble_cell_statistics", "circumcircle_violations", "face_model",
    "save_tess", "load_tess",
    "BinaryField", "load_field", "save_field", "rasterize_tessellation",
    "render_pattern", "render_tess_model",
    "build_report", "report_json", "write_report", "validate_report",
    "file_digest",
]
