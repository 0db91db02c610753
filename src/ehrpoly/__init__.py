"""Exact Ehrhart quasi-polynomials of rational convex polygons.

Everything is computed in exact rational arithmetic: lattice-point counts
of dilates, quasi-polynomial coefficients from the edges checked by
Ehrhart-Macdonald reciprocity, minimal coefficient periods, pseudo-integral polygon detection, piecewise
skew unimodular transformations, and the explicit families they build
(kites and triangles with 2 or 1 boundary points, heptagon/triangle glueings
with any period sequence (1, s, t)).
"""

from .geometry import (
    DegenerateInput,
    GeometryError,
    IntegralHull,
    Polygon,
    ZeroVector,
    area,
    boundary_count,
    convex_hull,
    convex_union,
    denominator,
    integral_hull,
    interior_count,
    lattice_count,
    lattice_count_naive,
    lattice_count_rowscan,
    lattice_length,
    lattice_points,
    point,
    primitive,
)
from .regions import (
    HalfOpenSegment,
    InvalidRegion,
    RegionUnion,
    SemiOpenRegion,
    region,
    region_count,
    region_count_naive,
    segment_count,
)
from .unimodular import (
    AffineUnimodular,
    CoincidentPoints,
    NonLatticeAnchor,
    PiecewiseUnimodularMap,
    affine_skew,
    apply_disjoint,
    apply_piecewise,
    apply_to_polygon,
    iterate,
    skew,
    skew_minus,
    skew_plus,
)
from .ehrhart import (
    EhrhartQuasiPolynomial,
    PeriodSequence,
    VerificationFailure,
    ehrhart,
    ehrhart_interpolated,
    gf_series_check,
    is_pip,
    mcmullen_indices,
    minimal_period,
    period_sequence,
    series_coefficients,
)
from .constructions import (
    ConstructionMismatch,
    ConstructionTrace,
    GlueFailure,
    SearchReport,
    TraceStep,
    constant_coefficient_of_interval,
    glued,
    glued_count_identity,
    heptagon,
    heptagon_anchor,
    heptagon_decomposition,
    integral_hull_proposition_check,
    pip_b1,
    pip_b2,
    pip_b2_half,
    scott_admissible,
    scott_inequality_holds,
    scott_pip_search,
    triangle_q,
)
from .sampling import SplitMix64, polygon_corpus, random_polygon, trial_rng

__version__ = "0.1.0"
