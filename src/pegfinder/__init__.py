"""Inscribed polygons on closed curves, numerically.

Squares, special quadrilaterals, equilateral triangles, edge-regular n-gons,
prescribed-ratio rectangles, planar rhombi on knots, and regular octahedra on
scaled spheres, found by Gauss-Newton multistart and pseudo-arclength
continuation of the corresponding residual systems.
"""

from .circle import circle_dist, wrap
from .corpus import corpus, corpus_list
from .counting import (
    CountReport,
    classify_rectangle_components,
    count_special_quads,
    count_squares,
    orientation_check,
)
from .curves import (
    ClosedCurve,
    EmbeddedSphere,
    FourierCurve,
    PolylineCurve,
    curve_from_spec,
    self_intersects,
    signed_area,
)
from .errors import (
    BoundaryExitError,
    ConvergenceError,
    DegenerateConfigurationError,
    DomainError,
    NonIsolatedSolutionsError,
    PegfinderError,
    SearchFailure,
    UnknownCorpusError,
)
from .fields import ChordalField, DistanceField, SyntheticField, field_from_spec
from .polygons import PolygonParam, from_vertices, vertices
from .residuals import (
    EdgeRatioSystem,
    OctahedronSystem,
    ParallelogramSystem,
    RectangleSystem,
    ResidualSystem,
    Rhombus3dSystem,
    SpecialQuadPathSystem,
    SpecialQuadSliceSystem,
    SquareSystem,
    TriangleSystem,
    octahedron_group,
)
from .searches import (
    edge_ratio_branches,
    find_equilateral_triangle,
    find_octahedra,
    find_planar_rhombus,
    find_rectangle,
    find_square,
    find_two_metric_triangle,
    winding_sum,
)
from .solvers import gauss_newton_batch, refine
from .tracing import Branch, Event, TraceSettings, branch_events, branch_orbit, trace_branch, winding_number

__version__ = "0.1.0"
