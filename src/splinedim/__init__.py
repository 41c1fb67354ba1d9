"""Exact dimensions and bounds for superspline spaces on planar triangulations.

The package computes, in exact rational arithmetic, the dimension of spaces
of piecewise polynomials on a triangulation with prescribed smoothness
across interior edges and enhanced (super-)smoothness at vertices.  The
exact dimension comes from a kernel oracle over the rationals; closed-form
lower and upper bounds and a family of special-case formulas (vertex stars,
degree-(4r+1) supersplines, Powell-Sabin 6-splits) are computed alongside
and cross-checked against it.
"""

from .dimension import (
    DimensionReport,
    EdgePieces,
    InternalInconsistencyError,
    OutOfRangeError,
    argyris_dim,
    check_euler_side,
    euler_assembly,
    exact_dimension,
    h0_dimension,
    intrinsic_supersmoothness_order,
    lower_bound_51,
    lower_bound_52,
    ps_dim_general,
    star_smoothness_spec,
    upper_bound_53,
    vertex_star_dim,
)
from .ideals import (
    EdgeIdealSpec,
    GradedIdeal,
    dim_edge_ideal_boundary_closed,
    dim_edge_ideal_closed,
    dim_vertex_star_ideal_closed,
    edge_ideal,
    edge_ideal_for,
    vertex_ideal,
    vertex_socle_params,
)
from .mesh import (
    FaceCounts,
    Mesh,
    MeshError,
    OrderingNotFoundError,
    SmoothnessSpec,
    distinct_slopes_at,
    load_mesh_document,
    mesh_to_json,
    validate_disk,
    verify_vertex_ordering,
    vertex_ordering,
)
from .polyring import (
    HomogeneousPolynomial,
    LinearForm3,
    edge_linear_form,
    graded_monomial_basis,
    vertex_complement_form,
)
from .ratlinalg import RatMatrix, binom
from .refine import (
    PSSplitResult,
    make_vertex_star,
    morgan_scott_mesh,
    powell_sabin_6split,
)

__version__ = "0.1.0"
