"""Exact face-enumeration invariants of simplicial complexes.

Core objects: SimplicialComplex (complexes), Triangulation with carrier maps
(subdivisions), integer polynomials with symmetry and root tooling
(polynomials), homology-based classification (homology), the h / local-h /
theta invariants (invariants), and the verification harness (harness).
"""

from .complexes import (
    SimplicialComplex,
    boundary_simplex,
    cross_polytope_boundary,
    cycle,
    example_5_2_ball,
    example_5_4_ball,
    fresh_label,
    is_induced_subcomplex,
    is_subcomplex,
    octahedron,
    parse_facet_text,
    path,
    read_facet_file,
    simplex,
    union,
    write_facet_file,
)
from .errors import (
    ConsistencyError,
    FileFormatError,
    InvalidTriangulationError,
    MalformedFaceError,
    NotAFaceError,
    PreconditionError,
    ThetaLabError,
)
from .homology import (
    HomologyProfile,
    betti,
    boundary_subcomplex,
    has_interior_vertex_property,
    interior_faces,
    is_cohen_macaulay,
    is_cohen_macaulay_star,
    is_homology_ball,
    is_homology_sphere,
    no_facet_on_union_boundaries,
)
from .invariants import (
    ThetaClass,
    derangement_poly,
    h_interior,
    h_poly,
    h_sd_via_pnk,
    h_vector,
    is_alternatingly_increasing,
    local_h,
    sphere_gamma,
    theta,
    theta_class,
    theta_sd_closed_form,
)
from .polynomials import (
    GammaVector,
    IntPoly,
    SymmetricDecomposition,
    derangement_poly_by_excedance,
    gamma_vector,
    is_gamma_positive,
    is_nonnegative,
    is_real_rooted,
    is_symmetric,
    is_unimodal,
    pnk,
    poly_geq,
    reverse,
    symmetric_decomposition,
)
from .subdivisions import (
    Triangulation,
    antiprism,
    barycentric,
    compose,
    edgewise,
    identity,
    read_triangulation_file,
    stellar,
    write_triangulation_file,
)

__version__ = "0.1.0"
