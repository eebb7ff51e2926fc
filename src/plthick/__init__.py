"""plthick: exact PL-topology toolkit.

Builds, from a finite 2-dimensional simplicial complex, an orientable
3-dimensional pseudomanifold with boundary that deformation-retracts to it,
and closes the result into a boundaryless pseudomanifold by reflecting
across a mirror structure on the boundary.  Combinatorial operators
(subdivision, spines, neighborhoods, homology) work in any dimension.
"""

from .complex_core import (
    Complex,
    barycentric_subdivision,
    boundary_and_free_faces,
    cone_off,
    greedy_collapse,
    is_flag,
    is_full_subcomplex,
    link_of,
    regular_neighborhood,
    relative_barycentric_subdivision,
    simplex,
    simplicial_neighborhood,
    spine,
    spine_boundary_check,
    validate_complex,
)
from .geometry import (
    GeometricMap,
    sample_general_position_map,
    singular_set,
    verify_general_position,
)
from .homology import HomologyResult, boundary_matrices, homology_groups, smith_normal_form
from .pseudomanifold import (
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    orient,
)
from .reflection import (
    basic_construction,
    boundary_mirror_structure,
    close_up,
    verify_closed_locally,
)
from .thicken3 import (
    build_spine_thickening,
    cone_boundary_neighborhoods,
    extract_sheet_data,
    thicken,
    verify_thickening,
)

__all__ = [
    "Complex",
    "simplex",
    "validate_complex",
    "link_of",
    "boundary_and_free_faces",
    "is_full_subcomplex",
    "barycentric_subdivision",
    "relative_barycentric_subdivision",
    "spine",
    "simplicial_neighborhood",
    "regular_neighborhood",
    "spine_boundary_check",
    "cone_off",
    "is_flag",
    "greedy_collapse",
    "boundary_matrices",
    "smith_normal_form",
    "homology_groups",
    "HomologyResult",
    "GeometricMap",
    "sample_general_position_map",
    "verify_general_position",
    "singular_set",
    "check_pseudomanifold",
    "check_isolated_singularities",
    "classify_link",
    "orient",
    "extract_sheet_data",
    "build_spine_thickening",
    "cone_boundary_neighborhoods",
    "verify_thickening",
    "thicken",
    "boundary_mirror_structure",
    "basic_construction",
    "close_up",
    "verify_closed_locally",
]

__version__ = "0.1.0"
