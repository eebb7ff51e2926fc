"""The in-repo fixture corpus.

Every complex referenced by name in the test suite and docs lives here.
"""

from .complex_core import validate_complex
from .errors import ValidationError


_RAW = {
    "single_triangle": [["a", "b", "c"]],
    "single_edge": [["a", "b"]],
    "three_cycle": [["a", "b"], ["b", "c"], ["a", "c"]],
    "four_cycle": [["a", "b"], ["b", "c"], ["c", "d"], ["a", "d"]],
    "four_cycle_cone": [["p", "a", "b"], ["p", "b", "c"], ["p", "c", "d"], ["p", "a", "d"]],
    "boundary_delta3": [["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"]],
    "boundary_delta4": [
        ["a", "b", "c", "d"], ["a", "b", "c", "e"], ["a", "b", "d", "e"],
        ["a", "c", "d", "e"], ["b", "c", "d", "e"],
    ],
    "pinched_spheres": [
        ["a", "b", "c"], ["a", "b", "d"], ["a", "c", "d"], ["b", "c", "d"],
        ["a", "e", "f"], ["a", "e", "g"], ["a", "f", "g"], ["e", "f", "g"],
    ],
    "book_of_three": [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]],
    # Six-vertex triangulation of the projective plane (antipodal icosahedron).
    "projective_plane_6": [
        ["1", "2", "5"], ["1", "2", "6"], ["1", "3", "4"], ["1", "3", "6"],
        ["1", "4", "5"], ["2", "3", "4"], ["2", "3", "5"], ["2", "4", "6"],
        ["3", "5", "6"], ["4", "5", "6"],
    ],
    "two_triangles_shared_vertex": [["a", "b", "c"], ["a", "d", "e"]],
    "two_triangles_shared_edge": [["a", "b", "c"], ["a", "b", "d"]],
}


def _torus_7():
    faces = []
    for i in range(7):
        faces.append([str(i), str((i + 1) % 7), str((i + 3) % 7)])
        faces.append([str(i), str((i + 2) % 7), str((i + 3) % 7)])
    return faces


_RAW["torus_7"] = _torus_7()


FIXTURE_NAMES = tuple(sorted(_RAW))

# Inputs exercised by the full thickening pipeline.
THICKENING_FIXTURES = (
    "single_triangle",
    "two_triangles_shared_edge",
    "two_triangles_shared_vertex",
    "boundary_delta3",
    "projective_plane_6",
    "torus_7",
)


def fixture(name):
    if name not in _RAW:
        raise ValidationError(
            "unknown fixture %r (have: %s)" % (name, ", ".join(FIXTURE_NAMES)))
    return validate_complex(_RAW[name])
