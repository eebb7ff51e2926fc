"""Workload inputs, the operations run on them, and their known verdicts.

Every input is generated here from the workload seed; the program only
ever receives these inputs.  The expected answers are facts of topology,
written down by hand, not values read back from plthick.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable

# Homology as (betti numbers, torsion coefficients) per dimension.
POINT_3D = ((1, 0, 0, 0), ((), (), (), ()))
RP2_3D = ((1, 0, 0, 0), ((), (2,), (), ()))
TORUS_3D = ((1, 2, 1, 0), ((), (), (), ()))
TORUS_2D = ((1, 2, 1), ((), (), ()))
# Closing up a cone over a square (octahedron) boundary: the nerve is a join
# of two (three) point pairs, so the 2^4 (2^6) chambers close up into the
# 2-torus (3-torus).
T3 = ((1, 3, 3, 1), ((), (), (), ()))

# Six-vertex projective plane (antipodal quotient of the icosahedron).
RP2_6 = [
    ["1", "2", "5"], ["1", "2", "6"], ["1", "3", "4"], ["1", "3", "6"],
    ["1", "4", "5"], ["2", "3", "4"], ["2", "3", "5"], ["2", "4", "6"],
    ["3", "5", "6"], ["4", "5", "6"],
]
# Seven-vertex (Möbius) torus.
TORUS_7 = [[str(i), str((i + a) % 7), str((i + 3) % 7)] for i in range(7) for a in (1, 2)]
SINGLE_TRIANGLE = [["a", "b", "c"]]
FOUR_CYCLE_CONE = [["p", "a", "b"], ["p", "b", "c"], ["p", "c", "d"], ["p", "a", "d"]]
# Boundary of the octahedron: one triangle per choice of (+-x, +-y, +-z).
OCTAHEDRON = [[x, y, z] for x in ("x+", "x-") for y in ("y+", "y-") for z in ("z+", "z-")]


@dataclass
class Op:
    """One operation on one input: ``call`` runs the program, ``check``
    turns its result into (verdict problems, artifact digests)."""

    input: str
    call: Callable[[], object]
    check: Callable[[object], tuple]


def homology_of(betti, torsion, dims):
    """Betti numbers and torsion, padded with zero groups up to ``dims``."""
    return (tuple(betti) + (0,) * (dims - len(betti)),
            tuple(map(tuple, torsion)) + ((),) * (dims - len(torsion)))


def _relabel(raw, rng, prefix):
    """Rename the vertices by a seeded permutation of fresh labels."""
    old = sorted({v for s in raw for v in s})
    new = ["%s%d" % (prefix, i) for i in range(len(old))]
    rng.shuffle(new)
    rename = dict(zip(old, new))
    return [[rename[v] for v in s] for s in raw]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def complex_digest(cli):
    """sha256 of a complex's canonical JSON, made with the program's own
    serializer as it was before any tracing was installed."""
    canonical_json, complex_to_obj = cli.canonical_json, cli.complex_to_obj
    return lambda X: sha256(canonical_json(complex_to_obj(X)))


def thicken_surfaces(plthick, seed):
    digest = complex_digest(plthick.cli)
    ops = []
    for name, raw, expected in (("projective_plane_6", RP2_6, RP2_3D),
                                ("torus_7", TORUS_7, TORUS_3D)):
        X = plthick.validate_complex(raw)

        def check(result, expected=expected):
            out, rep = result
            problems = []
            got = homology_of(rep.homology_P.betti, rep.homology_P.torsion, 4)
            if got != expected:
                problems.append("H_*(P) = %s, expected %s" % (got, expected))
            if not rep.orientation.success:
                problems.append("P is not orientable")
            if not rep.pseudomanifold.isolated_singularities:
                problems.append("P has non-isolated singularities")
            return problems, {"P": digest(out.P)}

        ops.append(Op(name, lambda X=X: plthick.thicken(X, seed), check))
    return ops


def close_local(plthick, seed):
    cli = plthick.cli
    X = plthick.validate_complex(SINGLE_TRIANGLE)

    def check(artifacts):
        report = json.loads(artifacts["report.json"])
        problems = []
        H = report["homology_P"]
        got = homology_of(H["betti"], H["torsion"], 4)
        if got != POINT_3D:
            problems.append("H_*(P) = %s, expected %s" % (got, POINT_3D))
        if report["orientable"] is not True:
            problems.append("P is not orientable")
        if report["pseudomanifold"]["isolated_singularities"] is not True:
            problems.append("P has non-isolated singularities")
        close = report["close"]
        if close["mode"] != "local":
            problems.append("closure mode %r, expected the local check" % close["mode"])
        if close.get("all_closed_manifolds") is not True:
            problems.append("not every closed-up link is a closed manifold")
        cone = close.get("class_summary", {}).get("cone", {})
        if sum(cone.values()) != 3 or not all(k.startswith("Sphere") for k in cone):
            problems.append("cone classes %s, expected 3 spheres" % cone)
        return problems, {"P": sha256(artifacts["p_complex.json"])}

    return [Op("single_triangle",
               lambda: cli.run_pipeline(cli.PipelineConfig(seed=seed), X), check)]


def close_global(plthick, seed):
    digest = complex_digest(plthick.cli)
    rng = random.Random(seed)
    disc = plthick.validate_complex(_relabel(FOUR_CYCLE_CONE, rng, "d"))
    raw = _relabel(OCTAHEDRON + [["o"]], rng, "v")
    apex = raw.pop()[0]
    oct_ = plthick.validate_complex(raw)
    ball = plthick.cone_off(oct_, oct_, apex)
    ops = []
    for name, P, expected in (("four_cycle_cone", disc, TORUS_2D),
                              ("octahedral_ball", ball, T3)):
        def check(result, expected=expected):
            problems = []
            H = result.homology
            got = homology_of(H.betti, H.torsion, len(expected[0]))
            if got != expected:
                problems.append("H_*(Q) = %s, expected %s" % (got, expected))
            if len(result.report.boundary) != 0:
                problems.append("Q is not closed")
            if not result.orientation.success:
                problems.append("Q is not orientable")
            if not result.report.isolated_singularities:
                problems.append("Q has non-isolated singularities")
            return problems, {"Q": digest(result.Q.complex)}

        ops.append(Op(name, lambda P=P: plthick.close_up(P), check))
    return ops


WORKLOADS = {
    "thicken_surfaces": thicken_surfaces,
    "close_local": close_local,
    "close_global": close_global,
}
