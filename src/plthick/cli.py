"""Command-line surface, canonical JSON serialization and the end-to-end
pipeline.

All artifacts are canonical JSON (sorted keys, fixed separators) so that a
given input and configuration produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import fixtures
from .complex_core import (
    Simplex,
    barycentric_subdivision,
    link_of,
    spine,
    validate_complex,
)
from .errors import BudgetExceededError, ToolkitError, ValidationError
from .geometry import (
    GeometricMap,
    format_rational,
    parse_rational,
    sample_general_position_map,
    singular_set,
    verify_general_position,
)
from .homology import homology_groups
from .pseudomanifold import (
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    orient,
)
from .reflection import close_up, verify_closed_locally
from .thicken3 import thicken


# -- canonical serialization -----------------------------------------------------


def canonical_json(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def complex_to_obj(X):
    return {
        "vertices": [{"id": v} for v in X.vertices],
        "simplices": [list(s.vertices) for s in X.maximal_simplices],
    }


def complex_from_obj(obj):
    try:
        vertices, raw = obj["vertices"], obj["simplices"]
    except (KeyError, TypeError) as exc:
        raise ValidationError("malformed complex JSON: %s" % exc)
    if not isinstance(vertices, list) or not all(
            isinstance(v, dict) and "id" in v for v in vertices):
        raise ValidationError("vertices must be a list of objects with an id")
    if not isinstance(raw, list) or not all(isinstance(entry, list) for entry in raw):
        raise ValidationError("simplices must be a list of vertex-id lists")
    declared = [v["id"] for v in vertices]
    for v in declared + [v for entry in raw for v in entry]:
        if not isinstance(v, str):
            raise ValidationError("vertex ids must be strings: %r" % (v,))
    if len(set(declared)) != len(declared):
        raise ValidationError("duplicate vertex declaration")
    known = set(declared)
    for entry in raw:
        for v in entry:
            if v not in known:
                raise ValidationError("simplex references undeclared vertex %r" % v)
    return validate_complex(list(raw) + [[v] for v in declared])


def geometric_map_to_obj(m):
    return {
        "n": m.n,
        "vertices": [{"id": v, "coords": [format_rational(x) for x in m.points[v]]}
                     for v in m.domain.vertices],
        "simplices": [list(s.vertices) for s in m.domain.maximal_simplices],
    }


def geometric_map_from_obj(obj):
    X = complex_from_obj(obj)
    n = obj.get("n")
    if type(n) is not int or n < 1:
        raise ValidationError("n must be a positive integer: %r" % (n,))
    points = {}
    for entry in obj["vertices"]:
        coords = entry.get("coords")
        if not isinstance(coords, list):
            raise ValidationError("vertex %r needs a list of coords" % entry["id"])
        points[entry["id"]] = tuple(parse_rational(c) for c in coords)
    return GeometricMap(domain=X, n=n, points=points)


def link_class_obj(cls):
    return {
        "kind": cls.kind,
        "dim": cls.dim,
        "components": cls.components,
        "is_manifold": cls.is_manifold,
        "orientable": cls.orientable,
        "genus": cls.genus,
        "boundary_components": cls.boundary_components,
        "witness": list(cls.witness.vertices) if cls.witness else None,
    }


def pseudomanifold_report_obj(r):
    obj = {
        "dim": r.dim,
        "is_pure": r.is_pure,
        "facet_degrees_ok": r.facet_degrees_ok,
        "gallery_connected": r.gallery_connected,
        "gallery_components": r.gallery_components,
        "boundary_facets": len(r.boundary.by_dim(r.dim - 1)),
        "isolated_singularities": r.isolated_singularities,
        "positive_links_ok": r.positive_links_ok,
    }
    if r.vertex_links is not None:
        obj["vertex_links"] = {v: link_class_obj(c) for v, c in r.vertex_links.items()}
    if r.facet_witness is not None:
        obj["facet_witness"] = list(r.facet_witness.vertices)
    return obj


def homology_obj(H):
    return {"betti": list(H.betti), "torsion": [list(t) for t in H.torsion]}


# -- pipeline -------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Seed and budgets; the seed determines every random choice."""

    seed: int = 0
    denom_bound: int = 1000
    budget: int = 2_000_000
    local_only: bool = False
    export_off: bool = False

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise ValidationError("seed must be a 64-bit unsigned integer")


def run_pipeline(config, X):
    """Embed, thicken, verify and close (or locally verify) the input.

    Returns a dict of artifact name -> canonical JSON bytes.  The outputs
    are a function of the input complex and the configuration only.
    """
    if X.dim < 2:
        raise ValidationError("d >= 2 required: 1-dimensional inputs cannot thicken",
                              stage="validate")
    out, rep = thicken(X, seed=config.seed, denom_bound=config.denom_bound)
    P = out.P

    artifacts = {}
    artifacts["input.json"] = canonical_json(complex_to_obj(X))
    artifacts["p_complex.json"] = canonical_json(complex_to_obj(P))
    artifacts["provenance.json"] = canonical_json({
        "simplices": [
            {"simplex": list(s.vertices),
             "origin": "M" if origin == "M" else out.cone_vertices[origin[1]]}
            for s, origin in sorted(out.provenance.items())
        ]})

    se = out.spine_embedding
    report_obj = {
        "pseudomanifold": pseudomanifold_report_obj(rep.pseudomanifold),
        "orientable": rep.orientation.success,
        "top_relative_rank": rep.orientation.top_relative_rank,
        "homology_P": homology_obj(rep.homology_P),
        "homology_X": homology_obj(rep.homology_X),
        "homology_copy": homology_obj(rep.homology_copy),
        "collapse_b1": rep.collapse_b1,
        "spine_b1": rep.spine_b1,
        "gallery_components": rep.gallery_components,
        "boundary_chi": {k: [c, b] for k, (c, b) in out.chi_by_component.items()},
        "epsilon": format_rational(se.epsilon),
        "delta_sq": format_rational(se.delta_sq) if se.delta_sq is not None else None,
        "rejection_attempts_max": max(se.attempts.values()),
        "coordinate_bits": se.base.bit_length_stats(),
        "cone_vertices": {v: w for v, w in sorted(out.cone_vertices.items())},
    }

    close_obj = {"mode": None}
    if not config.local_only:
        try:
            closed = close_up(P, budget=config.budget)
            close_obj = {
                "mode": "materialized",
                "chambers": closed.Q.n_chambers,
                "euler": closed.Q.complex.euler_characteristic(),
                "closed": len(closed.report.boundary) == 0,
                "orientable": closed.orientation.success,
                "isolated_singularities": closed.report.isolated_singularities,
                "homology": homology_obj(closed.homology),
            }
            artifacts["q_complex.json"] = canonical_json(
                complex_to_obj(closed.Q.complex))
        except BudgetExceededError as exc:
            close_obj = {"mode": "local", "warning": str(exc)}
    if close_obj["mode"] in (None, "local"):
        local = verify_closed_locally(P, cone_vertices=out.cone_vertices.values(),
                                      report=rep.pseudomanifold)
        tags = {}
        for tau, (tag, cls) in local.classes.items():
            tags.setdefault(tag, {}).setdefault(cls.describe(), 0)
            tags[tag][cls.describe()] += 1
        close_obj.update({
            "mode": "local",
            "classes": len(local.classes),
            "all_closed_manifolds": local.all_closed_manifolds(),
            "class_summary": tags,
        })
    report_obj["close"] = close_obj
    artifacts["report.json"] = canonical_json(report_obj)

    if config.export_off:
        artifacts.update(export_off_files(out))
    return artifacts


# -- viewer export ----------------------------------------------------------------------


def _float_positions(out):
    """Approximate positions for viewing only; predicates never touch these."""
    se = out.spine_embedding
    exact = dict(se.nbhd.points)
    positions = {}
    for v, p in exact.items():
        positions[v] = tuple(float(x) for x in p)
    names = out.names
    if names is not None:
        for (a, b), u in _waist_pairs(out).items():
            pa, pb = positions.get(a), positions.get(b)
            if pa and pb:
                positions[u] = tuple((x + y) / 2 for x, y in zip(pa, pb))
    surface = out.boundary_surface
    adj = surface.adjacency()
    todo = [v for v in surface.vertices if v not in positions]
    for _ in range(12):
        progressed = False
        for v in list(todo):
            known = [positions[u] for u in adj[v] if u in positions]
            if known:
                positions[v] = tuple(sum(c) / len(known) for c in zip(*known))
                todo.remove(v)
                progressed = True
        if not todo or not progressed:
            break
    for v in todo:
        positions[v] = (0.0, 0.0, 0.0)
    return positions


def _waist_pairs(out):
    from .thicken3 import _spine_edge_pairs
    return _spine_edge_pairs(out.spine_embedding, out.names)


def export_off_files(out):
    """Boundary surface and the frontier curves as OFF files."""
    positions = _float_positions(out)
    surface = out.boundary_surface
    verts = sorted(surface.vertices)
    index = {v: i for i, v in enumerate(verts)}
    lines = ["OFF", "%d %d 0" % (len(verts), len(surface.by_dim(2)))]
    for v in verts:
        p = positions.get(v, (0.0, 0.0, 0.0))
        lines.append("%.9g %.9g %.9g" % p)
    for t in surface.by_dim(2):
        lines.append("3 %d %d %d" % tuple(index[v] for v in t.vertices))
    files = {"boundary.off": ("\n".join(lines) + "\n").encode()}
    for i, (xv, piece) in enumerate(sorted(out.Lv.items())):
        pv = sorted(piece.vertices)
        pidx = {v: j for j, v in enumerate(pv)}
        plines = ["OFF", "%d %d 0" % (len(pv), len(piece.by_dim(1)))]
        for v in pv:
            p = positions.get(v, (0.0, 0.0, 0.0))
            plines.append("%.9g %.9g %.9g" % p)
        for e in piece.by_dim(1):
            plines.append("2 %d %d" % tuple(pidx[v] for v in e.vertices))
        files["link_curve_%d.off" % i] = ("\n".join(plines) + "\n").encode()
    return files


# -- argument handling --------------------------------------------------------------------


def _load_complex(path):
    """The input complex; an unknown fixture, an unreadable file or text
    that is not JSON is a ``ValidationError``."""
    if path.startswith("fixture:"):
        return fixtures.fixture(path.split(":", 1)[1])
    try:
        with open(path, "rb") as fh:
            obj = json.loads(fh.read().decode())
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc.strerror or exc))
    except ValueError as exc:
        raise ValidationError("%s is not JSON: %s" % (path, exc))
    return complex_from_obj(obj)


def _emit(obj):
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=1) + "\n")


def _write_artifacts(artifacts, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    for name, data in sorted(artifacts.items()):
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)


_FLAGS = {
    "--seed": dict(type=int, default=0),
    "--denom-bound": dict(type=int, default=1000),
    "--budget": dict(type=int, default=2_000_000),
    "--rel": dict(choices=["boundary"], default=None),
    "--export-off": dict(action="store_true"),
    "--local-only": dict(action="store_true"),
    "--out": dict(default="plthick_out"),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="plthick",
        description="Thicken 2-complexes into orientable 3-pseudomanifolds "
                    "and close them up by boundary reflections.")
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand registers only the flags it reads.
    for name, help_, flags in (
            ("validate", "check and normalize a complex", ""),
            ("subdivide", "barycentric subdivision", ""),
            ("spine", "spine of the punctured complex", ""),
            ("embed", "sample a general-position map and its singular set",
             "--seed --denom-bound"),
            ("check", "pseudomanifold report", ""),
            ("orient", "orientation assignment or odd-cycle witness", ""),
            ("homology", "integer homology, optionally relative to the boundary", "--rel"),
            ("thicken", "build and verify the pseudomanifold thickening",
             "--seed --denom-bound --budget --export-off --local-only --out"),
            ("close", "close a pseudomanifold with boundary by reflections",
             "--budget --local-only"),
            ("links", "classify every vertex link", ""),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="complex JSON path or fixture:NAME")
        for flag in flags.split():
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except ToolkitError as exc:
        _emit({"error": {"stage": exc.stage, "type": type(exc).__name__,
                         "message": str(exc)}})
        return 1


def _dispatch(args):
    X = _load_complex(args.input)
    cmd = args.command
    if cmd == "validate":
        _emit({"dim": X.dim,
               "counts": {str(k): len(X.by_dim(k)) for k in range(X.dim + 1)},
               "connected": X.is_connected()})
        return 0
    if cmd == "subdivide":
        B = barycentric_subdivision(X)
        _emit(complex_to_obj(B.child))
        return 0
    if cmd == "spine":
        _, K = spine(X)
        comps = K.connected_components()
        b1 = len(K.by_dim(1)) - len(K.vertices) + len(comps)
        _emit({"spine": complex_to_obj(K), "components": len(comps),
               "first_betti": b1})
        return 0
    if cmd == "embed":
        n = 2 * X.dim - 1
        m = sample_general_position_map(X, n, seed=args.seed,
                                        denom_bound=args.denom_bound)
        S = singular_set(m)
        _emit({"map": geometric_map_to_obj(m),
               "general_position": verify_general_position(m)[0],
               "singular_records": [
                   {"pair": [list(r.simplex_i.vertices), list(r.simplex_j.vertices)],
                    "kind": r.kind,
                    "points": [[format_rational(x) for x in p] for p in r.ambient]}
                   for r in S.records],
               "singular_dim": S.dim(),
               "coordinate_bits": m.bit_length_stats()})
        return 0
    if cmd == "check":
        report = check_pseudomanifold(X)
        if X.dim <= 3 and report.pseudomanifold_ok():
            report = check_isolated_singularities(X, report)
        _emit(pseudomanifold_report_obj(report))
        return 0
    if cmd == "orient":
        res = orient(X)
        if res.success:
            _emit({"orientable": True,
                   "signs": [{"simplex": list(s.vertices), "sign": sign}
                             for s, sign in sorted(res.assignment.signs.items())],
                   "top_relative_rank": res.top_relative_rank})
        else:
            _emit({"orientable": False,
                   "odd_cycle": [list(s.vertices) for s in res.odd_cycle],
                   "top_relative_rank": res.top_relative_rank})
        return 0
    if cmd == "homology":
        rel = None
        if args.rel == "boundary":
            rel = check_pseudomanifold(X).boundary
        _emit(homology_obj(homology_groups(X, rel=rel)))
        return 0
    if cmd == "links":
        out = {}
        for v in X.vertices:
            out[v] = link_class_obj(classify_link(link_of(X, Simplex((v,)))))
        _emit(out)
        return 0
    if cmd == "thicken":
        config = PipelineConfig(seed=args.seed, denom_bound=args.denom_bound,
                                budget=args.budget, local_only=args.local_only,
                                export_off=args.export_off)
        artifacts = run_pipeline(config, X)
        _write_artifacts(artifacts, args.out)
        _emit({"artifacts": sorted(artifacts),
               "out": args.out,
               "report": json.loads(artifacts["report.json"].decode())})
        return 0
    if cmd == "close":
        if args.local_only:
            cones = [v for v in X.vertices if v.startswith("cone:")]
            local = verify_closed_locally(X, cone_vertices=cones)
            _emit({"mode": "local",
                   "classes": len(local.classes),
                   "all_closed_manifolds": local.all_closed_manifolds()})
            return 0
        result = close_up(X, budget=args.budget)
        _emit({"mode": "materialized",
               "chambers": result.Q.n_chambers,
               "euler": result.Q.complex.euler_characteristic(),
               "closed": len(result.report.boundary) == 0,
               "orientable": result.orientation.success,
               "homology": homology_obj(result.homology)})
        return 0
    raise ValidationError("unknown command %r" % cmd)


if __name__ == "__main__":
    sys.exit(main())
