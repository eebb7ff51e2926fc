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
from collections import Counter
from dataclasses import dataclass

from . import fixtures
from .complex_core import (
    barycentric_subdivision,
    link_of,
    spine,
    validate_complex,
)
from .errors import BudgetExceededError, ToolkitError, ValidationError
from .homology import homology_groups
from .pseudomanifold import (
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    orient,
)
from .reflection import DEFAULT_BUDGET, close_up, verify_closed_locally
from .thicken3 import thicken


# -- canonical serialization -----------------------------------------------------


def canonical_json(obj):
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()


def complex_to_obj(X):
    return {
        "vertices": [{"id": v} for v in X.vertices],
        "simplices": [list(s) for s in X.maximal_simplices],
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


def link_class_obj(cls):
    return {
        "kind": cls.kind,
        "dim": cls.dim,
        "components": cls.components,
        "is_manifold": cls.is_manifold,
        "orientable": cls.orientable,
        "genus": cls.genus,
        "boundary_components": cls.boundary_components,
        "witness": list(cls.witness) if cls.witness else None,
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
        obj["facet_witness"] = list(r.facet_witness)
    return obj


def homology_obj(H):
    return {"betti": list(H.betti), "torsion": [list(t) for t in H.torsion]}


def class_summary(local):
    """The classes of a ``LocalLinkReport`` counted by tag and description.
    The (tag, class) pairs are counted first and each distinct class is
    described once; distinct classes with one description add up."""
    tags = {}
    for (tag, cls), n in Counter(local.classes.values()).items():
        described = tags.setdefault(tag, {})
        described[cls.describe()] = described.get(cls.describe(), 0) + n
    return tags


# -- pipeline -------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineConfig:
    """Budgets, and a seed that has no effect on any artifact: the
    pipeline samples nothing.  ``seed`` stays, range-checked, only for the
    benchmark's call ``PipelineConfig(seed=seed)``."""

    seed: int = 0
    budget: int = DEFAULT_BUDGET
    local_only: bool = False

    def __post_init__(self):
        if not (0 <= self.seed < 2 ** 64):
            raise ValidationError("seed must be a 64-bit unsigned integer")


def run_pipeline(config, X):
    """Thicken, verify and close (or locally verify) the input.

    Returns a dict of artifact name -> canonical JSON bytes.  The outputs
    are a function of the input complex and the configuration only.

    ``provenance.json`` gives each simplex of P its origin: the cone vertex
    it contains, or "M" when it contains none.  There is at most one.  P is
    M with the cones w_v * N_v, N_v a subcomplex of M; the cone labels are
    fresh, so a simplex of M holds no cone vertex, and a cone simplex is
    w_v or s + w_v for s in N_v, which holds the one cone vertex w_v.
    """
    out, rep = thicken(X)
    P = out.P

    artifacts = {}
    artifacts["input.json"] = canonical_json(complex_to_obj(X))
    artifacts["p_complex.json"] = canonical_json(complex_to_obj(P))
    # P's ids run in by_dim order, which is simplex_key order.
    cones = set(out.cone_vertices.values())
    artifacts["provenance.json"] = canonical_json({
        "simplices": [{"simplex": list(s), "origin": next(filter(cones.__contains__, s), "M")}
                      for s in P.incidence().cells]})

    report_obj = {
        "pseudomanifold": pseudomanifold_report_obj(rep.pseudomanifold),
        "orientable": rep.orientation.success,
        "top_relative_rank": rep.orientation.top_relative_rank,
        "homology_P": homology_obj(rep.homology_P),
        "homology_X": homology_obj(rep.homology_X),
        "homology_copy": homology_obj(rep.homology_copy),
        "collapse_certificate": {
            "pairs": rep.certificate.pairs,
            "reaches_copy": rep.certificate.reaches_copy,
            "order_sha256": rep.certificate.order_sha256,
        },
        "spine_b1": rep.spine_b1,
        "gallery_components": rep.gallery_components,
        "cone_vertices": {v: w for v, w in sorted(out.cone_vertices.items())},
    }

    close_obj = {"mode": None}
    if not config.local_only:
        try:
            closed = close_up(P, budget=config.budget, report=rep.pseudomanifold)
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
        close_obj.update({
            "mode": "local",
            "classes": len(local.classes),
            "all_closed_manifolds": local.all_closed_manifolds(),
            "class_summary": class_summary(local),
        })
    report_obj["close"] = close_obj
    artifacts["report.json"] = canonical_json(report_obj)

    return artifacts


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
    "--budget": dict(type=int, default=DEFAULT_BUDGET),
    "--rel": dict(choices=["boundary"], default=None),
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
            ("check", "pseudomanifold report", ""),
            ("orient", "orientation assignment or odd-cycle witness", ""),
            ("homology", "integer homology, optionally relative to the boundary", "--rel"),
            ("thicken", "build and verify the pseudomanifold thickening",
             "--budget --local-only --out"),
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
                   "signs": [{"simplex": list(s), "sign": sign}
                             for s, sign in sorted(res.assignment.signs.items())],
                   "top_relative_rank": res.top_relative_rank})
        else:
            _emit({"orientable": False,
                   "odd_cycle": [list(s) for s in res.odd_cycle],
                   "top_relative_rank": res.top_relative_rank})
        return 0
    if cmd == "homology":
        rel = None
        if args.rel == "boundary":
            rel = check_pseudomanifold(X).boundary
        _emit(homology_obj(homology_groups(X, rel=rel)))
        return 0
    if cmd == "links":
        report = check_pseudomanifold(X)
        if 1 <= X.dim <= 3 and report.pseudomanifold_ok():
            classes = check_isolated_singularities(X, report).vertex_links
        else:
            classes = {v: classify_link(link_of(X, (v,))) for v in X.vertices}
        _emit({v: link_class_obj(c) for v, c in classes.items()})
        return 0
    if cmd == "thicken":
        config = PipelineConfig(budget=args.budget, local_only=args.local_only)
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
