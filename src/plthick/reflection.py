"""Closing a pseudomanifold with boundary by reflecting it across a mirror
structure on the boundary.

The group is the right-angled reflection group on the vertices of the flag
boundary triangulation; the materialized object is the quotient by the
kernel of the sign map to (Z/2)^S, so chambers are indexed by bit vectors.
That kernel is torsion free and of finite index, which makes the quotient a
finite complex.  Large inputs are handled by the local link verifier, which
reads the link of every vertex class of the quotient off the links of the
chamber and builds only the two-chamber doubles of boundary cone-vertex
links.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complex_core import (
    Complex,
    Simplex,
    barycentric_subdivision,
    barycenter_label,
    complex_from_maximal,
    full_subcomplex,
    is_flag,
    star_link,
)
from .errors import BudgetExceededError, ConstructionError, ValidationError
from .pseudomanifold import (
    LinkClass,
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    link_of,
    orient,
)


@dataclass(frozen=True)
class MirrorStructure:
    """A chamber complex with one mirror subcomplex per index in S."""

    Y: Complex
    S: tuple
    mirrors: dict
    Sof: dict  # Y-vertex label -> frozenset of indices
    chamber_source: Complex | None = None  # the pseudomanifold that was subdivided

    def __post_init__(self):
        for y in self.Y.vertices:
            if y not in self.Sof:
                raise ValidationError("vertex %r missing from the mirror table" % y)
        for s, mirror in self.mirrors.items():
            if not mirror.is_subcomplex_of(self.Y):
                raise ValidationError("mirror %r is not a subcomplex" % (s,))
            for y in mirror.vertices:
                if s not in self.Sof[y]:
                    raise ConstructionError("mirror table disagrees at %r" % y)


def boundary_mirror_structure(P):
    """Mirror structure on the subdivided chamber, indexed by the vertices
    of the flag boundary triangulation.

    If the boundary is not flag the pseudomanifold is barycentrically
    subdivided once; flagness of the result is verified, not assumed.
    """
    boundary = _boundary_complex(P)
    if len(boundary) == 0:
        raise ValidationError("pseudomanifold is already closed")
    flag, witness = is_flag(boundary)
    if not flag:
        P = barycentric_subdivision(P).child
        boundary = _boundary_complex(P)
        flag, witness = is_flag(boundary)
        if not flag:
            raise ConstructionError(
                "subdivided boundary still not flag (witness %s)" % (witness,))
    sub = barycentric_subdivision(P)
    Y = sub.child
    S = boundary.vertices
    bsub = barycentric_subdivision(boundary)
    mirrors = {}
    for s in S:
        star, _ = star_link(bsub.child, Simplex((s,)))
        mirrors[s] = star
    Sof = {}
    for y in Y.vertices:
        tau = sub.carrier_of_label(y)
        if tau in boundary.simplices:
            Sof[y] = frozenset(tau.vertices)
        else:
            Sof[y] = frozenset()
    return MirrorStructure(Y=Y, S=tuple(S), mirrors=mirrors, Sof=Sof,
                           chamber_source=P)


def _boundary_complex(P):
    return complex_from_maximal(
        f for f, tops in P.facet_cofaces().items() if len(tops) == 1)


@dataclass(frozen=True)
class ChamberComplex:
    """The glued union of 2^|S| chambers."""

    complex: Complex
    n_chambers: int
    mirror_structure: MirrorStructure
    masks: dict

    def chamber_vertex(self, w, y):
        return "%d#%s" % (w & ~self.masks[y], y)

    def chamber_simplex(self, w, s):
        return Simplex(tuple(sorted(self.chamber_vertex(w, y) for y in s.vertices)))

    def identity_chamber(self):
        return complex_from_maximal(
            self.chamber_simplex(0, s)
            for s in self.mirror_structure.Y.maximal_simplices)


def _mask_of(sset, sidx):
    mask = 0
    for s in sset:
        mask |= 1 << sidx[s]
    return mask


def orbit_count_euler(ms):
    """Euler characteristic of the glued complex by orbit counting: each
    simplex contributes one copy per coset of the subgroup fixing it."""
    k = len(ms.S)
    chi = 0
    for s in ms.Y.simplices:
        stab = None
        for y in s.vertices:
            sof = ms.Sof[y]
            stab = sof if stab is None else (stab & sof)
        copies = 2 ** (k - len(stab))
        chi += copies if s.dim % 2 == 0 else -copies
    return chi


def basic_construction(ms, budget=2_000_000):
    """Materialize the glued union of 2^|S| copies of the chamber.

    Vertices ``(w, y)`` and ``(w', y)`` are identified when ``w xor w'`` is
    supported on the mirrors through ``y``.
    """
    k = len(ms.S)
    total = (2 ** k) * len(ms.Y)
    if total > budget:
        raise BudgetExceededError(
            "basic construction needs %d simplices > budget %d" % (total, budget))
    sidx = {s: i for i, s in enumerate(ms.S)}
    masks = {y: _mask_of(ms.Sof[y], sidx) for y in ms.Y.vertices}
    simplices = set()
    maximal = ms.Y.maximal_simplices
    for w in range(2 ** k):
        for s in maximal:
            simplices.add(Simplex(tuple(sorted(
                "%d#%s" % (w & ~masks[y], y) for y in s.vertices))))
    complex_ = complex_from_maximal(simplices)
    cc = ChamberComplex(complex=complex_, n_chambers=2 ** k,
                        mirror_structure=ms, masks=masks)
    if complex_.euler_characteristic() != orbit_count_euler(ms):
        raise ConstructionError("orbit-count Euler characteristic mismatch")
    ident = cc.identity_chamber()
    if len(ident.simplices) != len(ms.Y.simplices):
        raise ConstructionError("identity chamber does not embed")
    if not ident.is_subcomplex_of(complex_):
        raise ConstructionError("identity chamber not a subcomplex")
    return cc


@dataclass(frozen=True)
class CloseUpResult:
    Q: ChamberComplex
    report: object
    orientation: object
    homology: object
    mirror_structure: MirrorStructure


def close_up(P, budget=2_000_000):
    """Close a pseudomanifold with boundary into a boundaryless one and
    verify closedness, isolated singularities and orientability."""
    quick = _boundary_complex(P)
    if len(quick) == 0:
        raise ValidationError("pseudomanifold is already closed")
    # |B(P)| >= |P|, so this lower bound lets huge inputs fail fast.
    if (2 ** len(quick.vertices)) * len(P.simplices) > budget:
        raise BudgetExceededError(
            "basic construction needs more than %d simplices "
            "(use the local verifier)" % budget)
    ms = boundary_mirror_structure(P)
    cc = basic_construction(ms, budget=budget)
    Q = cc.complex
    report = check_pseudomanifold(Q)
    if not (report.is_pure and report.facet_degrees_ok):
        raise ConstructionError("glued complex is not a pseudomanifold")
    if len(report.boundary) != 0:
        raise ConstructionError("glued complex still has boundary")
    if Q.dim <= 3:
        report = check_isolated_singularities(Q, report)
        if not report.isolated_singularities:
            raise ConstructionError("glued complex has non-isolated singularities")
    res = orient(Q, report=report)
    if not res.success:
        raise ConstructionError("glued complex is not orientable")
    # Q has no boundary, so the orientation's rank oracle computed H_*(Q).
    return CloseUpResult(Q=cc, report=report, orientation=res, homology=res.homology,
                         mirror_structure=ms)


# -- local verification ------------------------------------------------------------


@dataclass(frozen=True)
class LocalLinkReport:
    """Per vertex-class classification of the links in the closed-up space."""

    classes: dict  # P-simplex -> (kind tag, LinkClass)
    cone_vertices: tuple

    def all_closed_manifolds(self):
        return all(cls.is_manifold and not cls.boundary_components
                   for _, cls in self.classes.values())


_SPHERE = LinkClass(kind="Sphere", dim=2, components=1, is_manifold=True,
                    orientable=True, genus=0, boundary_components=0)


def _double_of_link(P, boundary, w):
    """Classify the double of the subdivided link of w along its boundary:
    the glued link of w's class when w lies on the boundary of P."""
    sub = barycentric_subdivision(link_of(P, Simplex((w,))))
    Y = sub.child
    on_mirror = link_of(boundary, Simplex((w,))).simplices
    sof = {y: frozenset((w,)) if sub.carrier_of_label(y) in on_mirror else frozenset()
           for y in Y.vertices}
    ms = MirrorStructure(
        Y=Y, S=(w,), Sof=sof,
        mirrors={w: full_subcomplex(Y, [y for y in Y.vertices if sof[y]])})
    return classify_link(basic_construction(ms).complex)


def verify_closed_locally(P, cone_vertices=(), report=None):
    """Classify the link of every vertex class of the closed-up space
    without materializing it.

    The classes follow from the links of P (``report`` is P's
    isolated-singularity report, computed when missing): interior vertices
    keep their link, every other class is a sphere, except that a boundary
    cone vertex's class has the double of its link along the boundary,
    which is built and classified (two chambers).  Cone-vertex classes must
    produce closed surfaces, everything else spheres.
    """
    if P.dim != 3:
        raise ValidationError("local closed-link verification expects dimension 3")
    if report is None or report.vertex_links is None:
        report = check_isolated_singularities(P, report)
    if not report.isolated_singularities:
        raise ValidationError(
            "local closed-link verification needs a pseudomanifold with "
            "isolated singularities")
    boundary = report.boundary
    flag, witness = is_flag(boundary)
    if not flag:
        raise ValidationError(
            "boundary is not flag (witness %s); subdivide first" % (witness,))
    cone_vertices = tuple(sorted(cone_vertices))

    classes = {}
    for tau in sorted(P.simplices):
        v = tau.vertices[0]
        on_boundary = tau in boundary.simplices
        is_cone = on_boundary and tau.dim == 0 and v in cone_vertices
        tag = "cone" if is_cone else "boundary" if on_boundary else "interior"
        if tau.dim > 0:
            # Glued link = reflected boundary of tau * lk_P(tau): a sphere, as
            # positive_links_ok certifies circle/arc edge links and facet degrees.
            cls = _SPHERE
        elif is_cone:
            cls = _double_of_link(P, boundary, v)
        elif on_boundary:
            # The double of a disc along its boundary circle is a sphere.
            lk = report.vertex_links[v]
            if not (lk.kind == "Disc" and lk.components == 1):
                raise ConstructionError(
                    "class %s should have a sphere link, got the double of %s"
                    % (tau, lk.describe()))
            cls = _SPHERE
        else:
            cls = report.vertex_links[v]
        if not cls.is_manifold or cls.boundary_components:
            raise ConstructionError(
                "class %s has a non-closed link: %s" % (tau, cls.describe()))
        if not is_cone and not (cls.kind == "Sphere" and cls.components == 1):
            raise ConstructionError(
                "class %s should have a sphere link, got %s" % (tau, cls.describe()))
        classes[tau] = (tag, cls)
    return LocalLinkReport(classes=classes, cone_vertices=cone_vertices)


def local_global_agreement(P, budget=2_000_000):
    """Build the closed-up space outright and compare every materialized
    vertex link classification with the local computation."""
    result = close_up(P, budget=budget)
    cc = result.Q
    ms = result.mirror_structure
    Q = cc.complex
    source = ms.chamber_source
    mismatches = []
    if source.dim == 3:
        local = verify_closed_locally(source)
    else:
        local = None
    for tau in sorted(source.simplices):
        y = tau.vertices[0] if tau.dim == 0 else barycenter_label(tau)
        image = Simplex((cc.chamber_vertex(0, y),))
        cls_global = classify_link(link_of(Q, image))
        if local is not None:
            tag, cls_local = local.classes[tau]
            if (cls_local.kind, cls_local.components, cls_local.genus,
                    cls_local.orientable) != (cls_global.kind, cls_global.components,
                                              cls_global.genus, cls_global.orientable):
                mismatches.append((tau, cls_local, cls_global))
    return result, mismatches
