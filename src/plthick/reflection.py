"""Closing a pseudomanifold with boundary by reflecting it across a mirror
structure on the boundary.

The group is the right-angled reflection group W on the vertices of the
flag boundary triangulation.  Those vertices are properly coloured with c
colours (``dsatur_colouring``), and the materialized object is the
quotient by the kernel of the map W -> (Z/2)^c that sends each reflection
to its colour, so chambers are indexed by c-bit vectors: the small cover of
Davis and Januszkiewicz (Duke Math. J. 62, 1991).  The vertices of a
boundary simplex have distinct colours, so the stabilizer of every simplex
embeds in (Z/2)^c, the kernel is torsion free and of finite index, and
every link is the one of the 2^|vertices| closure: one colour per vertex is
the special case of the same construction.  The one gluing rule is the
table y -> S(y) of the mirrors through each chamber vertex
(``chamber_label``).  Large inputs are handled by the local link verifier,
which reads the link of every vertex class of the quotient off P's own
vertex-link report: an interior vertex keeps its link and a boundary vertex
gets the double of its link along the boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .complex_core import (
    Complex,
    barycentric_subdivision,
    barycenter_label,
    complex_from_maximal,
    dsatur_colouring,
    is_flag,
    link_of,
)
from .errors import BudgetExceededError, ConstructionError, ValidationError
from .homology import homology_groups
from .pseudomanifold import (
    SPHERE,
    _boundary,
    check_isolated_singularities,
    check_pseudomanifold,
    classify_link,
    orient,
)

# Simplices a closure may build before ``close_up`` refuses it; above this
# the local verifier classifies the links instead.
DEFAULT_BUDGET = 200_000


@dataclass(frozen=True)
class MirrorStructure:
    """A chamber complex Y with the set S of mirror indices and the table
    ``Sof`` of the indices whose mirrors pass through each vertex of Y.

    The mirror of s is the full subcomplex of Y on {y : s in Sof[y]}; the
    table determines the whole gluing (Davis, The Geometry and Topology of
    Coxeter Groups, ch. 5).  On a boundary the indices are colours, and the
    mirror of a colour is the union of the stars of the boundary vertices
    of that colour in the subdivided boundary; no two of them meet.
    """

    Y: Complex
    S: tuple
    Sof: dict  # Y-vertex label -> frozenset of indices
    chamber_source: Complex | None = None  # the pseudomanifold that was subdivided

    def __post_init__(self):
        indices = frozenset(self.S)
        for y in self.Y.vertices:
            if y not in self.Sof:
                raise ValidationError("vertex %r missing from the mirror table" % y)
            if not self.Sof[y] <= indices:
                raise ValidationError(
                    "vertex %r lies on unknown mirrors %s"
                    % (y, sorted(self.Sof[y] - indices)))


def boundary_mirror_structure(P, boundary=None):
    """Mirror structure on the subdivided chamber, indexed by the colours of
    a proper colouring of the flag boundary triangulation's 1-skeleton;
    ``boundary`` is ∂P when the caller holds it, and is built otherwise.

    If the boundary is not flag the pseudomanifold is barycentrically
    subdivided once, and the subdivided boundary is the one coloured;
    flagness of the result is verified, not assumed.  A chamber vertex lies
    on the mirrors of the colours of its carrier's vertices when that
    carrier is a boundary simplex, and on none otherwise.  The colouring is
    certified: every boundary edge has two colours, so the vertices of
    every boundary simplex have distinct ones.
    """
    if boundary is None:
        boundary = _boundary(P)
    if len(boundary) == 0:
        raise ValidationError("pseudomanifold is already closed")
    flag, witness = is_flag(boundary)
    if not flag:
        P = barycentric_subdivision(P).child
        boundary = _boundary(P)
        flag, witness = is_flag(boundary)
        if not flag:
            raise ConstructionError(
                "subdivided boundary still not flag (witness %s)" % (witness,))
    colour = dsatur_colouring(boundary)
    for a, b in boundary.by_dim(1):
        if colour[a] == colour[b]:
            raise ConstructionError("boundary edge %s has one colour" % ((a, b),))
    sub = barycentric_subdivision(P)
    Y = sub.child
    Sof = {}
    for y in Y.vertices:
        tau = sub.carrier_of_label(y)
        if tau in boundary.simplices:
            Sof[y] = frozenset(map(colour.__getitem__, tau))
        else:
            Sof[y] = frozenset()
    return MirrorStructure(Y=Y, S=tuple(range(max(colour.values()) + 1)), Sof=Sof,
                           chamber_source=P)


@dataclass(frozen=True)
class ChamberComplex:
    """The glued union of 2^|S| chambers."""

    complex: Complex
    n_chambers: int
    mirror_structure: MirrorStructure
    masks: dict

    def chamber_vertex(self, w, y):
        return chamber_label(w, self.masks[y], y)

    def chamber_simplex(self, w, s):
        return tuple(sorted(self.chamber_vertex(w, y) for y in s))

    def identity_chamber(self):
        return complex_from_maximal(
            self.chamber_simplex(0, s)
            for s in self.mirror_structure.Y.maximal_simplices)


def chamber_label(w, mask, y):
    """Label of the vertex y of chamber w, where ``mask`` has the bits of
    the mirrors through y: chambers w and w' share y exactly when w xor w'
    is supported on those mirrors."""
    return "%d#%s" % (w & ~mask, y)


def orbit_count_euler(ms):
    """Euler characteristic of the glued complex by orbit counting: each
    simplex contributes one copy per coset of the subgroup fixing it."""
    k = len(ms.S)
    chi = 0
    for s in ms.Y.simplices:
        stab = None
        for y in s:
            sof = ms.Sof[y]
            stab = sof if stab is None else (stab & sof)
        copies = 2 ** (k - len(stab))
        chi += copies if len(s) % 2 else -copies
    return chi


def basic_construction(ms, budget=DEFAULT_BUDGET):
    """Materialize the glued union of 2^|S| copies of the chamber.

    Vertices ``(w, y)`` and ``(w', y)`` are identified when ``w xor w'`` is
    supported on the mirrors through ``y``.

    The identity chamber embeds as a subcomplex by construction.  Chamber 0
    labels each y as ``0#y``, since ``0 & ~mask`` is 0, so its relabelling
    is injective, and the w = 0 pass of the loop adds exactly the images
    of Y's maximal simplices.  The tests keep ``identity_chamber`` as the
    oracle.  The orbit-count Euler characteristic is checked, since it
    tests the gluing rule.
    """
    k = len(ms.S)
    total = (2 ** k) * len(ms.Y)
    if total > budget:
        raise BudgetExceededError(
            "basic construction needs %d simplices > budget %d" % (total, budget))
    sidx = {s: i for i, s in enumerate(ms.S)}
    masks = {y: sum(1 << sidx[s] for s in ms.Sof[y]) for y in ms.Y.vertices}
    simplices = set()
    maximal = ms.Y.maximal_simplices
    for w in range(2 ** k):
        label = {y: chamber_label(w, mask, y) for y, mask in masks.items()}
        for s in maximal:
            simplices.add(tuple(sorted(label[y] for y in s)))
    complex_ = complex_from_maximal(simplices)
    cc = ChamberComplex(complex=complex_, n_chambers=2 ** k,
                        mirror_structure=ms, masks=masks)
    if complex_.euler_characteristic() != orbit_count_euler(ms):
        raise ConstructionError("orbit-count Euler characteristic mismatch")
    return cc


@dataclass(frozen=True)
class CloseUpResult:
    Q: ChamberComplex
    report: object
    orientation: object
    homology: object
    mirror_structure: MirrorStructure


def subdivision_size(X):
    """The number of simplices of the barycentric subdivision of X, from
    X's f-vector alone.  The simplices of sd X carried by a k-simplex are
    the chains of faces ending at it, which are the ordered partitions of
    its k + 1 vertices: Fubini(k + 1) of them (1, 3, 13, 75, ..)."""
    fubini = [1]
    for n in range(1, X.dim + 2):
        fubini.append(sum(comb(n, i) * fubini[n - i] for i in range(1, n + 1)))
    return sum(len(X.by_dim(k)) * fubini[k + 1] for k in range(X.dim + 1))


def close_up(P, budget=DEFAULT_BUDGET, report=None):
    """Close a pseudomanifold with boundary into a boundaryless one and
    verify closedness, isolated singularities and orientability.

    ``report`` is P's pseudomanifold report when the caller holds one, as
    for ``verify_closed_locally``; ∂P is then read off it.  Either way ∂P
    is built at most once, and the budget pre-check and the mirror
    structure share it.

    The pre-check reads P's f-vector only, so an input over the budget
    fails before anything is subdivided or coloured.  The basic
    construction counts 2^c copies of the chamber Y.  A (d-1)-simplex of
    ∂P has d vertices of distinct colours, so c >= d = dim P, and Y is sd P
    or, when ∂P is not flag, sd sd P, so |Y| >= |sd P|: 2^d |sd P| is a
    lower bound of that count."""
    boundary = _boundary(P) if report is None else report.boundary
    if not boundary.vertices:
        raise ValidationError("pseudomanifold is already closed")
    if 2 ** P.dim * subdivision_size(P) > budget:
        raise BudgetExceededError(
            "basic construction needs more than %d simplices "
            "(use the local verifier)" % budget)
    return close_mirror_structure(boundary_mirror_structure(P, boundary), budget)


def close_mirror_structure(ms, budget=DEFAULT_BUDGET):
    """The basic construction on ``ms`` and every check of ``close_up``: Q
    is a pseudomanifold without boundary, its singularities are isolated
    when dim Q <= 3, and it is orientable; its homology is computed."""
    cc = basic_construction(ms, budget=budget)
    Q = cc.complex
    q_report = check_pseudomanifold(Q)
    if not (q_report.is_pure and q_report.facet_degrees_ok):
        raise ConstructionError("glued complex is not a pseudomanifold")
    if len(q_report.boundary) != 0:
        raise ConstructionError("glued complex still has boundary")
    if Q.dim <= 3:
        q_report = check_isolated_singularities(Q, q_report)
        if not q_report.isolated_singularities:
            raise ConstructionError("glued complex has non-isolated singularities")
    res = orient(Q, report=q_report)
    if not res.success:
        raise ConstructionError("glued complex is not orientable")
    return CloseUpResult(Q=cc, report=q_report, orientation=res, homology=homology_groups(Q),
                         mirror_structure=ms)


# -- local verification ------------------------------------------------------------


@dataclass(frozen=True)
class LocalLinkReport:
    """Per vertex-class classification of the links in the closed-up space."""

    classes: dict  # P-simplex -> (kind tag, LinkClass)
    cone_vertices: tuple

    def all_closed_manifolds(self):
        return all(cls.closed() for _, cls in self.classes.values())


def verify_closed_locally(P, cone_vertices=(), report=None):
    """Classify the link of every vertex class of the closed-up space
    without materializing it.

    The classes follow from the links of P (``report`` is P's
    isolated-singularity report, computed when missing).  An interior
    vertex keeps its link.  A boundary vertex v lies on the mirror of its
    own colour only, Sof[v] = {colour of v}, and near v that mirror is the
    star of v in ∂P, since no neighbour of v shares its colour.  So its
    class has two copies of lk_P(v) glued along lk_dP(v), which is the
    boundary of lk_P(v): the double of lk_P(v) (``LinkClass.doubled``).
    Cone-vertex classes must produce closed surfaces, everything else
    single spheres; for a boundary vertex that is the condition that its
    link is a single disc.

    Every simplex of positive dimension has a sphere link: the glued link
    of tau is the reflected boundary of tau * lk_P(tau), a sphere, as
    ``positive_links_ok`` certifies circle and arc edge links and the facet
    degrees.  So only P's vertices are classified one by one; every other
    simplex gets the one ``SPHERE`` class, checked once as it is the same
    object for all of them, and its boundary or interior tag.  The classes
    are keyed in P's id order (``by_dim``), which is ``simplex_key`` order.
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

    def check(tau, cls, is_cone):
        if not cls.closed():
            raise ConstructionError(
                "class %s has a non-closed link: %s" % (tau, cls.describe()))
        if not is_cone and not (cls.kind == "Sphere" and cls.components == 1):
            raise ConstructionError(
                "class %s should have a sphere link, got %s" % (tau, cls.describe()))

    on_boundary = boundary.simplices.__contains__
    classes = {}
    for tau in P.by_dim(0):
        v = tau[0]
        if on_boundary(tau):
            is_cone = v in cone_vertices
            tag, cls = "cone" if is_cone else "boundary", report.vertex_links[v].doubled()
        else:
            is_cone, tag, cls = False, "interior", report.vertex_links[v]
        check(tau, cls, is_cone)
        classes[tau] = (tag, cls)
    check(P.by_dim(1)[0], SPHERE, False)
    tags = (("interior", SPHERE), ("boundary", SPHERE))
    for k in range(1, P.dim + 1):
        layer = P.by_dim(k)
        classes.update(zip(layer, map(tags.__getitem__, map(on_boundary, layer))))
    return LocalLinkReport(classes=classes, cone_vertices=cone_vertices)


def local_global_agreement(P):
    """Build the closed-up space outright and compare the class of every
    materialized vertex link with the local computation (3-dimensional
    chambers only)."""
    result = close_up(P)
    cc = result.Q
    source = result.mirror_structure.chamber_source
    local = verify_closed_locally(source).classes if source.dim == 3 else {}
    mismatches = []
    for tau in local:
        cls_local = local[tau][1]
        y = tau[0] if len(tau) == 1 else barycenter_label(tau)
        cls_global = classify_link(link_of(cc.complex, (cc.chamber_vertex(0, y),)))
        if cls_local != cls_global:
            mismatches.append((tau, cls_local, cls_global))
    return result, mismatches
