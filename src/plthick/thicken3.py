"""Thickening a 2-complex along the collar of its spine into a combinatorial
3-manifold and coning its boundary pieces into a pseudomanifold.

The solid is assembled from one triangulated ball per spine vertex, glued
directly along shared octagonal disc triangulations (one per spine edge;
the interval factor of the usual tube is absorbed into the two cones).
Ball spheres are triangulated from X's rotation system: the pages around
each edge in the cyclic order of ``facet_cofaces``, and each sheet's two
normal sides named by the parity of the page's vertex order, so strips
glue without twists.  Nothing is sampled: the spine, its collar and every
label come from subdivisions of X.  Frontier placement, orientability
and homology are verified on the output; what holds for every accepted
input by construction, the solid's vertex links, boundary and handlebody
type among it, is proved in the docstrings instead, with the check kept
in the tests as the oracle.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace

from .complex_core import (
    Complex,
    _FaceClosed,
    complex_from_maximal,
    frontier_pieces,
    greedy_collapse,
    is_full_subcomplex,
    regular_neighborhood,
    spine,
)
from .errors import ConstructionError, ValidationError
from .homology import homology_groups
from .pseudomanifold import (
    DISC,
    SPHERE,
    PseudomanifoldReport,
    _boundary,
    _fans,
    classify_link,
    orient,
)


# -- the collar and its sheet data --------------------------------------------------


@dataclass(frozen=True)
class SpineCollar:
    """The spine K of X and its collar, all combinatorial.

    ``B`` is the first subdivision sd X, K the full subcomplex of sd X on
    the barycenters of positive-dimensional simplices, ``nbhd_sub`` the
    subdivision sd(Y rel K) of Y = sd X, N the simplicial neighborhood of K
    in it and ``frontier`` the simplices of N that miss K.
    """

    X: Complex
    B: object  # SubdivisionMap of sd X
    K: Complex
    nbhd_sub: object  # SubdivisionMap of sd(Y rel K)
    frontier: Complex
    N: Complex


def spine_collar(X):
    """The spine of X and its regular neighborhood in sd(sd X rel spine)."""
    B, K = spine(X)
    N, frontier, sub = regular_neighborhood(B.child, K)
    return SpineCollar(X=X, B=B, K=K, nbhd_sub=sub, frontier=frontier, N=N)


@dataclass(frozen=True)
class SheetData:
    """X's rotation system, which drives the ball triangulations.

    ``pages_ccw`` lists, per edge, its incident triangles in one cyclic
    order; ``plus_side_ccw`` says whether a page's plus normal side faces
    the next page in that order.  Both are read off X, not off an
    embedding.
    """

    pages_ccw: dict
    plus_side_ccw: dict


def extract_sheet_data(X):
    """The rotation system of X.

    ``pages_ccw[e]`` is ``X.facet_cofaces()[e]`` as it stands, and
    ``plus_side_ccw[(e, t)]`` says whether the permutation taking t's
    sorted vertices to (e[0], e[1], u), u the vertex of t outside e, is
    even.  It is when u sits at position 2 or 0 of t (the identity or a
    3-cycle) and odd at position 1 (one transposition), so the sign is
    read off ``facet_opposites``.

    Any cyclic order gives sphere links at the ball centres.  The sphere
    around an edge barycenter (``_edge_ball_sphere``) is the octagon disc of
    each page, bounded by the page's two side paths from c(v, e, t) to
    c(w, e, t), and one lune between consecutive pages, a disc whose
    boundary runs from the pole a(v, e) along a side path of one page to
    the pole a(w, e) and back along a side path of the next.  Page i gives
    its ccw side (plus when ``plus_side_ccw`` holds, minus otherwise) to the
    lune after it and its other side to the lune before it, so every side
    path bounds exactly one octagon and one lune, and the discs close up
    around the two poles into a sphere, whatever the order and the signs;
    a single page gets a dummy meridian in their place.  The sphere around
    a triangle barycenter reads no sheet data.

    The sign is the one the embedded rule computed.  For a general-position
    map f into R^3, that rule took the sign of det(a, r, n_t), where
    a = f(w) - f(v) is the axis of e = (v, w), r the part of f(c) - f(v)
    orthogonal to a for a point c interior to t, and
    n_t = (f(y) - f(x)) × (f(z) - f(x)) the normal of t = (x, y, z).
    Write f(c) - f(v) = α a + β (f(u) - f(v)), where β > 0 as c is
    interior, and let p be the part of f(u) - f(v) orthogonal to a, so
    r = β p.  The normal of the order (v, w, u) is a × (f(u) - f(v)) =
    a × p, and n_t is σ times it, σ the sign of the permutation from
    (x, y, z) to (v, w, u).  So det(a, r, n_t) = σ β |a × p|², with
    a × p ≠ 0 since f(t) is non-degenerate: its sign is σ for every map.
    The cyclic order is one an embedding of the star of e realizes, pages
    as half-planes around a line, and the tests compare both tables with
    the ones read off sampled maps.  Orientability of the result is
    checked by ``verify_thickening``.
    """
    if X.dim != 2:
        raise ValidationError("sheet data requires a 2-dimensional complex")
    pages_ccw = {}
    plus_side_ccw = {}
    for (e, pages), positions in zip(X.facet_cofaces().items(), X.facet_opposites()):
        if not pages:
            raise ValidationError(
                "edge %s lies in no triangle; thickening needs a pure complex" % (e,))
        pages_ccw[e] = pages
        for t, i in zip(pages, positions):
            plus_side_ccw[(e, t)] = i != 1
    return SheetData(pages_ccw=pages_ccw, plus_side_ccw=plus_side_ccw)


# -- label bookkeeping ----------------------------------------------------------


class _Namer:
    """All structured labels of the thickening, derived from the collar.

    The labels are fresh: distinct keys get distinct labels.  The a, c and
    centre labels are barycenters of the two subdivisions, which
    ``relative_barycentric_subdivision`` checks against each other and the
    vertices they subdivide; they all start with "(".  Every other label is
    a prefix without ":" (w, n, h, z1, z2, r, lam, rN, rS, capN, capS, and
    cone for P's cone vertices), ":", and the key's fields joined by ":",
    so two families never share a label.  A label with one label field,
    followed only by integer fields, gives its key back when split from the
    right.  That leaves the page labels w, n and h, whose two label fields
    ``ve[e]`` and ``vt[t]`` may themselves hold ":" when X's labels do; the
    last field of n and h is a sign or an integer, so all three are fresh
    exactly when the strings "ve[e]:vt[t]" of the (edge, page) pairs
    differ.  That is checked here, one dict entry per pair, and a clash is
    a ``ValidationError``.
    """

    def __init__(self, collar):
        X = collar.X
        B = collar.B
        sub = collar.nbhd_sub
        self.X = X
        self.ve = {e: B.barycenter_table[e] for e in X.by_dim(1)}
        self.vt = {t: B.barycenter_table[t] for t in X.by_dim(2)}
        self.a = {}
        self.c = {}
        for t in X.by_dim(2):
            for v in t:
                self.a[(v, t)] = sub.barycenter_table[tuple(sorted((v, self.vt[t])))]
        owner = {}
        for e, pages in X.facet_cofaces().items():
            for v in e:
                self.a[(v, e)] = sub.barycenter_table[tuple(sorted((v, self.ve[e])))]
            for t in pages:
                first = owner.setdefault("%s:%s" % (self.ve[e], self.vt[t]), (e, t))
                if first != (e, t):
                    raise ValidationError(
                        "generated label %r is shared by the (edge, page) pairs %s and %s"
                        % (self.u_label(e, t), first, (e, t)))
                for v in e:
                    self.c[(v, e, t)] = sub.barycenter_table[
                        tuple(sorted((v, self.ve[e], self.vt[t])))]

    def u_label(self, e, t):
        return "w:%s:%s" % (self.ve[e], self.vt[t])

    def side_label(self, e, t, plus):
        return "n:%s:%s:%s" % (self.ve[e], self.vt[t], "p" if plus else "m")

    def h_label(self, e, t, k):
        return "h:%s:%s:%d" % (self.ve[e], self.vt[t], k)

    def octagon(self, e, t):
        """Disc boundary in canonical cyclic order: c_lo h0 n+ h1 c_hi h2 n- h3."""
        lo, hi = e
        return [
            self.c[(lo, e, t)], self.h_label(e, t, 0), self.side_label(e, t, True),
            self.h_label(e, t, 1), self.c[(hi, e, t)], self.h_label(e, t, 2),
            self.side_label(e, t, False), self.h_label(e, t, 3),
        ]

    def side_path(self, e, t, start_vertex, plus):
        """Disc-boundary path between the two strip corners over one side,
        starting at ``c(start_vertex, e, t)``."""
        octagon = self.octagon(e, t)
        if plus:
            path = octagon[0:5]
        else:
            path = [octagon[0], octagon[7], octagon[6], octagon[5], octagon[4]]
        if start_vertex == e[1]:
            path = list(reversed(path))
        return path


def _fan(center, cycle):
    out = []
    for i in range(len(cycle)):
        out.append(tuple(sorted((center, cycle[i], cycle[(i + 1) % len(cycle)]))))
    return out


def _annulus(outer, inner):
    """Standard two-ring triangulation between equal-length cycles."""
    n = len(outer)
    tris = []
    for k in range(n):
        tris.append(tuple(sorted((outer[k], outer[(k + 1) % n], inner[k]))))
        tris.append(tuple(sorted((inner[k], outer[(k + 1) % n], inner[(k + 1) % n]))))
    return tris


# -- ball assembly ------------------------------------------------------------------


@dataclass(frozen=True)
class PartialThickening:
    """The solid with its traced collar, before coning; ``report`` is M's
    pseudomanifold and vertex-link report, with the boundary surface ∂M,
    as ``build_spine_thickening`` proves it: no pass over M computes it,
    and it carries no gallery forest."""

    M: Complex
    report: PseudomanifoldReport
    L: Complex
    Lv: dict
    spine: Complex
    collar: SpineCollar
    sheet_data: SheetData
    names: _Namer


def _edge_ball_sphere(names, sd, e):
    """Sphere triangles around an edge barycenter, as the pair (discs,
    lunes): one marked octagon disc per page, and lunes with buffer rings
    in between; a single page gets a dummy meridian so each lune boundary
    is a simple cycle.  The discs are shared with the triangle balls, and
    the lunes are the part of ∂M on this ball (``build_spine_thickening``)."""
    v, w = e
    p_v, p_w = names.a[(v, e)], names.a[(w, e)]
    dummy = ["z1:%s" % names.ve[e], "z2:%s" % names.ve[e]]
    pages = list(sd.pages_ccw[e])
    discs = []
    for t in pages:
        discs.extend(_fan(names.u_label(e, t), names.octagon(e, t)))
    entries = [("page", t) for t in pages]
    if len(pages) == 1:
        entries.append(("dummy", None))
    m = len(entries)

    def flank(entry, ccw_side):
        kind, t = entry
        if kind == "dummy":
            return list(dummy)
        plus = sd.plus_side_ccw[(e, t)]
        return names.side_path(e, t, v, plus if ccw_side else not plus)

    lunes = []
    for i in range(m):
        left = flank(entries[i], True)
        right = flank(entries[(i + 1) % m], False)
        cycle = [p_v] + left + [p_w] + list(reversed(right))
        ring = ["r:%s:%d:%d" % (names.ve[e], i, k) for k in range(len(cycle))]
        lunes.extend(_annulus(cycle, ring))
        lunes.extend(_fan("lam:%s:%d" % (names.ve[e], i), ring))
    return discs, lunes


def _triangle_ball_sphere(names, t):
    """Sphere triangles around a triangle barycenter, as the pair (discs,
    caps): the three shared octagon discs, and buffered north and south
    caps over the link circle, the part of ∂M on this ball.

    A cap's cycle is one side path per octagon, joined through the a(u, t);
    ``side_path(e, t, u, plus)`` runs from c(u, e, t) to the c of e's other
    end by definition, so each piece starts where the last one stopped.
    The north cap takes the plus side of every octagon and the south cap
    the minus side."""
    x, y, z = t
    e1, e2, e3 = (x, y), (x, z), (y, z)
    discs = []
    for e in (e1, e2, e3):
        discs.extend(_fan(names.u_label(e, t), names.octagon(e, t)))

    caps = []
    for plus, tag in ((True, "N"), (False, "S")):
        cycle = [names.c[(x, e1, t)], names.a[(x, t)]]
        cycle += names.side_path(e2, t, x, plus)
        cycle.append(names.a[(z, t)])
        cycle += names.side_path(e3, t, z, plus)
        cycle.append(names.a[(y, t)])
        cycle += names.side_path(e1, t, y, plus)[:-1]
        ring = ["r%s:%s:%d" % (tag, names.vt[t], k) for k in range(len(cycle))]
        caps.extend(_annulus(cycle, ring))
        caps.extend(_fan("cap%s:%s" % (tag, names.vt[t]), ring))
    return discs, caps


def build_spine_thickening(sd, collar):
    """Assemble the solid, trace the collar copy through it, and return it
    with the pseudomanifold and vertex-link report its build proves.

    The frontier piece of each input vertex is its link in the collar's own
    subdivision, and ``frontier_pieces`` checks that these links partition
    the collar frontier: the spine boundary identity of
    ``spine_boundary_check``.  The collar copy L is checked to be a full
    subcomplex of M, and each piece to lie on ∂M.

    M is the union of the balls B_c = c * S_c, one per spine vertex c,
    since every tetrahedron holds its centre, and each S_c is a 2-sphere
    whose labels are fresh (``_Namer``):

    - S_e is the octagon disc u(e, t) * octagon(e, t) of each page t and
      one lune per gap between consecutive pages (``extract_sheet_data``).
      A lune is an annulus from its boundary cycle to a ring of fresh
      vertices, coned from a fresh centre: a disc, as the cycle is simple.
      It runs through a pole, a side path of one page, the other pole and a
      side path of another page, or the dummy meridian, all distinct.
      Every side path bounds one octagon and one lune and every arc from a
      pole to a corner two lunes, and the discs around each pole or corner
      form one cycle, so S_e is a closed surface.  Its cells are the 2 + 2n
      poles and corners, 4n arcs and 2n discs for n >= 2 pages, and 4, 5
      and 3 for one page: χ = 2, and it is connected, so it is a sphere.
    - S_t is its three octagon discs and two caps, discs like the lunes on
      the cycle through the octagons' plus sides and the one through their
      minus sides, each joined through a(x, t), a(y, t) and a(z, t)
      (``_triangle_ball_sphere``): 9 vertices, 12 arcs and 5 discs, χ = 2.

    No disc has a chord (an annulus joins its cycle only to its ring, a fan
    only to its centre), so two discs of a sphere meet only along the arcs
    they share.  A vertex of B_e other than its centre is a pole a(v, e),
    a corner c(v, e, t), a fresh label carrying e's barycenter (ring, lune
    centre, dummy), or one of the fan labels u, n, h of a page (e, t),
    which carry both barycenters; a vertex of B_t likewise is an a(v, t),
    a corner c(v, e, t), a ring or cap label of t, or a fan label of one
    of its edges.  As the labels are fresh:

    - no two edge balls meet, and no two triangle balls meet;
    - B_e and B_t share vertices only when e ⊂ t, and then exactly
      u(e, t) and octagon(e, t).  On these, both spheres hold only the fan
      u(e, t) * octagon(e, t): every lune and cap triangle holds a ring
      vertex, and a lune or cap cycle runs along the octagon through
      consecutive side-path vertices.  So B_e ∩ B_t is that disc, which
      lies on exactly these two balls;
    - no three balls meet, by pigeonhole.

    M's report follows, and nothing computes it on M:

    - Facets.  A tetrahedron at c is c * f for a triangle f of S_c, so a
      triangle c + g, g an edge of S_c, lies in the two tetrahedra over the
      two triangles of S_c at g.  A triangle f of a sphere lies in one
      tetrahedron per sphere holding it: two for an octagon fan triangle,
      one for a lune or cap triangle.  So M is pure, every triangle lies
      in one or two tetrahedra, and ∂M is the closure of the lune and cap
      triangles, which the sphere builders hand back.
    - Vertex links.  A centre c lies on no sphere, so lk_M(c) = S_c, a
      sphere.  A vertex x on one sphere S_c has lk_M(x) = c * lk_S_c(x),
      a cone on a circle: a disc.  A vertex x on two spheres lies on
      D = u(e, t) * octagon(e, t) = S_e ∩ S_t, and lk_M(x) is the union of
      the discs c_e * lk_S_e(x) and c_t * lk_S_t(x), which meet in lk_D(x).
      For x = u(e, t) that is the octagon, all of both circles, so lk_M(x)
      is its suspension, a sphere.  For x on the octagon it is an arc
      through u(e, t), so lk_M(x) is two discs glued along a boundary arc,
      a disc.  Every other vertex lies on a lune or cap triangle (a vertex
      on one sphere lies on no octagon, and every octagon vertex lies on a
      lune or cap cycle), so the vertices of ∂M get the disc class and all
      others the sphere class.
    - Edge links.  An edge c + x has the link lk_S_c(x), a circle.  An edge
      g of a sphere has, on each sphere S_c holding it, the arc c *
      lk_S_c(g) through the two vertices opposite g: one arc on one
      sphere, and on two, two arcs sharing lk_D(g), both ends (a circle)
      for an edge u(e, t) + o inside D and the one end u(e, t) (an arc)
      for an octagon edge.  So every edge link is one arc or circle: the
      positive links, and with them the singularities, are as
      ``check_isolated_singularities`` requires.
    - Galleries.  The tetrahedra of one ball are gallery-connected, as its
      sphere is a connected surface, B_e and B_t for e ⊂ t are joined
      across their disc's triangles, and balls that do not meet share no
      triangle.  So M's gallery components are the spine's components.

    M is a handlebody on the spine by how it is glued.  The balls are cones
    and the one kind of nonempty intersection is a cone from u(e, t), all
    contractible, so by the nerve theorem (Björner, "Topological methods",
    Handbook of Combinatorics, 1995, Thm. 10.6) M is homotopy equivalent to
    the nerve of the cover, which is the spine graph: M ≃ spine, component
    by component.  Every vertex link of M is a sphere or a disc (above), so
    M is a compact 3-manifold with boundary, and for each component M_i,
    χ(∂M_i) = 2χ(M_i) = 2 − 2·b1, b1 the first Betti number of the spine's
    component.  ∂M_i is connected, since H_1(M_i, ∂M_i; Z/2) ≅ H^2(M_i;
    Z/2) = 0 (Lefschetz duality) and H̃_0(M_i) = 0.

    The tests keep the full pass ``check_isolated_singularities(M)`` and
    ``_boundary(M)`` as the oracle of the report, field by field, and the
    intersection pattern, H_*(M) = H_*(spine) and the boundary law as the
    oracle of the handlebody.
    """
    X = collar.X
    names = _Namer(collar)
    Lv = frontier_pieces(collar.nbhd_sub.child, collar.frontier, X.vertices)

    balls = [(names.ve[e], _edge_ball_sphere(names, sd, e)) for e in X.by_dim(1)]
    balls += [(names.vt[t], _triangle_ball_sphere(names, t)) for t in X.by_dim(2)]
    # The discs lie on two balls each; the lunes and caps are a ball's own,
    # and ∂M is their closure.
    tets, free = [], []
    for center, (discs, own) in balls:
        tets.extend(tuple(sorted(s + (center,))) for s in itertools.chain(discs, own))
        free += own
    M = complex_from_maximal(tets)
    boundary = complex_from_maximal(free)

    # The collar copy inside the solid.
    L = _split_strips((set(s) for s in collar.N.simplices), X, names)
    if not L.is_subcomplex_of(M):
        outside = (s for k in range(L.dim + 1) for s in L.by_dim(k) if s not in M)
        raise ConstructionError("collar copy not inside the solid: %s"
                                % (list(itertools.islice(outside, 4)),))
    ok, witness = is_full_subcomplex(M, L)
    if not ok:
        raise ConstructionError("collar copy not full in the solid (%s)" % (witness,))
    for v, piece in Lv.items():
        if not piece.is_subcomplex_of(boundary):
            raise ConstructionError("frontier piece of %s not on the boundary" % v)

    links = dict.fromkeys(M.vertices, SPHERE)
    links.update(dict.fromkeys(boundary.vertices, DISC))
    components = len(collar.K.connected_components())
    report = PseudomanifoldReport(
        dim=3, is_pure=True, facet_degrees_ok=True, boundary=boundary,
        gallery_connected=components <= 1, gallery_components=components, galleries=None,
        isolated_singularities=True, positive_links_ok=True, vertex_links=links)
    return PartialThickening(
        M=M, report=report, L=L, Lv=Lv, spine=collar.K,
        collar=collar, sheet_data=sd, names=names)


def _split_strips(vertex_sets, X, names):
    """Each sheet strip split at the waist where the two balls meet: a
    simplex spanning an edge-ball centre and a triangle-ball centre becomes
    its two halves through their waist vertex.

    The pairs are indexed by edge-ball centre.  The spine vertices of a
    simplex of sd(Y rel K) span a simplex of K, a chain of simplices of X,
    so it holds at most one centre of each kind and at most one pair.
    """
    waists = {}
    for t in X.by_dim(2):
        for e in itertools.combinations(t, 2):
            waists.setdefault(names.ve[e], {})[names.vt[t]] = names.u_label(e, t)
    out = set()
    for vs in vertex_sets:
        split = next(((a, b, u) for a in vs if a in waists
                      for b, u in waists[a].items() if b in vs), None)
        if split is None:
            out.add(tuple(sorted(vs)))
            continue
        a, b, u = split
        rest = vs - {a, b}
        out.add(tuple(sorted(rest | {a, u})))
        out.add(tuple(sorted(rest | {u, b})))
    return complex_from_maximal(out)


# -- coning --------------------------------------------------------------------------


@dataclass(frozen=True)
class ThickeningOutput:
    M: Complex
    boundary_surface: Complex
    L: Complex
    Lv: dict
    Nv: dict
    cone_vertices: dict
    P: Complex
    report: PseudomanifoldReport  # P's, derived from M's
    X_copy: Complex
    spine: Complex
    collar: SpineCollar
    sheet_data: SheetData
    names: _Namer = field(compare=False, default=None)


def _cone_label(v):
    """Label of the cone vertex over the frontier piece of input vertex v."""
    return "cone:%s" % v


def _with_cones(X, cones):
    """X and the cones w * A for the given pairs (w, A), each A a subcomplex
    of X and each w a fresh label.  The union is face-closed, as a face of
    w * A is w, a simplex of A or such a simplex plus w, so each layer of
    its ``by_dim`` table is X's sorted layer and that dimension's cones,
    sorted once (Timsort merges the sorted run)."""
    layers = {k: list(X.by_dim(k)) for k in range(X.dim + 1)}
    for w, A in cones:
        layers[0].append((w,))
        for k in range(A.dim + 1):
            layers.setdefault(k + 1, []).extend(tuple(sorted(s + (w,))) for s in A.by_dim(k))
    return Complex(_FaceClosed({k: tuple(sorted(layer)) for k, layer in layers.items()}))


def cone_boundary_neighborhoods(partial):
    """Thicken each frontier piece L_v inside the boundary surface to its
    closed star N_v, cone it off with a fresh vertex w_v, derive P's
    pseudomanifold report from M's, and assemble the retract copy X_copy
    from L and the cones w_v * L_v.

    N_v is the closure (``complex_from_maximal``) of the triangles of ∂M
    at L_v's vertices, read off one vertex → triangle table made from ∂M's
    triangle layer.  ∂M is a closed pure surface, so every simplex at a
    vertex u lies in a triangle at u, and this closure is the closed star
    of L_v's vertices (Rourke and Sanderson, "Introduction to
    piecewise-linear topology", ch. 2).  ∂M gets no incidence index, and
    the pieces cost their own size, not a scan of ∂M each.  L_v must be
    full in ∂M; it is checked in N_v, which is the same check, since every
    simplex of ∂M spanned by vertices of L_v lies in their star.

    The N_v are pairwise vertex-disjoint, which the overlap test below
    asserts.  Every L_v is nonempty, the link of a vertex of a pure
    2-complex.  A vertex of N_v is at most one edge from L_v, so two N_v
    can share a vertex only if their pieces lie within two edges of each
    other in the 1-skeleton of the boundary surface ∂M.  They lie at least
    three edges apart:

    - ∂M is the union of the lunes and caps of the ball spheres; each
      octagon disc lies on two spheres, an edge ball's and a triangle
      ball's, so it is interior.  A lune or cap is an annulus from its
      boundary cycle to a ring of fresh vertices, plus a fan from a fresh
      centre over the ring.  There a cycle vertex is adjacent, among cycle
      vertices, only to its two cycle neighbours, and a ring vertex only to
      two consecutive cycle vertices.  So cycle vertices within two edges
      of each other in ∂M are within as many edges along the cycles, and
      every piece vertex lies on the cycles.
    - In the labels of ``_Namer``, L_v's vertices are a(v, e), a(v, t) and
      c(v, e, t) for the edges e and triangles t at v.  Along the cycles
      a(v, t) meets only c(v, e, t) vertices; c(v, e, t) meets a(v, e),
      a(v, t) and h vertices of the octagon of (e, t); a(v, e) meets
      c(v, e, t) vertices and, on an edge with a single page, a dummy z.
      So a cycle path leaving L_v runs along an octagon side c h n h c,
      four edges to the piece of e's other end w, or along the dummy
      meridian a(v, e) z z a(w, e), three edges.

    Hence the least distance between two pieces is three edges when some
    edge has a single page and four otherwise, whatever the page order.

    P's report is derived, not recomputed, from M's, which
    ``build_spine_thickening`` proves: M is a combinatorial 3-manifold,
    pure, every triangle in one or two tetrahedra, every edge link one arc
    or circle, every vertex link a sphere or a disc.  So ∂M is a closed
    surface, and for a vertex u of ∂M the link lk_M(u) is a disc, not a
    sphere, as it holds the free edge f - u of a triangle f of ∂M at u;
    lk_∂M(u) is its boundary circle.
    Each frontier piece L_v stays off the rim of N_v: a triangle of ∂M at
    a vertex of L_v lies in the closed star N_v, and every edge of the
    closed surface ∂M lies in two triangles, so no edge of N_v at a vertex
    of L_v is a rim edge.  The tests check both facts on the fixtures.
    ``classify_link(N_v)`` certifies each N_v a surface, one call per input
    vertex.  The simplices of P containing w_v are w_v and s + w_v for s in
    N_v, and the N_v are vertex-disjoint, so:

    - lk_P(w_v) = N_v, and w_v gets N_v's class.
    - A vertex u of M gains only the simplices s + w_v with u in s in N_v,
      so lk_P(u) = lk_M(u) ∪ w_v * lk_N_v(u).  Outside every N_v, u keeps
      its class.  In N_v, lk_N_v(u) lies in the circle lk_∂M(u): it is all
      of that circle when u is interior to the surface N_v, and the cone on
      it caps the disc lk_M(u) to a sphere; it is an arc when u is on N_v's
      rim, and a disc glued to a disc along a boundary arc is a disc.
    - A triangle of N_v lies on ∂M, in one tetrahedron of M, and gains one
      cone; a triangle e + w_v lies in one tetrahedron per triangle of N_v
      at e, two when e is interior to N_v and one on its rim.  So facet
      degrees stay one or two, and P is pure as M and the surfaces N_v are.
    - An edge e of N_v adds w_v * lk_N_v(e) to the arc lk_M(e), whose two
      ends are the vertices opposite e in the two triangles of ∂M at e:
      both ends for an interior edge, a circle, and one for a rim edge, an
      arc.  The edge u + w_v has link lk_N_v(u), a circle or an arc.  Other
      edges keep their links, so M's link flags carry over to P.
    - The free triangles of P are those of ∂M outside every N_v, which
      gained no tetrahedron, and the cones e + w_v over the rim edges e of
      the N_v, so ∂P is the closure of these.  It is read off P's own
      facet degrees (``_boundary``), which P's gallery forest needs the
      index for anyway; the tests compare it with the closure of these
      triangles.

    P is M with the cones w_v * N_v (``_with_cones``), built without
    re-checking face closure: M is face-closed by its own build, and each
    N_v is a closed star in ∂M, a subcomplex of M.  The tests keep the
    checked build as the oracle.

    Only the gallery forest ``_fans(P, 0)``, which ``orient`` reads, is
    computed on P itself.  ``check_isolated_singularities(P)`` stays in the
    tests as the oracle of this derivation, and ``plthick check`` runs it
    on the written P, printing the same block as ``report.json``.

    The retract copy X_copy is sd(Y rel K), Y = sd X and K the spine, with
    each input vertex v renamed w_v and the strips split as in L.  A
    simplex of Y is a chain of simplices of X, so it holds at most one input
    vertex, and K is full on the other vertices of Y: a simplex of Y
    outside K holds exactly one input vertex.  So the simplices of
    sd(Y rel K) through v form the star v * L_v, L_v = lk(v) as
    ``frontier_pieces`` took it, and the others lie in the collar N (a
    child simplex whose chain starts at a simplex s1 of Y with K-vertex u
    spans a face of a child through u).  L_v meets no K-vertex and is not
    split, so it lies in L, and X_copy = L ∪ ⋃ w_v * L_v.  That union is
    the build, as P is built from M: L's layers and the cones
    (``_with_cones``), so sd(Y rel K) is not split a second time, and only
    X_copy ⊂ P is checked.  The relabelled, strip-split sd(Y rel K) stays
    in the tests as the oracle.
    """
    surface = partial.report.boundary
    Lv = partial.Lv
    triangles_at = {}
    for f in surface.by_dim(2):
        for u in f:
            triangles_at.setdefault(u, []).append(f)
    neighborhoods = {}
    for v, piece in Lv.items():
        N = neighborhoods[v] = complex_from_maximal(
            itertools.chain.from_iterable(map(triangles_at.__getitem__, piece.vertices)))
        ok, witness = is_full_subcomplex(N, piece)
        if not ok:
            raise ConstructionError(
                "frontier piece of %s is not full in the boundary surface (witness %s)"
                % (v, witness))
    owner = {}
    for v, N in neighborhoods.items():
        for lab in N.vertices:
            w = owner.setdefault(lab, v)
            if w != v:
                raise ConstructionError(
                    "boundary neighborhoods of %s and %s share vertex %s" % (w, v, lab))

    links = dict(partial.report.vertex_links)
    cone_vertices = {v: _cone_label(v) for v in sorted(Lv)}
    for v, w in cone_vertices.items():
        N = neighborhoods[v]
        links[w] = cls = classify_link(N)
        if cls.pieces is None:
            raise ConstructionError(
                "boundary neighborhood of %s is %s, not a surface" % (v, cls.describe()))
        rim_vertices = set(_boundary(N).vertices)
        for x in N.vertices:
            if x not in rim_vertices:
                links[x] = SPHERE
    P = _with_cones(partial.M, ((w, neighborhoods[v]) for v, w in cone_vertices.items()))
    galleries = _fans(P, 0)
    components = len(set(galleries[0]))
    report = replace(
        partial.report, boundary=_boundary(P),
        gallery_connected=components <= 1, gallery_components=components,
        galleries=galleries, vertex_links=links)

    X_copy = _with_cones(partial.L, ((w, Lv[v]) for v, w in cone_vertices.items()))
    if not X_copy.is_subcomplex_of(P):
        raise ConstructionError("retract copy is not a subcomplex of the output")

    return ThickeningOutput(
        M=partial.M, boundary_surface=surface, L=partial.L, Lv=Lv, Nv=neighborhoods,
        cone_vertices=cone_vertices, P=P, report=report, X_copy=X_copy,
        spine=partial.spine, collar=partial.collar, sheet_data=partial.sheet_data,
        names=partial.names)


# -- verification ----------------------------------------------------------------------


@dataclass(frozen=True)
class CollapseCertificate:
    """The collapse P ↘ R verify_thickening runs with X_copy kept.

    ``pairs`` counts its elementary collapses, ``reaches_copy`` says whether
    R is X_copy itself, and ``order_sha256`` is the sha256 of the compact
    JSON list ``[[free face vertices, coface vertices], ...]`` in the order
    removed.
    """

    pairs: int
    reaches_copy: bool
    order_sha256: str


@dataclass(frozen=True)
class ThickeningReport:
    pseudomanifold: object
    orientation: object
    homology_P: object
    homology_X: object
    homology_copy: object
    spine_b1: int
    gallery_components: int
    certificate: CollapseCertificate


def homology_by_collapse(P, X_copy, H_copy):
    """H_*(P) from a greedy collapse of P that keeps X_copy, whose homology
    ``H_copy`` is given, and the certificate of that collapse.

    The collapse leaves a remainder R with P ↘ R, so H_*(P) = H_*(R): that
    is ``H_copy`` when R is X_copy and Smith normal form of R otherwise.
    """
    collapse = greedy_collapse(P, keep=X_copy)
    R = collapse.remainder
    reaches_copy = R == X_copy
    H = H_copy if reaches_copy else homology_groups(R)
    # JSON writes tuples as arrays.  The pairs are a fresh tuple of tuples
    # of strings, which cannot contain itself, so no cycle guard is kept.
    order = json.dumps(collapse.pairs, separators=(",", ":"), check_circular=False)
    return H.padded(P.dim + 1), CollapseCertificate(
        pairs=len(collapse.pairs), reaches_copy=reaches_copy,
        order_sha256=hashlib.sha256(order.encode()).hexdigest())


def verify_thickening(t, X):
    """Run every decidable consequence of the construction and fail loudly
    on any mismatch.

    H_*(P) is read off a collapse certificate, not a Smith normal form of
    P.  P is greedily collapsed with the retract copy X_copy kept, down to
    a remainder R.  An elementary collapse removes a free face with its
    unique coface, which is a deformation retraction, so the sequence is a
    simple-homotopy equivalence P ↘ R (Whitehead) and H_*(P) = H_*(R),
    torsion included.  When R is X_copy, whose homology is computed anyway,
    that is H_*(P); otherwise the collapse got stuck (greedy collapses can,
    even on collapsible complexes) and H_*(R) is computed on the smaller R.
    Either way the result is exact.  The orientability check reads the top
    relative rank off the gallery forest (``orient``).

    P's pseudomanifold and vertex-link report is the one
    ``cone_boundary_neighborhoods`` derived from M's, which
    ``build_spine_thickening`` proves, with N_v certified a surface by its
    own classification; neither M nor P gets a full link pass, which
    ``plthick check`` runs on the written P.  M gets no collapse: it is a
    handlebody on the spine by its build (``build_spine_thickening``), so
    ``spine_b1`` is read off the spine.
    """
    P = t.P
    report = t.report
    spine_components = len(t.spine.connected_components())
    spine_b1 = len(t.spine.by_dim(1)) - len(t.spine.vertices) + spine_components
    if report.gallery_components != spine_components:
        raise ConstructionError(
            "gallery components %d != spine components %d"
            % (report.gallery_components, spine_components))

    res = orient(P, report=report)
    if not res.success:
        raise ConstructionError("output is not orientable")

    HX = homology_groups(X)
    Hcopy = homology_groups(t.X_copy)
    HP, certificate = homology_by_collapse(P, t.X_copy, Hcopy)
    if not HP.agrees_with(HX):
        raise ConstructionError("homology of the output differs from the input")
    if not Hcopy.agrees_with(HX):
        raise ConstructionError("homology of the retract copy differs from the input")

    return ThickeningReport(
        pseudomanifold=report, orientation=res, homology_P=HP, homology_X=HX,
        homology_copy=Hcopy, spine_b1=spine_b1,
        gallery_components=report.gallery_components, certificate=certificate)


# -- pipeline front door -----------------------------------------------------------------


def thicken(X, seed=None):
    """Full construction: build the solid on the spine's collar, cone it
    off and verify.  Returns ``(output, report)``.

    The output is a function of X alone.  ``seed`` has no effect: nothing
    is sampled, and the parameter stays only for the benchmark's call
    ``thicken(X, seed)``.
    """
    if X.dim < 2:
        raise ValidationError("d >= 2 required: 1-dimensional inputs cannot thicken")
    if X.dim != 2:
        raise ValidationError("thickening is implemented for dimension 2 inputs")
    if not X.is_connected():
        raise ValidationError("input must be connected")
    if any(len(s) != 3 for s in X.maximal_simplices):
        raise ValidationError("input must be pure 2-dimensional")
    partial = build_spine_thickening(extract_sheet_data(X), spine_collar(X))
    out = cone_boundary_neighborhoods(partial)
    rep = verify_thickening(out, X)
    return out, rep
