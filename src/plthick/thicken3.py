"""Thickening an embedded spine collar into a combinatorial 3-manifold and
coning its boundary pieces into a pseudomanifold.

The solid is assembled from one triangulated ball per spine vertex, glued
directly along shared octagonal disc triangulations (one per spine edge;
the interval factor of the usual tube is absorbed into the two cones).
Ball spheres are triangulated from the exact angular data of the embedding:
pages around an edge are sorted by exact cross/dot sign predicates, and
each sheet's two normal sides are tracked by the page's global plane
normal, so strips glue without twists.  Every property needed downstream
(manifoldness, boundary genus, frontier placement, homology) is re-verified
on the output rather than assumed.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from .complex_core import (
    Complex,
    Simplex,
    close_under_faces,
    complex_from_maximal,
    frontier_pieces,
    greedy_collapse,
    is_full_subcomplex,
    link_of,
    relative_barycentric_subdivision,
    simplicial_neighborhood,
)
from .errors import ConstructionError, GeneralPositionError, ValidationError
from .geometry import (
    choose_spine_barycenters,
    epsilon_neighborhood_embedding,
    sample_general_position_map,
    vcross,
    vdot,
    vscale,
    vsub,
)
from .homology import homology_groups
from .pseudomanifold import (
    check_isolated_singularities,
    check_pseudomanifold,
    orient,
)


def _det3(a, b, c):
    return vdot(a, vcross(b, c))


# -- sheet data -------------------------------------------------------------------


@dataclass(frozen=True)
class SheetData:
    """Exact embedding data driving the ball triangulations.

    ``pages_ccw`` lists, per original edge, its incident triangles in exact
    angular order around the image of the edge; ``plus_side_ccw`` says
    whether a page's plus normal side faces the next page in that order.
    ``vertex_links`` are the link graphs of the spine vertices in the
    collar, with exact direction vectors per link vertex.
    """

    pages_ccw: dict
    plus_side_ccw: dict
    vertex_links: dict
    directions: dict
    axes: dict


def extract_sheet_data(se):
    """Derive the rotation and side data of the embedded collar."""
    X = se.base.domain
    if X.dim != 2:
        raise ValidationError("sheet data requires a 2-dimensional complex")
    if se.nbhd is None:
        raise ValidationError("epsilon neighborhood missing; run the embedding first")
    f = se.base.points
    names = _Namer(se)

    pages_ccw = {}
    plus_side_ccw = {}
    axes = {}
    for e in X.by_dim(1):
        pages = [t for t in X.by_dim(2) if set(e.vertices) <= set(t.vertices)]
        if not pages:
            raise ValidationError(
                "edge %s lies in no triangle; thickening needs a pure complex" % (e,))
        v, w = e.vertices
        axis = vsub(f[w], f[v])
        axes[e] = axis
        base = f[v]
        rvecs = {}
        for t in pages:
            rel = vsub(se.barycenters[t], base)
            perp = vsub(vscale(vdot(axis, axis), rel), vscale(vdot(rel, axis), axis))
            if all(x == 0 for x in perp):
                raise GeneralPositionError("page %s collapses onto edge %s" % (t, e))
            rvecs[t] = perp
        ordered = _circular_sort(axis, sorted(pages), rvecs)
        pages_ccw[e] = tuple(ordered)
        for t in pages:
            sign = _det3(axis, rvecs[t], _plane_normal(f, t))
            if sign == 0:
                raise GeneralPositionError("degenerate side sign at %s in %s" % (e, t))
            plus_side_ccw[(e, t)] = sign > 0

    vertex_links = {}
    directions = {}
    spine_points = {u: se.spine_point(u) for u in se.spine.vertices}
    N = se.nbhd.complex
    for u in se.spine.vertices:
        vertex_links[u] = link = link_of(N, Simplex((u,)))
        dirs = {}
        for x in link.vertices:
            dirs[x] = vsub(se.nbhd.points[x], spine_points[u])
        directions[u] = dirs
    sd = SheetData(pages_ccw=pages_ccw, plus_side_ccw=plus_side_ccw,
                   vertex_links=vertex_links, directions=directions, axes=axes)
    _verify_sheet_data(sd, se, names)
    return sd


def _plane_normal(f, t):
    x, y, z = t.vertices
    return vcross(vsub(f[y], f[x]), vsub(f[z], f[x]))


def _circular_sort(axis, pages, rvecs):
    """Exact counterclockwise order of page directions around the axis."""
    ref = rvecs[pages[0]]

    def half(r):
        d = _det3(axis, ref, r)
        if d > 0:
            return 0
        if d < 0:
            return 1
        return 0 if vdot(ref, r) > 0 else 1

    def cmp(t1, t2):
        r1, r2 = rvecs[t1], rvecs[t2]
        h1, h2 = half(r1), half(r2)
        if h1 != h2:
            return -1 if h1 < h2 else 1
        d = _det3(axis, r1, r2)
        if d == 0:
            if t1 == t2:
                return 0
            raise GeneralPositionError("two pages at the same angle around an edge")
        return -1 if d > 0 else 1

    return sorted(pages, key=functools.cmp_to_key(cmp))


def _verify_sheet_data(sd, se, names):
    """Rotation systems and link graphs must agree with the exact geometry."""
    X = se.base.domain
    f = se.base.points
    for e in X.by_dim(1):
        axis = sd.axes[e]
        v, w = e.vertices
        u_e = names.ve[e]
        link = sd.vertex_links[u_e]
        dirs = sd.directions[u_e]
        pages = sd.pages_ccw[e]
        # The link graph of the edge barycenter: the two poles on the edge
        # joined by one meridian path per page.
        got = set(link.vertices)
        want = {names.a[(v, e)], names.a[(w, e)]}
        for t in pages:
            want.update({names.c[(v, e, t)], names.c[(w, e, t)], names.vt[t]})
        if got != want:
            raise ConstructionError("unexpected link graph at %s" % (u_e,))
        for pole in (names.a[(v, e)], names.a[(w, e)]):
            d = dirs[pole]
            if not _parallel(d, axis):
                raise ConstructionError("pole %s is off the edge axis" % pole)
        for t in pages:
            normal = _plane_normal(f, t)
            for x in (names.c[(v, e, t)], names.c[(w, e, t)], names.vt[t]):
                if vdot(dirs[x], normal) != 0:
                    raise ConstructionError(
                        "meridian vertex %s leaves the page plane" % x)
    for t in X.by_dim(2):
        u_t = names.vt[t]
        link = sd.vertex_links[u_t]
        if not (len(link.vertices) == 12 and len(link.by_dim(1)) == 12):
            raise ConstructionError("link of %s is not a 12-cycle" % u_t)
        normal = _plane_normal(f, t)
        dirs = sd.directions[u_t]
        for x in link.vertices:
            if vdot(dirs[x], normal) != 0:
                raise ConstructionError("link vertex %s off the plane of %s" % (x, t))
        # Rotation system: consecutive directions wind consistently.
        cycle = _cycle_order(link)
        winds = set()
        for i in range(len(cycle)):
            d1, d2 = dirs[cycle[i]], dirs[cycle[(i + 1) % len(cycle)]]
            s = _det3(normal, d1, d2)
            if s == 0:
                raise GeneralPositionError("degenerate rotation at %s" % u_t)
            winds.add(s > 0)
        if len(winds) != 1:
            raise ConstructionError("rotation system at %s is inconsistent" % u_t)


def _parallel(a, b):
    return all(x == 0 for x in vcross(a, b))


def _cycle_order(link):
    adj = link.adjacency()
    start = min(adj)
    cycle = [start]
    prev = None
    while True:
        nbrs = sorted(adj[cycle[-1]])
        nxt = nbrs[0] if nbrs[0] != prev else nbrs[1]
        if nxt == start:
            return cycle
        prev = cycle[-1]
        cycle.append(nxt)


# -- label bookkeeping ----------------------------------------------------------


class _Namer:
    """All structured labels of the thickening, derived from the collar."""

    def __init__(self, se):
        X = se.base.domain
        B = se.subdivision
        sub = se.nbhd_sub
        self.X = X
        self.ve = {e: B.barycenter_table[e] for e in X.by_dim(1)}
        self.vt = {t: B.barycenter_table[t] for t in X.by_dim(2)}
        self.a = {}
        self.c = {}
        for t in X.by_dim(2):
            for v in t.vertices:
                self.a[(v, t)] = sub.barycenter_table[
                    Simplex(tuple(sorted((v, self.vt[t]))))]
        for e in X.by_dim(1):
            for v in e.vertices:
                self.a[(v, e)] = sub.barycenter_table[
                    Simplex(tuple(sorted((v, self.ve[e]))))]
            for t in X.by_dim(2):
                if set(e.vertices) <= set(t.vertices):
                    for v in e.vertices:
                        self.c[(v, e, t)] = sub.barycenter_table[
                            Simplex(tuple(sorted((v, self.ve[e], self.vt[t]))))]

    def u_label(self, e, t):
        return "w:%s:%s" % (self.ve[e], self.vt[t])

    def side_label(self, e, t, plus):
        return "n:%s:%s:%s" % (self.ve[e], self.vt[t], "p" if plus else "m")

    def h_label(self, e, t, k):
        return "h:%s:%s:%d" % (self.ve[e], self.vt[t], k)

    def octagon(self, e, t):
        """Disc boundary in canonical cyclic order: c_lo h0 n+ h1 c_hi h2 n- h3."""
        lo, hi = e.vertices
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
        if start_vertex == e.vertices[1]:
            path = list(reversed(path))
        return path


def _fan(center, cycle):
    out = []
    for i in range(len(cycle)):
        out.append(Simplex(tuple(sorted((center, cycle[i], cycle[(i + 1) % len(cycle)])))))
    return out


def _annulus(outer, inner):
    """Standard two-ring triangulation between equal-length cycles."""
    n = len(outer)
    tris = []
    for k in range(n):
        tris.append(Simplex(tuple(sorted((outer[k], outer[(k + 1) % n], inner[k])))))
        tris.append(Simplex(tuple(sorted((inner[k], outer[(k + 1) % n],
                                          inner[(k + 1) % n])))))
    return tris


# -- ball assembly ------------------------------------------------------------------


@dataclass(frozen=True)
class PartialThickening:
    """The solid with its traced collar, before coning."""

    M: Complex
    boundary_surface: Complex
    L: Complex
    Lv: dict
    spine: Complex
    spine_embedding: object
    sheet_data: SheetData
    names: _Namer
    chi_by_component: dict


def _edge_ball_sphere(names, sd, e):
    """Sphere triangles around an edge barycenter: one marked octagon disc
    per page, lunes with buffer rings in between; a single page gets a
    dummy meridian so each lune boundary is a simple cycle."""
    v, w = e.vertices
    p_v, p_w = names.a[(v, e)], names.a[(w, e)]
    dummy = ["z1:%s" % names.ve[e], "z2:%s" % names.ve[e]]
    pages = list(sd.pages_ccw[e])
    tris = []
    for t in pages:
        tris.extend(_fan(names.u_label(e, t), names.octagon(e, t)))
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

    for i in range(m):
        left = flank(entries[i], True)
        right = flank(entries[(i + 1) % m], False)
        cycle = [p_v] + left + [p_w] + list(reversed(right))
        ring = ["r:%s:%d:%d" % (names.ve[e], i, k) for k in range(len(cycle))]
        tris.extend(_annulus(cycle, ring))
        tris.extend(_fan("lam:%s:%d" % (names.ve[e], i), ring))
    return tris


def _triangle_ball_sphere(names, t):
    """Sphere triangles around a triangle barycenter: the three shared
    octagon discs plus buffered north and south caps over the link circle."""
    x, y, z = t.vertices
    e1 = Simplex((x, y))
    e2 = Simplex((x, z))
    e3 = Simplex((y, z))
    tris = []
    for e in (e1, e2, e3):
        tris.extend(_fan(names.u_label(e, t), names.octagon(e, t)))

    def detour(e, fro, to, plus):
        path = names.side_path(e, t, fro, plus)
        assert path[0] == names.c[(fro, e, t)] and path[-1] == names.c[(to, e, t)]
        return path

    for plus, tag in ((True, "N"), (False, "S")):
        cycle = [names.c[(x, e1, t)], names.a[(x, t)]]
        cycle += detour(e2, x, z, plus)
        cycle.append(names.a[(z, t)])
        cycle += detour(e3, z, y, plus)
        cycle.append(names.a[(y, t)])
        cycle += detour(e1, y, x, plus)[:-1]
        ring = ["r%s:%s:%d" % (tag, names.vt[t], k) for k in range(len(cycle))]
        tris.extend(_annulus(cycle, ring))
        tris.extend(_fan("cap%s:%s" % (tag, names.vt[t]), ring))
    return tris


def build_spine_thickening(sd, se):
    """Assemble the solid, trace the collar copy through it and verify all
    structural claims (manifoldness, boundary genus, frontier placement).

    Each ball is the cone from its centre over its sphere triangles, so the
    link of the centre in M is exactly that sphere: the balls are certified
    by the centres' links in M's own vertex-link report.  The frontier
    piece of each input vertex is its link in the collar's own subdivision,
    and ``frontier_pieces`` checks that these links partition the collar
    frontier: the spine boundary identity of ``spine_boundary_check``.
    M's own vertex links are checked here although P's are checked later,
    since coning can hide a pinch: if lk_M(v) is two discs meeting at a
    rim vertex of N_w, lk_P(v) is still a disc.
    """
    X = se.base.domain
    names = _Namer(se)
    Lv = frontier_pieces(se.nbhd_sub.child, se.frontier, X.vertices)

    tets = []
    for e in X.by_dim(1):
        center = names.ve[e]
        tets.extend(s.join((center,)) for s in _edge_ball_sphere(names, sd, e))
    for t in X.by_dim(2):
        center = names.vt[t]
        tets.extend(s.join((center,)) for s in _triangle_ball_sphere(names, t))
    M = complex_from_maximal(tets)

    # The collar copy inside the solid.
    L = _split_strips((set(s.vertices) for s in se.nbhd.complex.simplices), se, names)
    if not L.is_subcomplex_of(M):
        missing = sorted(set(L.simplices) - set(M.simplices))[:4]
        raise ConstructionError("collar copy not inside the solid: %s" % (missing,))
    ok, witness = is_full_subcomplex(M, L)
    if not ok:
        raise ConstructionError("collar copy not full in the solid (%s)" % (witness,))

    report = check_pseudomanifold(M)
    if not (report.is_pure and report.facet_degrees_ok):
        raise ConstructionError("solid fails pseudomanifold checks")
    report = check_isolated_singularities(M, report)
    for v, cls in report.vertex_links.items():
        if not (cls.is_manifold and cls.components == 1 and cls.genus in (0, None)
                and cls.kind in ("Sphere", "Disc")):
            raise ConstructionError("vertex %s has link %s" % (v, cls.describe()))
    for c in itertools.chain(names.ve.values(), names.vt.values()):
        if report.vertex_links[c].kind != "Sphere":
            raise ConstructionError("ball around %s is bounded by %s, not a 2-sphere"
                                    % (c, report.vertex_links[c].describe()))
    if not report.positive_links_ok:
        raise ConstructionError("edge or triangle links of the solid are wrong")

    boundary = report.boundary
    for v, piece in Lv.items():
        if not piece.is_subcomplex_of(boundary):
            raise ConstructionError("frontier piece of %s not on the boundary" % v)

    chi_by_component = _verify_handlebody_genus(M, boundary, se.spine)

    return PartialThickening(
        M=M, boundary_surface=boundary, L=L, Lv=Lv, spine=se.spine,
        spine_embedding=se, sheet_data=sd, names=names,
        chi_by_component=chi_by_component)


def _spine_edge_pairs(se, names):
    X = se.base.domain
    pairs = {}
    for t in X.by_dim(2):
        for e in (Simplex(c) for c in itertools.combinations(t.vertices, 2)):
            pairs[(names.ve[e], names.vt[t])] = names.u_label(e, t)
    return pairs


def _split_strips(vertex_sets, se, names):
    """Each sheet strip split at the waist where the two balls meet: a
    simplex spanning an edge-ball centre and a triangle-ball centre becomes
    its two halves through their waist vertex."""
    pairs = _spine_edge_pairs(se, names)
    out = set()
    for vs in vertex_sets:
        split = next(((a, b, u) for (a, b), u in pairs.items()
                      if a in vs and b in vs), None)
        if split is None:
            out.add(Simplex(tuple(sorted(vs))))
            continue
        a, b, u = split
        rest = vs - {a, b}
        out.add(Simplex(tuple(sorted(rest | {a, u}))))
        out.add(Simplex(tuple(sorted(rest | {u, b}))))
    return complex_from_maximal(out)


def _verify_handlebody_genus(M, boundary, spine):
    """Per solid component: boundary connected with chi = 2 - 2*b1(spine part)."""
    chi_by_component = {}
    spine_components = spine.connected_components()
    m_components = M.connected_components()
    if len(spine_components) != len(m_components):
        raise ConstructionError("solid components do not match spine components")
    for comp in m_components:
        spine_part = [g for g in spine_components if g <= comp]
        if len(spine_part) != 1:
            raise ConstructionError("solid component holds several spine parts")
        g = spine_part[0]
        edges = [e for e in spine.by_dim(1) if set(e.vertices) <= g]
        b1 = len(edges) - len(g) + 1
        bpart = Complex(s for s in boundary.simplices if s.vertices[0] in comp)
        if not bpart.is_connected():
            raise ConstructionError("handlebody boundary is disconnected")
        chi = bpart.euler_characteristic()
        if chi != 2 - 2 * b1:
            raise ConstructionError(
                "boundary chi %d does not match genus %d" % (chi, b1))
        chi_by_component[min(g)] = (chi, b1)
    return chi_by_component


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
    X_copy: Complex
    provenance: dict
    spine: Complex
    spine_embedding: object
    sheet_data: SheetData
    chi_by_component: dict
    names: _Namer = field(compare=False, default=None)


def _cone_label(v):
    """Label of the cone vertex over the frontier piece of input vertex v."""
    return "cone:%s" % v


def cone_boundary_neighborhoods(partial):
    """Thicken each frontier piece inside the boundary surface and cone it
    off with a fresh vertex; re-subdivide once if the neighborhoods touch.

    Each N_v must keep its frontier piece off its rim.  N_v is a surface
    by ``verify_thickening``: the simplices of P containing the cone vertex
    w are w and s + w for s in N_v, so lk_P(w) = N_v, and with isolated
    singularities every vertex link of the 3-pseudomanifold P is a surface.
    """
    M = partial.M
    surface = partial.boundary_surface
    L = partial.L
    Lv = partial.Lv

    for _ in range(2):
        neighborhoods = {}
        ok = True
        for v, piece in Lv.items():
            if len(piece) == 0:
                neighborhoods[v] = Complex(())
                continue
            N, _ = simplicial_neighborhood(surface, piece)
            neighborhoods[v] = N
        seen = {}
        for v, N in neighborhoods.items():
            for lab in N.vertices:
                if lab in seen and seen[lab] != v:
                    ok = False
                    break
                seen[lab] = v
            if not ok:
                break
        if ok:
            break
        sub = relative_barycentric_subdivision(M, L)
        M = sub.child
        report = check_pseudomanifold(M)
        surface = report.boundary
    else:
        raise ConstructionError("boundary neighborhoods still overlap after re-subdivision")

    for v, N in neighborhoods.items():
        if len(N) == 0:
            continue
        free_edges = [e for e, tops in N.facet_cofaces().items() if len(tops) == 1]
        rim = set(close_under_faces(free_edges))
        if rim & Lv[v].simplices:
            raise ConstructionError("frontier piece of %s touches its rim" % v)

    cone_vertices = {}
    provenance = dict.fromkeys(M.simplices, "M")
    for v in sorted(Lv):
        N = neighborhoods[v]
        if len(N) == 0:
            continue
        w = _cone_label(v)
        cone_vertices[v] = w
        provenance[Simplex((w,))] = ("cone", v)
        for s in N.simplices:
            provenance[s.join((w,))] = ("cone", v)
    P = Complex(provenance)

    X_copy = _assemble_retract_copy(partial, Lv, cone_vertices)
    if not X_copy.is_subcomplex_of(P):
        raise ConstructionError("retract copy is not a subcomplex of the output")

    return ThickeningOutput(
        M=M, boundary_surface=surface, L=L, Lv=Lv, Nv=neighborhoods,
        cone_vertices=cone_vertices, P=P, X_copy=X_copy, provenance=provenance,
        spine=partial.spine, spine_embedding=partial.spine_embedding,
        sheet_data=partial.sheet_data, chi_by_component=partial.chi_by_component,
        names=partial.names)


def _assemble_retract_copy(partial, Lv, cone_vertices):
    pieces = set(partial.L.simplices)
    for v, w in cone_vertices.items():
        pieces.add(Simplex((w,)))
        for s in Lv[v].simplices:
            pieces.add(s.join((w,)))
    return Complex(pieces)


def expected_retract_copy(t):
    """The collar subdivision of the input, strip-split and relabeled: the
    retract copy must equal it simplex for simplex."""
    se = t.spine_embedding
    xverts = set(se.base.domain.vertices)
    return _split_strips(
        ({_cone_label(x) if x in xverts else x for x in s.vertices}
         for s in se.nbhd_sub.child.simplices),
        se, t.names)


# -- verification ----------------------------------------------------------------------


@dataclass(frozen=True)
class ThickeningReport:
    pseudomanifold: object
    orientation: object
    homology_P: object
    homology_X: object
    homology_copy: object
    collapse_b1: int
    spine_b1: int
    chi_by_component: dict
    gallery_components: int


# Greedy collapses of M from these seeds; one reaching a 1-complex suffices.
_COLLAPSE_SEEDS = (0, 1, 2)


def verify_thickening(t, X):
    """Run every decidable consequence of the construction and fail loudly
    on any mismatch."""
    P = t.P
    report = check_pseudomanifold(P)
    if not (report.is_pure and report.facet_degrees_ok):
        raise ConstructionError("output fails pseudomanifold purity or degrees")
    spine_components = len(t.spine.connected_components())
    if report.gallery_components != spine_components:
        raise ConstructionError(
            "gallery components %d != spine components %d"
            % (report.gallery_components, spine_components))
    report = check_isolated_singularities(P, report)
    if not report.isolated_singularities:
        raise ConstructionError("output has non-isolated singularities")

    res = orient(P, report=report)
    if not res.success:
        raise ConstructionError("output is not orientable")

    HX = homology_groups(X)
    HP = homology_groups(P)
    if not HP.agrees_with(HX):
        raise ConstructionError("homology of the output differs from the input")
    Hcopy = homology_groups(t.X_copy)
    if not Hcopy.agrees_with(HX):
        raise ConstructionError("homology of the retract copy differs from the input")
    if t.X_copy != expected_retract_copy(t):
        raise ConstructionError("retract copy is not the expected subdivision copy")

    collapse_b1 = None
    for seed in _COLLAPSE_SEEDS:
        collapsed = greedy_collapse(t.M, seed=seed)
        if collapsed.dim <= 1:
            comps = len(collapsed.connected_components())
            collapse_b1 = len(collapsed.by_dim(1)) - len(collapsed.vertices) + comps
            break
    if collapse_b1 is None:
        raise ConstructionError("greedy collapse did not reach a 1-complex")
    spine_b1 = sum(b1 for _, b1 in t.chi_by_component.values())
    if collapse_b1 != spine_b1:
        raise ConstructionError(
            "collapse first Betti number %d != spine %d" % (collapse_b1, spine_b1))

    return ThickeningReport(
        pseudomanifold=report, orientation=res, homology_P=HP, homology_X=HX,
        homology_copy=Hcopy, collapse_b1=collapse_b1, spine_b1=spine_b1,
        chi_by_component=t.chi_by_component,
        gallery_components=report.gallery_components)


# -- pipeline front door -----------------------------------------------------------------


def thicken(X, seed, denom_bound=1000):
    """Full construction: sample an embedding, build the solid, cone it off
    and verify.  Returns ``(output, report)``."""
    if X.dim < 2:
        raise ValidationError("d >= 2 required: 1-dimensional inputs cannot thicken")
    if X.dim != 2:
        raise ValidationError("thickening is implemented for dimension 2 inputs")
    if not X.is_connected():
        raise ValidationError("input must be connected")
    if any(s.dim != 2 for s in X.maximal_simplices):
        raise ValidationError("input must be pure 2-dimensional")
    m = sample_general_position_map(X, 3, seed=seed, denom_bound=denom_bound)
    se = choose_spine_barycenters(m, seed=seed)
    se = epsilon_neighborhood_embedding(se)
    sd = extract_sheet_data(se)
    partial = build_spine_thickening(sd, se)
    out = cone_boundary_neighborhoods(partial)
    rep = verify_thickening(out, X)
    return out, rep
