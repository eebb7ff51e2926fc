"""Pseudomanifold verifiers: purity, facet degrees, boundary, gallery
connectivity, link classification in link dimension <= 2, and orientability.

Orientability is decided by propagating orientations across interior facets
and is independently cross-checked against top relative homology; the two
must agree.  Link recognition is deliberately capped at link dimension 2,
where it is decidable by surface classification.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

from .complex_core import Complex, Simplex, complex_from_maximal
from .errors import ConstructionError, ValidationError
from .homology import HomologyResult, homology_groups


@dataclass(frozen=True)
class LinkClass:
    """Classification of a link complex of dimension <= 2.

    ``kind`` is one of Sphere, Disc, ClosedSurface, SurfaceWithBoundary,
    Circle, Arc, PointPair, Point, Empty, Mixed, NotManifold.  ``genus`` is
    the orientable genus, or the crosscap number for non-orientable
    surfaces.  ``components`` counts connected components; a disconnected
    link is still a manifold when every component is one.
    """

    kind: str
    dim: int
    components: int
    is_manifold: bool
    orientable: bool | None = None
    genus: int | None = None
    boundary_components: int | None = None
    witness: Simplex | None = None

    def closed(self):
        return self.is_manifold and not self.boundary_components

    def describe(self):
        bits = [self.kind]
        if self.genus is not None:
            bits.append("genus=%d" % self.genus)
        if self.orientable is not None:
            bits.append("orientable=%s" % self.orientable)
        if self.boundary_components:
            bits.append("boundary_circles=%d" % self.boundary_components)
        if self.components != 1:
            bits.append("components=%d" % self.components)
        return " ".join(bits)


@dataclass(frozen=True)
class OrientationAssignment:
    """Signs of the top simplices relative to their sorted vertex order."""

    signs: dict

    def sign(self, s):
        return self.signs[s]


@dataclass(frozen=True)
class OrientResult:
    success: bool
    assignment: OrientationAssignment | None
    odd_cycle: list | None
    top_relative_rank: int
    homology: HomologyResult | None = None  # the rank oracle's H_*(X, boundary)


@dataclass(frozen=True)
class PseudomanifoldReport:
    dim: int
    is_pure: bool
    facet_degrees_ok: bool
    boundary: Complex
    gallery_connected: bool
    gallery_components: int
    facet_witness: Simplex | None = None
    isolated_singularities: bool | None = None
    positive_links_ok: bool | None = None
    vertex_links: dict | None = None

    def pseudomanifold_ok(self):
        return self.is_pure and self.facet_degrees_ok


def _find(parent, x):
    """Union-find root of x, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _fans(X, cofaces, k):
    """Fans of top simplices around every k-vertex face r of X.

    A union-find over pairs (r, t), r a k-subset of the top simplex t, joins
    the top simplices of each facet at every k-subset of that facet.  Returns
    ``{r: set of roots}``, one root per fan.  With k = 0 the only face is
    ``()`` and its fans are the galleries.  When every facet lies in one or
    two top simplices, the link of a (d-2)-simplex is a disjoint union of
    circles and arcs, one per fan (Rourke-Sanderson, ch. 2).
    """
    parent = {}
    for t in X.by_dim(X.dim):
        for r in combinations(t.vertices, k):
            parent[(r, t)] = (r, t)
    for f, tops in cofaces.items():
        for r in combinations(f.vertices, k):
            for other in tops[1:]:
                ra, rb = _find(parent, (r, tops[0])), _find(parent, (r, other))
                if ra != rb:
                    parent[rb] = ra
    fans = {}
    for r, t in parent:
        fans.setdefault(r, set()).add(_find(parent, (r, t)))
    return fans


def check_pseudomanifold(X):
    """Purity, facet degrees, boundary and gallery connectivity of X.

    A disconnected X is not an error: ``gallery_components`` counts its
    pieces and ``gallery_connected`` is false.
    """
    if X.dim < 1:
        raise ValidationError("pseudomanifold check needs dim >= 1")
    d = X.dim
    is_pure = all(s.dim == d for s in X.maximal_simplices)
    cofaces = X.facet_cofaces()
    witness = None
    facet_degrees_ok = True
    for f, tops in cofaces.items():
        if len(tops) > 2 or len(tops) == 0:
            facet_degrees_ok = False
            witness = f
            break
    boundary = complex_from_maximal(
        f for f, tops in cofaces.items() if len(tops) == 1)
    components = len(_fans(X, cofaces, 0)[()])
    return PseudomanifoldReport(
        dim=d,
        is_pure=is_pure,
        facet_degrees_ok=facet_degrees_ok,
        boundary=boundary,
        gallery_connected=components <= 1,
        gallery_components=components,
        facet_witness=witness,
    )


# -- link classification -------------------------------------------------------


def link_of(X, s):
    """Link of a simplex, built from the incidence index (no star closure)."""
    sset = set(s.vertices)
    out = set()
    for t in X.incident(s.vertices[0]):
        tset = set(t.vertices)
        if sset <= tset and len(tset) > len(sset):
            out.add(Simplex._of(tuple(v for v in t.vertices if v not in sset)))
    return complex_from_maximal(out)


def classify_link(L):
    """Classify a complex of dimension <= 2 as a combinatorial manifold type."""
    dim = L.dim
    if dim > 2:
        raise ValidationError("link recognition is only decidable up to dimension 2")
    if dim == -1:
        return LinkClass(kind="Empty", dim=-1, components=0, is_manifold=True)
    if dim == 0:
        n = len(L.vertices)
        if n == 1:
            return LinkClass(kind="Point", dim=0, components=1, is_manifold=True,
                             boundary_components=1)
        if n == 2:
            return LinkClass(kind="PointPair", dim=0, components=2, is_manifold=True,
                             boundary_components=0)
        return LinkClass(kind="NotManifold", dim=0, components=n, is_manifold=False,
                         witness=L.by_dim(0)[0])
    if dim == 1:
        return _classify_curves(L)
    return _classify_surface(L)


def _classify_curves(L):
    for v in L.by_dim(0):
        if not any(v.vertices[0] in e.vertices for e in L.by_dim(1)):
            return LinkClass(kind="NotManifold", dim=1, components=0,
                             is_manifold=False, witness=v)
    adj = L.adjacency()
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            return LinkClass(kind="NotManifold", dim=1, components=0,
                             is_manifold=False, witness=Simplex((v,)))
    comps = L.connected_components()
    cycles = paths = 0
    for comp in comps:
        if all(len(adj[v]) == 2 for v in comp):
            cycles += 1
        else:
            paths += 1
    if paths == 0:
        kind = "Circle"
    elif cycles == 0:
        kind = "Arc"
    else:
        kind = "Mixed"
    return LinkClass(kind=kind, dim=1, components=len(comps), is_manifold=True,
                     orientable=True, boundary_components=2 * paths)


def _classify_surface(L):
    def not_manifold(witness):
        return LinkClass(kind="NotManifold", dim=2, components=0,
                         is_manifold=False, witness=witness)

    edge_cofaces = L.facet_cofaces()
    for e, tops in edge_cofaces.items():
        if not tops:
            return not_manifold(e)
    fans = _fans(L, edge_cofaces, 1)
    for v in L.by_dim(0):
        if v.vertices not in fans:
            return not_manifold(v)
    for e, tops in edge_cofaces.items():
        if len(tops) > 2:
            return not_manifold(e)
    # With every edge in one or two triangles, a vertex link is a single
    # circle or arc exactly when its triangles form one fan.
    for v in L.by_dim(0):
        if len(fans[v.vertices]) != 1:
            return not_manifold(v)

    pieces = []
    for comp in L.connected_components():
        piece = L.restrict_to_component(comp)
        cofaces = {e: tops for e, tops in edge_cofaces.items() if e.vertices[0] in comp}
        bd = complex_from_maximal(e for e, tops in cofaces.items() if len(tops) == 1)
        nb = len(bd.connected_components()) if len(bd) else 0
        signs, _ = _propagate(piece.by_dim(2), cofaces)
        pieces.append((piece.euler_characteristic(), nb, signs is not None))
    return _surface_class(pieces)


def _surface_class(pieces):
    """LinkClass of a surface whose components are given as (Euler
    characteristic, boundary circles, orientable), by the classification of
    surfaces (Rourke-Sanderson, ch. 2)."""
    kinds = []
    genus_total = boundary_total = 0
    orientable_all = True
    for chi, nb, orientable in pieces:
        if nb == 0:
            kinds.append("Sphere" if orientable and chi == 2 else "ClosedSurface")
        else:
            kinds.append("Disc" if orientable and chi == 1 and nb == 1
                         else "SurfaceWithBoundary")
        genus_total += (2 - chi - nb) // 2 if orientable else 2 - chi - nb
        boundary_total += nb
        orientable_all = orientable_all and orientable
    kind = kinds[0] if len(set(kinds)) == 1 else "Mixed"
    return LinkClass(kind=kind, dim=2, components=len(kinds), is_manifold=True,
                     orientable=orientable_all, genus=genus_total,
                     boundary_components=boundary_total)


# -- isolated singularities -----------------------------------------------------


def check_isolated_singularities(X, report=None):
    """Fill the link fields of a pseudomanifold report.

    Positive-dimensional simplices must have the sphere/disc-type links of
    the matching dimension; vertex links must classify as combinatorial
    manifolds (possibly disconnected).  Edge links of a 3-complex are
    decided by fans: with every triangle in one or two tetrahedra, the link
    of an edge is one arc (edge on the boundary) or one circle (interior
    edge) exactly when the tetrahedra around it form a single fan.

    Once X is pure with every facet in one or two top simplices, every
    vertex link is a manifold in dim 1 (one or two points) and dim 2
    (curves), and in dim 3 it is a surface as soon as every edge link is
    one arc or circle.  So the positive clause decides, and the vertex
    links are kept for their classes.
    """
    if report is None:
        report = check_pseudomanifold(X)
    if X.dim > 3:
        raise ValidationError("isolated-singularity check implemented for dim <= 3")
    if not report.pseudomanifold_ok():
        return replace(report, isolated_singularities=False, positive_links_ok=False)
    positive_ok = X.dim != 3 or all(
        len(roots) == 1 for roots in _fans(X, X.facet_cofaces(), 2).values())
    if X.dim == 3 and positive_ok:
        vertex_links = _surface_vertex_links(X, report.boundary)
    else:
        vertex_links = {v.vertices[0]: classify_link(link_of(X, v)) for v in X.by_dim(0)}
    return replace(
        report,
        positive_links_ok=positive_ok,
        vertex_links=vertex_links,
        isolated_singularities=positive_ok,
    )


def _opposite(t, f):
    """Position in t of its one vertex outside the facet f."""
    tv = t.vertices
    for i, x in enumerate(f.vertices):
        if tv[i] != x:
            return i
    return len(f.vertices)


_EDGES = tuple(combinations(range(4), 2))


def _surface_vertex_links(X, boundary):
    """Every vertex link of a 3-pseudomanifold X whose edge links are single
    arcs or circles, from one signed union-find; ``boundary`` is the
    boundary complex of X.

    Slot 4i+p is the vertex v = t[p] of the i-th tetrahedron t; it stands
    for the link triangle t - v.  Across each interior triangle f = a & b
    the slots of each vertex v of f are joined with the parity of
    ``_relation(a - v, b - v, f - v)``, so the fans at v are the components
    of lk(v), and a join that closes an odd cycle makes its fan
    non-orientable.  The Euler characteristic of a fan counts the edges,
    triangles and tetrahedra at v, each charged to the fan of one
    tetrahedron containing it; its boundary circles are the fans of the
    boundary at v, each charged through its triangle's unique tetrahedron.
    """
    tets = X.by_dim(3)
    index = {t: 4 * i for i, t in enumerate(tets)}
    n = 4 * len(tets)
    parent = list(range(n))
    parity = [0] * n

    def find(x):
        p = 0
        while parent[x] != x:
            up = parent[x]
            parity[x] ^= parity[up]
            parent[x] = parent[up]
            p ^= parity[x]
            x = parent[x]
        return x, p

    chi = [1] * n  # the slot's own tetrahedron
    seen = set()
    for t, base in index.items():
        vs = t.vertices
        for p, q in _EDGES:
            if (vs[p], vs[q]) not in seen:
                seen.add((vs[p], vs[q]))
                chi[base + p] += 1
                chi[base + q] += 1
    odd = []
    cofaces = X.facet_cofaces()
    for f, tops in cofaces.items():
        ia, ka = index[tops[0]], _opposite(tops[0], f)
        for m in range(3):
            chi[ia + m + (m >= ka)] -= 1
        if len(tops) == 1:
            continue
        ib, kb = index[tops[1]], _opposite(tops[1], f)
        for m in range(3):
            # The opposite vertices sit at ka - (m < ka) and kb - (m < kb)
            # of the link triangles, so _relation is -1 iff their sum is even.
            flip = (ka - (m < ka) + kb - (m < kb)) % 2 == 0
            ra, pa = find(ia + m + (m >= ka))
            rb, pb = find(ib + m + (m >= kb))
            if ra != rb:
                parent[rb] = ra
                parity[rb] = pa ^ pb ^ flip
            elif pa ^ pb != flip:
                odd.append(ra)
    fans = {}  # root slot -> [Euler characteristic, boundary circles, orientable]
    for s in range(n):
        fans.setdefault(find(s)[0], [0, 0, True])[0] += chi[s]
    if len(boundary):
        for (v,), roots in _fans(boundary, boundary.facet_cofaces(), 1).items():
            for _, tri in roots:
                t = cofaces[tri][0]
                fans[find(index[t] + t.vertices.index(v))[0]][1] += 1
    for r in odd:
        fans[find(r)[0]][2] = False
    by_vertex = {}
    for r, fan in fans.items():
        by_vertex.setdefault(tets[r // 4].vertices[r % 4], []).append(fan)
    return {v: _surface_class(by_vertex[v]) for v in X.vertices}


# -- orientability -----------------------------------------------------------------


def _relation(sigma, tau, facet):
    """Required product sign(sigma)*sign(tau) across a shared facet."""
    i = sigma.vertices.index(next(v for v in sigma.vertices if v not in facet.vertices))
    j = tau.vertices.index(next(v for v in tau.vertices if v not in facet.vertices))
    return -((-1) ** i) * ((-1) ** j)


def _propagate(tops, cofaces):
    """BFS orientation propagation; returns (signs, None) or (None, odd_cycle)."""
    neighbors = {}
    for f, ts in cofaces.items():
        if len(ts) == 2:
            a, b = ts
            rel = _relation(a, b, f)
            neighbors.setdefault(a, []).append((b, rel))
            neighbors.setdefault(b, []).append((a, rel))
    signs = {}
    parent = {}
    for seed in sorted(tops):
        if seed in signs:
            continue
        signs[seed] = 1
        parent[seed] = None
        queue = [seed]
        while queue:
            cur = queue.pop()
            for nxt, rel in neighbors.get(cur, ()):
                want = rel * signs[cur]
                if nxt not in signs:
                    signs[nxt] = want
                    parent[nxt] = cur
                    queue.append(nxt)
                elif signs[nxt] != want:
                    return None, _odd_cycle(parent, cur, nxt)
    return signs, None


def _odd_cycle(parent, a, b):
    anc_a = []
    x = a
    while x is not None:
        anc_a.append(x)
        x = parent[x]
    aset = set(anc_a)
    path_b = []
    x = b
    while x not in aset:
        path_b.append(x)
        x = parent[x]
    lca = x
    path_a = anc_a[:anc_a.index(lca) + 1]
    return path_a + list(reversed(path_b)) + [a]


def induced_facet_sign(sigma, sign, facet):
    """Sign of the orientation induced on a facet, on its sorted vertices."""
    missing = next(v for v in sigma.vertices if v not in facet.vertices)
    i = sigma.vertices.index(missing)
    return sign * ((-1) ** i)


def orient(X, cone_vertices=frozenset(), report=None, homology_oracle=True):
    """Orient the top simplices so induced orientations on interior facets
    are opposite.

    Simplices containing a cone vertex must carry the negation of the cone
    vertex prepended to the orientation their base inherits; this is
    verified explicitly.  Success is cross-checked against the rank of the
    top relative homology group (one Z per gallery component).
    """
    if report is None:
        report = check_pseudomanifold(X)
    if not report.facet_degrees_ok:
        raise ValidationError("facet degrees exceed 2; orientation undefined")
    cofaces = X.facet_cofaces()
    tops = X.by_dim(X.dim)
    signs, odd_cycle = _propagate(tops, cofaces)

    rank = -1
    H = None
    if homology_oracle:
        rel = report.boundary if len(report.boundary) else None
        H = homology_groups(X, rel=rel)
        rank = H.betti[X.dim]
        expected = report.gallery_components if signs is not None else None
        if signs is not None and rank != expected:
            raise ConstructionError(
                "orientation propagation and homology disagree: rank %d vs %d"
                % (rank, expected))
        if signs is None and rank >= report.gallery_components:
            raise ConstructionError(
                "non-orientable propagation but full-rank top homology")

    if signs is None:
        return OrientResult(success=False, assignment=None,
                            odd_cycle=odd_cycle, top_relative_rank=rank, homology=H)

    for f, ts in cofaces.items():
        if len(ts) == 2:
            a, b = ts
            if induced_facet_sign(a, signs[a], f) != -induced_facet_sign(b, signs[b], f):
                raise ConstructionError("induced orientations not opposite at %s" % (f,))

    cone_vertices = set(cone_vertices)
    if cone_vertices:
        _verify_cone_rule(X, signs, cofaces, cone_vertices)
    return OrientResult(success=True, assignment=OrientationAssignment(signs=signs),
                        odd_cycle=None, top_relative_rank=rank, homology=H)


def _verify_cone_rule(X, signs, cofaces, cone_vertices):
    """Cone simplices carry -(w, base orientation inherited from the body)."""
    for s in X.by_dim(X.dim):
        ws = [v for v in s.vertices if v in cone_vertices]
        if not ws:
            continue
        if len(ws) != 1:
            raise ConstructionError("top simplex %s has several cone vertices" % (s,))
        w = ws[0]
        base = Simplex(tuple(v for v in s.vertices if v != w))
        partners = [t for t in cofaces[base] if t != s]
        body = [t for t in partners
                if not any(v in cone_vertices for v in t.vertices)]
        if not body:
            continue
        inherited = induced_facet_sign(body[0], signs[body[0]], base)
        pos = s.vertices.index(w)
        rule_sign = -(inherited * ((-1) ** pos))
        if signs[s] != rule_sign:
            raise ConstructionError(
                "cone orientation rule violated at %s (got %d want %d)"
                % (s, signs[s], rule_sign))
