"""Pseudomanifold verifiers: purity, facet degrees, boundary, gallery
connectivity, link classification in link dimension <= 2, and orientability.

Galleries, the edge links of a 3-complex, the components of a surface and
the vertex links of a 3-pseudomanifold are all read off one signed fan
forest (``_fans``): a union-find over integer (top simplex, k-subset) slots
whose components around a k-vertex face are the components of its link.
Every join across a facet is looked up in a table (``_joins``) by the
facet's entries in the two tops' facet rows, so the loop does no position
arithmetic.  A surface link's Euler characteristic, fan by fan, takes its
triangles from the forest, its vertices from one charge per (k+1)-face and
its edges from the handshake identity 2E = 3F + B (``_surface_fans``), so
only the boundary facets are walked.

Orientability is read off the same forest with k = 0: a slot's parity
relative to its root is its orientation sign, a join that closes an odd
cycle is the witness of a non-orientable gallery, and the rank of the top
relative homology group is the number of orientable galleries.  Link
recognition is deliberately capped at link dimension 2, where it is
decidable by surface classification.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache, lru_cache
from itertools import combinations, compress
from operator import lt, not_, sub

from .complex_core import Complex, link_of
from .errors import ValidationError


@dataclass(frozen=True)
class LinkClass:
    """Classification of a link complex of dimension <= 2.

    ``kind`` is one of Sphere, Disc, ClosedSurface, SurfaceWithBoundary,
    Circle, Arc, PointPair, Point, Empty, Mixed, NotManifold.  ``genus`` is
    the orientable genus, or the crosscap number for non-orientable
    surfaces.  ``components`` counts connected components; a disconnected
    link is still a manifold when every component is one.  A surface keeps
    its components as ``pieces``, the sorted triples (Euler characteristic,
    boundary circles, orientable).
    """

    kind: str
    dim: int
    components: int
    is_manifold: bool
    orientable: bool | None = None
    genus: int | None = None
    boundary_components: int | None = None
    witness: tuple | None = None
    pieces: tuple | None = None

    def closed(self):
        return self.is_manifold and not self.boundary_components

    def doubled(self):
        """Class of this surface doubled along its whole boundary: each
        component with boundary gives one closed surface of twice its Euler
        characteristic, orientable exactly when the component is, and each
        closed component gives two copies of itself."""
        if self.pieces is None:
            raise ValidationError("only a surface can be doubled, not %s" % self.describe())
        doubles = []
        for chi, nb, orientable in self.pieces:
            doubles += [(2 * chi, 0, orientable)] if nb else [(chi, 0, orientable)] * 2
        return _surface_class(tuple(sorted(doubles)))

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


@dataclass(frozen=True)
class OrientResult:
    success: bool
    assignment: OrientationAssignment | None
    odd_cycle: list | None
    top_relative_rank: int  # rank of H_n(X, boundary; Z), from the gallery forest


@dataclass(frozen=True)
class PseudomanifoldReport:
    dim: int
    is_pure: bool
    facet_degrees_ok: bool
    boundary: Complex
    gallery_connected: bool
    gallery_components: int
    # The gallery forest _fans(X, 0), (roots, parity, odd), kept for orient.
    galleries: tuple = field(compare=False, repr=False)
    facet_witness: tuple | None = None
    isolated_singularities: bool | None = None
    positive_links_ok: bool | None = None
    vertex_links: dict | None = None

    def pseudomanifold_ok(self):
        return self.is_pure and self.facet_degrees_ok


@cache
def _lifts(d, k):
    """The k-subsets of positions in a top simplex of d + 1 vertices, and
    for each entry e of a top's facet row, whose facet drops position
    p = d - e, how the k-subsets of the facet lift into the top: in
    ``combinations`` order, each one's index among the top's k-subsets and
    the parity of p's position in the top without it."""
    subsets = tuple(combinations(range(d + 1), k))
    index = {r: j for j, r in enumerate(subsets)}
    return subsets, tuple(
        tuple((index[tuple(m + (m >= p) for m in r)], (p - sum(m < p for m in r)) % 2)
              for r in combinations(range(d), k))
        for p in range(d, -1, -1))


@cache
def _joins(d, k):
    """The joins of ``_fans`` across a facet held at entries ea and eb of
    two tops' rows: ``_joins(d, k)[ea][eb]`` lists, for each k-subset of the
    facet in ``combinations`` order, its index among the k-subsets of each
    top and whether the join flips parity (the two lifts' parities agree)."""
    lifts = _lifts(d, k)[1]
    return tuple(tuple(tuple((ja, jb, int(pa == pb)) for (ja, pa), (jb, pb) in zip(la, lb))
                       for lb in lifts)
                 for la in lifts)


def _fans(X, k):
    """Fans of top simplices around every k-vertex face of X, from one
    signed union-find.

    Slot w*i + j, w = C(d+1, k), is the j-th k-subset r of the i-th top
    simplex t; it stands for the simplex t - r of lk(r).  Facets are taken
    in id order, and across each facet f its first top by id is joined with
    every other top at each k-subset r of f, so with k = 0 the fans are the
    galleries.  A join is odd (a - r and b - r need opposite signs) when the
    positions of the vertex opposite f in a - r and in b - r add up to an
    even number, and a join that closes an odd cycle makes its fan
    non-orientable.  The slots and the flip of every join across a facet
    are read from ``_joins`` by the facet's entries in the two tops' rows.
    When every facet lies in one or two top simplices, the fans around r
    are the components of its link (Rourke-Sanderson, ch. 2).

    Returns the root of every slot, its parity relative to the root, and
    for each root of a non-orientable fan the two slots of the first join
    that closed an odd cycle in it.
    """
    d = X.dim
    ix = X.incidence()
    top = ix.offsets[d]
    w = len(_lifts(d, k)[0])
    joins = _joins(d, k)
    parent = list(range(w * (len(ix.cells) - top)))
    parity = [0] * len(parent)

    def find(x):
        p = 0
        while parent[x] != x:
            up = parent[x]
            parity[x] ^= parity[up]
            parent[x] = parent[up]
            p ^= parity[x]
            x = parent[x]
        return x, p

    tops, entries, start = ix.cofaces, ix.entries, ix.coface_start
    odd = {}
    for f in ix.ids(d - 1):
        a, end = start[f], start[f + 1]
        if end - a < 2:
            continue
        ia, across = w * (tops[a] - top), joins[entries[a]]
        for b in range(a + 1, end):
            ib = w * (tops[b] - top)
            for ja, jb, flip in across[entries[b]]:
                sa, sb = ia + ja, ib + jb
                # A root, or a child of one, already holds its root and
                # parity (a root's parity is 0), and find would change nothing.
                ra = parent[sa]
                if parent[ra] == ra:
                    qa = parity[sa]
                else:
                    ra, qa = find(sa)
                rb = parent[sb]
                if parent[rb] == rb:
                    qb = parity[sb]
                else:
                    rb, qb = find(sb)
                if ra != rb:
                    parent[rb] = ra
                    parity[rb] = qa ^ qb ^ flip
                elif qa ^ qb != flip:
                    odd.setdefault(ra, (sa, sb))
    for s in range(len(parent)):
        if parent[parent[s]] != parent[s]:
            parent[s], parity[s] = find(s)
    witnesses = {}
    for r, join in odd.items():
        witnesses.setdefault(parent[r], join)
    return parent, parity, witnesses


def _boundary(X):
    """The boundary of X: its (d-1)-simplices in one top simplex, d = dim X,
    and their faces, read off X's facet degrees and closed on X's
    incidence index (``Incidence.closure``), so its layers are X's layers
    filtered."""
    ix = X.incidence()
    facets, up = ix.ids(X.dim - 1), ix.coface_start
    degrees = map(sub, up[facets.start + 1:facets.stop + 1], up[facets.start:facets.stop])
    return ix.closure(compress(facets, map((1).__eq__, degrees)))


def check_pseudomanifold(X):
    """Purity, facet degrees, boundary and gallery connectivity of X.

    All of it is read off X's incidence index: purity and the facet degrees
    off the cover counts, the boundary as the closure of the facets of
    degree one on the same index (``_boundary``), and the galleries off the
    fan forest ``_fans(X, 0)``.  The facet witness is the first facet, in id
    order, of degree 0 or above 2.  A disconnected X is not an error:
    ``gallery_components`` counts its pieces and ``gallery_connected`` is
    false.
    """
    if X.dim < 1:
        raise ValidationError("pseudomanifold check needs dim >= 1")
    d = X.dim
    ix = X.incidence()
    # Pure: every simplex of dimension below d has a coface.
    up, lo, top = ix.coface_start, ix.offsets[d - 1], ix.offsets[d]
    is_pure = all(map(lt, up[:top], up[1:top + 1]))
    degrees = map(sub, up[lo + 1:top + 1], up[lo:top])
    witness = next(compress(X.by_dim(d - 1), map(not_, map({1, 2}.__contains__, degrees))),
                   None)
    galleries = _fans(X, 0)
    components = len(set(galleries[0]))
    return PseudomanifoldReport(
        dim=d,
        is_pure=is_pure,
        facet_degrees_ok=witness is None,
        boundary=_boundary(X),
        gallery_connected=components <= 1,
        gallery_components=components,
        galleries=galleries,
        facet_witness=witness,
    )


# -- link classification -------------------------------------------------------


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
    adj = L.adjacency()
    # The first vertex, in by_dim order, on no edge.
    for v in L.vertices:
        if not adj[v]:
            return LinkClass(kind="NotManifold", dim=1, components=0,
                             is_manifold=False, witness=(v,))
    for v, nbrs in adj.items():
        if len(nbrs) > 2:
            return LinkClass(kind="NotManifold", dim=1, components=0,
                             is_manifold=False, witness=(v,))
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

    ix = L.incidence()
    edges = ix.ids(1)
    for e in edges:
        if not ix.degree(e):
            return not_manifold(ix.cells[e])
    # Slot 3i + p of the k = 1 forest is vertex p of the i-th triangle.
    tris = L.by_dim(2)
    fans = Counter(tris[r // 3][r % 3] for r in set(_fans(L, 1)[0]))
    for v in L.by_dim(0):
        if v[0] not in fans:
            return not_manifold(v)
    for e in edges:
        if ix.degree(e) > 2:
            return not_manifold(ix.cells[e])
    # With every edge in one or two triangles, a vertex link is a single
    # circle or arc exactly when its triangles form one fan.
    for v in L.by_dim(0):
        if fans[v[0]] != 1:
            return not_manifold(v)
    return _surface_fans(L, 0, _boundary(L))[()]


@lru_cache(maxsize=1024)
def _surface_class(pieces):
    """LinkClass of a surface whose components are given as the sorted
    tuple of their (Euler characteristic, boundary circles, orientable),
    by the classification of surfaces (Rourke-Sanderson, ch. 2).  The class
    is a function of that tuple, and a closed complex repeats a few classes
    at thousands of vertices, so recent ones are kept."""
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
                     boundary_components=boundary_total, pieces=pieces)


SPHERE = _surface_class(((2, 0, True),))
DISC = _surface_class(((1, 1, True),))


@cache
def _corners(d, k):
    """For a top simplex of d + 1 vertices, the (k+1)-face at
    entry eg of the row of the facet at entry ef of the top's row: the
    indices among the top's k-subsets of the face's k-subsets, as
    ``_corners(d, k)[ef][eg]``."""
    subsets = _lifts(d, k)[0]
    index = {r: j for j, r in enumerate(subsets)}
    table = []
    for q in range(d, -1, -1):
        facet = [x for x in range(d + 1) if x != q]
        table.append(tuple(
            tuple(index[r] for r in combinations([x for x in facet if x != p], k))
            for p in facet[::-1]))
    return tuple(table)


def _surface_fans(X, k, boundary):
    """Link class of every k-vertex face r of X, for X of dimension k + 2
    with every facet in one or two top simplices and one arc or circle as
    the link of every (k+1)-face; ``boundary`` is the boundary complex of X,
    so its top simplices are the facets of X with one top, in id order.

    Then lk(r) is a surface and its components are the fans of
    ``_fans(X, k)`` around r.  Its triangles, edges and vertices are the
    tops, facets and (k+1)-faces of X that contain r.  A fan's F triangles
    are its slots.  Each of its V vertices is charged once: the link of a
    (k+1)-face g is connected, so the slots of g's tops at a k-subset r of
    g lie in one fan, and g is charged through its first coface's first
    top.  Its E edges follow from the handshake identity 2E = 3F + B, B
    the number of its boundary edges (facets with one top, charged through
    that top), so chi = V - E + F = V - (F + B) / 2 and only the boundary
    facets are walked.  The boundary circles of lk(r) are the fans of
    ``boundary`` around r, each charged through its facet's unique top.
    """
    d = k + 2
    subsets, lifts = _lifts(d, k)
    w = len(subsets)
    corners = _corners(d, k)
    ix = X.incidence()
    top = ix.offsets[d]
    tops, entries, start = ix.cofaces, ix.entries, ix.coface_start
    roots, _, odd = _fans(X, k)
    charge = [0] * len(roots)  # 2V - B, at the root of each fan
    for g in ix.ids(d - 2):
        a = start[g]
        b = start[tops[a]]
        i = w * (tops[b] - top)
        for j in corners[entries[b]][entries[a]]:
            charge[roots[i + j]] += 2
    rim = []  # base slot and lifts of the one top of each boundary facet
    lo = ix.offsets[d - 1]
    for f in compress(ix.ids(d - 1), map((1).__eq__, map(sub, start[lo + 1:top + 1],
                                                          start[lo:top]))):
        a = start[f]
        i, lift = w * (tops[a] - top), lifts[entries[a]]
        for j, _ in lift:
            charge[roots[i + j]] -= 1
        rim.append((i, lift))
    circles = [0] * len(roots)
    if len(boundary):
        wb = len(lifts[0])
        for s in set(_fans(boundary, k)[0]):
            i, lift = rim[s // wb]
            circles[roots[i + lift[s % wb][0]]] += 1
    by_face = {}
    for r, n in Counter(roots).items():
        t = ix.cells[top + r // w]
        by_face.setdefault(tuple(t[p] for p in subsets[r % w]), []).append(
            ((charge[r] - n) // 2, circles[r], r not in odd))
    return {face: _surface_class(tuple(sorted(by_face[face]))) for face in sorted(by_face)}


# -- isolated singularities -----------------------------------------------------


def check_isolated_singularities(X, report=None):
    """Fill the link fields of a pseudomanifold report.

    Positive-dimensional simplices must have the sphere/disc-type links of
    the matching dimension; vertex links must classify as combinatorial
    manifolds (possibly disconnected).  Edge links of a 3-complex are
    decided by the fan forest with k = 2: with every triangle in one or two
    tetrahedra, the link of an edge is one arc (edge on the boundary) or one
    circle (interior edge) exactly when the tetrahedra around it form a
    single fan.  The vertex links of a 3-pseudomanifold then come from the
    forest with k = 1 (``_surface_fans``); 2-complexes and 3-complexes with
    a bad edge link classify one ``link_of`` complex per vertex.

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
    # X is pure, so every edge lies in at least one fan.
    positive_ok = X.dim != 3 or len(set(_fans(X, 2)[0])) == len(X.by_dim(1))
    if X.dim == 3 and positive_ok:
        vertex_links = {v: cls for (v,), cls in _surface_fans(X, 1, report.boundary).items()}
    else:
        vertex_links = {v[0]: classify_link(link_of(X, v)) for v in X.by_dim(0)}
    return replace(
        report,
        positive_links_ok=positive_ok,
        vertex_links=vertex_links,
        isolated_singularities=positive_ok,
    )


# -- orientability -----------------------------------------------------------------


def _witness_cycle(X, parity, a, b):
    """Odd cycle [a, ..., b, a] through the odd join of the a-th and b-th top.

    The path from b to a crosses only interior facets where the parities of
    the gallery forest agree with the sign relation; the spanning joins are
    such facets, so the path exists, and closing it across the odd join
    makes the product of the relations around the cycle -1.
    """
    ix = X.incidence()
    top = ix.offsets[X.dim]
    steps = {}
    for f in ix.ids(X.dim - 1):
        if ix.degree(f) == 2:
            s, t = ix.up(f)
            if (parity[s - top] + parity[t - top] + sum(ix.opposites(f))) % 2:
                steps.setdefault(s, []).append(t)
                steps.setdefault(t, []).append(s)
    a, b = a + top, b + top
    prev, queue = {b: None}, [b]
    for x in queue:
        for y in steps[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    cycle = [a]
    while cycle[-1] != b:
        cycle.append(prev[cycle[-1]])
    return [ix.cells[x] for x in cycle + [a]]


def orient(X, report=None):
    """Orient the top simplices so induced orientations on interior facets
    are opposite.

    The signs are the parities of the gallery forest ``_fans(X, 0)``, which
    ``check_pseudomanifold`` keeps on the report, with the first top of
    each gallery positive; a gallery with an odd join is non-orientable and
    yields an odd cycle of tops.

    On success every interior facet receives opposite induced orientations,
    by construction.  The top t induces signs[t] * (-1)^p on a facet, p the
    position in t of the vertex outside it.  Both tops a, b of an interior
    facet lie in one gallery, so signs[a] * signs[b] is
    (-1)^(parity(a) + parity(b)).  With no odd join, every join of the
    forest satisfies parity(a) xor parity(b) = flip, flip meaning that the
    two opposite positions pa, pb have equal parity: the joining edges set
    the parity so, and every other join would otherwise be odd.  So
    parity(a) + parity(b) + pa + pb is odd, and the two induced signs are
    opposite.  At the base facet of a cone simplex this is the cone rule:
    the simplex carries the negation of the cone vertex prepended to the
    orientation its base inherits.  The tests compare the signs with
    propagation along the galleries as the oracle.

    The rank of H_n(X, boundary; Z) is read off the same forest.  X has no
    (n+1)-simplices, so that group is the group of relative n-cycles.  When
    every facet lies in at most two tops, a relative cycle's coefficients
    at the two tops of an interior facet must cancel there, so along a
    gallery they agree up to the sign of the join: an orientable gallery
    carries one Z (its orientation class) and a gallery with an odd join
    carries none.  The group is free of rank ``gallery_components`` minus
    the number of non-orientable galleries.
    """
    if report is None:
        report = check_pseudomanifold(X)
    if not report.facet_degrees_ok:
        raise ValidationError("facet degrees exceed 2; orientation undefined")
    roots, parity, odd = report.galleries
    rank = report.gallery_components - len(odd)

    if odd:
        a, b = next(iter(odd.values()))
        return OrientResult(success=False, assignment=None,
                            odd_cycle=_witness_cycle(X, parity, a, b),
                            top_relative_rank=rank)

    first = {}
    signs = {t: 1 if first.setdefault(r, p) == p else -1
             for t, r, p in zip(X.by_dim(X.dim), roots, parity)}
    return OrientResult(success=True, assignment=OrientationAssignment(signs=signs),
                        odd_cycle=None, top_relative_rank=rank)
