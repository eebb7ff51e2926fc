"""Abstract simplicial complexes and the purely combinatorial operations.

Vertices are opaque string labels.  Barycenters created by subdivisions get
canonical labels built from the sorted parent vertex tuple, e.g. the
barycenter of ``{a, b}`` is ``(a|b)``.  Because the labels are canonical,
statements like "the boundary of a regular neighborhood of the spine equals
the disjoint union of the second-derived vertex links" can be tested as
plain set equalities instead of isomorphism searches.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from operator import attrgetter

from .errors import ConstructionError, ValidationError


class Simplex:
    """An abstract simplex: a strictly sorted, nonempty tuple of labels."""

    __slots__ = ("vertices", "_hash")

    def __init__(self, vertices):
        vs = tuple(vertices)
        if not vs:
            raise ValidationError("a simplex needs at least one vertex")
        if any(not isinstance(v, str) or not v for v in vs):
            raise ValidationError("vertex labels must be nonempty strings: %r" % (vs,))
        if any(vs[i] >= vs[i + 1] for i in range(len(vs) - 1)):
            svs = tuple(sorted(set(vs)))
            if len(svs) != len(vs):
                raise ValidationError("duplicate vertex in simplex %r" % (vs,))
            vs = svs
        self.vertices = vs
        self._hash = hash(vs)

    @classmethod
    def _of(cls, vs):
        """Trusted constructor, no checks: ``vs`` must be a nonempty
        sub-tuple of an existing simplex's vertices, hence strictly sorted
        and valid by construction."""
        s = object.__new__(cls)
        s.vertices = vs
        s._hash = hash(vs)
        return s

    @property
    def dim(self):
        return len(self.vertices) - 1

    def faces(self):
        """All nonempty proper faces."""
        vs = self.vertices
        of = Simplex._of
        out = []
        for k in range(1, len(vs)):
            out.extend(of(c) for c in itertools.combinations(vs, k))
        return out

    def facets(self):
        vs = self.vertices
        if len(vs) == 1:
            return []
        of = Simplex._of
        return [of(vs[:i] + vs[i + 1:]) for i in range(len(vs))]

    def join(self, labels):
        return Simplex(tuple(sorted(set(self.vertices) | set(labels))))

    def __eq__(self, other):
        return isinstance(other, Simplex) and self.vertices == other.vertices

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return (len(self.vertices), self.vertices) < (len(other.vertices), other.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __len__(self):
        return len(self.vertices)

    def __repr__(self):
        return "Simplex(%s)" % ",".join(self.vertices)


def simplex(*labels):
    """Convenience constructor: ``simplex("a", "b")``."""
    return Simplex(labels)


class _FaceClosed:
    """A set of simplices that is face-closed by construction (the output of
    ``close_under_faces``); ``Complex`` takes it without re-checking."""

    __slots__ = ("simplices",)

    def __init__(self, simplices):
        self.simplices = frozenset(simplices)


class Complex:
    """A finite abstract simplicial complex, closed under taking faces.

    Instances are immutable; every operation in this module is a pure
    function, so complexes can be shared freely.
    """

    __slots__ = ("simplices", "_by_dim", "_vertices", "_maximal", "_incident", "_adj",
                 "_cofaces")

    def __init__(self, simplices):
        if type(simplices) is _FaceClosed:
            ss = simplices.simplices
        else:
            ss = frozenset(simplices)
            for s in ss:
                if not isinstance(s, Simplex):
                    raise ValidationError("not a Simplex: %r" % (s,))
            # Face closure is a structural invariant; check it on every
            # build from an arbitrary set.
            for s in ss:
                for f in s.facets():
                    if f not in ss:
                        raise ValidationError(
                            "complex not closed under faces: %s misses facet %s"
                            % (s, f))
        self.simplices = ss
        self._by_dim = None
        self._vertices = None
        self._maximal = None
        self._incident = None
        self._adj = None
        self._cofaces = None

    # -- basic accessors ---------------------------------------------------

    def _dim_table(self):
        if self._by_dim is None:
            table = {}
            for s in self.simplices:
                table.setdefault(len(s.vertices) - 1, []).append(s)
            # One length per dimension, so sorting by vertices is the
            # Simplex order.
            by_vertices = attrgetter("vertices")
            self._by_dim = {d: tuple(sorted(v, key=by_vertices)) for d, v in table.items()}
        return self._by_dim

    @property
    def dim(self):
        return max(self._dim_table(), default=-1)

    def by_dim(self, k):
        return self._dim_table().get(k, ())

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = tuple(sorted(s.vertices[0] for s in self.by_dim(0)))
        return self._vertices

    @property
    def maximal_simplices(self):
        """The simplices that are no other simplex's facet (the set is
        face-closed, so a proper coface implies a covering one)."""
        if self._maximal is None:
            covered = {s.vertices[:i] + s.vertices[i + 1:]
                       for s in self.simplices for i in range(len(s.vertices))}
            self._maximal = tuple(sorted(
                (s for s in self.simplices if s.vertices not in covered),
                key=lambda s: (len(s.vertices), s.vertices)))
        return self._maximal

    def facet_cofaces(self):
        """Map each (d-1)-simplex to the tuple of d-simplices containing it,
        d = dim.  Built once per complex and shared: callers must not
        mutate the table."""
        if self._cofaces is None:
            d = self.dim
            table = {f: [] for f in self.by_dim(d - 1)}
            of = Simplex._of
            for s in self.by_dim(d) if d >= 1 else ():
                vs = s.vertices
                for i in range(len(vs)):
                    table[of(vs[:i] + vs[i + 1:])].append(s)
            self._cofaces = {f: tuple(tops) for f, tops in table.items()}
        return self._cofaces

    def incident(self, label):
        """All simplices containing the given vertex label."""
        if self._incident is None:
            table = {}
            for s in self.simplices:
                for v in s.vertices:
                    table.setdefault(v, []).append(s)
            self._incident = {v: tuple(ss) for v, ss in table.items()}
        return self._incident.get(label, ())

    def adjacency(self):
        """Vertex adjacency of the 1-skeleton."""
        if self._adj is None:
            adj = {v: set() for v in self.vertices}
            for e in self.by_dim(1):
                a, b = e.vertices
                adj[a].add(b)
                adj[b].add(a)
            self._adj = adj
        return self._adj

    def __contains__(self, s):
        return s in self.simplices

    def __eq__(self, other):
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __hash__(self):
        return hash(self.simplices)

    def __len__(self):
        return len(self.simplices)

    def __repr__(self):
        counts = ",".join(
            "%d:%d" % (d, len(self.by_dim(d))) for d in range(self.dim + 1))
        return "Complex(dim=%d, counts={%s})" % (self.dim, counts)

    # -- derived complexes ---------------------------------------------------

    def is_subcomplex_of(self, other):
        return self.simplices <= other.simplices

    def euler_characteristic(self):
        chi = 0
        for s in self.simplices:
            chi += 1 if s.dim % 2 == 0 else -1
        return chi

    def connected_components(self):
        """Vertex sets of the connected components (simplices connect them)."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for s in self.simplices:
            vs = s.vertices
            r = find(vs[0])
            for v in vs[1:]:
                rv = find(v)
                if rv != r:
                    parent[rv] = r
        groups = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return sorted(groups.values(), key=lambda g: min(g))

    def is_connected(self):
        return len(self.connected_components()) <= 1


EMPTY_COMPLEX = Complex(())


def close_under_faces(simplices):
    """Face closure of an iterable of Simplex."""
    out = set()
    stack = list(simplices)
    for s in stack:
        if not isinstance(s, Simplex):
            raise ValidationError("not a Simplex: %r" % (s,))
    while stack:
        s = stack.pop()
        if s in out:
            continue
        out.add(s)
        stack.extend(s.facets())
    return out


def complex_from_maximal(maximal):
    """The complex of the given simplices and all their faces.  The closure
    holds by construction, so it is not re-checked."""
    return Complex(_FaceClosed(close_under_faces(maximal)))


def full_subcomplex(X, labels):
    """The subcomplex of X on all simplices whose vertices lie in ``labels``."""
    labels = set(labels)
    return Complex(s for s in X.simplices if set(s.vertices) <= labels)


# -- operations -------------------------------------------------------------


def validate_complex(raw):
    """Build a Complex from a list of (maximal) simplices given as label lists.

    Face closure is recomputed; duplicate vertices inside a simplex are an
    error.
    """
    simplices = []
    for entry in raw:
        labels = list(entry)
        if not labels:
            raise ValidationError("empty simplex in input")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate vertex in simplex %r" % (labels,))
        for v in labels:
            if not isinstance(v, str) or not v:
                raise ValidationError("vertex labels must be nonempty strings")
        simplices.append(Simplex(sorted(labels)))
    return complex_from_maximal(simplices)


def link_of(X, s):
    """Link of the simplex ``s`` in ``X``, built from the incidence index:
    the simplices t - s for the simplices t of X properly containing s."""
    if s not in X.simplices:
        raise ValidationError("simplex %s not in complex" % (s,))
    sset = set(s.vertices)
    out = set()
    for t in X.incident(s.vertices[0]):
        tset = set(t.vertices)
        if sset <= tset and len(tset) > len(sset):
            out.add(Simplex._of(tuple(v for v in t.vertices if v not in sset)))
    return complex_from_maximal(out)


def boundary_and_free_faces(X):
    """Free faces (proper faces of exactly one simplex) and their closure."""
    count = {}
    for s in X.simplices:
        for f in s.faces():
            count[f] = count.get(f, 0) + 1
    free = {f for f, c in count.items() if c == 1}
    boundary = complex_from_maximal(free)
    return free, boundary


def is_full_subcomplex(X, K):
    """True iff every X-simplex with all vertices in K lies in K.

    Returns ``(flag, witness)`` where witness is an offending simplex.
    """
    if not K.is_subcomplex_of(X):
        raise ValidationError("K is not a subcomplex of X")
    kverts = set(K.vertices)
    for s in X.simplices:
        if set(s.vertices) <= kverts and s not in K:
            return False, s
    return True, None


def barycenter_label(s):
    """Canonical barycenter label of a positive-dimensional simplex."""
    return "(" + "|".join(s.vertices) + ")"


@dataclass(frozen=True)
class SubdivisionMap:
    """A subdivision together with carrier and barycenter bookkeeping.

    ``carrier`` maps each child simplex to the unique smallest parent
    simplex containing it; ``barycenter_table`` maps each parent simplex to
    the child vertex subdividing it (original labels for dimension 0).
    """

    child: Complex
    carrier: dict = field(compare=False)
    barycenter_table: dict = field(compare=False)

    def carrier_of_label(self, label):
        """Parent simplex whose interior carries the given child vertex."""
        return self.carrier[Simplex((label,))]


def relative_barycentric_subdivision(X, K):
    """Barycentric subdivision of X leaving the subcomplex K untouched.

    Child simplices are ``t ∪ {v_s1, .., v_si}`` with ``t ∈ K`` and
    ``t ⊆ s1 ⊊ .. ⊊ si`` running over simplices outside K.
    """
    if not K.is_subcomplex_of(X):
        raise ValidationError("K is not a subcomplex of X")
    outside = [s for s in X.simplices if s not in K]
    xverts = set(X.vertices)

    bary = {}
    owner = {}
    for s in X.simplices:
        if s.dim == 0:
            bary[s] = s.vertices[0]
        elif s not in K:
            lab = barycenter_label(s)
            if lab in xverts:
                raise ValidationError(
                    "barycenter label %r collides with an existing vertex" % lab)
            if lab in owner:
                a, b = sorted((owner[lab], s))
                raise ValidationError(
                    "barycenter label %r is shared by simplices %s and %s" % (lab, a, b))
            owner[lab] = s
            bary[s] = lab

    # Strict superset lists drive the chain enumeration.
    outside_set = set(outside)
    sups = {s: [] for s in outside}
    for t in outside:
        for f in t.faces():
            if f in outside_set:
                sups[f].append(t)

    chains_from = {}

    def chains(s):
        got = chains_from.get(s)
        if got is None:
            got = [(s,)]
            for t in sups[s]:
                got.extend((s,) + c for c in chains(t))
            chains_from[s] = got
        return got

    children = set(K.simplices)
    carrier = {s: s for s in K.simplices}
    for s in outside:
        kfaces = [()]
        vs = s.vertices
        for k in range(1, len(vs) + 1):
            for comb in itertools.combinations(vs, k):
                if Simplex(comb) in K.simplices:
                    kfaces.append(comb)
        for c in chains(s):
            top = c[-1]
            chain_labels = tuple(bary[t] for t in c)
            for tau in kfaces:
                child = Simplex(tuple(sorted(tau + chain_labels)))
                if child not in children:
                    children.add(child)
                    carrier[child] = top
    child_complex = Complex(children)

    sub = SubdivisionMap(child=child_complex, carrier=carrier, barycenter_table=bary)
    _check_carrier_monotone(sub)
    return sub


def _check_carrier_monotone(sub):
    carrier = sub.carrier
    for s, car in carrier.items():
        if s.dim == 0:
            continue
        cset = set(car.vertices)
        for f in s.facets():
            if not set(carrier[f].vertices) <= cset:
                raise ConstructionError(
                    "carrier of %s not a face of carrier of %s" % (f, s))


def barycentric_subdivision(X):
    """Plain barycentric subdivision; children are chains of parent simplices."""
    return relative_barycentric_subdivision(X, EMPTY_COMPLEX)


def spine(X):
    """Subdivide X and take the full subcomplex on barycenters of
    positive-dimensional simplices.

    Returns ``(B, K)`` where B is the subdivision map and K the spine.
    """
    if X.dim < 1:
        raise ValidationError("spine needs dim >= 1")
    B = barycentric_subdivision(X)
    labels = [B.barycenter_table[s] for s in X.simplices if s.dim >= 1]
    K = full_subcomplex(B.child, labels)
    if K.dim != X.dim - 1:
        raise ConstructionError("spine dimension %d != dim X - 1" % K.dim)
    return B, K


def simplicial_neighborhood(X, K):
    """Union of the closed stars of K's vertices, and its frontier.

    The frontier ``Ndot`` consists of the neighborhood simplices disjoint
    from K.  Requires K full in X.
    """
    ok, witness = is_full_subcomplex(X, K)
    if not ok:
        raise ValidationError("K not full in X (witness %s)" % (witness,))
    kverts = set(K.vertices)
    meeting = []
    for v in kverts:
        meeting.extend(X.incident(v))
    N = complex_from_maximal(meeting)
    Ndot = Complex(s for s in N.simplices if not (set(s.vertices) & kverts))
    return N, Ndot


def regular_neighborhood(X, K):
    """Simplicial neighborhood of K after subdividing X relative to K."""
    ok, witness = is_full_subcomplex(X, K)
    if not ok:
        raise ValidationError("K not full in X (witness %s)" % (witness,))
    sub = relative_barycentric_subdivision(X, K)
    N, Ndot = simplicial_neighborhood(sub.child, K)
    return N, Ndot, sub


@dataclass(frozen=True)
class SpineBoundaryReport:
    """The frontier pieces of the spine's regular neighborhood."""

    vertex_links: dict

    def component_summary(self):
        return {
            v: {
                "simplices": len(link.simplices),
                "components": len(link.connected_components()),
                "euler": link.euler_characteristic(),
            }
            for v, link in self.vertex_links.items()
        }


def frontier_pieces(Y, frontier, vertices):
    """The links in Y of the given vertices, after checking that they are
    pairwise disjoint and that their union is ``frontier``, simplex for
    simplex; a ``ConstructionError`` otherwise."""
    links = {v: link_of(Y, Simplex((v,))) for v in vertices}
    union = set().union(*(link.simplices for link in links.values()))
    disjoint = len(union) == sum(len(link) for link in links.values())
    equal = union == frontier.simplices
    if not (equal and disjoint):
        raise ConstructionError(
            "spine boundary identity failed (equal=%s disjoint=%s)" % (equal, disjoint))
    return links


def spine_boundary_check(X):
    """Verify that the frontier of the spine's regular neighborhood is the
    disjoint union of the second-derived links of the original vertices.

    The neighborhood is taken in sd(X1 rel K), X1 = sd X and K the spine,
    as the collar's is.  There, as in the full sd(sd X) under the same
    labels, the frontier is the set of chains s1 < .. < sk of X1-simplices
    outside K whose bottom s1 has a K-vertex, and the link of an original
    vertex v the set of chains of X1-simplices properly containing {v}.
    """
    if X.dim < 1:
        raise ValidationError("spine_boundary_check needs dim >= 1")
    B1, K = spine(X)
    _, Ndot, sub = regular_neighborhood(B1.child, K)
    return SpineBoundaryReport(vertex_links=frontier_pieces(sub.child, Ndot, X.vertices))


def cone_off(X, L, w):
    """Add a fresh vertex w and cone it over the subcomplex L of X."""
    if not L.is_subcomplex_of(X):
        raise ValidationError("L is not a subcomplex of X")
    if w in set(X.vertices):
        raise ValidationError("cone vertex %r already used" % w)
    new = set(X.simplices)
    new.add(Simplex((w,)))
    for s in L.simplices:
        new.add(s.join((w,)))
    return Complex(new)


def is_flag(X):
    """True iff every clique of the 1-skeleton spans a simplex.

    On failure returns a minimal empty simplex as witness: all its facets
    are present but the simplex itself is missing.
    """
    adj = X.adjacency()
    seen = set()
    # Scan bottom-up: any candidate with all facets present is a minimal
    # empty simplex, and lower-dimensional ones are found first.
    for k in range(1, X.dim + 1):
        for s in X.by_dim(k):
            vs = s.vertices
            common = set(adj[vs[0]])
            for v in vs[1:]:
                common &= adj[v]
            for v in sorted(common):
                cand = tuple(sorted(vs + (v,)))
                if cand in seen:
                    continue
                seen.add(cand)
                cs = Simplex(cand)
                if cs in X.simplices:
                    continue
                if all(f in X.simplices for f in cs.facets()):
                    return False, cs
    return True, None


def greedy_collapse(X, seed=0):
    """Repeatedly remove a free face together with its unique coface.

    The free face chosen at each step is the smallest by ``(dim,
    vertices)``; a nonzero seed perturbs the order with one ``random()``
    draw per simplex in that order (used by property tests and
    ``verify_thickening``).  Deterministic given the seed.

    The simplices are numbered in ``(dim, vertices)`` order and the
    bookkeeping runs on those integers: ``faces[i]`` lists every proper
    face, ``cover[i]`` the covering cofaces and ``count[i]`` the proper
    cofaces still present.
    """
    order = [s for d in range(X.dim + 1) for s in X.by_dim(d)]
    index = {s.vertices: i for i, s in enumerate(order)}
    n = len(order)
    faces = [None] * n
    cover = [[] for _ in range(n)]
    count = [0] * n
    for i, s in enumerate(order):
        vs = s.vertices
        faces[i] = fs = [index[c] for k in range(1, len(vs))
                         for c in itertools.combinations(vs, k)]
        for f in fs:
            count[f] += 1
        for f in fs[len(fs) - len(vs):]:
            cover[f].append(i)

    if seed:
        rng = random.Random(seed)
        key = [rng.random() for _ in range(n)]
    else:
        key = range(n)
    heap = [(key[i], i) for i in range(n) if count[i] == 1]
    heapq.heapify(heap)
    present = [True] * n

    def remove(x):
        present[x] = False
        for f in faces[x]:
            count[f] -= 1
            if count[f] == 1 and present[f]:
                heapq.heappush(heap, (key[f], f))

    while heap:
        _, s = heapq.heappop(heap)
        if not present[s] or count[s] != 1:
            continue
        covers = [u for u in cover[s] if present[u]]
        if len(covers) != 1:
            raise ConstructionError("free face bookkeeping broken at %s" % (order[s],))
        remove(covers[0])
        remove(s)
    return Complex(s for s, kept in zip(order, present) if kept)
