"""Abstract simplicial complexes and the purely combinatorial operations.

Vertices are opaque string labels, and a simplex is the strictly sorted,
nonempty tuple of its labels, so faces are sub-tuples and no wrapper sits
between a simplex and its vertices.  ``simplex()``, ``validate_complex``
and ``Complex`` built from an arbitrary iterable check that shape; what is
derived from checked simplices is built without re-checking.  Within one
dimension tuples sort by labels; across dimensions sorts use
``simplex_key``, dimension first.  ``complex_from_maximal`` closes its
simplices one dimension at a time, from the top down, and each sorted layer
is the complex's ``by_dim`` entry, so a trusted build is never bucketed or
sorted again.  Barycenters created by subdivisions get
canonical labels built from the sorted parent vertex tuple, e.g. the
barycenter of ``{a, b}`` is ``(a|b)``.  Because the labels are canonical,
statements like "the boundary of a regular neighborhood of the spine equals
the disjoint union of the second-derived vertex links" can be tested as
plain set equalities instead of isomorphism searches.

Every exact pass reads one integer incidence index of a complex
(``Complex.incidence()``), built on first use and kept, since a complex is
never edited; it is the flat-array reading of the simplex tree of
Boissonnat and Maria (Algorithmica 2014).  Simplex ids run in ``by_dim``
order.  Each k-simplex has a row of its k + 1 facet ids in
``itertools.combinations`` order, so entry j drops position k - j, and
each simplex the ids of its covers, ascending.  Purity, facet degrees, the
boundary and the fan forests in ``pseudomanifold``, the collapse here and
coreduction and the boundary matrices in ``homology`` read the index;
``facet_cofaces`` and ``facet_opposites`` are label views of it.  The
order of ids and rows fixes the order in which the forests join and
``_pair_off`` pairs, so every artifact is a function of the complex.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field

from .errors import ConstructionError, ValidationError


def simplex_key(s):
    """Sort key of simplices of mixed dimensions: dimension, then labels."""
    return len(s), s


def _is_simplex(s):
    """Whether s is a simplex: a strictly sorted, nonempty tuple of
    nonempty string labels."""
    return (type(s) is tuple and len(s) > 0 and all(isinstance(v, str) and v for v in s)
            and all(a < b for a, b in zip(s, s[1:])))


def simplex(*labels):
    """The simplex on the given labels: ``simplex("b", "a") == ("a", "b")``.

    An empty simplex, a label that is not a nonempty string and a repeated
    label are each a ``ValidationError``."""
    if not labels:
        raise ValidationError("a simplex needs at least one vertex")
    if any(not isinstance(v, str) or not v for v in labels):
        raise ValidationError("vertex labels must be nonempty strings: %r" % (labels,))
    s = tuple(sorted(labels))
    if len(set(s)) != len(s):
        raise ValidationError("duplicate vertex in simplex %r" % (labels,))
    return s


def faces(s):
    """All nonempty proper faces of the simplex s."""
    return [c for k in range(1, len(s)) for c in itertools.combinations(s, k)]


def facets(s):
    """The faces of s of one dimension less; a vertex has none."""
    if len(s) == 1:
        return []
    return [s[:i] + s[i + 1:] for i in range(len(s))]


def join(s, labels):
    """The simplex spanned by s and the given labels."""
    return tuple(sorted(set(s).union(labels)))


class _FaceClosed:
    """A complex that is face-closed by construction, given as its ``by_dim``
    table: each dimension from 0 to the top mapped to the sorted tuple of
    its simplices.  ``Complex`` takes it without re-checking or re-sorting."""

    __slots__ = ("simplices", "by_dim")

    def __init__(self, by_dim):
        self.simplices = frozenset(itertools.chain.from_iterable(by_dim.values()))
        self.by_dim = by_dim


class Complex:
    """A finite abstract simplicial complex, closed under taking faces.

    Instances are immutable; every operation in this module is a pure
    function, so complexes can be shared freely.
    """

    __slots__ = ("simplices", "_by_dim", "_vertices", "_maximal", "_incident", "_adj",
                 "_incidence")

    def __init__(self, simplices):
        by_dim = None
        if type(simplices) is _FaceClosed:
            ss, by_dim = simplices.simplices, simplices.by_dim
        else:
            try:
                ss = frozenset(simplices)
            except TypeError as exc:
                raise ValidationError("not a set of simplices: %s" % exc) from None
            for s in ss:
                if not _is_simplex(s):
                    raise ValidationError(
                        "not a simplex (a sorted tuple of distinct nonempty string "
                        "labels): %r" % (s,))
            # Face closure is a structural invariant; check it on every
            # build from an arbitrary set.
            for s in ss:
                for f in facets(s):
                    if f not in ss:
                        raise ValidationError(
                            "complex not closed under faces: %s misses facet %s"
                            % (s, f))
        self.simplices = ss
        self._by_dim = by_dim
        self._vertices = None
        self._maximal = None
        self._incident = None
        self._adj = None
        self._incidence = None

    # -- basic accessors ---------------------------------------------------

    def _dim_table(self):
        """The ``by_dim`` table; a trusted build brings it, so it is
        bucketed and sorted here only for a complex given as a set."""
        if self._by_dim is None:
            table = {}
            for s in self.simplices:
                table.setdefault(len(s) - 1, []).append(s)
            self._by_dim = {d: tuple(sorted(v)) for d, v in table.items()}
        return self._by_dim

    @property
    def dim(self):
        return max(self._dim_table(), default=-1)

    def by_dim(self, k):
        return self._dim_table().get(k, ())

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = tuple(s[0] for s in self.by_dim(0))
        return self._vertices

    def incidence(self):
        """The integer incidence index (module docstring), built on first
        use and shared by every pass."""
        if self._incidence is None:
            self._incidence = Incidence(self)
        return self._incidence

    @property
    def maximal_simplices(self):
        """The simplices with no coface, in ``simplex_key`` order."""
        if self._maximal is None:
            ix = self.incidence()
            up = ix.coface_start
            self._maximal = tuple(itertools.compress(ix.cells, map(operator.eq, up, up[1:])))
        return self._maximal

    def facet_cofaces(self):
        """Label view of the index: each (d-1)-simplex, d = dim, in
        ``by_dim`` order, mapped to the tuple of d-simplices containing
        it, in ``by_dim`` order."""
        ix = self.incidence()
        cells = ix.cells
        return {cells[f]: tuple(cells[t] for t in ix.up(f)) for f in ix.ids(self.dim - 1)}

    def facet_opposites(self):
        """For the i-th facet f of ``facet_cofaces()``, in its order, the
        positions of the one vertex outside f in each top of
        ``facet_cofaces()[f]``."""
        ix = self.incidence()
        return tuple(tuple(ix.opposites(f)) for f in ix.ids(self.dim - 1))

    def incident(self, label):
        """All simplices containing the given vertex label."""
        if self._incident is None:
            table = {}
            for s in self.simplices:
                for v in s:
                    table.setdefault(v, []).append(s)
            self._incident = {v: tuple(ss) for v, ss in table.items()}
        return self._incident.get(label, ())

    def adjacency(self):
        """Vertex adjacency of the 1-skeleton."""
        if self._adj is None:
            adj = {v: set() for v in self.vertices}
            for a, b in self.by_dim(1):
                adj[a].add(b)
                adj[b].add(a)
            self._adj = adj
        return self._adj

    def __contains__(self, s):
        return s in self.simplices

    def __eq__(self, other):
        return isinstance(other, Complex) and self.simplices == other.simplices

    def __len__(self):
        return len(self.simplices)

    # pytest prints this when an assertion on a Complex fails.
    def __repr__(self):
        counts = ",".join(
            "%d:%d" % (d, len(self.by_dim(d))) for d in range(self.dim + 1))
        return "Complex(dim=%d, counts={%s})" % (self.dim, counts)

    # -- derived complexes ---------------------------------------------------

    def is_subcomplex_of(self, other):
        return self.simplices <= other.simplices

    def euler_characteristic(self):
        return sum((-1) ** k * len(ss) for k, ss in self._dim_table().items())

    def connected_components(self):
        """Vertex sets of the connected components.  Edges alone connect
        them: by face closure a simplex's vertices are joined by its edges."""
        parent = {v: v for v in self.vertices}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.by_dim(1):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra
        groups = {}
        for v in self.vertices:
            groups.setdefault(find(v), set()).add(v)
        return sorted(groups.values(), key=lambda g: min(g))

    def is_connected(self):
        return len(self.connected_components()) <= 1


class Incidence:
    """The integer incidence index of a complex (module docstring).

    ``cells[x]`` is the simplex with id x, and the k-simplices hold the
    ids ``offsets[k]`` up to ``offsets[k + 1]``.  The facet row of x,
    ``facets[facet_start[x]:facet_start[x + 1]]``, lists the ids of its
    facets in ``itertools.combinations`` order, so entry j of a k-simplex's
    row drops its position k - j; ``cofaces[coface_start[x]:coface_start[x
    + 1]]`` lists the ids of the simplices covering x, ascending, and
    ``entries`` at the same places the entry of x in each one's row.  The
    arrays are flat machine integers: no per-simplex object is kept.
    """

    __slots__ = ("cells", "offsets", "facets", "facet_start", "cofaces", "coface_start",
                 "entries")

    def __init__(self, X):
        # owners[p] is the simplex whose row holds facet_ids[p], at entry places[p].
        cells, offsets, index, facet_ids, start, owners, places = [], [0], {}, [], [], [], []
        for k in range(X.dim + 1):
            simplices = X.by_dim(k)
            ids = range(len(cells), len(cells) + len(simplices))
            if k:
                start += range(len(facet_ids), len(facet_ids) + (k + 1) * len(simplices), k + 1)
                facet_ids += map(index.__getitem__, itertools.chain.from_iterable(
                    map(itertools.combinations, simplices, itertools.repeat(k))))
                owners += itertools.chain.from_iterable(map(itertools.repeat, ids,
                                                            itertools.repeat(k + 1)))
                places += itertools.chain.from_iterable(itertools.repeat(range(k + 1),
                                                                         len(simplices)))
            else:
                start += itertools.repeat(0, len(simplices))
            index = dict(zip(simplices, ids))
            cells += simplices
            offsets.append(len(cells))
        start.append(len(facet_ids))
        # A counting sort of the rows by facet id; rows come in id order, so
        # each simplex's covers fill in ascending.
        count = [0] * len(cells)
        for f, c in Counter(facet_ids).items():
            count[f] = c
        up_start = list(itertools.accumulate(count, initial=0))
        fill, up, entries = up_start[:-1], [0] * len(facet_ids), bytearray(len(facet_ids))
        for f, x, j in zip(facet_ids, owners, places):
            up[fill[f]], entries[fill[f]] = x, j
            fill[f] += 1
        self.cells, self.offsets = tuple(cells), tuple(offsets)
        self.facets, self.facet_start = array("i", facet_ids), array("i", start)
        self.cofaces, self.coface_start = array("i", up), array("i", up_start)
        self.entries = entries

    def ids(self, k):
        """The ids of the k-simplices."""
        if not 0 <= k < len(self.offsets) - 1:
            return range(0)
        return range(self.offsets[k], self.offsets[k + 1])

    def down(self, x):
        """The facet row of x."""
        return self.facets[self.facet_start[x]:self.facet_start[x + 1]]

    def up(self, x):
        """The ids of the simplices covering x, ascending."""
        return self.cofaces[self.coface_start[x]:self.coface_start[x + 1]]

    def degree(self, x):
        """The number of simplices covering x."""
        return self.coface_start[x + 1] - self.coface_start[x]

    def opposites(self, f):
        """The position of the one vertex outside the facet f in each top
        of ``up(f)``: entry j of a d-simplex's row drops position d - j."""
        d = len(self.cells[f])
        return [d - j for j in self.entries[self.coface_start[f]:self.coface_start[f + 1]]]

    def closure(self, ids):
        """The subcomplex of the simplices with the given ids and all their
        faces.  It is closed from the top down as ``complex_from_maximal``
        closes, but on ids: layer k is the given k-simplices and the facet
        rows of layer k + 1, sorted as integers.  Ids run in ``by_dim``
        order, so each layer is the parent's layer filtered, already sorted
        and face-closed, and no label is compared."""
        cells, offsets = self.cells, self.offsets
        given = sorted(set(ids))
        by_dim, below = {}, set()
        for k in range(len(offsets) - 2, -1, -1):
            below.update(given[bisect_left(given, offsets[k]):bisect_left(given, offsets[k + 1])])
            if below:
                layer = sorted(below)
                by_dim[k] = tuple(map(cells.__getitem__, layer))
                below = set(itertools.chain.from_iterable(map(self.down, layer))) if k else ()
        return Complex(_FaceClosed(by_dim))


EMPTY_COMPLEX = Complex(())


def complex_from_maximal(maximal):
    """The complex of the given simplices and all their faces.

    It is closed one dimension at a time, from the top down: the k-simplices
    are the given ones of dimension k and the facets of the (k+1)-simplices.
    Each layer is sorted once, which is its ``by_dim`` entry, and its facets
    are its k-subsets, generated in C by ``itertools.combinations``.  The
    closure holds by construction, so it is not re-checked; nor is the shape
    of the given simplices, which callers build from checked ones."""
    given = {}
    for s in maximal:
        given.setdefault(len(s) - 1, set()).add(s)
    by_dim, below = {}, set()
    for k in range(max(given, default=-1), -1, -1):
        below.update(given.get(k, ()))
        layer = by_dim[k] = tuple(sorted(below))
        below = set(itertools.chain.from_iterable(
            map(itertools.combinations, layer, itertools.repeat(k))))
    return Complex(_FaceClosed(by_dim))


def full_subcomplex(X, labels):
    """The subcomplex of X on all simplices whose vertices lie in ``labels``."""
    labels = set(labels)
    return Complex(s for s in X.simplices if labels.issuperset(s))


# -- operations -------------------------------------------------------------


def validate_complex(raw):
    """Build a Complex from a list of (maximal) simplices given as label lists.

    Face closure is recomputed; each entry is checked by ``simplex()``.  A
    string is no list: ``"ab"`` is not the edge {a, b}.
    """
    if not isinstance(raw, (list, tuple)):
        raise ValidationError("a complex is a list of simplices, not %r" % (raw,))
    simplices = []
    for entry in raw:
        if not isinstance(entry, (list, tuple)):
            raise ValidationError("simplex %r is not a list of vertex labels" % (entry,))
        simplices.append(simplex(*entry))
    return complex_from_maximal(simplices)


def link_of(X, s):
    """Link of the simplex ``s`` in ``X``: the simplices t - s for the
    simplices t of X properly containing s, found among the simplices on
    s's first vertex in the label table ``Complex.incident``."""
    if s not in X.simplices:
        raise ValidationError("simplex %s not in complex" % (s,))
    sset = set(s)
    out = set()
    for t in X.incident(s[0]):
        if len(t) > len(s) and sset.issubset(t):
            out.add(tuple(v for v in t if v not in sset))
    return complex_from_maximal(out)


def boundary_and_free_faces(X):
    """Free faces (proper faces of exactly one simplex) and their closure.
    A free face has one cover, and no simplex covers that: it would hold
    the face as well."""
    ix = X.incidence()
    free = {s for x, s in enumerate(ix.cells)
            if ix.degree(x) == 1 and not ix.degree(ix.up(x)[0])}
    return free, complex_from_maximal(free)


def is_full_subcomplex(X, K):
    """True iff every X-simplex with all vertices in K lies in K.

    Returns ``(flag, witness)`` where witness is the first offending
    simplex in ``by_dim`` order.
    """
    if not K.is_subcomplex_of(X):
        raise ValidationError("K is not a subcomplex of X")
    kverts = set(K.vertices)
    for k in range(X.dim + 1):
        for s in X.by_dim(k):
            if kverts.issuperset(s) and s not in K:
                return False, s
    return True, None


def barycenter_label(s):
    """Canonical barycenter label of a positive-dimensional simplex."""
    return "(" + "|".join(s) + ")"


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
        return self.carrier[(label,)]


def relative_barycentric_subdivision(X, K):
    """Barycentric subdivision of X leaving the subcomplex K untouched.

    Child simplices are ``t ∪ {v_s1, .., v_si}`` with ``t ∈ K`` and
    ``t ⊆ s1 ⊊ .. ⊊ si`` running over simplices outside K.

    Carriers are monotone by construction.  A child's carrier is si, or t
    itself when the chain is empty.  A facet drops a vertex of t, which
    keeps carrier si, or one barycenter v_sj, which keeps si for j < i and
    leaves s(i-1), or t when i = 1, for j = i.  Each is a face of si.  The
    tests keep the monotonicity check as the oracle.
    """
    if not K.is_subcomplex_of(X):
        raise ValidationError("K is not a subcomplex of X")
    outside = [s for s in X.simplices if s not in K]
    xverts = set(X.vertices)

    # Scanned in by_dim order, so the first clash in simplex_key order is
    # reported, and the owner of a shared label comes first.
    bary = {(v,): v for v in X.vertices}
    owner = {}
    for k in range(1, X.dim + 1):
        for s in X.by_dim(k):
            if s in K:
                continue
            lab = barycenter_label(s)
            if lab in xverts:
                raise ValidationError(
                    "barycenter label %r collides with an existing vertex" % lab)
            if lab in owner:
                raise ValidationError("barycenter label %r is shared by simplices %s and %s"
                                      % (lab, owner[lab], s))
            owner[lab] = s
            bary[s] = lab

    # Strict superset lists drive the chain enumeration.
    outside_set = set(outside)
    sups = {s: [] for s in outside}
    for t in outside:
        for f in faces(t):
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
        for k in range(1, len(s) + 1):
            for comb in itertools.combinations(s, k):
                if comb in K.simplices:
                    kfaces.append(comb)
        for c in chains(s):
            top = c[-1]
            chain_labels = tuple(bary[t] for t in c)
            for tau in kfaces:
                child = tuple(sorted(tau + chain_labels))
                if child not in children:
                    children.add(child)
                    carrier[child] = top
    child_complex = Complex(children)

    return SubdivisionMap(child=child_complex, carrier=carrier, barycenter_table=bary)


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
    labels = [B.barycenter_table[s] for s in X.simplices if len(s) > 1]
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
    Ndot = Complex(s for s in N.simplices if kverts.isdisjoint(s))
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
    links = {v: link_of(Y, (v,)) for v in vertices}
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
    apex = simplex(w)
    if w in set(X.vertices):
        raise ValidationError("cone vertex %r already used" % w)
    new = set(X.simplices)
    new.add(apex)
    for s in L.simplices:
        new.add(join(s, (w,)))
    return Complex(new)


def is_flag(X):
    """True iff every clique of the 1-skeleton spans a simplex.

    On failure returns a minimal empty simplex as witness: all its facets
    are present but the simplex itself is missing.  It is the first s + v,
    in dimension from the bottom up, s in ``by_dim`` order and v in label
    order among the common neighbours of s's vertices, that X misses.

    The cliques are counted, not listed.  Say every clique of at most
    k + 1 vertices spans a simplex, as every one of two vertices does.
    Then every facet of a (k+2)-clique is a k-simplex, and the pairs (s, v)
    of a k-simplex s and a common neighbour v of its vertices count each
    (k+2)-clique once per facet: k + 2 times.  The (k+1)-simplices of X
    are among these cliques, so all of them span simplices exactly when
    the common neighbourhoods of the k-simplices add up to k + 2 times the
    number of (k+1)-simplices.  Dimension by dimension from k = 1 that
    decides flagness, and below the first failing k every s + v missing
    from X has its facets present: it is a witness.  Only at that k are the
    candidates listed.
    """
    adj = X.adjacency()
    for k in range(1, X.dim + 1):
        layer = X.by_dim(k)
        columns = [list(map(adj.__getitem__, column)) for column in zip(*layer)]
        if sum(map(len, map(set.intersection, *columns))) != (k + 2) * len(X.by_dim(k + 1)):
            for s, vs in zip(layer, map(set.intersection, *columns)):
                for v in sorted(vs):
                    candidate = join(s, (v,))
                    if candidate not in X.simplices:
                        return False, candidate
    return True, None


def dsatur_colouring(X):
    """A proper colouring of the 1-skeleton of X by DSATUR (Brélaz, CACM
    1979): each vertex -> a colour 0, 1, .., with adjacent vertices apart.

    The next vertex coloured is the uncoloured one seen by the most
    distinct colours among its neighbours, then of highest degree, then of
    least label; it takes the least colour none of its neighbours has.  A
    heap holds (-saturation, -degree, label) and an entry is pushed each
    time a saturation grows; an entry that is coloured or outdated when it
    comes up is dropped.  So the colouring depends only on X, and it takes
    O((V + E) log V).  DSATUR is exact on bipartite graphs.
    """
    adj = X.adjacency()
    seen = {v: set() for v in X.vertices}
    heap = [(0, -len(adj[v]), v) for v in X.vertices]
    heapq.heapify(heap)
    colour = {}
    while heap:
        saturation, degree, v = heapq.heappop(heap)
        if v in colour or -saturation != len(seen[v]):
            continue
        c = 0
        while c in seen[v]:
            c += 1
        colour[v] = c
        for u in adj[v]:
            if u not in colour and c not in seen[u]:
                seen[u].add(c)
                heapq.heappush(heap, (-len(seen[u]), -len(adj[u]), u))
    return colour


@dataclass(frozen=True)
class Collapse:
    """A sequence of elementary collapses of a complex and what it leaves.

    ``pairs`` lists each removed (free face, unique proper coface) pair of
    simplices in the order removed; ``remainder`` is what survives.
    """

    remainder: Complex
    pairs: tuple


def _pair_off(partners, others, dead=(), blocked=frozenset(), first=None):
    """Pair ids first in, first out on the incidence index.

    ``partners`` and ``others`` are ``(start, ids)`` pairs of flat arrays,
    the lists of ``Incidence`` read in opposite directions: x may pair with
    the ids in ``partners`` row x, and removing x takes one live partner
    from each id in ``others`` row x.  The ``dead`` ids are removed before
    anything else and queue nothing.  An id outside ``blocked`` whose live
    partner count is 1, at the start or when it drops there, is queued; when
    it comes up still live with one partner it is paired with that partner,
    and both are removed, the partner first.  ``first``, if given, is
    removed alone before the loop.  Counts only fall, so no live id outside
    ``blocked`` is left with one partner.  Returns the live flags and the
    ``(id, partner)`` pairs in the order removed.  Removals are written out
    in the loop, not called: a call per removal took about a quarter of
    the loop's time on the octahedral closure.
    """
    p_start, p_ids = partners
    o_start, o_ids = others
    alive = [True] * (len(p_start) - 1)
    count = list(map(operator.sub, p_start[1:], p_start[:-1]))
    for x in dead:
        alive[x] = False
        for y in o_ids[o_start[x]:o_start[x + 1]]:
            count[y] -= 1
    queue = [x for x, n in enumerate(count) if n == 1 and alive[x] and x not in blocked]
    if first is not None:
        alive[first] = False
        for y in o_ids[o_start[first]:o_start[first + 1]]:
            count[y] -= 1
            if count[y] == 1 and alive[y] and y not in blocked:
                queue.append(y)
    pairs = []
    for b in queue:
        if alive[b] and count[b] == 1:
            for a in p_ids[p_start[b]:p_start[b + 1]]:
                if alive[a]:
                    break
            pairs.append((b, a))
            for x in (a, b):
                alive[x] = False
                for y in o_ids[o_start[x]:o_start[x + 1]]:
                    count[y] -= 1
                    if count[y] == 1 and alive[y] and y not in blocked:
                        queue.append(y)
    return alive, pairs


def greedy_collapse(X, keep=None):
    """Repeatedly remove a free face together with its unique coface.

    ``_pair_off`` pairs each simplex with its covers on X's incidence
    index, so the free faces are taken first in, first out from id order
    and the collapse is a function of X and ``keep``.  No simplex of the
    subcomplex ``keep`` is ever taken as a free face; since ``keep`` is
    closed under faces, none is removed as a coface either, so the
    remainder contains ``keep``.  The collapse stops when every free face
    left lies in ``keep``.

    A simplex s with one cover w left is free: were w covered by some u,
    the facet of u without w's extra vertex would be a second cover of s.
    So a simplex becomes free exactly when its count of covers drops to 1,
    which is when ``_pair_off`` queues it.  What is present stays
    face-closed, so the facets of a removed pair are present.  A count
    dropping to 0 frees nothing: each facet h of that simplex f still has
    two present covers, f and the other facet of the removed cover that
    contains h.  So the remainder is taken as a trusted build: X's
    ``by_dim`` layers, filtered to the live ids.
    """
    if keep is not None and not keep.is_subcomplex_of(X):
        raise ValidationError("the kept subcomplex is not contained in the complex")
    ix = X.incidence()
    cells = ix.cells
    kept = keep.simplices if keep is not None else ()
    alive, pairs = _pair_off((ix.coface_start, ix.cofaces), (ix.facet_start, ix.facets),
                             blocked={i for i, s in enumerate(cells) if s in kept})
    layers = (tuple(itertools.compress(cells[a:b], alive[a:b]))
              for a, b in zip(ix.offsets, ix.offsets[1:]))
    by_dim = {k: layer for k, layer in enumerate(layers) if layer}
    return Collapse(remainder=Complex(_FaceClosed(by_dim)),
                    pairs=tuple((cells[s], cells[c]) for s, c in pairs))
