"""Delzant polytopes: validation, face lattice, primitive sets, H2 lattice.

A polytope is given by facet data (outward primitive integer normal, rational
support value): Delta = {u : <eta_i, u> <= support_i}.  All derived data is
exact.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm

from . import linalg
from .errors import (
    DegenerateEdge,
    NonIntegralCoefficient,
    NonPositiveEnergy,
    NonPrimitiveNormal,
    NotAnEdge,
    NotFullDimensional,
    NotSimple,
    NotSmooth,
    RedundantFacet,
    Unbounded,
)


@dataclass(frozen=True)
class Facet:
    normal: tuple  # outward primitive integer normal
    support: Fraction
    label: str = ""

    def __post_init__(self):
        if linalg.vec_content(self.normal) != 1:
            raise NonPrimitiveNormal(f"normal {self.normal} is not primitive")
        object.__setattr__(self, "support", Fraction(self.support))


@dataclass(frozen=True)
class Face:
    """A face, identified by the exact set of facets containing it."""
    facets: frozenset
    dim: int
    vertex_ids: tuple  # indices into polytope.vertices


@dataclass
class DelzantPolytope:
    n: int
    facets: tuple
    vertices: tuple  # ((point, facet frozenset), ...) sorted lex by point
    faces: dict = field(repr=False)  # frozenset -> Face
    name: str = ""
    # data derived on first use: vertex id -> dual basis, edge key -> edge
    # class, face key -> (edge, class) pairs of the edges meeting the face,
    # the integer vertices and the centroid
    _duals: dict = field(default_factory=dict, repr=False, compare=False)
    _edge_classes: dict = field(default_factory=dict, repr=False,
                                compare=False)
    _face_edges: dict = field(default_factory=dict, repr=False, compare=False)
    _scaled: tuple = field(default=None, repr=False, compare=False)
    _centroid: tuple = field(default=None, repr=False, compare=False)

    # -- basic queries ------------------------------------------------------

    @property
    def num_facets(self):
        return len(self.facets)

    def normal(self, i):
        return self.facets[i].normal

    def support(self, i):
        return self.facets[i].support

    def vertex_point(self, vid):
        return self.vertices[vid][0]

    def vertex_facets(self, vid):
        return self.vertices[vid][1]

    def scaled_vertices(self):
        """(D, points): the lcm D of the vertex coordinates' denominators
        and every vertex times D as an integer tuple, in vertex order, so
        that <xi, vertex> is Fraction(<xi, point>, D).  Computed once per
        polytope."""
        if self._scaled is None:
            scale = lcm(*(x.denominator for point, _ in self.vertices
                          for x in point))
            self._scaled = (scale, tuple(
                tuple(x.numerator * (scale // x.denominator) for x in point)
                for point, _ in self.vertices))
        return self._scaled

    def faces_of_dim(self, d):
        return [f for f in self.faces.values() if f.dim == d]

    def face(self, facet_set):
        return self.faces[frozenset(facet_set)]

    def vertex_normal_columns(self, vid):
        return [self.normal(i) for i in sorted(self.vertex_facets(vid))]

    def dual_basis(self, vid):
        """((facet index, functional), ...) at vertex vid, by increasing
        facet index: each integer functional is 1 on its facet's normal and
        0 on the other normals there.  Computed once per vertex."""
        basis = self._duals.get(vid)
        if basis is None:
            basis = self._duals[vid] = tuple(zip(
                sorted(self.vertex_facets(vid)),
                linalg.unimodular_dual(self.vertex_normal_columns(vid))))
        return basis

    def coordinates(self, vid, v):
        """Coefficients of the integer vector v in the unimodular normal
        basis at vertex vid, keyed by facet index in increasing order."""
        return {i: linalg.vec_dot(row, v) for i, row in self.dual_basis(vid)}

    def lex_least_vertex_of(self, face):
        return min(face.vertex_ids, key=lambda v: self.vertex_point(v))


def _check_edges_bounded(vlist, normals, n):
    """Raise Unbounded unless every edge at every vertex ends at a second
    vertex; for a nonempty region whose normals span, that is boundedness.

    The edges at a vertex lie in the kernels of (n-1)-subsets of its
    facets.  At a vertex on exactly n facets each subset is an edge; on
    more facets a subset is one only when its kernel is a line with d or -d
    feasible for every facet at the vertex.  An edge has a second vertex iff
    at least two vertices lie on its n-1 facets.
    """
    on_facets = Counter(sub for _, active in vlist
                        for sub in combinations(sorted(active), n - 1))
    for point, active in vlist:
        for sub in combinations(sorted(active), n - 1):
            if len(active) > n:
                kernel = linalg.kernel_basis_int(
                    [normals[i] for i in sub]) if sub else [(1,)]
                if len(kernel) != 1:
                    continue
                dots = [linalg.vec_dot(normals[i], kernel[0])
                        for i in active]
                if min(dots) < 0 < max(dots):
                    continue
            if on_facets[sub] < 2:
                raise Unbounded(
                    f"the edge of vertex ({', '.join(map(str, point))}) "
                    f"along facets {list(sub)} has no second vertex")


def validate_delzant(facet_specs, name=""):
    """Build a DelzantPolytope from raw facet data.

    `facet_specs` is an iterable of (normal, support) or (normal, support,
    label) tuples, or Facet instances.  Raises a structured PolytopeError on
    invalid input.
    """
    facets = []
    for spec in facet_specs:
        if isinstance(spec, Facet):
            facets.append(spec)
        else:  # Facet makes the support a Fraction
            facets.append(Facet(tuple(int(x) for x in spec[0]), *spec[1:]))
    if not facets:
        raise NotFullDimensional("no facets given")
    n = len(facets[0].normal)
    if n < 1:
        raise NotFullDimensional("dimension must be at least 1")
    if any(len(f.normal) != n for f in facets):
        raise NotFullDimensional("normals of mixed dimension")
    normals = [f.normal for f in facets]
    scale = lcm(*(f.support.denominator for f in facets))
    bounds = [f.support.numerator * (scale // f.support.denominator)
              for f in facets]  # scale * support, in integers

    # candidate vertices: n-subsets with invertible normal matrix M.  With
    # d = |det M|, y = +-adj(M) * bounds_S is d * scale * vertex, so
    # feasibility and the active facets are integer tests of <eta_j, y>
    # against d * bounds_j.  A vertex is keyed by its active facets, which
    # pin it down, and keeps d for the smoothness test.
    found = {}
    for subset in combinations(range(len(facets)), n):
        d, adj_b = linalg.adjugate_times([normals[i] for i in subset],
                                         [[bounds[i]] for i in subset])
        if d == 0:
            continue
        y = [row[0] if d > 0 else -row[0] for row in adj_b]
        d = abs(d)
        dots = [linalg.vec_dot(normal, y) for normal in normals]
        if any(dot > d * b for dot, b in zip(dots, bounds)):
            continue
        active = frozenset(j for j, (dot, b) in enumerate(zip(dots, bounds))
                           if dot == d * b)
        if active not in found:
            found[active] = (tuple(Fraction(c, d * scale) for c in y), d)
    if not found:
        raise Unbounded("no vertices; the region is empty or unbounded")

    vlist = sorted((point, active) for active, (point, _) in found.items())
    _check_edges_bounded(vlist, normals, n)
    # the region is the hull of its vertices, so it lies in a hyperplane
    # iff one facet holds every vertex
    if frozenset.intersection(*(active for _, active in vlist)):
        raise NotFullDimensional("vertices span a proper affine subspace")

    for point, active in vlist:
        if len(active) > n:
            raise NotSimple(
                f"vertex ({', '.join(map(str, point))}) lies on "
                f"{len(active)} facets {sorted(active)}")
        d = found[active][1]  # the determinant of the n facets at the vertex
        if d != 1:
            raise NotSmooth(
                f"vertex ({', '.join(map(str, point))}) on facets "
                f"{sorted(active)} has |det| = {d}")

    touched = frozenset().union(*(active for _, active in vlist))
    missing = set(range(len(facets))) - touched
    if missing:
        raise RedundantFacet(
            f"facets {sorted(missing)} support no vertex of the region")

    poly = DelzantPolytope(n=n, facets=tuple(facets), vertices=tuple(vlist),
                           faces={}, name=name)
    poly.faces = _build_faces(poly)
    return poly


def _build_faces(poly):
    """Every nonempty intersection of facets, canonically keyed by the full
    facet set containing it.  Includes Delta itself (empty facet set).

    The faces of a simple polytope through a vertex are the subsets of its
    n facets, so one pass over the vertices lists every face's vertices."""
    n = poly.n
    members = {frozenset(): list(range(len(poly.vertices)))}
    for vid, (point, vf) in enumerate(poly.vertices):
        if len(vf) != n:
            raise NotSimple(
                f"vertex ({', '.join(map(str, point))}) lies on {len(vf)} "
                f"facets {sorted(vf)}")
        for size in range(1, n + 1):
            for sub in combinations(sorted(vf), size):
                members.setdefault(frozenset(sub), []).append(vid)
    return {s: Face(facets=s, dim=n - len(s), vertex_ids=tuple(vids))
            for s, vids in members.items()}


# ---------------------------------------------------------------- dual cones

def dual_cone_face(poly, v):
    """The unique face whose dual cone contains integer vector v, plus the
    coefficient map over the facets of that face.

    Locates a vertex cone containing v, solves in the vertex's unimodular
    normal basis, and drops zero coefficients.
    """
    v = tuple(int(x) for x in v)
    for vid in range(len(poly.vertices)):
        coeffs = poly.coordinates(vid, v)
        if all(c >= 0 for c in coeffs.values()):
            support = {i: c for i, c in coeffs.items() if c > 0}
            return poly.face(frozenset(support)), support
    raise Unbounded(f"the normal fan does not cover {v}, so it is not "
                    "complete")


# ------------------------------------------------------------------ H2 data

@dataclass(frozen=True)
class H2Class:
    pairings: tuple  # integer pairing with each facet class

    def omega(self, poly):
        return sum(a * poly.support(i) for i, a in enumerate(self.pairings)
                   if a)

    def c1(self):
        return sum(self.pairings)


def edge_class(poly, edge):
    """Spherical class of the sphere over an edge: pairing 1 with the two
    facets cutting its endpoints, solved through a vertex basis elsewhere.
    Computed once per edge."""
    cls = poly._edge_classes.get(edge.facets)
    if cls is not None:
        return cls
    if edge.dim != 1:
        raise NotAnEdge(f"face {sorted(edge.facets)} has dimension "
                        f"{edge.dim}, not 1")
    va, vb = edge.vertex_ids
    (fa,) = poly.vertex_facets(va) - edge.facets
    (fb,) = poly.vertex_facets(vb) - edge.facets
    by_facet = poly.coordinates(va, poly.normal(fb))
    if fa == fb or by_facet.get(fa) != -1:
        raise DegenerateEdge(
            f"at the edge {sorted(edge.facets)}, the normal of facet {fb} "
            f"has coordinate {by_facet.get(fa)} on facet {fa}, not -1")
    pairings = [0] * poly.num_facets
    pairings[fa] = 1
    pairings[fb] = 1
    for i in edge.facets:
        pairings[i] = -by_facet[i]
    cls = poly._edge_classes[edge.facets] = H2Class(tuple(pairings))
    return cls


def h2_lattice(poly):
    """Integer basis of {a : sum a_i eta_i = 0} as H2Class objects."""
    n, N = poly.n, poly.num_facets
    m = [[poly.normal(i)[j] for i in range(N)] for j in range(n)]
    return [H2Class(b) for b in linalg.kernel_basis_int(m)]


@dataclass(frozen=True)
class PrimitiveSet:
    indices: tuple  # sorted facet indices I
    j_indices: tuple  # sorted facet indices J (disjoint from I)
    coeffs: tuple  # positive integers c_j, aligned with j_indices
    beta: H2Class
    energy: Fraction  # beta.omega(polytope), positive

    @property
    def key(self):
        return frozenset(self.indices)


def beta_class(poly, indices, j_indices, coeffs):
    """The spherical class of the relation sum_I eta = sum_J c_j eta, and
    its energy."""
    pairings = [0] * poly.num_facets
    for i in indices:
        pairings[i] = 1
    for j, c in zip(j_indices, coeffs):
        pairings[j] = -c
    beta = H2Class(tuple(pairings))
    energy = beta.omega(poly)
    if energy <= 0:
        raise NonPositiveEnergy(
            f"relation class of I={list(indices)} has energy {energy} <= 0")
    return beta, energy


def primitive_sets(poly):
    """All primitive facet subsets with their dual-cone data, by size.

    Every proper subset of a primitive collection spans a cone of the
    simplicial fan, which has at most n rays, so no primitive collection
    has more than n + 1 elements (Batyrev)."""
    N = poly.num_facets
    results = []
    primitive_found = set()
    for size in range(2, min(N, poly.n + 1) + 1):
        for sub in combinations(range(N), size):
            fs = frozenset(sub)
            if fs in poly.faces:  # a cone of the normal fan
                continue
            if any(p <= fs for p in primitive_found):
                continue  # a proper subset already fails to intersect
            if all(frozenset(s) in poly.faces
                   for s in combinations(sub, size - 1)):
                primitive_found.add(fs)
                v = tuple(sum(poly.normal(i)[k] for i in sub)
                          for k in range(poly.n))
                _, support = dual_cone_face(poly, v)
                j_sorted = tuple(sorted(support))
                coeffs = tuple(support[j] for j in j_sorted)
                if any(Fraction(c).denominator != 1 or c <= 0 for c in coeffs):
                    raise NonIntegralCoefficient(
                        f"dual-cone coefficients for I={sub} are {coeffs}")
                if fs & frozenset(j_sorted):
                    raise NonIntegralCoefficient(
                        f"I={sub} meets its complement set {j_sorted}")
                beta, energy = beta_class(poly, sub, j_sorted, coeffs)
                results.append(PrimitiveSet(indices=tuple(sub),
                                            j_indices=j_sorted,
                                            coeffs=coeffs, beta=beta,
                                            energy=energy))
    results.sort(key=lambda p: (len(p.indices), p.indices))
    return results


# ----------------------------------------------------------------- centroid

def _simplices_of_face(poly, face):
    """Recursive triangulation from the lex-least vertex of each face.

    Returns simplices as tuples of vertex ids; each has dim(face)+1 entries.
    The facets of a face F are the faces keyed F.facets | {i}.
    """
    if face.dim == 0:
        return [(face.vertex_ids[0],)]
    anchor = poly.lex_least_vertex_of(face)
    simplices = []
    for i in range(poly.num_facets):
        sub = poly.faces.get(face.facets | {i})
        if sub is None or sub.dim != face.dim - 1 or anchor in sub.vertex_ids:
            continue
        for s in _simplices_of_face(poly, sub):
            simplices.append((anchor,) + s)
    return simplices


def centroid(poly):
    """Exact centroid of Delta under Lebesgue measure, computed once per
    polytope."""
    if poly._centroid is None:
        poly._centroid = _centroid(poly)
    return poly._centroid


def _centroid(poly):
    """Volume-weighted mean of the simplex centroids, in integers: on the
    scaled vertices, a simplex's volume is D^n times, and its vertex sum
    D * (n + 1) times, the true one (up to the common factor n!)."""
    scale, points = poly.scaled_vertices()
    total_vol = 0
    weighted = [0] * poly.n
    for simplex in _simplices_of_face(poly, poly.face(frozenset())):
        base = points[simplex[0]]
        vol = abs(linalg.det([linalg.vec_sub(points[v], base)
                              for v in simplex[1:]]))
        total_vol += vol
        for k in range(poly.n):
            weighted[k] += vol * sum(points[v][k] for v in simplex)
    if total_vol == 0:
        raise NotFullDimensional(
            f"the triangulation of {poly.name or 'the polytope'} has volume 0")
    return tuple(Fraction(w, total_vol * scale * (poly.n + 1))
                 for w in weighted)


def normalize(poly):
    """Translate supports so the centroid moves to the origin."""
    c = centroid(poly)
    if all(x == 0 for x in c):
        return poly
    specs = [(f.normal, f.support - linalg.vec_dot(f.normal, c), f.label)
             for f in poly.facets]
    return validate_delzant(specs, name=poly.name)
