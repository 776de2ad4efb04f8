"""Delzant polytopes: validation, face lattice, primitive sets, H2 lattice.

A polytope is given by facet data (outward primitive integer normal, rational
support value): Delta = {u : <eta_i, u> <= support_i}.  All derived data is
exact.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import linalg
from .errors import (
    NonIntegralCoefficient,
    NonPositiveEnergy,
    NonPrimitiveNormal,
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

    def faces_of_dim(self, d):
        return [f for f in self.faces.values() if f.dim == d]

    def face(self, facet_set):
        return self.faces[frozenset(facet_set)]

    def vertex_normal_columns(self, vid):
        return [self.normal(i) for i in sorted(self.vertex_facets(vid))]

    def coordinates(self, vid, v):
        """Coefficients of the integer vector v in the unimodular normal
        basis at vertex vid, keyed by facet index in increasing order."""
        idx = sorted(self.vertex_facets(vid))
        return dict(zip(idx, linalg.solve_unimodular(
            self.vertex_normal_columns(vid), v)))

    def lex_least_vertex_of(self, face):
        return min(face.vertex_ids, key=lambda v: self.vertex_point(v))


def _feasible(point, facets):
    return all(linalg.vec_dot(f.normal, point) <= f.support for f in facets)


def _check_edges_bounded(vlist, normals, n):
    """Raise Unbounded unless every edge at every vertex ends at a second
    vertex; for a nonempty region whose normals span, that is boundedness.

    The edges at a vertex lie in the kernels of (n-1)-subsets of its
    facets.  At a vertex on exactly n facets each subset is an edge; on
    more facets a subset is one only when its kernel is a line with d or -d
    feasible for every facet at the vertex.
    """
    for vid, (point, active) in enumerate(vlist):
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
            if not any(other != vid and active_other.issuperset(sub)
                       for other, (_, active_other) in enumerate(vlist)):
                raise Unbounded(
                    f"the edge of vertex {point} along facets "
                    f"{list(sub)} has no second vertex")


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

    # candidate vertices: n-subsets with invertible normal matrix
    points = {}
    for subset in combinations(range(len(facets)), n):
        m = [list(normals[i]) for i in subset]
        if linalg.det(m) == 0:
            continue
        point = linalg.solve_rational(m, [facets[i].support for i in subset])
        if not _feasible(point, facets):
            continue
        points[point] = frozenset(
            i for i in range(len(facets))
            if linalg.vec_dot(normals[i], point) == facets[i].support)
    if not points:
        raise Unbounded("no vertices; the region is empty or unbounded")

    vlist = sorted(points.items())
    _check_edges_bounded(vlist, normals, n)
    base = vlist[0][0]
    if linalg.rank([list(linalg.vec_sub(p, base)) for p, _ in vlist[1:]]) < n:
        raise NotFullDimensional("vertices span a proper affine subspace")

    for point, active in vlist:
        if len(active) > n:
            raise NotSimple(
                f"vertex {point} lies on {len(active)} facets {sorted(active)}")
        d = abs(linalg.det([normals[i] for i in sorted(active)]))
        if d != 1:
            raise NotSmooth(
                f"vertex {point} on facets {sorted(active)} has |det| = {d}")

    touched = set()
    for _, active in vlist:
        touched |= active
    missing = set(range(len(facets))) - touched
    if missing:
        raise RedundantFacet(
            f"facets {sorted(missing)} support no vertex of the region")

    vertices = tuple((p, a) for p, a in vlist)
    poly = DelzantPolytope(n=n, facets=tuple(facets), vertices=vertices,
                           faces={}, name=name)
    poly.faces = _build_faces(poly)
    return poly


def _build_faces(poly):
    """Every nonempty intersection of facets, canonically keyed by the full
    facet set containing it.  Includes Delta itself (empty facet set)."""
    n = poly.n
    face_sets = {frozenset()}
    # faces of a simple polytope through a vertex correspond to subsets of
    # its facet set
    for _, vf in poly.vertices:
        for size in range(1, n + 1):
            for sub in combinations(sorted(vf), size):
                face_sets.add(frozenset(sub))
    faces = {}
    for s in face_sets:
        vids = tuple(vid for vid in range(len(poly.vertices))
                     if s <= poly.vertex_facets(vid))
        assert vids, "face with no vertices"
        faces[s] = Face(facets=s, dim=n - len(s), vertex_ids=vids)
    return faces


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
        return sum(Fraction(a) * poly.support(i)
                   for i, a in enumerate(self.pairings))

    def c1(self):
        return sum(self.pairings)


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

    @property
    def key(self):
        return frozenset(self.indices)


def beta_class(poly, indices, j_indices, coeffs):
    """The spherical class of the relation sum_I eta = sum_J c_j eta."""
    pairings = [0] * poly.num_facets
    for i in indices:
        pairings[i] = 1
    for j, c in zip(j_indices, coeffs):
        pairings[j] = -c
    beta = H2Class(tuple(pairings))
    if beta.omega(poly) <= 0:
        raise NonPositiveEnergy(
            f"relation class of I={list(indices)} has energy "
            f"{beta.omega(poly)} <= 0")
    return beta


def primitive_sets(poly):
    """All primitive facet subsets with their dual-cone data, by size."""
    N = poly.num_facets
    results = []
    primitive_found = set()
    for size in range(2, N + 1):
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
                beta = beta_class(poly, sub, j_sorted, coeffs)
                results.append(PrimitiveSet(indices=tuple(sub),
                                            j_indices=j_sorted,
                                            coeffs=coeffs, beta=beta))
    results.sort(key=lambda p: (len(p.indices), p.indices))
    return results


# ----------------------------------------------------------------- centroid

def _simplices_of_face(poly, face):
    """Recursive triangulation from the lex-least vertex of each face.

    Returns simplices as tuples of vertex ids; each has dim(face)+1 entries.
    """
    if face.dim == 0:
        return [(face.vertex_ids[0],)]
    anchor = poly.lex_least_vertex_of(face)
    simplices = []
    for sub in poly.faces.values():
        if sub.dim != face.dim - 1 or not (face.facets <= sub.facets):
            continue
        if anchor in sub.vertex_ids:
            continue
        for s in _simplices_of_face(poly, sub):
            simplices.append((anchor,) + s)
    return simplices


def centroid(poly):
    """Exact centroid of Delta under Lebesgue measure."""
    top = poly.face(frozenset())
    total_vol = Fraction(0)
    weighted = [Fraction(0)] * poly.n
    for simplex in _simplices_of_face(poly, top):
        pts = [poly.vertex_point(v) for v in simplex]
        base = pts[0]
        m = [list(linalg.vec_sub(p, base)) for p in pts[1:]]
        vol = abs(linalg.det(m))  # n! * volume; constant factor cancels
        if vol == 0:
            continue
        c = [sum(p[k] for p in pts) / Fraction(len(pts)) for k in range(poly.n)]
        total_vol += vol
        for k in range(poly.n):
            weighted[k] += vol * c[k]
    assert total_vol > 0
    return tuple(w / total_vol for w in weighted)


def normalize(poly):
    """Translate supports so the centroid moves to the origin."""
    c = centroid(poly)
    if all(x == 0 for x in c):
        return poly
    specs = [(f.normal, f.support - linalg.vec_dot(f.normal, c), f.label)
             for f in poly.facets]
    return validate_delzant(specs, name=poly.name)
