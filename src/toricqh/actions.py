"""Circle subgroups of the torus: moment data, fixed faces, weights, isotropy.

The sign convention: at a vertex whose facet normals are eta_{i_1..i_n}, a
circle direction xi = sum a_j eta_{i_j} has weight -a_j on the direction
transverse to the facet D_{i_j}.  This makes a facet's own circle have that
facet as its maximum.

All circle data is read off one `CircleTable` per (polytope, xi): xi's
coordinates at every vertex (integer dot products with the vertex's dual
basis, `DelzantPolytope.coordinates`), its moment value there (an integer
dot product with the scaled vertex over the scale D,
`DelzantPolytope.scaled_vertices`), and on first use the fixed components
and the isotropy order of every face.  A face's isotropy order is the gcd
of xi's coordinates off the face's facets at any one of its vertices, and
a gcd of 0 means the face is fixed.  The public functions build a table
per call; `obstructions.analyze` builds one.  F_max alone needs no table:
`fixed_maximum` reads it off one integer argmax of <xi, .>.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd

from . import linalg
from .errors import (
    InconsistentWeights,
    MomentNotConstant,
    NonIntegralCoefficient,
    StratumNotClosed,
    ZeroVector,
)


@dataclass(frozen=True)
class FixedComponentData:
    face: object
    K: Fraction
    weights: dict  # facet index -> integer weight (zero weights omitted)
    m: int
    index: int  # 2 * number of negative weights
    coindex: int
    semifree: bool
    dimF: int

    @property
    def facets(self):
        return self.face.facets


def _check_xi(xi):
    """xi as a tuple of ints; every entry must be an int, not all zero."""
    xi = tuple(xi)
    for x in xi:
        if type(x) is not int:
            raise NonIntegralCoefficient(
                f"the circle direction has the non-integer entry {x!r}")
    if not any(xi):
        raise ZeroVector("the circle direction must be nonzero")
    return xi


def _component(face, K, w):
    return FixedComponentData(
        face=face, K=K, weights=w, m=sum(w.values()),
        index=2 * sum(1 for x in w.values() if x < 0),
        coindex=2 * sum(1 for x in w.values() if x > 0),
        semifree=all(abs(x) == 1 for x in w.values()), dimF=2 * face.dim)


def _weights(coords, face):
    result = None
    for vid in face.vertex_ids:
        w = {i: -c for i, c in coords[vid].items() if c != 0}
        if any(i not in face.facets for i in w):
            raise InconsistentWeights(
                f"nonzero weight off the fixed face at vertex {vid}")
        if result is None:
            result = w
        elif result != w:
            raise InconsistentWeights(
                f"weights disagree across vertices of {sorted(face.facets)}")
    return result


FIXED = "fixed"


def _order(coords, face):
    g = 0
    for i, c in coords.items():
        if i not in face.facets:
            g = gcd(g, c)
    return g or FIXED


class CircleTable:
    """The circle xi on poly: xi's coordinates and moment value at every
    vertex, and, each on first use, the fixed components and the isotropy
    order of every face.  A table lives for one call."""

    def __init__(self, poly, xi):
        self.poly = poly
        self.xi = xi = _check_xi(xi)
        self.coords = [poly.coordinates(vid, xi)
                       for vid in range(len(poly.vertices))]
        scale, points = poly.scaled_vertices()
        self.values = [Fraction(linalg.vec_dot(xi, p), scale)
                       for p in points]

    def moment_value(self, face):
        """Value of <xi, .> on a face on which it is constant."""
        values = {self.values[vid] for vid in face.vertex_ids}
        if len(values) != 1:
            raise MomentNotConstant(
                f"<xi, .> is not constant on face {sorted(face.facets)}")
        return values.pop()

    @cached_property
    def components(self):
        # the fixed component through a vertex is cut out by the facets on
        # which xi has a nonzero coordinate there
        keys = {frozenset(i for i, c in coords.items() if c != 0)
                for coords in self.coords}
        comps = []
        for key in keys:
            face = self.poly.faces[key]
            comps.append(_component(face, self.moment_value(face),
                                    _weights(self.coords, face)))
        comps.sort(key=lambda c: (-c.K, sorted(c.facets)))
        if len({v for c in comps for v in c.face.vertex_ids}) != \
                sum(len(c.face.vertex_ids) for c in comps):
            raise InconsistentWeights("fixed faces overlap")
        return comps

    @cached_property
    def orders(self):
        """Face key -> isotropy order, read at each face's first vertex."""
        return {key: _order(self.coords[face.vertex_ids[0]], face)
                for key, face in self.poly.faces.items()}

    @cached_property
    def isotropy_bound(self):
        return max([1] + [order for order in self.orders.values()
                          if order is not FIXED])

    def stratum(self, q):
        return _stratum(self.orders, q)

    def q_pairs(self, faces):
        candidates = {d for order in self.orders.values()
                      if order is not FIXED
                      for d in range(2, order + 1) if order % d == 0}
        pairs = dict.fromkeys(combinations(range(len(faces)), 2), 1)
        for q in sorted(candidates):  # ascending: a larger q overwrites
            for comp in self.stratum(q).components:
                inside = [k for k, face in enumerate(faces)
                          if face.facets in comp]
                for pair in combinations(inside, 2):
                    pairs[pair] = q
        return pairs

    def superlevel_bounds(self, levels):
        tops = [(max(self.values[v] for v in self.poly.faces[key].vertex_ids),
                 order)
                for key, order in self.orders.items() if order is not FIXED]
        return {c: max([1] + [order for top, order in tops if top > c])
                for c in levels}


def fixed_components(poly, xi):
    """Maximal faces on which <xi, .> is constant, with weight data, sorted
    by decreasing moment value."""
    return CircleTable(poly, xi).components


def fixed_maximum(poly, xi):
    """F_max, the first of `fixed_components`, from one integer argmax of
    <xi, .> over the scaled vertices: the face cut out by the facets on
    which xi has a nonzero coordinate at a maximizing vertex.  Its vertices
    must be exactly the maximizing ones.  xi is checked once; the weight
    check reuses its coordinates at that vertex and solves the others'."""
    xi = _check_xi(xi)
    scale, points = poly.scaled_vertices()
    values = [linalg.vec_dot(xi, p) for p in points]
    top = max(values)
    vid = values.index(top)
    coords = {vid: poly.coordinates(vid, xi)}
    face = poly.faces[frozenset(i for i, c in coords[vid].items() if c)]
    if face.vertex_ids != tuple(v for v, k in enumerate(values) if k == top):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    coords.update((v, poly.coordinates(v, xi))
                  for v in face.vertex_ids if v != vid)
    return _component(face, Fraction(top, scale), _weights(coords, face))


# ------------------------------------------------------------------ isotropy

def isotropy_order(poly, xi, face):
    """Order of the generic stabilizer along a face: FIXED if the face is
    fixed, else the content of the image of xi in the quotient lattice by
    the face's normal directions."""
    return _order(poly.coordinates(face.vertex_ids[0], _check_xi(xi)), face)


@dataclass(frozen=True)
class IsotropyStratum:
    q: int
    faces: frozenset  # face keys in the stratum
    components: tuple  # tuple of frozensets of face keys


def _stratum(orders, q):
    qualifying = [key for key, order in orders.items()
                  if order is FIXED or order % q == 0]
    qual = set(qualifying)
    # closure under subfaces: a subface has facet set containing the face's,
    # and its stabilizer order is a multiple, so it must qualify too
    for key in qual:
        for other in orders:
            if key < other and other not in qual:
                raise StratumNotClosed(f"the {q}-stratum holds {sorted(key)}"
                                       f" but not its subface {sorted(other)}")
    seen = set()
    components = []
    for key in sorted(qualifying, key=sorted):
        if key in seen:
            continue
        comp = {key}
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            for other in qualifying:
                if other in comp:
                    continue
                if cur <= other or other <= cur:
                    comp.add(other)
                    frontier.append(other)
        seen |= comp
        components.append(frozenset(comp))
    return IsotropyStratum(q=q, faces=frozenset(qualifying),
                           components=tuple(components))


def isotropy_components(poly, xi, q):
    """Connected components (by face containment) of the locus with
    stabilizer divisible by q, including all fixed faces."""
    return CircleTable(poly, xi).stratum(q)


def q_pairs(poly, xi, faces):
    """{(i, j): q} for i < j: the largest q so that faces[i] and faces[j]
    lie in one component of the q-isotropy stratum; at least 1, since the
    whole manifold is the 1-stratum.  Each stratum is built once."""
    return CircleTable(poly, xi).q_pairs(faces)


def q_pair(poly, xi, face_a, face_b):
    """The q of one pair of faces, as in `q_pairs`."""
    return q_pairs(poly, xi, (face_a, face_b))[(0, 1)]


def global_isotropy_bound(poly, xi):
    """Largest finite stabilizer order on the manifold (1 if semifree)."""
    return CircleTable(poly, xi).isotropy_bound
