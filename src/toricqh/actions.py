"""Circle subgroups of the torus: moment data, fixed faces, weights, isotropy.

The sign convention: at a vertex whose facet normals are eta_{i_1..i_n}, a
circle direction xi = sum a_j eta_{i_j} has weight -a_j on the direction
transverse to the facet D_{i_j}.  This makes a facet's own circle have that
facet as its maximum.

All circle data is read off one `CircleTable` per (polytope, xi): xi's
coordinates at every vertex (integer dot products with the vertex's dual
basis, `DelzantPolytope.coordinates`), its integer moment level there
(<xi, .> on the scaled vertices; a `Fraction`, level over the scale D, is
built only for a component's K), and on first use the fixed components and
the isotropy order of every face.  A face's isotropy order is the gcd of
xi's coordinates off the face's facets at any one of its vertices, and a
gcd of 0 means the face is fixed.  A table lives for one call (one per
`analyze`) and reads the polytope's shared dual bases and scaled vertices.
The q-stratum, the faces whose order q divides, is checked for closure and
split into components through the immediate subfaces key | {i} alone, by
union-find, with no pairwise search over faces.

F_max needs no table: `fixed_maximum` is one integer pass, the levels
<xi, .> on the scaled vertices, their argmax, xi's coordinates at the
maximizing vertices and the weights, and makes one Fraction, K.  Every
entry point checks xi once, in `_check_xi`: n ints, not all zero.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from .errors import (
    DimensionMismatch,
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


def _check_xi(xi, n):
    """xi as a tuple of n ints, not all zero."""
    xi = tuple(xi)
    if len(xi) != n:
        raise DimensionMismatch(
            f"the circle direction has {len(xi)} entries, not {n}")
    for x in xi:
        if type(x) is not int:
            raise NonIntegralCoefficient(
                f"the circle direction has the non-integer entry {x!r}")
    if not any(xi):
        raise ZeroVector("the circle direction must be nonzero")
    return xi


def _component(face, K, w):
    m = index = coindex = 0
    semifree = True
    for x in w.values():  # the nonzero weights
        m += x
        if x < 0:
            index += 2
        else:
            coindex += 2
        semifree = semifree and x in (1, -1)
    return FixedComponentData(
        face=face, K=K, weights=w, m=m, index=index, coindex=coindex,
        semifree=semifree, dimF=2 * face.dim)


def _weights(coords, face):
    result = None
    for vid in face.vertex_ids:
        w = {i: -c for i, c in coords[vid].items() if c}
        if not w.keys() <= face.facets:
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
    """The circle xi on poly: xi's coordinates and moment level at every
    vertex, and, each on first use, the fixed components and the isotropy
    order of every face.  A table lives for one call."""

    def __init__(self, poly, xi):
        self.poly = poly
        self.xi = xi = _check_xi(xi, poly.n)
        self.coords = [poly.coordinates(vid, xi)
                       for vid in range(len(poly.vertices))]
        self.scale, points = poly.scaled_vertices
        self.levels = [sum(map(mul, xi, p)) for p in points]

    @property
    def values(self):
        return [Fraction(level, self.scale) for level in self.levels]

    def moment_value(self, face):
        """Value of <xi, .> on a face on which it is constant."""
        levels = {self.levels[vid] for vid in face.vertex_ids}
        if len(levels) != 1:
            raise MomentNotConstant(
                f"<xi, .> is not constant on face {sorted(face.facets)}")
        return Fraction(levels.pop(), self.scale)

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
        """The q of each pair of faces, tried over the gcd-closure of the
        finite orders: two faces joined by a chain share the stratum of the
        gcd of its orders, and a stratum that is not closed at some q is not
        closed at q = the order of a face that it holds."""
        candidates = set()
        for order in set(self.orders.values()) - {FIXED}:
            candidates |= {gcd(order, c) for c in candidates} | {order}
        pairs = dict.fromkeys(combinations(range(len(faces)), 2), 1)
        for q in sorted(candidates - {1}):  # ascending: a larger q overwrites
            for comp in self.stratum(q).components:
                inside = [k for k, face in enumerate(faces)
                          if face.facets in comp]
                for pair in combinations(inside, 2):
                    pairs[pair] = q
        return pairs

    def superlevel_bounds(self, values):
        """Isotropy bound above each moment value c = a / b (a value, not a
        level) in values: a level lies above c when level * b > a * D."""
        tops = [(max(self.levels[v] for v in self.poly.faces[key].vertex_ids),
                 order)
                for key, order in self.orders.items()
                if order is not FIXED and order > 1]
        return {c: max([1] + [k for top, k in tops if top * b > a])
                for c in values
                for a, b in [(c.numerator * self.scale, c.denominator)]}


def fixed_components(poly, xi):
    """Maximal faces on which <xi, .> is constant, with weight data, sorted
    by decreasing moment value."""
    return CircleTable(poly, xi).components


def fixed_maximum(poly, xi):
    """F_max, the first of `fixed_components`, from one integer pass: the
    levels <xi, .> on the scaled vertices, their argmax, xi's coordinates
    there, and the face of its nonzero ones, whose vertices must be exactly
    the maximizing ones.  The weight check solves xi's coordinates at the
    face's other vertices; K is the one Fraction made."""
    xi = _check_xi(xi, poly.n)
    scale, points = poly.scaled_vertices
    levels = [sum(map(mul, xi, p)) for p in points]
    top = max(levels)
    vid = levels.index(top)  # the face's first vertex, if it is F_max
    coords = {vid: poly.coordinates(vid, xi)}
    face = poly.faces[frozenset(i for i, c in coords[vid].items() if c)]
    if levels.count(top) != len(face.vertex_ids) or any(
            levels[v] != top for v in face.vertex_ids):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    coords.update((v, poly.coordinates(v, xi)) for v in face.vertex_ids[1:])
    return _component(face, Fraction(top, scale), _weights(coords, face))


# ------------------------------------------------------------------ isotropy

def isotropy_order(poly, xi, face):
    """Order of the generic stabilizer along a face: FIXED if the face is
    fixed, else the content of the image of xi in the quotient lattice by
    the face's normal directions."""
    return _order(poly.coordinates(face.vertex_ids[0],
                                    _check_xi(xi, poly.n)), face)


@dataclass(frozen=True)
class IsotropyStratum:
    q: int
    faces: frozenset  # face keys in the stratum
    components: tuple  # tuple of frozensets of face keys


def _stratum(orders, q):
    """The faces whose order q divides, fixed ones included, and their
    components under containment.  A subface's order is a multiple of its
    face's, and every subface ends a chain of immediate subfaces key | {i}
    (the face lattice is graded), so closure is checked on those, and the
    components are joined through them by union-find; they come in the
    order of their least key, as `sorted` orders keys."""
    qualifying = [key for key, order in orders.items()
                  if order is FIXED or order % q == 0]
    root = {key: key for key in qualifying}

    def find(key):
        while root[key] is not key:
            root[key] = key = root[root[key]]
        return key

    facets = frozenset().union(*orders)
    for key in qualifying:
        for i in facets - key:
            sub = key | {i}
            if sub not in orders:
                continue
            if sub not in root:
                raise StratumNotClosed(f"the {q}-stratum holds {sorted(key)}"
                                       f" but not its subface {sorted(sub)}")
            root[find(sub)] = find(key)
    components = {}
    for key in sorted(qualifying, key=sorted):
        components.setdefault(find(key), []).append(key)
    return IsotropyStratum(
        q=q, faces=frozenset(qualifying),
        components=tuple(map(frozenset, components.values())))


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
