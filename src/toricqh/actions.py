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
The fixed components sort by their integer level at their first vertex,
and `component_levels` keeps those levels, which S2, C, T2 and
`chain_bound` compare in place of K.

Strata are walked on the polytope's face lattice table
(`DelzantPolytope.face_lattice`, built on the first stratum): the
q-stratum, the faces whose order q divides, is checked for closure and
split into components through each face's immediate subfaces key | {i}
alone, read off the table, with no pairwise search over faces, no key
built and no sort; the components come in the table's order of keys.  A
table builds each q-stratum once, so S2 and P6 share it.

F_max needs no table: `_maximum` is one integer pass, the levels <xi, .>
on the scaled vertices, their argmax, xi's coordinates at the maximizing
vertices and the weights, and returns the checked xi, the face, the weights
and the top level; `fixed_maximum` wraps it and makes one Fraction, K.
Every entry point checks xi once, in `_check_xi`: n ints, not all zero.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd
from operator import mul

from .errors import (
    InconsistentWeights,
    MomentNotConstant,
    NonIntegralCoefficient,
    StratumNotClosed,
    ZeroVector,
)
from .polytope import _check_int_vector


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
    xi = _check_int_vector(xi, n)
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
    order of every face, and each q-stratum.  A table lives for one call."""

    def __init__(self, poly, xi):
        self.poly = poly
        self.xi = xi = _check_xi(xi, poly.n)
        self.coords = [poly.coordinates(vid, xi)
                       for vid in range(len(poly.vertices))]
        self.scale, points = poly.scaled_vertices
        self.levels = [sum(map(mul, xi, p)) for p in points]
        self.strata = {}  # q -> IsotropyStratum, each built on first use

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
        levels = self.levels  # K is the level over the scale D > 0
        comps.sort(key=lambda c: (-levels[c.face.vertex_ids[0]],
                                  sorted(c.facets)))
        if len({v for c in comps for v in c.face.vertex_ids}) != \
                sum(len(c.face.vertex_ids) for c in comps):
            raise InconsistentWeights("fixed faces overlap")
        return comps

    @cached_property
    def component_levels(self):
        """The integer level of each fixed component, in their order."""
        return [self.levels[c.face.vertex_ids[0]] for c in self.components]

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
        # checked before the memo is read: 2.0 and True hash like 2 and 1
        if type(q) is not int or q < 1:
            raise NonIntegralCoefficient(
                f"the stratum order q must be an int >= 1, not {q!r}")
        if q not in self.strata:
            self.strata[q] = _stratum(self.poly.face_lattice, self.orders,
                                      q)
        return self.strata[q]

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


def _maximum(poly, xi):
    """F_max of the circle xi in integers, as (xi, face, weights, top): xi
    checked, as a tuple; the face of xi's nonzero coordinates at the first
    vertex of largest level <xi, scaled vertex>, whose vertices must be
    exactly the maximizing ones; the nonzero weights there; and that level,
    top, so that K = Fraction(top, D).  The weights are read at the first
    vertex and, unless F_max is a vertex, checked at its others."""
    xi = _check_xi(xi, poly.n)
    levels = [sum(map(mul, xi, p)) for p in poly.scaled_vertices[1]]
    top = max(levels)
    vid = levels.index(top)  # the face's first vertex, if it is F_max
    coords = poly.coordinates(vid, xi)
    weights = {i: -c for i, c in coords.items() if c}
    face = poly.faces[frozenset(weights)]
    if levels.count(top) != len(face.vertex_ids) or any(
            levels[v] != top for v in face.vertex_ids):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    if len(face.vertex_ids) > 1:
        coords = {vid: coords}
        coords.update((v, poly.coordinates(v, xi))
                      for v in face.vertex_ids[1:])
        weights = _weights(coords, face)
    return xi, face, weights, top


def fixed_maximum(poly, xi):
    """F_max, the first of `fixed_components`, from the one integer pass of
    `_maximum`; K is the one Fraction made."""
    _, face, weights, top = _maximum(poly, xi)
    return _component(face, Fraction(top, poly.scaled_vertices[0]), weights)


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


def _stratum(lattice, orders, q):
    """The faces whose order q divides, fixed ones included, and their
    components under containment, on the `FaceLattice` of the keys of
    orders.  A subface's order is a multiple of its face's, and every
    subface ends a chain of immediate subfaces key | {i} (the face lattice
    is graded), so closure is checked on those, and the components are
    joined through them, each merged into the larger when two meet; they
    come in the order of their least key, the lattice's order of keys."""
    qualifying = [key for key, order in orders.items()
                  if order is FIXED or order % q == 0]
    member = dict.fromkeys(qualifying)  # key -> the list of its component
    for key in qualifying:
        mine = member[key]
        if mine is None:
            mine = member[key] = [key]
        for sub in lattice.subfaces[key]:
            if sub not in member:
                raise StratumNotClosed(f"the {q}-stratum holds {sorted(key)}"
                                       f" but not its subface {sorted(sub)}")
            other = member[sub]
            if other is None:
                member[sub] = mine
                mine.append(sub)
            elif other is not mine:
                if len(other) > len(mine):
                    mine, other = other, mine
                for k in other:
                    member[k] = mine
                mine.extend(other)
    components = {}  # id of a component's list -> the component
    for key in lattice.ordered:
        comp = member.get(key)
        if comp is not None and id(comp) not in components:
            components[id(comp)] = frozenset(comp)
    return IsotropyStratum(q=q, faces=frozenset(qualifying),
                           components=tuple(components.values()))


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
