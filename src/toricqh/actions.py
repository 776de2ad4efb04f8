"""Circle subgroups of the torus: moment data, fixed faces, weights, isotropy.

The sign convention: at a vertex whose facet normals are eta_{i_1..i_n}, a
circle direction xi = sum a_j eta_{i_j} has weight -a_j on the direction
transverse to the facet D_{i_j}.  This makes a facet's own circle have that
facet as its maximum.

Every public call solves xi once per vertex it needs (`coordinates`) and
reads all circle data from that table.  A face's isotropy order is the gcd
of xi's coordinates off the face's facets at any one of its vertices, and a
gcd of 0 means the face is fixed.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from . import linalg
from .cohomology import face_betti  # noqa: F401  (part of this module's API)
from .errors import InconsistentWeights, InvariantMismatch, ZeroVector
from .polytope import h2_lattice


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
    xi = tuple(int(x) for x in xi)
    if all(x == 0 for x in xi):
        raise ZeroVector("the circle direction must be nonzero")
    return xi


def moment_value(poly, xi, face):
    """Value of <xi, .> on a face on which it is constant."""
    vids = face.vertex_ids
    vals = {linalg.vec_dot(xi, poly.vertex_point(v)) for v in vids}
    assert len(vals) == 1, "moment map is not constant on the face"
    return vals.pop()


def _table(poly, xi, vids=None):
    """Coordinates of xi at the given vertices (default: all), by vertex id."""
    if vids is None:
        vids = range(len(poly.vertices))
    return {vid: poly.coordinates(vid, xi) for vid in vids}


def _weights(table, face):
    result = None
    for vid in face.vertex_ids:
        w = {i: -c for i, c in table[vid].items() if c != 0}
        if any(i not in face.facets for i in w):
            raise InconsistentWeights(
                f"nonzero weight off the fixed face at vertex {vid}")
        if result is None:
            result = w
        elif result != w:
            raise InconsistentWeights(
                f"weights disagree across vertices of {sorted(face.facets)}")
    return result


def weights(poly, xi, face):
    """Weight data of the circle xi along a fixed face.

    Reads xi's coordinates at every vertex of the face and checks the
    answers agree; nonzero weights sit exactly on the facets containing the
    face.
    """
    xi = _check_xi(xi)
    return _weights(_table(poly, xi, face.vertex_ids), face)


def _fixed_components(poly, xi, table):
    # the fixed component through a vertex is cut out by the facets on
    # which xi has a nonzero coordinate there
    keys = {frozenset(i for i, c in coords.items() if c != 0)
            for coords in table.values()}
    comps = []
    for key in keys:
        face = poly.faces[key]
        w = _weights(table, face)
        comps.append(FixedComponentData(
            face=face,
            K=moment_value(poly, xi, face),
            weights=w,
            m=sum(w.values()),
            index=2 * sum(1 for x in w.values() if x < 0),
            coindex=2 * sum(1 for x in w.values() if x > 0),
            semifree=all(abs(x) == 1 for x in w.values()),
            dimF=2 * face.dim,
        ))
    comps.sort(key=lambda c: (-c.K, sorted(c.facets)))
    if len({v for c in comps for v in c.face.vertex_ids}) != \
            sum(len(c.face.vertex_ids) for c in comps):
        raise InconsistentWeights("fixed faces overlap")
    return comps


def fixed_components(poly, xi):
    """Maximal faces on which <xi, .> is constant, with weight data, sorted
    by decreasing moment value."""
    xi = _check_xi(xi)
    return _fixed_components(poly, xi, _table(poly, xi))


def extrema(poly, xi):
    comps = fixed_components(poly, xi)
    return comps[0], comps[-1]  # F_max, F_min


# ------------------------------------------------------------------ isotropy

FIXED = "fixed"


def _order(coords, face):
    g = 0
    for i, c in coords.items():
        if i not in face.facets:
            g = gcd(g, c)
    return g or FIXED


def _orders(poly, xi):
    """Face key -> isotropy order, read at each face's first vertex."""
    table = _table(poly, xi)
    return {key: _order(table[face.vertex_ids[0]], face)
            for key, face in poly.faces.items()}


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
            if key < other:
                assert other in qual, "stratum not closed under subfaces"
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
    return _stratum(_orders(poly, _check_xi(xi)), q)


def q_pairs(poly, xi, faces):
    """{(i, j): q} for i < j: the largest q so that faces[i] and faces[j]
    lie in one component of the q-isotropy stratum; at least 1, since the
    whole manifold is the 1-stratum.  Each stratum is built once."""
    orders = _orders(poly, _check_xi(xi))
    candidates = {d for order in orders.values() if order is not FIXED
                  for d in range(2, order + 1) if order % d == 0}
    pairs = dict.fromkeys(combinations(range(len(faces)), 2), 1)
    for q in sorted(candidates):  # ascending: a larger q overwrites
        for comp in _stratum(orders, q).components:
            inside = [k for k, face in enumerate(faces) if face.facets in comp]
            for pair in combinations(inside, 2):
                pairs[pair] = q
    return pairs


def q_pair(poly, xi, face_a, face_b):
    """The q of one pair of faces, as in `q_pairs`."""
    return q_pairs(poly, xi, (face_a, face_b))[(0, 1)]


def global_isotropy_bound(poly, xi):
    """Largest finite stabilizer order on the manifold (1 if semifree)."""
    orders = _orders(poly, _check_xi(xi)).values()
    return max([1] + [order for order in orders if order is not FIXED])


def superlevel_isotropy_bounds(poly, xi, levels):
    """{c: max finite isotropy over faces whose moment maximum exceeds c}
    for every c in levels (1 where no such face), from one orders map and
    one moment value per vertex."""
    xi = _check_xi(xi)
    values = [linalg.vec_dot(xi, poly.vertex_point(v))
              for v in range(len(poly.vertices))]
    tops = [(max(values[v] for v in poly.faces[key].vertex_ids), order)
            for key, order in _orders(poly, xi).items() if order is not FIXED]
    return {c: max([1] + [order for top, order in tops if top > c])
            for c in levels}


def superlevel_isotropy_bound(poly, xi, c):
    """Max finite isotropy over faces whose moment maximum exceeds c."""
    return superlevel_isotropy_bounds(poly, xi, (c,))[c]


# ------------------------------------------------------- the (K, -m) invariant

def action_invariant(poly, xi):
    """The pair (K(v), -m(v)) at a critical point, well defined modulo the
    lattice of (omega, c1) values of spherical classes; asserts the vertex
    values agree modulo that lattice and returns the representative at the
    maximum."""
    xi = _check_xi(xi)
    lattice_rows = [(b.omega(poly), Fraction(b.c1()))
                    for b in h2_lattice(poly)]
    table = _table(poly, xi)
    values = [(linalg.vec_dot(xi, poly.vertex_point(vid)),
               Fraction(sum(coords.values())))
              for vid, coords in table.items()]
    base = max(values)
    for val in values:
        diff = (val[0] - base[0], val[1] - base[1])
        if not linalg.in_rational_lattice(lattice_rows, diff):
            raise InvariantMismatch(
                f"vertex values {val} and {base} differ by {diff}, outside "
                "the (omega, c1) lattice")
    fmax = _fixed_components(poly, xi, table)[0]
    return (fmax.K, -fmax.m)
