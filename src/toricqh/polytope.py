"""Delzant polytopes: validation, face lattice, primitive sets, the
spherical H2 classes of edges and primitive relations, and what the
classical ring and the battery read off the polytope alone: the linear
elimination and the Morse data of a generic height.  The centroid is a sum
over the vertices of that Morse data, the localization that
`ClassicalRing.integrate` makes over M.

A polytope is given by facet data (outward primitive integer normal, rational
support value): Delta = {u : <eta_i, u> <= support_i}.  All derived data is
exact.

A polytope is a value, built whole by `validate_delzant`: its derived data
are cached properties or per-key memos, only this module writes them, and
every classical ring and every circle of the polytope shares them.  One of
them, the `FaceLattice`, is read off the face keys alone, on the first
isotropy stratum of any circle of the polytope.

`validate_delzant` walks the feasible bases by integer simplex pivots from
the first one, carrying each basis's dual rows along.  A clean walk meets
only simple unimodular vertices with bounded edges and fills the `_duals`
memo; on input that is no Delzant polytope the walk still reaches every
vertex, and the vertices it met name the first defect; it meets an edge
that no facet ends whenever the region is unbounded, and only then are the
edges searched for one with no second vertex.
"""

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm, prod
from operator import itemgetter, mul

from . import linalg
from .errors import (
    DegenerateEdge,
    DimensionMismatch,
    InexactNumber,
    NonGenericVector,
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
from .polynomials import poly_monomial, poly_substitute


@dataclass(frozen=True)
class Facet:
    normal: tuple  # outward primitive integer normal
    support: Fraction
    label: str = ""

    def __post_init__(self):
        """Raise unless the data are exact: NonIntegralCoefficient for a
        normal entry that is not an int, InexactNumber for a support that
        is not an int or a Fraction (the rules of `novikov.check_term`)."""
        bad = next((x for x in self.normal if type(x) is not int), None)
        if bad is not None:
            raise NonIntegralCoefficient(
                f"the normal entry {bad!r} is not an int")
        if type(self.support) not in (int, Fraction):
            raise InexactNumber(
                f"the support {self.support!r} is not an int or a Fraction")
        if gcd(*self.normal) != 1:
            raise NonPrimitiveNormal(f"normal {self.normal} is not primitive")
        object.__setattr__(self, "support", Fraction(self.support))


@dataclass(frozen=True)
class Face:
    """A face, identified by the exact set of facets containing it."""
    facets: frozenset
    dim: int
    vertex_ids: tuple  # indices into polytope.vertices


@dataclass(frozen=True)
class DelzantPolytope:
    n: int
    facets: tuple
    vertices: tuple  # ((point, facet frozenset), ...) sorted lex by point
    faces: dict = field(repr=False)  # frozenset -> Face
    name: str = ""
    # filled on first use (the dual bases by validate_delzant): vertex id ->
    # dual basis, edge key -> edge class, face key -> (edge, class) pairs
    # meeting the face, and -> Morse Betti
    _duals: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _edge_classes: dict = field(default_factory=dict, init=False,
                                repr=False, compare=False)
    _face_edges: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)
    _betti: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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

    @cached_property
    def scaled_vertices(self):
        """(D, points): the lcm D of the vertex coordinates' denominators
        and every vertex times D as an integer tuple, in vertex order, so
        that <xi, vertex> is Fraction(<xi, point>, D)."""
        scale = lcm(*(x.denominator for point, _ in self.vertices
                      for x in point))
        return scale, tuple(
            tuple(x.numerator * (scale // x.denominator) for x in point)
            for point, _ in self.vertices)

    @cached_property
    def centroid(self):
        """Exact centroid of Delta under Lebesgue measure, by localization at
        the vertices (Duistermaat-Heckman; Brion's form for polytopes).  At
        a scaled vertex p with dual rows y_k, the Morse height c gives
        h = <c, p> and r_k = <c, y_k>, the minus weights, none 0 as c
        separates the vertices.  With e = prod_k r_k,
            n! D^n vol = sum_v h^n / e,
            (n + 1)! D^(n + 1) int x_j = sum_v d/dc_j (h^(n + 1) / e),
        each summed in integers over the lcm of the e^2."""
        scale, points = self.scaled_vertices
        n, height, weights = self.n, self.morse.height, self.morse.weights
        terms = []  # per vertex: e^2 and its volume and moment numerators
        for vid, point in enumerate(points):
            rates = {k: -w for k, w in weights[vid].items()}
            e, h = prod(rates.values()), sum(map(mul, height, point))
            drift = [0] * n  # sum_k y_k e / r_k, the derivative of e
            for k, y in self.dual_basis(vid):
                drift = [d + e // rates[k] * x for d, x in zip(drift, y)]
            hn = h ** n
            terms.append((e * e, hn * e, [hn * ((n + 1) * e * x - h * d)
                                          for x, d in zip(point, drift)]))
        den = lcm(*(e2 for e2, _, _ in terms))
        vol = sum(v * (den // e2) for e2, v, _ in terms)
        if vol <= 0:
            raise NotFullDimensional(
                f"the vertex sum gives {self.name or 'the polytope'} a "
                "volume that is not positive")
        return tuple(Fraction(sum(m[j] * (den // e2) for e2, _, m in terms),
                              vol * scale * (n + 1)) for j in range(n))

    @cached_property
    def primitive_sets(self):
        """All primitive facet subsets with their dual-cone data, by size.
        Every proper subset of a primitive collection spans a cone of the
        simplicial fan, which has at most n rays, so none has more than
        n + 1 elements (Batyrev)."""
        N = self.num_facets
        results = []
        primitive_found = set()
        for size in range(2, min(N, self.n + 1) + 1):
            for sub in combinations(range(N), size):
                fs = frozenset(sub)
                if fs in self.faces:  # a cone of the normal fan
                    continue
                if any(p <= fs for p in primitive_found):
                    continue  # a proper subset already fails to intersect
                if all(frozenset(s) in self.faces
                       for s in combinations(sub, size - 1)):
                    primitive_found.add(fs)
                    v = tuple(sum(self.normal(i)[k] for i in sub)
                              for k in range(self.n))
                    _, support = dual_cone_face(self, v)  # c_j > 0, ints
                    j_sorted = tuple(sorted(support))
                    coeffs = tuple(support[j] for j in j_sorted)
                    if fs & frozenset(j_sorted):
                        raise NonIntegralCoefficient(
                            f"I={sub} meets its complement set {j_sorted}")
                    beta, energy = beta_class(self, sub, j_sorted, coeffs)
                    results.append(PrimitiveSet(
                        indices=tuple(sub), j_indices=j_sorted, coeffs=coeffs,
                        beta=beta, energy=energy))
        results.sort(key=lambda p: (len(p.indices), p.indices))
        return tuple(results)

    @property
    def normalized(self):
        """The polytope, or its translate validated once, centered at 0."""
        return self._translate if any(self.centroid) else self

    @cached_property
    def _translate(self):
        return validate_delzant([(f.normal, f.support - linalg.vec_dot(
            f.normal, self.centroid), f.label) for f in self.facets],
            name=self.name)

    @cached_property
    def elimination(self):
        """The classical ring's linear and Stanley-Reisner generators in the
        N facet variables and its linear elimination, for every ring."""
        N, prims = self.num_facets, self.primitive_sets
        units = [tuple(1 if k == i else 0 for k in range(N)) for i in range(N)]
        linear = tuple({units[i]: f.normal[j] for i, f in enumerate(
            self.facets) if f.normal[j]} for j in range(self.n))
        sr = {p.key: poly_monomial(dict.fromkeys(p.indices, 1), N)
              for p in prims}
        kept, images = _eliminate(self)
        return Elimination(kept, images, linear, sr, tuple(
            {m: Fraction(c) for m, c in poly_substitute(
                dict.fromkeys(sr[p.key], 1), images, len(kept)).items()}
            for p in prims))

    @cached_property
    def morse(self):
        """The first fields of the polytope's localization table."""
        height = generic_vector(self)
        return MorseTable(height, tuple(
            {i: -c for i, c in self.coordinates(vid, height).items()}
            for vid in range(len(self.vertices))))

    def morse_betti(self, face):
        """`face_betti` of a face under the generic height, once per face."""
        betti = self._betti.get(face.facets)
        if betti is None:
            betti = self._betti[face.facets] = face_betti(
                self, face, self.morse.height)
        return betti

    @cached_property
    def face_lattice(self):
        """The `FaceLattice` of the faces, built on the first stratum."""
        return build_face_lattice(self.faces)

    def face(self, facet_set):
        return self.faces[frozenset(facet_set)]

    def vertex_normal_columns(self, vid):
        return [self.normal(i) for i in sorted(self.vertex_facets(vid))]

    def dual_basis(self, vid):
        """((facet index, functional), ...) at vertex vid, by increasing
        facet index: each integer functional is 1 on its facet's normal and
        0 on the other normals there.  `validate_delzant` stores every
        vertex's; a polytope built otherwise solves each once."""
        basis = self._duals.get(vid)
        if basis is None:
            basis = self._duals[vid] = tuple(zip(
                sorted(self.vertex_facets(vid)),
                linalg.unimodular_dual(self.vertex_normal_columns(vid))))
        return basis

    def coordinates(self, vid, v):
        """Coefficients of the integer vector v in the unimodular normal
        basis at vertex vid, keyed by facet index in increasing order."""
        return {i: sum(map(mul, row, v)) for i, row in self.dual_basis(vid)}


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
                line = linalg.kernel_line([normals[i] for i in sub])
                if line is None:
                    continue
                dots = [linalg.vec_dot(normals[i], line) for i in active]
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
        else:  # Facet checks the data and makes the support a Fraction
            facets.append(Facet(tuple(spec[0]), *spec[1:]))
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

    walk = _pivot_walk(normals, bounds, n)
    if walk is None:
        raise Unbounded("no vertices; the region is empty or unbounded")
    bases, clean, ray = walk
    if clean:  # one positive scale, so the integer points sort as the vertices
        bases.sort(key=itemgetter(0))
        vlist = [(tuple(Fraction(c, scale) for c in point), active)
                 for point, _, _, active in bases]
        duals = [tuple(sorted(rows.items())) for _, rows, _, _ in bases]
    else:  # no Delzant polytope: its vertices say why
        vlist, duals = _check_vertices(bases, normals, scale, n, ray), ()

    touched = frozenset().union(*(active for _, active in vlist))
    missing = set(range(len(facets))) - touched
    if missing:
        raise RedundantFacet(
            f"facets {sorted(missing)} support no vertex of the region")

    poly = DelzantPolytope(n=n, facets=tuple(facets), vertices=tuple(vlist),
                           faces=_build_faces(n, vlist), name=name)
    poly._duals.update(enumerate(duals))
    return poly


def _pivot_walk(normals, bounds, n):
    """([(point, rows, d, active facets)] of every feasible basis met,
    whether the walk was clean and whether it met a ray), or None when no
    basis is feasible.  At a basis of n facets whose normals have
    |det| = d, the point is d * scale * vertex in integers, the rows map
    each facet k of the basis to the integer y_k with <eta_j, y_k> =
    d * [j == k] on its facets j (None from the first defect on, as only a
    clean walk's rows are read), and the active facets are those the
    vertex lies on.

    Simplex pivots (Avis-Fukuda, DCG 8, 1992) in integers (Edmonds): the
    edge off facet k runs along -y_k, facet i approaches along it at the
    rate a = -<eta_i, y_k> from the slack s = d * b_i - <eta_i, point>, and
    the edge ends on the facets minimizing s / a over a > 0.  The walk pivots
    onto the one of least index, i: the basis there has d' = a, the point
    (a * point - s * y_k) / d and the rows y'_i = -y_k and
    y'_j = (a * y_j + <eta_i, y_j> * y_k) / d, each division exact.  It goes
    on past a slack of 0, a d' != 1 and an edge that no facet ends, and it
    is clean when it met none of them: then it has seen only simple
    unimodular vertices with bounded edges, one basis each.  Either way it
    reaches every vertex: a functional that only that vertex maximizes
    climbs to it from the start by Bland's rule (Math. Oper. Res. 2, 1977),
    least index first, and each pivot of that rule is one the walk takes.
    So it meets a ray, an edge that no facet ends, whenever the region is
    unbounded: a functional unbounded on it climbs by that rule to one.
    The edge a vertex was reached along leads back, so its far end tests it
    no more when the near end was simple, as its one end is then known."""
    start = _start_vertex(normals, bounds, n)
    if start is None:
        return None
    bases, clean, ray, todo = [], True, False, [(*start, None)]
    seen = {frozenset(start[1])}  # the bases met, each pushed once
    while todo:
        point, rows, d, back = todo.pop()
        key = frozenset(rows)
        slack = {i: d * b - sum(map(mul, eta, point))
                 for i, (eta, b) in enumerate(zip(normals, bounds))
                 if i not in key}
        simple = all(slack.values())
        clean = clean and simple and d == 1
        bases.append((point, rows if clean else None, d, key if simple
                      else key.union(i for i, s in slack.items() if not s)))
        for k, y_k in rows.items():
            if k == back:
                continue  # the edge this vertex was reached along
            block, rate = None, 1
            for i, s in slack.items():
                a = -sum(map(mul, normals[i], y_k))
                if a > 0 and (block is None or s * rate < slack[block] * a):
                    block, rate = i, a
            if block is None:
                clean, ray = False, True
                continue
            target = key - {k} | {block}
            if target in seen:
                continue
            seen.add(target)
            eta, s = normals[block], slack[block]
            nxt = {block: tuple(-z for z in y_k)}
            for j, y in rows.items():
                if j != k:
                    c = sum(map(mul, eta, y))
                    nxt[j] = tuple((rate * x + c * z) // d
                                   for x, z in zip(y, y_k))
            todo.append((tuple((rate * p - s * z) // d
                               for p, z in zip(point, y_k)),
                         nxt, rate, block if simple else None))
    return bases, clean, ray


def _start_vertex(normals, bounds, n):
    """(point, rows, d) at the first feasible basis in the order of
    `combinations`, as `_pivot_walk` keeps them; None when there is none.
    A subset whose leading normals are dependent is skipped with every
    extension, so a cube tries no pair of opposite facets."""
    N = len(normals)
    unit = [[int(r == c) for c in range(n)] for r in range(n)]

    def bases(chosen, echelon):
        if len(chosen) == n:
            yield chosen
            return
        for i in range(chosen[-1] + 1 if chosen else 0,
                       N - n + len(chosen) + 1):
            p, v = linalg.reduce_row(normals[i], echelon)
            if p is not None:
                yield from bases(chosen + (i,), echelon + ((p, v),))

    for subset in bases((), ()):
        # [d * M^-1 b | d * M^-1] = sign(det M) * adj(M) * [b | I]
        det, adj = linalg.adjugate_times(
            [normals[i] for i in subset],
            [[bounds[i]] + unit[r] for r, i in enumerate(subset)])
        d, sign = abs(det), 1 if det > 0 else -1
        y = [sign * row[0] for row in adj]
        if all(linalg.vec_dot(eta, y) <= d * b
               for eta, b in zip(normals, bounds)):
            return tuple(y), {i: tuple(sign * row[c + 1] for row in adj)
                              for c, i in enumerate(subset)}, d
    return None


def _check_vertices(bases, normals, scale, n, ray):
    """The vertices (point, active facets) of the bases a walk met, sorted;
    raises the typed error of the first defect among them: an unbounded
    edge (sought only when the walk met a ray), a region of lower
    dimension, a vertex on more than n facets or one whose n normals have
    |det| != 1."""
    found = {}  # active facets, which pin a vertex down -> (vertex, d)
    for point, _, d, active in bases:
        if active not in found:
            found[active] = (tuple(Fraction(c, d * scale) for c in point), d)
    vlist = sorted((point, active) for active, (point, _) in found.items())
    if ray:
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
    return vlist


def _build_faces(n, vertices):
    """Every nonempty intersection of facets over the (point, facet set)
    vertices, keyed by the full facet set containing it (Delta by {}).

    The faces of a simple polytope through a vertex are the subsets of its
    n facets, so one pass over the vertices lists every face's vertices."""
    members = {frozenset(): list(range(len(vertices)))}
    for vid, (point, vf) in enumerate(vertices):
        if len(vf) != n:
            raise NotSimple(
                f"vertex ({', '.join(map(str, point))}) lies on {len(vf)} "
                f"facets {sorted(vf)}")
        for size in range(1, n + 1):
            for sub in combinations(sorted(vf), size):
                members.setdefault(frozenset(sub), []).append(vid)
    return {s: Face(facets=s, dim=n - len(s), vertex_ids=tuple(vids))
            for s, vids in members.items()}


@dataclass(frozen=True)
class FaceLattice:
    """What walking the face lattice needs of the face keys alone."""
    ordered: tuple  # the keys in `sorted` order: a key's rank is its index
    subfaces: dict  # key -> its immediate subfaces, the faces key | {i}


def build_face_lattice(keys):
    """The `FaceLattice` of the face keys `keys` (any iterable of facet
    frozensets, such as a polytope's `faces`).  A key's immediate subfaces
    come by increasing i, found from their side: sub is one of key's when
    sub - {i} is key.  They are the very key objects of `keys`, so a dict
    keyed by them finds each by identity."""
    lookup = {key: key for key in keys}
    subfaces = {key: [] for key in lookup}
    for i in sorted(frozenset().union(*lookup)):
        for sub in lookup:
            if i in sub:
                key = lookup.get(sub - {i})
                if key is not None:
                    subfaces[key].append(sub)
    return FaceLattice(
        ordered=tuple(sorted(lookup, key=sorted)),
        subfaces={key: tuple(subs) for key, subs in subfaces.items()})


# ---------------------------------------------------------------- dual cones

def _check_int_vector(v, n):
    """v as a tuple of n ints, zero allowed: a circle direction before its
    nonzero check, or a vector of the normal fan."""
    v = tuple(v)
    if len(v) != n:
        raise DimensionMismatch(
            f"the circle direction has {len(v)} entries, not {n}")
    for x in v:
        if type(x) is not int:
            raise NonIntegralCoefficient(
                f"the circle direction has the non-integer entry {x!r}")
    return v


def dual_cone_face(poly, v):
    """The unique face whose dual cone contains integer vector v, plus the
    coefficient map over the facets of that face.

    Checks v as n ints (the zero vector gives the whole polytope), locates a
    vertex cone containing v, solves in the vertex's unimodular normal
    basis, and drops zero coefficients.
    """
    v = _check_int_vector(v, poly.n)
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


def edge_classes_through(poly, face):
    """Classes of the edges meeting a face (including edges inside it),
    each computed once per polytope by `edge_class`: the edges at a vertex
    v are its facet set minus one facet, ordered here by (first vertex,
    sorted facets).  The pairs are kept per face on the polytope, and each
    call returns them in a new list."""
    pairs = poly._face_edges.get(face.facets)
    if pairs is None:
        keys = {vf - {i} for vf in map(poly.vertex_facets, face.vertex_ids)
                for i in vf}
        edges = sorted(map(poly.faces.__getitem__, keys),
                       key=lambda e: (e.vertex_ids[0], sorted(e.facets)))
        pairs = poly._face_edges[face.facets] = tuple(
            (e, edge_class(poly, e)) for e in edges)
    return list(pairs)


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
    """`DelzantPolytope.primitive_sets`, in a new list."""
    return list(poly.primitive_sets)


# ----------------------------------------------------------------- centroid

def centroid(poly):
    """`DelzantPolytope.centroid`, computed once per polytope."""
    return poly.centroid


def normalize(poly):
    """`DelzantPolytope.normalized`: the centroid moved to the origin."""
    return poly.normalized


# ------------------------------------------------- the linear elimination

def _eliminate(poly):
    """Choose one variable per linear relation to eliminate.

    Pivot preference per row: the first variable with coefficient -1, then
    +1, then any.  Returns (kept indices, images), images mapping every full
    variable index to its expression in the kept variables.  The rows are
    the integer normal coordinates; only a pivot c with |c| > 1 divides
    into Fractions.  An integral image coefficient is an int.
    """
    N, n = poly.num_facets, poly.n
    elim = {}  # var index -> full-width row (its expression, pivot zeroed)
    order = []
    for j in range(n):
        r = [poly.normal(i)[j] for i in range(N)]
        for e, expr in elim.items():
            c = r[e]
            if c:
                r = [a + c * b for a, b in zip(r, expr)]
                r[e] = 0
        free = [i for i, c in enumerate(r) if c and i not in elim]
        if not free:
            raise Unbounded("linear relations are not independent: the "
                            "facet normals do not span")
        pivot = next((i for want in (-1, 1) for i in free if r[i] == want),
                     free[0])
        c = r[pivot]
        # -a / c is -a * c for c = +-1
        expr = [-c * a for a in r] if c in (1, -1) else \
            [Fraction(-a, c) for a in r]
        expr[pivot] = 0
        elim[pivot] = expr
        order.append(pivot)
    # back-substitution: later rules may appear inside earlier expressions
    for e in reversed(order):
        for e2 in order:
            if e2 == e:
                continue
            expr = elim[e2]
            c = expr[e]
            if c:
                elim[e2] = [a + c * b for a, b in zip(expr, elim[e])]
                elim[e2][e] = 0
    kept = tuple(i for i in range(N) if i not in elim)
    width = len(kept)
    units = {i: tuple(1 if k == pos else 0 for k in range(width))
             for pos, i in enumerate(kept)}
    images = {}
    for i in range(N):
        if i in elim:
            images[i] = {units[k]: c.numerator if type(c) is Fraction
                         and c.denominator == 1 else c
                         for k, c in enumerate(elim[i]) if c}
        else:
            images[i] = {units[i]: 1}
    return kept, images


@dataclass(frozen=True)
class Elimination:
    """`DelzantPolytope.elimination`, with a memo of monomial images."""
    kept: tuple
    images: dict  # full index -> kept-width poly
    linear_gens: tuple
    sr_gens: dict  # primitive key -> full-variable monomial
    sr_images: tuple  # per primitive set, in order: the basis inputs
    _kept: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def monomial_image(self, mono):
        """Kept-variable image of a full monomial, once per polytope; the
        memoized dict itself, to be read, never mutated."""
        image = self._kept.get(mono)
        if image is None:
            image = self._kept[mono] = poly_substitute(
                {mono: 1}, self.images, len(self.kept))
        return image


# -------------------------------------------------------------- Morse data

@dataclass(frozen=True)
class MorseTable:
    """`DelzantPolytope.morse`: the height generic_vector(poly), and its
    weights at each vertex, minus its coefficients in the normal basis."""
    height: tuple
    weights: tuple  # per vertex: facet index -> weight


def generic_vector(poly):
    """Deterministic generic direction: (1, M, M^2, ...) with M one more
    than the largest scaled vertex coordinate, escalated if needed.  Each
    trial is integer dot products with the scaled vertices."""
    _, points = poly.scaled_vertices
    M = 1 + max(abs(x) for p in points for x in p)
    for _ in range(64):
        xi = tuple(M ** j for j in range(poly.n))
        if len({linalg.vec_dot(xi, p) for p in points}) == len(points):
            return xi
        M = 2 * M + 1
    raise NonGenericVector("could not find a separating direction")


def face_betti(poly, face, xi):
    """Betti numbers of the toric manifold over a face: its vertices counted
    by the number of edges inside the face along which the height <xi, .>
    descends, for a generic xi.  Leaving vertex v along the edge off facet
    k moves against the dual functional of k, so the edge descends iff the
    coordinate of xi at v on facet k is positive."""
    counts = [0] * (face.dim + 1)
    for vid in face.vertex_ids:
        coords = poly.coordinates(vid, xi)
        counts[sum(1 for k, c in coords.items()
                   if c > 0 and k not in face.facets)] += 1
    return tuple(counts)
