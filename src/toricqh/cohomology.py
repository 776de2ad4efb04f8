"""The classical ring H*(M;Q) = Q[x_1..x_N]/(P(Delta) + SR(Delta)).

The API speaks in all N facet variables.  Internally the linear ideal is
eliminated up front: a deterministic pivot choice expresses one variable per
linear generator in terms of the others, and the Groebner machinery runs in
the remaining "kept" variables.  Normal forms come with a trace over the
Stanley-Reisner generators, which the quantum layer consumes.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from . import linalg
from .errors import (
    NonGenericVector,
    RestrictionNotResolved,
    WrongDegree,
)
from .polynomials import (
    TracedBasis,
    mono_degree,
    poly_add,
    poly_const,
    poly_is_homogeneous,
    poly_mul,
    poly_scale,
    poly_substitute,
    poly_var,
)
from .polytope import primitive_sets, validate_delzant


def classical_generators(poly, prims=None):
    """Linear generators of P(Delta) (one per standard basis functional) and
    the Stanley-Reisner monomial generators (one per primitive set, from
    `prims` when given), in the full N facet variables."""
    N = poly.num_facets
    linear = []
    for j in range(poly.n):
        gen = {}
        for i in range(N):
            c = poly.normal(i)[j]
            if c:
                gen[tuple(1 if k == i else 0 for k in range(N))] = Fraction(c)
        linear.append(gen)
    monomials = {}
    for p in primitive_sets(poly) if prims is None else prims:
        expo = [0] * N
        for i in p.indices:
            expo[i] = 1
        monomials[p.key] = {tuple(expo): Fraction(1)}
    return linear, monomials


def _eliminate(poly):
    """Choose one variable per linear relation to eliminate.

    Pivot preference per row: the first variable with coefficient -1, then
    the first with +1, then the first nonzero.  Returns (kept indices,
    images) where images maps every full variable index to its expression in
    the kept variables.
    """
    N, n = poly.num_facets, poly.n
    rows = [[Fraction(poly.normal(i)[j]) for i in range(N)]
            for j in range(n)]
    elim = {}  # var index -> full-width row (its expression, pivot zeroed)
    order = []
    for row in rows:
        r = list(row)
        for e, expr in elim.items():
            if r[e]:
                c = r[e]
                r = [a + c * b for a, b in zip(r, expr)]
                r[e] = Fraction(0)
        pivot = next((i for i, c in enumerate(r) if c == -1 and i not in elim),
                     None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c == 1 and i not in elim), None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c != 0 and i not in elim), None)
        assert pivot is not None, "linear relations are not independent"
        c = r[pivot]
        expr = [-a / c for a in r]
        expr[pivot] = Fraction(0)
        elim[pivot] = expr
        order.append(pivot)
    # back-substitution: later rules may appear inside earlier expressions
    for e in reversed(order):
        for e2 in order:
            if e2 == e:
                continue
            expr = elim[e2]
            if expr[e]:
                c = expr[e]
                elim[e2] = [a + c * b for a, b in zip(expr, elim[e])]
                elim[e2][e] = Fraction(0)
    kept = tuple(i for i in range(N) if i not in elim)
    width = len(kept)
    pos = {i: k for k, i in enumerate(kept)}
    images = {}
    for i in range(N):
        if i in elim:
            img = {}
            for k, c in enumerate(elim[i]):
                if c:
                    img = poly_add(img, poly_scale(poly_var(pos[k], width), c))
            images[i] = img
        else:
            images[i] = poly_var(pos[i], width)
    return kept, images


@dataclass
class ClassicalRing:
    polytope: object
    prims: list
    linear_gens: list  # full-variable polynomials
    sr_gens: dict  # primitive key -> full-variable monomial
    kept: tuple  # kept full-variable indices, in input order
    images: dict = field(repr=False)  # full index -> kept-width poly
    basis: TracedBasis = field(repr=False, default=None)
    gen_keys: tuple = ()
    standard_monomials: tuple = ()
    betti: tuple = ()
    _face_cache: dict = field(default_factory=dict, repr=False)

    # -- variable handling -----------------------------------------------------

    @property
    def width(self):
        return len(self.kept)

    def substitute(self, full_poly):
        """Rewrite a full-variable polynomial in the kept variables."""
        return poly_substitute(full_poly, self.images, self.width)

    def var(self, i):
        """Kept-variable image of the facet class x_i (0-based facet index)."""
        return dict(self.images[i])

    # -- normal forms -----------------------------------------------------------

    def nf_traced(self, kept_poly):
        """Normal form plus the cofactor of every Stanley-Reisner generator
        used, keyed by primitive set."""
        nf, trace = self.basis.normal_form_traced(kept_poly)
        return nf, {self.gen_keys[gi]: cof for gi, cof in trace.items()}

    def nf(self, kept_poly):
        return self.basis.normal_form(kept_poly)

    def reduce_full(self, full_poly):
        return self.nf(self.substitute(full_poly))

    # -- integration and pairing ---------------------------------------------------

    def _top_monomial(self):
        tops = [m for m in self.standard_monomials
                if mono_degree(m) == self.polytope.n]
        assert len(tops) == 1, "top cohomology is one dimensional"
        return tops[0]

    def reference_vertex_monomial(self):
        """Product of the facet classes through the lex-least vertex."""
        vf = sorted(self.polytope.vertex_facets(0))
        out = poly_const(1, self.width)
        for i in vf:
            out = poly_mul(out, self.var(i))
        return out

    def integrate(self, poly, full_vars=False):
        """Integral of a homogeneous top-degree class over the manifold."""
        work = self.substitute(poly) if full_vars else dict(poly)
        if not work:
            return Fraction(0)
        n = self.polytope.n
        if any(mono_degree(m) != n for m in work):
            raise WrongDegree(
                f"integrand must be homogeneous of cohomological degree {2 * n}")
        nf = self.nf(work)
        top = self._top_monomial()
        ref = self.nf(self.reference_vertex_monomial())
        assert set(ref) <= {top} and ref, "reference vertex monomial degenerate"
        return nf.get(top, Fraction(0)) / ref[top]

    def poincare_pair(self, a, b, full_vars=False):
        """Integral of a*b; 0 by convention when degrees do not complement."""
        pa = self.substitute(a) if full_vars else a
        pb = self.substitute(b) if full_vars else b
        if not pa or not pb:
            return Fraction(0)
        if not (poly_is_homogeneous(pa) and poly_is_homogeneous(pb)):
            raise WrongDegree("pairing needs homogeneous classes")
        da = mono_degree(next(iter(pa)))
        db = mono_degree(next(iter(pb)))
        if da + db != self.polytope.n:
            return Fraction(0)
        return self.integrate(poly_mul(pa, pb))

    def pd_matrix(self, degree):
        """Pairing matrix between standard monomials of cohomological degree
        `degree` and those of complementary degree."""
        k = degree // 2
        n = self.polytope.n
        rows = [m for m in self.standard_monomials if mono_degree(m) == k]
        cols = [m for m in self.standard_monomials if mono_degree(m) == n - k]
        return [[self.integrate(poly_mul({r: Fraction(1)}, {c: Fraction(1)}))
                 for c in cols] for r in rows]

    # -- faces -------------------------------------------------------------------

    def face_ring(self, face):
        key = face.facets
        if key not in self._face_cache:
            self._face_cache[key] = _build_face_ring(self, face)
        return self._face_cache[key]

    def restrict_to_face(self, full_poly, face):
        return restrict_to_face(self, full_poly, face)


def build_ring(poly):
    prims = primitive_sets(poly)
    linear, monomials = classical_generators(poly, prims)
    kept, images = _eliminate(poly)
    ring = ClassicalRing(polytope=poly, prims=prims, linear_gens=linear,
                         sr_gens=monomials, kept=kept, images=images)
    gen_keys = tuple(p.key for p in prims)
    gens = [poly_substitute(monomials[k], images, len(kept))
            for k in gen_keys]
    ring.gen_keys = gen_keys
    ring.basis = TracedBasis(gens)
    ring.standard_monomials = ring.basis.standard_monomials(
        limit=4 * max(len(poly.vertices), 4))
    counts = [0] * (poly.n + 1)
    for m in ring.standard_monomials:
        counts[mono_degree(m)] += 1
    ring.betti = tuple(counts)
    assert sum(ring.betti) == len(poly.vertices), \
        "quotient dimension must equal the vertex count"
    return ring


# ------------------------------------------------------------- Morse counts

def vertex_weights(poly, vid, xi):
    """Weights of the circle xi at a vertex: minus the coefficients of xi in
    the vertex's outward normal basis, keyed by facet index."""
    return {i: -c for i, c in poly.coordinates(vid, xi).items()}


def betti_morse(poly, xi):
    """Vertex counts by Morse index of <xi, .>; requires xi generic."""
    kvals = [linalg.vec_dot(xi, poly.vertex_point(v))
             for v in range(len(poly.vertices))]
    if len(set(kvals)) != len(kvals):
        raise NonGenericVector(
            f"{tuple(xi)} does not separate the vertices")
    counts = [0] * (poly.n + 1)
    for vid in range(len(poly.vertices)):
        w = vertex_weights(poly, vid, xi)
        counts[sum(1 for x in w.values() if x < 0)] += 1
    return tuple(counts)


def generic_vector(poly):
    """Deterministic generic direction: (1, M, M^2, ...) with M one more
    than the largest integerized vertex coordinate, escalated if needed."""
    den = 1
    for vid in range(len(poly.vertices)):
        for x in poly.vertex_point(vid):
            d = Fraction(x).denominator
            den = den * d // gcd(den, d)
    magnitude = max((abs(int(x * den)) for vid in range(len(poly.vertices))
                     for x in poly.vertex_point(vid)), default=1)
    M = 1 + magnitude
    for _ in range(64):
        xi = tuple(M ** j for j in range(poly.n))
        kvals = [linalg.vec_dot(xi, poly.vertex_point(v))
                 for v in range(len(poly.vertices))]
        if len(set(kvals)) == len(kvals):
            return xi
        M = 2 * M + 1
    raise NonGenericVector("could not find a separating direction")


# ---------------------------------------------------------------- face rings

class PointRing:
    """The ring of a vertex face: just Q."""

    width = 0
    standard_monomials = ((),)
    betti = (1,)

    def __init__(self, face):
        self.face = face

    def nf(self, poly):
        return dict(poly)

    def integrate(self, poly, full_vars=False):
        return poly.get((), Fraction(0))


@dataclass
class FaceRing:
    """The classical ring of the toric manifold over a face, together with
    the data needed to map classes of the ambient manifold into it."""
    face: object
    polytope: object  # the face as a Delzant polytope in its own lattice
    ring: ClassicalRing
    facet_order: tuple  # ambient facet index per face facet

    @property
    def width(self):
        return self.ring.width

    def nf(self, poly):
        return self.ring.nf(poly)

    def integrate(self, poly, full_vars=False):
        return self.ring.integrate(poly, full_vars=full_vars)

    @property
    def betti(self):
        return self.ring.betti


def _build_face_ring(ring, face):
    poly = ring.polytope
    if face.dim == 0:
        return PointRing(face)
    if face.dim == poly.n:
        return FaceRing(face=face, polytope=poly, ring=ring,
                        facet_order=tuple(range(poly.num_facets)))
    S = sorted(face.facets)
    normal_rows = [list(poly.normal(i)) for i in S]
    lattice = linalg.kernel_basis_int(normal_rows)
    assert len(lattice) == face.dim
    base = poly.vertex_point(poly.lex_least_vertex_of(face))
    specs = []
    order = []
    for m in range(poly.num_facets):
        if m in face.facets:
            continue
        key = face.facets | {m}
        if key not in poly.faces:
            continue
        sub = poly.faces[key]
        if sub.dim != face.dim - 1:
            raise RestrictionNotResolved(
                f"facet {m} meets face {sorted(face.facets)} improperly")
        normal = tuple(linalg.vec_dot(poly.normal(m), w) for w in lattice)
        support = poly.support(m) - linalg.vec_dot(poly.normal(m), base)
        specs.append((normal, support, poly.facets[m].label))
        order.append(m)
    sub_poly = validate_delzant(specs, name=f"{poly.name}|{sorted(face.facets)}")
    return FaceRing(face=face, polytope=sub_poly, ring=build_ring(sub_poly),
                    facet_order=tuple(order))


def restrict_to_face(ring, full_poly, face, _budget=None):
    """Restriction H*(M) -> H*(face manifold).

    First rewrites away the variables of facets containing the face (using
    the dual basis at a vertex of the face, which exists by smoothness), then
    maps each remaining variable to the matching facet class of the face, or
    to zero for empty intersections.  Improper intersections would trigger
    further rewriting; on a simple polytope they cannot occur, and a budget
    guards the loop so a failure is reported rather than silently wrong.
    """
    poly = ring.polytope
    face_ring = ring.face_ring(face)
    if face.dim == poly.n:
        return face_ring, ring.reduce_full(full_poly)
    N = poly.num_facets
    duals = dict(poly.dual_basis(poly.lex_least_vertex_of(face)))
    budget = _budget if _budget is not None else N * N + 4

    def rewrite_rule(i):
        # dual functional: <xi, eta_i> = 1, zero on the other facets at a
        # vertex of the face containing D_i
        if i not in duals:
            raise RestrictionNotResolved(
                f"no vertex of the face lies on facet {i}")
        xi = duals[i]
        expr = {}
        for k in range(N):
            if k == i:
                continue
            c = -linalg.vec_dot(xi, poly.normal(k))
            if c:
                expr = poly_add(expr, poly_scale(poly_var(k, N), c))
        return expr

    work = dict(full_poly)
    for i in sorted(face.facets):
        images = {k: poly_var(k, N) for k in range(N)}
        images[i] = rewrite_rule(i)
        work = poly_substitute(work, images, N)

    # now map remaining variables into the face ring, rewriting any improper
    # intersection until none remain
    for _ in range(budget):
        improper = None
        for m in set(k for mono in work for k, e in enumerate(mono) if e):
            if m in face.facets:
                improper = m  # reintroduced; rewrite again
                break
            key = face.facets | {m}
            if key in poly.faces and poly.faces[key].dim < face.dim - 1:
                improper = m
                break
        if improper is None:
            break
        images = {k: poly_var(k, N) for k in range(N)}
        images[improper] = rewrite_rule(improper)
        work = poly_substitute(work, images, N)
    else:
        raise RestrictionNotResolved(
            f"rewriting did not terminate for face {sorted(face.facets)}")

    if face.dim == 0:
        const = {(): work.get((0,) * N, Fraction(0))}
        if not const[()]:
            const = {}
        return face_ring, const

    face_full_width = len(face_ring.facet_order)
    images = {}
    for m in range(N):
        if m in face.facets:
            images[m] = {}
        elif face.facets | {m} in poly.faces:
            pos = face_ring.facet_order.index(m)
            images[m] = poly_var(pos, face_full_width)
        else:
            images[m] = {}
    mapped = poly_substitute(work, images, face_full_width)
    return face_ring, face_ring.ring.reduce_full(mapped)


def face_betti(poly, face, xi=None):
    """Betti numbers of the toric manifold over a face, by counting its
    vertices according to the number of descending edges inside the face."""
    if face.dim == 0:
        return (1,)
    edges = [f for f in poly.faces.values()
             if f.dim == 1 and face.facets <= f.facets]

    def kval(v, direction):
        return linalg.vec_dot(direction, poly.vertex_point(v))

    direction = xi
    if direction is None:
        # deterministic generic choice within the face
        M = 2
        for _ in range(64):
            direction = tuple(M ** j for j in range(poly.n))
            vals = [kval(v, direction) for v in face.vertex_ids]
            if len(set(vals)) == len(vals):
                break
            M = 2 * M + 1
    vals = {v: kval(v, direction) for v in face.vertex_ids}
    if len(set(vals.values())) != len(vals):
        raise NonGenericVector("direction does not separate face vertices")
    counts = [0] * (face.dim + 1)
    for v in face.vertex_ids:
        down = 0
        for e in edges:
            if v not in e.vertex_ids:
                continue
            other = next(w for w in e.vertex_ids if w != v)
            if vals[other] < vals[v]:
                down += 1
        counts[down] += 1
    return tuple(counts)
