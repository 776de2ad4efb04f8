"""The classical ring H*(M;Q) = Q[x_1..x_N]/(P(Delta) + SR(Delta)).

The API speaks in all N facet variables.  Internally the linear ideal is
eliminated up front: a deterministic pivot choice expresses one variable per
linear generator in terms of the others, and the Groebner machinery runs in
the remaining "kept" variables.  Normal forms come with a trace over the
Stanley-Reisner generators, which the quantum layer consumes.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .errors import DegenerateRing, NonGenericVector, Unbounded, WrongDegree
from .polynomials import (
    TracedBasis,
    mono_degree,
    poly_add,
    poly_monomial,
    poly_mul,
    poly_scale,
    poly_substitute,
    poly_var,
)
from .polytope import primitive_sets


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
    monomials = {p.key: poly_monomial(dict.fromkeys(p.indices, 1), N)
                 for p in (primitive_sets(poly) if prims is None else prims)}
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
        if pivot is None:
            raise Unbounded("linear relations are not independent: the "
                            "facet normals do not span")
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
    # derived on first use, one value per full monomial: its kept-variable
    # image, and the normal form of that image
    _kept: dict = field(default_factory=dict, repr=False, compare=False)
    _reduced: dict = field(default_factory=dict, repr=False, compare=False)

    # -- variable handling -----------------------------------------------------

    @property
    def width(self):
        return len(self.kept)

    def monomial_image(self, mono):
        """Kept-variable image of a full monomial, computed once per ring;
        the memoized dict itself, to be read, never mutated."""
        image = self._kept.get(mono)
        if image is None:
            image = self._kept[mono] = poly_substitute(
                {mono: Fraction(1)}, self.images, self.width)
        return image

    def substitute(self, full_poly):
        """Rewrite a full-variable polynomial in the kept variables, as a
        new dict summed from the memoized monomial images."""
        return _combine(full_poly, self.monomial_image)

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

    def monomial_nf(self, mono):
        """Normal form of a full monomial's image, computed once per ring;
        the memoized dict itself, to be read, never mutated."""
        nf = self._reduced.get(mono)
        if nf is None:
            nf = self._reduced[mono] = self.nf(self.monomial_image(mono))
        return nf

    def reduce_full(self, full_poly):
        """Normal form of a full-variable polynomial, as a new dict summed
        from the memoized normal forms of its monomials' images."""
        return _combine(full_poly, self.monomial_nf)

    # -- integration and pairing ---------------------------------------------------

    def _top_monomial(self):
        tops = [m for m in self.standard_monomials
                if mono_degree(m) == self.polytope.n]
        if len(tops) != 1:
            raise DegenerateRing("top cohomology is not one dimensional")
        return tops[0]

    def reference_vertex_monomial(self):
        """Product of the facet classes through the lex-least vertex."""
        return self.substitute(poly_monomial(
            dict.fromkeys(self.polytope.vertex_facets(0), 1),
            self.polytope.num_facets))

    def integrate(self, poly):
        """Integral of a homogeneous top-degree class over the manifold."""
        if not poly:
            return Fraction(0)
        n = self.polytope.n
        if any(mono_degree(m) != n for m in poly):
            raise WrongDegree(
                f"integrand must be homogeneous of cohomological degree {2 * n}")
        nf = self.nf(poly)
        top = self._top_monomial()
        ref = self.nf(self.reference_vertex_monomial())
        if not ref or not set(ref) <= {top}:
            raise DegenerateRing("reference vertex monomial is not a nonzero "
                                 "multiple of the top class")
        return nf.get(top, Fraction(0)) / ref[top]

    def pd_matrix(self, degree):
        """Pairing matrix between standard monomials of cohomological degree
        `degree` and those of complementary degree."""
        k = degree // 2
        n = self.polytope.n
        rows = [m for m in self.standard_monomials if mono_degree(m) == k]
        cols = [m for m in self.standard_monomials if mono_degree(m) == n - k]
        return [[self.integrate(poly_mul({r: Fraction(1)}, {c: Fraction(1)}))
                 for c in cols] for r in rows]


def _combine(full_poly, image_of):
    """The sum of c * image_of(m) over the terms c*m of a full-variable
    polynomial, without zero coefficients."""
    out = {}
    for m, c in full_poly.items():
        for k, v in image_of(m).items():
            out[k] = out.get(k, 0) + c * v
    return {k: v for k, v in out.items() if v}


def build_ring(poly):
    prims = primitive_sets(poly)
    linear, monomials = classical_generators(poly, prims)
    kept, images = _eliminate(poly)
    ring = ClassicalRing(polytope=poly, prims=prims, linear_gens=linear,
                         sr_gens=monomials, kept=kept, images=images)
    gen_keys = tuple(p.key for p in prims)
    ring.gen_keys = gen_keys
    ring.basis = TracedBasis([ring.substitute(monomials[k])
                              for k in gen_keys])
    ring.standard_monomials = ring.basis.standard_monomials(
        limit=4 * max(len(poly.vertices), 4))
    counts = [0] * (poly.n + 1)
    for m in ring.standard_monomials:
        counts[mono_degree(m)] += 1
    ring.betti = tuple(counts)
    if sum(ring.betti) != len(poly.vertices):
        raise DegenerateRing(
            f"quotient dimension {sum(ring.betti)} differs from the vertex "
            f"count {len(poly.vertices)}")
    return ring


# ------------------------------------------------------------- Morse counts

def vertex_weights(poly, vid, xi):
    """Weights of the circle xi at a vertex: minus the coefficients of xi in
    the vertex's outward normal basis, keyed by facet index."""
    return {i: -c for i, c in poly.coordinates(vid, xi).items()}


def betti_morse(poly, xi):
    """Vertex counts by Morse index of <xi, .>; requires xi generic."""
    _, points = poly.scaled_vertices()
    kvals = [linalg.vec_dot(xi, p) for p in points]
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
    than the largest scaled vertex coordinate, escalated if needed.  Each
    trial is integer dot products with the scaled vertices."""
    _, points = poly.scaled_vertices()
    M = 1 + max(abs(x) for p in points for x in p)
    for _ in range(64):
        xi = tuple(M ** j for j in range(poly.n))
        if len({linalg.vec_dot(xi, p) for p in points}) == len(points):
            return xi
        M = 2 * M + 1
    raise NonGenericVector("could not find a separating direction")


# -------------------------------------------------------------------- faces

class PointRing:
    """The ring of a vertex face: just Q."""

    def __init__(self, face):
        self.face = face

    def integrate(self, poly):
        return poly.get((), Fraction(0))


def restrict_to_face(ring, full_poly, face):
    """Restriction H*(M) -> H*(F) to the toric submanifold F over a face.

    A class a|F is represented by its pushforward a * [F] in H*(M), the
    normal form of a * x_F with x_F the product of the facet variables
    containing F (x_F = 1 for the whole polytope).  The representation is
    faithful: H*(F) is generated by restricted facet classes and F and M
    both satisfy Poincare duality, so pushforward is injective on H*(F), and
    `ring.integrate` of a result of top degree is the integral of a over F.
    Returns (ring, class); a vertex returns (PointRing(face), {(): c}) with
    c the constant term of a, or an empty class when c is 0.
    """
    poly = ring.polytope
    N = poly.num_facets
    if face.dim == 0:
        c = full_poly.get((0,) * N, Fraction(0))
        return PointRing(face), ({(): c} if c else {})
    x_face = poly_monomial(dict.fromkeys(face.facets, 1), N)
    return ring, ring.reduce_full(poly_mul(full_poly, x_face))


def face_betti(poly, face):
    """Betti numbers of the toric manifold over a face: its vertices counted
    by the number of edges inside the face along which the generic height
    <generic_vector(poly), .> descends.  Leaving vertex v along the edge off
    facet k moves against the dual functional of k, so the edge descends
    iff the coordinate of the direction at v on facet k is positive."""
    if face.dim == 0:
        return (1,)  # no edges, and no direction to find
    xi = generic_vector(poly)
    counts = [0] * (face.dim + 1)
    for vid in face.vertex_ids:
        coords = poly.coordinates(vid, xi)
        counts[sum(1 for k, c in coords.items()
                   if c > 0 and k not in face.facets)] += 1
    return tuple(counts)
