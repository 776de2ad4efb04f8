"""The classical ring H*(M;Q) = Q[x_1..x_N]/(P(Delta) + SR(Delta)).

The API speaks in all N facet variables.  Internally the linear ideal is
eliminated up front, once per polytope (`DelzantPolytope.elimination`): a
deterministic pivot choice expresses one variable per linear generator in
terms of the others, and the Groebner machinery runs in the remaining
"kept" variables.  Each ring builds its own traced basis and keeps only
the memo that depends on it, the normal forms; a full monomial of degree
> n reduces to zero with no division.  Normal forms come with a trace
over the Stanley-Reisner generators, which the quantum layer consumes.

Faces enter one way each: the restriction of a class to any face, a vertex
included, is its product with the face's class [F], and the Betti numbers
of a face, the whole polytope included, are one Morse count of its
vertices by descending edges, `polytope.face_betti`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import prod

from . import linalg
from .errors import DegenerateRing, NonGenericVector, WrongDegree
from .polynomials import TracedBasis, mono_degree, poly_monomial, poly_mul
from .polytope import face_betti, generic_vector  # noqa: F401 (re-export)


@dataclass(frozen=True)
class ClassicalRing:
    """A value, built whole by `build_ring`, sharing the kept indices, images
    and generators of the polytope's `elimination`; derived data are cached."""
    polytope: object
    prims: tuple
    linear_gens: tuple  # full-variable polynomials
    sr_gens: dict  # primitive key -> full-variable monomial
    kept: tuple  # kept full-variable indices, in input order
    images: dict = field(repr=False)  # full index -> kept-width poly
    basis: TracedBasis = field(repr=False)
    gen_keys: tuple  # the primitive key of each basis generator
    standard_monomials: tuple
    betti: tuple
    # filled on first use: per full monomial, its normal form
    _reduced: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    # -- variable handling -----------------------------------------------------

    @property
    def width(self):
        return len(self.kept)

    def monomial_image(self, mono):
        """Kept-variable image of a full monomial, from the polytope's memo;
        the memoized dict itself, to be read, never mutated."""
        return self.polytope.elimination.monomial_image(mono)

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
        """Normal form of a full monomial's image, computed once per ring,
        and a new {} above degree n with no division; the memoized dict
        itself, to be read, never mutated."""
        nf = self._reduced.get(mono)
        if nf is None:
            nf = self._reduced[mono] = {} if sum(mono) > self.polytope.n \
                else self.nf(self.monomial_image(mono))
        return nf

    def reduce_full(self, full_poly):
        """Normal form of a full-variable polynomial, as a new dict summed
        from the memoized normal forms of its monomials' images."""
        return _combine(full_poly, self.monomial_nf)

    # -- integration and pairing ---------------------------------------------------

    @cached_property
    def localization(self):
        """Per vertex v: the weight w_i(v) of the polytope's generic height
        at each kept x_i (0 if facet i misses v), and the product of the n
        w_i(v), read off the polytope's Morse table."""
        return tuple((tuple(w.get(i, 0) for i in self.kept), prod(w.values()))
                     for w in self.polytope.morse.weights)

    def integrate(self, poly):
        """Integral of a homogeneous top-degree class over the manifold, by
        localization at the vertices (Atiyah-Bott, Berline-Vergne): the sum
        over v of f|_v / prod_{i in F(v)} w_i(v), where x_i restricts at v
        to w_i(v) if facet i holds v, else to 0."""
        if not poly:
            return Fraction(0)
        n = self.polytope.n
        if any(mono_degree(m) != n for m in poly):
            raise WrongDegree(
                f"integrand must be homogeneous of cohomological degree {2 * n}")
        return sum((Fraction(sum(c * prod(map(pow, weights, m))
                                 for m, c in poly.items()), euler)
                    for weights, euler in self.localization), Fraction(0))

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
    """The ring of poly, with its own traced Groebner basis of the
    polytope's Stanley-Reisner images; the Betti numbers, counted on the
    standard monomials, must sum to the vertex count."""
    elim, prims = poly.elimination, poly.primitive_sets
    basis = TracedBasis(elim.sr_images)
    standard = basis.standard_monomials(limit=4 * max(len(poly.vertices), 4))
    betti = [0] * (poly.n + 1)
    for m in standard:
        betti[mono_degree(m)] += 1
    if sum(betti) != len(poly.vertices):
        raise DegenerateRing(
            f"quotient dimension {sum(betti)} differs from the vertex "
            f"count {len(poly.vertices)}")
    return ClassicalRing(
        polytope=poly, prims=prims, linear_gens=elim.linear_gens,
        sr_gens=elim.sr_gens, kept=elim.kept, images=elim.images,
        basis=basis, gen_keys=tuple(p.key for p in prims),
        standard_monomials=standard, betti=tuple(betti))


# ------------------------------------------------------------- Morse counts

def betti_morse(poly, xi):
    """Vertex counts by Morse index of <xi, .>; requires xi generic."""
    _, points = poly.scaled_vertices
    if len({linalg.vec_dot(xi, p) for p in points}) != len(points):
        raise NonGenericVector(
            f"{tuple(xi)} does not separate the vertices")
    return face_betti(poly, poly.face(frozenset()), xi)


# -------------------------------------------------------------------- faces

def restrict_to_face(ring, full_poly, face):
    """Restriction H*(M) -> H*(F) to the toric submanifold F over a face.

    A class a|F is represented by its pushforward a * [F] in H*(M), the
    normal form of a * x_F with x_F the product of the facet variables
    containing F (x_F = 1 for the whole polytope, the point class for a
    vertex).  The representation is faithful: H*(F) is generated by
    restricted facet classes and F and M both satisfy Poincare duality, so
    pushforward is injective on H*(F), and `ring.integrate` of a result of
    top degree is the integral of a over F.
    """
    poly = ring.polytope
    x_face = poly_monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    return ring.reduce_full(poly_mul(full_poly, x_face))
