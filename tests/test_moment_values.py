"""Moment values and vertex scans on the integer vertices.

`DelzantPolytope.scaled_vertices` gives the lcm D of the vertex
denominators and the vertices times D.  `CircleTable.values` is
Fraction(<xi, point>, D), and `generic_vector`, `centroid` and `betti_morse`
read the same pair.  Each must equal the former computation: a `Fraction`
dot product per vertex for the moment values, and verbatim copies of the
former private scalings below.  The corpus is the ten corpus polytopes and
translated copies whose supports carry denominators.  The centroid, a vertex
sum by localization, is held to the former triangulation, copied verbatim
with `_simplices_of_face`, on that corpus and on `smooth_polytopes` draws.
"""

import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from test_kept_variables import CORPUS
from test_polytope import det, smooth_polytopes, vec_sub
from toricqh import linalg
from toricqh.actions import CircleTable
from toricqh.cohomology import betti_morse, generic_vector
from toricqh.errors import NonGenericVector, NotFullDimensional
from toricqh.polytope import centroid, validate_delzant

F = Fraction

SHIFT = (F(1, 3), F(-2, 5), F(3, 7), F(-1, 11))


# ----------------------------------------------------- the former versions

def reference_generic_vector(poly):
    points = [poly.vertex_point(v) for v in range(len(poly.vertices))]
    den = lcm(*(x.denominator for p in points for x in p))
    points = [tuple(x.numerator * (den // x.denominator) for x in p)
              for p in points]
    M = 1 + max(abs(x) for p in points for x in p)
    for _ in range(64):
        xi = tuple(M ** j for j in range(poly.n))
        if len({linalg.vec_dot(xi, p) for p in points}) == len(points):
            return xi
        M = 2 * M + 1
    raise NonGenericVector("could not find a separating direction")


def _simplices_of_face(poly, face):
    """Recursive triangulation from the lex-least vertex of each face.

    Returns simplices as tuples of vertex ids; each has dim(face)+1 entries.
    The facets of a face F are the faces keyed F.facets | {i}.
    """
    if face.dim == 0:
        return [(face.vertex_ids[0],)]
    anchor = min(face.vertex_ids, key=poly.vertex_point)  # lex-least
    simplices = []
    for i in range(poly.num_facets):
        sub = poly.faces.get(face.facets | {i})
        if sub is None or sub.dim != face.dim - 1 or anchor in sub.vertex_ids:
            continue
        for s in _simplices_of_face(poly, sub):
            simplices.append((anchor,) + s)
    return simplices


def reference_centroid(poly):
    scale = lcm(*(x.denominator for point, _ in poly.vertices for x in point))
    points = [tuple(x.numerator * (scale // x.denominator) for x in point)
              for point, _ in poly.vertices]
    total_vol = 0
    weighted = [0] * poly.n
    for simplex in _simplices_of_face(poly, poly.face(frozenset())):
        base = points[simplex[0]]
        vol = abs(det([vec_sub(points[v], base) for v in simplex[1:]]))
        total_vol += vol
        for k in range(poly.n):
            weighted[k] += vol * sum(points[v][k] for v in simplex)
    if total_vol == 0:
        raise NotFullDimensional(
            f"the triangulation of {poly.name or 'the polytope'} has volume 0")
    return tuple(Fraction(w, total_vol * scale * (poly.n + 1))
                 for w in weighted)


def vertex_weights(poly, vid, xi):
    """The former `cohomology.vertex_weights`, verbatim: the weights of the
    circle xi at a vertex, minus the coefficients of xi in the vertex's
    outward normal basis, keyed by facet index."""
    return {i: -c for i, c in poly.coordinates(vid, xi).items()}


def reference_betti_morse(poly, xi):
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


# ------------------------------------------------------------------- corpus

def translated(poly):
    """The polytope moved by SHIFT: supports gain <eta_i, SHIFT>."""
    shift = SHIFT[:poly.n]
    return validate_delzant(
        [(f.normal, f.support + linalg.vec_dot(f.normal, shift), f.label)
         for f in poly.facets], name=f"{poly.name} shifted")


def _corpus():
    out = {}
    for name, poly in CORPUS.items():
        out[name] = poly
        out[f"{name} shifted"] = translated(poly)
    return out


MOMENT_CORPUS = _corpus()


def xi_box(n):
    r = 2 if n <= 2 else 1
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def outcome(compute):
    try:
        return compute()
    except NonGenericVector as err:
        return type(err).__name__, str(err)


# -------------------------------------------------------------------- tests

def test_translated_copies_carry_denominators():
    for name, poly in MOMENT_CORPUS.items():
        if name.endswith("shifted"):
            scale, _ = poly.scaled_vertices
            assert scale > 1, name


@pytest.mark.parametrize("name", sorted(MOMENT_CORPUS))
def test_scaled_vertices_are_the_vertices_times_their_lcm(name):
    poly = MOMENT_CORPUS[name]
    scale, points = poly.scaled_vertices
    assert poly.scaled_vertices is poly.scaled_vertices
    assert scale == lcm(*(x.denominator for point, _ in poly.vertices
                          for x in point))
    assert [tuple(F(c, scale) for c in p) for p in points] == \
        [point for point, _ in poly.vertices]
    assert all(type(c) is int for p in points for c in p)


@pytest.mark.parametrize("name", sorted(MOMENT_CORPUS))
def test_moment_values_are_the_fraction_dot_products(name):
    poly = MOMENT_CORPUS[name]
    for xi in xi_box(poly.n):
        want = [linalg.vec_dot(xi, point) for point, _ in poly.vertices]
        table = CircleTable(poly, xi)
        assert table.values == want, xi
        assert all(type(v) is Fraction for v in table.values), xi
        for comp in table.components:
            for vid in comp.face.vertex_ids:
                assert comp.K == want[vid], (xi, sorted(comp.facets))
            assert type(comp.K) is Fraction


@pytest.mark.parametrize("name", sorted(MOMENT_CORPUS))
def test_vertex_scans_match_the_former_scalings(name):
    poly = MOMENT_CORPUS[name]
    assert generic_vector(poly) == reference_generic_vector(poly)
    assert centroid(poly) == reference_centroid(poly)
    for xi in xi_box(poly.n) + [generic_vector(poly)]:
        assert outcome(lambda: betti_morse(poly, xi)) == \
            outcome(lambda: reference_betti_morse(poly, xi)), xi


@settings(max_examples=100, deadline=None)
@given(specs=smooth_polytopes())
def test_the_vertex_sum_centroid_matches_the_former_triangulation(specs):
    poly = validate_delzant(specs)
    assert centroid(poly) == reference_centroid(poly)
