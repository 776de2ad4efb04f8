"""Moment values and vertex scans on the integer vertices.

`DelzantPolytope.scaled_vertices` gives the lcm D of the vertex
denominators and the vertices times D.  `CircleTable.values` is
Fraction(<xi, point>, D), and `generic_vector`, `centroid` and `betti_morse`
read the same pair.  Each must equal the former computation: a `Fraction`
dot product per vertex for the moment values, and the former private
scalings, the references.  The corpus is the ten corpus polytopes and
translated copies whose supports carry denominators.  The centroid, a vertex
sum by localization, is held to the former triangulation, copied verbatim
with `_simplices_of_face`, on that corpus and on `smooth_polytopes` draws.
"""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings

from cases import POLYTOPES, box_vectors, smooth_polytopes
from reference import (
    reference_betti_morse,
    reference_centroid,
    reference_generic_vector,
)
from toricqh import linalg
from toricqh.actions import CircleTable
from toricqh.cohomology import betti_morse, generic_vector
from toricqh.errors import NonGenericVector
from toricqh.polytope import centroid, validate_delzant

F = Fraction

SHIFT = (F(1, 3), F(-2, 5), F(3, 7), F(-1, 11))


# ------------------------------------------------------------------- corpus

def translated(poly):
    """The polytope moved by SHIFT: supports gain <eta_i, SHIFT>."""
    shift = SHIFT[:poly.n]
    return validate_delzant(
        [(f.normal, f.support + linalg.vec_dot(f.normal, shift), f.label)
         for f in poly.facets], name=f"{poly.name} shifted")


def _corpus():
    out = {}
    for name, poly in POLYTOPES.items():
        out[name] = poly
        out[f"{name} shifted"] = translated(poly)
    return out


MOMENT_CORPUS = _corpus()


def xi_box(n):
    return box_vectors(n, 2 if n <= 2 else 1)


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
