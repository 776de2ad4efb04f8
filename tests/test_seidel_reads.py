"""What a Seidel op reads, against the code it replaced: F_max from one
integer argmax against the first of every fixed component, the edge classes
stored on the polytope against the former per-call `edge_classes_through`,
and the kept-variable images and normal forms memoized on the ring against
`poly_substitute` and `nf`.  The former versions are the references.  A
value read from a cache is handed out so that mutating it leaves the next
read unchanged."""

import dataclasses
from fractions import Fraction

import pytest

from cases import POLYTOPES, PRESENTED, box_vectors, facet_monomials
from reference import (
    reference_edge_classes_through,
    reference_reduce_full,
    reference_seidel_element,
)
from toricqh import examples
from toricqh.actions import CircleTable, fixed_components, fixed_maximum
from toricqh.cohomology import build_ring
from toricqh.errors import (
    MomentNotConstant,
    NonIntegralCoefficient,
    ZeroVector,
)
from toricqh.polynomials import poly_monomial, poly_substitute
from toricqh.polytope import Face, edge_classes_through, validate_delzant
from toricqh.quantum import default_cutoff, fano_presentation
from toricqh.seidel import seidel_element

F = Fraction


# ------------------------------------------------------------- F_max alone

@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_fixed_maximum_is_the_first_fixed_component(name):
    poly = POLYTOPES[name]
    for xi in box_vectors(poly.n):
        want = fixed_components(poly, xi)[0]
        got = fixed_maximum(poly, xi)
        for f in dataclasses.fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), \
                (name, xi, f.name)
        assert type(got.K) is Fraction


def test_a_maximum_that_is_not_its_face_is_a_typed_error():
    poly = examples.cp2()
    fmax = fixed_maximum(poly, (2, 1))
    assert fmax.face.dim == 0
    other = next(v for v in range(len(poly.vertices))
                 if v not in fmax.face.vertex_ids)
    wrong = Face(facets=fmax.facets, dim=0,
                 vertex_ids=tuple(sorted(fmax.face.vertex_ids + (other,))))
    broken = dataclasses.replace(
        poly, faces={**poly.faces, fmax.facets: wrong})
    with pytest.raises(MomentNotConstant):
        fixed_maximum(broken, (2, 1))


@pytest.mark.parametrize("xi", [(1.5, 0), (F(1, 2), 0), ("1", 0), (True, 0)],
                         ids=["float", "fraction", "string", "bool"])
def test_a_non_integer_direction_is_a_typed_error(xi):
    qp = fano_presentation(examples.cp2())
    for read in (lambda: seidel_element(qp, xi),
                 lambda: fixed_maximum(qp.polytope, xi),
                 lambda: CircleTable(qp.polytope, xi)):
        with pytest.raises(NonIntegralCoefficient):
            read()


def test_the_zero_direction_is_still_a_zero_vector():
    qp = fano_presentation(examples.cp2())
    for read in (lambda: seidel_element(qp, (0, 0)),
                 lambda: fixed_maximum(qp.polytope, [0, 0]),
                 lambda: CircleTable(qp.polytope, (0, 0))):
        with pytest.raises(ZeroVector):
            read()


@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_an_integer_direction_gives_the_former_element(name):
    poly, build = PRESENTED[name]
    qp = build(poly, default_cutoff(poly))
    for xi in box_vectors(poly.n, 1):
        want = reference_seidel_element(qp, xi)
        for given in (xi, list(xi)):
            got = seidel_element(qp, given)
            assert got == want, (name, xi)
            assert type(got.xi) is tuple


# ------------------------------------------------- edge classes per polytope

@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_stored_edge_classes_match_the_former_per_call_ones(name):
    poly = validate_delzant(POLYTOPES[name].facets, name=name)  # cold
    for _ in ("cold", "warm"):
        for face in poly.faces.values():
            assert edge_classes_through(poly, face) == \
                reference_edge_classes_through(poly, face), (name, face)
    assert len(poly._edge_classes) == \
        sum(1 for face in poly.faces.values() if face.dim == 1)


# ------------------------------------------- kept-variable images per ring

@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_memoized_images_match_substitution_and_normal_forms(name):
    poly, _ = PRESENTED[name]
    ring = build_ring(poly)
    monos = facet_monomials(poly.num_facets, poly.n)
    for _ in ("cold", "warm"):
        for mono in monos:
            one = {mono: F(1)}
            image = poly_substitute(one, ring.images, ring.width)
            assert ring.monomial_image(mono) == image, (name, mono)
            assert ring.substitute(one) == image, (name, mono)
            assert ring.reduce_full(one) == ring.nf(image), (name, mono)
    for k in range(0, len(monos), 5):  # sums with cancelling images too
        f = {m: F(j - 2, 1 + j % 3) for j, m in enumerate(monos[k:k + 5])}
        assert ring.substitute(f) == poly_substitute(f, ring.images,
                                                     ring.width), (name, f)
        assert ring.reduce_full(f) == reference_reduce_full(ring, f), \
            (name, f)


# ------------------------------------------------- mutation does not leak

def test_mutating_a_returned_value_leaves_the_next_read_unchanged():
    ring = build_ring(examples.blowup_cp2(F(1, 2)))
    poly = ring.polytope
    x_face = poly_monomial({0: 1, 2: 1}, poly.num_facets)
    for read in (ring.substitute, ring.reduce_full):
        first = read(x_face)
        want = dict(first)
        assert want
        first[next(iter(first))] += 1
        first[(9,) * ring.width] = F(5)
        assert read(x_face) == want
        first.clear()
        assert read(x_face) == want

    face = poly.face(frozenset({0}))
    edges = edge_classes_through(poly, face)
    want = list(edges)
    edges.clear()
    assert edge_classes_through(poly, face) == want
    with pytest.raises(dataclasses.FrozenInstanceError):
        want[0][1].pairings = ()

    fmax = fixed_maximum(poly, (-1, 0))
    fmax.weights.clear()
    assert fixed_maximum(poly, (-1, 0)).weights == {0: -1}
