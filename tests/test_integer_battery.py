"""The battery in integers, against the former Fraction code.

`CircleTable` keeps the integer moment level <xi, scaled vertex> of every
vertex and builds a `Fraction` only for a component's K; `chain_bound` runs
its hop costs, Dijkstra, tightness test and m-sums in ints scaled by D * Q;
`poly_substitute` keeps int coefficients, so the kept-variable images and
their normal forms carry ints; `primitive_sets` is computed once per
polytope.  The references are the former code: `FormerCircleTable`,
`former_chain_bound`, `former_poly_substitute` and `former_primitive_sets`.
On the bundled examples, the corpus and seeded draws with isotropy and Q
above 1, both must give the same tables, bounds and certificates, and no
float may appear anywhere.
"""

import functools
import itertools
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from cases import POLYTOPES, box_vectors
from reference import (
    FormerCircleTable,
    former_chain_bound,
    former_poly_substitute,
    former_primitive_sets,
)
from toricqh import examples
from toricqh.actions import CircleTable
from toricqh.cohomology import build_ring
from toricqh.errors import ToricError
from toricqh.obstructions import ChainBound, chain_bound
from toricqh.polynomials import (
    TracedBasis,
    divmod_basis,
    poly_add,
    poly_mul,
    poly_substitute,
)
from toricqh.polytope import normalize, primitive_sets, validate_delzant

F = Fraction


# ------------------------------------------------------------------- helpers

def repr_or_error(compute):
    """repr of a value, so that types count too, or any typed error raised
    (`test_moment_values.outcome` keeps the bare value and lets every error
    but NonGenericVector through, and moment_value raises
    MomentNotConstant on a face that is not fixed)."""
    try:
        return repr(compute())
    except ToricError as err:
        return type(err).__name__, str(err)


def floats_in(value):
    """Every float inside nested dicts, lists and tuples, keys included."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return [x for k, v in value.items()
                for x in floats_in(k) + floats_in(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in floats_in(v)]
    return []


def exact_coefficients(poly):
    """Every coefficient is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in poly.values())


def full_monomials(N, degree):
    """Every exponent tuple of width N and total degree at most `degree`."""
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(N), d):
            e = [0] * N
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


BUNDLED = {name: normalize(examples.build(name))
           for name in sorted(examples.BUILDERS)}
SIZED = [(name, POLYTOPES[name], r) for name, r in
         (("cp3", 1), ("cube3", 1), ("cp4", 1), ("cube4", 1), ("gon12", 1))]
CASES = [(name, poly, xi) for name, poly in BUNDLED.items()
         for xi in box_vectors(poly.n, 2)] + \
    [(name, poly, xi)
     for name, poly, r in SIZED for xi in box_vectors(poly.n, r)]
DRAWN = {name: normalize(POLYTOPES[name])
         for name in ("blowup_cp2", "s2xs2", "cube3")}


@functools.lru_cache(maxsize=None)
def ring_of(name):
    return build_ring(POLYTOPES[name])


def compare_circle(poly, xi):
    """The new and the former table and chain bound of (poly, xi) agree
    field by field, types included; returns the former table."""
    former = FormerCircleTable(poly, xi)
    table = CircleTable(poly, xi)
    assert table.values == former.values
    assert all(type(v) is Fraction for v in table.values)
    assert all(type(v) is int for v in table.levels)
    for face in poly.faces.values():
        assert repr_or_error(lambda: table.moment_value(face)) == \
            repr_or_error(lambda: former.moment_value(face)), sorted(face.facets)
    got = repr_or_error(lambda: table.components)
    assert got == repr_or_error(lambda: former.components), xi
    if isinstance(got, tuple):  # both raised the same error
        assert repr_or_error(lambda: chain_bound(poly, xi)) == \
            repr_or_error(lambda: former_chain_bound(poly, xi, former))
        return former
    values = sorted({c.K for c in former.components} | set(former.values)
                    | {v + F(1, 2 * table.scale) for v in former.values})
    assert repr(table.superlevel_bounds(values)) == \
        repr(former.superlevel_bounds(values))
    got = chain_bound(poly, xi)
    want = former_chain_bound(poly, xi, former)
    assert type(got.min_cost) is type(want.min_cost) is Fraction
    for name in ChainBound.__dataclass_fields__:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got == want
    return former


# --------------------------------------------------------------- the tables

@pytest.mark.parametrize("name,poly,xi", CASES,
                         ids=[f"{n}-{xi}" for n, _, xi in CASES])
def test_circle_tables_and_chain_bounds_are_the_former_ones(name, poly, xi):
    compare_circle(poly, xi)


@settings(max_examples=120, deadline=None)
@seed(20221)
@given(st.sampled_from(sorted(DRAWN)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(
        *[st.integers(-4, 4)] * DRAWN[name].n)).filter(lambda c: any(c[1]))))
def test_drawn_circles_with_isotropy_match_the_former_ones(case):
    name, xi = case
    compare_circle(DRAWN[name], xi)


def test_the_drawn_range_reaches_isotropy_and_q_above_one():
    """The range drawn above holds circles with isotropy > 1 and with
    Q > 1 on every polytope drawn, and non-integral cheapest costs."""
    fractional = set()
    for name, poly in DRAWN.items():
        isotropy, big_q = False, False
        for xi in box_vectors(poly.n, 4 if poly.n == 2 else 2):
            table = CircleTable(poly, xi)
            isotropy |= table.isotropy_bound > 1
            qs = table.q_pairs([c.face for c in table.components])
            big_q |= lcm(*qs.values()) > 1
            if chain_bound(poly, xi, table).min_cost.denominator > 1:
                fractional.add(name)
        assert isotropy and big_q, name
    assert fractional == {"blowup_cp2", "cube3"}


# ------------------------------------------------- images and normal forms

@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_images_are_the_former_images_in_ints(name):
    poly = POLYTOPES[name]
    ring = ring_of(name)
    for mono in full_monomials(poly.num_facets, poly.n + 1):
        want = former_poly_substitute({mono: 1}, ring.images, ring.width)
        got = poly_substitute({mono: 1}, ring.images, ring.width)
        assert got == want and exact_coefficients(got), mono
        assert ring.monomial_image(mono) == got
        assert ring.monomial_nf(mono) == ring.nf(want), mono


@st.composite
def substitutions(draw):
    """A drawn polynomial in 3 variables and images of width 2 whose
    coefficients mix ints and Fractions."""
    coeff = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=5)).filter(bool)
    mono2 = st.tuples(st.integers(0, 2), st.integers(0, 2))
    images = {i: draw(st.dictionaries(mono2, coeff, max_size=3))
              for i in range(3)}
    mono3 = st.tuples(*[st.integers(0, 3)] * 3)
    return draw(st.dictionaries(mono3, coeff, max_size=3)), images


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_drawn_substitutions_are_the_former_ones(case):
    f, images = case
    got = poly_substitute(f, images, 2)
    assert got == former_poly_substitute(f, images, 2)
    assert exact_coefficients(got) and not floats_in(got)


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_no_float_in_a_corpus_ring(name):
    poly = POLYTOPES[name]
    ring = ring_of(name)
    assert not floats_in(ring.images)
    for mono in full_monomials(poly.num_facets, poly.n + 1):
        assert not floats_in(ring.monomial_image(mono)), mono
        assert not floats_in(ring.monomial_nf(mono)), mono
    assert not floats_in(ring.basis.elements)
    assert not floats_in(ring.basis.cofactors)
    assert all(type(c) in (int, Fraction)
               for g in ring.basis.generators for c in g.values())


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_int_generators_give_the_fraction_basis(name):
    """The basis of int copies of the generators, which divides by int
    leads, is the engine's basis, types and term order included."""
    basis = ring_of(name).basis
    copy = TracedBasis([{m: c.numerator if c.denominator == 1 else c
                         for m, c in g.items()} for g in basis.generators])
    assert any(type(c) is int for g in copy.generators for c in g.values())
    assert repr(basis.elements) == repr(copy.elements)
    assert repr(basis.cofactors) == repr(copy.cofactors)
    assert basis.lms == copy.lms


# ------------------------------------------------------- exact division

def test_the_traced_basis_divides_int_leads_exactly():
    generators = [{(2, 0): 3, (0, 2): 1}, {(1, 1): 2}]
    basis = TracedBasis(generators)
    assert basis.elements == [{(2, 0): 1, (0, 2): F(1, 3)}, {(1, 1): 1},
                              {(0, 3): 1}]
    assert not floats_in(basis.elements) and not floats_in(basis.cofactors)
    for element, cof in zip(basis.elements, basis.cofactors):
        combination = {}
        for gi, p in cof.items():
            combination = poly_add(combination, poly_mul(p, generators[gi]))
        assert combination == element


def test_the_division_by_an_int_lead_is_exact():
    quotients, remainder = divmod_basis({(1, 0): 1}, [{(1, 0): 3}], [(1, 0)])
    assert quotients == [{(0, 0): F(1, 3)}] and remainder == {}
    assert type(quotients[0][(0, 0)]) is Fraction
    quotients, remainder = divmod_basis({(2, 1): 2, (0, 1): 5},
                                        [{(1, 0): 4, (0, 0): 1}], [(1, 0)])
    assert quotients == [{(1, 1): F(1, 2), (0, 1): F(-1, 8)}]
    assert remainder == {(0, 1): F(41, 8)}
    assert not floats_in((quotients, remainder))


# ------------------------------------------------------------ primitive sets

@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_primitive_sets_are_the_former_list_on_every_call(name):
    poly = POLYTOPES[name]
    fresh = validate_delzant([(f.normal, f.support, f.label)
                              for f in poly.facets], name=poly.name)
    want = former_primitive_sets(fresh)
    first = primitive_sets(fresh)
    assert first == want
    second = primitive_sets(fresh)
    assert second == want and second is not first
    first.clear()
    second.append(None)
    third = primitive_sets(fresh)
    assert third == want and third is not second


# ------------------------------------------ q over the gcd-closure of orders

def check_q_pairs(poly, xi):
    """The q of every pair of faces, all faces included, equals the former
    one, which tried every divisor of every finite order."""
    faces = list(poly.faces.values())
    assert repr_or_error(lambda: CircleTable(poly, xi).q_pairs(faces)) == \
        repr_or_error(lambda: FormerCircleTable(poly, xi).q_pairs(faces))


def test_q_pairs_of_every_corpus_circle_are_the_former_ones():
    for _, poly, xi in CASES:
        check_q_pairs(poly, xi)


@settings(max_examples=80, deadline=None)
@seed(20241)
@given(st.sampled_from(sorted(POLYTOPES)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(1, 60), st.tuples(
        *[st.integers(-300, 300)] * POLYTOPES[name].n)).filter(
            lambda c: any(c[2]))))
def test_drawn_circles_with_large_entries_have_the_former_q_pairs(case):
    """Large multiples of drawn directions, whose faces have large orders
    with many common divisors."""
    name, k, xi = case
    check_q_pairs(POLYTOPES[name], tuple(k * x for x in xi))
