"""The Groebner division on cached leading monomials, with one traced
division, against the former version, which recomputed every basis
element's leading monomial at every division step and folded quotients
through cofactors in three places.  The references `former_divmod_basis`
and `FormerTracedBasis` are the former code, verbatim; the engine's are
`polynomials.divmod_basis` and `polynomials.TracedBasis`.  On the ten
corpus rings both must give the same elements, cofactors and leading
monomials, and the same normal form and trace for every kept-variable
monomial of degree at most 2n and for drawn polynomials.

The classical layer without search is held to the code it replaced: the
breadth-first `standard_monomials`, the pairwise `_stratum`, and
`FormerIntegral`, whose integral and pairing read normal forms.
Bases (whose reduction now divides only when it must), standard monomials
and pairings must match by repr on the corpus, cube5, cube6 and drawn
Delzant polytopes, and strata on every q of the gcd-closure of the orders
of the corpus circles."""

import functools
import itertools
import math
import random
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import POLYTOPES, box, exact, smooth_polytopes
from reference import (
    FormerIntegral,
    FormerTracedBasis,
    former_divmod_basis,
    former_standard_monomials,
    former_stratum,
)
from toricqh import polynomials
from toricqh.actions import FIXED, CircleTable, _stratum
from toricqh.cohomology import build_ring
from toricqh.errors import DegenerateRing, StratumNotClosed
from toricqh.polytope import validate_delzant
from toricqh.polynomials import poly_add, poly_mul, poly_sub

F = Fraction


# ------------------------------------------------------------------- tests

@functools.lru_cache(maxsize=None)
def bases(name):
    """(engine basis, former basis) of the corpus ring `name`, both built
    from the ring's kept-variable Stanley-Reisner generators."""
    engine = build_ring(POLYTOPES[name]).basis
    return engine, FormerTracedBasis(engine.generators)


def monomials_up_to(width, degree):
    return [m for m in itertools.product(range(degree + 1), repeat=width)
            if sum(m) <= degree]


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_the_basis_is_the_former_basis(name):
    engine, former = bases(name)
    assert exact(engine.elements) == exact(former.elements)
    assert exact(engine.cofactors) == exact(former.cofactors)
    assert engine.leading_monomials() == former.leading_monomials()
    assert engine.standard_monomials(100) == former.standard_monomials(100)


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_normal_forms_of_monomials_are_the_former_ones(name):
    engine, former = bases(name)
    width = len(engine.lms[0])
    for m in monomials_up_to(width, 2 * POLYTOPES[name].n):
        f = {m: F(1)}
        assert exact(engine.normal_form_traced(f)) == \
            exact(former.normal_form_traced(f)), (name, m)


@st.composite
def kept_polynomials(draw):
    name = draw(st.sampled_from(sorted(POLYTOPES)))
    width = len(bases(name)[0].lms[0])
    n = POLYTOPES[name].n
    mono = st.tuples(*[st.integers(0, n)] * width)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return name, draw(st.dictionaries(mono, coeff.filter(bool), max_size=6))


@settings(max_examples=150, deadline=None)
@given(kept_polynomials())
def test_normal_forms_of_drawn_polynomials_are_the_former_ones(case):
    name, f = case
    engine, former = bases(name)
    nf, trace = engine.normal_form_traced(f)
    assert exact((nf, trace)) == exact(former.normal_form_traced(f))
    assert exact(engine.normal_form(f)) == exact(nf)
    assert exact(polynomials.divmod_basis(f, engine.elements, engine.lms)) \
        == exact(former_divmod_basis(f, former.elements))
    # the trace is exact: f - nf == sum_i trace[i] * generators[i]
    combination = {}
    for gi, cof in trace.items():
        combination = poly_add(combination,
                               poly_mul(cof, engine.generators[gi]))
    assert poly_sub(f, nf) == combination


def test_leading_monomials_is_a_new_list_each_call():
    engine, _ = bases("cp2")
    first = engine.leading_monomials()
    assert first == engine.lms and first is not engine.lms
    first.clear()
    assert engine.leading_monomials() == engine.lms != []
    assert engine.leading_monomials() is not engine.leading_monomials()


# --------------------------------------------- the engine against them

CLASSICAL = dict(POLYTOPES, cube5=box(5), cube6=box(6))


def assert_the_classical_layer_is_the_former_one(poly, integrals=True):
    """Basis, standard monomials and pairings of poly's ring, by repr."""
    ring = build_ring(poly)
    engine, former = ring.basis, FormerTracedBasis(ring.basis.generators)
    limit = 4 * max(len(poly.vertices), 4)
    assert exact(engine.elements) == exact(former.elements)
    assert exact(engine.cofactors) == exact(former.cofactors)
    assert engine.leading_monomials() == former.leading_monomials()
    assert engine.standard_monomials(limit) == ring.standard_monomials \
        == former_standard_monomials(engine, limit) \
        == former.standard_monomials(limit)
    reference = FormerIntegral(**{f.name: getattr(ring, f.name)
                                  for f in fields(ring) if f.init})
    for k in range(poly.n + 1):
        assert exact(ring.pd_matrix(2 * k)) == \
            exact(reference.pd_matrix(2 * k)), k
    if integrals:
        rng = random.Random(30)
        tops = [m for m in monomials_up_to(ring.width, poly.n)
                if sum(m) == poly.n]
        for _ in range(10):
            f = {m: F(rng.randint(-9, 9), rng.randint(1, 5))
                 for m in rng.sample(tops, min(len(tops), 4))}
            f = {m: c for m, c in f.items() if c}
            assert exact(ring.integrate(f)) == exact(reference.integrate(f))
            ints = {m: c.numerator for m, c in f.items()}
            assert exact(ring.integrate(ints)) == \
                exact(reference.integrate(ints))


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_the_classical_layer_is_the_former_one(name):
    assert_the_classical_layer_is_the_former_one(
        CLASSICAL[name], integrals=name not in ("cube6", "gon12"))


@settings(max_examples=40, deadline=None)
@given(specs=smooth_polytopes())
def test_the_classical_layer_is_the_former_one_on_drawn_polytopes(specs):
    assert_the_classical_layer_is_the_former_one(validate_delzant(specs))


def gcd_closure(orders):
    candidates = set()
    for order in set(orders.values()) - {FIXED}:
        candidates |= {math.gcd(order, c) for c in candidates} | {order}
    return sorted(candidates | {1})


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_strata_are_the_former_ones_on_every_corpus_circle(name):
    poly = POLYTOPES[name]
    for xi in itertools.product(range(-2, 3) if poly.n < 4 else (-1, 0, 1),
                                repeat=poly.n):
        if not any(xi):
            continue
        orders = CircleTable(poly, xi).orders
        for q in gcd_closure(orders):
            assert _stratum(poly.face_lattice, orders, q) == \
                former_stratum(orders, q), (xi, q)


def test_a_stratum_that_is_not_closed_is_rejected_by_both():
    """cube3's face lattice with every order 1, but order 2 on the facet
    {0}: the 2-stratum holds that facet and none of its edges."""
    cube = box(3)
    orders = dict.fromkeys(cube.faces, 1)
    orders[frozenset({0})] = 2
    for stratum in (functools.partial(_stratum, cube.face_lattice),
                    former_stratum):
        with pytest.raises(StratumNotClosed):
            stratum(orders, 2)
    assert _stratum(cube.face_lattice, orders, 1) == \
        former_stratum(orders, 1)


def test_standard_monomials_of_a_degenerate_basis_are_typed_errors():
    with pytest.raises(DegenerateRing, match="infinite quotient"):
        polynomials.TracedBasis([]).standard_monomials(10)
    # x1^2 in two variables: the quotient holds every power of x2
    square = polynomials.TracedBasis([{(2, 0): F(1)}])
    for limit in (1, 10, 100):
        with pytest.raises(DegenerateRing, match=f"exceeds {limit};"):
            square.standard_monomials(limit)
