"""Per-polytope tables of the classical ring and the battery, against the
former per-call code.

The linear elimination with its generators, the Stanley-Reisner images a
Groebner basis starts from and the memo of kept monomial images are one
cached value of the polytope, `DelzantPolytope.elimination`; the generic
height, its vertex weights and each face's Betti numbers are its Morse
table, `DelzantPolytope.morse` and `morse_betti`.  `monomial_nf` answers {}
above degree n with no division, `superlevel_bounds` reads each value's
numerator and denominator once, and `analyze` reads the translate of a
polytope that is not mean normalized off the polytope.  The references
are the former code; on the corpus x box(n, 1) and the bundled examples x
box(n, 2) the engine must give the same ring inputs, reduced classes, S2
findings and superlevel bounds.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from cases import POLYTOPES, box_vectors
from reference import (
    FormerCircleTable,
    former_monomial_nf,
    former_ring_inputs,
    former_rule_s2,
)
from toricqh import examples
from toricqh import polytope as polytope_module
from toricqh.actions import CircleTable
from toricqh.cohomology import ClassicalRing, build_ring
from toricqh.errors import ToricError
from toricqh.obstructions import _rule_s2, analyze
from toricqh.polytope import face_betti, generic_vector, validate_delzant

F = Fraction


# ------------------------------------------------------------------ helpers

def typed(value):
    """value with every number paired with its type, so that an int and an
    equal Fraction differ."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    if isinstance(value, (int, Fraction)):
        return type(value).__name__, value
    return value


def outcome(compute):
    try:
        return compute()
    except ToricError as err:
        return type(err).__name__, str(err)


def fresh(poly):
    """A copy of poly with every table empty."""
    return dataclasses.replace(poly)


# the corpus x box(n, 1) and the bundled examples x box(n, 2), mean
# normalized, each polytope with a fresh copy of its own
CASES = {f"{name} r1": (POLYTOPES[name].normalized, 1) for name in POLYTOPES}
CASES.update((f"{name} r2", (examples.build(name), 2))
             for name in examples.BUILDERS)


# ------------------------------------------------------- the ring's inputs

@pytest.mark.parametrize("name", sorted(CASES))
def test_the_elimination_holds_the_former_ring_inputs(name):
    poly = fresh(CASES[name][0])
    want = former_ring_inputs(poly)
    elim = poly.elimination
    got = dict(prims=poly.primitive_sets, linear_gens=elim.linear_gens,
               sr_gens=elim.sr_gens, kept=elim.kept, images=elim.images,
               gen_keys=tuple(p.key for p in poly.primitive_sets),
               basis=list(elim.sr_images))
    assert typed(got) == typed(want)
    ring = build_ring(poly)
    assert typed({key: getattr(ring, key) for key in want if key != "basis"}) \
        == typed({key: value for key, value in want.items()
                  if key != "basis"})
    assert ring.basis.generators == want["basis"]


@pytest.mark.parametrize("name", ["cp2", "cube3", "cube4"])
def test_two_rings_of_one_polytope_read_one_elimination(name):
    poly = fresh(POLYTOPES[name])
    first, second = build_ring(poly), build_ring(poly)
    assert first is not second and first.basis is not second.basis
    elim = poly.elimination
    for ring in (first, second):
        assert (ring.kept, ring.images, ring.linear_gens, ring.sr_gens) == \
            (elim.kept, elim.images, elim.linear_gens, elim.sr_gens)
        assert ring.images is elim.images and ring.sr_gens is elim.sr_gens
    mono = (1,) * poly.num_facets
    assert first.monomial_image(mono) is second.monomial_image(mono)
    assert elim._kept.keys() == {mono}
    assert first.standard_monomials == second.standard_monomials
    assert build_ring(poly).polytope.elimination is elim


def test_a_replaced_polytope_starts_with_empty_tables():
    poly = fresh(POLYTOPES["cube3"])
    analyze(poly, (1, 1, 1))  # semifree, so S2 counts Betti numbers
    build_ring(poly).integrate({(3, 0, 0): F(1)})
    assert {"elimination", "morse"} <= set(vars(poly))
    assert poly.elimination._kept and poly._betti
    copy = dataclasses.replace(poly)
    assert copy == poly
    assert not {"elimination", "morse", "_translate"} & set(vars(copy))
    assert copy._betti == {} and copy._duals == {}
    assert copy.elimination is not poly.elimination
    assert copy.elimination._kept == {}
    assert copy.elimination == poly.elimination
    assert copy.morse == poly.morse


# ------------------------------------------------------ the battery's reads

def recorded_analyze(poly, xi, monkeypatch):
    """analyze(poly, xi, None), and every (ring, monomial, answer) of
    `monomial_nf` during the call."""
    asked = []
    monomial_nf = ClassicalRing.monomial_nf

    def recording(self, mono):
        answer = monomial_nf(self, mono)
        asked.append((self, mono, answer))
        return answer

    with monkeypatch.context() as patch:
        patch.setattr(ClassicalRing, "monomial_nf", recording)
        report = outcome(lambda: analyze(poly, xi))
    return report, asked


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_battery_reads_what_the_former_code_computed(name, monkeypatch):
    poly, r = CASES[name]
    poly = fresh(poly)
    former_ring = build_ring(fresh(poly))
    former_classes = {}
    for xi in box_vectors(poly.n, r):
        report, asked = recorded_analyze(poly, xi, monkeypatch)
        for ring, mono, answer in asked:
            assert ring.polytope is poly
            if mono not in former_classes:
                former_classes[mono] = former_monomial_nf(former_ring, mono)
            assert typed(answer) == typed(former_classes[mono]), (xi, mono)
        circle = CircleTable(poly, xi)
        if isinstance(report, tuple):  # the same typed error from the table
            assert report == outcome(lambda: circle.components)
            continue
        assert _rule_s2(circle) == former_rule_s2(circle), xi
        values = sorted({c.K for c in circle.components}
                        | {F(k, 3) for k in range(-4, 5)})
        assert circle.superlevel_bounds(values) == \
            FormerCircleTable(poly, xi).superlevel_bounds(values), xi


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_on_a_warm_polytope_equals_a_fresh_copy(name):
    poly, r = CASES[name]
    vectors = box_vectors(poly.n, r)
    if poly.num_facets > 8:  # gon12: a Groebner basis takes 0.5 s
        vectors = [(-1, 1)]
    warm = fresh(poly)
    first = [outcome(lambda: analyze(warm, xi).findings) for xi in vectors]
    again = [outcome(lambda: analyze(warm, xi).findings) for xi in vectors]
    cold = [outcome(lambda: analyze(fresh(poly), xi).findings)
            for xi in vectors]
    assert first == again == cold


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_morse_table_is_the_former_morse_data(name):
    poly = fresh(CASES[name][0])
    table = poly.morse
    assert table.height == generic_vector(poly)
    assert table.weights == tuple(
        {i: -c for i, c in poly.coordinates(vid, table.height).items()}
        for vid in range(len(poly.vertices)))
    for key, face in poly.faces.items():
        assert poly.morse_betti(face) == face_betti(poly, face, table.height)
        assert poly.morse_betti(face) is poly._betti[key]
    assert poly.morse is table


# ------------------------------------------------- no division above degree n

def monomials_of_degree(N, d):
    """Every exponent tuple of width N and degree d."""
    return [tuple(sum(1 for j in combo if j == i) for i in range(N))
            for combo in itertools.combinations_with_replacement(range(N), d)]


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_every_monomial_above_degree_n_is_zero(name):
    poly = POLYTOPES[name]
    ring = build_ring(poly)
    n, N = poly.n, poly.num_facets
    monos = monomials_of_degree(N, n + 1) + monomials_of_degree(N, n + 2)
    if name == "gon12":
        monos = random.Random(25).sample(monos, 200)
    for mono in monos:
        assert ring.monomial_nf(mono) == {}, mono
        assert ring.nf(ring.monomial_image(mono)) == {}, mono
    # every entry is a dict of its own, as memo entries are read-only
    answers = [ring.monomial_nf(mono) for mono in monos]
    assert len({id(a) for a in answers}) == len(answers)


def test_gon12_r5_divides_nothing_above_degree_n(monkeypatch):
    """gon12 at xi = (-2, 2) took about 9 s in R5's divisions of facet
    products of degree 4 and 6; with no division above degree n = 2, every
    normal form the battery computes has degree at most 2."""
    poly = validate_delzant(POLYTOPES["gon12"].facets, name="gon12")
    degrees = []
    nf = ClassicalRing.nf

    def recording(self, kept_poly):
        degrees.extend(sum(m) for m in kept_poly)
        return nf(self, kept_poly)

    monkeypatch.setattr(ClassicalRing, "nf", recording)
    report = analyze(poly, (-2, 2))
    assert degrees and max(degrees) <= poly.n
    assert report.finding("R5").certificate == \
        analyze(fresh(poly), (-2, 2)).finding("R5").certificate


# ------------------------------------------------------ the translate, once

def test_a_second_analyze_on_a_translated_polytope_validates_nothing(
        monkeypatch):
    # cube3 moved off its centroid by (1/3, -2/5, 3/7)
    shift = (F(1, 3), F(-2, 5), F(3, 7))
    cube3 = POLYTOPES["cube3"]
    poly = validate_delzant(
        [(f.normal, f.support + sum(a * b for a, b in zip(f.normal, shift)))
         for f in cube3.facets], name="cube3 shifted")
    assert any(poly.centroid)
    validations = []
    validate = polytope_module.validate_delzant

    def counted(*args, **kwargs):
        validations.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(polytope_module, "validate_delzant", counted)
    first = analyze(poly, (1, 2, 3))
    assert len(validations) == 1
    second = analyze(poly, (1, 2, 3))
    assert len(validations) == 1
    assert first == second and first.normalized
    assert poly.normalized is poly.normalized
    assert poly.normalized.normalized is poly.normalized
    assert not any(poly.normalized.centroid)
    assert polytope_module.normalize(poly) is poly.normalized
    assert [f.support for f in poly.normalized.facets] == \
        [f.support for f in cube3.normalized.facets]
