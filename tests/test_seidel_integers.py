"""A Seidel call in integers against the code it replaced.

`fixed_maximum` finds F_max in one integer pass (the levels <xi, .>, their
argmax and xi's coordinates there), Fano `seidel_element` lifts x^a as an
exponent tuple with coefficient 1 and forms the shift (m, -K) once,
`verify_leading_term` forms -K and x_F once, and `to_homology_report` sorts
its entries on the unflipped (kappa, d).  The references are the former
`fixed_maximum` and `verify_leading_term`, with the class methods and
actions helpers they read (`valuation`, `slice_at`, `_check_xi`,
`_component`, `_weights`), and the one Seidel element and homology report
references of the tests.  The new code must give the same classes (key
and coefficient types included), flags, reports, homology entries and
errors: on the corpus over box(n, 2), box(n, 1) in dimension 4; on
hirzebruch2 in NEF mode, at its default cutoff and at 1 and 8; at the
cutoffs 1/2 and 1 of the `small cutoff` digest class; and on cp2 and
blowup_cp2 at twice their default cutoff.  The other cutoffs put the
scalars on other grids, which the leading-term check reads as integer
levels.
"""

import dataclasses
from fractions import Fraction

import pytest

from cases import (
    PRESENTED,
    box_vectors,
    hirzebruch2_nef,
    outcome,
    presentation,
)
from reference import (
    former_fixed_maximum,
    former_verify_leading_term,
    reference_seidel_element,
    reference_to_homology_report,
)
from toricqh import examples
from toricqh.actions import fixed_maximum
from toricqh.polynomials import poly_monomial
from toricqh.quantum import lift
from toricqh.seidel import (
    build_dictionary,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)

F = Fraction
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")
SMALL = ("cp2", "blowup_cp2", "s2xs2", "cp3")  # the `small cutoff` class


# ----------------------------------------------------------------- helpers

def circles(poly):
    return box_vectors(poly.n, 1 if poly.n == 4 else 2)


def seidel_call(qp, xi, new):
    """Every value of one Seidel call, new or former, typed."""
    fmax, element_of, lead, report = (
        (fixed_maximum, seidel_element, verify_leading_term,
         to_homology_report) if new else
        (former_fixed_maximum, reference_seidel_element,
         former_verify_leading_term, reference_to_homology_report))
    poly = qp.polytope
    got = [outcome(fmax, poly, xi), outcome(element_of, qp, xi),
           outcome(lead, qp, xi)]
    element = seidel_element(qp, xi)
    got.append(outcome(lead, qp, xi, element=element))
    got.append(outcome(lambda: report(build_dictionary(qp), element.qclass,
                                      qp)))
    return got


def assert_matches(qp, xis):
    for xi in xis:
        assert seidel_call(qp, xi, True) == seidel_call(qp, xi, False), xi


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("name", FANO)
def test_a_fano_seidel_call_matches_the_former_code(name):
    qp = presentation(name)
    assert_matches(qp, circles(qp.polytope))


def test_the_fano_facet_exactness_is_the_verdict_of_the_second_lift():
    """A Fano facet maximum's `exact_ok` is `element.semifree`, read, not
    computed: the former second lift, of x_F q^m t^-K, equals S(xi), the
    lift of x_F^k q^m t^-K, on the 72 facet maxima of the Fano corpus over
    box(n, 2) exactly where k = 1."""
    facet_maxima = 0
    for name in FANO:
        qp = presentation(name)
        poly = qp.polytope
        for xi in box_vectors(poly.n, 2):
            if len(fixed_maximum(poly, xi).facets) != 1:
                continue
            facet_maxima += 1
            element = seidel_element(qp, xi)
            (x_face,) = poly_monomial(dict.fromkeys(element.leading_face, 1),
                                     poly.num_facets)
            second = lift(qp, {(x_face, element.m_max, -element.K_max): 1})
            report = verify_leading_term(qp, xi, element=element)[1]
            assert report["exactness"] == "fano facet maximum"
            assert report["exact_ok"] is element.semifree
            assert (element.qclass == second) is element.semifree, (name, xi)
    assert facet_maxima == 72


def test_a_nef_seidel_call_matches_the_former_code():
    qp = presentation("hirzebruch2 nef")
    assert qp.mode == "nef"
    assert_matches(qp, box_vectors(2, 2))


@pytest.mark.parametrize("cutoff", [F(1), F(8)], ids=["1", "8"])
def test_a_nef_seidel_call_matches_at_other_cutoffs(cutoff):
    qp = hirzebruch2_nef(cutoff)
    assert (qp.mode, qp.cutoff) == ("nef", cutoff)
    assert_matches(qp, box_vectors(2, 2))


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2"])
def test_a_seidel_call_matches_at_twice_the_default_cutoff(name):
    qp = presentation(name, 2)
    assert qp.cutoff == 2 * presentation(name).cutoff
    assert_matches(qp, box_vectors(2, 2))


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("cutoff", [F(1, 2), F(1)], ids=["1/2", "1"])
def test_a_seidel_call_matches_at_the_small_cutoffs(name, cutoff):
    poly, present = PRESENTED[name]
    qp = present(poly, cutoff)
    assert qp.cutoff == cutoff
    assert_matches(qp, box_vectors(poly.n, 1))


@pytest.mark.parametrize("name", ["cp2", "cube4", "hirzebruch2 nef"])
def test_a_non_integer_or_zero_direction_fails_as_before(name):
    qp = presentation(name)
    n = qp.polytope.n
    element = seidel_element(qp, (1,) + (0,) * (n - 1))
    for xi in [(1.5,) + (0,) * (n - 1), (F(1),) * n, (True,) * n, (0,) * n]:
        calls = [(fixed_maximum, former_fixed_maximum, (qp.polytope, xi)),
                 (seidel_element, reference_seidel_element, (qp, xi)),
                 (verify_leading_term, former_verify_leading_term, (qp, xi)),
                 (verify_leading_term, former_verify_leading_term,
                  (qp, xi, element))]
        for new, former, args in calls:
            got = outcome(new, *args)
            assert got[0] == "error" and got == outcome(former, *args), xi


@pytest.mark.parametrize("corrupt, message", [
    ("off the face", "nonzero weight off the fixed face at vertex {vid}"),
    ("doubled", "weights disagree across vertices of [2]"),
])
def test_a_weight_check_at_another_vertex_of_f_max_fails_as_before(
        corrupt, message):
    """The weights are checked at every vertex of F_max, not only the
    maximizing one found first: a dual basis corrupted at the edge's last
    vertex gives xi a coordinate off the face, or doubles its weight."""
    poly = examples.cp2()
    xi = (1, 1)  # F_max is the edge on facet 2
    face = fixed_maximum(poly, xi).face
    vid = face.vertex_ids[-1]
    basis = poly.dual_basis(vid)
    broken = dataclasses.replace(poly)
    if corrupt == "off the face":
        row = next(row for i, row in basis if i in face.facets)
        broken._duals[vid] = tuple((i, row) for i, _ in basis)
    else:
        broken._duals[vid] = tuple((i, tuple(2 * x for x in row))
                                   for i, row in basis)
    got = outcome(fixed_maximum, broken, xi)
    assert got == ("error", "InconsistentWeights", message.format(vid=vid))
    assert got == outcome(former_fixed_maximum, broken, xi)
