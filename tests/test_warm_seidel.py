"""A warm Seidel op against the code it replaced.

`to_homology_report` reads the top monomial, the inverse of the point
lift's top coefficient and the facet-image probes off the dictionary's
decode entry; `fixed_maximum` checks xi once and solves its coordinates at
the maximizing vertex once; `qsub` negates termwise; the exactness test of
`verify_leading_term` and the nontriviality test of the SD rule compare
classes; `edge_classes_through` keeps its sorted pairs per face.  The
references are the former `to_homology_report`, `qsub` and SD rule, and
the one F_max, `verify_leading_term` and edge class references of the
tests.  The new code must give the same values, value types, flags and
errors on the eight presentations of the Seidel sweep (cp2, blowup_cp2,
s2xs2, hirzebruch2 in NEF mode, cp3, cp4, cube3, cube4) over every xi in
[-2, 2]^n, 1,592 ops, on cold and on warm caches.  A cache entry derived
from another records it by identity and is rebuilt when it is replaced."""

import ast
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest

import toricqh
from cases import (
    PRESENTED,
    box_vectors,
    outcome,
    point_and_facet,
    presentation,
    typed,
)
from reference import (
    former_fixed_maximum,
    former_verify_leading_term,
    reference_edge_classes_through,
    reference_qsub,
    reference_rule_sd,
    reference_to_homology_report,
    unchecked_verify_leading_term,
)
from toricqh import actions, examples, obstructions
from toricqh.actions import fixed_maximum
from toricqh.errors import (
    DictionaryIncomplete,
    ElementMismatch,
    NonIntegralCoefficient,
    ToricError,
    ZeroVector,
)
from toricqh.novikov import NovScalar
from toricqh.obstructions import analyze
from toricqh.polytope import DelzantPolytope, edge_classes_through
from toricqh.quantum import QClass, qadd, qprod, qscale, qsub
from toricqh.seidel import (
    build_dictionary,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)

F = Fraction
SWEEP = ("cp2", "blowup_cp2", "s2xs2", "hirzebruch2 nef", "cp3", "cp4",
         "cube3", "cube4")
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")


# ----------------------------------------------------------------- helpers

def sweep_op(qp, xi):
    """One Seidel-sweep op, new and former; the element is shared."""
    poly = qp.polytope
    got = [outcome(fixed_maximum, poly, xi)]
    want = [outcome(former_fixed_maximum, poly, xi)]
    element = seidel_element(qp, xi)
    got.append(outcome(verify_leading_term, qp, xi, element=element))
    want.append(outcome(former_verify_leading_term, qp, xi,
                        element=element))
    got.append(outcome(lambda: to_homology_report(
        build_dictionary(qp), element.qclass, qp)))
    want.append(outcome(lambda: reference_to_homology_report(
        build_dictionary(qp), element.qclass, qp)))
    return got, want


# ------------------------------------------------------ the Seidel sweep

def test_the_sweep_is_the_1592_op_universe():
    assert sum(len(box_vectors(PRESENTED[name][0].n, 2))
               for name in SWEEP) == 1592


@pytest.mark.parametrize("name", SWEEP)
def test_a_sweep_op_matches_the_former_code_cold_and_warm(name):
    qp = presentation(name)
    ops = box_vectors(qp.polytope.n, 2)
    errors = set()
    for state in ("cold", "warm"):
        for xi in ops:
            got, want = sweep_op(qp, xi)
            assert got == want, (name, state, xi)
            errors |= {o[1] for o in got if o[0] == "error"}
    # beyond dimension two, the degree-4 parts have no names
    assert errors == (set() if qp.polytope.n == 2
                      else {"DictionaryIncomplete"})


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "s2xs2",
                                  "hirzebruch2 nef"])
@pytest.mark.parametrize("fraction", [F(1, 2), F(1, 4)],
                         ids=["C/2", "C/4"])
def test_a_sweep_op_matches_below_the_default_cutoff(name, fraction):
    qp = presentation(name, fraction)
    for xi in box_vectors(2, 2):
        got, want = sweep_op(qp, xi)
        assert got == want, (name, fraction, xi)


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "s2xs2",
                                  "hirzebruch2 nef"])
def test_every_class_of_the_dictionary_reports_as_before(name):
    """Products of basis classes reach every branch of the report: the
    point part, a single facet class, the kept facet classes (not on cp2,
    where one facet class spans degree two) and the unit; a copy of the
    dictionary without the point lift leaves the top part raw."""
    qp = presentation(name)
    pointless = dataclasses.replace(build_dictionary(qp), point_lift=None)
    dictionary = build_dictionary(qp)
    one = NovScalar.one(qp.cutoff)
    basis = [QClass({m: one}, qp.cutoff)
             for m in qp.ring.standard_monomials]
    classes = basis + [qprod(a, b, qp) for a in basis for b in basis]
    classes += [qadd(a, qscale(b, NovScalar.monomial(F(-3, 2), 1, F(1, 2),
                                                     qp.cutoff)))
                for a, b in itertools.product(basis, repeat=2)]
    classes.append(dictionary.point_lift)
    for z, d in itertools.product(classes, (dictionary, pointless)):
        assert outcome(to_homology_report, d, z, qp) == \
            outcome(reference_to_homology_report, d, z, qp)
    assert any(to_homology_report(pointless, z, qp).raw for z in classes)


def test_a_class_of_degree_four_beyond_dimension_two_is_still_incomplete():
    qp = presentation("cp3")
    z = qprod(*[QClass({m: NovScalar.one(qp.cutoff)}, qp.cutoff)
                for m in [qp.ring.standard_monomials[1]] * 2], qp)
    with pytest.raises(DictionaryIncomplete):
        to_homology_report(build_dictionary(qp), z, qp)
    with pytest.raises(DictionaryIncomplete):
        reference_to_homology_report(build_dictionary(qp), z, qp)


def test_a_point_lift_is_decoded_once(monkeypatch):
    """The inverse of the top coefficient is taken when the dictionary is
    built, not per report."""
    qp = presentation("blowup_cp2")
    dictionary = build_dictionary(qp)
    z = point_and_facet(qp, dictionary)
    calls = []
    invert = NovScalar.invert
    monkeypatch.setattr(NovScalar, "invert",
                        lambda self: calls.append(self) or invert(self))
    for _ in range(3):
        report = to_homology_report(dictionary, z, qp)
        assert "p" in [e[0] for e in report.entries]
    assert calls == []


# ------------------------------------------------------------ fixed maximum

@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_fixed_maximum_matches_the_former_code(name):
    poly = PRESENTED[name][0]
    for xi in box_vectors(poly.n, 2) + [(0,) * poly.n, (1.5,) * poly.n]:
        assert outcome(fixed_maximum, poly, xi) == \
            outcome(former_fixed_maximum, poly, xi), (name, xi)


def test_fixed_maximum_checks_xi_once_and_solves_each_vertex_once(
        monkeypatch):
    poly = PRESENTED["cube3"][0]
    xi = (0, 0, 1)  # F_max is a facet with four vertices
    fmax = fixed_maximum(poly, xi)
    assert len(fmax.face.vertex_ids) == 4
    checked, solved = [], []
    check, coordinates = actions._check_xi, DelzantPolytope.coordinates
    monkeypatch.setattr(actions, "_check_xi",
                        lambda v, n: checked.append(v) or check(v, n))
    monkeypatch.setattr(DelzantPolytope, "coordinates",
                        lambda self, vid, v: solved.append(vid) or
                        coordinates(self, vid, v))
    assert fixed_maximum(poly, xi) == fmax
    assert checked == [xi]
    assert sorted(solved) == sorted(fmax.face.vertex_ids)


def test_the_weight_check_still_reads_every_vertex_of_f_max():
    """A weight that disagrees at a vertex other than the maximizing one
    found first is still an error, of the same type as before."""
    poly = examples.cp2()
    xi = (1, 1)  # F_max is an edge
    fmax = fixed_maximum(poly, xi)
    assert fmax.face.dim == 1
    last = fmax.face.vertex_ids[-1]
    broken = dataclasses.replace(poly)
    broken._duals[last] = tuple((i, tuple(2 * x for x in row))
                                for i, row in poly.dual_basis(last))
    got = outcome(fixed_maximum, broken, xi)
    assert got[:2] == ("error", "InconsistentWeights")
    assert got == outcome(former_fixed_maximum, broken, xi)


# --------------------------------------------------------------- qsub

def product_cases(qp):
    """Products of basis classes and Novikov multiples of them, truncated
    factors among them below the default cutoff, plus classes that hold an
    untruncated zero scalar or a flagged zero."""
    one = NovScalar.one(qp.cutoff)
    basis = [QClass({m: one}, qp.cutoff) for m in qp.ring.standard_monomials]
    novikov = NovScalar.monomial(F(-3, 2), 1, qp.cutoff * F(3, 4), qp.cutoff)
    cases = [qprod(a, b, qp) for a in basis for b in basis]
    cases += [qprod(qscale(a, novikov), b, qp) for a in basis for b in basis]
    unit = (0,) * qp.ring.width
    cases.append(QClass({unit: NovScalar.zero(qp.cutoff),
                         **basis[-1].coeffs}, qp.cutoff))
    cases.append(QClass({unit: NovScalar({}, qp.cutoff, True)}, qp.cutoff))
    return cases


@pytest.mark.parametrize("name", sorted(PRESENTED))
@pytest.mark.parametrize("fraction", [1, F(1, 2), F(1, 4)],
                         ids=["C", "C/2", "C/4"])
def test_qsub_matches_the_former_code(name, fraction):
    qp = presentation(name, fraction)
    cases = product_cases(qp)
    cases = cases[:-2:max(1, len(cases) // 24)] + cases[-2:]
    flagged = 0
    for a, b in itertools.product(cases, repeat=2):
        got, want = qsub(a, b), reference_qsub(a, b)
        assert typed(got) == typed(want)
        assert [s.truncated for s in got.coeffs.values()] == \
            [s.truncated for s in want.coeffs.values()]
        flagged += want.truncated
    assert flagged  # truncated factors are among the cases


def test_class_equality_is_a_zero_difference():
    qp = presentation("blowup_cp2", F(1, 2))
    cases = product_cases(qp)
    for a, b in itertools.product(cases, repeat=2):
        assert (a == b) == reference_qsub(a, b).is_zero()


# ------------------------------------------------------------- the SD rule

@pytest.mark.parametrize("name", FANO)
def test_sd_findings_match_the_former_code(name):
    qp = presentation(name)
    for xi in box_vectors(qp.polytope.n, 1):
        got = obstructions._rule_sd(qp, xi)[0]
        want = reference_rule_sd(qp, xi)[0]
        assert typed(got) == typed(want), (name, xi)
        if name != "cube4":  # cube4 (1, 1, 1, 1) alone runs for a minute
            report = analyze(qp.polytope, xi, qp)
            assert typed(report.finding("SD")) == typed(want), (name, xi)


# ------------------------------------------------------------ the bugfix

def test_an_element_of_another_circle_is_a_typed_error():
    qp = presentation("cp2")
    element = seidel_element(qp, (0, 1))
    assert unchecked_verify_leading_term(qp, (1, 0), element=element)[1][
        "f_max"] == sorted(element.leading_face)  # the former silent answer
    with pytest.raises(ElementMismatch):
        verify_leading_term(qp, (1, 0), element=element)
    with pytest.raises(ElementMismatch):
        verify_leading_term(qp, (1, 0), element=dataclasses.replace(
            element, xi=(1, 0), mode="nef"))
    assert issubclass(ElementMismatch, ToricError)  # exit 1 in the CLI
    assert verify_leading_term(qp, [0, 1], element=element) == \
        verify_leading_term(qp, (0, 1))


@pytest.mark.parametrize("xi", [(1, 0.5), (1, F(1, 2)), (True, 0)],
                         ids=["float", "fraction", "bool"])
def test_a_non_integer_direction_is_rejected_with_an_element_too(xi):
    qp = presentation("cp2")
    element = seidel_element(qp, (1, 0))
    with pytest.raises(NonIntegralCoefficient):
        verify_leading_term(qp, xi, element=element)
    with pytest.raises(NonIntegralCoefficient):
        verify_leading_term(qp, xi)
    with pytest.raises(ZeroVector):
        verify_leading_term(qp, (0, 0), element=element)


# ---------------------------------------------------------- cache coherence

@pytest.mark.parametrize("name", sorted(PRESENTED))
def test_edge_classes_through_matches_the_former_code(name):
    poly = PRESENTED[name][0]
    for face in poly.faces.values():
        for _ in range(2):  # cold, then from the per-face pairs
            got = edge_classes_through(poly, face)
            assert got == reference_edge_classes_through(poly, face)
            assert type(got) is list


def test_mutating_returned_edge_classes_leaves_the_next_call_unchanged():
    poly = examples.cp2()
    face = next(iter(poly.faces.values()))
    want = edge_classes_through(poly, face)
    got = edge_classes_through(poly, face)
    got.append(None)
    got.reverse()
    edge_classes_through(poly, face).clear()
    assert edge_classes_through(poly, face) == want
    assert edge_classes_through(poly, face) is not \
        edge_classes_through(poly, face)


# ------------------------------------------------------------ typed errors

def test_the_engine_holds_no_assert_statement():
    """A check that protects a result must raise a typed error: python -O
    strips every assert."""
    modules = sorted(pathlib.Path(toricqh.__file__).parent.glob("*.py"))
    assert modules
    found = [f"{path.name}:{node.lineno}" for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
