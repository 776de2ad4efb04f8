"""A warm Seidel op against the code it replaced.

`to_homology_report` reads the top monomial, the inverse of the point
lift's top coefficient and the facet-image probes off the dictionary's
decode entry; `fixed_maximum` checks xi once and solves its coordinates at
the maximizing vertex once; `qsub` negates termwise; the exactness test of
`verify_leading_term` and the nontriviality test of the SD rule compare
classes; `edge_classes_through` keeps its sorted pairs per face.  Each
former version is kept here verbatim as the reference, and the new code
must give the same values, value types, flags and errors on the eight
presentations of the Seidel sweep (cp2, blowup_cp2, s2xs2, hirzebruch2 in
NEF mode, cp3, cp4, cube3, cube4) over every xi in [-2, 2]^n, 1,592 ops,
on cold and on warm caches.  A cache entry derived from another records it
by identity and is rebuilt when it is replaced."""

import ast
import dataclasses
import itertools
import pathlib
from fractions import Fraction

import pytest

import toricqh
from test_quantum_nf import CORPUS as PRESENTED
from toricqh import actions, examples, linalg, obstructions
from test_actions import weights
from toricqh.actions import _check_xi, _component, fixed_maximum
from toricqh.errors import (
    DegenerateRing,
    DictionaryIncomplete,
    ElementMismatch,
    MomentNotConstant,
    NonIntegralCoefficient,
    ToricError,
    ZeroVector,
)
from toricqh.novikov import NovScalar
from toricqh.obstructions import Finding, analyze
from toricqh.polynomials import mono_degree, poly_monomial
from toricqh.polytope import DelzantPolytope, edge_class
from toricqh.quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    lift,
    qadd,
    qprod,
    qscale,
    qsub,
)
from toricqh.seidel import (
    HomologyReport,
    build_dictionary,
    edge_classes_through,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)

F = Fraction
SWEEP = ("cp2", "blowup_cp2", "s2xs2", "hirzebruch2 nef", "cp3", "cp4",
         "cube3", "cube4")
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")


# ---------------------------------------------------------- the references

def reference_fixed_maximum(poly, xi):
    """The former `fixed_maximum`: xi checked twice, its coordinates at the
    maximizing vertex solved twice."""
    xi = _check_xi(xi)
    scale, points = poly.scaled_vertices()
    values = [linalg.vec_dot(xi, p) for p in points]
    top = max(values)
    vid = values.index(top)
    face = poly.faces[frozenset(
        i for i, c in poly.coordinates(vid, xi).items() if c)]
    if face.vertex_ids != tuple(v for v, k in enumerate(values) if k == top):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    return _component(face, Fraction(top, scale), weights(poly, xi, face))


def reference_qsub(a, b):
    """The former `qsub`: a series product with -1."""
    minus_one = NovScalar.monomial(-1, 0, 0, b.cutoff)
    return qadd(a, qscale(b, minus_one))


def reference_edge_classes_through(poly, face):
    """The former `edge_classes_through`, derived on every call."""
    keys = {vf - {i} for vf in map(poly.vertex_facets, face.vertex_ids)
            for i in vf}
    edges = sorted(map(poly.faces.__getitem__, keys),
                   key=lambda e: (e.vertex_ids[0], sorted(e.facets)))
    return [(e, edge_class(poly, e)) for e in edges]


def reference_verify_leading_term(qp, xi, element=None):
    """The former `verify_leading_term`: xi unchecked when an element is
    passed, exactness by a difference."""
    poly = qp.polytope
    if element is None:
        element = seidel_element(qp, xi)
    face = poly.faces[element.leading_face]
    m_max, K_max = element.m_max, element.K_max
    report = {
        "f_max": sorted(face.facets),
        "m_max": m_max,
        "K_max": K_max,
        "assumptions": [],
        "exactness": None,
        "exact_ok": None,
    }
    x_face = poly_monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    expected_lead = qp.ring.reduce_full(x_face)
    got_val = element.qclass.valuation()
    lead_ok = got_val == -K_max
    if lead_ok:
        slice_got = element.qclass.slice_at(-K_max)
        slice_want = {(m, m_max): c for m, c in expected_lead.items()}
        lead_ok = slice_got == slice_want
    report["leading_ok"] = lead_ok

    # exactness criteria
    exact_expected = None
    codim = 2 * (poly.n - face.dim)
    if qp.mode == "fano" and face.dim == poly.n - 1:
        exact_expected = lift(qp, {(m, m_max, -K_max): c
                                   for m, c in x_face.items()})
        report["exactness"] = "fano facet maximum"
        report["assumptions"].append("fano asserted by caller")
    else:
        edges = reference_edge_classes_through(poly, face)
        if element.semifree and all(2 * b.c1() >= codim for _, b in edges):
            report["exactness"] = "semifree maximum, all edge classes have " \
                                  "2c1 >= codim"
            report["assumptions"].append(
                "sphere classes checked on toric edge classes only")
            if qp.mode == "fano":
                report["assumptions"].append("fano asserted by caller")
            else:
                report["assumptions"].append("nef asserted by caller")
            if face.dim == poly.n - 1:
                exact_expected = qscale(
                    lift(qp, {(m, 0, 0): c for m, c in x_face.items()}),
                    NovScalar.monomial(1, m_max, -K_max, qp.cutoff))
            elif face.dim == 0 and poly.n <= 2:
                dictionary = build_dictionary(qp)
                exact_expected = qscale(
                    dictionary.point_lift,
                    NovScalar.monomial(1, m_max, -K_max, qp.cutoff))
            else:
                report["assumptions"].append(
                    "no geometric lift available for a middle-dimensional "
                    "maximum; exactness not checked")
    if exact_expected is not None:
        report["exact_ok"] = reference_qsub(element.qclass,
                                            exact_expected).is_zero()
    ok = bool(report["leading_ok"]) and report["exact_ok"] is not False
    return ok, report


def reference_to_homology_report(dictionary, qclass, qp):
    """The former `to_homology_report`: the top monomial, the inverse of
    the point lift's top coefficient and the probe ratios derived on every
    call, zero scalars made for missing keys."""
    n = dictionary.n
    if n > 2 and any(mono_degree(m) > 1 and not s.is_zero()
                     for m, s in qclass.coeffs.items()):
        raise DictionaryIncomplete(
            "degree-4 and higher classes have no geometric names beyond "
            "dimension two")
    work = {m: s for m, s in qclass.coeffs.items() if not s.is_zero()}
    entries = []
    raw = []

    def flip(name, scalar):
        for (d, kappa), c in scalar.sorted_terms():
            entries.append((name, c, -d, -kappa))

    # point part (top degree): only decodable with a point lift
    if n == 2 and dictionary.has_point() and any(
            mono_degree(m) > 1 for m in work):
        top = [m for m in qp.ring.standard_monomials if mono_degree(m) == n]
        if len(top) != 1:
            raise DegenerateRing("top cohomology is not one dimensional")
        m_top = top[0]
        d_top = dictionary.point_lift.coeffs[m_top]
        gamma = work.get(m_top)
        if gamma is not None:
            gamma = gamma * d_top.invert()
            flip("p", gamma)
            for m, s in dictionary.point_lift.coeffs.items():
                cur = work.get(m, NovScalar.zero(qp.cutoff))
                res = cur - gamma * s
                if res.is_zero():
                    work.pop(m, None)
                else:
                    work[m] = res
    # degree two: prefer a single facet class, else the kept facet classes
    deg2 = {m: s for m, s in work.items() if mono_degree(m) == 1}
    if deg2:
        matched = False
        for i in range(len(dictionary.labels)):
            image = dictionary.facet_images[i]
            if not image:
                continue
            probe = next(iter(image))
            if probe not in deg2:
                continue
            gamma = deg2[probe].scale(Fraction(1) / image[probe])
            candidate = {m: gamma.scale(c) for m, c in image.items()}
            if all(deg2.get(m, NovScalar.zero(qp.cutoff)) == candidate.get(
                    m, NovScalar.zero(qp.cutoff))
                   for m in set(deg2) | set(candidate)):
                flip(dictionary.labels[i], gamma)
                for m in image:
                    work.pop(m, None)
                matched = True
                break
        if not matched:
            for m, s in sorted(deg2.items()):
                pos = m.index(1)
                facet = qp.ring.kept[pos]
                flip(dictionary.labels[facet], s)
                work.pop(m, None)
    # unit part
    unit = (0,) * qp.ring.width
    if unit in work:
        flip("1", work.pop(unit))
    for m, s in sorted(work.items()):
        if s.is_zero():
            continue
        for (d, kappa), c in s.sorted_terms():
            raw.append((m, d, kappa, c))
    entries.sort(key=lambda e: (-e[3], -e[2], e[0]))
    return HomologyReport(entries=tuple(entries), raw=tuple(raw),
                          truncated=qclass.truncated, cutoff=qclass.cutoff)


def reference_rule_sd(qp, xi):
    """The former `_rule_sd`: nontriviality by a difference."""
    element = seidel_element(qp, xi)
    nontrivial = not reference_qsub(element.qclass, qp.one()).is_zero()
    ok, lead_report = reference_verify_leading_term(qp, xi, element=element)
    assumptions = ["fano asserted by caller"] if qp.mode == "fano" else \
        ["nef asserted by caller", "Y table supplied by caller"]
    return Finding(rule="SD",
                   triggered=nontrivial,
                   definitive=qp.mode == "fano",
                   certificate={"seidel_nontrivial": nontrivial,
                                "leading_term": lead_report},
                   assumptions=tuple(assumptions)), element


# ----------------------------------------------------------------- helpers

def box_vectors(n, r):
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def presentation(name, fraction=1):
    poly, present = PRESENTED[name]
    return present(poly, default_cutoff(poly) * fraction)


def typed(value):
    """A value with the type of every leaf, so that 1 and Fraction(1), or a
    tuple and a list, read as different."""
    if isinstance(value, dict):
        return ("dict", [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        return (type(value).__name__, [typed(v) for v in items])
    if isinstance(value, NovScalar):
        return ("scalar", typed(value.terms), typed(value.cutoff),
                value.truncated)
    if isinstance(value, QClass):
        return ("class", typed(value.coeffs), typed(value.cutoff))
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,
                [(f.name, typed(getattr(value, f.name)))
                 for f in dataclasses.fields(value)])
    return (type(value).__name__, value)


def outcome(fn, *args, **kwargs):
    """A call's typed value, or the type and message of its domain error."""
    try:
        return typed(fn(*args, **kwargs))
    except ToricError as err:
        return ("error", type(err).__name__, str(err))


def sweep_op(qp, xi):
    """One Seidel-sweep op, new and former; the element is shared."""
    poly = qp.polytope
    got = [outcome(fixed_maximum, poly, xi)]
    want = [outcome(reference_fixed_maximum, poly, xi)]
    element = seidel_element(qp, xi)
    got.append(outcome(verify_leading_term, qp, xi, element=element))
    want.append(outcome(reference_verify_leading_term, qp, xi,
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
            outcome(reference_fixed_maximum, poly, xi), (name, xi)


def test_fixed_maximum_checks_xi_once_and_solves_each_vertex_once(
        monkeypatch):
    poly = PRESENTED["cube3"][0]
    xi = (0, 0, 1)  # F_max is a facet with four vertices
    fmax = fixed_maximum(poly, xi)
    assert len(fmax.face.vertex_ids) == 4
    checked, solved = [], []
    check, coordinates = actions._check_xi, DelzantPolytope.coordinates
    monkeypatch.setattr(actions, "_check_xi",
                        lambda v: checked.append(v) or check(v))
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
    broken = dataclasses.replace(poly, _duals={})
    broken._duals[last] = tuple((i, tuple(2 * x for x in row))
                                for i, row in poly.dual_basis(last))
    got = outcome(fixed_maximum, broken, xi)
    assert got[:2] == ("error", "InconsistentWeights")
    assert got == outcome(reference_fixed_maximum, broken, xi)


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
    assert reference_verify_leading_term(qp, (1, 0), element=element)[1][
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

def scaled(qclass, c):
    return qscale(qclass, NovScalar.monomial(c, 0, 0, qclass.cutoff))


def point_and_facet(qp, dictionary):
    """The point lift plus the first facet class: its report names both."""
    facet = QClass({m: NovScalar.monomial(c, 0, 0, qp.cutoff)
                    for m, c in dictionary.facet_images[0].items()},
                   qp.cutoff)
    z = qadd(dictionary.point_lift, facet)
    names = {e[0] for e in to_homology_report(dictionary, z, qp).entries}
    assert names == {"p", dictionary.labels[0]}
    return z


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "hirzebruch2 nef"])
def test_a_replaced_point_lift_rebuilds_the_decode_entry(name):
    qp = presentation(name)
    dictionary = build_dictionary(qp)
    z = point_and_facet(qp, dictionary)
    first = to_homology_report(dictionary, z, qp)
    assert first == reference_to_homology_report(dictionary, z, qp)
    dictionary.point_lift = scaled(dictionary.point_lift, 2)
    again = to_homology_report(dictionary, z, qp)
    assert again == reference_to_homology_report(dictionary, z, qp)
    assert again != first


def test_a_replaced_dictionary_entry_rebuilds_the_decode_entry():
    """A copy of the dictionary carries the decode entry of the original,
    which records the original point lift and facet images."""
    qp = presentation("blowup_cp2")
    dictionary = build_dictionary(qp)
    z = point_and_facet(qp, dictionary)
    first = to_homology_report(dictionary, z, qp)
    images = tuple({m: 3 * c for m, c in image.items()}
                   for image in dictionary.facet_images)
    for replacement in (
            dataclasses.replace(dictionary,
                                point_lift=scaled(dictionary.point_lift, 3)),
            dataclasses.replace(dictionary, facet_images=images)):
        qp._cache["dictionary"] = replacement
        got = to_homology_report(build_dictionary(qp), z, qp)
        assert got == reference_to_homology_report(replacement, z, qp)
        assert got != first


def test_replaced_standard_monomials_rebuild_the_decode_entry():
    qp = fano_presentation(examples.s2xs2())
    dictionary = build_dictionary(qp)
    point = QClass({(1, 1): NovScalar.one(qp.cutoff)}, qp.cutoff)
    to_homology_report(dictionary, point, qp)
    qp.ring.standard_monomials += ((2, 0),)
    with pytest.raises(DegenerateRing):
        to_homology_report(dictionary, point, qp)


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
