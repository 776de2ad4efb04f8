"""A Seidel call in integers against the code it replaced.

`fixed_maximum` finds F_max in one integer pass (the levels <xi, .>, their
argmax and xi's coordinates there), Fano `seidel_element` lifts x^a as an
exponent tuple with coefficient 1 and forms the shift (m, -K) once,
`verify_leading_term` forms -K and x_F once, and `to_homology_report` sorts
its entries on the unflipped (kappa, d).  The former versions are kept here
verbatim as the reference, with the class methods and actions helpers they
read (`degree`, `valuation`, `slice_at`, `_check_xi`, `_component`,
`_weights`), and the new code must give the same classes (key and
coefficient types included), flags, reports, homology entries and errors:
on the corpus over box(n, 2), box(n, 1) in dimension 4; on hirzebruch2 in
NEF mode; and at the cutoffs 1/2 and 1 of the `small cutoff` digest class.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

from test_warm_seidel import PRESENTED, outcome, presentation
from toricqh import examples, linalg
from toricqh.errors import (
    DegenerateRing,
    DictionaryIncomplete,
    ElementMismatch,
    InconsistentWeights,
    MomentNotConstant,
    NonIntegralCoefficient,
    WrongDegree,
    ZeroVector,
)
from toricqh.actions import FixedComponentData, fixed_maximum
from toricqh.polynomials import mono_degree, poly_monomial
from toricqh.polytope import edge_classes_through
from toricqh.novikov import NovScalar
from toricqh.quantum import lift, qpoly_atoms, qscale
from toricqh.seidel import (
    HomologyReport,
    SeidelElement,
    build_dictionary,
    facet_product,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)

F = Fraction
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")
SMALL = ("cp2", "blowup_cp2", "s2xs2", "cp3")  # the `small cutoff` class


# ---------------------------------------------------------- the references

def former_check_xi(xi):
    """xi as a tuple of ints; every entry must be an int, not all zero."""
    xi = tuple(xi)
    for x in xi:
        if type(x) is not int:
            raise NonIntegralCoefficient(
                f"the circle direction has the non-integer entry {x!r}")
    if not any(xi):
        raise ZeroVector("the circle direction must be nonzero")
    return xi


def former_component(face, K, w):
    return FixedComponentData(
        face=face, K=K, weights=w, m=sum(w.values()),
        index=2 * sum(1 for x in w.values() if x < 0),
        coindex=2 * sum(1 for x in w.values() if x > 0),
        semifree=all(abs(x) == 1 for x in w.values()), dimF=2 * face.dim)


def former_weights(coords, face):
    result = None
    for vid in face.vertex_ids:
        w = {i: -c for i, c in coords[vid].items() if c != 0}
        if any(i not in face.facets for i in w):
            raise InconsistentWeights(
                f"nonzero weight off the fixed face at vertex {vid}")
        if result is None:
            result = w
        elif result != w:
            raise InconsistentWeights(
                f"weights disagree across vertices of {sorted(face.facets)}")
    return result


def former_fixed_maximum(poly, xi):
    """F_max, the first of `fixed_components`, from one integer argmax of
    <xi, .> over the scaled vertices: the face cut out by the facets on
    which xi has a nonzero coordinate at a maximizing vertex.  Its vertices
    must be exactly the maximizing ones.  xi is checked once; the weight
    check reuses its coordinates at that vertex and solves the others'."""
    xi = former_check_xi(xi)
    scale, points = poly.scaled_vertices
    values = [linalg.vec_dot(xi, p) for p in points]
    top = max(values)
    vid = values.index(top)
    coords = {vid: poly.coordinates(vid, xi)}
    face = poly.faces[frozenset(i for i, c in coords[vid].items() if c)]
    if face.vertex_ids != tuple(v for v, k in enumerate(values) if k == top):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    coords.update((v, poly.coordinates(v, xi))
                  for v in face.vertex_ids if v != vid)
    return former_component(face, Fraction(top, scale),
                            former_weights(coords, face))


def former_degree(qclass):
    """Common degree of all atoms, or the string 'inhomogeneous'."""
    degs = {2 * mono_degree(m) + 2 * d
            for m, d, _, _ in qpoly_atoms(qclass.coeffs)}
    if len(degs) > 1:
        return "inhomogeneous"
    return degs.pop() if degs else 0


def former_valuation(qclass):
    a = qclass.coeffs
    vals = [s.valuation() for s in a.values() if not s.is_zero()]
    return min(vals) if vals else None


def former_slice_at(qclass, kappa):
    """The level-kappa slice as {(monomial, d): coefficient}."""
    out = {}
    for m, d, k, c in qpoly_atoms(qclass.coeffs):
        if k == kappa:
            out[(m, d)] = out.get((m, d), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def former_seidel_element(qp, xi):
    poly = qp.polytope
    fmax = former_fixed_maximum(poly, xi)
    xi = tuple(xi)
    if qp.mode == "fano":
        x_a = poly_monomial({i: -w for i, w in fmax.weights.items()},
                            poly.num_facets)
        out = lift(qp, {(m, fmax.m, -fmax.K): c for m, c in x_a.items()})
    else:
        out = facet_product(qp, poly.coordinates(0, xi))
    if former_degree(out) != 0:
        raise WrongDegree(f"the Seidel element of {xi} has degree "
                          f"{former_degree(out)}, not zero")
    return SeidelElement(qclass=out, xi=xi, mode=qp.mode,
                         leading_face=fmax.facets, m_max=fmax.m, K_max=fmax.K,
                         semifree=fmax.semifree)


def former_verify_leading_term(qp, xi, element=None):
    poly = qp.polytope
    xi = former_check_xi(xi)
    if element is None:
        element = former_seidel_element(qp, xi)
    elif element.xi != xi or element.mode != qp.mode:
        raise ElementMismatch(f"the element of {element.xi} in {element.mode}"
                              f" mode, passed for {xi} in {qp.mode} mode")
    face = poly.faces[element.leading_face]
    m_max, K_max = element.m_max, element.K_max
    report = {"f_max": sorted(face.facets), "m_max": m_max, "K_max": K_max,
              "assumptions": [], "exactness": None, "exact_ok": None}
    (x_face,) = poly_monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    expected_lead = qp.ring.monomial_nf(x_face)
    lead_ok = former_valuation(element.qclass) == -K_max
    if lead_ok:
        slice_got = former_slice_at(element.qclass, -K_max)
        slice_want = {(m, m_max): c for m, c in expected_lead.items()}
        lead_ok = slice_got == slice_want
    report["leading_ok"] = lead_ok

    # exactness criteria
    exact_expected = None
    codim = 2 * (poly.n - face.dim)
    if qp.mode == "fano" and face.dim == poly.n - 1:
        exact_expected = lift(qp, {(x_face, m_max, -K_max): 1})
        report["exactness"] = "fano facet maximum"
        report["assumptions"].append("fano asserted by caller")
    else:
        edges = edge_classes_through(poly, face)
        if element.semifree and all(2 * b.c1() >= codim for _, b in edges):
            report["exactness"] = "semifree maximum, all edge classes have " \
                                  "2c1 >= codim"
            report["assumptions"].append(
                "sphere classes checked on toric edge classes only")
            report["assumptions"].append(f"{qp.mode} asserted by caller")
            if face.dim == poly.n - 1:
                exact_expected = qscale(
                    lift(qp, {(x_face, 0, 0): 1}),
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
        report["exact_ok"] = element.qclass == exact_expected
    ok = bool(report["leading_ok"]) and report["exact_ok"] is not False
    return ok, report


def former_to_homology_report(dictionary, qclass, qp):
    n = dictionary.n
    if n > 2 and any(mono_degree(m) > 1 and not s.is_zero()
                     for m, s in qclass.coeffs.items()):
        raise DictionaryIncomplete(
            "degree-4 and higher classes have no geometric names beyond "
            "dimension two")
    work = {m: s for m, s in qclass.coeffs.items() if not s.is_zero()}
    entries = []

    def flip(name, scalar):
        for (d, kappa), c in scalar.sorted_terms():
            entries.append((name, c, -d, -kappa))

    # point part (top degree): only decodable with a point lift
    if n == 2 and dictionary.has_point() and any(
            mono_degree(m) > 1 for m in work):
        if dictionary.top is None:
            raise DegenerateRing("top cohomology is not one dimensional")
        gamma = work.get(dictionary.top)
        if gamma is not None:
            gamma = gamma * dictionary.point_inverse
            flip("p", gamma)
            for m, s in dictionary.point_lift.coeffs.items():
                res = work[m] - gamma * s if m in work else -(gamma * s)
                if res.is_zero():
                    work.pop(m, None)
                else:
                    work[m] = res
    # degree two: prefer a single facet class, else the kept facet classes
    deg2 = {m: s for m, s in work.items() if mono_degree(m) == 1}
    if deg2:
        for i, image, probe, ratio in dictionary.probes:
            if probe not in deg2:
                continue
            gamma = deg2[probe].scale(ratio)  # neither side holds a zero
            if deg2.keys() == image.keys() and all(
                    deg2[m] == gamma.scale(c) for m, c in image.items()):
                flip(dictionary.labels[i], gamma)
                for m in image:
                    work.pop(m, None)
                break
        else:
            for m, s in sorted(deg2.items()):
                flip(dictionary.labels[qp.ring.kept[m.index(1)]], s)
                work.pop(m, None)
    # unit part
    unit = (0,) * qp.ring.width
    if unit in work:
        flip("1", work.pop(unit))
    raw = [(m, d, kappa, c) for m, s in sorted(work.items())
           for (d, kappa), c in s.sorted_terms()]
    entries.sort(key=lambda e: (-e[3], -e[2], e[0]))
    return HomologyReport(entries=tuple(entries), raw=tuple(raw),
                          truncated=qclass.truncated, cutoff=qclass.cutoff)


# ----------------------------------------------------------------- helpers

def box(n, r):
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def circles(poly):
    return box(poly.n, 1 if poly.n == 4 else 2)


def seidel_call(qp, xi, new):
    """Every value of one Seidel call, new or former, typed."""
    fmax, element_of, lead, report = (
        (fixed_maximum, seidel_element, verify_leading_term,
         to_homology_report) if new else
        (former_fixed_maximum, former_seidel_element,
         former_verify_leading_term, former_to_homology_report))
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
        for xi in box(poly.n, 2):
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
    assert_matches(qp, box(2, 2))


@pytest.mark.parametrize("name", SMALL)
@pytest.mark.parametrize("cutoff", [F(1, 2), F(1)], ids=["1/2", "1"])
def test_a_seidel_call_matches_at_the_small_cutoffs(name, cutoff):
    poly, present = PRESENTED[name]
    qp = present(poly, cutoff)
    assert qp.cutoff == cutoff
    assert_matches(qp, box(poly.n, 1))


@pytest.mark.parametrize("name", ["cp2", "cube4", "hirzebruch2 nef"])
def test_a_non_integer_or_zero_direction_fails_as_before(name):
    qp = presentation(name)
    n = qp.polytope.n
    element = seidel_element(qp, (1,) + (0,) * (n - 1))
    for xi in [(1.5,) + (0,) * (n - 1), (F(1),) * n, (True,) * n, (0,) * n]:
        calls = [(fixed_maximum, former_fixed_maximum, (qp.polytope, xi)),
                 (seidel_element, former_seidel_element, (qp, xi)),
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
