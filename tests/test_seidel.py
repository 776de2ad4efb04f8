import dataclasses
from fractions import Fraction

import pytest

from cases import box, box_vectors, fexpr, hirz_y_table, simplex
from reference import solve_unimodular
from toricqh import actions as actions_module
from toricqh import examples
from toricqh import seidel as seidel_module
from toricqh.actions import fixed_components
from toricqh.errors import (
    DegenerateEdge,
    DegenerateRing,
    DictionaryIncomplete,
    LeadingFaceMismatch,
    NotAnEdge,
)
from toricqh.novikov import NovScalar
from toricqh.polytope import DelzantPolytope, Face, Facet, edge_class
from toricqh.quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    lift,
    nef_presentation,
    qinv,
    qpow,
    qprod,
    qscale,
    qsub,
)
from toricqh.seidel import (
    build_dictionary,
    facet_seidel,
    seidel_element,
    to_homology_report,
    verify_leading_term,
)

F = Fraction
MU = F(1, 2)
EPS = F(7, 20)


@pytest.fixture(scope="module")
def blow():
    return fano_presentation(examples.blowup_cp2(MU))


@pytest.fixture(scope="module")
def square():
    return fano_presentation(examples.s2xs2(F(2)))


@pytest.fixture(scope="module")
def cp2():
    return fano_presentation(examples.cp2())


@pytest.fixture(scope="module")
def hirz():
    poly = examples.hirzebruch2(F(2))
    return nef_presentation(poly, hirz_y_table(default_cutoff(poly)))


@pytest.fixture(scope="module")
def s2():
    return fano_presentation(examples.s2(F(3)))


def test_edge_classes_blowup(blow):
    poly = blow.polytope
    cls = {i: edge_class(poly, poly.face(frozenset({i}))) for i in range(4)}
    assert cls[0].pairings == (0, 0, 1, 1)  # fiber B
    assert cls[1].pairings == (0, 0, 1, 1)
    assert cls[2].pairings == (1, 1, 1, 0)  # line L
    assert cls[3].pairings == (1, 1, 0, -1)  # exceptional E
    assert cls[2].c1() == 3 and cls[3].c1() == 1 and cls[0].c1() == 2


def test_facet_seidel_blowup(blow):
    s = facet_seidel(blow, 0)
    assert s.qclass == fexpr(blow, {0: 1}, d=-1, kappa=-EPS)
    assert (s.m_max, s.K_max) == (-1, EPS)
    s3 = facet_seidel(blow, 2)
    assert s3.qclass == fexpr(blow, {2: 1}, d=-1, kappa=-(1 - 2 * EPS))


def test_facet_seidel_square(square):
    s = facet_seidel(square, 2)
    assert s.qclass == fexpr(square, {2: 1}, d=-1, kappa=F(-1, 2))


def test_facet_seidel_nef(hirz):
    mu = F(2)
    eps = mu / 2 + F(1, 6) / mu
    c2 = eps + F(1, 2) - mu / 2
    s = facet_seidel(hirz, 1)
    # Y2 = x2 / (1 - t^{mu-1}) shifted by q^{-1} t^{-c2}
    series = NovScalar.zero(hirz.cutoff)
    k = 0
    while k * (mu - 1) - c2 <= hirz.cutoff:
        series = series + NovScalar.monomial(1, -1, k * (mu - 1) - c2,
                                             hirz.cutoff)
        k += 1
    expected = qscale(fexpr(hirz, {1: 1}), series)
    assert qsub(s.qclass, expected).is_zero()
    assert s.qclass.truncated


def test_seidel_element_square_diagonal(square):
    el = seidel_element(square, (1, 1))
    assert el.qclass == fexpr(square, {0: 1, 2: 1}, d=-2, kappa=F(-3, 2))
    assert (el.m_max, el.K_max) == (-2, F(3, 2))


def test_seidel_element_blowup_lambda_prime(blow):
    el = seidel_element(blow, (-2, -1))
    point = build_dictionary(blow).point_lift
    expected = qsub(
        qscale(point, NovScalar.monomial(1, -2, MU ** 2 - 3 * EPS,
                                         blow.cutoff)),
        fexpr(blow, {3: 1}, d=-1, kappa=2 * MU ** 2 - 3 * EPS))
    assert qsub(el.qclass, expected).is_zero()


def test_seidel_element_degree_zero(blow, square):
    for qp, xi in ((blow, (1, 2)), (blow, (-2, -1)), (square, (1, 1)),
                   (square, (-1, 2))):
        assert seidel_element(qp, xi).qclass.degree() == 0


def test_verify_leading_blowup_facets(blow):
    for i, support in ((3, 2 * EPS - MU ** 2), (0, EPS)):
        ok, report = verify_leading_term(blow, blow.polytope.normal(i))
        assert ok and report["leading_ok"]
        assert report["exactness"] == "fano facet maximum"
        assert report["exact_ok"]


def test_verify_leading_blowup_inverse_circle(blow):
    ok, report = verify_leading_term(blow, (1, 0))
    assert ok and report["leading_ok"]
    assert report["exact_ok"]
    assert report["f_max"] == [1, 2]
    assert report["m_max"] == -2 and report["K_max"] == 1 - EPS


def test_verify_leading_s2(s2):
    el = seidel_element(s2, (1,))
    ok, report = verify_leading_term(s2, (1,), element=el)
    assert ok and report["exact_ok"]
    assert el.qclass == fexpr(s2, {0: 1}, d=-1, kappa=F(-3, 2))


def test_verify_leading_nef_gamma1(hirz):
    ok, report = verify_leading_term(hirz, (0, 1))
    assert ok and report["leading_ok"] and report["exact_ok"]


def test_verify_leading_nef_gamma2_not_exact_claim(hirz):
    ok, report = verify_leading_term(hirz, (0, -1))
    assert ok and report["leading_ok"]
    assert report["exactness"] is None  # edge class of c1 = 0 blocks the rule


def test_dictionary_point_lifts(blow, square, cp2):
    d = build_dictionary(blow)
    assert d.point_vertex == (0, 2)
    assert d.point_lift == fexpr(blow, {0: 1, 2: 1})
    d = build_dictionary(square)
    assert d.point_lift == fexpr(square, {0: 1, 2: 1})
    d = build_dictionary(cp2)
    assert d.point_lift == fexpr(cp2, {0: 1, 1: 1})


def test_homology_report_facet_elements(blow):
    d = build_dictionary(blow)
    rep = to_homology_report(d, facet_seidel(blow, 0).qclass, blow)
    assert rep.entries == (("B", 1, 1, EPS),)
    rep = to_homology_report(d, facet_seidel(blow, 3).qclass, blow)
    assert rep.entries == (("E", 1, 1, 2 * EPS - MU ** 2),)
    assert not rep.raw


def test_homology_report_products(blow):
    d = build_dictionary(blow)
    p = d.point_lift
    ep = qprod(fexpr(blow, {3: 1}), p, blow)
    rep = to_homology_report(d, ep, blow)
    assert rep.entries == (("B", 1, -2, MU ** 2 - 1),)
    pp = qprod(p, p, blow)
    rep = to_homology_report(d, pp, blow)
    assert rep.entries == (("L", 1, -3, -1),)
    rep = to_homology_report(d, blow.one(), blow)
    assert rep.entries == (("1", 1, 0, 0),)


def test_homology_report_point(blow):
    d = build_dictionary(blow)
    bl = qprod(fexpr(blow, {0: 1}), fexpr(blow, {2: 1}), blow)
    rep = to_homology_report(d, bl, blow)
    assert rep.entries == (("p", 1, 0, 0),)


def test_inverse_law_concrete(blow, square):
    from toricqh.quantum import qinv
    for qp, xi in ((blow, (-1, 0)), (blow, (1, 1)), (square, (1, 1))):
        el = seidel_element(qp, xi)
        rev = seidel_element(qp, tuple(-x for x in xi))
        assert qsub(qprod(el.qclass, rev.qclass, qp), qp.one()).is_zero()


def test_homomorphism_concrete(blow):
    s1 = seidel_element(blow, (-1, 0))
    s4 = seidel_element(blow, (-1, -1))
    s14 = seidel_element(blow, (-2, -1))
    assert qsub(qprod(s1.qclass, s4.qclass, blow), s14.qclass).is_zero()


def test_blowup_seidel_identities(blow):
    # S(L3) = S(L4)^{-1} = S(L1)^{-2}
    from toricqh.quantum import qinv, qpow
    s1 = facet_seidel(blow, 0).qclass
    s3 = facet_seidel(blow, 2).qclass
    s4 = facet_seidel(blow, 3).qclass
    assert qsub(s3, qinv(s4, blow)).is_zero()
    s1inv = qinv(s1, blow)
    assert qsub(s3, qprod(s1inv, s1inv, blow)).is_zero()


def test_vertex_independence_manual(blow):
    # decompose at every vertex by hand and compare
    from toricqh.quantum import qinv, qpow
    poly = blow.polytope
    xi = (-2, -1)
    reference = seidel_element(blow, xi).qclass
    for vid in range(len(poly.vertices)):
        idx = sorted(poly.vertex_facets(vid))
        coeffs = solve_unimodular([poly.normal(i) for i in idx], xi)
        out = blow.one()
        for i, a in zip(idx, coeffs):
            base = facet_seidel(blow, i).qclass
            if a > 0:
                out = qprod(out, qpow(base, a, blow), blow)
            elif a < 0:
                out = qprod(out, qpow(qinv(base, blow), -a, blow), blow)
        assert qsub(out, reference).is_zero()


def _vertex_zero_inverse_formula(qp, xi, inverses):
    """S(xi) as the product over xi's coordinates at vertex 0, with the
    inverse facet element for a negative coordinate."""
    out = qp.one()
    for i, a in qp.polytope.coordinates(0, xi).items():
        base = facet_seidel(qp, i).qclass
        if a < 0:
            if i not in inverses:
                inverses[i] = qinv(base, qp)
            base = inverses[i]
        out = qprod(out, qpow(base, abs(a), qp), qp)
    return out


@pytest.mark.parametrize("poly, radius", [
    (examples.s2(F(3)), 2),
    (examples.cp2(), 2),
    (examples.blowup_cp2(MU), 2),
    (examples.s2xs2(F(2)), 2),
    (simplex(3), 1),
    (box(3), 1),
], ids=["s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cube3"])
def test_fano_element_matches_vertex_zero_inverse_formula(poly, radius):
    qp = fano_presentation(poly)
    inverses = {}
    for xi in box_vectors(poly.n, radius):
        got = seidel_element(qp, xi).qclass
        want = _vertex_zero_inverse_formula(qp, xi, inverses)
        assert got == want, xi
        assert got.truncated == want.truncated, xi


@pytest.mark.parametrize("poly, radius", [
    (examples.cp2(), 2),
    (examples.blowup_cp2(MU), 2),
    (simplex(3), 1),
], ids=["cp2", "blowup_cp2", "cp3"])
def test_leading_term_reads_f_max_off_the_element(monkeypatch, poly,
                                                  radius):
    qp = fano_presentation(poly)
    if poly.n == 2:
        build_dictionary(qp)  # the point lift needs Seidel elements
    cases = [(xi, seidel_element(qp, xi), fixed_components(poly, xi)[0])
             for xi in box_vectors(poly.n, radius)]

    def refuse(*args):
        raise AssertionError("fixed components computed again")

    monkeypatch.setattr(seidel_module, "fixed_components", refuse,
                        raising=False)
    monkeypatch.setattr(actions_module, "fixed_components", refuse)
    for xi, element, fmax in cases:
        _, report = verify_leading_term(qp, xi, element=element)
        assert report["f_max"] == sorted(fmax.facets), xi
        assert (report["m_max"], report["K_max"]) == (fmax.m, fmax.K), xi
        assert element.semifree == fmax.semifree, xi


# ------------------------------------------------ checks that are not asserts

def test_edge_class_of_a_two_dimensional_face_is_a_typed_error(blow):
    poly = blow.polytope
    with pytest.raises(NotAnEdge):
        edge_class(poly, poly.face(frozenset()))


@pytest.mark.parametrize("far_facets", [
    # the far end lies on facet 2, whose normal (1, 1) has coordinate +1,
    # not -1, on facet 0 at the near end
    frozenset({1, 2}),
    # both ends are cut by facet 0
    frozenset({0, 1}),
], ids=["coordinate_not_minus_one", "one_end_facet"])
def test_a_degenerate_edge_is_a_typed_error(far_facets):
    edge = Face(facets=frozenset({1}), dim=1, vertex_ids=(0, 1))
    poly = DelzantPolytope(
        n=2, facets=(Facet((1, 0), 0), Facet((0, 1), 0), Facet((1, 1), 1)),
        vertices=(((F(0), F(0)), frozenset({0, 1})),
                  ((F(1), F(0)), far_facets)),
        faces={edge.facets: edge})
    with pytest.raises(DegenerateEdge):
        edge_class(poly, edge)


def test_a_point_lift_from_a_wrong_maximum_is_a_typed_error(monkeypatch):
    qp = fano_presentation(examples.cp2())
    real = seidel_module.seidel_element

    def not_semifree(qp, xi):
        return dataclasses.replace(real(qp, xi), semifree=False)

    monkeypatch.setattr(seidel_module, "seidel_element", not_semifree)
    with pytest.raises(LeadingFaceMismatch):
        build_dictionary(qp)


def test_a_second_top_monomial_in_a_homology_report_is_a_typed_error():
    # a hand-built ring with two top standard monomials
    qp = fano_presentation(examples.s2xs2())
    qp = dataclasses.replace(qp, ring=dataclasses.replace(
        qp.ring, standard_monomials=qp.ring.standard_monomials + ((2, 0),)))
    dictionary = build_dictionary(qp)
    point = QClass({(1, 1): NovScalar.one(qp.cutoff)}, qp.cutoff)
    with pytest.raises(DegenerateRing):
        to_homology_report(dictionary, point, qp)


def test_dictionary_incomplete_is_raised_before_the_report_is_built():
    """A caller that keeps the error keeps no partial report: the frame
    that raises it has built no `work` copy of the class."""
    qp = fano_presentation(simplex(3))
    square = lift(qp, {((2, 0, 0, 0), 0, 0): F(1)})
    with pytest.raises(DictionaryIncomplete) as info:
        to_homology_report(build_dictionary(qp), square, qp)
    tb = info.tb
    while tb.tb_next is not None:
        tb = tb.tb_next
    assert tb.tb_frame.f_code.co_name == "to_homology_report"
    assert "work" not in tb.tb_frame.f_locals
