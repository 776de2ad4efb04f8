"""Acceptance suite: every criterion checked exactly at its stated data.

Each test prints one PASS/FAIL line (run with -s to see them); "match" for
quantum classes means the difference reduces to zero at the presentation's
cutoff.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest

from cases import fexpr, hirz_y_table
from reference import weights
from toricqh import examples
from toricqh.actions import fixed_components, isotropy_order
from toricqh.novikov import NovScalar
from toricqh.obstructions import analyze, chain_bound
from toricqh.oracle import verify_all
from toricqh.polytope import centroid
from toricqh.quantum import (
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qadd,
    qinv,
    qprod,
    qscale,
    qsub,
)
from toricqh.seidel import (
    build_dictionary,
    facet_seidel,
    seidel_element,
    to_homology_report,
)

F = Fraction
MU = F(1, 2)
EPS = F(7, 20)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {label}")


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
def hirz5():
    poly = examples.hirzebruch2(F(2))
    return nef_presentation(poly, hirz_y_table(F(5)), cutoff=F(5))


def hom_entries(qp, qclass):
    report = to_homology_report(build_dictionary(qp), qclass, qp)
    assert not report.raw, f"undecomposed terms {report.raw}"
    return set(report.entries)


def test_criterion_1_blowup_relations_and_products(blow):
    with criterion(1, "blowup relations and product table at mu = 1/2"):
        assert EPS == (1 - MU ** 6) / (3 * (1 - MU ** 4))
        # relations, exactly
        assert fexpr(blow, {2: 1, 3: 1}) == fexpr(blow, {}, d=2,
                                                  kappa=F(3, 4))
        assert fexpr(blow, {0: 1, 1: 1}) == fexpr(blow, {3: 1}, d=1,
                                                  kappa=F(1, 4))
        # the product table, in homology names
        B = fexpr(blow, {0: 1})
        B2 = fexpr(blow, {1: 1})
        L = fexpr(blow, {2: 1})
        E = fexpr(blow, {3: 1})
        p = build_dictionary(blow).point_lift
        assert hom_entries(blow, qprod(B, B2, blow)) == \
            {("E", 1, -1, -F(1, 4))}
        assert hom_entries(blow, qprod(L, E, blow)) == \
            {("1", 1, -2, -F(3, 4))}
        assert hom_entries(blow, qprod(B, L, blow)) == {("p", 1, 0, F(0))}
        assert hom_entries(blow, qprod(p, p, blow)) == \
            {("L", 1, -3, -1)}
        assert hom_entries(blow, qprod(E, p, blow)) == \
            {("B", 1, -2, -F(3, 4))}
        assert hom_entries(blow, qprod(p, B, blow)) == \
            {("1", 1, -3, -1)}


def test_criterion_2_blowup_seidel_elements(blow):
    with criterion(2, "blowup Seidel elements and inverse identities"):
        s1 = facet_seidel(blow, 0)
        s2 = facet_seidel(blow, 1)
        s3 = facet_seidel(blow, 2)
        s4 = facet_seidel(blow, 3)
        assert hom_entries(blow, s1.qclass) == {("B", 1, 1, EPS)}
        assert hom_entries(blow, s2.qclass) == {("B", 1, 1, EPS)}
        assert hom_entries(blow, s3.qclass) == {("L", 1, 1, 1 - 2 * EPS)}
        assert hom_entries(blow, s4.qclass) == \
            {("E", 1, 1, 2 * EPS - MU ** 2)}
        s1_inv = seidel_element(blow, (1, 0))
        assert hom_entries(blow, s1_inv.qclass) == {("p", 1, 2, 1 - EPS)}
        lam_prime = seidel_element(blow, (-2, -1))
        assert hom_entries(blow, lam_prime.qclass) == {
            ("p", 1, 2, 3 * EPS - MU ** 2),
            ("E", -1, 1, 3 * EPS - 2 * MU ** 2)}
        # S(L3) = S(L4)^{-1} = S(L1)^{-2}, exactly
        assert qsub(s3.qclass, qinv(s4.qclass, blow)).is_zero()
        s1i = qinv(s1.qclass, blow)
        assert qsub(s3.qclass, qprod(s1i, s1i, blow)).is_zero()
        assert qsub(qprod(s3.qclass, s4.qclass, blow), blow.one()).is_zero()


def test_criterion_3_product_of_spheres(square, hirz, hirz5):
    with criterion(3, "product of spheres at mu = 2, both toric structures"):
        mu = F(2)
        eps = F(13, 12)
        assert eps == mu / 2 + F(1, 6) / mu
        B = fexpr(square, {0: 1})
        A = fexpr(square, {2: 1})
        p = build_dictionary(square).point_lift
        assert hom_entries(square, qprod(B, B, square)) == \
            {("1", 1, -2, -2)}
        assert hom_entries(square, qprod(A, A, square)) == \
            {("1", 1, -2, -1)}
        assert hom_entries(square, qprod(A, B, square)) == \
            {("p", 1, 0, F(0))}
        assert hom_entries(square, qprod(p, A, square)) == \
            {("B", 1, -2, -1)}
        assert hom_entries(square, qprod(p, B, square)) == \
            {("A", 1, -2, -2)}

        # second toric structure: Gamma_1 has no corrections
        c1 = F(1, 2) + mu / 2 - eps
        g1 = seidel_element(hirz, (0, 1))
        assert hom_entries(hirz, g1.qclass) == {("A+B", 1, 1, c1)}
        assert c1 == F(5, 12)

        # Gamma_2 carries the full geometric series; compare at cutoff 5
        c2 = eps + F(1, 2) - mu / 2
        g2 = seidel_element(hirz5, (0, -1))
        series = NovScalar.zero(hirz5.cutoff)
        k = 0
        while k * (mu - 1) - c2 <= hirz5.cutoff:
            series = series + NovScalar.monomial(1, -1, k * (mu - 1) - c2,
                                                 hirz5.cutoff)
            k += 1
        assert k - 1 >= 3  # at least three series terms inside the cutoff
        expected = qscale(fexpr(hirz5, {1: 1}), series)
        assert qsub(g2.qclass, expected).is_zero()

        # Gamma_3: two-part expression through two correction orders (the
        # element is computed through truncated inverses, so terms beyond
        # the requested orders live in the truncation boundary window)
        g3 = seidel_element(hirz, (1, -1))
        tail = NovScalar.zero(hirz.cutoff)
        k = 1
        while k * (mu - 1) - eps <= hirz.cutoff:
            tail = tail + NovScalar.monomial(1, 0, k * (mu - 1) - eps,
                                             hirz.cutoff)
            k += 1
        assert k - 1 >= 2
        expected = qsub(
            qscale(fexpr(hirz, {2: 1}),
                   NovScalar.monomial(1, -1, -eps, hirz.cutoff)),
            qscale(fexpr(hirz, {1: 1}),
                   tail * NovScalar.monomial(1, -1, 0, hirz.cutoff)))
        order_two = -eps + 2 * (mu - 1)
        residual = qsub(g3.qclass, expected)
        assert residual.is_zero() or residual.valuation() > order_two
        # and the first three slices agree literally
        for kappa in (-eps, -eps + (mu - 1), order_two):
            assert g3.qclass.slice_at(kappa) == expected.slice_at(kappa)

        # Gamma-tilde for xi = (1, 2): exact three-term answer
        gt = seidel_element(hirz, (1, 2))
        S = F(1, 2) + 3 * mu / 2 - 2 * eps
        point = build_dictionary(hirz).point_lift
        expected = qadd(
            qscale(point,
                   NovScalar.monomial(1, -2, -S, hirz.cutoff)
                   + NovScalar.monomial(1, -2, -S + mu - 1, hirz.cutoff)),
            fexpr(hirz, {}, d=0, kappa=mu - S, coeff=2))
        assert qsub(gt.qclass, expected).is_zero()
        assert hom_entries(hirz, gt.qclass) == {
            ("p", 1, 2, S), ("p", 1, 2, S + 1 - mu), ("1", 2, 0, S - mu)}


def test_criterion_4_cp2_seidel_action(cp2):
    with criterion(4, "projective plane vertex-maximum Seidel action"):
        el = seidel_element(cp2, (-1, -1))
        assert hom_entries(cp2, el.qclass) == {("p", 1, 2, F(2, 3))}
        L = fexpr(cp2, {2: 1})
        p = build_dictionary(cp2).point_lift
        assert hom_entries(cp2, qprod(el.qclass, L, cp2)) == \
            {("1", 1, -1, -F(1, 3))}
        assert hom_entries(cp2, qprod(el.qclass, p, cp2)) == \
            {("L", 1, -1, -F(1, 3))}


def test_criterion_5_property_suites(blow, square, cp2):
    with criterion(5, "property suites with zero violations"):
        for qp in (blow, square, cp2):
            report = verify_all(qp.polytope, qp, trials=20)
            assert report["ok"], report


def test_criterion_6_centroid_normalization():
    with criterion(6, "centroid formulas across rational sizes"):
        for mu in (F(1, 2), F(1, 3), F(2, 3), F(3, 5), F(7, 10)):
            poly = examples.blowup_cp2(mu)
            assert centroid(poly) == (F(0), F(0)), mu
        for mu in (F(2), F(3, 2), F(3), F(5, 2), F(7, 3)):
            poly = examples.hirzebruch2(mu)
            assert centroid(poly) == (F(0), F(0)), mu


def test_criterion_7_obstruction_battery(blow, square, cp2):
    with criterion(7, "obstruction battery on the bundled actions"):
        report = analyze(blow.polytope, (-1, 0), blow)
        assert report.verdict == "essential"
        assert {"T1", "SD"} <= set(report.triggered_rules())

        report = analyze(blow.polytope, (-2, -1), blow)
        assert report.verdict == "essential"
        t2 = report.finding("T2")
        assert t2.triggered
        by_face = {tuple(e["face"]): e for e in t2.certificate["components"]}
        assert by_face[(0, 2)]["visible"] and by_face[(0, 2)]["triggered"]
        assert by_face[(0, 2)]["K"] == 3 * EPS - 1
        assert not by_face[(1, 3)]["visible"]

        report = analyze(square.polytope, (1, 1), square)
        assert report.verdict == "essential"
        assert "T1" in report.triggered_rules()

        bound = chain_bound(cp2.polytope, (2, 1))
        assert bound.min_cost == 1 == bound.K_max
        assert bound.m_condition_achievable
        report = analyze(cp2.polytope, (2, 1), cp2)
        assert not report.finding("P6").triggered


def test_criterion_8_isotropy(blow, square):
    with criterion(8, "isotropy orders and weights"):
        poly = blow.polytope
        edge = poly.face(frozenset({2}))  # normal (1, 1)
        assert isotropy_order(poly, (1, -1), edge) == 2

        hirz_poly = examples.hirzebruch2(F(2))
        orders = {tuple(sorted(k)): isotropy_order(hirz_poly, (1, 2),
                                                   hirz_poly.faces[k])
                  for k in hirz_poly.faces if hirz_poly.faces[k].dim == 1}
        assert orders[(2,)] == 3  # the edge with normal (1, -1)
        comps = fixed_components(hirz_poly, (1, 2))
        vmax = comps[0]
        assert tuple(sorted(vmax.facets)) == (0, 2)
        assert sorted(vmax.weights.values()) == [-3, -1]
        for comp in comps:
            assert comp.weights == weights(hirz_poly, (1, 2), comp.face)

        sq = square.polytope
        for key, face in sq.faces.items():
            order = isotropy_order(sq, (1, 1), face)
            assert order == "fixed" or order == 1
        for comp in fixed_components(sq, (1, 1)):
            assert comp.semifree
