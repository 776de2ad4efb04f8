from fractions import Fraction

import pytest

from cases import fexpr, hirz_y_table
from toricqh import examples
from toricqh.errors import (
    BadCorrectionDegree,
    BadCorrectionValuation,
    MissingYEntry,
    NotAUnit,
)
from toricqh.novikov import NovScalar
from toricqh.quantum import (
    QClass,
    classical_limit_defect,
    default_cutoff,
    fano_presentation,
    lift,
    nef_presentation,
    qadd,
    qinv,
    qprod,
    qscale,
    qsub,
    quantum_nf,
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


def fvar(qp, i, d=0, kappa=0, coeff=1):
    full = [0] * qp.polytope.num_facets
    full[i] = 1
    return lift(qp, {(tuple(full), d, kappa): coeff})


def nov_mono(qp, c, d, kappa):
    return NovScalar.monomial(c, d, kappa, qp.cutoff)


def test_default_cutoffs(blow, square, cp2):
    assert blow.cutoff == 3  # 4 * max(1/4, 3/4)
    assert square.cutoff == 8
    assert cp2.cutoff == 4


def test_hbar(blow, square, cp2):
    assert blow.hbar == F(1, 4)
    assert square.hbar == 1
    assert cp2.hbar == 1


def test_fano_relations_blowup(blow):
    # x3 x4 reduces to q^2 t^{1 - mu^2}
    got = fexpr(blow, {2: 1, 3: 1})
    assert got == fexpr(blow, {}, d=2, kappa=1 - MU ** 2)
    # x1 x2 reduces to x4 q t^{mu^2}
    got = fexpr(blow, {0: 1, 1: 1})
    assert got == fvar(blow, 3, d=1, kappa=MU ** 2)


def test_fano_relations_square(square):
    assert fexpr(square, {0: 1, 1: 1}) == fexpr(square, {}, d=2, kappa=2)
    assert fexpr(square, {2: 1, 3: 1}) == fexpr(square, {}, d=2, kappa=1)


def test_fano_relation_cp2(cp2):
    assert fexpr(cp2, {0: 1, 1: 1, 2: 1}) == fexpr(cp2, {}, d=3, kappa=1)


def test_quantum_nf_is_idempotent(blow):
    z = fexpr(blow, {0: 1, 2: 1})
    assert quantum_nf(z, blow) == z


def test_quantum_relation_reduces_to_zero(blow):
    # x3^2 + x4^2 - x4 q t^{mu^2} - 2 q^2 t^{1-mu^2} is a quantum relation
    z = qsub(qadd(fexpr(blow, {2: 2}), fexpr(blow, {3: 2})),
             qadd(fvar(blow, 3, d=1, kappa=MU ** 2),
                  fexpr(blow, {}, d=2, kappa=1 - MU ** 2, coeff=2)))
    assert z.is_zero()


def test_quantum_nf_point_lift_blowup(blow):
    # nf(x1 x3) = -x4^2 + x4 q t^{mu^2} + q^2 t^{1-mu^2}
    got = fexpr(blow, {0: 1, 2: 1})
    expected = {}
    width = blow.ring.width
    expected[(0, 2)] = nov_mono(blow, -1, 0, 0)
    expected[(0, 1)] = nov_mono(blow, 1, 1, MU ** 2)
    expected[(0, 0)] = nov_mono(blow, 1, 2, 1 - MU ** 2)
    assert got == QClass(expected, blow.cutoff)


def test_qprod_square_diagonal_relation(square):
    assert qprod(fvar(square, 0), fvar(square, 0), square) == \
        fexpr(square, {}, d=2, kappa=2)


def test_qprod_unit(blow):
    a = fexpr(blow, {0: 1, 2: 1})
    assert qprod(blow.one(), a, blow) == a


def test_qprod_grading(blow):
    for i in range(4):
        for j in range(4):
            p = qprod(fvar(blow, i), fvar(blow, j), blow)
            assert p.degree() in (4, 0) or p.is_zero()
            if not p.is_zero():
                assert p.degree() == 4


def test_blowup_products_through_point_lift(blow):
    # p = nf(x1 x3); p * p = x3 q^3 t, p * B = q^3 t with B = x1
    p = fexpr(blow, {0: 1, 2: 1})
    pp = qprod(p, p, blow)
    assert pp == fvar(blow, 2, d=3, kappa=1)
    pb = qprod(p, fvar(blow, 0), blow)
    assert pb == fexpr(blow, {}, d=3, kappa=1)
    ep = qprod(fvar(blow, 3), p, blow)
    assert ep == fvar(blow, 0, d=2, kappa=1 - MU ** 2)


def test_qinv_monomial_unit(square):
    # x1 (x) q^{-1} t^{-mu/2} squares to the unit, so it is its own inverse
    a = fvar(square, 0, d=-1, kappa=-1)
    assert qinv(a, square) == a


def test_qinv_one(blow):
    assert qinv(blow.one(), blow) == blow.one()


def test_qinv_square_sum_example(square):
    # (x1 + x3)^{-1} = (x3 - x1) (x) -q^{-2} t^{-1} (1 + t + t^2 + ...)
    a = qadd(fvar(square, 0), fvar(square, 2))
    u = qinv(a, square)
    assert qprod(a, u, square) == square.one()
    series = NovScalar.zero(square.cutoff)
    k = 0
    while k * 1 - 1 <= square.cutoff:
        series = series + nov_mono(square, 1, 0, k)
        k += 1
    series = series * nov_mono(square, 1, -2, -1)
    expected = qadd(qscale(fvar(square, 2), series),
                    qscale(fvar(square, 0), -series))
    assert u.coeffs == {m: s.with_truncated(u.coeffs[m].truncated)
                        for m, s in expected.coeffs.items()}


def test_qinv_facet_elements_blowup(blow):
    for i in range(4):
        a = fvar(blow, i, d=-1, kappa=-blow.polytope.support(i))
        u = qinv(a, blow)
        assert qprod(a, u, blow) == blow.one()


def test_qinv_rejects_non_unit(blow):
    with pytest.raises(NotAUnit):
        qinv(blow.zero(), blow)


def test_classical_limit_defect_blowup(blow):
    d = classical_limit_defect(fvar(blow, 2), fvar(blow, 3), blow)
    assert d == 1 - MU ** 2
    assert d >= blow.hbar


def test_classical_limit_defect_trivial(blow, square):
    assert classical_limit_defect(blow.one(), fvar(blow, 2), blow) is None
    assert classical_limit_defect(fvar(square, 0), fvar(square, 2),
                                  square) is None


def test_associativity_on_basis(blow):
    basis = [QClass({m: NovScalar.one(blow.cutoff)}, blow.cutoff)
             for m in blow.ring.standard_monomials]
    for a in basis:
        for b in basis:
            ab = qprod(a, b, blow)
            for c in basis:
                left = qprod(ab, c, blow)
                right = qprod(a, qprod(b, c, blow), blow)
                assert qsub(left, right).is_zero()


# ------------------------------------------------------------------- NEF

@pytest.fixture(scope="module")
def hirz():
    poly = examples.hirzebruch2(F(2))
    return nef_presentation(poly, hirz_y_table(default_cutoff(poly)))


def test_nef_presentation_accepted(hirz):
    assert hirz.mode == "nef"
    assert hirz.hbar == 1
    assert set(hirz.corrections) == {frozenset({0, 1}), frozenset({2, 3})}


def test_nef_relation_values(hirz):
    mu = F(2)
    # class of x1 x2 is q^2 t (1 - t^{mu-1}); class of x3^2 is q^2 t^mu
    got = fexpr(hirz, {0: 1, 1: 1})
    expected = qsub(fexpr(hirz, {}, d=2, kappa=1),
                    fexpr(hirz, {}, d=2, kappa=mu))
    assert qsub(got, expected).is_zero()
    got = fexpr(hirz, {2: 2})
    assert qsub(got, fexpr(hirz, {}, d=2, kappa=mu)).is_zero()


def test_nef_rejects_bad_valuation():
    poly = examples.hirzebruch2(F(2))
    cutoff = default_cutoff(poly)
    table = hirz_y_table(cutoff)
    table[0] = {(0, 1, 0, 0): NovScalar.one(cutoff)}  # valuation 0 junk
    with pytest.raises(BadCorrectionValuation):
        nef_presentation(poly, table)


def test_nef_rejects_bad_degree():
    poly = examples.hirzebruch2(F(2))
    cutoff = default_cutoff(poly)
    table = hirz_y_table(cutoff)
    table[0] = {(0, 2, 0, 0): NovScalar.monomial(1, 0, 1, cutoff)}
    with pytest.raises(BadCorrectionDegree):
        nef_presentation(poly, table)


def test_nef_requires_complete_table():
    poly = examples.hirzebruch2(F(2))
    cutoff = default_cutoff(poly)
    table = hirz_y_table(cutoff)
    del table[1]
    with pytest.raises(MissingYEntry):
        nef_presentation(poly, table)


def test_empty_y_table_on_fano_matches_fano():
    poly = examples.s2xs2(F(2))
    qp_nef = nef_presentation(poly, {0: {}, 1: {}, 2: {}, 3: {}})
    qp_fano = fano_presentation(poly)
    for key in qp_fano.corrections:
        assert qp_fano.corrections[key] == qp_nef.corrections[key]


def test_nef_associativity_sample(hirz):
    basis = [QClass({m: NovScalar.one(hirz.cutoff)}, hirz.cutoff)
             for m in hirz.ring.standard_monomials]
    for a in basis:
        for b in basis:
            ab = qprod(a, b, hirz)
            for c in basis:
                left = qprod(ab, c, hirz)
                right = qprod(a, qprod(b, c, hirz), hirz)
                assert qsub(left, right).is_zero()
