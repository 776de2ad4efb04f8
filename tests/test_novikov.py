from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import hirz_y_table
from toricqh import cli, examples
from toricqh.errors import (
    CutoffMismatch,
    InexactNumber,
    NonIntegralCoefficient,
    NotAUnit,
    ZeroElement,
)
from toricqh.novikov import NovScalar
from toricqh.quantum import fano_presentation, nef_presentation

F = Fraction
CUT = F(4)


def mono(c, d, k, cutoff=CUT):
    return NovScalar.monomial(c, d, k, cutoff)


def test_product_adds_exponents():
    a = mono(1, 1, F(1, 2))
    assert a * a == mono(1, 2, 1)


def test_addition_with_zero():
    a = mono(3, -2, F(5, 7))
    assert a + NovScalar.zero(CUT) == a


def test_cutoff_mismatch_raises():
    with pytest.raises(CutoffMismatch):
        mono(1, 0, 0) + mono(1, 0, 0, cutoff=F(5))


def test_truncation_drops_and_flags():
    a = mono(1, 0, 3)
    b = a * a  # exponent 6 > 4
    assert b.is_zero() and b.truncated


def test_valuation_examples():
    mu = F(1, 2)
    a = mono(1, 2, 1 - mu ** 2) + mono(1, 1, mu ** 2)
    assert a.valuation() == F(1, 4)
    assert NovScalar.one(CUT).valuation() == 0
    assert mono(5, -3, -1).valuation() == -1
    with pytest.raises(ZeroElement):
        NovScalar.zero(CUT).valuation()


def test_invert_monomial():
    a = mono(1, 1, F(1, 2))
    inv = a.invert()
    assert inv == mono(1, -1, F(-1, 2))
    assert (a * inv) == NovScalar.one(CUT)


def test_invert_one():
    one = NovScalar.one(CUT)
    assert one.invert() == one


def test_invert_geometric_series():
    mu = F(2)
    a = NovScalar.one(CUT) - mono(1, 0, mu - 1)
    inv = a.invert()
    expected = NovScalar.zero(CUT)
    k = 0
    while k * (mu - 1) <= CUT:
        expected = expected + mono(1, 0, k * (mu - 1))
        k += 1
    assert inv.terms == expected.terms
    assert inv.truncated
    prod = a * inv
    assert prod.terms == NovScalar.one(CUT).terms


def test_invert_with_negative_leading_exponent():
    # 1 - t^{mu-1} with mu < 1: leading term is the t^{mu-1} one, so the
    # stored residue of a*inv(a) may reach down to cutoff - 1/2
    mu = F(1, 2)
    a = NovScalar.one(CUT) - mono(1, 0, mu - 1)
    inv = a.invert()
    rem = a * inv - NovScalar.one(CUT)
    assert rem.is_zero() or rem.valuation() > CUT - F(1, 2)


def test_not_a_unit_two_minimal_terms():
    a = mono(1, 0, 0) + mono(1, 1, 0)
    with pytest.raises(NotAUnit):
        a.invert()


def test_sorted_terms_by_valuation_then_q_degree():
    a = mono(F(1, 3), 2, F(3, 4)) + mono(-2, 0, F(-1, 2)) \
        + mono(5, -1, F(3, 4))
    assert a.sorted_terms() == [((0, F(-1, 2)), -2), ((-1, F(3, 4)), 5),
                                ((2, F(3, 4)), F(1, 3))]


def scalars():
    term = st.tuples(st.integers(-3, 3),
                     st.fractions(min_value=F(-2), max_value=F(3),
                                  max_denominator=6),
                     st.fractions(min_value=F(-3), max_value=F(3),
                                  max_denominator=8))
    return st.lists(term, max_size=4).map(
        lambda items: NovScalar(
            {(d, k): c for d, k, c in items}, CUT))


@settings(max_examples=60, deadline=None)
@given(a=scalars(), b=scalars(), c=scalars())
def test_ring_axioms(a, b, c):
    assert (a + b).terms == (b + a).terms
    assert (a * b).terms == (b * a).terms
    assert ((a + b) + c).terms == (a + (b + c)).terms
    # distributivity holds exactly here because addition cannot overflow the
    # cutoff when the inputs are already truncated
    assert (a * (b + c)).terms == (a * b + a * c).terms


@settings(max_examples=60, deadline=None)
@given(a=scalars(), b=scalars())
def test_valuation_additive_on_products(a, b):
    if a.is_zero() or b.is_zero():
        return
    prod = a * b
    if prod.is_zero():
        # everything was truncated away
        assert a.valuation() + b.valuation() > CUT or prod.truncated
        return
    assert prod.valuation() == a.valuation() + b.valuation()


@settings(max_examples=40, deadline=None)
@given(a=scalars())
def test_inverse_is_two_sided_up_to_cutoff(a):
    if a.is_zero():
        return
    try:
        inv = a.invert()
    except NotAUnit:
        return
    rem = a * inv - NovScalar.one(CUT)
    if a.valuation() >= 0:
        assert rem.is_zero()
    else:
        # residue confined to the boundary window of width |val(a)|
        assert rem.is_zero() or rem.valuation() > CUT + a.valuation()


def test_an_inverse_above_the_cutoff_is_not_a_unit():
    # t^{-5} inverts to t^5, above the cutoff 1: nothing of it is stored
    with pytest.raises(NotAUnit):
        mono(1, 0, -5, cutoff=1).invert()


# ------------------------------------------------- outside input is checked

@pytest.mark.parametrize("make, error", [
    (lambda: NovScalar.monomial(1, 1.7, 0, 1), NonIntegralCoefficient),
    (lambda: NovScalar.monomial(1, Fraction(2), 0, 1), NonIntegralCoefficient),
    (lambda: NovScalar({(0.5, 0.25): 0.1}, 1), NonIntegralCoefficient),
    (lambda: NovScalar({(0, 0.25): Fraction(1)}, 1), InexactNumber),
    (lambda: NovScalar({(0, Fraction(1, 4)): 0.1}, 1), InexactNumber),
    (lambda: NovScalar.monomial(0.0, 0, 0, 1), InexactNumber),
    (lambda: NovScalar.monomial("1", 0, 0, 1), InexactNumber),
], ids=["float q", "Fraction q", "float q, t and c", "float t",
        "float c", "float zero c", "str c"])
def test_inexact_input_is_a_typed_error(make, error):
    """The constructor rejects what it formerly coerced: a q-exponent 1.7
    read as q^1, and a coefficient 0.1 read as its binary expansion."""
    with pytest.raises(error):
        make()


def test_exact_input_is_kept_exactly():
    a = NovScalar({(1, 0): 2, (-1, Fraction(1, 3)): Fraction(1, 2),
                   (0, 5): 1}, 2)
    assert a.terms == {(1, F(0)): F(2), (-1, F(1, 3)): F(1, 2)}
    assert a.truncated
    assert all(type(d) is int and type(k) is F and type(c) is F
               for (d, k), c in a.terms.items())
    assert NovScalar.monomial(3, -2, Fraction(1, 2), 1) == \
        NovScalar({(-2, F(1, 2)): F(3)}, 1)


# ------------------------------------- inexact cutoffs and factors are typed

def test_a_float_cutoff_to_a_fano_presentation_is_inexact():
    """0.1 was read as 3602879701896397/36028797018963968."""
    with pytest.raises(InexactNumber):
        fano_presentation(examples.cp2(), 0.1)


def test_a_float_cutoff_to_a_nef_presentation_is_inexact():
    with pytest.raises(InexactNumber):
        nef_presentation(examples.hirzebruch2(F(2)), hirz_y_table(F(4)), 0.1)


def test_a_float_cutoff_to_the_cli_presentation_is_inexact(tmp_path):
    poly = examples.hirzebruch2(F(2))
    path = tmp_path / "y.json"
    path.write_text("{}")
    for mode, table in (("nef", str(path)), ("fano", None)):
        with pytest.raises(InexactNumber):
            cli.build_presentation(poly, mode, table, 0.1)


def test_a_float_cutoff_to_a_scalar_is_inexact():
    with pytest.raises(InexactNumber):
        NovScalar.zero(0.1)


def test_a_string_cutoff_is_inexact():
    with pytest.raises(InexactNumber):
        NovScalar({}, "1/2")


def test_a_float_scale_is_inexact():
    with pytest.raises(InexactNumber):
        mono(1, 0, 1).scale(0.1)


def test_a_float_factor_is_inexact():
    a = mono(1, 0, 1)
    with pytest.raises(InexactNumber):
        a * 0.5
    with pytest.raises(InexactNumber):
        0.5 * a


def test_adding_a_number_is_a_type_error():
    a = mono(1, 0, 1)
    for other in (1, F(1, 2), 0.5, "1"):
        with pytest.raises(TypeError):
            a + other
        with pytest.raises(TypeError):
            a - other
    with pytest.raises(TypeError):
        a * "2"
