"""`quantum.lift` on {(full monomial, q, t): coefficient} terms against the
routes it replaced: the former `lift` (keywords d, kappa and coeff, one
validating NovScalar per term scaled through `kept_qpoly`) and the former
`cli._kept_terms`, both kept verbatim as references: `former_lift` and
`former_from_terms`, and `reference_from_terms`, which flags a zero as
`lift` does.  Results are
compared by terms, the types of every exponent and coefficient, the flags,
and the identity of the cutoff."""

import itertools
from fractions import Fraction

import pytest

from cases import CUTOFFS, PRESENTED, facet_monomials, presented, typed_class
from reference import former_from_terms, former_lift, reference_from_terms
from toricqh.errors import (
    DimensionMismatch,
    ExprSyntaxError,
    InexactNumber,
    NonIntegralCoefficient,
)
from toricqh.exprparse import parse_expression
from toricqh.polynomials import mono_mul
from toricqh.quantum import lift

F = Fraction

# the EXPRESSION_PAIRS of scripts/output_digest.py
EXPRESSION_PAIRS = (
    ("2*x1^2 - 1/2*q*t^{1/3}*(x2 + x3)", "x1"),
    ("(x1 - x2)^3", "x3 - 2*x1"),
    ("q^-1 * t^{-2/3} * x1*x2", "3/4"),
    ("0", "x1"),
    ("x1^0 + t^{1/2}*q^2", "x2 - -x3"),
)


# ------------------------------------------------------------------ checks

def assert_same(got, want, qp, what):
    assert typed_class(got) == typed_class(want), what
    assert got.cutoff is qp.cutoff, what
    assert all(s.cutoff is qp.cutoff for s in got.coeffs.values()), what


# ------------------------------------------------------------------ cases

def shifts(qp):
    """(coefficient, q-exponent, t-exponent) of the Novikov factors: plain,
    off the grid, just below the cutoff, and above it."""
    return [(1, 0, F(0)), (F(-3, 2), 1, F(-1, 2)), (2, -1, F(2, 3)),
            (F(1, 3), 0, qp.cutoff - F(1, 7)), (5, 2, qp.cutoff + F(1, 5))]


def linear_relations(poly):
    """{facet monomial of degree one: <normal, e_k>} for each coordinate k;
    the kept images of each relation's terms cancel."""
    N = poly.num_facets
    return [{tuple(int(j == i) for j in range(N)): poly.normal(i)[k]
             for i in range(N) if poly.normal(i)[k]}
            for k in range(poly.n)]


CASES = [(name, cutoff) for name in sorted(PRESENTED)
         for cutoff in CUTOFFS[name]]


@pytest.mark.parametrize("name, cutoff", CASES)
def test_facet_monomials_with_shifts_match_both_former_routes(name, cutoff):
    qp = presented(name, cutoff)
    poly = qp.polytope
    novikov = shifts(qp)
    monos = facet_monomials(poly.num_facets, poly.n)
    flagged = 0
    for mono, (c, d, kappa) in [(m, novikov[j % len(novikov)])
                                for j, m in enumerate(monos)] + \
            [(monos[-1], shift) for shift in novikov]:
        got = lift(qp, {(mono, d, kappa): c})
        want = former_lift(qp, {mono: F(1)}, d=d, kappa=kappa, coeff=c)
        assert_same(got, want, qp, (name, mono, d, kappa))
        assert_same(got, reference_from_terms(qp, {(mono, d, kappa): c}), qp,
                    (name, mono, d, kappa))
        flagged += got.truncated
    assert flagged  # the shift above the cutoff flags


@pytest.mark.parametrize("name, cutoff", CASES)
def test_terms_above_the_cutoff_zero_coefficients_and_cancelling_images(
        name, cutoff):
    qp = presented(name, cutoff)
    poly = qp.polytope
    N = poly.num_facets
    x1, unit = (1,) + (0,) * (N - 1), (0,) * N
    above, below = qp.cutoff + F(1, 5), qp.cutoff - F(1, 7)
    cases = [
        ({(x1, 0, above): F(2)}, True),  # alone: a flagged zero
        ({(x1, 0, above): F(2), (unit, 0, F(0)): F(1)}, True),
        ({(x1, 0, above): F(0)}, False),  # a zero coefficient adds nothing
        ({(x1, 0, F(1, 7)): 0, (unit, 1, below): F(-1, 2)}, False),
        ({(x1, 0, F(0)): F(0)}, False),
    ]
    for relation in linear_relations(poly):
        for kappa, shift in ((F(0), unit), (below, x1), (above, unit)):
            terms = {(mono_mul(m, shift), 1, kappa): F(c)
                     for m, c in relation.items()}
            cases.append((terms, kappa > qp.cutoff))
            # one cancelling term moved above the cutoff flags the class
            ((m0, d0, _), c0), *rest = terms.items()
            cases.append(({(m0, d0, above): c0, **dict(rest)}, True))
    for terms, flag in cases:
        got = lift(qp, terms)
        assert got.truncated == flag, (name, terms)
        assert_same(got, reference_from_terms(qp, terms), qp, (name, terms))
        assert_same(lift(qp, terms, truncated=True),
                    reference_from_terms(qp, terms, truncated=True), qp,
                    (name, terms))
    for relation in linear_relations(poly):
        got = lift(qp, {(m, 0, F(0)): F(c) for m, c in relation.items()})
        assert got.is_zero() and not got.truncated, name


@pytest.mark.parametrize("name, cutoff", CASES)
def test_empty_input(name, cutoff):
    qp = presented(name, cutoff)
    got = lift(qp, {})
    assert_same(got, former_from_terms(qp, {}), qp, name)
    assert got.is_zero() and not got.truncated and got == qp.zero()
    # a flagged empty input is a flagged zero; the former route dropped
    # the flag, since it set it on kept coefficients and there were none
    flagged = lift(qp, {}, truncated=True)
    assert flagged.is_zero() and flagged.truncated
    assert flagged.cutoff is qp.cutoff
    assert not former_from_terms(qp, {}, truncated=True).truncated


@pytest.mark.parametrize("name, cutoff", CASES)
def test_the_digest_expressions_match_both_former_routes(name, cutoff):
    qp = presented(name, cutoff)
    parsed = 0
    for text in itertools.chain.from_iterable(EXPRESSION_PAIRS):
        try:
            terms = parse_expression(text, qp.polytope.num_facets)
        except ExprSyntaxError:  # x3 on the two facets of s2
            assert qp.polytope.num_facets < 3, (name, text)
            continue
        parsed += 1
        for flag in (False, True):
            assert_same(lift(qp, terms, truncated=flag),
                        reference_from_terms(qp, terms, truncated=flag), qp,
                        (name, text, flag))
        full = {}
        for (mono, d, kappa), c in terms.items():
            if (d, kappa) == (0, 0):
                full[mono] = c
        if len(full) == len(terms):  # a classical expression
            assert_same(lift(qp, terms), former_lift(qp, full), qp,
                        (name, text))
    assert parsed >= 6


# a malformed term of cp2, the error it raises, and what the former lift did
MALFORMED = [
    ({((1, 0, 0), 0, 0.5): 1}, InexactNumber,
     "the t-exponent 0.5 is not an int or a Fraction"),  # AttributeError
    ({((1, 0, 0), 0, 0): 0.5}, InexactNumber,
     "the coefficient 0.5 is not an int or a Fraction"),  # AttributeError
    ({((1, 0, 0), 0, 0): "1"}, InexactNumber,
     "the coefficient '1' is not an int or a Fraction"),  # AttributeError
    ({((1, 0, 0), 0.5, 0): 1}, NonIntegralCoefficient,
     "the q-exponent 0.5 is not an int"),  # answered q^0.5 x1
    ({((1, 0, 0), F(1), 0): 1}, NonIntegralCoefficient,
     "the q-exponent Fraction(1, 1) is not an int"),  # answered
    ({((1, 0), 0, 0): 1}, DimensionMismatch,
     "the monomial (1, 0) has 2 exponents, not 3"),  # answered x1
    ({((1, 0, 0, 0), 0, 0): 1}, DimensionMismatch,
     "the monomial (1, 0, 0, 0) has 4 exponents, not 3"),  # answered x1
    ({((1, -1, 0), 0, 0): 1}, NonIntegralCoefficient,
     "the monomial (1, -1, 0) has an exponent that is not an int >= 0"),
    ({((2.0, 0, 0), 0, 0): 1}, NonIntegralCoefficient,
     "the monomial (2.0, 0, 0) has an exponent that is not an int >= 0"),
]


@pytest.mark.parametrize("terms, error, message", MALFORMED,
                         ids=["float t", "float c", "str c", "float q",
                              "Fraction q", "short monomial",
                              "long monomial", "negative exponent",
                              "float exponent"])
def test_a_malformed_term_is_a_typed_error(terms, error, message):
    qp = presented("cp2")
    # one well-formed term beside it does not hide it
    terms = {((0, 1, 0), 0, F(1, 2)): F(3), **terms}
    for flag in (False, True):
        with pytest.raises(error) as err:
            lift(qp, terms, truncated=flag)
        assert str(err.value) == message


def test_a_zero_coefficient_is_still_checked():
    qp = presented("cp2")
    with pytest.raises(DimensionMismatch):
        lift(qp, {((1, 0), 0, 0): 0})
    assert lift(qp, {((1, 0, 0), 0, F(1, 2)): 0}).is_zero()
