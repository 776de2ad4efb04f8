"""`quantum.lift` on {(full monomial, q, t): coefficient} terms against the
routes it replaced: the former `lift` (keywords d, kappa and coeff, one
validating NovScalar per term scaled through `kept_qpoly`) and the former
`cli._kept_terms`, both kept here verbatim as references.  Results are
compared by terms, the types of every exponent and coefficient, the flags,
and the identity of the cutoff."""

import itertools
from fractions import Fraction

import pytest

from test_quantum_nf import CORPUS, CUTOFFS, presented, typed
from test_seidel_reads import facet_monomials
from toricqh.errors import ExprSyntaxError
from toricqh.exprparse import parse_expression
from toricqh.novikov import NovScalar
from toricqh.polynomials import mono_mul
from toricqh.quantum import QClass, lift, quantum_nf

F = Fraction

# the EXPRESSION_PAIRS of scripts/output_digest.py
EXPRESSION_PAIRS = (
    ("2*x1^2 - 1/2*q*t^{1/3}*(x2 + x3)", "x1"),
    ("(x1 - x2)^3", "x3 - 2*x1"),
    ("q^-1 * t^{-2/3} * x1*x2", "3/4"),
    ("0", "x1"),
    ("x1^0 + t^{1/2}*q^2", "x2 - -x3"),
)


# ---------------------------------------------------------- the references

def parent_kept_qpoly(ring, terms):
    """Sum of (full-variable monomial, NovScalar) terms as a quantum
    polynomial in the kept variables; truncation flags carry over."""
    out = {}
    for mono, s in terms:
        if s.is_zero() and not s.truncated:
            continue
        for m, c in ring.monomial_image(mono).items():
            out[m] = out[m] + s.scale(c) if m in out else s.scale(c)
    return out


def parent_lift(qp, full_poly, d=0, kappa=0, coeff=1):
    """Quantum class of a polynomial expression in the full facet variables,
    times an optional Novikov monomial."""
    return quantum_nf(parent_kept_qpoly(qp.ring, [
        (m, NovScalar.monomial(Fraction(coeff) * c, d, kappa, qp.cutoff))
        for m, c in full_poly.items()]), qp)


def parent_kept_terms(qp, terms):
    """Kept-variable form of {(full monomial, d, kappa): coefficient}."""
    return parent_kept_qpoly(qp.ring, [
        (mono, NovScalar.monomial(c, d, kappa, qp.cutoff))
        for (mono, d, kappa), c in terms.items()])


def parent_from_terms(qp, terms, truncated=False):
    """The former `qclass_from_json` after parsing its terms."""
    coeffs = parent_kept_terms(qp, terms)
    if truncated:
        coeffs = {m: s.with_truncated(True) for m, s in coeffs.items()}
    return quantum_nf(coeffs, qp)


def reference(qp, terms, truncated=False):
    """`parent_from_terms`, except that a flagged input whose kept
    coefficients are all gone is a flagged zero: the former route set the
    flag on those coefficients and so dropped it."""
    want = parent_from_terms(qp, terms, truncated)
    if truncated and not want.truncated:
        assert not want.coeffs
        want = QClass({(0,) * qp.ring.width:
                       NovScalar.trusted({}, qp.cutoff, True)}, qp.cutoff)
    return want


def assert_same(got, want, qp, what):
    assert typed(got) == typed(want), what
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


CASES = [(name, cutoff) for name in sorted(CORPUS)
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
        want = parent_lift(qp, {mono: F(1)}, d=d, kappa=kappa, coeff=c)
        assert_same(got, want, qp, (name, mono, d, kappa))
        assert_same(got, reference(qp, {(mono, d, kappa): c}), qp,
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
        assert_same(got, reference(qp, terms), qp, (name, terms))
        assert_same(lift(qp, terms, truncated=True),
                    reference(qp, terms, truncated=True), qp, (name, terms))
    for relation in linear_relations(poly):
        got = lift(qp, {(m, 0, F(0)): F(c) for m, c in relation.items()})
        assert got.is_zero() and not got.truncated, name


@pytest.mark.parametrize("name, cutoff", CASES)
def test_empty_input(name, cutoff):
    qp = presented(name, cutoff)
    got = lift(qp, {})
    assert_same(got, parent_from_terms(qp, {}), qp, name)
    assert got.is_zero() and not got.truncated and got == qp.zero()
    # a flagged empty input is a flagged zero; the former route dropped
    # the flag, since it set it on kept coefficients and there were none
    flagged = lift(qp, {}, truncated=True)
    assert flagged.is_zero() and flagged.truncated
    assert flagged.cutoff is qp.cutoff
    assert not parent_from_terms(qp, {}, truncated=True).truncated


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
                        reference(qp, terms, truncated=flag), qp,
                        (name, text, flag))
        full = {}
        for (mono, d, kappa), c in terms.items():
            if (d, kappa) == (0, 0):
                full[mono] = c
        if len(full) == len(terms):  # a classical expression
            assert_same(lift(qp, terms), parent_lift(qp, full), qp,
                        (name, text))
    assert parsed >= 6
