"""Novikov scalars on their integer grids against the Fraction-keyed
scalars they replaced.

A scalar keeps its terms as {(d, level): c} on its own grid den, the
t-exponent being level/den.  The grid must not show: one value built on
different grids compares and hashes equal, and `+`, `-`, `*`, `scale` and
`invert` across two grids give what the former scalar, keyed by Fraction
t-exponents with Fraction coefficients and kept verbatim in `reference`
as `FormerNovScalar`, gives.  The engine's scalars are `novikov.NovScalar`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import PRESENTED
from reference import FormerNovScalar
from toricqh import examples, novikov
from toricqh.errors import (
    CutoffMismatch,
    NotAUnit,
    ToricError,
    ZeroElement,
)
from toricqh.quantum import fano_presentation, qinv, quantum_nf
from toricqh.seidel import facet_seidel

F = Fraction
CUT = F(4)
FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")
CP2 = fano_presentation(examples.cp2())


# ------------------------------------------------------------------ helpers

def terms_of(max_denominator, min_value=F(-2)):
    """Fraction-keyed terms {(d, kappa): c}; some lie above CUT."""
    term = st.tuples(st.integers(-3, 3),
                     st.fractions(min_value=min_value, max_value=F(5),
                                  max_denominator=max_denominator),
                     st.fractions(min_value=F(-3), max_value=F(3),
                                  max_denominator=4))
    return st.lists(term, max_size=4).map(
        lambda items: {(d, k): c for d, k, c in items})


def refined(s, k):
    """The value of s on the grid k * s.den."""
    return novikov.NovScalar.on_grid(
        {(d, level * k): c for (d, level), c in s.levels.items()},
        s.den * k, s.cutoff, s.truncated)


def pair(terms, flag, k, cutoff=CUT):
    """The engine's scalar of `terms` on k times its own grid, and the
    former scalar of `terms`."""
    return (refined(novikov.NovScalar(terms, cutoff, flag), k),
            FormerNovScalar(terms, cutoff, flag))


def assert_on_grid(s):
    """Int keys at or below floor(cutoff * den), nonzero coefficients, and
    an int wherever a coefficient is integral."""
    cut = s.cutoff.numerator * s.den // s.cutoff.denominator
    for (d, level), c in s.levels.items():
        assert type(d) is int and type(level) is int and level <= cut
        assert type(c) is int or type(c) is F and c.denominator != 1
        assert c != 0


def outcome(fn):
    """A scalar's read view, flag and cutoff, or its domain error."""
    try:
        value = fn()
    except ToricError as err:
        return ("error", type(err).__name__, str(err))
    if isinstance(value, novikov.NovScalar):
        assert_on_grid(value)
    return ({key: (type(key[1]), type(c), c)
             for key, c in value.terms.items()},
            value.truncated, value.cutoff)


# ---------------------------------------------------------- the grid is hidden

@settings(max_examples=60, deadline=None)
@given(terms=terms_of(6), k=st.integers(2, 5))
def test_one_value_on_any_grid_compares_and_hashes_equal(terms, k):
    """By the constructor, by `trusted`, on a refined grid, and as a
    `_reduce` result on a D refined by 7: one value."""
    qp = CP2
    built = novikov.NovScalar(terms, qp.cutoff)
    values = [built, novikov.NovScalar.trusted(built.terms, qp.cutoff, False),
              refined(built, k)]
    unit = (0,) * qp.ring.width
    reduced = quantum_nf({unit: refined(built, 7 * k)}, qp).coeffs.get(unit)
    if built:
        assert reduced.den % 7 == 0 and reduced.den != built.den
        values.append(reduced)
    for a in values:
        assert_on_grid(a)
        for b in values:
            assert a == b and hash(a) == hash(b)
            assert a.terms == b.terms
    if built:
        assert built != built + built.scale(F(1, 7))


def test_the_grid_of_a_scalar_is_its_own():
    """The lcm of the denominators of the cutoff and of the exponents."""
    s = novikov.NovScalar({(0, F(1, 3)): 1, (1, F(3, 4)): F(2, 2)}, F(5, 2))
    assert s.den == 12 and s.levels == {(0, 4): 1, (1, 9): 1}
    assert all(type(c) is int for c in s.levels.values())
    assert s.terms == {(0, F(1, 3)): F(1), (1, F(3, 4)): F(1)}
    assert all(type(c) is F for c in s.terms.values())
    assert novikov.NovScalar.one(F(1, 6)).den == 6


@settings(max_examples=100, deadline=None)
@given(a=terms_of(6), b=terms_of(4), fa=st.booleans(), fb=st.booleans(),
       ka=st.integers(1, 3), kb=st.integers(1, 3),
       c=st.fractions(min_value=-4, max_value=4, max_denominator=5))
def test_arithmetic_across_grids_matches_the_former_scalar(
        a, b, fa, fb, ka, kb, c):
    ga, ra = pair(a, fa, ka)
    gb, rb = pair(b, fb, kb)
    for got, want in ((lambda: ga + gb, lambda: ra + rb),
                      (lambda: ga - gb, lambda: ra - rb),
                      (lambda: ga * gb, lambda: ra * rb),
                      (lambda: gb * ga, lambda: rb * ra),
                      (lambda: -ga, lambda: -ra),
                      (lambda: ga.scale(c), lambda: ra.scale(c)),
                      (lambda: c * ga, lambda: c * ra),
                      (lambda: ga * int(c), lambda: ra * int(c))):
        assert outcome(got) == outcome(want)
    assert (ga == gb) == (ra == rb)


@settings(max_examples=60, deadline=None)
@given(a=terms_of(3, min_value=F(-1)), flag=st.booleans(),
       k=st.integers(1, 4))
def test_invert_on_a_refined_grid_matches_the_former_scalar(a, flag, k):
    ga, ra = pair(a, flag, k)
    assert outcome(ga.invert) == outcome(ra.invert)


@pytest.mark.parametrize("make, error", [
    (lambda cls: cls.zero(CUT).invert(), ZeroElement),
    (lambda cls: cls.zero(CUT) + cls.one(F(5)), CutoffMismatch),
    (lambda cls: cls.one(CUT) * cls.one(F(5)), CutoffMismatch),
], ids=["invert zero", "add", "mul"])
def test_errors_match_the_former_scalar(make, error):
    for cls in (novikov.NovScalar, FormerNovScalar):
        with pytest.raises(error):
            make(cls)


def test_two_leading_terms_are_not_a_unit_on_any_grid():
    s = refined(novikov.NovScalar({(0, F(1, 2)): 1, (1, F(1, 2)): 2}, CUT), 3)
    with pytest.raises(NotAUnit):
        s.invert()


# ----------------------------------------------- no float reaches a division

@pytest.mark.parametrize("name", FANO)
def test_qinv_of_every_fano_facet_element_has_exact_coefficients(name):
    """qinv solves its unit system with `/`: an int coefficient there
    would give a float, which `NovScalar.monomial` rejects."""
    qp = fano_presentation(PRESENTED[name][0])
    for i in range(qp.polytope.num_facets):
        inverse = qinv(facet_seidel(qp, i).qclass, qp)
        assert not inverse.is_zero()
        for s in inverse.coeffs.values():
            assert_on_grid(s)
            assert all(type(c) is F for c in s.terms.values())
