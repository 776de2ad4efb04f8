"""The Groebner division on cached leading monomials, with one traced
division, against the former version, which recomputed every basis
element's leading monomial at every division step and folded quotients
through cofactors in three places.  `divmod_basis` and `TracedBasis` below
are the former code, verbatim; the engine's are `polynomials.divmod_basis`
and `polynomials.TracedBasis`.  On the ten corpus rings both must give the
same elements, cofactors and leading monomials, and the same normal form
and trace for every kept-variable monomial of degree at most 2n and for
drawn polynomials.

The classical layer without search is held to the code it replaced: the
breadth-first `standard_monomials` and the pairwise `_stratum`, which are
the references of their jobs, and the Fraction vertex sums of `integrate`
and `pd_matrix`, kept below verbatim.
Bases (whose reduction now divides only when it must), standard monomials
and pairings must match by repr on the corpus, cube5, cube6 and drawn
Delzant polytopes, and strata on every q of the gcd-closure of the orders
of the corpus circles."""

import functools
import itertools
import math
import random
from dataclasses import fields
from fractions import Fraction
from itertools import combinations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cases import POLYTOPES, box, exact, smooth_polytopes
from reference import former_standard_monomials, former_stratum
from toricqh import polynomials
from toricqh.actions import FIXED, CircleTable, _stratum
from toricqh.cohomology import ClassicalRing, build_ring
from toricqh.errors import DegenerateRing, StratumNotClosed, WrongDegree
from toricqh.polytope import validate_delzant
from toricqh.polynomials import (
    grevlex_key,
    leading_monomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    poly_add,
    poly_const,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_term_mul,
)

F = Fraction


# ------------------------------------------------- the former code, verbatim

def divmod_basis(f, basis):
    """Multivariate division: f = sum_k q_k * basis[k] + r, with no monomial
    of r divisible by any leading monomial of the basis.

    Returns (quotients, remainder); quotients are polynomials.
    """
    width = None
    for g in basis:
        if g:
            width = len(next(iter(g)))
            break
    quotients = [dict() for _ in basis]
    remainder = {}
    work = dict(f)
    while work:
        m = leading_monomial(work)
        c = work[m]
        for k, g in enumerate(basis):
            if not g:
                continue
            lm = leading_monomial(g)
            if mono_divides(lm, m):
                factor_m = mono_div(m, lm)
                factor_c = c / g[lm]
                quotients[k] = poly_add(
                    quotients[k], {factor_m: factor_c})
                work = poly_sub(work, poly_term_mul(g, factor_m, factor_c))
                break
        else:
            remainder[m] = c
            del work[m]
    return quotients, remainder


class TracedBasis:
    """A Groebner basis whose elements carry cofactors over the original
    generators: element[k] == sum_i cofactors[k][i] * generators[i]."""

    def __init__(self, generators):
        self.generators = [dict(g) for g in generators]
        self.elements = []
        self.cofactors = []  # list of dicts: generator index -> poly
        self._buchberger()
        self._reduce_basis()

    # -- construction --------------------------------------------------------

    def _append(self, poly, cof):
        self.elements.append(poly)
        self.cofactors.append(cof)

    def _reduce_traced(self, f, cof):
        """Fully reduce f against the current elements, updating the cofactor
        expression alongside."""
        quotients, remainder = divmod_basis(f, self.elements)
        for k, q in enumerate(quotients):
            if not q:
                continue
            for gi, gpoly in self.cofactors[k].items():
                delta = poly_mul(q, gpoly)
                cof[gi] = poly_sub(cof.get(gi, {}), delta)
        return remainder, cof

    def _buchberger(self):
        width = None
        for i, g in enumerate(self.generators):
            if g:
                width = len(next(iter(g)))
                self._append(dict(g), {i: poly_const(1, width)})
        pairs = list(combinations(range(len(self.elements)), 2))
        while pairs:
            i, j = pairs.pop(0)
            fi, fj = self.elements[i], self.elements[j]
            mi, mj = leading_monomial(fi), leading_monomial(fj)
            lcm = mono_lcm(mi, mj)
            if mono_mul(mi, mj) == lcm:
                continue  # coprime leading terms: S-poly reduces to zero
            ci, cj = fi[mi], fj[mj]
            s = poly_sub(
                poly_term_mul(fi, mono_div(lcm, mi), 1 / ci),
                poly_term_mul(fj, mono_div(lcm, mj), 1 / cj))
            cof = {}
            for gi, gpoly in self.cofactors[i].items():
                cof[gi] = poly_add(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mi), 1 / ci))
            for gi, gpoly in self.cofactors[j].items():
                cof[gi] = poly_sub(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mj), 1 / cj))
            remainder, cof = self._reduce_traced(s, cof)
            if remainder:
                self._append(remainder, cof)
                new = len(self.elements) - 1
                pairs.extend((k, new) for k in range(new))

    def _reduce_basis(self):
        # minimal basis: drop elements whose LM is divisible by another LM
        keep = []
        lms = [leading_monomial(e) for e in self.elements]
        for k, lm in enumerate(lms):
            if any(mono_divides(lms[j], lm) for j in keep):
                continue
            keep = [j for j in keep if not mono_divides(lm, lms[j])]
            keep.append(k)
        elements = [self.elements[k] for k in keep]
        cofactors = [self.cofactors[k] for k in keep]
        # tail-reduce and normalize monic
        reduced, reduced_cof = [], []
        for k in range(len(elements)):
            others = reduced + elements[k + 1:]
            others_cof = reduced_cof + cofactors[k + 1:]
            quotients, remainder = divmod_basis(elements[k], others)
            cof = {gi: dict(p) for gi, p in cofactors[k].items()}
            for q, ocof in zip(quotients, others_cof):
                if not q:
                    continue
                for gi, gpoly in ocof.items():
                    cof[gi] = poly_sub(cof.get(gi, {}), poly_mul(q, gpoly))
            lc = remainder[leading_monomial(remainder)]
            remainder = poly_scale(remainder, 1 / lc)
            cof = {gi: poly_scale(p, 1 / lc) for gi, p in cof.items() if p}
            reduced.append(remainder)
            reduced_cof.append(cof)
        self.elements = reduced
        self.cofactors = reduced_cof

    # -- queries ---------------------------------------------------------------

    def leading_monomials(self):
        return [leading_monomial(e) for e in self.elements]

    def normal_form_traced(self, f):
        """Reduce f to normal form; return (nf, trace) where trace maps each
        original generator index to its polynomial cofactor:
        f - nf == sum_i trace[i] * generators[i]."""
        quotients, remainder = divmod_basis(f, self.elements)
        trace = {}
        for k, q in enumerate(quotients):
            if not q:
                continue
            for gi, gpoly in self.cofactors[k].items():
                contrib = poly_mul(q, gpoly)
                if contrib:
                    trace[gi] = poly_add(trace.get(gi, {}), contrib)
        return remainder, {gi: p for gi, p in trace.items() if p}

    def normal_form(self, f):
        return self.normal_form_traced(f)[0]

    def standard_monomials(self, limit):
        """All monomials not divisible by any leading monomial, found by
        breadth-first growth from 1.  `limit` caps the search as a safety
        net against a non-zero-dimensional quotient."""
        if not self.elements:
            raise ValueError("empty basis has infinite quotient")
        width = len(self.leading_monomials()[0])
        lms = self.leading_monomials()
        start = (0,) * width
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for m in frontier:
                for i in range(width):
                    cand = tuple(e + (1 if j == i else 0)
                                 for j, e in enumerate(m))
                    if cand in seen:
                        continue
                    if any(mono_divides(lm, cand) for lm in lms):
                        continue
                    seen.add(cand)
                    nxt.append(cand)
            frontier = nxt
            if len(seen) > limit:
                raise ValueError(
                    f"quotient dimension exceeds {limit}; ideal is not "
                    "zero-dimensional as expected")
        return tuple(sorted(seen, key=grevlex_key))


# ------------------------------------------------------------------- tests

@functools.lru_cache(maxsize=None)
def bases(name):
    """(engine basis, former basis) of the corpus ring `name`, both built
    from the ring's kept-variable Stanley-Reisner generators."""
    engine = build_ring(POLYTOPES[name]).basis
    return engine, TracedBasis(engine.generators)


def monomials_up_to(width, degree):
    return [m for m in itertools.product(range(degree + 1), repeat=width)
            if sum(m) <= degree]


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_the_basis_is_the_former_basis(name):
    engine, former = bases(name)
    assert exact(engine.elements) == exact(former.elements)
    assert exact(engine.cofactors) == exact(former.cofactors)
    assert engine.leading_monomials() == former.leading_monomials()
    assert engine.standard_monomials(100) == former.standard_monomials(100)


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_normal_forms_of_monomials_are_the_former_ones(name):
    engine, former = bases(name)
    width = len(engine.lms[0])
    for m in monomials_up_to(width, 2 * POLYTOPES[name].n):
        f = {m: F(1)}
        assert exact(engine.normal_form_traced(f)) == \
            exact(former.normal_form_traced(f)), (name, m)


@st.composite
def kept_polynomials(draw):
    name = draw(st.sampled_from(sorted(POLYTOPES)))
    width = len(bases(name)[0].lms[0])
    n = POLYTOPES[name].n
    mono = st.tuples(*[st.integers(0, n)] * width)
    coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    return name, draw(st.dictionaries(mono, coeff.filter(bool), max_size=6))


@settings(max_examples=150, deadline=None)
@given(kept_polynomials())
def test_normal_forms_of_drawn_polynomials_are_the_former_ones(case):
    name, f = case
    engine, former = bases(name)
    nf, trace = engine.normal_form_traced(f)
    assert exact((nf, trace)) == exact(former.normal_form_traced(f))
    assert exact(engine.normal_form(f)) == exact(nf)
    assert exact(polynomials.divmod_basis(f, engine.elements, engine.lms)) \
        == exact(divmod_basis(f, former.elements))
    # the trace is exact: f - nf == sum_i trace[i] * generators[i]
    combination = {}
    for gi, cof in trace.items():
        combination = poly_add(combination,
                               poly_mul(cof, engine.generators[gi]))
    assert poly_sub(f, nf) == combination


def test_leading_monomials_is_a_new_list_each_call():
    engine, _ = bases("cp2")
    first = engine.leading_monomials()
    assert first == engine.lms and first is not engine.lms
    first.clear()
    assert engine.leading_monomials() == engine.lms != []
    assert engine.leading_monomials() is not engine.leading_monomials()


# ----------------------------- the classical layer before the staircase

class FractionVertexSums(ClassicalRing):
    """A classical ring that integrates and pairs as the former code did,
    with one Fraction per vertex."""

    def integrate(self, poly):
        """Integral of a homogeneous top-degree class over the manifold, by
        localization at the vertices (Atiyah-Bott, Berline-Vergne): the sum
        over v of f|_v / prod_{i in F(v)} w_i(v), where x_i restricts at v
        to w_i(v) if facet i holds v, else to 0."""
        if not poly:
            return Fraction(0)
        n = self.polytope.n
        if any(mono_degree(m) != n for m in poly):
            raise WrongDegree(
                f"integrand must be homogeneous of cohomological degree {2 * n}")
        return sum((Fraction(sum(c * prod(map(pow, weights, m))
                                 for m, c in poly.items()), euler)
                    for weights, euler in self.localization), Fraction(0))

    def pd_matrix(self, degree):
        """Pairing matrix between standard monomials of cohomological degree
        `degree` and those of complementary degree."""
        k = degree // 2
        n = self.polytope.n
        rows = [m for m in self.standard_monomials if mono_degree(m) == k]
        cols = [m for m in self.standard_monomials if mono_degree(m) == n - k]
        return [[self.integrate(poly_mul({r: Fraction(1)}, {c: Fraction(1)}))
                 for c in cols] for r in rows]


# --------------------------------------------- the engine against them

CLASSICAL = dict(POLYTOPES, cube5=box(5), cube6=box(6))


def assert_the_classical_layer_is_the_former_one(poly, integrals=True):
    """Basis, standard monomials and pairings of poly's ring, by repr."""
    ring = build_ring(poly)
    engine, former = ring.basis, TracedBasis(ring.basis.generators)
    limit = 4 * max(len(poly.vertices), 4)
    assert exact(engine.elements) == exact(former.elements)
    assert exact(engine.cofactors) == exact(former.cofactors)
    assert engine.leading_monomials() == former.leading_monomials()
    assert engine.standard_monomials(limit) == ring.standard_monomials \
        == former_standard_monomials(engine, limit) \
        == former.standard_monomials(limit)
    reference = FractionVertexSums(**{f.name: getattr(ring, f.name)
                                      for f in fields(ring) if f.init})
    for k in range(poly.n + 1):
        assert exact(ring.pd_matrix(2 * k)) == \
            exact(reference.pd_matrix(2 * k)), k
    if integrals:
        rng = random.Random(30)
        tops = [m for m in monomials_up_to(ring.width, poly.n)
                if sum(m) == poly.n]
        for _ in range(10):
            f = {m: F(rng.randint(-9, 9), rng.randint(1, 5))
                 for m in rng.sample(tops, min(len(tops), 4))}
            f = {m: c for m, c in f.items() if c}
            assert exact(ring.integrate(f)) == exact(reference.integrate(f))
            ints = {m: c.numerator for m, c in f.items()}
            assert exact(ring.integrate(ints)) == \
                exact(reference.integrate(ints))


@pytest.mark.parametrize("name", sorted(CLASSICAL))
def test_the_classical_layer_is_the_former_one(name):
    assert_the_classical_layer_is_the_former_one(
        CLASSICAL[name], integrals=name not in ("cube6", "gon12"))


@settings(max_examples=40, deadline=None)
@given(specs=smooth_polytopes())
def test_the_classical_layer_is_the_former_one_on_drawn_polytopes(specs):
    assert_the_classical_layer_is_the_former_one(validate_delzant(specs))


def gcd_closure(orders):
    candidates = set()
    for order in set(orders.values()) - {FIXED}:
        candidates |= {math.gcd(order, c) for c in candidates} | {order}
    return sorted(candidates | {1})


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_strata_are_the_former_ones_on_every_corpus_circle(name):
    poly = POLYTOPES[name]
    for xi in itertools.product(range(-2, 3) if poly.n < 4 else (-1, 0, 1),
                                repeat=poly.n):
        if not any(xi):
            continue
        orders = CircleTable(poly, xi).orders
        for q in gcd_closure(orders):
            assert _stratum(orders, q) == former_stratum(orders, q), (xi, q)


def test_a_stratum_that_is_not_closed_is_rejected_by_both():
    """cube3's face lattice with every order 1, but order 2 on the facet
    {0}: the 2-stratum holds that facet and none of its edges."""
    orders = dict.fromkeys(box(3).faces, 1)
    orders[frozenset({0})] = 2
    for stratum in (_stratum, former_stratum):
        with pytest.raises(StratumNotClosed):
            stratum(orders, 2)
    assert _stratum(orders, 1) == former_stratum(orders, 1)


def test_standard_monomials_of_a_degenerate_basis_are_typed_errors():
    with pytest.raises(DegenerateRing, match="infinite quotient"):
        polynomials.TracedBasis([]).standard_monomials(10)
    # x1^2 in two variables: the quotient holds every power of x2
    square = polynomials.TracedBasis([{(2, 0): F(1)}])
    for limit in (1, 10, 100):
        with pytest.raises(DegenerateRing, match=f"exceeds {limit};"):
            square.standard_monomials(limit)
