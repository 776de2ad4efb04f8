"""The battery in integers, against the former Fraction code.

`CircleTable` keeps the integer moment level <xi, scaled vertex> of every
vertex and builds a `Fraction` only for a component's K; `chain_bound` runs
its hop costs, Dijkstra, tightness test and m-sums in ints scaled by D * Q;
`poly_substitute` keeps int coefficients, so the kept-variable images and
their normal forms carry ints; `primitive_sets` is computed once per
polytope.  `FormerCircleTable`, `former_chain_bound`,
`former_poly_substitute` and `former_primitive_sets` below are the former
code, verbatim but for their names.  On the bundled examples, the corpus
and seeded draws with isotropy and Q above 1, both must give the same
tables, bounds and certificates, and no float may appear anywhere.
"""

import functools
import heapq
import itertools
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from test_kept_variables import CORPUS
from test_seidel_reads import box_vectors
from toricqh import examples, linalg
from toricqh.actions import (
    FIXED,
    CircleTable,
    _check_xi,
    _component,
    _order,
    _stratum,
    _weights,
)
from toricqh.cohomology import build_ring
from toricqh.errors import (
    InconsistentWeights,
    MomentNotConstant,
    NonIntegralCoefficient,
    ToricError,
)
from toricqh.obstructions import ChainBound, chain_bound
from toricqh.polynomials import (
    TracedBasis,
    divmod_basis,
    poly_add,
    poly_const,
    poly_mul,
    poly_scale,
    poly_substitute,
)
from toricqh.polytope import (
    PrimitiveSet,
    beta_class,
    dual_cone_face,
    normalize,
    primitive_sets,
    validate_delzant,
)

F = Fraction


# ------------------------------------------------- the former code, verbatim

class FormerCircleTable:
    """The circle xi on poly: xi's coordinates and moment value at every
    vertex, and, each on first use, the fixed components and the isotropy
    order of every face.  A table lives for one call."""

    def __init__(self, poly, xi):
        self.poly = poly
        self.xi = xi = _check_xi(xi, poly.n)
        self.coords = [poly.coordinates(vid, xi)
                       for vid in range(len(poly.vertices))]
        scale, points = poly.scaled_vertices
        self.values = [Fraction(linalg.vec_dot(xi, p), scale)
                       for p in points]

    def moment_value(self, face):
        """Value of <xi, .> on a face on which it is constant."""
        values = {self.values[vid] for vid in face.vertex_ids}
        if len(values) != 1:
            raise MomentNotConstant(
                f"<xi, .> is not constant on face {sorted(face.facets)}")
        return values.pop()

    @cached_property
    def components(self):
        # the fixed component through a vertex is cut out by the facets on
        # which xi has a nonzero coordinate there
        keys = {frozenset(i for i, c in coords.items() if c != 0)
                for coords in self.coords}
        comps = []
        for key in keys:
            face = self.poly.faces[key]
            comps.append(_component(face, self.moment_value(face),
                                    _weights(self.coords, face)))
        comps.sort(key=lambda c: (-c.K, sorted(c.facets)))
        if len({v for c in comps for v in c.face.vertex_ids}) != \
                sum(len(c.face.vertex_ids) for c in comps):
            raise InconsistentWeights("fixed faces overlap")
        return comps

    @cached_property
    def orders(self):
        """Face key -> isotropy order, read at each face's first vertex."""
        return {key: _order(self.coords[face.vertex_ids[0]], face)
                for key, face in self.poly.faces.items()}

    @cached_property
    def isotropy_bound(self):
        return max([1] + [order for order in self.orders.values()
                          if order is not FIXED])

    def stratum(self, q):
        return _stratum(self.orders, q)

    def q_pairs(self, faces):
        candidates = {d for order in self.orders.values()
                      if order is not FIXED
                      for d in range(2, order + 1) if order % d == 0}
        pairs = dict.fromkeys(combinations(range(len(faces)), 2), 1)
        for q in sorted(candidates):  # ascending: a larger q overwrites
            for comp in self.stratum(q).components:
                inside = [k for k, face in enumerate(faces)
                          if face.facets in comp]
                for pair in combinations(inside, 2):
                    pairs[pair] = q
        return pairs

    def superlevel_bounds(self, levels):
        tops = [(max(self.values[v] for v in self.poly.faces[key].vertex_ids),
                 order)
                for key, order in self.orders.items() if order is not FIXED]
        return {c: max([1] + [order for top, order in tops if top > c])
                for c in levels}


def former_chain_bound(poly, xi, circle=None):
    """Cheapest chain of fixed components from the maximum to the minimum,
    with cost |dK| / q over each hop, and whether some cheapest chain also
    realizes the weight-sum condition.

    Hop costs are positive and symmetric, so one Dijkstra from the minimum
    gives each component's cheapest remaining cost `rest`.  The cheapest
    chains are exactly the walks from the maximum along tight hops (those
    with cost(u, v) + rest[v] == rest[u]); `rest` falls strictly along them,
    so they visit each component at most once.  `circle` is the circle
    table of (poly, xi), when the caller holds one.
    """
    circle = circle or FormerCircleTable(poly, xi)
    comps = circle.components
    n = len(comps)
    fmax = comps[0]
    keys = [tuple(sorted(c.facets)) for c in comps]
    qs = circle.q_pairs([c.face for c in comps])
    # comps run by decreasing K, so a hop i -> j with i < j goes down; the
    # cost and the m-step (m_i - m_j) / q are the same in both directions
    hops = {u: [] for u in range(n)}  # u -> [(v, cost, m-step)], v ascending
    for (i, j), q in qs.items():
        if comps[i].K != comps[j].K:
            hop = ((comps[i].K - comps[j].K) / q,
                   Fraction(comps[i].m - comps[j].m, q))
            hops[i].append((j, *hop))
            hops[j].append((i, *hop))
    rest = {}
    heap = [(Fraction(0), n - 1)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in rest:
            continue
        rest[u] = d
        for v, cost, _ in hops[u]:
            if v not in rest:
                heapq.heappush(heap, (d + cost, v))
    tight = {u: [(v, step) for v, cost, step in edges
                 if cost + rest[v] == rest[u]] for u, edges in hops.items()}
    walks = []

    def walk(u, path, m):
        if u == n - 1:
            walks.append((path, m))
        for v, step in tight[u]:
            walk(v, path + (keys[v],), m + step)

    walk(0, (keys[0],), Fraction(0))
    return ChainBound(min_cost=rest[0], K_max=fmax.K,
                      optimal_paths=tuple(path for path, _ in walks),
                      m_condition_achievable=any(m == fmax.m
                                                 for _, m in walks),
                      q_values={(keys[i], keys[j]): q
                                for (i, j), q in qs.items()})


def former_poly_substitute(f, images, width):
    """Substitute variable i by the polynomial images[i], producing a
    polynomial of the given variable width.  It multiplies once per unit
    of exponent, so its cost grows with the exponents themselves: the Fano
    Seidel element of a circle with large entries lifts x^a with large a."""
    out = {}
    for m, c in f.items():
        term = poly_const(1, width)
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul(term, images[i])
        out = poly_add(out, poly_scale(term, c))
    return out


def former_primitive_sets(poly):
    """All primitive facet subsets with their dual-cone data, by size.

    Every proper subset of a primitive collection spans a cone of the
    simplicial fan, which has at most n rays, so no primitive collection
    has more than n + 1 elements (Batyrev)."""
    N = poly.num_facets
    results = []
    primitive_found = set()
    for size in range(2, min(N, poly.n + 1) + 1):
        for sub in combinations(range(N), size):
            fs = frozenset(sub)
            if fs in poly.faces:  # a cone of the normal fan
                continue
            if any(p <= fs for p in primitive_found):
                continue  # a proper subset already fails to intersect
            if all(frozenset(s) in poly.faces
                   for s in combinations(sub, size - 1)):
                primitive_found.add(fs)
                v = tuple(sum(poly.normal(i)[k] for i in sub)
                          for k in range(poly.n))
                _, support = dual_cone_face(poly, v)
                j_sorted = tuple(sorted(support))
                coeffs = tuple(support[j] for j in j_sorted)
                if any(Fraction(c).denominator != 1 or c <= 0 for c in coeffs):
                    raise NonIntegralCoefficient(
                        f"dual-cone coefficients for I={sub} are {coeffs}")
                if fs & frozenset(j_sorted):
                    raise NonIntegralCoefficient(
                        f"I={sub} meets its complement set {j_sorted}")
                beta, energy = beta_class(poly, sub, j_sorted, coeffs)
                results.append(PrimitiveSet(indices=tuple(sub),
                                            j_indices=j_sorted,
                                            coeffs=coeffs, beta=beta,
                                            energy=energy))
    results.sort(key=lambda p: (len(p.indices), p.indices))
    return results


# ------------------------------------------------------------------- helpers

def repr_or_error(compute):
    """repr of a value, so that types count too, or any typed error raised
    (`test_moment_values.outcome` keeps the bare value and lets every error
    but NonGenericVector through, and moment_value raises
    MomentNotConstant on a face that is not fixed)."""
    try:
        return repr(compute())
    except ToricError as err:
        return type(err).__name__, str(err)


def floats_in(value):
    """Every float inside nested dicts, lists and tuples, keys included."""
    if isinstance(value, float):
        return [value]
    if isinstance(value, dict):
        return [x for k, v in value.items()
                for x in floats_in(k) + floats_in(v)]
    if isinstance(value, (list, tuple)):
        return [x for v in value for x in floats_in(v)]
    return []


def exact_coefficients(poly):
    """Every coefficient is an int or a non-integral Fraction."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in poly.values())


def full_monomials(N, degree):
    """Every exponent tuple of width N and total degree at most `degree`."""
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(N), d):
            e = [0] * N
            for i in combo:
                e[i] += 1
            out.append(tuple(e))
    return out


BUNDLED = {name: normalize(examples.build(name))
           for name in sorted(examples.BUILDERS)}
SIZED = [(name, CORPUS[name], r) for name, r in
         (("cp3", 1), ("cube3", 1), ("cp4", 1), ("cube4", 1), ("gon12", 1))]
CASES = [(name, poly, xi) for name, poly in BUNDLED.items()
         for xi in box_vectors(poly.n, 2)] + \
    [(name, poly, xi)
     for name, poly, r in SIZED for xi in box_vectors(poly.n, r)]
DRAWN = {name: normalize(CORPUS[name])
         for name in ("blowup_cp2", "s2xs2", "cube3")}


@functools.lru_cache(maxsize=None)
def ring_of(name):
    return build_ring(CORPUS[name])


def compare_circle(poly, xi):
    """The new and the former table and chain bound of (poly, xi) agree
    field by field, types included; returns the former table."""
    former = FormerCircleTable(poly, xi)
    table = CircleTable(poly, xi)
    assert table.values == former.values
    assert all(type(v) is Fraction for v in table.values)
    assert all(type(v) is int for v in table.levels)
    for face in poly.faces.values():
        assert repr_or_error(lambda: table.moment_value(face)) == \
            repr_or_error(lambda: former.moment_value(face)), sorted(face.facets)
    got = repr_or_error(lambda: table.components)
    assert got == repr_or_error(lambda: former.components), xi
    if isinstance(got, tuple):  # both raised the same error
        assert repr_or_error(lambda: chain_bound(poly, xi)) == \
            repr_or_error(lambda: former_chain_bound(poly, xi, former))
        return former
    values = sorted({c.K for c in former.components} | set(former.values)
                    | {v + F(1, 2 * table.scale) for v in former.values})
    assert repr(table.superlevel_bounds(values)) == \
        repr(former.superlevel_bounds(values))
    got = chain_bound(poly, xi)
    want = former_chain_bound(poly, xi, former)
    assert type(got.min_cost) is type(want.min_cost) is Fraction
    for name in ChainBound.__dataclass_fields__:
        assert repr(getattr(got, name)) == repr(getattr(want, name)), name
    assert got == want
    return former


# --------------------------------------------------------------- the tables

@pytest.mark.parametrize("name,poly,xi", CASES,
                         ids=[f"{n}-{xi}" for n, _, xi in CASES])
def test_circle_tables_and_chain_bounds_are_the_former_ones(name, poly, xi):
    compare_circle(poly, xi)


@settings(max_examples=120, deadline=None)
@seed(20221)
@given(st.sampled_from(sorted(DRAWN)).flatmap(
    lambda name: st.tuples(st.just(name), st.tuples(
        *[st.integers(-4, 4)] * DRAWN[name].n)).filter(lambda c: any(c[1]))))
def test_drawn_circles_with_isotropy_match_the_former_ones(case):
    name, xi = case
    compare_circle(DRAWN[name], xi)


def test_the_drawn_range_reaches_isotropy_and_q_above_one():
    """The range drawn above holds circles with isotropy > 1 and with
    Q > 1 on every polytope drawn, and non-integral cheapest costs."""
    fractional = set()
    for name, poly in DRAWN.items():
        isotropy, big_q = False, False
        for xi in box_vectors(poly.n, 4 if poly.n == 2 else 2):
            table = CircleTable(poly, xi)
            isotropy |= table.isotropy_bound > 1
            qs = table.q_pairs([c.face for c in table.components])
            big_q |= lcm(*qs.values()) > 1
            if chain_bound(poly, xi, table).min_cost.denominator > 1:
                fractional.add(name)
        assert isotropy and big_q, name
    assert fractional == {"blowup_cp2", "cube3"}


# ------------------------------------------------- images and normal forms

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_images_are_the_former_images_in_ints(name):
    poly = CORPUS[name]
    ring = ring_of(name)
    for mono in full_monomials(poly.num_facets, poly.n + 1):
        want = former_poly_substitute({mono: 1}, ring.images, ring.width)
        got = poly_substitute({mono: 1}, ring.images, ring.width)
        assert got == want and exact_coefficients(got), mono
        assert ring.monomial_image(mono) == got
        assert ring.monomial_nf(mono) == ring.nf(want), mono


@st.composite
def substitutions(draw):
    """A drawn polynomial in 3 variables and images of width 2 whose
    coefficients mix ints and Fractions."""
    coeff = st.one_of(st.integers(-4, 4),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=5)).filter(bool)
    mono2 = st.tuples(st.integers(0, 2), st.integers(0, 2))
    images = {i: draw(st.dictionaries(mono2, coeff, max_size=3))
              for i in range(3)}
    mono3 = st.tuples(*[st.integers(0, 3)] * 3)
    return draw(st.dictionaries(mono3, coeff, max_size=3)), images


@settings(max_examples=200, deadline=None)
@given(substitutions())
def test_drawn_substitutions_are_the_former_ones(case):
    f, images = case
    got = poly_substitute(f, images, 2)
    assert got == former_poly_substitute(f, images, 2)
    assert exact_coefficients(got) and not floats_in(got)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_no_float_in_a_corpus_ring(name):
    poly = CORPUS[name]
    ring = ring_of(name)
    assert not floats_in(ring.images)
    for mono in full_monomials(poly.num_facets, poly.n + 1):
        assert not floats_in(ring.monomial_image(mono)), mono
        assert not floats_in(ring.monomial_nf(mono)), mono
    assert not floats_in(ring.basis.elements)
    assert not floats_in(ring.basis.cofactors)
    assert all(type(c) in (int, Fraction)
               for g in ring.basis.generators for c in g.values())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_int_generators_give_the_fraction_basis(name):
    """The basis of int copies of the generators, which divides by int
    leads, is the engine's basis, types and term order included."""
    basis = ring_of(name).basis
    copy = TracedBasis([{m: c.numerator if c.denominator == 1 else c
                         for m, c in g.items()} for g in basis.generators])
    assert any(type(c) is int for g in copy.generators for c in g.values())
    assert repr(basis.elements) == repr(copy.elements)
    assert repr(basis.cofactors) == repr(copy.cofactors)
    assert basis.lms == copy.lms


# ------------------------------------------------------- exact division

def test_the_traced_basis_divides_int_leads_exactly():
    generators = [{(2, 0): 3, (0, 2): 1}, {(1, 1): 2}]
    basis = TracedBasis(generators)
    assert basis.elements == [{(2, 0): 1, (0, 2): F(1, 3)}, {(1, 1): 1},
                              {(0, 3): 1}]
    assert not floats_in(basis.elements) and not floats_in(basis.cofactors)
    for element, cof in zip(basis.elements, basis.cofactors):
        combination = {}
        for gi, p in cof.items():
            combination = poly_add(combination, poly_mul(p, generators[gi]))
        assert combination == element


def test_the_division_by_an_int_lead_is_exact():
    quotients, remainder = divmod_basis({(1, 0): 1}, [{(1, 0): 3}], [(1, 0)])
    assert quotients == [{(0, 0): F(1, 3)}] and remainder == {}
    assert type(quotients[0][(0, 0)]) is Fraction
    quotients, remainder = divmod_basis({(2, 1): 2, (0, 1): 5},
                                        [{(1, 0): 4, (0, 0): 1}], [(1, 0)])
    assert quotients == [{(1, 1): F(1, 2), (0, 1): F(-1, 8)}]
    assert remainder == {(0, 1): F(41, 8)}
    assert not floats_in((quotients, remainder))


# ------------------------------------------------------------ primitive sets

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_primitive_sets_are_the_former_list_on_every_call(name):
    poly = CORPUS[name]
    fresh = validate_delzant([(f.normal, f.support, f.label)
                              for f in poly.facets], name=poly.name)
    want = former_primitive_sets(fresh)
    first = primitive_sets(fresh)
    assert first == want
    second = primitive_sets(fresh)
    assert second == want and second is not first
    first.clear()
    second.append(None)
    third = primitive_sets(fresh)
    assert third == want and third is not second



# ------------------------------------------ q over the gcd-closure of orders

def check_q_pairs(poly, xi):
    """The q of every pair of faces, all faces included, equals the former
    one, which tried every divisor of every finite order."""
    faces = list(poly.faces.values())
    assert repr_or_error(lambda: CircleTable(poly, xi).q_pairs(faces)) == \
        repr_or_error(lambda: FormerCircleTable(poly, xi).q_pairs(faces))


def test_q_pairs_of_every_corpus_circle_are_the_former_ones():
    for _, poly, xi in CASES:
        check_q_pairs(poly, xi)


@settings(max_examples=80, deadline=None)
@seed(20241)
@given(st.sampled_from(sorted(CORPUS)).flatmap(
    lambda name: st.tuples(st.just(name), st.integers(1, 60), st.tuples(
        *[st.integers(-300, 300)] * CORPUS[name].n)).filter(
            lambda c: any(c[2]))))
def test_drawn_circles_with_large_entries_have_the_former_q_pairs(case):
    """Large multiples of drawn directions, whose faces have large orders
    with many common divisors."""
    name, k, xi = case
    check_q_pairs(CORPUS[name], tuple(k * x for x in xi))
