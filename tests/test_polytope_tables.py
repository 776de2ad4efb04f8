"""Per-polytope tables of the classical ring and the battery, against the
former per-call code.

The linear elimination with its generators, the Stanley-Reisner images a
Groebner basis starts from and the memo of kept monomial images are one
cached value of the polytope, `DelzantPolytope.elimination`; the generic
height, its vertex weights and each face's Betti numbers are its Morse
table, `DelzantPolytope.morse` and `morse_betti`.  `monomial_nf` answers {}
above degree n with no division, `superlevel_bounds` reads each value's
numerator and denominator once, and `analyze` reads the translate of a
polytope that is not mean normalized off the polytope.  The `former_*`
functions below are the former code, verbatim but for their names; on the
corpus x box(n, 1) and the bundled examples x box(n, 2) the engine must
give the same ring inputs, reduced classes, S2 findings and superlevel
bounds.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from test_kept_variables import CORPUS
from toricqh import examples
from toricqh import polytope as polytope_module
from toricqh.actions import FIXED, CircleTable
from toricqh.cohomology import ClassicalRing, build_ring
from toricqh.errors import ToricError, Unbounded
from toricqh.obstructions import Finding, _rule_s2, analyze
from toricqh.polynomials import poly_monomial, poly_substitute
from toricqh.polytope import (
    face_betti,
    generic_vector,
    primitive_sets,
    validate_delzant,
)

F = Fraction


# ------------------------------------------------- the former code, verbatim

def former_classical_generators(poly):
    """Linear generators of P(Delta) (one per standard basis functional, with
    int coefficients) and the Stanley-Reisner monomial generators (one per
    primitive set), in the full N facet variables."""
    N = poly.num_facets
    units = [tuple(1 if k == i else 0 for k in range(N)) for i in range(N)]
    linear = [{units[i]: poly.normal(i)[j] for i in range(N)
               if poly.normal(i)[j]} for j in range(poly.n)]
    monomials = {p.key: poly_monomial(dict.fromkeys(p.indices, 1), N)
                 for p in primitive_sets(poly)}
    return linear, monomials


def former_eliminate(poly):
    """Choose one variable per linear relation to eliminate.

    Pivot preference per row: the first variable with coefficient -1, then
    the first with +1, then the first nonzero.  Returns (kept indices,
    images) where images maps every full variable index to its expression in
    the kept variables.  The rows are the integer normal coordinates; a +-1
    pivot keeps them integral, and only a pivot c with |c| > 1 divides into
    Fractions.  An integral image coefficient is an int.
    """
    N, n = poly.num_facets, poly.n
    elim = {}  # var index -> full-width row (its expression, pivot zeroed)
    order = []
    for j in range(n):
        r = [poly.normal(i)[j] for i in range(N)]
        for e, expr in elim.items():
            c = r[e]
            if c:
                r = [a + c * b for a, b in zip(r, expr)]
                r[e] = 0
        pivot = next((i for i, c in enumerate(r) if c == -1 and i not in elim),
                     None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c == 1 and i not in elim), None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c != 0 and i not in elim), None)
        if pivot is None:
            raise Unbounded("linear relations are not independent: the "
                            "facet normals do not span")
        c = r[pivot]
        # -a / c is -a * c for c = +-1
        expr = [-c * a for a in r] if c in (1, -1) else \
            [Fraction(-a, c) for a in r]
        expr[pivot] = 0
        elim[pivot] = expr
        order.append(pivot)
    # back-substitution: later rules may appear inside earlier expressions
    for e in reversed(order):
        for e2 in order:
            if e2 == e:
                continue
            expr = elim[e2]
            c = expr[e]
            if c:
                elim[e2] = [a + c * b for a, b in zip(expr, elim[e])]
                elim[e2][e] = 0
    kept = tuple(i for i in range(N) if i not in elim)
    width = len(kept)
    units = {i: tuple(1 if k == pos else 0 for k in range(width))
             for pos, i in enumerate(kept)}
    images = {}
    for i in range(N):
        if i in elim:
            images[i] = {units[k]: c.numerator if type(c) is Fraction
                         and c.denominator == 1 else c
                         for k, c in enumerate(elim[i]) if c}
        else:
            images[i] = {units[i]: 1}
    return kept, images


def former_ring_inputs(poly):
    """What the former `build_ring` derived from the polytope on every
    call, before its Groebner basis: its lines, verbatim."""
    prims = primitive_sets(poly)
    linear, monomials = former_classical_generators(poly)
    kept, images = former_eliminate(poly)
    gen_keys = tuple(p.key for p in prims)
    # substituted in ints; Fraction coefficients, as `substitute` writes them
    basis = [{m: Fraction(c) for m, c in poly_substitute(
        dict.fromkeys(monomials[k], 1), images, len(kept)).items()}
        for k in gen_keys]
    return dict(prims=tuple(prims), linear_gens=tuple(linear),
                sr_gens=monomials, kept=kept, images=images,
                gen_keys=gen_keys, basis=basis)


def former_monomial_nf(ring, mono):
    """The former `ClassicalRing.monomial_nf`, memo aside: the normal form
    of the monomial's image, whatever its degree."""
    return ring.nf(poly_substitute({mono: 1}, ring.images, ring.width))


def former_rule_s2(circle):
    poly, comps = circle.poly, circle.components
    bound = circle.isotropy_bound
    if bound > 2:
        return Finding(rule="S2", triggered=False, definitive=True,
                       certificate={"applicable": False,
                                    "isotropy_bound": bound})
    fmax, fmin = comps[0], comps[-1]
    height = generic_vector(poly)  # one Morse height for every face
    problems = []
    if fmax.K != -fmin.K:
        problems.append(f"K_max={fmax.K} != -K_min={-fmin.K}")
    if fmax.m != -fmin.m:
        problems.append(f"m_max={fmax.m} != -m_min={-fmin.m}")
    for component in circle.stratum(2).components:
        members = [c for c in comps if c.facets in component]
        if not members:
            continue
        pairs = sorted({(c.K, c.m) for c in members})
        for K, m in pairs:
            left = [c for c in members if c.K == K and c.m == m]
            right = [c for c in members if c.K == -K and c.m == -m]
            profile_l = {}
            for c in left:
                for i, b in enumerate(face_betti(poly, c.face, height)):
                    j = 2 * i + c.index
                    profile_l[j] = profile_l.get(j, 0) + b
            profile_r = {}
            for c in right:
                for i, b in enumerate(face_betti(poly, c.face, height)):
                    j = 2 * i + c.coindex
                    profile_r[j] = profile_r.get(j, 0) + b
            if profile_l != profile_r:
                problems.append(
                    f"homology profile at (K,m)=({K},{m}) is asymmetric: "
                    f"{profile_l} vs {profile_r}")
    return Finding(rule="S2", triggered=bool(problems), definitive=True,
                   certificate={"applicable": True, "isotropy_bound": bound,
                                "violations": problems})


def former_superlevel_bounds(self, values):
    """Isotropy bound above each moment value c = a / b (a value, not a
    level) in values: a level lies above c when level * b > a * D."""
    tops = [(max(self.levels[v] for v in self.poly.faces[key].vertex_ids),
             order)
            for key, order in self.orders.items() if order is not FIXED]
    return {c: max([1] + [k for top, k in tops if
                          top * c.denominator > c.numerator * self.scale])
            for c in values}


# ------------------------------------------------------------------ helpers

def typed(value):
    """value with every number paired with its type, so that an int and an
    equal Fraction differ."""
    if isinstance(value, dict):
        return {k: typed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [typed(v) for v in value]
    if isinstance(value, (int, Fraction)):
        return type(value).__name__, value
    return value


def box(n, r):
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=n)
            if any(xi)]


def outcome(compute):
    try:
        return compute()
    except ToricError as err:
        return type(err).__name__, str(err)


def fresh(poly):
    """A copy of poly with every table empty."""
    return dataclasses.replace(poly)


# the corpus x box(n, 1) and the bundled examples x box(n, 2), mean
# normalized, each polytope with a fresh copy of its own
CASES = {f"{name} r1": (CORPUS[name].normalized, 1) for name in CORPUS}
CASES.update((f"{name} r2", (examples.build(name), 2))
             for name in examples.BUILDERS)


# ------------------------------------------------------- the ring's inputs

@pytest.mark.parametrize("name", sorted(CASES))
def test_the_elimination_holds_the_former_ring_inputs(name):
    poly = fresh(CASES[name][0])
    want = former_ring_inputs(poly)
    elim = poly.elimination
    got = dict(prims=poly.primitive_sets, linear_gens=elim.linear_gens,
               sr_gens=elim.sr_gens, kept=elim.kept, images=elim.images,
               gen_keys=tuple(p.key for p in poly.primitive_sets),
               basis=list(elim.sr_images))
    assert typed(got) == typed(want)
    ring = build_ring(poly)
    assert typed({key: getattr(ring, key) for key in want if key != "basis"}) \
        == typed({key: value for key, value in want.items()
                  if key != "basis"})
    assert ring.basis.generators == want["basis"]


@pytest.mark.parametrize("name", ["cp2", "cube3", "cube4"])
def test_two_rings_of_one_polytope_read_one_elimination(name):
    poly = fresh(CORPUS[name])
    first, second = build_ring(poly), build_ring(poly)
    assert first is not second and first.basis is not second.basis
    elim = poly.elimination
    for ring in (first, second):
        assert (ring.kept, ring.images, ring.linear_gens, ring.sr_gens) == \
            (elim.kept, elim.images, elim.linear_gens, elim.sr_gens)
        assert ring.images is elim.images and ring.sr_gens is elim.sr_gens
    mono = (1,) * poly.num_facets
    assert first.monomial_image(mono) is second.monomial_image(mono)
    assert elim._kept.keys() == {mono}
    assert first.standard_monomials == second.standard_monomials
    assert build_ring(poly).polytope.elimination is elim


def test_a_replaced_polytope_starts_with_empty_tables():
    poly = fresh(CORPUS["cube3"])
    analyze(poly, (1, 1, 1))  # semifree, so S2 counts Betti numbers
    build_ring(poly).integrate({(3, 0, 0): F(1)})
    assert {"elimination", "morse"} <= set(vars(poly))
    assert poly.elimination._kept and poly._betti
    copy = dataclasses.replace(poly)
    assert copy == poly
    assert not {"elimination", "morse", "_translate"} & set(vars(copy))
    assert copy._betti == {} and copy._duals == {}
    assert copy.elimination is not poly.elimination
    assert copy.elimination._kept == {}
    assert copy.elimination == poly.elimination
    assert copy.morse == poly.morse


# ------------------------------------------------------ the battery's reads

def recorded_analyze(poly, xi, monkeypatch):
    """analyze(poly, xi, None), and every (ring, monomial, answer) of
    `monomial_nf` during the call."""
    asked = []
    monomial_nf = ClassicalRing.monomial_nf

    def recording(self, mono):
        answer = monomial_nf(self, mono)
        asked.append((self, mono, answer))
        return answer

    with monkeypatch.context() as patch:
        patch.setattr(ClassicalRing, "monomial_nf", recording)
        report = outcome(lambda: analyze(poly, xi))
    return report, asked


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_battery_reads_what_the_former_code_computed(name, monkeypatch):
    poly, r = CASES[name]
    poly = fresh(poly)
    former_ring = build_ring(fresh(poly))
    former_classes = {}
    for xi in box(poly.n, r):
        report, asked = recorded_analyze(poly, xi, monkeypatch)
        for ring, mono, answer in asked:
            assert ring.polytope is poly
            if mono not in former_classes:
                former_classes[mono] = former_monomial_nf(former_ring, mono)
            assert typed(answer) == typed(former_classes[mono]), (xi, mono)
        circle = CircleTable(poly, xi)
        if isinstance(report, tuple):  # the same typed error from the table
            assert report == outcome(lambda: circle.components)
            continue
        assert _rule_s2(circle) == former_rule_s2(circle), xi
        values = sorted({c.K for c in circle.components}
                        | {F(k, 3) for k in range(-4, 5)})
        assert circle.superlevel_bounds(values) == \
            former_superlevel_bounds(circle, values), xi


@pytest.mark.parametrize("name", sorted(CASES))
def test_analyze_on_a_warm_polytope_equals_a_fresh_copy(name):
    poly, r = CASES[name]
    vectors = box(poly.n, r)
    if poly.num_facets > 8:  # gon12: a Groebner basis takes 0.5 s
        vectors = [(-1, 1)]
    warm = fresh(poly)
    first = [outcome(lambda: analyze(warm, xi).findings) for xi in vectors]
    again = [outcome(lambda: analyze(warm, xi).findings) for xi in vectors]
    cold = [outcome(lambda: analyze(fresh(poly), xi).findings)
            for xi in vectors]
    assert first == again == cold


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_morse_table_is_the_former_morse_data(name):
    poly = fresh(CASES[name][0])
    table = poly.morse
    assert table.height == generic_vector(poly)
    assert table.weights == tuple(
        {i: -c for i, c in poly.coordinates(vid, table.height).items()}
        for vid in range(len(poly.vertices)))
    for key, face in poly.faces.items():
        assert poly.morse_betti(face) == face_betti(poly, face, table.height)
        assert poly.morse_betti(face) is poly._betti[key]
    assert poly.morse is table


# ------------------------------------------------- no division above degree n

def monomials_of_degree(N, d):
    """Every exponent tuple of width N and degree d."""
    return [tuple(sum(1 for j in combo if j == i) for i in range(N))
            for combo in itertools.combinations_with_replacement(range(N), d)]


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_every_monomial_above_degree_n_is_zero(name):
    poly = CORPUS[name]
    ring = build_ring(poly)
    n, N = poly.n, poly.num_facets
    monos = monomials_of_degree(N, n + 1) + monomials_of_degree(N, n + 2)
    if name == "gon12":
        monos = random.Random(25).sample(monos, 200)
    for mono in monos:
        assert ring.monomial_nf(mono) == {}, mono
        assert ring.nf(ring.monomial_image(mono)) == {}, mono
    # every entry is a dict of its own, as memo entries are read-only
    answers = [ring.monomial_nf(mono) for mono in monos]
    assert len({id(a) for a in answers}) == len(answers)


def test_gon12_r5_divides_nothing_above_degree_n(monkeypatch):
    """gon12 at xi = (-2, 2) took about 9 s in R5's divisions of facet
    products of degree 4 and 6; with no division above degree n = 2, every
    normal form the battery computes has degree at most 2."""
    poly = validate_delzant(CORPUS["gon12"].facets, name="gon12")
    degrees = []
    nf = ClassicalRing.nf

    def recording(self, kept_poly):
        degrees.extend(sum(m) for m in kept_poly)
        return nf(self, kept_poly)

    monkeypatch.setattr(ClassicalRing, "nf", recording)
    report = analyze(poly, (-2, 2))
    assert degrees and max(degrees) <= poly.n
    assert report.finding("R5").certificate == \
        analyze(fresh(poly), (-2, 2)).finding("R5").certificate


# ------------------------------------------------------ the translate, once

def test_a_second_analyze_on_a_translated_polytope_validates_nothing(
        monkeypatch):
    # cube3 moved off its centroid by (1/3, -2/5, 3/7)
    shift = (F(1, 3), F(-2, 5), F(3, 7))
    cube3 = CORPUS["cube3"]
    poly = validate_delzant(
        [(f.normal, f.support + sum(a * b for a, b in zip(f.normal, shift)))
         for f in cube3.facets], name="cube3 shifted")
    assert any(poly.centroid)
    validations = []
    validate = polytope_module.validate_delzant

    def counted(*args, **kwargs):
        validations.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(polytope_module, "validate_delzant", counted)
    first = analyze(poly, (1, 2, 3))
    assert len(validations) == 1
    second = analyze(poly, (1, 2, 3))
    assert len(validations) == 1
    assert first == second and first.normalized
    assert poly.normalized is poly.normalized
    assert poly.normalized.normalized is poly.normalized
    assert not any(poly.normalized.centroid)
    assert polytope_module.normalize(poly) is poly.normalized
    assert [f.support for f in poly.normalized.facets] == \
        [f.support for f in cube3.normalized.facets]
