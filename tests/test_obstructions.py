import re
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from cases import GON12, POLYTOPES, box, hirz_y_table, simplex
from reference import (
    FormerCircleTable,
    former_chain_bound,
    former_euler_class_nonzero,
    reference_chains,
)
from toricqh import actions as actions_module
from toricqh import obstructions as obstructions_module
from toricqh import examples
from toricqh.actions import (
    CircleTable,
    fixed_components,
    global_isotropy_bound,
    q_pair,
    q_pairs,
)
from toricqh.cohomology import ClassicalRing, build_ring
from toricqh.errors import (
    DimensionMismatch,
    MomentDataMismatch,
    NonIntegralCoefficient,
    NotMeanNormalized,
    ZeroVector,
)
from toricqh.obstructions import (
    _euler_class_nonzero,
    _rule_c,
    analyze,
    chain_bound,
)
from toricqh.polytope import DelzantPolytope, normalize, validate_delzant
from toricqh.quantum import default_cutoff, fano_presentation, nef_presentation
from toricqh.seidel import seidel_element

F = Fraction
MU = F(1, 2)
EPS = F(7, 20)


@pytest.fixture(scope="module")
def blow_qp():
    return fano_presentation(examples.blowup_cp2(MU))


@pytest.fixture(scope="module")
def square_qp():
    return fano_presentation(examples.s2xs2(F(2)))


@pytest.fixture(scope="module")
def cp2_qp():
    return fano_presentation(examples.cp2())


def test_blowup_facet_circle_essential(blow_qp):
    report = analyze(blow_qp.polytope, (-1, 0), blow_qp)
    assert report.verdict == "essential"
    assert "T1" in report.triggered_rules()
    assert "SD" in report.triggered_rules()
    t1 = report.finding("T1")
    assert any(hit["extremum"] == "max" and hit["face"] == [0]
               for hit in t1.certificate["semifree_extrema"])
    sd = report.finding("SD")
    assert sd.definitive


def test_blowup_lambda_prime_t2(blow_qp):
    report = analyze(blow_qp.polytope, (-2, -1), blow_qp)
    assert report.verdict == "essential"
    t2 = report.finding("T2")
    assert t2.triggered
    by_face = {tuple(e["face"]): e for e in t2.certificate["components"]}
    f13 = by_face[(0, 2)]
    assert f13["visible"] and f13["triggered"]
    assert f13["K"] == 3 * EPS - 1
    assert f13["superlevel_isotropy"] == 2
    f24 = by_face[(1, 3)]
    assert not f24["visible"] and not f24["triggered"]


def test_square_diagonal_essential(square_qp):
    report = analyze(square_qp.polytope, (1, 1), square_qp)
    assert report.verdict == "essential"
    assert "T1" in report.triggered_rules()
    assert "SD" in report.triggered_rules()


def test_cp2_sharp_action_inconclusive(cp2_qp):
    # the weighted action achieving equality in the chain bound contracts in
    # the projective unitary group, so every rule must stay silent
    report = analyze(cp2_qp.polytope, (2, 1), cp2_qp)
    assert report.verdict == "inconclusive"
    assert report.triggered_rules() == []
    sd = report.finding("SD")
    assert not sd.certificate["seidel_nontrivial"]


def test_cp2_chain_bound_sharpness(cp2_qp):
    bound = chain_bound(cp2_qp.polytope, (2, 1))
    assert bound.min_cost == 1 == bound.K_max
    assert bound.m_condition_achievable
    direct = (((1, 2), (0, 1)),)
    assert direct[0] in bound.optimal_paths


def test_square_horizontal_p6(square_qp):
    report = analyze(square_qp.polytope, (1, 0), square_qp)
    assert report.verdict == "essential"
    p6 = report.finding("P6")
    assert p6.triggered
    assert p6.certificate["min_cost"] == 2 > p6.certificate["K_max"] == 1


def test_chain_bound_square_horizontal(square_qp):
    bound = chain_bound(square_qp.polytope, (1, 0))
    assert bound.K_max == 1
    assert bound.min_cost == 2


def test_chain_bound_lower_bound_invariant(blow_qp, square_qp, cp2_qp):
    from toricqh.actions import fixed_components, global_isotropy_bound
    for qp, xi in ((blow_qp, (-2, -1)), (blow_qp, (1, 2)),
                   (square_qp, (1, 1)), (cp2_qp, (2, 1))):
        poly = qp.polytope
        bound = chain_bound(poly, xi)
        comps = fixed_components(poly, xi)
        k = global_isotropy_bound(poly, xi)
        assert bound.min_cost >= (comps[0].K - comps[-1].K) / k


def test_euler_class_at_vertex_iff_semifree(blow_qp):
    # positive weights +1 and nonzero Euler class at a vertex <=> semifree
    from toricqh.actions import fixed_components
    from toricqh.cohomology import build_ring
    from toricqh.obstructions import _euler_class_nonzero
    poly = blow_qp.polytope
    ring = build_ring(poly)
    for xi in ((-2, -1), (1, 2), (-1, -1), (3, 1)):
        for comp in fixed_components(poly, xi):
            if comp.face.dim != 0:
                continue
            visible = all(w == 1 for w in comp.weights.values() if w > 0) \
                and _euler_class_nonzero(ring, comp)
            assert visible == comp.semifree


def test_facet_circles_t1_and_sd_agree(blow_qp, square_qp, cp2_qp):
    # soundness sanity: on every bundled Fano example, every facet circle is
    # certified essential by both the semifree-extremum rule and the Seidel
    # rule
    s2_qp = fano_presentation(examples.s2(F(1)))
    for qp in (blow_qp, square_qp, cp2_qp, s2_qp):
        poly = qp.polytope
        for i in range(poly.num_facets):
            report = analyze(poly, poly.normal(i), qp)
            assert report.verdict == "essential"
            assert report.finding("T1").triggered
            assert report.finding("SD").triggered


def test_sd_without_presentation(blow_qp):
    report = analyze(blow_qp.polytope, (-1, 0))
    assert all(f.rule != "SD" for f in report.findings)
    assert report.verdict == "essential"  # combinatorial rules suffice


def test_reports_deterministic(blow_qp):
    a = analyze(blow_qp.polytope, (-2, -1), blow_qp)
    b = analyze(blow_qp.polytope, (-2, -1), blow_qp)
    assert a.verdict == b.verdict
    assert [f.rule for f in a.findings] == [f.rule for f in b.findings]
    assert [f.triggered for f in a.findings] == \
        [f.triggered for f in b.findings]


def test_analyze_normalizes_offset_polytope():
    from toricqh.polytope import validate_delzant
    shifted = validate_delzant(
        [((1, 0), 2), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    report = analyze(shifted, (1, 1))
    assert report.normalized
    assert report.verdict == "essential"


def test_analyze_rejects_presentation_on_raw_moment_data():
    from toricqh.errors import MomentDataMismatch
    from toricqh.polytope import validate_delzant
    shifted = validate_delzant(
        [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(MomentDataMismatch):
        analyze(shifted, (1, 0), fano_presentation(shifted))


def _chain_corpus():
    """The bundled examples with xi in [-2, 2]^n and the 3-box with xi in
    [-1, 1]^3, plus three circles with climbing cheapest chains."""
    for name in sorted(examples.BUILDERS):
        poly = normalize(examples.build(name))
        for xi in product(range(-2, 3), repeat=poly.n):
            if any(xi):
                yield poly, xi
    cube3 = box(3)
    for xi in product(range(-1, 2), repeat=3):
        if any(xi):
            yield cube3, xi
    # circles whose cheapest chains climb to a higher K on the way down
    yield normalize(examples.s2xs2()), (1, 3)
    yield cube3, (1, 1, 2)
    yield cube3, (-1, 1, -2)


def test_chain_bound_matches_brute_force():
    for poly, xi in _chain_corpus():
        best, optimal, m_ok, qs = reference_chains(poly, xi)
        comps = fixed_components(poly, xi)
        assert q_pairs(poly, xi, [c.face for c in comps]) == qs, \
            (poly.name, xi)
        for (i, j), q in qs.items():
            assert q_pair(poly, xi, comps[i].face, comps[j].face) == q
        bound = chain_bound(poly, xi)
        assert bound.min_cost == best, (poly.name, xi)
        assert bound.optimal_paths == optimal, (poly.name, xi)
        assert bound.m_condition_achievable == m_ok, (poly.name, xi)
        assert bound.paths_total is None, (poly.name, xi)


def test_chain_bound_refuses_a_table_of_another_circle():
    """The table of (0, 1) passed for (1, 0) answered with the chains of
    (0, 1)."""
    cp2 = examples.cp2()
    other = CircleTable(cp2, (0, 1))
    assert former_chain_bound(cp2, (1, 0), FormerCircleTable(
        cp2, (0, 1))).q_values == {((0, 2), (1,)): 1}  # the former answer
    with pytest.raises(MomentDataMismatch, match=re.escape(
            "the circle table of (0, 1) was passed for (1, 0)")):
        chain_bound(cp2, (1, 0), other)
    # xi is checked by `_check_xi` with a table too
    for xi, error in (((1, 0, 0), DimensionMismatch), ((0, 0), ZeroVector),
                      ((1.0, 0), NonIntegralCoefficient)):
        with pytest.raises(error):
            chain_bound(cp2, xi, CircleTable(cp2, (1, 0)))
    # its own table answers, with xi as any sequence of ints
    table = CircleTable(cp2, (1, 0))
    assert chain_bound(cp2, [1, 0], table) == chain_bound(cp2, (1, 0))
    assert chain_bound(cp2, (0, 1), other).q_values == {((0, 2), (1,)): 1}


def test_chain_bound_refuses_a_table_of_another_polytope():
    """A cp2 table passed with s2xs2 answered for cp2.  The table must be
    the polytope's own, so one of an equal cp2 built twice is refused."""
    cp2, s2xs2 = examples.cp2(), examples.s2xs2()
    for poly in (s2xs2, examples.cp2()):
        with pytest.raises(MomentDataMismatch, match=re.escape(
                "the circle table was built on another polytope")):
            chain_bound(poly, (1, 0), CircleTable(cp2, (1, 0)))


def test_chain_bound_cube4_diagonal():
    bound = chain_bound(box(4), (1, 1, 1, 1))
    assert len(bound.optimal_paths) == 12288
    assert len(set(bound.optimal_paths)) == 12288
    assert bound.min_cost == F(48, 7) > bound.K_max == F(24, 7)
    assert not bound.m_condition_achievable
    assert bound.paths_total is None
    certificate = analyze(box(4), (1, 1, 1, 1)).finding("P6").certificate
    assert "optimal_paths_total" not in certificate


def test_a_cut_chain_list_is_the_head_of_the_full_one(monkeypatch):
    full = chain_bound(box(4), (1, 1, 1, 1))
    monkeypatch.setattr(obstructions_module, "MAX_PATHS", 100)
    cut = chain_bound(box(4), (1, 1, 1, 1))
    assert cut.optimal_paths == full.optimal_paths[:100]
    assert cut.paths_total == 12288
    assert (cut.min_cost, cut.m_condition_achievable) == \
        (full.min_cost, full.m_condition_achievable)


@pytest.mark.parametrize("n, total", [
    (5, 191_102_976), (6, 4_057_816_381_784_064)])
def test_the_cheapest_chains_on_a_long_diagonal_are_counted(n, total):
    """Listed, these would fill any memory; P6 keeps the first MAX_PATHS
    and states the count under a key of its own."""
    poly, xi = box(n), (1,) * n
    bound = chain_bound(poly, xi)
    assert bound.paths_total == total
    assert len(set(bound.optimal_paths)) == obstructions_module.MAX_PATHS
    assert all(path[0] == bound.optimal_paths[0][0] and
               path[-1] == bound.optimal_paths[0][-1]
               for path in bound.optimal_paths)
    certificate = analyze(poly, xi).finding("P6").certificate
    assert certificate["optimal_paths_total"] == total
    assert certificate["optimal_paths"] == bound.optimal_paths


@pytest.mark.parametrize("poly, xi", [
    (simplex(4), (1, 0, -1, 1)),
    (box(3), (1, 1, -1)),
    (box(4), (1, 2, 3, 4)),
], ids=["cp4", "cube3", "cube4"])
def test_analyze_reads_the_circle_data_once(monkeypatch, poly, xi):
    solved = Counter()
    tables = []
    coordinates = DelzantPolytope.coordinates
    table_init = CircleTable.__init__

    def counted_coordinates(self, vid, v):
        if self is poly and tuple(v) == xi:
            solved[vid] += 1
        return coordinates(self, vid, v)

    def counted_table(self, *args):
        tables.append(self)
        table_init(self, *args)

    monkeypatch.setattr(DelzantPolytope, "coordinates", counted_coordinates)
    monkeypatch.setattr(actions_module.CircleTable, "__init__", counted_table)
    analyze(poly, xi)
    assert sorted(solved) == list(range(len(poly.vertices)))
    assert set(solved.values()) == {1}
    assert len(tables) == 1  # one coordinate table and one orders map


@pytest.mark.parametrize("xi, error", [
    ((1,), DimensionMismatch),
    ((1, 0, 0), DimensionMismatch),
    ((0, 0), ZeroVector),
], ids=["short", "long", "zero"])
def test_analyze_checks_xi_before_it_builds_a_ring(monkeypatch, xi, error):
    """A circle direction of the wrong length or zero is a typed error
    before any classical ring is built: gon12's costs half a second."""

    def refuse(poly):
        raise AssertionError("build_ring before xi was checked")

    monkeypatch.setattr(obstructions_module, "build_ring", refuse)
    offset = validate_delzant([((1, 0), 2), ((-1, 0), -1), ((0, 1), 1),
                               ((0, -1), 0)])
    for poly in (validate_delzant(GON12), examples.cp2(), offset):
        with pytest.raises(error):
            analyze(poly, xi, None)


def test_moment_data_that_is_not_mean_normalized_is_a_typed_error():
    # the unit square at [1, 2] x [0, 1]: <(1, 0), .> is positive on it
    shifted = validate_delzant(
        [((1, 0), 2), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(NotMeanNormalized):
        _rule_c(CircleTable(shifted, (1, 0)))


def test_p4_and_r5_reduce_each_facet_monomial_once(monkeypatch):
    """On cube3 with xi = (1, 1, 1) every fixed point is semifree, so P4
    and R5 ask for the same x_plus and x_minus classes: 15 distinct
    monomials, each reduced once per analyze through the ring's memo (the
    15 have only 8 distinct kept images)."""
    cube3 = box(3)
    reduced = []
    nf = ClassicalRing.nf

    def counted(self, p):
        reduced.append(tuple(sorted(p.items())))
        return nf(self, p)

    monkeypatch.setattr(ClassicalRing, "nf", counted)
    analyze(cube3, (1, 1, 1))
    assert len(reduced) == 15 and len(set(reduced)) == 8
    analyze(cube3, (1, 1, 1))  # each analyze builds its own ring
    assert len(reduced) == 30


def test_the_euler_class_reads_the_ring_memo_as_restrict_to_face_reduces():
    """T2's Euler class x^p * x_F, read off the ring's monomial memo, is
    nonzero exactly where the former route through `restrict_to_face` found
    it so, on every component with a weight <= -2."""
    seen = Counter()
    for name, poly in sorted(POLYTOPES.items()):
        ring = build_ring(poly)
        for xi in product(range(-2, 3), repeat=poly.n):
            if not any(xi):
                continue
            for comp in fixed_components(poly, xi):
                if any(w <= -2 for w in comp.weights.values()):
                    nonzero = _euler_class_nonzero(ring, comp)
                    assert nonzero == former_euler_class_nonzero(
                        ring, comp), (name, xi, sorted(comp.facets))
                    seen[nonzero] += 1
    assert seen[True] > 100 and seen[False] > 1000


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the NEF Seidel element of a coroot circle is not 1: the precision "
    "defect of ROADMAP item 1, found by item 26's root pairs"))
@pytest.mark.parametrize("xi", [(2, 0), (-2, 0)], ids=["2,0", "-2,0"])
def test_a_coroot_circle_of_hirzebruch2_is_not_essential(xi):
    """Facets 2 and 3 of the mean-normalized hirzebruch2, normals (1, -1)
    and (-1, -1) with supports 13/12, are a root pair with m = (1, 0), so
    +-(2, 0) is a coroot circle: contractible in Ham, so S(xi) = 1 and no
    rule may call it essential."""
    poly = normalize(examples.hirzebruch2(F(2)))
    assert [poly.support(i) for i in (2, 3)] == [F(13, 12)] * 2
    qp = nef_presentation(poly, hirz_y_table(default_cutoff(poly)))
    assert seidel_element(qp, xi).qclass == qp.one()
    assert analyze(poly, xi, qp).verdict == "inconclusive"
