from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from toricqh import actions as actions_module
from toricqh import examples
from toricqh.actions import (
    CircleTable,
    fixed_components,
    global_isotropy_bound,
    isotropy_components,
    q_pair,
    q_pairs,
)
from toricqh.cohomology import ClassicalRing
from toricqh.errors import NotMeanNormalized
from toricqh.obstructions import _rule_c, analyze, chain_bound
from toricqh.polytope import DelzantPolytope, normalize, validate_delzant
from toricqh.quantum import fano_presentation

F = Fraction
MU = F(1, 2)
EPS = F(7, 20)


def simplex(n):
    """CP^n: the standard simplex with every support 1/4, mean normalized."""
    specs = [(tuple(-1 if j == i else 0 for j in range(n)), F(1, 4))
             for i in range(n)]
    specs.append(((1,) * n, F(1, 4)))
    return normalize(validate_delzant(specs, name=f"cp{n}"))


def box(n):
    """The box with support 1/2 + i/7 on both facets of axis i = 1..n,
    mean normalized."""
    specs = [(tuple(s if j == i else 0 for j in range(n)),
              F(1, 2) + F(i + 1, 7))
             for i in range(n) for s in (1, -1)]
    return normalize(validate_delzant(specs, name=f"cube{n}"))


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


def _chain_reference(poly, xi):
    """Every simple chain from the maximum to the minimum, by brute force:
    (min cost, the cheapest chains in lexicographic order of component
    indices, whether one of them meets the weight-sum condition, the q of
    each pair).  A pair's q is the largest q whose stratum has a component
    holding both faces, found by trying every q from the global bound down."""
    comps = fixed_components(poly, xi)
    n = len(comps)
    strata = [(k, isotropy_components(poly, xi, k).components)
              for k in range(global_isotropy_bound(poly, xi), 1, -1)]
    q = {}
    for i in range(n):
        for j in range(i + 1, n):
            q[(i, j)] = q[(j, i)] = next(
                (k for k, components in strata
                 if any(comps[i].facets in c and comps[j].facets in c
                        for c in components)), 1)
    chains = []

    def extend(path):
        if path[-1] == n - 1:
            chains.append(path)
            return
        for v in range(n):
            if v not in path and comps[v].K != comps[path[-1]].K:
                extend(path + [v])

    extend([0])

    def cost(path):
        return sum(abs(comps[u].K - comps[v].K) / q[(u, v)]
                   for u, v in zip(path, path[1:]))

    def m_sum(path):
        return sum(F(comps[u].m - comps[v].m, q[(u, v)])
                   * (1 if comps[u].K > comps[v].K else -1)
                   for u, v in zip(path, path[1:]))

    best = min(cost(path) for path in chains)
    optimal = sorted(path for path in chains if cost(path) == best)
    keys = [tuple(sorted(c.facets)) for c in comps]
    return (best,
            tuple(tuple(keys[v] for v in path) for path in optimal),
            any(m_sum(path) == comps[0].m for path in optimal),
            {(i, j): q[(i, j)] for i in range(n) for j in range(i + 1, n)})


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
        best, optimal, m_ok, qs = _chain_reference(poly, xi)
        comps = fixed_components(poly, xi)
        assert q_pairs(poly, xi, [c.face for c in comps]) == qs, \
            (poly.name, xi)
        for (i, j), q in qs.items():
            assert q_pair(poly, xi, comps[i].face, comps[j].face) == q
        bound = chain_bound(poly, xi)
        assert bound.min_cost == best, (poly.name, xi)
        assert bound.optimal_paths == optimal, (poly.name, xi)
        assert bound.m_condition_achievable == m_ok, (poly.name, xi)


def test_chain_bound_cube4_diagonal():
    bound = chain_bound(box(4), (1, 1, 1, 1))
    assert len(bound.optimal_paths) == 12288
    assert len(set(bound.optimal_paths)) == 12288
    assert bound.min_cost == F(48, 7) > bound.K_max == F(24, 7)
    assert not bound.m_condition_achievable


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


def test_moment_data_that_is_not_mean_normalized_is_a_typed_error():
    # the unit square at [1, 2] x [0, 1]: <(1, 0), .> is positive on it
    shifted = validate_delzant(
        [((1, 0), 2), ((-1, 0), -1), ((0, 1), 1), ((0, -1), 0)])
    with pytest.raises(NotMeanNormalized):
        _rule_c(CircleTable(shifted, (1, 0)))


def test_p4_and_r5_reduce_each_facet_monomial_once(monkeypatch):
    """On cube3 with xi = (1, 1, 1) every fixed point is semifree, so P4
    and R5 ask for the same x_plus and x_minus classes: 15 distinct
    monomials, each reduced once per analyze."""
    cube3 = box(3)
    reduced = []
    reduce_full = ClassicalRing.reduce_full

    def counted(self, p):
        reduced.append(tuple(p))
        return reduce_full(self, p)

    monkeypatch.setattr(ClassicalRing, "reduce_full", counted)
    analyze(cube3, (1, 1, 1))
    assert len(reduced) == len(set(reduced)) == 15
    analyze(cube3, (1, 1, 1))  # nothing is kept across analyze calls
    assert len(reduced) == 30
