from fractions import Fraction

import pytest

from toricqh import examples
from toricqh.obstructions import analyze, chain_bound
from toricqh.quantum import fano_presentation

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
