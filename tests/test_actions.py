import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd

import pytest

import toricqh

from cases import GON12, box, box_vectors, simplex
from reference import (
    FormerCircleTable,
    kernel_basis_int,
    reference_in_rational_lattice,
    weights,
)
from toricqh import actions, examples, obstructions
from toricqh.actions import (
    FIXED,
    CircleTable,
    IsotropyStratum,
    _stratum,
    fixed_components,
    fixed_maximum,
    global_isotropy_bound,
    isotropy_components,
    isotropy_order,
    q_pair,
    q_pairs,
)
from toricqh.cli import main
from toricqh.errors import (
    DimensionMismatch,
    MomentNotConstant,
    NonIntegralCoefficient,
    StratumNotClosed,
    ToricError,
    ZeroVector,
)
from toricqh.obstructions import analyze, chain_bound
from toricqh.quantum import fano_presentation
from toricqh.seidel import seidel_element, verify_leading_term
from toricqh.linalg import in_span
from toricqh.polytope import build_face_lattice, validate_delzant

F = Fraction
EPS = F(7, 20)  # blowup at mu = 1/2


@pytest.fixture(scope="module")
def blow():
    return examples.blowup_cp2(F(1, 2))


@pytest.fixture(scope="module")
def square():
    return examples.s2xs2(F(2))


@pytest.fixture(scope="module")
def hirz():
    return examples.hirzebruch2(F(2))


@pytest.fixture(scope="module")
def cp2():
    return examples.cp2()


def test_fixed_components_blowup_facet_circle(blow):
    comps = fixed_components(blow, (-1, 0))
    by_face = {tuple(sorted(c.facets)): c for c in comps}
    assert set(by_face) == {(0,), (1, 2), (1, 3)}
    assert by_face[(0,)].K == EPS
    assert by_face[(1, 2)].K == EPS - 1
    assert by_face[(1, 3)].K == EPS - F(1, 4)
    fmax, fmin = comps[0], comps[-1]
    assert fixed_maximum(blow, (-1, 0)) == fmax
    assert tuple(sorted(fmax.facets)) == (0,)
    assert tuple(sorted(fmin.facets)) == (1, 2)


def test_fixed_components_square_diagonal(square):
    comps = fixed_components(square, (1, 1))
    assert len(comps) == 4
    assert all(c.face.dim == 0 for c in comps)


def test_fixed_components_cp2(cp2):
    comps = fixed_components(cp2, (2, 1))
    ks = sorted(c.K for c in comps)
    assert ks == [F(-1), F(0), F(1)]


def test_zero_vector_rejected(square):
    with pytest.raises(ZeroVector):
        fixed_components(square, (0, 0))


def test_weights_blowup_saddles(blow):
    f13 = blow.face(frozenset({0, 2}))
    w = weights(blow, (-2, -1), f13)
    assert sorted(w.values()) == [-1, 1]
    f24 = blow.face(frozenset({1, 3}))
    w = weights(blow, (-2, -1), f24)
    assert sorted(w.values()) == [-2, 1]


def test_weights_square_vertex(square):
    v = square.face(frozenset({0, 2}))
    w = weights(square, (1, 2), v)
    assert w == {0: -1, 2: -2}
    comps = fixed_components(square, (1, 2))
    saddle = next(c for c in comps if tuple(sorted(c.facets)) == (0, 3))
    assert saddle.m == -1 + 2 or saddle.m == 1  # weights (-1, +2)


def test_weight_zero_on_facets_off_the_face(blow):
    comps = fixed_components(blow, (-1, 0))
    for c in comps:
        assert set(c.weights) <= set(c.facets)


def test_extrema_weight_signs(blow, square, cp2):
    for poly, xi in ((blow, (-2, -1)), (square, (1, 1)), (cp2, (2, 1)),
                     (blow, (3, 1)), (square, (-1, -2))):
        comps = fixed_components(poly, xi)
        fmax, fmin = comps[0], comps[-1]
        assert fixed_maximum(poly, xi) == fmax
        if fmax.face.dim == 0:
            assert all(w < 0 for w in fmax.weights.values())
            assert fmax.m <= 0
        if fmin.face.dim == 0:
            assert all(w > 0 for w in fmin.weights.values())
            assert fmin.m >= 0


def test_isotropy_order_examples(blow, square, hirz):
    edge = hirz.face(frozenset({2}))  # normal (1, -1)
    assert isotropy_order(hirz, (1, 2), edge) == 3
    edge = blow.face(frozenset({2}))  # normal (1, 1)
    assert isotropy_order(blow, (1, -1), edge) == 2
    for i in range(4):
        assert isotropy_order(square, (1, 1), square.face(frozenset({i}))) == 1


def test_isotropy_order_fixed_faces(blow):
    assert isotropy_order(blow, (-1, 0), blow.face(frozenset({0}))) is FIXED


def test_isotropy_divisibility_along_containment(blow, square, hirz, cp2):
    for poly, xi in ((blow, (1, -1)), (square, (1, 2)), (hirz, (1, 2)),
                     (cp2, (2, 1))):
        for key, face in poly.faces.items():
            q = isotropy_order(poly, xi, face)
            if q is FIXED:
                continue
            for key2, face2 in poly.faces.items():
                if key < key2:  # face2 is a subface
                    q2 = isotropy_order(poly, xi, face2)
                    assert q2 is FIXED or q2 % q == 0


def test_isotropy_components_q1_single_component(blow, square):
    for poly, xi in ((blow, (1, -1)), (square, (1, 1))):
        stratum = isotropy_components(poly, xi, 1)
        assert len(stratum.components) == 1
        assert stratum.faces == frozenset(poly.faces)


def test_q_pair_cp2(cp2):
    comps = fixed_components(cp2, (2, 1))
    vmax = next(c for c in comps if c.K == 1)
    vmin = next(c for c in comps if c.K == -1)
    assert q_pair(cp2, (2, 1), vmax.face, vmin.face) == 2


def test_q_pair_square_opposite_vertices(square):
    comps = fixed_components(square, (1, 1))
    vmax, vmin = comps[0], comps[-1]
    assert q_pair(square, (1, 1), vmax.face, vmin.face) == 1


def test_superlevel_isotropy_bound(blow, square):
    def bound(poly, xi, c):
        return CircleTable(poly, xi).superlevel_bounds((c,))[c]

    c = F(3) * EPS - 1
    assert bound(blow, (-2, -1), c) == 2
    assert bound(square, (1, 1), F(-10)) == 1
    assert bound(square, (1, 2), F(-10)) == 2


def test_global_isotropy_bound(square, cp2):
    assert global_isotropy_bound(square, (1, 1)) == 1
    assert global_isotropy_bound(cp2, (2, 1)) == 2


def action_invariant(poly, xi):
    """The paper's invariant (K, -m), represented at the maximum."""
    fmax = fixed_maximum(poly, xi)
    return fmax.K, -fmax.m


def test_action_invariant_blowup(blow):
    # F_max of eta_1 is the facet D_1 with K = eps, m = -1
    assert action_invariant(blow, (-1, 0)) == (EPS, 1)


def test_action_invariant_square_diagonal(square):
    K, minus_m = action_invariant(square, (1, 1))
    assert K == F(3, 2)  # (1 + mu)/2 at mu = 2
    assert minus_m == 2


def test_action_invariant_antisymmetry(blow, square):
    # the invariants of xi and -xi are negatives modulo the (omega, c1)
    # lattice of spherical classes
    from toricqh.polytope import H2Class

    def h2_lattice(poly):
        """Integer basis of {a : sum a_i eta_i = 0} as H2Class objects."""
        n, N = poly.n, poly.num_facets
        m = [[poly.normal(i)[j] for i in range(N)] for j in range(n)]
        return [H2Class(b) for b in kernel_basis_int(m)]

    for poly, xi in ((blow, (-2, -1)), (square, (1, 2))):
        k1, mm1 = action_invariant(poly, xi)
        k2, mm2 = action_invariant(poly, tuple(-x for x in xi))
        rows = [(b.omega(poly), F(b.c1())) for b in h2_lattice(poly)]
        assert reference_in_rational_lattice(rows, (k1 + k2, mm1 + mm2))


def test_weight_multiset_vertex_independent(blow, hirz):
    for poly, xi in ((blow, (-1, 0)), (hirz, (0, 1)), (hirz, (1, 0))):
        for comp in fixed_components(poly, xi):
            weights(poly, xi, comp.face)  # raises on inconsistency


def test_component_weights_equal_the_reference_weights():
    for poly, xi in _bundled_circles():
        comps = CircleTable(poly, xi).components
        for comp in comps:
            assert comp.weights == weights(poly, xi, comp.face), (poly.name,
                                                                  xi)
        assert fixed_maximum(poly, xi).weights == comps[0].weights


def _bundled_circles():
    """Bundled examples with xi in [-2, 2]^n, plus cp3 and the 3-cube with
    xi in [-1, 1]^3."""
    cp3 = validate_delzant(
        [((-1, 0, 0), 1), ((0, -1, 0), 1), ((0, 0, -1), 1), ((1, 1, 1), 1)])
    cube3 = validate_delzant(
        [(tuple(s if j == i else 0 for j in range(3)), 1)
         for i in range(3) for s in (1, -1)])
    for name in sorted(examples.BUILDERS):
        poly = examples.build(name)
        for xi in product(range(-2, 3), repeat=poly.n):
            if any(xi):
                yield poly, xi
    for poly in (cp3, cube3):
        for xi in product(range(-1, 2), repeat=3):
            if any(xi):
                yield poly, xi


def test_isotropy_order_matches_span_reference():
    """Fixed iff xi lies in the span of the face's normals (rank test), and
    a finite order is the same gcd of off-face coordinates at every vertex
    of the face."""
    for poly, xi in _bundled_circles():
        for key, face in poly.faces.items():
            order = isotropy_order(poly, xi, face)
            fixed = in_span([poly.normal(i) for i in sorted(key)], xi)
            assert (order is FIXED) == fixed, (poly.name, xi, sorted(key))
            if fixed:
                continue
            for vid in face.vertex_ids:
                g = 0
                for i, c in poly.coordinates(vid, xi).items():
                    if i not in key:
                        g = gcd(g, c)
                assert g == order, (poly.name, xi, sorted(key), vid)


# ------------------------------------------------ checks that are not asserts

def test_moment_value_off_a_fixed_face_is_a_typed_error(blow):
    with pytest.raises(MomentNotConstant):
        CircleTable(blow, (-1, 0)).moment_value(blow.face(frozenset()))


def test_a_stratum_missing_a_subface_is_a_typed_error():
    # the edge {0} has order 3 but the whole polygon has order 2
    orders = {frozenset(): 2, frozenset({0}): 3}
    with pytest.raises(StratumNotClosed):
        _stratum(build_face_lattice(orders), orders, 2)


def test_a_circle_check_still_fires_under_python_O():
    code = (
        "from toricqh import examples\n"
        "from toricqh.actions import CircleTable\n"
        "from toricqh.errors import MomentNotConstant\n"
        "assert False, 'asserts are on'\n"
        "poly = examples.cp2()\n"
        "try:\n"
        "    CircleTable(poly, (1, 0)).moment_value(poly.face(frozenset()))\n"
        "except MomentNotConstant:\n"
        "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n"


# ------------------------------------------------------ the length of xi

def entry_points(poly, qp):
    """Every library call that takes a circle direction xi on poly."""
    face = poly.face(frozenset({0}))
    return {
        "analyze": lambda xi: analyze(poly, xi, None),
        "analyze with quantum": lambda xi: analyze(poly, xi, qp),
        "fixed_maximum": lambda xi: fixed_maximum(poly, xi),
        "fixed_components": lambda xi: fixed_components(poly, xi),
        "CircleTable": lambda xi: CircleTable(poly, xi),
        "seidel_element": lambda xi: seidel_element(qp, xi),
        "verify_leading_term": lambda xi: verify_leading_term(qp, xi),
        "isotropy_order": lambda xi: isotropy_order(poly, xi, face),
        "isotropy_components": lambda xi: isotropy_components(poly, xi, 2),
        "q_pairs": lambda xi: q_pairs(poly, xi, (face, face)),
        "q_pair": lambda xi: q_pair(poly, xi, face, face),
        "global_isotropy_bound": lambda xi: global_isotropy_bound(poly, xi),
        "chain_bound": lambda xi: chain_bound(poly, xi),
    }


@pytest.mark.parametrize("xi, length", [((2, 1, 5), 3), ((1,), 1),
                                        ((0, 0, 1), 3), ((), 0)],
                         ids=["long", "short", "long, zero in range",
                              "empty"])
def test_a_direction_of_the_wrong_length_is_a_typed_error(xi, length):
    """Formerly a long xi was read as its first n entries and a short one
    padded with zeros, so (2, 1, 5) answered for (2, 1) and (1,) for
    (1, 0)."""
    poly = examples.cp2()
    qp = fano_presentation(poly)
    for name, call in entry_points(poly, qp).items():
        with pytest.raises(DimensionMismatch) as err:
            call(xi)
        assert str(err.value) == \
            f"the circle direction has {length} entries, not 2", name
    # the right length still answers
    for call in entry_points(poly, qp).values():
        call((2, 1))


def test_the_cli_checks_the_length_of_xi_first(tmp_path, capsys):
    path = tmp_path / "cp2.json"
    main(["example", "cp2", "-o", str(path)])
    capsys.readouterr()
    for command in ("seidel", "fixed", "analyze"):
        assert main([command, str(path), "--xi=2,1,5"]) == 1
        assert capsys.readouterr().err == \
            "error: FileFormatError: --xi needs 2 components\n"


# --------------------------------------------------- each q-stratum once

def _stratum_circles():
    """Name -> (polytope, circles): the bundled examples, cp3, cube3 and cp4
    with xi in [-2, 2]^n, cube4 with xi in [-1, 1]^4 and (1, 2, 3, 4), and
    two circles of the 12-gon whose S2 and P6 both ask for the 2-stratum."""
    corpus = {name: (examples.build(name),
                     box_vectors(examples.build(name).n, 2))
              for name in examples.BUILDERS}
    corpus.update(
        cp3=(simplex(3), box_vectors(3, 2)),
        cube3=(box(3), box_vectors(3, 2)),
        cp4=(simplex(4), box_vectors(4, 2)),
        cube4=(box(4), box_vectors(4, 1) + [(1, 2, 3, 4)]),
        gon12=(validate_delzant(GON12, name="gon12"), [(1, 0), (0, 1)]))
    return corpus


STRATUM_CIRCLES = _stratum_circles()
# the circles whose S2 and P6 both ask for the 2-stratum, which the former
# code built twice
ASKED_TWICE = dict(s2=2, cp2=12, blowup_cp2=12, s2xs2=16, hirzebruch2=8,
                   cp3=50, cube3=98, cp4=180, cube4=0, gon12=2)


def _findings(poly, xis):
    out = []
    for xi in xis:
        try:
            out.append(repr(analyze(poly, xi).findings))
        except ToricError as err:
            out.append((type(err).__name__, str(err)))
    return out


@pytest.mark.parametrize("name", sorted(STRATUM_CIRCLES))
def test_a_table_builds_each_q_stratum_once_for_the_former_findings(
        name, monkeypatch):
    """Over a battery per circle, `_stratum` runs at most once for each q on
    each table, asking again returns the very stratum it built, and the
    findings are those of the former strata."""
    poly, xis = STRATUM_CIRCLES[name]
    built, tables, asked = [], [], Counter()
    build = _stratum

    def counted(lattice, orders, q):
        built.append((orders, q, build(lattice, orders, q)))
        return built[-1][-1]

    class Recorded(CircleTable):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self)

        def stratum(self, q):
            asked[self, q] += 1
            return super().stratum(q)

    monkeypatch.setattr(actions, "_stratum", counted)
    monkeypatch.setattr(obstructions, "CircleTable", Recorded)
    got = _findings(poly, xis)
    assert len({table for (table, q), k in asked.items() if k > 1}) == \
        ASKED_TWICE[name]
    keys = [(id(orders), q) for orders, q, _ in built]
    assert len(keys) == len(set(keys))
    count = len(built)
    for table in tables:
        for orders, q, stratum in built:
            if orders is table.orders:
                assert table.stratum(q) is stratum
    assert len(built) == count
    monkeypatch.undo()
    monkeypatch.setattr(CircleTable, "stratum", FormerCircleTable.stratum)
    assert got == _findings(poly, xis)


def test_two_tables_of_one_circle_build_their_own_strata(cp2, monkeypatch):
    built = []
    build = _stratum

    def counted(lattice, orders, q):
        built.append(q)
        return build(lattice, orders, q)

    monkeypatch.setattr(actions, "_stratum", counted)
    first, second = CircleTable(cp2, (1, 0)), CircleTable(cp2, (1, 0))
    for table in (first, second, first, second):
        table.stratum(2)
    assert built == [2, 2]
    assert first.stratum(2) == second.stratum(2)
    assert first.stratum(2) is not second.stratum(2)
    assert isotropy_components(cp2, (1, 0), 2) is not \
        isotropy_components(cp2, (1, 0), 2)


@pytest.mark.parametrize("q", [0, -2, 2.0, True],
                         ids=["zero", "negative", "float", "bool"])
def test_a_stratum_order_that_is_not_a_positive_int_is_a_typed_error(
        cp2, q):
    """Formerly q = 0 ended in a ZeroDivisionError, q = -2 gave a stratum
    labelled -2, and 2.0 and True answered as 2 and 1."""
    message = re.escape(f"the stratum order q must be an int >= 1, not {q!r}")
    with pytest.raises(NonIntegralCoefficient, match=f"^{message}$"):
        isotropy_components(cp2, (1, 0), q)
    table = CircleTable(cp2, (1, 0))
    table.stratum(1), table.stratum(2)  # the ints that q hashes like
    with pytest.raises(NonIntegralCoefficient, match=f"^{message}$"):
        table.stratum(q)


def test_the_stratum_orders_one_and_two_still_answer(cp2):
    whole = isotropy_components(cp2, (1, 0), 1)
    assert isinstance(whole, IsotropyStratum) and whole.q == 1
    assert whole.faces == frozenset(cp2.faces)
    assert whole.components == (frozenset(cp2.faces),)
    two = isotropy_components(cp2, (1, 0), 2)
    assert two.q == 2 and type(two.q) is int
    assert two == _stratum(cp2.face_lattice, CircleTable(cp2, (1, 0)).orders,
                           2)
