import itertools
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricqh import examples
from toricqh import linalg
from toricqh.errors import (
    NotFullDimensional,
    NotSimple,
    NotSmooth,
    RedundantFacet,
    ToricError,
    Unbounded,
)
from toricqh.polytope import (
    DelzantPolytope,
    Facet,
    H2Class,
    beta_class,
    centroid,
    dual_cone_face,
    h2_lattice,
    normalize,
    primitive_sets,
    validate_delzant,
)

F = Fraction


def test_square_is_valid_with_four_vertices():
    poly = validate_delzant(
        [((1, 0), 1), ((-1, 0), 1), ((0, 1), F(1, 2)), ((0, -1), F(1, 2))])
    assert len(poly.vertices) == 4
    assert {f.dim for f in poly.faces.values()} == {0, 1, 2}


def test_two_parallel_facets_unbounded():
    with pytest.raises(Unbounded):
        validate_delzant([((1, 0), 1), ((-1, 0), 1)])


def test_non_unimodular_vertex_not_smooth():
    with pytest.raises(NotSmooth):
        validate_delzant([((-1, 0), 1), ((0, -1), 1), ((2, 1), 1)])


def test_redundant_facet_rejected():
    with pytest.raises(RedundantFacet):
        validate_delzant(
            [((1, 0), 1), ((-1, 0), 1), ((0, 1), F(1, 2)), ((0, -1), F(1, 2)),
             ((1, 0), 5)])


def test_face_lattice_blowup():
    poly = examples.blowup_cp2(F(1, 2))
    assert len(poly.faces_of_dim(1)) == 4
    assert len(poly.faces_of_dim(0)) == 4
    assert frozenset({0, 1}) not in poly.faces
    assert frozenset({2, 3}) not in poly.faces


def test_face_lattice_cp2():
    poly = examples.cp2()
    assert len(poly.faces_of_dim(1)) == 3
    assert len(poly.faces_of_dim(0)) == 3


def test_face_lattice_closed_under_intersection():
    for poly in (examples.blowup_cp2(), examples.s2xs2(), examples.cp2(),
                 examples.hirzebruch2()):
        keys = set(poly.faces)
        for a in keys:
            for b in keys:
                meet = a | b  # intersection of faces = union of facet sets
                vids = set(poly.faces[a].vertex_ids) & set(
                    poly.faces[b].vertex_ids)
                if vids:
                    assert meet in keys


def test_primitive_sets_blowup():
    poly = examples.blowup_cp2(F(1, 2))
    prims = {p.key: p for p in primitive_sets(poly)}
    assert set(prims) == {frozenset({0, 1}), frozenset({2, 3})}
    p01 = prims[frozenset({0, 1})]
    assert p01.j_indices == (3,) and p01.coeffs == (1,)
    p23 = prims[frozenset({2, 3})]
    assert p23.j_indices == () and p23.coeffs == ()


def test_primitive_sets_square_and_cp2():
    square = examples.s2xs2()
    keys = {p.key for p in primitive_sets(square)}
    assert keys == {frozenset({0, 1}), frozenset({2, 3})}
    cp2 = examples.cp2()
    keys = {p.key for p in primitive_sets(cp2)}
    assert keys == {frozenset({0, 1, 2})}


def test_dual_cone_face_blowup_relation():
    poly = examples.blowup_cp2(F(1, 2))
    face, coeffs = dual_cone_face(poly, (-1, -1))
    assert face.facets == frozenset({3})
    assert coeffs == {3: 1}


def test_dual_cone_face_zero_vector_gives_top_face():
    poly = examples.s2xs2()
    face, coeffs = dual_cone_face(poly, (0, 0))
    assert face.facets == frozenset()
    assert coeffs == {}


def test_dual_cone_face_square_interior_vector():
    poly = examples.s2xs2()
    face, coeffs = dual_cone_face(poly, (1, 2))
    assert face.facets == frozenset({0, 2})
    assert coeffs == {0: 1, 2: 2}


def test_dual_cone_disjoint_from_primitive_set():
    for poly in (examples.blowup_cp2(), examples.s2xs2(), examples.cp2(),
                 examples.hirzebruch2()):
        for p in primitive_sets(poly):
            assert not set(p.indices) & set(p.j_indices)


def test_beta_classes_blowup():
    mu = F(1, 2)
    poly = examples.blowup_cp2(mu)
    prims = {p.key: p for p in primitive_sets(poly)}
    b23 = prims[frozenset({2, 3})].beta
    assert b23.c1() == 2 and b23.omega(poly) == 1 - mu ** 2
    b01 = prims[frozenset({0, 1})].beta
    assert b01.c1() == 1 and b01.omega(poly) == mu ** 2
    assert b01.pairings == (1, 1, 0, -1)


def test_beta_classes_square():
    mu = F(2)
    poly = examples.s2xs2(mu)
    prims = {p.key: p for p in primitive_sets(poly)}
    assert prims[frozenset({0, 1})].beta.omega(poly) == mu
    assert prims[frozenset({0, 1})].beta.c1() == 2
    assert prims[frozenset({2, 3})].beta.omega(poly) == 1


def test_centroid_of_bundled_examples_is_zero():
    for poly in (examples.s2(), examples.cp2(), examples.blowup_cp2(F(1, 2)),
                 examples.s2xs2(), examples.hirzebruch2()):
        assert centroid(poly) == tuple([F(0)] * poly.n), poly.name


def test_normalize_idempotent():
    poly = validate_delzant(
        [((1, 0), 3), ((-1, 0), 1), ((0, 1), 2), ((0, -1), 1)])
    normed = normalize(poly)
    assert centroid(normed) == (F(0), F(0))
    again = normalize(normed)
    assert [f.support for f in again.facets] == [f.support for f in normed.facets]


def test_h2_lattice_ranks_and_pairings():
    blow = examples.blowup_cp2(F(1, 2))
    basis = h2_lattice(blow)
    assert len(basis) == 2
    fiber = H2Class((0, 0, 1, 1))
    assert fiber.omega(blow) == 1 - F(1, 2) ** 2 and fiber.c1() == 2
    cp2 = examples.cp2()
    basis = h2_lattice(cp2)
    assert len(basis) == 1
    gen = basis[0]
    assert tuple(abs(x) for x in gen.pairings) == (1, 1, 1)
    line = H2Class((1, 1, 1))
    assert line.omega(cp2) == 1 and line.c1() == 3


def test_h2_lattice_square():
    sq = examples.s2xs2(2)
    assert len(h2_lattice(sq)) == 2
    assert H2Class((1, 1, 0, 0)).omega(sq) == 2
    assert H2Class((0, 0, 1, 1)).omega(sq) == 1


def test_beta_pairings_lie_in_kernel():
    for poly in (examples.blowup_cp2(), examples.s2xs2(), examples.cp2(),
                 examples.hirzebruch2()):
        for p in primitive_sets(poly):
            for j in range(poly.n):
                assert sum(a * poly.normal(i)[j]
                           for i, a in enumerate(p.beta.pairings)) == 0
            assert p.beta.omega(poly) > 0


def test_vertex_count_equals_sum_of_betti_later():
    # anchor: number of vertices (Euler characteristic cross-check)
    assert len(examples.blowup_cp2().vertices) == 4
    assert len(examples.cp2().vertices) == 3
    assert len(examples.hirzebruch2().vertices) == 4


@settings(max_examples=40, deadline=None)
@given(mu=st.fractions(min_value=F(1, 10), max_value=F(9, 10)))
def test_blowup_centroid_formula_over_random_mu(mu):
    poly = examples.blowup_cp2(mu)
    assert centroid(poly) == (F(0), F(0))


@settings(max_examples=40, deadline=None)
@given(mu=st.fractions(min_value=F(11, 10), max_value=F(9, 2)))
def test_hirzebruch_centroid_formula_over_random_mu(mu):
    poly = examples.hirzebruch2(mu)
    assert centroid(poly) == (F(0), F(0))


def test_vertex_determinants_are_unimodular():
    for poly in (examples.blowup_cp2(), examples.s2xs2(), examples.cp2(),
                 examples.hirzebruch2(), examples.s2()):
        for vid in range(len(poly.vertices)):
            cols = poly.vertex_normal_columns(vid)
            m = [[cols[j][i] for j in range(poly.n)] for i in range(poly.n)]
            assert abs(linalg.det(m)) == 1


# ------------------------------------------------------------ boundedness

def _recession_direction(specs, n):
    """A nonzero d in [-8, 8]^n with <eta_i, d> <= 0 for every facet, or
    None.  For n <= 3 and normal entries in [-2, 2], every extreme ray of
    the recession cone has a generator in that box."""
    for d in itertools.product(range(-8, 9), repeat=n):
        if any(d) and all(linalg.vec_dot(normal, d) <= 0
                          for normal, _ in specs):
            return d
    return None


@st.composite
def facet_data(draw):
    n = draw(st.integers(1, 3))
    primitive = st.tuples(*[st.integers(-2, 2)] * n).filter(
        lambda v: gcd(*v) == 1)
    support = st.builds(F, st.integers(-4, 4), st.integers(1, 4))
    return n, draw(st.lists(st.tuples(primitive, support),
                            min_size=n, max_size=n + 3))


@settings(max_examples=150, deadline=None)
@given(data=facet_data())
def test_a_recession_direction_means_unbounded(data):
    n, specs = data
    if _recession_direction(specs, n) is None:
        try:
            validate_delzant(specs)
        except ToricError:
            pass
    else:
        with pytest.raises(Unbounded):
            validate_delzant(specs)


@pytest.mark.parametrize("specs", [
    # a 2-D wedge whose normals span: u, v >= 0, u - v <= 1
    [((-1, 0), 0), ((0, -1), 0), ((1, -1), 1)],
    # a triangular prism without its top cap
    [((-1, 0, 0), 0), ((0, -1, 0), 0), ((1, 1, 0), 1), ((0, 0, -1), 0)],
    # two facets of a segment facing the same way
    [((1,), 1), ((1,), 2)],
], ids=["wedge", "open_prism", "same_side_1d"])
def test_unbounded_regions(specs):
    with pytest.raises(Unbounded):
        validate_delzant(specs)


@pytest.mark.parametrize("specs, error", [
    # the apex of a square pyramid lies on its four side facets
    ([((0, 0, -1), 0), ((1, 0, 1), 1), ((-1, 0, 1), 1), ((0, 1, 1), 1),
      ((0, -1, 1), 1)], NotSimple),
    # a segment in the plane: both ends lie on u <= 0 and -u <= 0
    ([((1, 0), 0), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 1)],
     NotFullDimensional),
], ids=["pyramid", "flat_segment"])
def test_only_feasible_directions_are_edges_at_non_simple_vertices(specs,
                                                                  error):
    with pytest.raises(error):
        validate_delzant(specs)


# ------------------------------------------------ checks that are not asserts

def test_solve_unimodular_rejects_a_non_unimodular_basis():
    with pytest.raises(ToricError):
        linalg.solve_unimodular([(2, 0), (0, 1)], (1, 0))


def test_dual_cone_face_outside_an_incomplete_fan():
    # a one-vertex cone: its fan, the positive quadrant, misses (-1, -1)
    cone = DelzantPolytope(
        n=2, facets=(Facet((1, 0), 0), Facet((0, 1), 0)),
        vertices=(((F(0), F(0)), frozenset({0, 1})),), faces={})
    with pytest.raises(ToricError):
        dual_cone_face(cone, (-1, -1))
