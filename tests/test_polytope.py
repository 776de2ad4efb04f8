import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricqh
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
    Face,
    Facet,
    H2Class,
    beta_class,
    centroid,
    dual_cone_face,
    h2_lattice,
    normalize,
    primitive_sets,
    _build_faces,
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


# ------------------------------------------------------- vertex dual bases

# a smooth 12-gon: the square with its four corners blown up twice each
GON12 = [(ray, F(s)) for ray, s in zip(
    ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0), (-2, -1),
     (-1, -1), (-1, -2), (0, -1), (1, -1)),
    ("3", "13/2", "4", "13/2", "3", "5", "3", "13/2", "4", "13/2", "3", "5"))]


def _dual_basis_corpus():
    """Name -> (polytope, box radius): the bundled examples, cp3, cube3,
    cp4, cube4 and the 12-gon."""
    from test_obstructions import box, simplex
    corpus = {name: (examples.build(name), 2) for name in examples.BUILDERS}
    corpus.update(cp3=(simplex(3), 2), cube3=(box(3), 2), cp4=(simplex(4), 1),
                  cube4=(box(4), 1), gon12=(validate_delzant(GON12), 2))
    return corpus


DUAL_BASIS_CORPUS = _dual_basis_corpus()


def _solved(poly, vid, xi):
    return dict(zip(sorted(poly.vertex_facets(vid)), linalg.solve_unimodular(
        poly.vertex_normal_columns(vid), xi)))


@pytest.mark.parametrize("name", sorted(DUAL_BASIS_CORPUS))
def test_dual_basis_coordinates_match_solve_unimodular_on_a_box(name):
    poly, radius = DUAL_BASIS_CORPUS[name]
    for xi in itertools.product(range(-radius, radius + 1), repeat=poly.n):
        for vid in range(len(poly.vertices)):
            assert poly.coordinates(vid, xi) == _solved(poly, vid, xi), \
                (name, vid, xi)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dual_basis_coordinates_match_solve_unimodular(data):
    name = data.draw(st.sampled_from(sorted(DUAL_BASIS_CORPUS)))
    poly, _ = DUAL_BASIS_CORPUS[name]
    xi = data.draw(st.tuples(*[st.integers(-10 ** 6, 10 ** 6)] * poly.n))
    vid = data.draw(st.integers(0, len(poly.vertices) - 1))
    assert poly.coordinates(vid, xi) == _solved(poly, vid, xi)


def test_coordinates_make_no_rational_solve_once_the_dual_basis_exists(
        monkeypatch):
    poly = examples.blowup_cp2()
    for vid in range(len(poly.vertices)):
        poly.dual_basis(vid)

    def refuse(*args):
        raise AssertionError("a rational solve after the dual basis")

    monkeypatch.setattr(linalg, "solve_rational", refuse)
    for vid in range(len(poly.vertices)):
        for i, functional in poly.dual_basis(vid):
            assert poly.coordinates(vid, poly.normal(i)) == {
                j: int(j == i) for j in sorted(poly.vertex_facets(vid))}
            assert all(type(x) is int for x in functional)


def test_dual_basis_of_a_non_unimodular_vertex_is_not_smooth():
    # a hand-built cone whose vertex normals (2, 1), (0, 1) have det 2
    cone = DelzantPolytope(
        n=2, facets=(Facet((2, 1), 0), Facet((0, 1), 0)),
        vertices=(((F(0), F(0)), frozenset({0, 1})),), faces={})
    with pytest.raises(NotSmooth):
        cone.coordinates(0, (1, 0))


@pytest.mark.parametrize("name", sorted(DUAL_BASIS_CORPUS))
def test_primitive_sets_equal_an_uncapped_enumeration(name):
    """Capping the search at n + 1 facets loses no primitive collection:
    the minimal non-faces over every size up to N are the same sets."""
    poly, _ = DUAL_BASIS_CORPUS[name]
    uncapped = [sub for size in range(2, poly.num_facets + 1)
                for sub in itertools.combinations(range(poly.num_facets), size)
                if frozenset(sub) not in poly.faces
                and all(frozenset(s) in poly.faces
                        for s in itertools.combinations(sub, size - 1))]
    assert [p.indices for p in primitive_sets(poly)] == uncapped


# ------------------------------------------- integer vertex enumeration

def _reference_validate(specs):
    """validate_delzant with a Fraction solve per invertible n-subset, a
    Fraction feasibility test, a scan of all vertices for the second end
    of each edge, a rational rank for full dimension and a scan of all
    vertices per face.  Returns (vertices, faces) or raises as
    validate_delzant does."""
    facets = [Facet(tuple(normal), support) for normal, support in specs]
    n = len(facets[0].normal)
    normals = [f.normal for f in facets]
    points = {}
    for subset in itertools.combinations(range(len(facets)), n):
        m = [list(normals[i]) for i in subset]
        if linalg.det(m) == 0:
            continue
        point = linalg.solve_rational(m, [facets[i].support for i in subset])
        if any(linalg.vec_dot(f.normal, point) > f.support for f in facets):
            continue
        points[point] = frozenset(
            i for i, f in enumerate(facets)
            if linalg.vec_dot(f.normal, point) == f.support)
    if not points:
        raise Unbounded("no vertices; the region is empty or unbounded")
    vlist = sorted(points.items())
    for vid, (point, active) in enumerate(vlist):
        for sub in itertools.combinations(sorted(active), n - 1):
            if len(active) > n:
                kernel = linalg.kernel_basis_int(
                    [normals[i] for i in sub]) if sub else [(1,)]
                if len(kernel) != 1:
                    continue
                dots = [linalg.vec_dot(normals[i], kernel[0])
                        for i in active]
                if min(dots) < 0 < max(dots):
                    continue
            if not any(other != vid and active_other.issuperset(sub)
                       for other, (_, active_other) in enumerate(vlist)):
                raise Unbounded(
                    f"the edge of vertex ({', '.join(map(str, point))}) "
                    f"along facets {list(sub)} has no second vertex")
    base = vlist[0][0]
    if linalg.rank([list(linalg.vec_sub(p, base))
                    for p, _ in vlist[1:]]) < n:
        raise NotFullDimensional("vertices span a proper affine subspace")
    for point, active in vlist:
        if len(active) > n:
            raise NotSimple(f"vertex ({', '.join(map(str, point))}) lies on "
                            f"{len(active)} facets {sorted(active)}")
        d = abs(linalg.det([normals[i] for i in sorted(active)]))
        if d != 1:
            raise NotSmooth(
                f"vertex ({', '.join(map(str, point))}) on facets "
                f"{sorted(active)} has |det| = {d}")
    missing = set(range(len(facets))) - set().union(*(a for _, a in vlist))
    if missing:
        raise RedundantFacet(
            f"facets {sorted(missing)} support no vertex of the region")
    keys = {frozenset(sub) for _, active in vlist
            for size in range(n + 1)
            for sub in itertools.combinations(sorted(active), size)}
    faces = {key: Face(facets=key, dim=n - len(key), vertex_ids=tuple(
        vid for vid, (_, active) in enumerate(vlist) if key <= active))
        for key in keys}
    return tuple(vlist), faces


def _outcome(validate, specs):
    """(vertices, faces) of a valid polytope, else (error class, message)."""
    try:
        result = validate(specs)
    except ToricError as exc:
        return type(exc), str(exc)
    if isinstance(result, DelzantPolytope):
        return result.vertices, result.faces
    return result


@settings(max_examples=400, deadline=None)
@given(data=facet_data())
def test_integer_enumeration_matches_fraction_solves(data):
    _, specs = data
    assert _outcome(validate_delzant, specs) == \
        _outcome(_reference_validate, specs)


@pytest.mark.parametrize("name", sorted(DUAL_BASIS_CORPUS))
def test_integer_enumeration_matches_fraction_solves_on_the_corpus(name):
    poly, _ = DUAL_BASIS_CORPUS[name]
    shift = (F(1, 2), F(1, 3), F(1, 5), F(1, 7))[:poly.n]
    for specs in ([(f.normal, f.support) for f in poly.facets],
                  [(f.normal, f.support + linalg.vec_dot(f.normal, shift))
                   for f in poly.facets]):
        ours = validate_delzant(specs)
        assert (ours.vertices, ours.faces) == _reference_validate(specs)
    assert any(x != 0 for x in centroid(ours))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_adjugate_times_is_det_times_the_inverse(data):
    n = data.draw(st.integers(1, 5))
    k = data.draw(st.integers(0, 3))
    entries = st.integers(-4, 4)
    m = [data.draw(st.lists(entries, min_size=n, max_size=n))
         for _ in range(n)]
    rhs = [data.draw(st.lists(entries, min_size=k, max_size=k))
           for _ in range(n)]
    d, product = linalg.adjugate_times(m, rhs)
    assert d == linalg.det(m)
    if d == 0:
        assert product is None
    else:  # m * (adj(m) * rhs) = det(m) * rhs
        assert [[linalg.vec_dot(row, col) for col in zip(*product)]
                for row in m] == [[d * x for x in row] for row in rhs]


# ------------------------------------ typed errors on inconsistent data

def _on_cp2_facets(vertices):
    """A hand-built polytope: cp2's facets with the given vertex list."""
    return DelzantPolytope(n=2, facets=examples.cp2().facets,
                           vertices=tuple(vertices), faces={})


def test_a_vertex_off_n_facets_is_not_simple_when_faces_are_built():
    poly = _on_cp2_facets([((F(0), F(0)), frozenset({0, 1, 2}))])
    with pytest.raises(NotSimple):
        _build_faces(poly)


def test_a_triangulation_of_volume_zero_is_not_full_dimensional():
    # cp2's face lattice on three collinear points
    points = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    poly = _on_cp2_facets(
        (point, active) for point, (_, active)
        in zip(points, examples.cp2().vertices))
    poly.faces = _build_faces(poly)
    with pytest.raises(NotFullDimensional):
        centroid(poly)


def test_the_polytope_checks_still_fire_under_python_O():
    code = (
        "from fractions import Fraction as F\n"
        "from toricqh import examples\n"
        "from toricqh.errors import NotFullDimensional, NotSimple\n"
        "from toricqh.polytope import DelzantPolytope, _build_faces, "
        "centroid\n"
        "assert False, 'asserts are on'\n"
        "cp2 = examples.cp2()\n"
        "points = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]\n"
        "poly = DelzantPolytope(n=2, facets=cp2.facets, vertices=tuple(\n"
        "    (p, a) for p, (_, a) in zip(points, cp2.vertices)), faces={})\n"
        "poly.faces = _build_faces(poly)\n"
        "try:\n"
        "    centroid(poly)\n"
        "except NotFullDimensional:\n"
        "    print('volume')\n"
        "poly.vertices = ((points[0], frozenset({0, 1, 2})),)\n"
        "try:\n"
        "    _build_faces(poly)\n"
        "except NotSimple:\n"
        "    print('simple')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "volume\nsimple\n"
