import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricqh
from toricqh import examples
from toricqh import linalg
from toricqh.errors import (
    InexactNumber,
    NonIntegralCoefficient,
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
    beta_class,
    centroid,
    dual_cone_face,
    normalize,
    primitive_sets,
    _build_faces,
    _pivot_walk,
    _start_vertex,
    validate_delzant,
)

F = Fraction


def faces_of_dim(poly, d):
    return [f for f in poly.faces.values() if f.dim == d]


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
    assert len(faces_of_dim(poly, 1)) == 4
    assert len(faces_of_dim(poly, 0)) == 4
    assert frozenset({0, 1}) not in poly.faces
    assert frozenset({2, 3}) not in poly.faces


def test_face_lattice_cp2():
    poly = examples.cp2()
    assert len(faces_of_dim(poly, 1)) == 3
    assert len(faces_of_dim(poly, 0)) == 3


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
            assert abs(det(m)) == 1


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


@settings(max_examples=150, deadline=None)
@given(data=facet_data())
def test_the_walk_meets_a_ray_iff_the_region_is_unbounded(data):
    """validate_delzant seeks an edge with no second vertex only after the
    walk met a ray, so the walk must meet one on every unbounded region
    that has a vertex."""
    n, specs = data
    scale = lcm(*(support.denominator for _, support in specs))
    walk = _pivot_walk([normal for normal, _ in specs],
                       [support.numerator * (scale // support.denominator)
                        for _, support in specs], n)
    if walk is not None:
        assert walk[2] == (_recession_direction(specs, n) is not None)


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


def solve_unimodular(cols, target):
    """The former `linalg.solve_unimodular`, kept as the reference.

    Solve sum_j a_j * cols[j] = target for an integer square system.

    `cols` is a list of n integer n-vectors with |det| = 1; the solution is
    integral.  Returns a tuple of ints.
    """
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    sol = linalg.solve_rational(m, target)
    if any(x.denominator != 1 for x in sol):
        raise NotSmooth(f"the columns {cols} are not a unimodular basis: "
                        f"{target} has coordinates {sol}")
    return tuple(int(x) for x in sol)


def _solved(poly, vid, xi):
    return dict(zip(sorted(poly.vertex_facets(vid)), solve_unimodular(
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

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def det(m):
    """Exact determinant by fraction-free expansion (small n)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def kernel_basis_int(m):
    """Basis of the integer kernel lattice {x : m x = 0} of an int matrix.

    Column-style Hermite reduction: apply unimodular column operations to
    [m; I] until the top block has pivot columns followed by zero columns;
    the bottom parts of the zero columns form a lattice basis of the kernel.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    work = [list(r) for r in m] + [[1 if i == j else 0 for j in range(cols)]
                                   for i in range(cols)]
    top = rows

    def col(j):
        return [work[i][j] for i in range(len(work))]

    def swap(j, k):
        for i in range(len(work)):
            work[i][j], work[i][k] = work[i][k], work[i][j]

    def addmul(j, k, c):
        # col_j += c * col_k
        for i in range(len(work)):
            work[i][j] += c * work[i][k]

    pivot_row = 0
    pivot_col = 0
    while pivot_row < top and pivot_col < cols:
        # gcd-reduce entries of this row across columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if work[pivot_row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(work[pivot_row][j]))
            swap(pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, cols):
                if work[pivot_row][j] != 0:
                    q = work[pivot_row][j] // work[pivot_row][pivot_col]
                    addmul(j, pivot_col, -q)
                    if work[pivot_row][j] != 0:
                        done = False
            if done:
                break
        if any(work[pivot_row][j] != 0 for j in range(pivot_col, cols)):
            pivot_col += 1
        pivot_row += 1

    basis = []
    for j in range(pivot_col, cols):
        if all(work[i][j] == 0 for i in range(top)):
            basis.append(tuple(work[i][j] for i in range(top, top + cols)))
    return basis


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
        if det(m) == 0:
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
                kernel = kernel_basis_int(
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
    if linalg.rank([list(vec_sub(p, base))
                    for p, _ in vlist[1:]]) < n:
        raise NotFullDimensional("vertices span a proper affine subspace")
    for point, active in vlist:
        if len(active) > n:
            raise NotSimple(f"vertex ({', '.join(map(str, point))}) lies on "
                            f"{len(active)} facets {sorted(active)}")
        d = abs(det([normals[i] for i in sorted(active)]))
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


@st.composite
def smooth_polytopes(draw):
    """Facet data of a Delzant polytope: a box or a simplex with rational
    supports, blown up at up to two faces, moved by a unimodular map,
    translated and shuffled.

    A face F_I of the n facets at a vertex is blown up by the facet
    <sum_I eta_i, .> <= sum_I support_i - eps, with eps below the drop of
    that functional from F_I to every other vertex, so that the cut meets
    only the edges leaving F_I."""
    n = draw(st.sampled_from((2, 3, 4, 1)))
    rational = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    size = st.builds(F, st.integers(1, 6), st.integers(1, 4))
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    low = [draw(rational) for _ in range(n)]
    if draw(st.booleans()):  # the box low <= x <= low + size
        specs = [spec for i, e in enumerate(units) for spec in (
            (e, low[i] + draw(size)), (tuple(-x for x in e), -low[i]))]
    else:  # the simplex low <= x, sum(x) <= sum(low) + size
        specs = [(tuple(-x for x in e), -c) for e, c in zip(units, low)]
        specs.append(((1,) * n, sum(low) + draw(size)))
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        poly = validate_delzant(specs)
        vid = draw(st.integers(0, len(poly.vertices) - 1))
        face = draw(st.lists(st.sampled_from(sorted(poly.vertex_facets(vid))),
                             min_size=2, max_size=n, unique=True))
        normal = tuple(map(sum, zip(*(poly.normal(i) for i in face))))
        top = sum(poly.support(i) for i in face)
        drop = min(top - linalg.vec_dot(normal, point)
                   for point, active in poly.vertices
                   if not active.issuperset(face))
        specs.append((normal, top - drop * F(draw(st.integers(1, 4)), 5)))
    for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        specs = [(tuple(x + c * normal[j] if k == i else x
                        for k, x in enumerate(normal)), s)
                 for normal, s in specs]  # eta -> (I + c E_ij) eta
    shift = [draw(rational) for _ in range(n)]
    specs = [(normal, s + linalg.vec_dot(normal, shift))
             for normal, s in specs]
    return draw(st.permutations(specs))


@settings(max_examples=150, deadline=None)
@given(specs=smooth_polytopes())
def test_the_pivot_walk_matches_fraction_solves_on_delzant_polytopes(specs):
    poly = validate_delzant(specs)
    assert (poly.vertices, poly.faces) == _reference_validate(specs)


@settings(max_examples=100, deadline=None)
@given(specs=smooth_polytopes())
def test_the_walk_fills_every_vertex_dual_basis(specs):
    """validate_delzant leaves every vertex's dual basis in the memo, the
    rows `unimodular_dual` solves for, by increasing facet index."""
    poly = validate_delzant(specs)
    assert sorted(poly._duals) == list(range(len(poly.vertices)))
    for vid in range(len(poly.vertices)):
        assert poly.dual_basis(vid) == tuple(zip(
            sorted(poly.vertex_facets(vid)),
            linalg.unimodular_dual(poly.vertex_normal_columns(vid))))
        assert all(type(x) is int for _, row in poly.dual_basis(vid)
                   for x in row)


def test_a_replaced_polytope_solves_its_dual_bases_again(monkeypatch):
    poly = validate_delzant(GON12)
    copy = dataclasses.replace(poly)
    solved = []
    dual = linalg.unimodular_dual
    monkeypatch.setattr(linalg, "unimodular_dual",
                        lambda cols: solved.append(cols) or dual(cols))
    assert [copy.dual_basis(vid) for vid in range(len(copy.vertices))] == \
        [poly.dual_basis(vid) for vid in range(len(poly.vertices))]
    assert len(solved) == len(poly.vertices) == 12


def cone(n):
    """The cone |y_j| <= t in n dimensions: its apex, its one vertex, lies
    on 2n - 2 facets, and each edge there runs to infinity."""
    return [(tuple(s * int(i == j) for i in range(n - 1)) + (-1,), 0)
            for j in range(n - 1) for s in (1, -1)]


@pytest.mark.parametrize("specs, error, feasible", [
    # the first basis, facets 0 and 1, is feasible at (1, -1) with det -2
    ([((2, 1), 1), ((0, -1), 1), ((-1, 0), 1)], NotSmooth, True),
    # the unit square and x + y >= 0 through its first vertex, (0, 0)
    ([((-1, 0), 0), ((0, -1), 0), ((-1, -1), 0), ((1, 0), 1), ((0, 1), 1)],
     NotSimple, True),
    # 1 <= x <= 0
    ([((1,), 0), ((-1,), -1)], Unbounded, False),
    # the rest start at a smooth simple vertex with two bounded edges
    # the unit square with x + y <= 2 through its corner (1, 1): the edge
    # up from (1, 0) meets y <= 1 and x + y <= 2 at once
    ([((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1), ((1, 1), 2)],
     NotSimple, True),
    # [0, 4] x [0, 2] cut by x + 2y <= 6: the edge up from (4, 0) ends on
    # that facet at the rate 2, at the vertex (4, 1) with |det| = 2
    ([((-1, 0), 0), ((0, -1), 0), ((1, 0), 4), ((0, 1), 2), ((1, 2), 6)],
     NotSmooth, True),
    # x + y >= 2, y >= 0, x >= 0, x - y <= 3: both edges of the first
    # vertex, (2, 0), end; one of each neighbour does not
    ([((-1, -1), -2), ((0, -1), 0), ((-1, 0), 0), ((1, -1), 3)],
     Unbounded, True),
    # the unit square with x <= 5, which no vertex lies on: a clean walk
    ([((-1, 0), 0), ((0, -1), 0), ((1, 0), 1), ((0, 1), 1), ((1, 0), 5)],
     RedundantFacet, True),
    # every edge search reads `kernel_line`, one per 3-, 5- or 7-subset of
    # the apex's facets until an edge has no second vertex
    (cone(4), Unbounded, True),
    (cone(6), Unbounded, True),
    (cone(8), Unbounded, True),
], ids=["non-unimodular start", "start on n + 1 facets", "empty",
        "ratio tie", "pivot of 2", "unbounded edge", "untouched facet",
        "cone 4", "cone 6", "cone 8"])
def test_a_defect_is_diagnosed_as_before(specs, error, feasible):
    """The walk starts wherever some basis is feasible and goes on through
    every defect, which leaves it not clean; the error and its message are
    those of the enumeration over every n-subset."""
    n = len(specs[0][0])
    normals, bounds = [normal for normal, _ in specs], [b for _, b in specs]
    assert (_start_vertex(normals, bounds, n) is not None) == feasible
    walk = _pivot_walk(normals, bounds, n)
    assert (walk is not None and walk[1]) == (error is RedundantFacet)
    got = _outcome(validate_delzant, specs)
    assert got[0] is error
    assert got == _outcome(_reference_validate, specs)


@st.composite
def planted_defects(draw):
    """Facet data of a `smooth_polytopes` draw with one more facet: a
    primitive normal through a drawn vertex, or at a drawn level between
    the least and the greatest value of that normal on the vertices."""
    specs = draw(smooth_polytopes())
    poly = validate_delzant(specs)
    normal = draw(st.tuples(*[st.integers(-2, 2)] * poly.n).filter(
        lambda v: gcd(*v) == 1))
    values = [linalg.vec_dot(normal, point) for point, _ in poly.vertices]
    if draw(st.booleans()):
        level = draw(st.sampled_from(values))
    else:
        level = min(values) + (max(values) - min(values)) * F(
            draw(st.integers(0, 8)), 8)
    at = draw(st.integers(0, len(specs)))
    return specs[:at] + [(normal, level)] + specs[at:]


@settings(max_examples=200, deadline=None)
@given(specs=planted_defects())
def test_a_planted_defect_is_named_as_the_enumeration_names_it(specs):
    assert _outcome(validate_delzant, specs) == \
        _outcome(_reference_validate, specs)


def test_a_box_with_a_facet_through_its_top_is_rejected_without_search(
        monkeypatch):
    """The unit 8-cube and sum(x) <= 8: its top vertex lies on 9 facets.
    The walk starts there after one solve; the former enumeration made one
    per 8-subset of the 17 facets, C(17, 8) = 24,310 of them."""
    specs = [spec for i in range(8) for spec in (
        (tuple(int(j == i) for j in range(8)), 1),
        (tuple(-int(j == i) for j in range(8)), 0))] + [((1,) * 8, 8)]
    solves = []
    solve = linalg.adjugate_times
    monkeypatch.setattr(linalg, "adjugate_times",
                        lambda m, rhs: solves.append(m) or solve(m, rhs))
    with pytest.raises(NotSimple, match=r"lies on 9 facets"):
        validate_delzant(specs)
    assert len(solves) < 100


def test_an_apex_on_many_facets_keeps_no_rows_past_the_defect():
    """The pyramid |y_j| <= t <= 1 over the 5-cube: its apex lies on 10
    facets, and every basis there is degenerate.  The walk meets each basis
    once, keeps the dual rows of none of them, and the apex is named as the
    enumeration names it."""
    n = 6
    specs = [(tuple(s * int(i == j) for i in range(n - 1)) + (-1,), 0)
             for j in range(n - 1) for s in (1, -1)]
    specs.append(((0,) * (n - 1) + (1,), 1))
    normals, bounds = [normal for normal, _ in specs], [b for _, b in specs]
    bases, clean, _ = _pivot_walk(normals, bounds, n)
    assert not clean
    apex = [rows for _, rows, _, active in bases if len(active) > n]
    assert apex and all(rows is None for rows in apex)
    assert len(bases) - len(apex) == 2 ** (n - 1)  # one per top vertex
    assert len(apex) <= comb(2 * n - 2, n)
    got = _outcome(validate_delzant, specs)
    assert got[0] is NotSimple and "lies on 10 facets" in got[1]
    assert got == _outcome(_reference_validate, specs)


def test_a_bounded_rejection_searches_no_edge(monkeypatch):
    """The pyramid |y_j| <= t <= 1 over the 9-cube: its apex lies on 18
    facets.  The walk meets no ray, so no edge is searched for a second
    vertex, a search that reads one `kernel_line` per 9-subset of the facets
    at the apex."""
    n = 10
    specs = [(tuple(s * int(i == j) for i in range(n - 1)) + (-1,), 0)
             for j in range(n - 1) for s in (1, -1)]
    specs.append(((0,) * (n - 1) + (1,), 1))
    reductions = []
    line = linalg.kernel_line
    monkeypatch.setattr(linalg, "kernel_line",
                        lambda rows: reductions.append(rows) or line(rows))
    with pytest.raises(NotSimple, match=r"lies on 18 facets"):
        validate_delzant(specs)
    assert reductions == []


@st.composite
def kernel_rows(draw):
    """n - 1 integer n-vectors, n = 1..6, entries in [-3, 3], some rows
    planted as combinations of the others."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-3, 3)
    rows = []
    for _ in range(n - 1):
        if rows and draw(st.booleans()):
            coeffs = [draw(entries) for _ in rows]
            rows.append([sum(c * row[k] for c, row in zip(coeffs, rows))
                         for k in range(n)])
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return draw(st.permutations(rows))


@settings(max_examples=400, deadline=None)
@given(rows=kernel_rows())
def test_kernel_line_spans_the_hermite_kernel(rows):
    """kernel_line is None iff the Hermite reduction finds a kernel of rank
    other than 1, and otherwise a nonzero multiple of its one vector."""
    # the reduction reads the width off the rows, so n = 1 is the line Z
    basis = kernel_basis_int(rows) if rows else [(1,)]
    line = linalg.kernel_line(rows)
    if len(basis) != 1:
        assert line is None
        return
    (b,) = basis
    assert line is not None and any(line)
    k = next(i for i, x in enumerate(b) if x)
    assert [x * b[k] for x in line] == [line[k] * x for x in b]


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
    assert d == det(m)
    if d == 0:
        assert product is None
    else:  # m * (adj(m) * rhs) = det(m) * rhs
        assert [[linalg.vec_dot(row, col) for col in zip(*product)]
                for row in m] == [[d * x for x in row] for row in rhs]


# ------------------------------------ typed errors on inconsistent data

def test_a_vertex_off_n_facets_is_not_simple_when_faces_are_built():
    with pytest.raises(NotSimple):
        _build_faces(2, [((F(0), F(0)), frozenset({0, 1, 2}))])


def test_a_triangulation_of_volume_zero_is_not_full_dimensional():
    # cp2's face lattice on three collinear points
    points = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    vertices = tuple((point, active) for point, (_, active)
                     in zip(points, examples.cp2().vertices))
    poly = DelzantPolytope(n=2, facets=examples.cp2().facets,
                           vertices=vertices, faces=_build_faces(2, vertices))
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
        "vertices = tuple((p, a) for p, (_, a) in zip(points, cp2.vertices))\n"
        "poly = DelzantPolytope(n=2, facets=cp2.facets, vertices=vertices,\n"
        "                       faces=_build_faces(2, vertices))\n"
        "try:\n"
        "    centroid(poly)\n"
        "except NotFullDimensional:\n"
        "    print('volume')\n"
        "try:\n"
        "    _build_faces(2, ((points[0], frozenset({0, 1, 2})),))\n"
        "except NotSimple:\n"
        "    print('simple')\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "volume\nsimple\n"


# ------------------------------------------------- exact facet data only

CP2_SPECS = [((1, 0), 1), ((0, 1), 1), ((-1, -1), 1)]


def test_an_inexact_support_is_an_error():
    with pytest.raises(InexactNumber):
        validate_delzant([((1, 0), 0.1)] + CP2_SPECS[1:])


def test_a_normal_entry_that_is_no_int_is_not_truncated():
    # int() made these (1, 0) and (-1, -1): cp2, with no error
    with pytest.raises(NonIntegralCoefficient):
        validate_delzant([((1.7, 0), 1), ((0, 1), 1), ((-1.2, -1), 1)])


def test_a_bool_normal_entry_is_no_int():
    with pytest.raises(NonIntegralCoefficient):
        validate_delzant([((True, 0), 1)] + CP2_SPECS[1:])


def test_a_facet_with_a_float_normal_is_a_typed_error():
    with pytest.raises(NonIntegralCoefficient):
        Facet((1.5, 0), 1)


# ------------------------------------- centroid laws owed to no method

RATIONAL = st.builds(F, st.integers(-9, 9), st.integers(1, 5))


@settings(max_examples=100, deadline=None)
@given(specs=smooth_polytopes(), data=st.data())
def test_the_centroid_of_a_translate_is_the_translated_centroid(specs, data):
    poly = validate_delzant(specs)
    t = [data.draw(RATIONAL) for _ in range(poly.n)]
    moved = validate_delzant([(f.normal, f.support + linalg.vec_dot(
        f.normal, t)) for f in poly.facets])
    assert centroid(moved) == tuple(c + x for c, x in zip(centroid(poly), t))


@st.composite
def unimodular(draw, n):
    """(g, g^-1) for g in GL(n, Z): shears g -> (I + c E_ij) g, then sign
    flips of rows; g^-1 takes the inverse column operations."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    inv = [row[:] for row in g]
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        g[i] = [a + c * b for a, b in zip(g[i], g[j])]
        for row in inv:
            row[j] -= c * row[i]
    for i in range(n):
        if draw(st.booleans()):
            g[i] = [-a for a in g[i]]
            for row in inv:
                row[i] = -row[i]
    return g, inv


@settings(max_examples=100, deadline=None)
@given(specs=smooth_polytopes(), data=st.data())
def test_the_centroid_of_an_image_under_gl_n_z_is_the_image(specs, data):
    """gP has the facets (g^-T eta, s), as <g^-T eta, g u> = <eta, u>."""
    poly = validate_delzant(specs)
    g, inv = data.draw(unimodular(poly.n))
    image = validate_delzant([(tuple(linalg.vec_dot(col, f.normal)
                                     for col in zip(*inv)), f.support)
                              for f in poly.facets])
    assert centroid(image) == tuple(linalg.vec_dot(row, centroid(poly))
                                    for row in g)


@pytest.mark.parametrize("n", range(5, 10))
def test_the_centroid_of_a_box_is_its_center(n):
    low = [F(i + 1, 3) for i in range(n)]  # the box prod [-a_i, b_i]
    high = [F(2 * i + 1, 5) for i in range(n)]
    units = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    box = validate_delzant([spec for e, a, b in zip(units, low, high)
                            for spec in ((e, b), (tuple(-x for x in e), a))])
    assert centroid(box) == tuple((b - a) / 2 for a, b in zip(low, high))
