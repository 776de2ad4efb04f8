import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import toricqh
from cases import GON12, box, simplex
from reference import det, former_eliminate
from toricqh import examples
from toricqh.cohomology import (
    betti_morse,
    build_ring,
    face_betti,
    generic_vector,
    restrict_to_face,
)
from toricqh.errors import (
    DegenerateRing,
    NonGenericVector,
    Unbounded,
    WrongDegree,
)
from toricqh.polynomials import poly_add, poly_mul, poly_scale, poly_sub
from toricqh.polytope import DelzantPolytope, Facet, _eliminate

F = Fraction


def mono(ring, **powers):
    """Kept-variable monomial from x1..xN names, e.g. mono(ring, x3=1, x4=2)."""
    full = [0] * ring.polytope.num_facets
    for name, e in powers.items():
        full[int(name[1:]) - 1] = e
    return ring.substitute({tuple(full): F(1)})


def full_var(ring, i, power=1):
    full = [0] * ring.polytope.num_facets
    full[i] = power
    return {tuple(full): F(1)}


@pytest.fixture(scope="module")
def blow():
    return build_ring(examples.blowup_cp2(F(1, 2)))


@pytest.fixture(scope="module")
def square():
    return build_ring(examples.s2xs2(F(2)))


@pytest.fixture(scope="module")
def cp2():
    return build_ring(examples.cp2())


def test_classical_generators_blowup():
    poly = examples.blowup_cp2(F(1, 2))
    linear, monomials = poly.elimination.linear_gens, poly.elimination.sr_gens
    # -x1 + x3 - x4 and -x2 + x3 - x4
    assert linear[0] == {(1, 0, 0, 0): F(-1), (0, 0, 1, 0): F(1),
                         (0, 0, 0, 1): F(-1)}
    assert linear[1] == {(0, 1, 0, 0): F(-1), (0, 0, 1, 0): F(1),
                         (0, 0, 0, 1): F(-1)}
    assert set(monomials) == {frozenset({0, 1}), frozenset({2, 3})}
    assert monomials[frozenset({0, 1})] == {(1, 1, 0, 0): F(1)}


def test_elimination_matches_expected_kept_variables(blow, square, cp2):
    assert blow.kept == (2, 3)
    assert square.kept == (0, 2)
    assert cp2.kept == (2,)
    hirz = build_ring(examples.hirzebruch2())
    assert hirz.kept == (0, 2)


def test_groebner_blowup_leading_terms_and_basis(blow):
    # grevlex x3 > x4 on kept variables
    lms = set(blow.basis.leading_monomials())
    assert lms == {(1, 1), (2, 0), (0, 3)}
    assert set(blow.standard_monomials) == {(0, 0), (1, 0), (0, 1), (0, 2)}


def test_standard_monomials_square_and_cp2(square, cp2):
    assert set(square.standard_monomials) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    assert set(cp2.standard_monomials) == {(0,), (1,), (2,)}


def test_betti(blow, square, cp2):
    assert blow.betti == (1, 2, 1)
    assert square.betti == (1, 2, 1)
    assert cp2.betti == (1, 1, 1)


def test_normal_form_traced_exactness(blow):
    # x1*x3 = (x3 - x4) x3 -> nf = -x4^2, and the traced combination is exact
    f = blow.substitute(poly_mul(full_var(blow, 0), full_var(blow, 2)))
    nf, trace = blow.nf_traced(f)
    assert nf == {(0, 2): F(-1)}
    gens = {k: blow.substitute(blow.sr_gens[k]) for k in blow.gen_keys}
    recon = {}
    for key, cof in trace.items():
        recon = poly_add(recon, poly_mul(cof, gens[key]))
    assert poly_sub(f, nf) == recon


def test_normal_form_of_sr_generator_is_zero(blow):
    f = blow.substitute(blow.sr_gens[frozenset({0, 1})])
    nf, trace = blow.nf_traced(f)
    assert nf == {}
    assert set(trace)  # uses at least one generator


def test_normal_form_idempotent(blow):
    f = blow.substitute(poly_mul(full_var(blow, 0), full_var(blow, 2)))
    nf = blow.nf(f)
    assert blow.nf(nf) == nf


def test_standard_monomial_reduces_to_itself(blow):
    for m in blow.standard_monomials:
        nf, trace = blow.nf_traced({m: F(1)})
        assert nf == {m: F(1)} and not trace


def test_integrate_blowup(blow):
    assert blow.integrate(mono(blow, x2=1, x3=1)) == 1
    assert blow.integrate(mono(blow, x4=2)) == -1
    assert blow.integrate(mono(blow, x3=2)) == 1
    with pytest.raises(WrongDegree):
        blow.integrate(mono(blow, x3=1))


def test_integrate_all_vertex_monomials(blow, square, cp2):
    for ring in (blow, square, cp2):
        poly = ring.polytope
        for vid in range(len(poly.vertices)):
            m = {tuple(1 if i in poly.vertex_facets(vid) else 0
                       for i in range(poly.num_facets)): F(1)}
            assert ring.integrate(ring.substitute(m)) == 1


def test_poincare_pairing_blowup(blow):
    x3 = mono(blow, x3=1)
    x4 = mono(blow, x4=1)
    assert blow.integrate(poly_mul(x3, x3)) == 1
    assert blow.integrate(poly_mul(x3, x4)) == 0
    assert blow.integrate(poly_mul(x4, x4)) == -1


def test_pd_matrices_nondegenerate(blow, square, cp2):
    for ring in (blow, square, cp2):
        n = ring.polytope.n
        for k in range(0, n + 1):
            m = ring.pd_matrix(2 * k)
            assert m and len(m) == len(m[0])
            assert det(m) != 0


def test_betti_morse_blowup():
    poly = examples.blowup_cp2(F(1, 2))
    assert betti_morse(poly, (1, 2)) == (1, 2, 1)


def test_betti_morse_square_and_cp2():
    assert betti_morse(examples.s2xs2(F(2)), (1, 3)) == (1, 2, 1)
    assert betti_morse(examples.cp2(), (2, 1)) == (1, 1, 1)


def test_betti_morse_rejects_non_generic():
    with pytest.raises(NonGenericVector):
        betti_morse(examples.s2xs2(F(2)), (1, 0))


def test_betti_equals_betti_morse_random_directions(blow, square, cp2):
    import random
    rng = random.Random(20240817)
    for ring in (blow, square, cp2):
        poly = ring.polytope
        found = 0
        while found < 10:
            xi = tuple(rng.randint(-9, 9) for _ in range(poly.n))
            if all(x == 0 for x in xi):
                continue
            try:
                counts = betti_morse(poly, xi)
            except NonGenericVector:
                continue
            assert counts == ring.betti
            found += 1


def test_generic_vector_is_generic(blow, square, cp2):
    for ring in (blow, square, cp2):
        xi = generic_vector(ring.polytope)
        betti_morse(ring.polytope, xi)  # must not raise


def test_restrict_square_factor_sphere(square):
    poly = square.polytope
    edge = poly.face(frozenset({0}))
    cls = restrict_to_face(square, full_var(square, 0), edge)
    assert cls == {}  # trivial normal bundle of a factor sphere


def test_restrict_blowup_exceptional_self_intersection(blow):
    poly = blow.polytope
    edge = poly.face(frozenset({3}))
    cls = restrict_to_face(blow, full_var(blow, 3), edge)
    assert blow.integrate(cls) == -1


def test_restrict_blowup_line_self_intersection(blow):
    poly = blow.polytope
    edge = poly.face(frozenset({2}))
    cls = restrict_to_face(blow, full_var(blow, 2), edge)
    assert blow.integrate(cls) == 1


def test_restrict_to_vertex(blow):
    poly = blow.polytope
    vert = poly.face(frozenset({0, 2}))
    # a|v is the constant term c of a, pushed forward as c * [v]
    cls = restrict_to_face(blow, full_var(blow, 0), vert)
    assert cls == {}
    cls = restrict_to_face(
        blow, poly_add(poly_scale(full_var(blow, 0), F(2)),
                       {(0,) * 4: F(5)}), vert)
    point = blow.reduce_full(poly_mul(full_var(blow, 0), full_var(blow, 2)))
    assert cls == poly_scale(point, 5) and blow.integrate(cls) == 5


def test_face_betti():
    poly = examples.s2xs2(F(2))
    xi = generic_vector(poly)
    edge = poly.face(frozenset({0}))
    assert face_betti(poly, edge, xi) == (1, 1)
    vert = poly.face(frozenset({0, 2}))
    assert face_betti(poly, vert, xi) == (1,)
    top = poly.face(frozenset())
    assert face_betti(poly, top, xi) == (1, 2, 1) == betti_morse(poly, xi)


def test_face_betti_perfection(blow, square):
    # sum over fixed components of shifted face betti equals global betti
    from toricqh.actions import fixed_components
    for ring, xi in ((blow, (-1, 0)), (square, (1, 0)), (square, (1, 1))):
        poly = ring.polytope
        comps = fixed_components(poly, xi)
        height = generic_vector(poly)
        total = [0] * (poly.n + 1)
        for comp in comps:
            fb = face_betti(poly, comp.face, height)
            shift = comp.index // 2
            for j, b in enumerate(fb):
                total[j + shift] += b
        assert tuple(total) == ring.betti


# ------------------------------------------------ restriction as a pushforward

def _restriction_corpus():
    """The bundled examples with proper faces of positive dimension (all
    but s2), cp3, cube3, cp4 and cube4."""
    polys = [examples.build(name) for name in sorted(examples.BUILDERS)]
    return [p for p in polys if p.n > 1] + [simplex(3), box(3), simplex(4),
                                            box(4)]


def _kept_to_full(ring, m):
    full = [0] * ring.polytope.num_facets
    for pos, e in enumerate(m):
        full[ring.kept[pos]] = e
    return {tuple(full): F(1)}


@pytest.mark.parametrize("poly", _restriction_corpus(),
                         ids=lambda p: p.name)
def test_restriction_ranks_are_the_face_betti_numbers(poly):
    """The classes m|F, m running over the standard monomials of degree k,
    span H^{2k}(F): as pushforwards m * x_F their rank is face_betti[k]."""
    from toricqh.linalg import rank
    ring = build_ring(poly)
    n = poly.n
    positions = {m: k for k, m in enumerate(ring.standard_monomials)}
    faces = [f for f in poly.faces.values() if 0 < f.dim < n]
    assert faces
    height = generic_vector(poly)
    for face in faces:
        betti = face_betti(poly, face, height)
        for k in range(n + 1):
            rows = []
            for m in ring.standard_monomials:
                if sum(m) != k:
                    continue
                cls = restrict_to_face(ring, _kept_to_full(ring, m), face)
                row = [F(0)] * len(positions)
                for mono_, c in cls.items():
                    row[positions[mono_]] = c
                rows.append(row)
            expected = betti[k] if k <= face.dim else 0
            assert (rank(rows) if rows else 0) == expected, \
                (poly.name, sorted(face.facets), k)


def _self_intersection_corpus():
    from toricqh.polytope import validate_delzant
    polys = [examples.build(name) for name in sorted(examples.BUILDERS)]
    return [p for p in polys if p.n == 2] + [validate_delzant(GON12,
                                                              name="gon12")]


@pytest.mark.parametrize("poly", _self_intersection_corpus(),
                         ids=lambda p: p.name)
def test_restricted_facet_class_integrates_to_the_self_intersection(poly):
    """A toric curve D_i with neighbours D_j, D_l, where eta_j + eta_l =
    a_i eta_i, has self-intersection -a_i."""
    ring = build_ring(poly)
    for i in range(poly.num_facets):
        j, l = sorted(next(iter(poly.vertex_facets(v) - {i}))
                      for v in poly.face(frozenset({i})).vertex_ids)
        total = tuple(a + b for a, b in zip(poly.normal(j), poly.normal(l)))
        a_i = next(t // e for t, e in zip(total, poly.normal(i)) if e)
        assert total == tuple(a_i * e for e in poly.normal(i))
        cls = restrict_to_face(ring, full_var(ring, i),
                               poly.face(frozenset({i})))
        assert ring.integrate(cls) == -a_i, (poly.name, i)


# hand-built objects that break a condition build_ring relies on

def test_normals_that_do_not_span_are_a_typed_error():
    strip = DelzantPolytope(n=2, facets=(Facet((1, 0), 1), Facet((-1, 0), 1)),
                            vertices=(), faces={})
    with pytest.raises(Unbounded):
        _eliminate(strip)


def test_betti_numbers_off_the_vertex_count_are_a_typed_error():
    cp2 = examples.cp2()
    extra = DelzantPolytope(n=2, facets=cp2.facets,
                            vertices=cp2.vertices + cp2.vertices[:1],
                            faces=cp2.faces)
    with pytest.raises(DegenerateRing):
        build_ring(extra)


def test_the_ring_checks_still_fire_under_python_O():
    code = (
        "from dataclasses import replace\n"
        "from toricqh import examples\n"
        "from toricqh.cohomology import build_ring\n"
        "from toricqh.errors import DegenerateRing, NotAUnit, Unbounded\n"
        "from toricqh.novikov import NovScalar\n"
        "from toricqh.polytope import DelzantPolytope, Facet, _eliminate\n"
        "from toricqh.quantum import QClass, fano_presentation\n"
        "from toricqh.seidel import build_dictionary, to_homology_report\n"
        "assert False, 'asserts are on'\n"
        "def check(name, error, fn):\n"
        "    try:\n"
        "        fn()\n"
        "    except error:\n"
        "        print(name)\n"
        "strip = DelzantPolytope(n=2, facets=(Facet((1, 0), 1),\n"
        "                        Facet((-1, 0), 1)), vertices=(), faces={})\n"
        "check('span', Unbounded, lambda: _eliminate(strip))\n"
        "cp2 = examples.cp2()\n"
        "extra = DelzantPolytope(n=2, facets=cp2.facets, faces=cp2.faces,\n"
        "                        vertices=cp2.vertices + cp2.vertices[:1])\n"
        "check('betti', DegenerateRing, lambda: build_ring(extra))\n"
        "qp = fano_presentation(examples.s2xs2())\n"
        "qp = replace(qp, ring=replace(qp.ring, standard_monomials=(\n"
        "    qp.ring.standard_monomials + ((2, 0),))))\n"
        "dictionary = build_dictionary(qp)\n"
        "point = QClass({(1, 1): NovScalar.one(qp.cutoff)}, qp.cutoff)\n"
        "check('report', DegenerateRing,\n"
        "      lambda: to_homology_report(dictionary, point, qp))\n"
        "check('invert', NotAUnit,\n"
        "      lambda: NovScalar.monomial(1, 0, -5, 1).invert())\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "span\nbetti\nreport\ninvert\n"


# ------------------------------------------ elimination in integers

class Normals:
    """The facet normals of a polytope, all that `_eliminate` reads."""

    def __init__(self, normals):
        self.normals = [tuple(v) for v in normals]
        self.num_facets, self.n = len(self.normals), len(self.normals[0])

    def normal(self, i):
        return self.normals[i]


def _elimination_corpus():
    """The ten corpus polytopes: the bundled examples, cp3, cube3, cp4,
    cube4 and gon12."""
    from toricqh.polytope import validate_delzant
    return _restriction_corpus() + [validate_delzant(GON12, name="gon12")]


ELIMINATION_CORPUS = _elimination_corpus()


def assert_eliminates_as_fractions(poly):
    kept, images = _eliminate(poly)
    assert (kept, images) == former_eliminate(poly)
    for image in images.values():
        for c in image.values():
            assert type(c) is (int if Fraction(c).denominator == 1
                               else Fraction), (images, c)


@pytest.mark.parametrize("poly", ELIMINATION_CORPUS, ids=lambda p: p.name)
def test_integer_elimination_equals_the_fraction_one(poly):
    assert_eliminates_as_fractions(poly)


def test_a_pivot_beyond_one_divides_into_fractions():
    # gon12's normals under g = ((-2, -5), (1, 3)): the first row has no
    # unit entry, so its pivot is the -2 of facet 1; the eliminated normals
    # (-2, 1) and (12, -7) have determinant 2, so not every image is integral
    gon12 = ELIMINATION_CORPUS[-1]
    g = ((-2, -5), (1, 3))
    normals = Normals([[sum(a * b for a, b in zip(row, f.normal))
                        for row in g] for f in gon12.facets])
    assert not {-1, 1} & {v[0] for v in normals.normals}
    assert_eliminates_as_fractions(normals)
    kept, images = _eliminate(normals)
    assert 0 not in kept
    assert any(type(c) is Fraction for image in images.values()
               for c in image.values())


def _unimodular(n, moves):
    """The product of the elementary moves (target row, source row, k): add
    k times the source row to the target row, or, when they are equal,
    negate the row."""
    g = [[int(i == j) for j in range(n)] for i in range(n)]
    for t, s, k in moves:
        t, s = t % n, s % n
        g[t] = [-x for x in g[t]] if t == s else \
            [a + k * b for a, b in zip(g[t], g[s])]
    return g


@given(st.sampled_from(ELIMINATION_CORPUS),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                          st.integers(-3, 3)), max_size=8))
@settings(max_examples=150, deadline=None)
def test_integer_elimination_equals_the_fraction_one_on_gl_images(poly,
                                                                  moves):
    g = _unimodular(poly.n, moves)
    normals = Normals([[sum(a * b for a, b in zip(row, f.normal))
                        for row in g] for f in poly.facets])
    assert_eliminates_as_fractions(normals)
