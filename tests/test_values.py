"""Every engine value is frozen.

No field of a `DelzantPolytope`, a `ClassicalRing`, a `QuantumPresentation`,
a `GeometricDictionary` or a `HomologyReport` can be assigned, nor an entry
of a presentation's corrections or Y-classes; every dataclass of the engine
is frozen.  A changed value comes from `dataclasses.replace`: the copy
starts with empty caches.  A replaced polytope or ring answers as the
original does.  A replaced presentation answers `quantum_nf`, `qprod` and
`facet_power` exactly as a presentation freshly built from the same fields
does, while the original keeps its answers.  A replaced dictionary derives
its decode data anew.
"""

import dataclasses
import importlib
import itertools
import inspect
import pkgutil
from fractions import Fraction
from types import MappingProxyType

import pytest

from test_facet_powers import class_outcome, hirzebruch2_nef, outcome
from test_kept_variables import CORPUS
from test_quantum_nf import monomial_class, typed
from test_warm_seidel import point_and_facet, reference_to_homology_report
import toricqh
from toricqh import examples
from toricqh.cohomology import build_ring
from toricqh.novikov import NovScalar
from toricqh.polynomials import mono_degree
from toricqh.polytope import edge_class
from toricqh.quantum import (
    QuantumPresentation,
    fano_presentation,
    qprod,
    qscale,
    quantum_nf,
)
from toricqh.seidel import (
    GeometricDictionary,
    build_dictionary,
    facet_power,
    to_homology_report,
)

F = Fraction

BUILDERS = {
    "blowup_cp2": lambda: fano_presentation(examples.blowup_cp2(F(1, 2))),
    "cp2": lambda: fano_presentation(examples.cp2()),
    "hirzebruch2 nef": lambda: hirzebruch2_nef(None),
}


def fresh(qp):
    """A presentation built from the init fields of `qp`."""
    return QuantumPresentation(**{f.name: getattr(qp, f.name)
                                  for f in dataclasses.fields(qp) if f.init})


def answers(qp):
    """quantum_nf and qprod of products of basis classes with Novikov
    factors, and every facet power of exponent -2, -1, 1 and 2, typed errors
    included."""
    std = qp.ring.standard_monomials
    classes = [monomial_class(qp, m, i) for i, m in enumerate(std)]
    out = []
    for a in classes:
        for b in classes:
            product = qprod(a, b, qp)
            out.append(typed(product))
            out.append(typed(quantum_nf(qscale(product, NovScalar.monomial(
                F(-2, 3), 1, F(1, 2), qp.cutoff)), qp)))
    for i in range(qp.polytope.num_facets):
        for a in (2, -1, 1, -2):
            out.append(outcome(lambda: class_outcome(facet_power(qp, i, a))))
    return out


def doubled(qp, key):
    """The corrections of `qp` with the one at `key` times 2."""
    return {**qp.corrections,
            key: {m: s.scale(2) for m, s in qp.corrections[key].items()}}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_presentation_cannot_be_assigned(name):
    qp = BUILDERS[name]()
    for f in dataclasses.fields(qp):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(qp, f.name, getattr(qp, f.name))
    tables = [qp.corrections] + ([qp.y_classes] if qp.mode == "nef" else [])
    for table in tables:
        key, qpoly = next(iter(table.items()))
        m, s = next(iter(qpoly.items()))
        with pytest.raises(TypeError):
            table[key] = {}
        with pytest.raises(TypeError):
            del table[key]
        with pytest.raises(TypeError):
            qpoly[m] = s
    assert (qp.y_classes is None) == (qp.mode == "fano")


@pytest.mark.parametrize("name", ["blowup_cp2", "hirzebruch2 nef"])
def test_a_dictionary_cannot_be_assigned(name):
    dictionary = build_dictionary(BUILDERS[name]())
    for f in dataclasses.fields(dictionary):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(dictionary, f.name, getattr(dictionary, f.name))


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_replaced_presentation_answers_as_a_fresh_one(name):
    qp = BUILDERS[name]()
    before = answers(qp)  # fills the caches of the original
    assert qp._cache and qp._nf_cache
    key = next(iter(qp.corrections))
    for change in ({"cutoff": qp.cutoff / 2},
                   {"corrections": doubled(qp, key)},
                   {"cutoff": qp.cutoff / 2, "corrections": doubled(qp, key)}):
        copy = dataclasses.replace(qp, **change)
        assert copy._cache == {} and copy._nf_cache == {}
        assert type(copy.corrections) is MappingProxyType
        got = answers(copy)
        assert got == answers(fresh(copy)), change
        assert got != before, change
        assert answers(qp) == before


def test_a_replaced_dictionary_derives_its_decode_data():
    qp = BUILDERS["blowup_cp2"]()
    dictionary = build_dictionary(qp)
    z = point_and_facet(qp, dictionary)
    first = to_homology_report(dictionary, z, qp)
    images = tuple({m: 3 * c for m, c in image.items()}
                   for image in dictionary.facet_images)
    for change in ({"point_lift": qscale(dictionary.point_lift,
                                         NovScalar.monomial(3, 0, 0,
                                                            qp.cutoff))},
                   {"facet_images": images}):
        copy = dataclasses.replace(dictionary, **change)
        rebuilt = GeometricDictionary(**{
            f.name: getattr(copy, f.name)
            for f in dataclasses.fields(copy) if f.init})
        got = to_homology_report(copy, z, qp)
        assert got == to_homology_report(rebuilt, z, qp)
        assert got == reference_to_homology_report(copy, z, qp)
        assert got != first
    assert to_homology_report(dictionary, z, qp) == first
    assert build_dictionary(qp) is dictionary


# ------------------------------------------- polytopes, rings and reports

CACHED = {"DelzantPolytope": ("scaled_vertices", "centroid", "primitive_sets",
                               "elimination", "morse", "_translate"),
          "ClassicalRing": ("localization", "vertex_shares")}


def assert_frozen(value):
    """No field of value, and no cached property, can be assigned."""
    names = [f.name for f in dataclasses.fields(value)]
    for name in names + list(CACHED.get(type(value).__name__, ())):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))


def test_every_engine_dataclass_is_frozen():
    found = []
    for info in pkgutil.iter_modules(toricqh.__path__):
        module = importlib.import_module(f"toricqh.{info.name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and \
                    dataclasses.is_dataclass(cls):
                found.append(cls.__name__)
                assert cls.__dataclass_params__.frozen, cls.__name__
    assert {"DelzantPolytope", "ClassicalRing", "HomologyReport"} <= \
        set(found)


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "cube3"])
def test_a_polytope_and_its_ring_cannot_be_assigned(name):
    ring = build_ring(CORPUS[name])
    for value in (ring.polytope, ring):
        assert_frozen(value)
    assert not any(f.name in ("_scaled", "_centroid", "_prims",
                              "_vertex_weights")
                   for value in (ring.polytope, ring)
                   for f in dataclasses.fields(value))


def test_a_homology_report_cannot_be_assigned():
    qp = BUILDERS["blowup_cp2"]()
    dictionary = build_dictionary(qp)
    assert_frozen(to_homology_report(dictionary,
                                     point_and_facet(qp, dictionary), qp))


def test_the_ring_of_a_dictionary_cannot_change_under_it():
    """A dictionary reads `top` off its ring once; neither the ring nor
    its polytope can be changed afterwards."""
    qp = fano_presentation(examples.s2xs2())
    dictionary = build_dictionary(qp)
    top = dictionary.top
    with pytest.raises(dataclasses.FrozenInstanceError):
        qp.ring.standard_monomials += ((2, 0),)
    with pytest.raises(dataclasses.FrozenInstanceError):
        qp.ring.basis = None
    with pytest.raises(dataclasses.FrozenInstanceError):
        qp.polytope.faces = {}
    assert [m for m in qp.ring.standard_monomials if mono_degree(m) == 2] \
        == [top]
    assert build_dictionary(qp) is dictionary


def polytope_answers(poly):
    """Coordinates of a few vectors at every vertex, every edge class, the
    derived data of the polytope and its tables."""
    vectors = [tuple(k + i for i in range(poly.n)) for k in (-2, 1, 3)]
    edges = [face for face in poly.faces.values() if face.dim == 1]
    return ([poly.coordinates(vid, v) for vid in range(len(poly.vertices))
             for v in vectors], [edge_class(poly, e) for e in edges],
            poly.scaled_vertices, poly.centroid, poly.primitive_sets,
            poly.elimination, poly.morse,
            [poly.morse_betti(face) for face in poly.faces.values()])


def ring_answers(ring):
    """Normal forms of the full monomials of degree at most n + 1, and the
    integrals of those of degree n."""
    N, n = ring.polytope.num_facets, ring.polytope.n
    monos = [m for m in itertools.product(range(n + 2), repeat=N)
             if sum(m) <= n + 1]
    return ([ring.monomial_nf(m) for m in monos],
            [ring.integrate(ring.reduce_full({m: 1})) for m in monos
             if sum(m) == n])


@pytest.mark.parametrize("name", ["cp2", "blowup_cp2", "cube3"])
def test_a_replaced_polytope_or_ring_starts_empty_and_answers_alike(name):
    ring = build_ring(CORPUS[name])
    poly = ring.polytope
    before = polytope_answers(poly), ring_answers(ring)
    assert poly._duals and poly._edge_classes and ring._reduced
    copy = dataclasses.replace(poly)
    ring_copy = dataclasses.replace(ring)
    assert copy == poly and ring_copy == ring
    for value in (copy, ring_copy):
        assert all(getattr(value, f.name) == {}
                   for f in dataclasses.fields(value) if not f.init)
        assert not set(CACHED[type(value).__name__]) & set(vars(value))
    assert polytope_answers(copy) == before[0]
    assert ring_answers(ring_copy) == before[1]
    assert polytope_answers(poly) == before[0]
