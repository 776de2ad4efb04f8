"""Presentations and dictionaries are values.

No field of a `QuantumPresentation` or a `GeometricDictionary` can be
assigned, nor an entry of a presentation's corrections or Y-classes.  A
changed presentation comes from `dataclasses.replace`: the copy starts with
empty caches and answers `quantum_nf`, `qprod` and `facet_power` exactly as
a presentation freshly built from the same fields does, while the original
keeps its answers.  A replaced dictionary derives its decode data anew.
"""

import dataclasses
from fractions import Fraction
from types import MappingProxyType

import pytest

from test_facet_powers import class_outcome, hirzebruch2_nef, outcome
from test_quantum_nf import monomial_class, typed
from test_warm_seidel import point_and_facet, reference_to_homology_report
from toricqh import examples
from toricqh.novikov import NovScalar
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
