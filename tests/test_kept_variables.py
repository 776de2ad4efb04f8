"""Facet-variable classes entering the ring one way, against the code they
replaced: the Fano facet Seidel element as `seidel_element` of the facet
normal, the presentations with the Stanley-Reisner leads read off the ring,
and the monomials of the obstruction rules from `poly_monomial`, reduced
through the ring's memo and restricted to every face, a vertex included,
as a product with the face's class.  The former versions are the
references; the Euler class is held to the one Euler class reference of
the tests, which restricts to the face by `restrict_to_face`."""

import itertools
from fractions import Fraction

import pytest

from cases import FANO, GON12_POLY, hirz_y_table, snapshot
from reference import (
    former_euler_class_nonzero,
    reference_classical_class,
    reference_facet_seidel_fano,
    reference_fano_presentation,
    reference_nef_presentation,
)
from toricqh import examples
from toricqh.actions import fixed_components
from toricqh.cohomology import build_ring
from toricqh.errors import ToricError
from toricqh.novikov import NovScalar
from toricqh.obstructions import _classical_class, _euler_class_nonzero
from toricqh.quantum import (
    QClass,
    default_cutoff,
    fano_presentation,
    nef_presentation,
)
from toricqh.seidel import facet_seidel

F = Fraction


# ---------------------------------------------------------------- the corpus

CUTOFFS = [None, F(1), F(1, 2)]
CUTOFF_IDS = ["default", "1", "1/2"]


def qpoly_snapshot(qpoly):
    return {m: (s.terms, s.cutoff, s.truncated) for m, s in qpoly.items()}


def presentation_snapshot(qp):
    return (qp.cutoff, qp.hbar, qp.mode,
            {key: qpoly_snapshot(delta)
             for key, delta in qp.corrections.items()},
            None if qp.y_classes is None else
            {i: qpoly_snapshot(y) for i, y in qp.y_classes.items()})


def outcome(build):
    try:
        return presentation_snapshot(build())
    except ToricError as err:
        return type(err).__name__, str(err)


# ------------------------------------------------------------------- tests

@pytest.mark.parametrize("cutoff", CUTOFFS, ids=CUTOFF_IDS)
@pytest.mark.parametrize("name", sorted(FANO))
def test_fano_facet_element_is_the_former_facet_lift(name, cutoff):
    qp = fano_presentation(FANO[name], cutoff)
    for i in range(qp.polytope.num_facets):
        got = facet_seidel(qp, i)
        want = reference_facet_seidel_fano(qp, i)
        assert snapshot(got.qclass) == snapshot(want.qclass), (name, i)
        for field in ("xi", "mode", "leading_face", "m_max", "K_max",
                      "semifree"):
            assert getattr(got, field) == getattr(want, field), (name, field)
            assert type(getattr(got, field)) is type(getattr(want, field))
        assert facet_seidel(qp, i) is got  # cached


@pytest.mark.parametrize("cutoff", CUTOFFS, ids=CUTOFF_IDS)
@pytest.mark.parametrize("name", sorted(FANO) + ["hirzebruch2 nef"])
def test_presentations_match_the_former_builders(name, cutoff):
    if name == "hirzebruch2 nef":
        poly = examples.hirzebruch2(F(2))
        table = hirz_y_table(default_cutoff(poly) if cutoff is None
                             else cutoff)
        got = outcome(lambda: nef_presentation(poly, table, cutoff))
        want = outcome(lambda: reference_nef_presentation(poly, table,
                                                          cutoff))
    else:
        poly = FANO[name]
        got = outcome(lambda: fano_presentation(poly, cutoff))
        want = outcome(lambda: reference_fano_presentation(poly, cutoff))
    assert got == want


@pytest.mark.parametrize("poly", [FANO["cp3"], FANO["cube3"], FANO["cp4"],
                                  GON12_POLY], ids=lambda p: p.name)
def test_obstruction_monomials_match_the_former_builders(poly):
    ring = build_ring(poly)
    ref_classes = {}
    for xi in itertools.product((-1, 0, 1), repeat=poly.n):
        if not any(xi):
            continue
        for comp in fixed_components(poly, xi):
            assert _euler_class_nonzero(ring, comp) == \
                former_euler_class_nonzero(ring, comp), (xi, comp.facets)
            for powers in ({i: 1 for i, w in comp.weights.items() if w == 1},
                           {i: 1 for i, w in comp.weights.items() if w == -1},
                           {i: w for i, w in comp.weights.items() if w > 0},
                           {i: -w for i, w in comp.weights.items() if w < 0}):
                assert _classical_class(ring, powers) == \
                    reference_classical_class(ring, powers, ref_classes)
    # one canonical key per monomial, so P4 and R5 share the ring's memo
    assert ref_classes.keys() <= ring._reduced.keys()


def test_qclass_hash_agrees_with_equality_on_zero_scalars():
    cutoff = F(4)
    unit = (0, 0)
    empty = QClass({}, cutoff)
    zero = QClass({unit: NovScalar.zero(cutoff)}, cutoff)
    truncated_zero = QClass({unit: NovScalar({}, cutoff, True)}, cutoff)
    one = NovScalar.one(cutoff)
    x = QClass({(1, 0): one}, cutoff)
    padded = QClass({(1, 0): one, unit: NovScalar.zero(cutoff)}, cutoff)
    assert empty == zero == truncated_zero
    assert hash(empty) == hash(zero) == hash(truncated_zero)
    assert len({empty, zero, truncated_zero}) == 1
    assert x == padded and hash(x) == hash(padded)
    assert len({x, padded, empty}) == 2
