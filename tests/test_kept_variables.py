"""Facet-variable classes entering the ring one way, against the code they
replaced: the Fano facet Seidel element as `seidel_element` of the facet
normal, the presentations with the Stanley-Reisner leads read off the ring,
the monomials of the obstruction rules from `poly_monomial`, and the
reference vertex monomial as one substitution.  Each former version is kept
here verbatim as the reference."""

import itertools
from fractions import Fraction

import pytest

from test_polytope import GON12
from test_quantum import hirz_y_table
from test_quantum_nf import CORPUS as PRESENTED
from test_quantum_nf import snapshot
from toricqh import examples
from toricqh.actions import fixed_components
from toricqh.cohomology import build_ring, restrict_to_face
from toricqh.errors import BadCorrectionValuation, MissingYEntry, ToricError
from toricqh.novikov import NovScalar
from toricqh.obstructions import _classical_class, _euler_class_nonzero
from toricqh.polynomials import poly_const, poly_mul
from toricqh.polytope import validate_delzant
from toricqh.quantum import (
    QClass,
    QuantumPresentation,
    _validate_y_correction,
    default_cutoff,
    fano_presentation,
    lift,
    nef_presentation,
    qpoly_add,
    qpoly_from_poly,
    qpoly_mul,
    qpoly_scale,
    qpoly_valuation,
)
from toricqh.seidel import SeidelElement, facet_seidel

F = Fraction


# ---------------------------------------------------------- the references

def reference_facet_seidel_fano(qp, i):
    """The former Fano branch of facet_seidel."""
    poly = qp.polytope
    support = poly.support(i)
    full = [0] * poly.num_facets
    full[i] = 1
    qclass = lift(qp, {(tuple(full), -1, -support): 1})
    return SeidelElement(qclass=qclass, xi=poly.normal(i), mode=qp.mode,
                         leading_face=frozenset({i}), m_max=-1,
                         K_max=support, semifree=True)


def reference_fano_presentation(poly, cutoff=None):
    """The former fano_presentation, with x^J built by hand."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly, ring.prims)
    corrections = {}
    energies = []
    for p in ring.prims:
        mono = {tuple(p.coeffs[p.j_indices.index(j)] if j in p.j_indices
                      else 0 for j in range(poly.num_facets)): Fraction(1)}
        kept = ring.substitute(mono)
        omega = p.beta.omega(poly)
        corrections[p.key] = qpoly_from_poly(kept, cutoff,
                                             d=p.beta.c1(), kappa=omega)
        energies.append(omega)
    return QuantumPresentation(ring=ring, prims=ring.prims,
                               corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="fano")


def reference_nef_presentation(poly, y_table, cutoff=None):
    """The former nef_presentation, with x_I built by hand."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly, ring.prims)
    y_classes = {}
    for i in range(poly.num_facets):
        if i not in y_table:
            raise MissingYEntry(
                f"no Y entry for facet {i + 1}; supply one (possibly empty)")
        corr = {m: (s if isinstance(s, NovScalar) else
                    NovScalar.monomial(s, 0, 0, cutoff))
                for m, s in y_table[i].items()}
        kept_corr = _validate_y_correction(ring, i, corr, cutoff)
        xi = qpoly_from_poly(ring.var(i), cutoff)
        y_classes[i] = qpoly_add(xi, kept_corr)

    corrections = {}
    energies = []
    for p in ring.prims:
        lead = qpoly_from_poly(ring.substitute(
            {tuple(1 if j in p.indices else 0
                   for j in range(poly.num_facets)): Fraction(1)}), cutoff)
        prod_i = None
        for i in p.indices:
            prod_i = y_classes[i] if prod_i is None \
                else qpoly_mul(prod_i, y_classes[i])
        prod_j = {(0,) * ring.width: NovScalar.one(cutoff)}
        for j, c in zip(p.j_indices, p.coeffs):
            for _ in range(c):
                prod_j = qpoly_mul(prod_j, y_classes[j])
        omega = p.beta.omega(poly)
        energy = NovScalar.monomial(1, p.beta.c1(), omega, cutoff)
        q_gen = qpoly_add(prod_i, qpoly_scale(prod_j, -energy))
        delta = qpoly_add(lead, qpoly_scale(q_gen, NovScalar.monomial(
            -1, 0, 0, cutoff)))
        val = qpoly_valuation(delta)
        if val is None or val <= 0:
            raise BadCorrectionValuation(
                f"relation correction for I={list(p.indices)} has "
                f"valuation {val}")
        corrections[p.key] = delta
        energies.append(val)
    return QuantumPresentation(ring=ring, prims=ring.prims,
                               corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="nef",
                               y_classes=y_classes)


def reference_euler_class_nonzero(ring, comp):
    """The former _euler_class_nonzero, a poly_const/poly_mul chain."""
    poly = ring.polytope
    face = comp.face
    product_full = poly_const(1, poly.num_facets)
    rank = 0
    for i, w in comp.weights.items():
        if w <= -2:
            mono = [0] * poly.num_facets
            mono[i] = -w - 1
            rank += -w - 1
            product_full = poly_mul(product_full, {tuple(mono): Fraction(1)})
    if rank == 0:
        return True  # rank-zero bundle: the Euler class is the unit
    face_ring, value = restrict_to_face(ring, product_full, face)
    return bool(value)


def reference_classical_class(ring, facet_powers, classes):
    """The former _classical_class, its exponent tuple built by hand."""
    mono = [0] * ring.polytope.num_facets
    for i, e in facet_powers.items():
        mono[i] = e
    mono = tuple(mono)
    if mono not in classes:
        classes[mono] = ring.reduce_full({mono: Fraction(1)})
    return classes[mono]


def reference_vertex_monomial(ring):
    """The former ClassicalRing.reference_vertex_monomial."""
    vf = sorted(ring.polytope.vertex_facets(0))
    out = poly_const(1, ring.width)
    for i in vf:
        out = poly_mul(out, ring.var(i))
    return out


# ---------------------------------------------------------------- the corpus

FANO = {name: poly for name, (poly, build) in PRESENTED.items()
        if build is fano_presentation}
CUTOFFS = [None, F(1), F(1, 2)]
CUTOFF_IDS = ["default", "1", "1/2"]
GON12_POLY = validate_delzant(GON12, name="gon12")
CORPUS = dict(FANO, hirzebruch2=examples.hirzebruch2(F(2)), gon12=GON12_POLY)


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
    classes, ref_classes = {}, {}
    for xi in itertools.product((-1, 0, 1), repeat=poly.n):
        if not any(xi):
            continue
        for comp in fixed_components(poly, xi):
            assert _euler_class_nonzero(ring, comp) == \
                reference_euler_class_nonzero(ring, comp), (xi, comp.facets)
            for powers in ({i: 1 for i, w in comp.weights.items() if w == 1},
                           {i: 1 for i, w in comp.weights.items() if w == -1},
                           {i: w for i, w in comp.weights.items() if w > 0},
                           {i: -w for i, w in comp.weights.items() if w < 0}):
                assert _classical_class(ring, powers, classes) == \
                    reference_classical_class(ring, powers, ref_classes)
    # one canonical key per monomial, so P4 and R5 share entries
    assert classes == ref_classes


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_reference_vertex_monomial_matches_the_former_product(name):
    ring = build_ring(CORPUS[name])
    assert ring.reference_vertex_monomial() == \
        reference_vertex_monomial(ring)


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
