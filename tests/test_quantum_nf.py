"""quantum_nf against the level-by-level reference it replaced, and the
invariants of the NovScalar arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_obstructions import box, simplex
from test_quantum import hirz_y_table
from toricqh import examples
from toricqh.errors import BadCorrectionValuation, NonPositiveEnergy
from toricqh.novikov import NovScalar
from toricqh.polynomials import mono_mul
from toricqh.quantum import (
    QClass,
    _nf_traced_cached,
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qpoly_atoms,
    qpoly_mul,
    qpoly_scale,
    qpoly_truncated,
    quantum_nf,
)

F = Fraction


def reference_nf(z, qp):
    """The former quantum_nf: one NovScalar per atom and partial sum."""
    if isinstance(z, QClass):
        pending = dict(z.coeffs)
    else:
        pending = dict(z)
    result = {}
    truncated = qpoly_truncated(pending)
    pending = [(m, d, kappa, c) for m, d, kappa, c in qpoly_atoms(pending)]
    guard = 0
    while pending:
        guard += 1
        if guard >= 10000:
            raise BadCorrectionValuation("quantum reduction diverged")
        level = min(kappa for _, _, kappa, _ in pending)
        batch = [(m, d, c) for m, d, kappa, c in pending if kappa == level]
        pending = [atom for atom in pending if atom[2] != level]
        # group by q-degree; classical reduction is q-linear
        slices = {}
        for m, d, c in batch:
            slices.setdefault(d, {})
            slices[d][m] = slices[d].get(m, Fraction(0)) + c
        for d, poly in slices.items():
            for mono, coeff in poly.items():
                if not coeff:
                    continue
                nf, trace = _nf_traced_cached(qp, mono)
                for m2, c2 in nf.items():
                    s = NovScalar.monomial(coeff * c2, d, level, qp.cutoff)
                    cur = result.get(m2)
                    result[m2] = s if cur is None else cur + s
                for key, cof in trace.items():
                    delta = qp.corrections[key]
                    for mc, cc in cof.items():
                        shifted = qpoly_scale(
                            delta, NovScalar.monomial(coeff * cc, d, level,
                                                      qp.cutoff))
                        for m3, d3, k3, c3 in qpoly_atoms(
                                {mono_mul(mc, mm): ss
                                 for mm, ss in shifted.items()}):
                            if k3 > qp.cutoff:
                                truncated = True
                                continue
                            if k3 <= level:
                                raise NonPositiveEnergy(
                                    "a correction failed to raise the "
                                    "valuation; relation energies must be "
                                    "positive")
                            pending.append((m3, d3, k3, c3))
                        truncated = truncated or qpoly_truncated(shifted)
    coeffs = {}
    for m, s in result.items():
        if not s.is_zero():
            coeffs[m] = s.with_truncated(s.truncated or truncated)
    if truncated and coeffs:
        coeffs = {m: s.with_truncated(True) for m, s in coeffs.items()}
    if truncated and not coeffs:
        # preserve the flag on a zero class via an explicitly flagged zero
        return QClass({(0,) * qp.ring.width:
                       NovScalar({}, qp.cutoff, True)}, qp.cutoff)
    return QClass(coeffs, qp.cutoff)


def _corpus():
    """Name -> (polytope, presentation builder taking a cutoff)."""
    out = {name: examples.build(name)
           for name in ("s2", "cp2", "blowup_cp2", "s2xs2")}
    out.update(cp3=simplex(3), cp4=simplex(4), cube3=box(3), cube4=box(4))
    corpus = {name: (poly, fano_presentation) for name, poly in out.items()}
    corpus["hirzebruch2 nef"] = (
        examples.hirzebruch2(F(2)),
        lambda poly, c: nef_presentation(poly, hirz_y_table(c), cutoff=c))
    return corpus


CORPUS = _corpus()


def snapshot(qclass):
    """Everything a class says: each scalar's terms, cutoff and flag."""
    return qclass.cutoff, {m: (s.terms, s.cutoff, s.truncated)
                           for m, s in qclass.coeffs.items()}


def random_qpoly(rng, qp, monos):
    cutoff = qp.cutoff
    out = {}
    for m in rng.sample(monos, min(len(monos), rng.randint(1, 4))):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            kappa = F(rng.randint(-6, 12), rng.choice((1, 2, 3))) * cutoff / 8
            terms[(rng.randint(-2, 2), kappa)] = F(rng.randint(-3, 3),
                                                   rng.randint(1, 4))
        out[m] = NovScalar(terms, cutoff, rng.random() < 0.1)
    return out


@pytest.mark.parametrize("name", sorted(CORPUS))
@pytest.mark.parametrize("fraction", [1, F(1, 2), F(1, 4)],
                         ids=["C", "C/2", "C/4"])
def test_quantum_nf_matches_reference(name, fraction):
    poly, present = CORPUS[name]
    qp = present(poly, default_cutoff(poly) * fraction)
    rng = random.Random(f"{name} {fraction}")
    # standard monomials and their products, which the relations reduce
    std = qp.ring.standard_monomials
    monos = sorted({mono_mul(a, b) for a in std for b in std})
    flagged = 0
    for _ in range(12):
        z = random_qpoly(rng, qp, monos)
        if rng.random() < 0.5:  # a product, as qprod hands over
            z = qpoly_mul(z, random_qpoly(rng, qp, monos))
        want = reference_nf(z, qp)
        assert snapshot(quantum_nf(z, qp)) == snapshot(want)
        assert snapshot(quantum_nf(QClass(z, qp.cutoff), qp)) == \
            snapshot(want)
        flagged += want.truncated
    assert flagged  # the truncation path is exercised


def test_cancelling_correction_atoms_above_the_cutoff_still_flag():
    """a^2 - b^2 on S^2 x S^2 with equal areas: both relations carry the
    correction q^2 t^1, so the two correction atoms cancel exactly; above
    the cutoff they are dropped, and the result is a flagged zero."""
    qp = fano_presentation(examples.s2xs2(F(1)))
    assert len({frozenset(s.terms.items())
                for delta in qp.corrections.values()
                for s in delta.values()}) == 1
    a2, b2 = (2, 0), (0, 2)
    below = qp.cutoff - F(1, 2)  # the corrections land at cutoff + 1/2
    z = {a2: NovScalar.monomial(1, 0, below, qp.cutoff),
         b2: NovScalar.monomial(-1, 0, below, qp.cutoff)}
    got = quantum_nf(z, qp)
    assert got.is_zero() and got.truncated
    assert snapshot(got) == snapshot(reference_nf(z, qp))
    # one level lower the corrections are stored, cancel, and nothing is
    # flagged
    low = below - 1
    z = {a2: NovScalar.monomial(1, 0, low, qp.cutoff),
         b2: NovScalar.monomial(-1, 0, low, qp.cutoff)}
    got = quantum_nf(z, qp)
    assert got.is_zero() and not got.truncated
    assert snapshot(got) == snapshot(reference_nf(z, qp))


def test_a_flagged_correction_flags_the_result_it_enters():
    """The cubic relation of CP^2 at level 0 stores its whole correction,
    so only the correction's own flag can mark the result."""
    qp = fano_presentation(examples.cp2())
    (key, delta), = qp.corrections.items()
    cube = next(iter(qp.ring.substitute({(1, 1, 1): F(1)})))
    z = {cube: NovScalar.one(qp.cutoff)}
    assert not quantum_nf(z, qp).truncated
    qp.corrections[key] = {m: s.with_truncated(True)
                           for m, s in delta.items()}
    got = quantum_nf(z, qp)
    assert got.truncated and not got.is_zero()
    assert snapshot(got) == snapshot(reference_nf(z, qp))


def test_a_correction_at_the_same_level_is_non_positive_energy():
    qp = fano_presentation(examples.cp2())
    std = qp.ring.standard_monomials
    mono = next(m for m in sorted({mono_mul(a, b) for a in std for b in std})
                if _nf_traced_cached(qp, m)[1])
    for key in _nf_traced_cached(qp, mono)[1]:
        qp.corrections[key] = {m: NovScalar.monomial(1, 3, 0, qp.cutoff)
                               for m in qp.corrections[key]}
    z = {mono: NovScalar.monomial(1, 0, 0, qp.cutoff)}
    for nf in (quantum_nf, reference_nf):
        with pytest.raises(NonPositiveEnergy):
            nf(z, qp)


# ------------------------------------------------ NovScalar invariants

CUT = F(4)


def scalars():
    term = st.tuples(st.integers(-3, 3),
                     st.fractions(min_value=F(-3), max_value=F(5),
                                  max_denominator=6),
                     st.fractions(min_value=F(-3), max_value=F(3),
                                  max_denominator=8))
    return st.builds(
        lambda items, flag: NovScalar({(d, k): c for d, k, c in items},
                                      CUT, flag),
        st.lists(term, max_size=4), st.booleans())


def assert_normal(s):
    """The form the validating constructor gives every scalar."""
    assert type(s.cutoff) is Fraction and s.cutoff == CUT
    for (d, kappa), c in s.terms.items():
        assert type(d) is int and type(kappa) is Fraction
        assert type(c) is Fraction and c != 0
        assert kappa <= s.cutoff


def product_terms(a, b):
    """All term products of a and b, above the cutoff included."""
    out = {}
    for (d1, k1), c1 in a.terms.items():
        for (d2, k2), c2 in b.terms.items():
            key = (d1 + d2, k1 + k2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


@settings(max_examples=80, deadline=None)
@given(a=scalars(), b=scalars(), c=st.fractions(max_denominator=5),
       d=st.integers(-3, 3),
       kappa=st.fractions(min_value=F(-2), max_value=F(3),
                          max_denominator=4))
def test_arithmetic_keeps_the_validated_form(a, b, c, d, kappa):
    flags = a.truncated or b.truncated
    for value, terms, dropped in (
            (a + b, {**a.terms, **{k: a.terms.get(k, 0) + v
                                   for k, v in b.terms.items()}}, False),
            (a - b, {**a.terms, **{k: a.terms.get(k, 0) - v
                                   for k, v in b.terms.items()}}, False),
            (a * b, product_terms(a, b),
             any(k1 + k2 > CUT for _, k1 in a.terms for _, k2 in b.terms))):
        assert_normal(value)
        assert value.terms == NovScalar(terms, CUT).terms
        assert value.truncated == (flags or dropped)
    scaled = a.scale(c)
    assert_normal(scaled)
    assert scaled.terms == NovScalar(
        {k: c * v for k, v in a.terms.items()}, CUT).terms
    assert scaled.truncated == a.truncated
    shifted = a.shift(d, kappa)
    assert_normal(shifted)
    assert shifted.terms == NovScalar(
        {(d0 + d, k0 + kappa): v for (d0, k0), v in a.terms.items()},
        CUT).terms
    assert shifted.truncated == (
        a.truncated or any(k0 + kappa > CUT for _, k0 in a.terms))
