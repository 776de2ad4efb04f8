"""quantum_nf against the level-by-level reference it replaced, quantum_nf
and qprod on the integer grid against the Fraction-level versions before
it, and the invariants of the NovScalar arithmetic."""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_obstructions import box, simplex
from test_quantum import hirz_y_table
from toricqh import examples, quantum
from toricqh.errors import BadCorrectionValuation, NonPositiveEnergy
from toricqh.novikov import NovScalar
from toricqh.polynomials import mono_mul
from toricqh.quantum import (
    QClass,
    _nf_traced_cached,
    default_cutoff,
    fano_presentation,
    kept_qpoly,
    lift,
    nef_presentation,
    qinv,
    qpoly_atoms,
    qpoly_mul,
    qpoly_scale,
    qpoly_truncated,
    qprod,
    qscale,
    quantum_nf,
)
from toricqh.seidel import facet_seidel

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


# -------------------------------------- the integer grid against the parent

def parent_quantum_nf(z, qp):
    """`quantum_nf` as it was before the integer grid, verbatim: pending
    atoms keyed by Fraction levels, corrections read per trace entry."""
    coeffs = z.coeffs if isinstance(z, QClass) else z
    cutoff = Fraction(qp.cutoff)
    truncated = qpoly_truncated(coeffs)
    pending = {}
    for m, s in coeffs.items():
        for (d, kappa), c in s.terms.items():
            if kappa > cutoff:  # an input scalar with a larger cutoff
                truncated = True
                continue
            atoms = pending.setdefault(kappa, {})
            atoms[d, m] = atoms.get((d, m), 0) + c
    result = {}
    guard = 0
    while pending:
        guard += 1
        if guard >= 10000:
            raise BadCorrectionValuation("quantum reduction diverged")
        level = min(pending)
        for (d, mono), coeff in pending.pop(level).items():
            if not coeff:
                continue
            nf, trace = _nf_traced_cached(qp, mono)
            for m2, c2 in nf.items():
                terms = result.setdefault(m2, {})
                terms[d, level] = terms.get((d, level), 0) + coeff * c2
            for key, cof in trace.items():
                delta = qp.corrections[key]
                for mc, cc in cof.items():
                    scale = coeff * cc
                    for mm, s in delta.items():
                        truncated = truncated or s.truncated
                        m3 = mono_mul(mc, mm)
                        for (d3, k3), c3 in s.terms.items():
                            k3 += level
                            if k3 > cutoff:
                                truncated = True
                                continue
                            if k3 <= level:
                                raise NonPositiveEnergy(
                                    "a correction failed to raise the "
                                    "valuation; relation energies must be "
                                    "positive")
                            atoms = pending.setdefault(k3, {})
                            key3 = (d3 + d, m3)
                            atoms[key3] = atoms.get(key3, 0) + c3 * scale
    out = {}
    for m, terms in result.items():
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            out[m] = NovScalar.trusted(terms, cutoff, truncated)
    if truncated and not out:
        # preserve the flag on a zero class via an explicitly flagged zero
        out = {(0,) * qp.ring.width: NovScalar.trusted({}, cutoff, True)}
    return QClass(out, qp.cutoff)


def parent_qprod(a, b, qp):
    """`qprod` as it was: the normal form of the multiplied-out product."""
    return parent_quantum_nf(qpoly_mul(a.coeffs, b.coeffs), qp)


def typed(qclass):
    """`snapshot` plus the type of every exponent, coefficient and cutoff."""
    return snapshot(qclass), type(qclass.cutoff), {
        m: (type(s.cutoff), sorted(((d, k), (type(d), type(k), type(c)))
                                   for (d, k), c in s.terms.items()))
        for m, s in qclass.coeffs.items()}


@functools.lru_cache(maxsize=None)
def presented(name, cutoff=None):
    """One shared presentation per corpus entry and cutoff (None: default);
    a test that replaces corrections builds its own."""
    poly, present = CORPUS[name]
    return present(poly, default_cutoff(poly) if cutoff is None else cutoff)


# (coefficient, q-exponent, t-exponent) of the Novikov monomial factors
NOVIKOV = [(1, 0, F(0)), (F(-3, 2), 1, F(-1, 2)), (2, -1, F(2, 3))]


def monomial_class(qp, mono, i):
    c, d, kappa = NOVIKOV[i % len(NOVIKOV)]
    return QClass({mono: NovScalar.monomial(c, d, kappa, qp.cutoff)},
                  qp.cutoff)


# hirzebruch2 NEF has no presentation at cutoff 1/2 (BadCorrectionValuation:
# a relation correction lies wholly above it), so it is taken at 2 instead
CUTOFFS = {name: (None, F(1), F(2) if "nef" in name else F(1, 2))
           for name in CORPUS}


@pytest.mark.parametrize("name, cutoff", [
    (name, cutoff) for name in sorted(CORPUS) for cutoff in CUTOFFS[name]])
def test_products_of_standard_monomials_match_the_parent(name, cutoff):
    qp = presented(name, cutoff)
    std = qp.ring.standard_monomials
    flagged = 0
    for i, m1 in enumerate(std):
        for j, m2 in enumerate(std):
            a, b = monomial_class(qp, m1, i), monomial_class(qp, m2, i + j)
            want = parent_qprod(a, b, qp)
            assert typed(qprod(a, b, qp)) == typed(want)
            assert typed(quantum_nf(qpoly_mul(a.coeffs, b.coeffs), qp)) == \
                typed(want)
            flagged += want.truncated
    assert flagged or cutoff is None


def test_off_grid_exponents_refine_the_grid():
    """t^(1/7) lies off every corpus grid; the call refines its own."""
    for name in ("cp2", "blowup_cp2", "cube3", "hirzebruch2 nef"):
        qp = presented(name)
        std = qp.ring.standard_monomials
        for kappa in (F(1, 7), F(-3, 14), F(5, 21)):
            z = {m: NovScalar({(0, kappa): F(1), (1, kappa + F(1, 3)):
                               F(-2, 5)}, qp.cutoff) for m in std[-3:]}
            assert typed(quantum_nf(z, qp)) == typed(parent_quantum_nf(z, qp))
            a, b = QClass(z, qp.cutoff), monomial_class(qp, std[-1], 1)
            assert typed(qprod(a, b, qp)) == typed(parent_qprod(a, b, qp))
            full = {(1,) * qp.polytope.num_facets: F(1)}
            want = parent_quantum_nf(kept_qpoly(qp.ring, [(
                m, NovScalar.monomial(F(3, 2) * c, -1, kappa, qp.cutoff))
                for m, c in full.items()]), qp)
            assert typed(lift(qp, {(m, -1, kappa): F(3, 2) * c
                                   for m, c in full.items()})) == typed(want)
        assert any(D % 7 == 0 for D in qp._cache["grid"][3])


def test_a_flagged_factor_flags_the_product_unless_the_other_is_empty():
    qp = presented("blowup_cp2")
    unit = (0,) * qp.ring.width
    flagged = [QClass({unit: NovScalar.trusted({}, qp.cutoff, True)},
                      qp.cutoff),
               QClass({unit: NovScalar.one(qp.cutoff).with_truncated(True)},
                      qp.cutoff)]
    others = [qp.zero(), QClass({unit: NovScalar.zero(qp.cutoff)},
                                qp.cutoff), qp.one()]
    for a in flagged:
        for b in others:
            for x, y in ((a, b), (b, a)):
                got = qprod(x, y, qp)
                assert typed(got) == typed(parent_qprod(x, y, qp))
                assert got.truncated == bool(b.coeffs)


def test_cancelling_atoms_above_the_cutoff_flag_a_product():
    qp = fano_presentation(examples.s2xs2(F(1)))
    x, y = (1, 0), (0, 1)
    one = NovScalar.one(qp.cutoff)

    def t(c, kappa):
        return NovScalar.monomial(c, 0, kappa, qp.cutoff)

    # (x - y)(x + y) = x^2 - y^2, whose corrections cancel above the cutoff
    below = qp.cutoff - F(1, 2)
    cases = [(QClass({x: t(1, below), y: t(-1, below)}, qp.cutoff),
              QClass({x: one, y: one}, qp.cutoff), True)]
    # the same one level lower: stored, cancelled and not flagged
    cases.append((qscale(cases[0][0], t(1, -1)), cases[0][1], False))
    # pairs above the cutoff whose cross terms xy - yx cancel
    high = qp.cutoff * F(3, 4)
    cases.append((QClass({x: t(1, high), y: t(1, high)}, qp.cutoff),
                  QClass({y: t(1, high), x: t(-1, high)}, qp.cutoff), True))
    for a, b, flag in cases:
        got = qprod(a, b, qp)
        assert got.is_zero() and got.truncated == flag
        assert typed(got) == typed(parent_qprod(a, b, qp))


def test_the_grid_follows_a_replaced_cutoff_and_correction():
    """Grid and plans are rebuilt when the cutoff or a correction object
    is replaced after they were filled."""
    qp = fano_presentation(examples.blowup_cp2())
    std = qp.ring.standard_monomials
    pairs = [(monomial_class(qp, m1, i), monomial_class(qp, m2, j))
             for i, m1 in enumerate(std) for j, m2 in enumerate(std)]
    for a, b in pairs:
        qprod(a, b, qp)
    qp.cutoff = F(1, 2)  # below the Fano corrections' own cutoff
    flagged = 0
    for a, b in pairs:
        want = parent_qprod(a, b, qp)
        assert typed(qprod(a, b, qp)) == typed(want)
        flagged += want.truncated
    assert flagged
    key, delta = next(iter(qp.corrections.items()))
    qp.corrections[key] = {m: NovScalar.monomial(1, 3, 0, qp.cutoff)
                           for m in delta}
    with pytest.raises(NonPositiveEnergy):
        for a, b in pairs:
            qprod(a, b, qp)


def test_correction_atoms_of_one_monomial_that_cancel_still_flag():
    """A plan merges the correction atoms of a monomial but keeps those that
    cancel.  With the corrections of two relations in its trace set to
    cof2 t^kappa and -cof1 t^kappa, every atom cancels; above the cutoff
    they still flag the result."""
    qp = fano_presentation(examples.blowup_cp2())
    std = qp.ring.standard_monomials
    mono, trace = next((m, trace) for m in sorted({mono_mul(a, b)
                                                   for a in std for b in std})
                       for trace in [_nf_traced_cached(qp, m)[1]]
                       if len(trace) == 2)
    (key1, cof1), (key2, cof2) = trace.items()
    low = -4 * qp.cutoff
    z = {mono: NovScalar.monomial(1, 0, low, qp.cutoff)}
    for kappa, flag in ((qp.cutoff - low + 1, True), (F(1), False)):
        qp.corrections[key1] = {m: NovScalar.monomial(c, 0, kappa, kappa)
                                for m, c in cof2.items()}
        qp.corrections[key2] = {m: NovScalar.monomial(-c, 0, kappa, kappa)
                                for m, c in cof1.items()}
        got = quantum_nf(z, qp)
        assert got.truncated == flag
        assert typed(got) == typed(parent_quantum_nf(z, qp))


def test_results_share_the_presentation_cutoff():
    for name in ("cp2", "hirzebruch2 nef"):
        qp = presented(name)
        full = {(1,) + (0,) * (qp.polytope.num_facets - 1): F(1)}
        a = lift(qp, {(m, 1, F(-1, 3)): c for m, c in full.items()})
        for got in (a, quantum_nf(a, qp), qprod(a, a, qp),
                    qprod(qp.one(), qp.one(), qp)):
            assert got.coeffs and got.cutoff is qp.cutoff
            assert all(s.cutoff is qp.cutoff for s in got.coeffs.values())


def test_qinv_matches_the_parent_product(monkeypatch):
    """qinv builds its unit-system columns with the fused qprod."""
    for name in ("cp2", "blowup_cp2", "hirzebruch2 nef"):
        qp = presented(name)
        for i in range(qp.polytope.num_facets):
            a = facet_seidel(qp, i).qclass
            got = qinv(a, qp)
            with monkeypatch.context() as patch:
                patch.setattr(quantum, "qprod", parent_qprod)
                want = qinv(a, qp)
            assert typed(got) == typed(want)


def random_class(data, qp):
    std = qp.ring.standard_monomials
    term = st.tuples(st.integers(-2, 2),
                     st.fractions(min_value=-2, max_value=qp.cutoff + 1,
                                  max_denominator=7),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=4))
    coeffs = {}
    for m in data.draw(st.lists(st.sampled_from(std), max_size=3,
                                unique=True)):
        terms = data.draw(st.lists(term, max_size=3))
        coeffs[m] = NovScalar({(d, k): c for d, k, c in terms}, qp.cutoff,
                              data.draw(st.sampled_from((False,) * 3 +
                                                        (True,))))
    return QClass(coeffs, qp.cutoff)


@settings(max_examples=60, deadline=None)
@given(data=st.data(),
       name=st.sampled_from(("cp2", "blowup_cp2", "s2xs2", "cp3",
                             "hirzebruch2 nef")),
       which=st.integers(0, 2))
def test_random_classes_match_the_parent(data, name, which):
    qp = presented(name, CUTOFFS[name][which])
    a, b = random_class(data, qp), random_class(data, qp)
    assert typed(quantum_nf(a, qp)) == typed(parent_quantum_nf(a, qp))
    assert typed(qprod(a, b, qp)) == typed(parent_qprod(a, b, qp))
