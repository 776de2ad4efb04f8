"""The cached facet powers against the former `qpow` chain.

`seidel.facet_product` reads S(eta_i)^a off a per-facet chain of powers
cached on the presentation.  The reference below is the former
`facet_product`, which rebuilt every power from the unit with `qpow` on every
call; the cached path must give the same values, truncation flags and errors
at every cutoff, on cold and on warm caches.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from test_kept_variables import FANO
from test_quantum import hirz_y_table
from test_quantum_nf import snapshot
from toricqh import examples
from toricqh import seidel as seidel_module
from toricqh.actions import fixed_components
from toricqh.errors import ToricError, WrongDegree
from toricqh.oracle import DEFAULT_SEED, _random_xi
from toricqh.quantum import (
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qinv,
    qpow,
    qprod,
)
from toricqh.seidel import (
    SeidelElement,
    facet_power,
    facet_product,
    facet_seidel,
    seidel_element,
)

F = Fraction


# ------------------------------------------------------ the former qpow chain

def reference_inverse(qp, i, inverses):
    """S(eta_i)^-1, once per facet of one presentation."""
    if i not in inverses:
        inverses[i] = qinv(facet_seidel(qp, i).qclass, qp)
    return inverses[i]


def reference_facet_product(qp, coords, inverses):
    """The former `facet_product`: every power rebuilt with `qpow`."""
    out = qp.one()
    for i, a in coords.items():
        if a > 0:
            out = qprod(out, qpow(facet_seidel(qp, i).qclass, a, qp), qp)
        elif a < 0:
            out = qprod(out, qpow(reference_inverse(qp, i, inverses), -a, qp),
                        qp)
    return out


def reference_seidel_element(qp, xi, inverses):
    """The former NEF branch of `seidel_element`."""
    poly = qp.polytope
    xi = tuple(int(x) for x in xi)
    fmax = fixed_components(poly, xi)[0]
    out = reference_facet_product(qp, poly.coordinates(0, xi), inverses)
    if out.degree() != 0:
        raise WrongDegree(f"the Seidel element of {xi} has degree "
                          f"{out.degree()}, not zero")
    return SeidelElement(qclass=out, xi=xi, mode=qp.mode,
                         leading_face=fmax.facets, m_max=fmax.m, K_max=fmax.K,
                         semifree=fmax.semifree)


# ------------------------------------------- the former cached facet inverse

def _former_facet_seidel_inverse(qp, i):
    """S(eta_i)^-1, cached."""
    key = ("facet_seidel_inv", i)
    if key not in qp._cache:
        qp._cache[key] = qinv(facet_seidel(qp, i).qclass, qp)
    return qp._cache[key]


def former_facet_power(qp, i, a):
    """S(eta_i)^a for a nonzero integer a, cached.

    The powers of one sign are built as `qpow` builds them: from the unit
    up, each the product of the one below with the base, S(eta_i) or its
    inverse.  The entry is the tuple (base^0, base^1, ...); a longer chain
    is written as a new entry, never appended to the cached one."""
    key = ("facet_power", i, a > 0)
    powers = qp._cache.get(key, ())
    k = abs(a)
    if k >= len(powers):
        base = facet_seidel(qp, i).qclass if a > 0 \
            else _former_facet_seidel_inverse(qp, i)
        powers = list(powers) or [qp.one()]
        while len(powers) <= k:
            powers.append(qprod(powers[-1], base, qp))
        powers = qp._cache[key] = tuple(powers)
    return powers[k]


# ------------------------------------------------------------------ outcomes

def element_outcome(element):
    """Every field of a Seidel element; the class as each scalar's terms,
    cutoff and truncation flag, plus the class's own flag."""
    fields = {f.name: getattr(element, f.name)
              for f in dataclasses.fields(SeidelElement)}
    qclass = fields.pop("qclass")
    return (snapshot(qclass), qclass.truncated,
            {k: (v, type(v)) for k, v in fields.items()})


def outcome(compute):
    try:
        return compute()
    except ToricError as err:
        return type(err).__name__


def class_outcome(qclass):
    return snapshot(qclass), qclass.truncated


def hirzebruch2_nef(cutoff):
    poly = examples.hirzebruch2(F(2))
    table_cutoff = default_cutoff(poly) if cutoff is None else cutoff
    return nef_presentation(poly, hirz_y_table(table_cutoff), cutoff=cutoff)


NEF_CUTOFFS = [None, F(1), F(2), F(8)]
NEF_CUTOFF_IDS = ["default", "1", "2", "8"]
NEF_BOX = [xi for xi in itertools.product(range(-3, 4), repeat=2) if any(xi)]


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("cutoff", NEF_CUTOFFS, ids=NEF_CUTOFF_IDS)
def test_nef_seidel_elements_match_the_qpow_chain(cutoff):
    qp = hirzebruch2_nef(cutoff)
    inverses = {}
    for xi in NEF_BOX:
        want = outcome(lambda: element_outcome(
            reference_seidel_element(qp, xi, inverses)))
        for run in ("cold", "warm"):
            got = outcome(lambda: element_outcome(seidel_element(qp, xi)))
            assert got == want, (xi, run)


@pytest.mark.parametrize("name", sorted(FANO))
def test_fano_oracle_products_match_the_qpow_chain(name):
    """The positive-coordinate dicts that the Fano vertex-independence check
    builds, each multiplied out twice on one presentation."""
    qp = fano_presentation(FANO[name])
    poly = qp.polytope
    rng = random.Random(DEFAULT_SEED + 2)
    for _ in range(6):
        xi = _random_xi(rng, poly.n)
        for vid in range(len(poly.vertices)):
            coords = poly.coordinates(vid, xi)
            for part in ({i: a for i, a in coords.items() if a > 0},
                         {i: -a for i, a in coords.items() if a < 0}):
                want = class_outcome(reference_facet_product(qp, part, {}))
                for run in ("cold", "warm"):
                    got = class_outcome(facet_product(qp, part))
                    assert got == want, (xi, vid, part, run)


def test_facet_power_is_the_qpow_power():
    qp = hirzebruch2_nef(None)
    for i in range(qp.polytope.num_facets):
        element = facet_seidel(qp, i).qclass
        inverse = qinv(element, qp)
        for a in (3, 1, -2, 4, -1, 2, -3):
            base, k = (element, a) if a > 0 else (inverse, -a)
            assert class_outcome(facet_power(qp, i, a)) == \
                class_outcome(qpow(base, k, qp)), (i, a)
    assert facet_product(qp, {0: 0, 1: 0}) == qp.one()


POWER_ORDERS = {
    "negative first": (-3, -2, -1, 3, 2, 1),
    "positive first": (3, 2, 1, -3, -2, -1),
    "extended": (-1, 1, -2, 2, -3, 3),
}


@pytest.mark.parametrize("order", sorted(POWER_ORDERS))
@pytest.mark.parametrize("cutoff", NEF_CUTOFFS, ids=NEF_CUTOFF_IDS)
def test_the_facet_inverse_starts_its_power_chain(monkeypatch, cutoff, order):
    """One inverse solve per facet, when its negative chain is first built;
    a longer chain multiplies by its first power, qprod(1, S^-1), and every
    power equals the former chain's in value and flag."""
    solved = []

    def counted(a, qp):
        solved.append(a)
        return qinv(a, qp)

    monkeypatch.setattr(seidel_module, "qinv", counted)
    qp, former = hirzebruch2_nef(cutoff), hirzebruch2_nef(cutoff)
    for i in range(qp.polytope.num_facets):
        for a in POWER_ORDERS[order]:
            want = outcome(lambda: class_outcome(former_facet_power(
                former, i, a)))
            assert outcome(lambda: class_outcome(facet_power(qp, i, a))) \
                == want, (i, a)
        assert len(solved) == i + 1
        powers = qp._cache[("facet_power", i, False)]
        assert class_outcome(powers[1]) == class_outcome(
            former._cache[("facet_seidel_inv", i)])
    assert not any(key[0] == "facet_seidel_inv" for key in qp._cache
                   if isinstance(key, tuple))
