"""The cached facet powers against the former `qpow` chain.

`seidel.facet_product` reads S(eta_i)^a off a per-facet chain of powers
cached on the presentation.  The reference is the former `facet_product`,
which rebuilt every power from the unit with `qpow` on every call; the
cached path must give the same values, truncation flags and errors at every
cutoff, on cold and on warm caches.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from cases import (
    FANO,
    class_outcome,
    hirzebruch2_nef,
    snapshot,
    value_or_error,
)
from reference import (
    reference_facet_power,
    reference_facet_product,
    reference_seidel_element,
)
from toricqh import seidel as seidel_module
from toricqh.oracle import DEFAULT_SEED, _random_xi
from toricqh.quantum import fano_presentation, qinv, qpow
from toricqh.seidel import (
    SeidelElement,
    facet_power,
    facet_product,
    facet_seidel,
    seidel_element,
)

F = Fraction


# ------------------------------------------------------------------ outcomes

def element_outcome(element):
    """Every field of a Seidel element; the class as each scalar's terms,
    cutoff and truncation flag, plus the class's own flag."""
    fields = {f.name: getattr(element, f.name)
              for f in dataclasses.fields(SeidelElement)}
    qclass = fields.pop("qclass")
    return (snapshot(qclass), qclass.truncated,
            {k: (v, type(v)) for k, v in fields.items()})


NEF_CUTOFFS = [None, F(1), F(2), F(8)]
NEF_CUTOFF_IDS = ["default", "1", "2", "8"]
NEF_BOX = [xi for xi in itertools.product(range(-3, 4), repeat=2) if any(xi)]


# --------------------------------------------------------------------- tests

@pytest.mark.parametrize("cutoff", NEF_CUTOFFS, ids=NEF_CUTOFF_IDS)
def test_nef_seidel_elements_match_the_qpow_chain(cutoff):
    qp = hirzebruch2_nef(cutoff)
    inverses = {}
    for xi in NEF_BOX:
        want = value_or_error(lambda: element_outcome(
            reference_seidel_element(qp, xi, inverses)))
        for run in ("cold", "warm"):
            got = value_or_error(
                lambda: element_outcome(seidel_element(qp, xi)))
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
    inverses = {}
    for i in range(qp.polytope.num_facets):
        for a in POWER_ORDERS[order]:
            want = value_or_error(lambda: class_outcome(reference_facet_power(
                former, i, a, inverses)))
            assert value_or_error(
                lambda: class_outcome(facet_power(qp, i, a))) == want, (i, a)
        assert len(solved) == i + 1
        powers = qp._cache[("facet_power", i, False)]
        assert class_outcome(powers[1]) == class_outcome(inverses[i])
    assert not any(key[0] == "facet_seidel_inv" for key in qp._cache
                   if isinstance(key, tuple))
