"""`ClassicalRing.integrate` by localization at the vertices against the
former integral, which read the coefficient of the one top standard
monomial in a normal form and divided by that of the reference vertex
monomial.  The reference `FormerIntegral` keeps the former `integrate`, with
the two helpers only it used, and the former `pd_matrix`, one integral per
entry."""

import dataclasses
import functools
import itertools
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from cases import POLYTOPES, exact
from reference import FormerIntegral
from toricqh.cohomology import build_ring
from toricqh.errors import WrongDegree

F = Fraction


@functools.lru_cache(maxsize=None)
def rings(name):
    """(engine ring, the same ring integrating the former way)."""
    ring = build_ring(POLYTOPES[name])
    return ring, FormerIntegral(**{f.name: getattr(ring, f.name)
                                   for f in fields(ring) if f.init})


def top_monomials(ring):
    return [m for m in itertools.product(range(ring.polytope.n + 1),
                                         repeat=ring.width)
            if sum(m) == ring.polytope.n]


SMALL = sorted(name for name in POLYTOPES if name not in ("cube4", "gon12"))


@pytest.mark.parametrize("name", SMALL)
def test_every_top_monomial_integrates_as_before(name):
    ring, former = rings(name)
    for m in top_monomials(ring):
        assert exact(ring.integrate({m: F(1)})) == \
            exact(former.integrate({m: F(1)})), (name, m)


@pytest.mark.parametrize("name", ["cube4", "gon12"])
def test_a_seeded_sample_integrates_as_before(name):
    ring, former = rings(name)
    rng = random.Random(20)
    monos = top_monomials(ring)
    for _ in range(40):
        f = {m: F(rng.randint(-9, 9), rng.randint(1, 5))
             for m in rng.sample(monos, rng.randint(1, 4))}
        f = {m: c for m, c in f.items() if c}
        assert exact(ring.integrate(f)) == exact(former.integrate(f)), f


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_the_pairing_matrices_are_the_former_ones(name):
    ring, former = rings(name)
    for k in range(ring.polytope.n + 1):
        assert exact(ring.pd_matrix(2 * k)) == exact(former.pd_matrix(2 * k))


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_a_wrong_degree_is_still_a_typed_error(name):
    ring, former = rings(name)
    n = ring.polytope.n
    for m in ((0,) * ring.width, (n + 1,) + (0,) * (ring.width - 1)):
        for r in (ring, former):
            with pytest.raises(WrongDegree):
                r.integrate({m: F(1)})
    mixed = {(n,) + (0,) * (ring.width - 1): F(1), (0,) * ring.width: F(2)}
    with pytest.raises(WrongDegree):
        ring.integrate(mixed)
    assert ring.integrate({}) == 0 and type(ring.integrate({})) is Fraction


def test_the_vertex_weights_are_built_once_per_polytope():
    poly = dataclasses.replace(POLYTOPES["cp2"])
    ring = build_ring(poly)
    assert "localization" not in vars(ring) and "morse" not in vars(poly)
    ring.integrate({(2, 0): F(1)})
    table = ring.localization
    assert len(table) == len(ring.polytope.vertices)
    weights = poly.morse.weights
    ring.pd_matrix(2)
    assert ring.localization is table
    other = build_ring(poly)
    other.pd_matrix(2)
    assert other.localization == table
    assert poly.morse.weights is weights
