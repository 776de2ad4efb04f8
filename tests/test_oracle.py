import dataclasses
import itertools
from fractions import Fraction

import pytest

from cases import FANO, box, hirz_y_table, simplex
from reference import former_check_homomorphism, former_check_inverse_law
from toricqh import examples
from toricqh import oracle as oracle_module
from toricqh import quantum as quantum_module
from toricqh import seidel as seidel_module
from toricqh.actions import fixed_maximum
from toricqh.novikov import NovScalar
from toricqh.oracle import (
    DEFAULT_SEED,
    check_associativity,
    check_classical_limit,
    check_grading_and_betti,
    check_homomorphism,
    check_inverse_law,
    check_leading_terms,
    check_relations_vanish,
    check_vertex_independence,
    verify_all,
)
from toricqh.quantum import (
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qscale,
)
from toricqh.seidel import facet_seidel, seidel_element

F = Fraction


@pytest.fixture(scope="module")
def blow():
    return fano_presentation(examples.blowup_cp2(F(1, 2)))


@pytest.fixture(scope="module")
def square():
    return fano_presentation(examples.s2xs2(F(2)))


@pytest.fixture(scope="module")
def cp2():
    return fano_presentation(examples.cp2())


@pytest.fixture(scope="module")
def hirz():
    poly = examples.hirzebruch2(F(2))
    return nef_presentation(poly, hirz_y_table(default_cutoff(poly)))


def test_associativity_clean(blow, square, cp2):
    for qp in (blow, square, cp2):
        assert check_associativity(qp) == []


def test_associativity_catches_corrupted_energy(blow):
    # corrupting a relation energy to zero breaks the positivity the whole
    # construction rests on; the oracle must report it rather than hang
    assert check_associativity(blow) == []
    key = frozenset({2, 3})
    bad = dataclasses.replace(blow, corrections={
        **blow.corrections,
        key: {m: NovScalar({(d, F(0)): c for (d, _), c in s.terms.items()},
                           blow.cutoff)
              for m, s in blow.corrections[key].items()}})
    assert check_associativity(bad) != []
    assert check_associativity(blow) == []


def test_homomorphism_clean(blow, square, cp2):
    for qp in (blow, square, cp2):
        assert check_homomorphism(qp, trials=8) == []


def test_inverse_law_clean(blow, cp2):
    for qp in (blow, cp2):
        assert check_inverse_law(qp, trials=5) == []


def test_vertex_independence_clean(blow, square):
    for qp in (blow, square):
        assert check_vertex_independence(qp, trials=3) == []


def test_classical_limit(blow, square, cp2, hirz):
    for qp in (blow, square, cp2, hirz):
        assert check_classical_limit(qp)


def test_grading_and_betti(blow, square, cp2, hirz):
    for qp in (blow, square, cp2, hirz):
        assert check_grading_and_betti(qp.polytope, qp)


def test_grading_catches_corrupted_q_exponent(blow):
    assert check_grading_and_betti(blow.polytope, blow)
    key = frozenset({2, 3})
    bad = dataclasses.replace(blow, corrections={
        **blow.corrections,
        key: {m: NovScalar({(d + 1, k): c for (d, k), c in s.terms.items()},
                           blow.cutoff)
              for m, s in blow.corrections[key].items()}})
    assert not check_grading_and_betti(bad.polytope, bad)
    assert check_grading_and_betti(blow.polytope, blow)


def test_relations_vanish(blow, square, cp2, hirz):
    for qp in (blow, square, cp2, hirz):
        assert check_relations_vanish(qp) == []


def test_leading_terms(blow, square, cp2, hirz):
    for qp in (blow, square, cp2, hirz):
        assert check_leading_terms(qp) == []


def test_s2_betti_via_grading_check():
    qp = fano_presentation(examples.s2(F(1)))
    assert qp.ring.betti == (1, 1)
    assert check_grading_and_betti(qp.polytope, qp)


def test_verify_all_smoke(blow):
    report = verify_all(blow.polytope, blow, trials=6)
    assert report["ok"]
    assert report["seed"] == 7193


@pytest.mark.parametrize("poly", [simplex(3), box(3), simplex(4), box(4)],
                         ids=["cp3", "cube3", "cp4", "cube4"])
def test_verify_all_three_dimensional(poly):
    assert verify_all(poly, fano_presentation(poly), trials=4)["ok"]


@pytest.mark.parametrize("poly", [examples.blowup_cp2(F(1, 2)), simplex(3)],
                         ids=["blowup_cp2", "cp3"])
def test_fano_seidel_path_takes_no_inverse(monkeypatch, poly):
    def refuse(*args):
        raise AssertionError("qinv called")

    monkeypatch.setattr(seidel_module, "qinv", refuse)
    monkeypatch.setattr(quantum_module, "qinv", refuse)
    qp = fano_presentation(poly)
    for xi in itertools.product((-1, 0, 1), repeat=poly.n):
        if any(xi):
            assert seidel_element(qp, xi).qclass.degree() == 0
    assert verify_all(poly, qp, trials=4)["ok"]


def test_vertex_independence_catches_a_corrupted_facet_element():
    """The corrupted element goes into the cache before any power chain is
    built from the facet element it replaces."""
    poly = examples.blowup_cp2(F(1, 2))
    assert check_vertex_independence(fano_presentation(poly)) == []
    qp = fano_presentation(poly)
    element = facet_seidel(qp, 0)
    assert not any(key[0] == "facet_power" for key in qp._cache
                   if isinstance(key, tuple))
    qp._cache[("facet_seidel", 0)] = dataclasses.replace(
        element, qclass=qscale(element.qclass,
                               NovScalar.monomial(2, 0, 0, qp.cutoff)))
    assert check_vertex_independence(qp) != []


# ------------------------------------------- the former two law checks

LAW_CORPUS = dict(FANO, hirzebruch2_nef=None)


def law_presentation(name):
    if name == "hirzebruch2_nef":
        poly = examples.hirzebruch2(F(2))
        return nef_presentation(poly, hirz_y_table(default_cutoff(poly)))
    return fano_presentation(LAW_CORPUS[name])


@pytest.mark.parametrize("name", sorted(LAW_CORPUS))
def test_the_laws_are_one_law_at_the_former_draws(monkeypatch, name):
    """The inverse law is the homomorphism law at (xi, -xi): each check
    reports what the former one reported, from the same Seidel elements
    asked for in the same order."""
    qp = law_presentation(name)
    asked = []

    def recorded(qp, xi):
        asked.append(tuple(xi))
        return seidel_module.seidel_element(qp, xi)

    for seed, trials in itertools.product((DEFAULT_SEED, 11), (4, 20)):
        for new, former in ((check_homomorphism, former_check_homomorphism),
                            (check_inverse_law, former_check_inverse_law)):
            del asked[:]
            monkeypatch.setattr(oracle_module, "seidel_element", recorded)
            got, got_asked = new(qp, trials, seed), list(asked)
            monkeypatch.undo()
            del asked[:]
            monkeypatch.setitem(former.__globals__, "seidel_element", recorded)
            want, want_asked = former(qp, trials, seed), list(asked)
            monkeypatch.undo()
            assert got == want, (new.__name__, seed, trials)
            assert got_asked == want_asked, (new.__name__, seed, trials)
    if name == "hirzebruch2_nef":  # the known NEF defect
        assert len(check_homomorphism(qp, 4, DEFAULT_SEED)) == 1
        assert len(check_inverse_law(qp, 4, DEFAULT_SEED)) == 4


def test_each_law_check_runs_alone(monkeypatch, blow):
    """Neither public check calls the other, so a tracer that wraps both
    names times each one apart."""
    def refuse(*args, **kwargs):
        raise AssertionError("the other law check was called")

    monkeypatch.setattr(oracle_module, "check_homomorphism", refuse)
    assert check_inverse_law(blow, trials=5) == []
    monkeypatch.undo()
    monkeypatch.setattr(oracle_module, "check_inverse_law", refuse)
    assert check_homomorphism(blow, trials=5) == []


@pytest.mark.parametrize("name", sorted(LAW_CORPUS))
def test_a_facet_maximum_is_read_off_the_polytope(name):
    """Facet i maximizes <eta_i, .> at K = support_i with weight -1, the
    data `check_leading_terms` expects without a search."""
    poly = law_presentation(name).polytope
    for i in range(poly.num_facets):
        fmax = fixed_maximum(poly, poly.normal(i))
        assert (fmax.facets, fmax.K, fmax.m) == \
            (frozenset({i}), poly.support(i), -1)


def test_leading_terms_catch_a_shifted_facet_element():
    qp = fano_presentation(examples.blowup_cp2(F(1, 2)))
    assert check_leading_terms(qp) == []
    for d, kappa in ((1, 0), (0, 1)):
        bad = fano_presentation(qp.polytope)
        element = facet_seidel(bad, 1)
        bad._cache[("facet_seidel", 1)] = dataclasses.replace(
            element, qclass=qscale(element.qclass, NovScalar.monomial(
                1, d, kappa, bad.cutoff)))
        assert check_leading_terms(bad) == [{"facet": 2}], (d, kappa)
