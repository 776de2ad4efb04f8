"""The laws of the polytope's symmetries: S(g xi) = sigma_g . S(xi), and
`analyze` at g xi says what it says at xi.

A g in GL(n, Z) that maps the facet data {(eta_i, s_i)} to itself permutes
the facets by sigma_g (eta_sigma(i) = g eta_i, s_sigma(i) = s_i) and sends
the circle xi to g xi.  The Seidel representation is natural, so the
element of g xi is the element of xi with sigma_g acting on the facet
variables, class and truncation flag.  The obstruction battery reads only
the circle action, so its verdict and each finding's rule, triggered and
definitive flags are the same at g xi as at xi.  Neither law reads the
presentation's own algebra, so they test that no output depends on a
label: the order of the kept variables, the argmax and its tie-breaks in
`fixed_maximum` or `chain_bound`, or which facet of F_max a value is read
from.
"""

import dataclasses
import itertools
import random
from fractions import Fraction

import pytest

from test_quantum_nf import CORPUS
from toricqh import seidel
from toricqh.actions import fixed_maximum
from toricqh.obstructions import analyze
from toricqh.polytope import validate_delzant
from toricqh.quantum import fano_presentation, lift
from toricqh.seidel import seidel_element

FANO = ("s2", "cp2", "blowup_cp2", "s2xs2", "cp3", "cp4", "cube3", "cube4")
GROUP_SAMPLE = 12  # group elements checked per polytope


def automorphisms(poly):
    """Every (g, sigma) that maps the facet data to itself, g as a tuple of
    integer rows.  A candidate maps vertex 0's facet normals, in increasing
    facet order, onto those of a vertex in some order (V * n! candidates):
    g xi = sum_k <phi_k, xi> eta_{h_k}, phi_k the dual basis at vertex 0."""
    facets = {(f.normal, f.support): i for i, f in enumerate(poly.facets)}
    dual = [row for _, row in poly.dual_basis(0)]
    found = {}
    for vid in range(len(poly.vertices)):
        for image in itertools.permutations(sorted(poly.vertex_facets(vid))):
            g = tuple(tuple(sum(poly.normal(h)[r] * phi[c]
                                for h, phi in zip(image, dual))
                            for c in range(poly.n))
                      for r in range(poly.n))
            sigma = tuple(facets.get((apply(g, f.normal), f.support))
                          for f in poly.facets)
            if None not in sigma:
                found[g] = sigma
    return sorted(found.items())


def apply(g, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def act(qp, sigma, qclass):
    """sigma . qclass: each kept monomial as a full-variable one, its facet
    variables permuted by sigma, lifted back with the class's flag."""
    kept, N = qp.ring.kept, qp.polytope.num_facets
    terms = {}
    for m, s in qclass.coeffs.items():
        full = [0] * N
        for j, e in enumerate(m):
            full[sigma[kept[j]]] = e
        for (d, kappa), c in s.terms.items():
            terms[tuple(full), d, kappa] = c
    return lift(qp, terms, truncated=qclass.truncated)


def sample(group):
    """Up to GROUP_SAMPLE elements, the same ones on every run."""
    if len(group) <= GROUP_SAMPLE:
        return group
    return random.Random(0).sample(group, GROUP_SAMPLE)


def circles(poly):
    r = 2 if poly.n <= 2 else 1
    return [xi for xi in itertools.product(range(-r, r + 1), repeat=poly.n)
            if any(xi)]


def violations(qp):
    """The (g, xi) at which the law fails, and the number of checks."""
    bad, checks = [], 0
    for g, sigma in sample(automorphisms(qp.polytope)):
        for xi in circles(qp.polytope):
            want = act(qp, sigma, seidel_element(qp, xi).qclass)
            got = seidel_element(qp, apply(g, xi)).qclass
            checks += 1
            if got != want or got.truncated != want.truncated:
                bad.append((g, xi))
    return bad, checks


def interleaved_s2xs2():
    """S^2 x S^2 with unequal sides, its facets labelled x+, y+, x-, y-, so
    that a sign flip reorders the labels at a vertex; in the corpus labels
    (x+, x-, y+, y-) no symmetry does."""
    return validate_delzant([((1, 0), 1), ((0, 1), Fraction(1, 2)),
                             ((-1, 0), 1), ((0, -1), Fraction(1, 2))])


INTERLEAVED = "s2xs2, interleaved"


@pytest.fixture(scope="module")
def presented():
    cases = {name: fano_presentation(CORPUS[name][0].normalized)
             for name in FANO}
    cases[INTERLEAVED] = fano_presentation(interleaved_s2xs2())
    return cases


# |Aut| of each mean-normalized polytope; the corpus cubes have unequal
# sides, so their only symmetries are the sign flips
ORDERS = {"s2": 2, "cp2": 6, "blowup_cp2": 2, "s2xs2": 4, "cp3": 24,
          "cp4": 120, "cube3": 8, "cube4": 16, INTERLEAVED: 4}


@pytest.mark.parametrize("name", FANO + (INTERLEAVED,))
def test_the_automorphisms_form_a_group(presented, name):
    poly = presented[name].polytope
    group = dict(automorphisms(poly))
    assert len(group) == ORDERS[name]
    identity = tuple(tuple(int(r == c) for c in range(poly.n))
                     for r in range(poly.n))
    assert group[identity] == tuple(range(poly.num_facets))
    for g, sigma in group.items():
        for h, tau in group.items():
            gh = tuple(zip(*(apply(g, col) for col in zip(*h))))
            assert group[gh] == tuple(sigma[t] for t in tau)


@pytest.mark.parametrize("name", FANO + (INTERLEAVED,))
def test_the_seidel_element_is_natural(presented, name):
    bad, checks = violations(presented[name])
    assert bad == []
    assert checks == len(sample(automorphisms(presented[name].polytope))) \
        * len(circles(presented[name].polytope))


# planted errors that depend on the facet labels of F_max; each returns
# F_max as `seidel_element` would then read it

def support_of_the_first_facet(poly, xi):
    """Every facet of F_max read as having the support of its first one,
    so K = sum a_i s_i becomes -m times that support."""
    fmax = fixed_maximum(poly, xi)
    return dataclasses.replace(fmax, K=-fmax.m * poly.support(min(fmax.facets)))


def weights_in_label_order(poly, xi):
    """The weights at F_max sorted onto its facets in label order."""
    fmax = fixed_maximum(poly, xi)
    return dataclasses.replace(fmax, weights=dict(zip(
        sorted(fmax.weights), sorted(fmax.weights.values()))))


@pytest.mark.parametrize("planted", [support_of_the_first_facet,
                                     weights_in_label_order],
                         ids=["support", "weights"])
def test_the_law_reports_a_value_read_by_label(presented, monkeypatch,
                                                planted):
    """The law sees an error that reads F_max by label where a symmetry
    reorders the labels at F_max between facets that differ in what is
    read.  In the corpus it cannot: the permutations of cp2, cp3 and cp4
    move facets of one support and one class, and the sign flips of
    blowup_cp2, s2xs2 and the cubes keep the label order."""
    monkeypatch.setattr(seidel, "fixed_maximum", planted)
    assert {name for name, qp in presented.items()
            if violations(qp)[0]} == {INTERLEAVED}


# ------------------------------------------------------------ the analyze law

def findings(poly, xi, qp):
    """The verdict, and each finding's rule, triggered and definitive flag."""
    report = analyze(poly, xi, qp)
    return report.verdict, [(f.rule, f.triggered, f.definitive)
                            for f in report.findings]


def analyze_violations(poly, qp, group):
    """The (g, xi), xi in [-1, 1]^n, at which `analyze` differs between g xi
    and xi, and the number of checks.  Each circle is analyzed once, so
    the whole group is checked, cube4's 16 elements and cp4's 120 too."""
    seen = {}

    def at(xi):
        if xi not in seen:
            seen[xi] = findings(poly, xi, qp)
        return seen[xi]

    bad, checks = [], 0
    for g, _ in group:
        for xi in itertools.product((-1, 0, 1), repeat=poly.n):
            if any(xi):
                checks += 1
                if at(apply(g, xi)) != at(xi):
                    bad.append((g, xi))
    return bad, checks


@pytest.mark.parametrize("name", FANO)
def test_analyze_is_invariant_without_quantum(name):
    poly = CORPUS[name][0].normalized
    group = automorphisms(poly)
    bad, checks = analyze_violations(poly, None, group)
    assert bad == []
    assert checks == len(group) * (3 ** poly.n - 1)


@pytest.mark.parametrize("name", [name for name in FANO
                                  if CORPUS[name][0].n <= 3])
def test_analyze_is_invariant_with_the_fano_presentation(presented, name):
    """The SD rule reads the Seidel element's valuation and leading term."""
    qp = presented[name]
    group = automorphisms(qp.polytope)
    bad, checks = analyze_violations(qp.polytope, qp, group)
    assert bad == []
    assert checks == len(group) * (3 ** qp.polytope.n - 1)
