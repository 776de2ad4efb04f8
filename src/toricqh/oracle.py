"""Independent brute-force verifiers, runnable from tests and the CLI.

Checks that exercise truncated series compare products only down to the
boundary window (cutoff minus the negative valuation involved), which is the
sharpest guarantee a truncated computation can make; untruncated data is
compared exactly.
"""

import random
from fractions import Fraction

from .actions import fixed_maximum
from .cohomology import betti_morse, generic_vector
from .errors import NonGenericVector, ToricError
from .novikov import NovScalar
from .polynomials import mono_degree
from .quantum import (
    QClass,
    classical_limit_defect,
    qpoly_add,
    qpoly_atoms,
    qpoly_from_poly,
    qpoly_scale,
    qprod,
    qsub,
    quantum_nf,
)
from .seidel import facet_product, facet_seidel, seidel_element

DEFAULT_SEED = 7193


def _basis_classes(qp):
    one = NovScalar.one(qp.cutoff)
    return [QClass({m: one}, qp.cutoff)
            for m in qp.ring.standard_monomials]


def _agree(qp, a, b):
    """Exact equality, except that truncated values are only compared above
    the boundary window that the truncation cannot determine."""
    diff = qsub(a, b)
    if diff.is_zero():
        return True
    if not (a.truncated or b.truncated):
        return False
    vals = [z.valuation() for z in (a, b) if not z.is_zero()]
    slack = max([Fraction(0)] + [-v for v in vals if v < 0])
    return diff.valuation() > qp.cutoff - slack


def check_associativity(qp):
    """Violations of (a*b)*c = a*(b*c) over all standard basis triples."""
    violations = []
    basis = _basis_classes(qp)
    try:
        pair = {}
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                pair[(i, j)] = qprod(a, b, qp)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                for k, c in enumerate(basis):
                    left = qprod(pair[(i, j)], c, qp)
                    right = qprod(a, pair[(j, k)], qp)
                    if not _agree(qp, left, right):
                        violations.append({
                            "triple": (qp.ring.standard_monomials[i],
                                       qp.ring.standard_monomials[j],
                                       qp.ring.standard_monomials[k])})
    except ToricError as err:
        violations.append({"error": f"{type(err).__name__}: {err}"})
    return violations


def _random_xi(rng, n):
    while True:
        xi = tuple(rng.randint(-2, 2) for _ in range(n))
        if any(xi):
            return xi


def check_homomorphism(qp, trials=20, seed=DEFAULT_SEED):
    """Violations of S(xi1 + xi2) = S(xi1) * S(xi2) on random directions."""
    rng = random.Random(seed)
    poly = qp.polytope
    violations = []
    for _ in range(trials):
        xi1 = _random_xi(rng, poly.n)
        xi2 = _random_xi(rng, poly.n)
        total = tuple(a + b for a, b in zip(xi1, xi2))
        product = qprod(seidel_element(qp, xi1).qclass,
                        seidel_element(qp, xi2).qclass, qp)
        if any(total):
            expected = seidel_element(qp, total).qclass
        else:
            expected = qp.one()
        if not _agree(qp, product, expected):
            violations.append({"xi1": xi1, "xi2": xi2})
    return violations


def check_inverse_law(qp, trials=10, seed=DEFAULT_SEED):
    """Violations of S(xi) * S(-xi) = 1 on random directions."""
    rng = random.Random(seed + 1)
    poly = qp.polytope
    violations = []
    for _ in range(trials):
        xi = _random_xi(rng, poly.n)
        product = qprod(seidel_element(qp, xi).qclass,
                        seidel_element(qp, tuple(-x for x in xi)).qclass, qp)
        if not _agree(qp, product, qp.one()):
            violations.append({"xi": xi})
    return violations


def check_vertex_independence(qp, trials=6, seed=DEFAULT_SEED):
    """The Seidel element must not depend on which vertex decomposes xi.

    Fano mode checks every vertex against the element with no inverse: the
    facet elements to the positive coordinates there must equal S(xi) times
    those to the negated negative coordinates.  NEF mode compares every
    vertex's product with vertex 0's."""
    rng = random.Random(seed + 2)
    poly = qp.polytope
    violations = []
    for _ in range(trials):
        xi = _random_xi(rng, poly.n)
        table = [poly.coordinates(vid, xi)
                 for vid in range(len(poly.vertices))]
        if qp.mode == "fano":
            element = seidel_element(qp, xi).qclass
            for vid, coords in enumerate(table):
                plus = facet_product(
                    qp, {i: a for i, a in coords.items() if a > 0})
                minus = facet_product(
                    qp, {i: -a for i, a in coords.items() if a < 0})
                if not _agree(qp, plus, qprod(element, minus, qp)):
                    violations.append({"xi": xi, "vertex": vid})
        else:
            reference = facet_product(qp, table[0])
            for vid, coords in enumerate(table[1:], 1):
                if not _agree(qp, facet_product(qp, coords), reference):
                    violations.append({"xi": xi, "vertex": vid})
    return violations


def check_classical_limit(qp):
    """Quantum minus classical product of degree-2 basis classes has
    valuation at least hbar."""
    one = NovScalar.one(qp.cutoff)
    deg2 = [QClass({m: one}, qp.cutoff)
            for m in qp.ring.standard_monomials if mono_degree(m) == 1]
    for a in deg2:
        for b in deg2:
            defect = classical_limit_defect(a, b, qp)
            if defect is not None and defect < qp.hbar:
                return False
    return True


def check_grading_and_betti(poly, qp):
    """All relation corrections homogeneous, products degree-additive, and
    the algebraic Betti numbers agree with the Morse count."""
    for key, delta in qp.corrections.items():
        lead_deg = 2 * len(key)
        for m, d, _, _ in qpoly_atoms(delta):
            if 2 * mono_degree(m) + 2 * d != lead_deg:
                return False
    basis = _basis_classes(qp)
    for a in basis:
        for b in basis:
            prod = qprod(a, b, qp)
            if prod.is_zero():
                continue
            if prod.degree() != a.degree() + b.degree():
                return False
    try:
        morse = betti_morse(poly, generic_vector(poly))
    except NonGenericVector:
        return False
    return morse == qp.ring.betti


def check_relations_vanish(qp):
    """Every quantum Stanley-Reisner generator reduces to zero."""
    violations = []
    for p in qp.prims:
        lead = qpoly_from_poly(qp.ring.substitute(qp.ring.sr_gens[p.key]),
                               qp.cutoff)
        minus = NovScalar.monomial(-1, 0, 0, qp.cutoff)
        gen = qpoly_add(lead, qpoly_scale(qp.corrections[p.key], minus))
        if not quantum_nf(gen, qp).is_zero():
            violations.append({"primitive": sorted(p.indices)})
    return violations


def check_leading_terms(qp):
    """Leading exponents of every facet circle match the moment data."""
    violations = []
    poly = qp.polytope
    for i in range(poly.num_facets):
        el = facet_seidel(qp, i)
        fmax = fixed_maximum(poly, poly.normal(i))
        if el.qclass.valuation() != -fmax.K:
            violations.append({"facet": i + 1})
            continue
        lead = el.qclass.slice_at(-fmax.K)
        if any(d != fmax.m for (_, d) in lead):
            violations.append({"facet": i + 1})
    return violations


def verify_all(poly, qp, trials=20, seed=DEFAULT_SEED):
    """The whole battery; the report records the seed for reproducibility."""
    report = {
        "seed": seed,
        "associativity_violations": check_associativity(qp),
        "homomorphism_violations": check_homomorphism(qp, trials, seed),
        "inverse_violations": check_inverse_law(qp, max(4, trials // 2),
                                                seed),
        "vertex_independence_violations": check_vertex_independence(
            qp, max(3, trials // 4), seed),
        "relation_violations": check_relations_vanish(qp),
        "leading_term_violations": check_leading_terms(qp),
        "classical_limit_ok": check_classical_limit(qp),
        "grading_and_betti_ok": check_grading_and_betti(poly, qp),
    }
    report["ok"] = (not report["associativity_violations"]
                    and not report["homomorphism_violations"]
                    and not report["inverse_violations"]
                    and not report["vertex_independence_violations"]
                    and not report["relation_violations"]
                    and not report["leading_term_violations"]
                    and report["classical_limit_ok"]
                    and report["grading_and_betti_ok"])
    return report
