"""Circles known to be contractible in Ham(M, omega), from the polytope's
root system: S(xi) = 1 on them, and no rule of the battery may call them
essential.

Facets (i, j) are a root pair when some m in Z^n has <m, eta_i> = 1,
<m, eta_j> = -1 and <m, eta_k> = 0 on every other facet k, and their mean
normalized supports agree.  Then +-m are Demazure roots, the reflection
x -> x - <x, eta_i - eta_j> m maps the polytope to itself, and the compact
form of the SL(2) the two roots generate acts on (M, omega) with the
coroot circle eta_i - eta_j in its maximal torus (Demazure, Ann. Sci. ENS
3, 1970; Oda, Convex Bodies and Algebraic Geometry, 3.4).  For a compact
connected group with maximal torus T, pi_1 = Z^n / Q^v, Q^v the coroot
lattice, so every xi in Q^v is contractible in that group, hence in Ham,
and the Seidel representation sends it to 1.

The root pairs are found by solving those equations exactly, with no
search over m, and Q^v by an integer echelon of the coroots.  The
hirzebruch2 coroot circles +-(2, 0) in NEF mode are the strict xfail of
`test_obstructions.py`, the precision defect of ROADMAP item 1.
"""

import functools
import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings

from cases import GON12_POLY, box, box_vectors, simplex, smooth_polytopes
from toricqh import examples
from toricqh.obstructions import analyze
from toricqh.polytope import normalize, validate_delzant
from toricqh.quantum import fano_presentation
from toricqh.seidel import seidel_element

F = Fraction

# name -> (mean normalized polytope, the box radius of the circles tried)
CORPUS = {
    "cp2": (normalize(examples.build("cp2")), 3),
    "blowup_cp2": (normalize(examples.build("blowup_cp2")), 3),
    "s2xs2": (normalize(examples.build("s2xs2")), 3),
    "cp3": (simplex(3), 2),
    "cube3": (box(3), 2),
    "cp4": (simplex(4), 1),
    "cube4": (box(4), 1),
    "hirzebruch2": (normalize(examples.build("hirzebruch2")), 2),
    "gon12": (normalize(GON12_POLY), 2),
}


# ----------------------------------------------- roots and the coroot lattice

def solve(rows, rhs):
    """The x with rows . x = rhs, by exact Gauss-Jordan elimination, for
    rows of full column rank; None when the system has no solution."""
    n = len(rows[0])
    table = [[F(a) for a in row] + [F(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next(k for k in range(col, len(table)) if table[k][col])
        table[col], table[pivot] = table[pivot], table[col]
        table[col] = [a / table[col][col] for a in table[col]]
        for k, row in enumerate(table):
            if k != col and row[col]:
                table[k] = [a - row[col] * b for a, b in zip(row, table[col])]
    if any(row[-1] for row in table[n:]):
        return None
    return tuple(row[-1] for row in table[:n])


def root_pairs(poly):
    """[(i, j, m)] for every ordered root pair of the mean normalized
    polytope poly, m the integer solution of its equations."""
    normals = [facet.normal for facet in poly.facets]
    pairs = []
    for i, j in itertools.permutations(range(len(normals)), 2):
        if poly.support(i) != poly.support(j):
            continue
        m = solve(normals, [(k == i) - (k == j) for k in range(len(normals))])
        if m is not None and all(x.denominator == 1 for x in m):
            pairs.append((i, j, tuple(map(int, m))))
    return pairs


def integer_echelon(vectors, n):
    """((pivot column, row), ...) spanning the integer span of `vectors`:
    each row is 0 left of its pivot, positive at it, and the pivots
    increase.  Euclid's algorithm runs on each column in turn."""
    rows, echelon = [list(v) for v in vectors], []
    for col in range(n):
        live = [row for row in rows if row[col]]
        rows = [row for row in rows if not row[col]]
        while len(live) > 1:
            live.sort(key=lambda row: abs(row[col]))
            pivot, rest = live[0], []
            for row in live[1:]:
                q = row[col] // pivot[col]
                row = [a - q * b for a, b in zip(row, pivot)]
                (rest if row[col] else rows).append(row)
            live = [pivot] + rest
        if live:
            row = live[0]
            echelon.append((col, row if row[col] > 0 else [-a for a in row]))
    return echelon


def in_lattice(v, echelon):
    v = list(v)
    for col, row in echelon:
        q, r = divmod(v[col], row[col])
        if r:
            return False
        v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def coroot_lattice(poly):
    return integer_echelon(
        [[a - b for a, b in zip(poly.normal(i), poly.normal(j))]
         for i, j, _ in root_pairs(poly)], poly.n)


def coroot_circles(poly, radius):
    echelon = coroot_lattice(poly)
    return [xi for xi in box_vectors(poly.n, radius)
            if in_lattice(xi, echelon)]


@functools.lru_cache(maxsize=None)
def fano(name):
    return fano_presentation(CORPUS[name][0])


# ---------------------------------------------------------- self-checks

@pytest.mark.parametrize("name, index", [
    ("cp2", 3), ("cp3", 4), ("cp4", 5), ("s2xs2", 4), ("cube3", 8),
    ("cube4", 16)])
def test_the_coroot_lattice_has_the_index_of_pi_1(name, index):
    """|Z^n / Q^v| is n + 1 on CP^n, as pi_1(PU(n + 1)) = Z/(n + 1), and
    2^n on the products of spheres, as for SO(3)^n."""
    echelon = coroot_lattice(CORPUS[name][0])
    assert len(echelon) == CORPUS[name][0].n
    assert prod(row[col] for col, row in echelon) == index


def test_the_root_equations_hold_and_roots_come_in_pairs():
    for name, (poly, _) in CORPUS.items():
        pairs = root_pairs(poly)
        for i, j, m in pairs:
            assert [sum(a * b for a, b in zip(m, f.normal))
                    for f in poly.facets] == \
                [(k == i) - (k == j) for k in range(poly.num_facets)]
            assert (j, i, tuple(-x for x in m)) in pairs, name
    # the fibre facets of hirzebruch2, supports 13/12; none on the 12-gon
    hirzebruch2 = CORPUS["hirzebruch2"][0]
    assert root_pairs(hirzebruch2) == [(2, 3, (1, 0)), (3, 2, (-1, 0))]
    assert [hirzebruch2.support(i) for i in (2, 3)] == [F(13, 12)] * 2
    assert root_pairs(CORPUS["gon12"][0]) == []


# ------------------------------------------------------------------- the law

@pytest.mark.parametrize("name, count", [
    ("cp2", 16), ("blowup_cp2", 6), ("s2xs2", 8), ("cp3", 30),
    ("cube3", 26), ("cp4", 18), ("cube4", 0)])
def test_a_coroot_circle_has_seidel_element_one_and_no_rule_fires(
        name, count):
    """On these boxes the kernel of the Fano Seidel map is exactly Q^v: 1
    on every coroot circle, and not 1 on the others."""
    poly, radius = CORPUS[name]
    circles = coroot_circles(poly, radius)
    assert len(circles) == count
    if not circles:
        return
    qp = fano(name)
    for xi in circles:
        assert seidel_element(qp, xi).qclass == qp.one(), (name, xi)
        report = analyze(poly, xi, qp)
        assert report.triggered_rules() == [], (name, xi)
        assert report.verdict == "inconclusive"
    for xi in set(box_vectors(poly.n, radius)) - set(circles):
        assert seidel_element(qp, xi).qclass != qp.one(), (name, xi)


@pytest.mark.parametrize("name, count", [("hirzebruch2", 2), ("gon12", 0)])
def test_no_classical_rule_fires_on_a_coroot_circle(name, count):
    poly, radius = CORPUS[name]
    circles = coroot_circles(poly, radius)
    assert len(circles) == count
    for xi in circles:
        assert analyze(poly, xi, None).triggered_rules() == [], (name, xi)


@settings(max_examples=100, deadline=None)
@given(specs=smooth_polytopes())
def test_no_classical_rule_fires_on_a_coroot_circle_of_a_drawn_polytope(
        specs):
    poly = normalize(validate_delzant(specs))
    for xi in coroot_circles(poly, 2 if poly.n < 4 else 1):
        assert analyze(poly, xi, None).triggered_rules() == [], xi
