#!/usr/bin/env python3
"""Regenerate the product and Seidel tables for the bundled manifolds.

Runs the whole pipeline on each example: classical ring, quantum relations,
facet Seidel elements, a few distinguished circles, and the obstruction
battery.  Everything is exact; the output is the reference table the
acceptance suite pins down term by term.
"""

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from toricqh import examples  # noqa: E402
from toricqh.cli import homology_text, qclass_text  # noqa: E402
from toricqh.novikov import NovScalar  # noqa: E402
from toricqh.obstructions import analyze  # noqa: E402
from toricqh.quantum import (  # noqa: E402
    QClass,
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qprod,
)
from toricqh.seidel import (  # noqa: E402
    build_dictionary,
    facet_seidel,
    seidel_element,
    to_homology_report,
)

F = Fraction


def hirzebruch_y_table(cutoff, mu):
    one = NovScalar.one(cutoff)
    series = (one - NovScalar.monomial(1, 0, mu - 1, cutoff)).invert() - one
    g = series + one
    tmg = NovScalar.monomial(-1, 0, mu - 1, cutoff) * g
    x2, x3, x4 = (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
    minus = NovScalar.monomial(-1, 0, 0, cutoff)
    return {0: {},
            1: {x2: series},
            2: {x2: tmg},
            3: {x3: one, x4: minus, x2: tmg}}


def show(qp, title, circles):
    poly = qp.polytope
    print(f"== {title} (mode {qp.mode}, cutoff {qp.cutoff}, "
          f"hbar {qp.hbar})")
    print("   quantum relations:")
    for p in qp.ring.prims:
        lhs = "*".join(f"x{i + 1}" for i in p.indices)
        rhs = qclass_text(QClass(qp.corrections[p.key], qp.cutoff), qp.ring)
        print(f"     {lhs} = {rhs}")
    dictionary = build_dictionary(qp)
    print("   facet Seidel elements (homology):")
    for i in range(poly.num_facets):
        rep = to_homology_report(dictionary, facet_seidel(qp, i).qclass, qp)
        print(f"     S(facet {i + 1}) = {homology_text(rep)}")
    for xi in circles:
        element = seidel_element(qp, xi)
        rep = to_homology_report(dictionary, element.qclass, qp)
        print(f"   S(xi={list(xi)}) = {homology_text(rep)}")
        report = analyze(poly, xi, qp)
        rules = ", ".join(report.triggered_rules()) or "none"
        print(f"     battery: {report.verdict} (rules: {rules})")
    print()


def product_table(qp, names):
    dictionary = build_dictionary(qp)
    classes = {}
    for name, expr in names.items():
        from toricqh.cli import lift_expression
        classes[name] = lift_expression(qp, expr)
    classes["p"] = dictionary.point_lift
    print("   products (homology):")
    done = set()
    for a in classes:
        for b in classes:
            if (b, a) in done:
                continue
            done.add((a, b))
            rep = to_homology_report(dictionary,
                                     qprod(classes[a], classes[b], qp), qp)
            print(f"     {a} * {b} = {homology_text(rep)}")
    print()


def main():
    blow = fano_presentation(examples.blowup_cp2(F(1, 2)))
    show(blow, "one-point blowup of the projective plane, mu = 1/2",
         [(-1, 0), (1, 0), (-2, -1)])
    product_table(blow, {"B": "x1", "L": "x3", "E": "x4"})

    square = fano_presentation(examples.s2xs2(F(2)))
    show(square, "product of spheres, mu = 2", [(1, 1), (1, 0), (1, 2)])
    product_table(square, {"A": "x3", "B": "x1"})

    cp2 = fano_presentation(examples.cp2())
    show(cp2, "projective plane", [(-1, -1), (2, 1)])

    poly = examples.hirzebruch2(F(2))
    qp = nef_presentation(poly, hirzebruch_y_table(default_cutoff(poly),
                                                   F(2)))
    show(qp, "projectivized degree-2 bundle, mu = 2",
         [(0, 1), (0, -1), (1, -1), (1, 2)])


if __name__ == "__main__":
    main()
