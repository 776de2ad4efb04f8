"""The benchmark corpus: ten mean-normalized Delzant polytopes and the
hirzebruch2 Y-table, built only through the public API."""

import json
import os
from fractions import Fraction

from toricqh import examples
from toricqh.cli import polytope_to_json
from toricqh.polytope import normalize, validate_delzant

BUNDLED = ("s2", "cp2", "blowup_cp2", "s2xs2", "hirzebruch2")

# smooth 12-gon: the square with its four corners blown up twice each;
# Betti numbers (1, 10, 1)
GON12_RAYS = ((1, 0), (2, 1), (1, 1), (1, 2), (0, 1), (-1, 1), (-1, 0),
              (-2, -1), (-1, -1), (-1, -2), (0, -1), (1, -1))
GON12_SUPPORTS = ("3", "13/2", "4", "13/2", "3", "5", "3", "13/2", "4",
                  "13/2", "3", "5")


def simplex(n):
    """CP^n: the standard simplex with every support 1/4."""
    specs = [(tuple(-1 if j == i else 0 for j in range(n)), Fraction(1, 4))
             for i in range(n)]
    specs.append(((1,) * n, Fraction(1, 4)))
    return normalize(validate_delzant(specs, name=f"cp{n}"))


def cube(n):
    """The box with support 1/2 + i/7 on both facets of axis i = 1..n."""
    specs = []
    for i in range(n):
        support = Fraction(1, 2) + Fraction(i + 1, 7)
        for sign in (1, -1):
            normal = tuple(sign if j == i else 0 for j in range(n))
            specs.append((normal, support))
    return normalize(validate_delzant(specs, name=f"cube{n}"))


def gon12():
    specs = [(ray, Fraction(s)) for ray, s in zip(GON12_RAYS, GON12_SUPPORTS)]
    return normalize(validate_delzant(specs, name="gon12"))


def build_polytopes():
    """Name -> polytope, in a fixed order."""
    polys = {name: normalize(examples.build(name)) for name in BUNDLED}
    polys["cp3"] = simplex(3)
    polys["cp4"] = simplex(4)
    polys["cube3"] = cube(3)
    polys["cube4"] = cube(4)
    polys["gon12"] = gon12()
    return polys


def hirzebruch2_y_table():
    """Facet unit lifts of hirzebruch2 at mu = 2 as explicit series terms up
    to the default cutoff 4 (1-based facet keys, full-variable monomials)."""
    terms2 = [{"m": [0, 1, 0, 0], "q": 0, "t": str(k), "c": "1"}
              for k in range(1, 5)]
    terms3 = [{"m": [0, 0, 1, 0], "q": 0, "t": "0", "c": "1"},
              {"m": [0, 0, 0, 1], "q": 0, "t": "0", "c": "-1"}] + \
             [{"m": [0, 1, 0, 0], "q": 0, "t": str(k), "c": "-1"}
              for k in range(1, 5)]
    return {"1": [], "2": terms2, "3": terms3, "4": terms3}


Y_TABLE_FILE = "hirzebruch2_y.json"


def write_corpus(directory, polys):
    """Write one JSON file per polytope plus the Y-table; return the
    name -> path map (the Y-table under Y_TABLE_FILE)."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name, poly in polys.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(polytope_to_json(poly), fh, indent=2)
    paths[Y_TABLE_FILE] = os.path.join(directory, Y_TABLE_FILE)
    with open(paths[Y_TABLE_FILE], "w") as fh:
        json.dump(hirzebruch2_y_table(), fh)
    return paths
