"""Bundled example polytopes with their standard moment normalizations.

Each builder takes a rational size parameter `mu` and returns a mean
normalized polytope (centroid at the origin), with facet labels naming the
spherical classes of the facet preimages.
"""

from fractions import Fraction

from .errors import FileFormatError
from .polytope import validate_delzant


def s2(mu=Fraction(1)):
    """Sphere of total area mu: moment segment [-mu/2, mu/2]."""
    mu = Fraction(mu)
    if mu <= 0:
        raise FileFormatError("s2 requires mu > 0")
    return validate_delzant(
        [((1,), mu / 2, "pt"), ((-1,), mu / 2, "pt")], name="s2")


def cp2(mu=Fraction(1)):
    """Projective plane with line area mu; epsilon = mu/3 centers it."""
    mu = Fraction(mu)
    if mu <= 0:
        raise FileFormatError("cp2 requires mu > 0")
    eps = mu / 3
    return validate_delzant(
        [((-1, 0), eps, "L"),
         ((0, -1), eps, "L"),
         ((1, 1), mu - 2 * eps, "L")], name="cp2")


def blowup_cp2(mu=Fraction(1, 2)):
    """One-point blowup, exceptional area mu^2, line area 1.

    The trapezoid {u >= -eps, v >= -eps, mu^2 - 2eps <= u+v <= 1 - 2eps}
    with eps = (1-mu^6)/(3(1-mu^4)) has centroid zero.
    """
    mu = Fraction(mu)
    if not 0 < mu < 1:
        raise FileFormatError("blowup_cp2 requires 0 < mu < 1")
    eps = (1 - mu ** 6) / (3 * (1 - mu ** 4))
    return validate_delzant(
        [((-1, 0), eps, "B"),
         ((0, -1), eps, "B"),
         ((1, 1), 1 - 2 * eps, "L"),
         ((-1, -1), 2 * eps - mu ** 2, "E")], name="blowup_cp2")


def s2xs2(mu=Fraction(2)):
    """Product of spheres of areas mu and 1: the mu/2 x 1/2 box."""
    mu = Fraction(mu)
    if mu <= 0:
        raise FileFormatError("s2xs2 requires mu > 0")
    return validate_delzant(
        [((1, 0), mu / 2, "B"),
         ((-1, 0), mu / 2, "B"),
         ((0, 1), Fraction(1, 2), "A"),
         ((0, -1), Fraction(1, 2), "A")], name="s2xs2")


def hirzebruch2(mu=Fraction(2)):
    """Second toric structure on the product of spheres (projectivized
    degree-2 bundle); NEF but not Fano.  eps = mu/2 + 1/(6 mu) centers it.
    """
    mu = Fraction(mu)
    if mu <= 1:
        raise FileFormatError("hirzebruch2 requires mu > 1")
    eps = mu / 2 + Fraction(1, 6) / mu
    return validate_delzant(
        [((0, 1), Fraction(1, 2) + mu / 2 - eps, "A+B"),
         ((0, -1), eps + Fraction(1, 2) - mu / 2, "A-B"),
         ((1, -1), eps, "B"),
         ((-1, -1), eps, "B")], name="hirzebruch2")


BUILDERS = {
    "s2": s2,
    "cp2": cp2,
    "blowup_cp2": blowup_cp2,
    "s2xs2": s2xs2,
    "hirzebruch2": hirzebruch2,
}


def build(name, mu=None):
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise FileFormatError(
            f"unknown example {name!r}; choose from {sorted(BUILDERS)}")
    return builder() if mu is None else builder(mu)
