"""Seidel elements of torus subcircles, leading-term verification, and the
geometric dictionary used for homology-flavored reporting.

Everything internal is in cohomology orientation; reports flip the Novikov
exponents termwise, once each, after sorting on the unflipped (kappa, d).

A Seidel call keeps its circle bookkeeping in integers: F_max, its
weights and m come from `actions.fixed_maximum`, whose K is the one
Fraction of the circle; Fano mode lifts x^a, an exponent tuple with int
coefficient 1, at the shift (m, -K), and `verify_leading_term` forms -K
and x_F once.  The dictionary identifies degree-0 and degree-2 classes
with named facet classes in every dimension, and lifts the point class in
dimension two, where a Seidel element of an eligible vertex determines it.

The facet elements S(eta_i), their inverses, the chains of their powers and
the dictionary are cached on the presentation, a value: each entry is
computed once and never rebuilt.  A `GeometricDictionary` is a value too,
built whole by `build_dictionary`; it derives its decode data from its
fields when it is made.  A `HomologyReport` is a frozen value as well.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import itemgetter

from .actions import _check_xi, fixed_maximum
from .errors import (
    DegenerateRing,
    DictionaryIncomplete,
    ElementMismatch,
    LeadingFaceMismatch,
    MissingYEntry,
    NoEligibleVertex,
    PointLiftUnnormalized,
    WrongDegree,
)
from .novikov import NovScalar
from .polynomials import mono_degree, monomial
from .polytope import edge_classes_through
from .quantum import (
    QClass,
    _lift,
    qinv,
    qprod,
    qscale,
    quantum_nf,
    qpoly_scale,
)


@dataclass(frozen=True, slots=True)
class SeidelElement:
    qclass: QClass
    xi: tuple
    mode: str
    leading_face: frozenset  # facets of F_max
    m_max: int
    K_max: Fraction
    semifree: bool  # whether every weight at F_max is +-1


# --------------------------------------------------------------- the elements

def facet_seidel(qp, i):
    """Seidel element of the circle normal to facet i (0-based), cached.

    In Fano mode it is `seidel_element` of the facet normal eta_i, whose
    maximum is facet i with weight -1 and K = support_i: the lift of
    x_i q^-1 t^-support_i.  NEF mode reads Y_i q^-1 t^-support_i off the
    Y-table.  Its inverse and powers are cached by `facet_power`."""
    key = ("facet_seidel", i)
    if key in qp._cache:
        return qp._cache[key]
    poly = qp.polytope
    if qp.mode == "fano":
        element = seidel_element(qp, poly.normal(i))
    else:
        if qp.y_classes is None or i not in qp.y_classes:
            raise MissingYEntry(f"no Y entry for facet {i + 1}")
        support = poly.support(i)
        shifted = qpoly_scale(qp.y_classes[i],
                              NovScalar.monomial(1, -1, -support, qp.cutoff))
        element = SeidelElement(
            qclass=quantum_nf(shifted, qp), xi=poly.normal(i), mode=qp.mode,
            leading_face=frozenset({i}), m_max=-1, K_max=support,
            semifree=True)
    qp._cache[key] = element
    return element


def _facet_seidel_inverse(qp, i):
    """S(eta_i)^-1, cached."""
    key = ("facet_seidel_inv", i)
    if key not in qp._cache:
        qp._cache[key] = qinv(facet_seidel(qp, i).qclass, qp)
    return qp._cache[key]


def facet_power(qp, i, a):
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
            else _facet_seidel_inverse(qp, i)
        powers = list(powers) or [qp.one()]
        while len(powers) <= k:
            powers.append(qprod(powers[-1], base, qp))
        powers = qp._cache[key] = tuple(powers)
    return powers[k]


def facet_product(qp, coords):
    """The product of S(eta_i)^a_i over the coordinates {i: a_i} of a
    direction at one vertex: the cached power of the first nonzero
    coordinate, times one cached power per further coordinate."""
    out = None
    for i, a in coords.items():
        if a:
            power = facet_power(qp, i, a)
            out = power if out is None else qprod(out, power, qp)
    return qp.one() if out is None else out


def seidel_element(qp, xi):
    """Seidel element of the circle with integer direction xi, the product
    of the facet elements over a decomposition of xi at one vertex; the
    result is independent of that choice (checked by the oracle suite).

    F_max, its weights, m and K come from `actions.fixed_maximum`, one
    integer argmax of <xi, .> over the vertices; no other fixed component
    is built.  Fano mode decomposes at F_max, where the coordinates are
    minus the weights, all positive: S(xi) is one normal form of
    x^a q^m t^-K, with no inverse, and exact to the cutoff since reduction
    only raises t-exponents.  NEF mode multiplies out the decomposition at
    vertex 0 with `facet_product`, from the cached facet powers.  xi is
    checked by `fixed_maximum`."""
    poly = qp.polytope
    fmax = fixed_maximum(poly, xi)
    xi = tuple(xi)
    if qp.mode == "fano":
        x_a = monomial({i: -w for i, w in fmax.weights.items()},
                       poly.num_facets)
        out = _lift(qp, [((x_a, fmax.m, -fmax.K), 1)], False)
    else:
        out = facet_product(qp, poly.coordinates(0, xi))
    if out.degree() != 0:
        raise WrongDegree(f"the Seidel element of {xi} has degree "
                          f"{out.degree()}, not zero")
    return SeidelElement(qclass=out, xi=xi, mode=qp.mode,
                         leading_face=fmax.facets, m_max=fmax.m, K_max=fmax.K,
                         semifree=fmax.semifree)


# ------------------------------------------------------------- leading terms

def verify_leading_term(qp, xi, element=None):
    """Check the minimal-valuation part of the Seidel element against the
    maximal fixed component, read off the element, and assert exactness
    where a sufficient criterion applies.  Returns (ok, report dict).  An
    element passed in must be that of xi in the mode of qp, or
    ElementMismatch is raised."""
    poly = qp.polytope
    xi = _check_xi(xi, poly.n)
    if element is None:
        element = seidel_element(qp, xi)
    elif element.xi != xi or element.mode != qp.mode:
        raise ElementMismatch(f"the element of {element.xi} in {element.mode}"
                              f" mode, passed for {xi} in {qp.mode} mode")
    face = poly.faces[element.leading_face]
    m_max, K_max = element.m_max, element.K_max
    minus_k = -K_max
    report = {"f_max": sorted(face.facets), "m_max": m_max, "K_max": K_max,
              "assumptions": [], "exactness": None, "exact_ok": None}
    x_face = monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    lead_ok = element.qclass.valuation() == minus_k
    if lead_ok:
        lead_ok = element.qclass.slice_at(minus_k) == {
            (m, m_max): c for m, c in qp.ring.monomial_nf(x_face).items()}
    report["leading_ok"] = lead_ok

    # exactness criteria
    exact_expected = None
    codim = 2 * (poly.n - face.dim)
    if qp.mode == "fano" and face.dim == poly.n - 1:
        exact_expected = _lift(qp, [((x_face, m_max, minus_k), 1)], False)
        report["exactness"] = "fano facet maximum"
        report["assumptions"].append("fano asserted by caller")
    else:
        edges = edge_classes_through(poly, face)
        if element.semifree and all(2 * b.c1() >= codim for _, b in edges):
            report["exactness"] = "semifree maximum, all edge classes have " \
                                  "2c1 >= codim"
            report["assumptions"].append(
                "sphere classes checked on toric edge classes only")
            report["assumptions"].append(f"{qp.mode} asserted by caller")
            if face.dim == poly.n - 1:
                exact_expected = qscale(
                    _lift(qp, [((x_face, 0, 0), 1)], False),
                    NovScalar.monomial(1, m_max, minus_k, qp.cutoff))
            elif face.dim == 0 and poly.n <= 2:
                dictionary = build_dictionary(qp)
                exact_expected = qscale(
                    dictionary.point_lift,
                    NovScalar.monomial(1, m_max, minus_k, qp.cutoff))
            else:
                report["assumptions"].append(
                    "no geometric lift available for a middle-dimensional "
                    "maximum; exactness not checked")
    if exact_expected is not None:
        report["exact_ok"] = element.qclass == exact_expected
    ok = bool(report["leading_ok"]) and report["exact_ok"] is not False
    return ok, report


# ---------------------------------------------------------------- dictionary

@dataclass(frozen=True)
class GeometricDictionary:
    """Named classes, and the decode data `to_homology_report` reads,
    derived from the fields when the dictionary is made: the inverse of the
    point lift's coefficient at `top`, and (facet, image, probe,
    1 / coefficient) per nonempty facet image."""
    n: int
    labels: tuple  # display name per facet
    facet_images: tuple  # kept-variable polynomial per facet class
    point_lift: QClass = None
    point_vertex: tuple = None  # facet set of the eligible vertex
    point_xi: tuple = None
    top: tuple = None  # the standard monomial of degree two, when unique
    point_inverse: NovScalar = field(init=False, repr=False, compare=False)
    probes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "point_inverse",
            self.point_lift.coeffs[self.top].invert()
            if self.has_point() and self.top is not None else None)
        object.__setattr__(self, "probes", tuple(
            (i, image, probe, Fraction(1) / c)
            for i, image in enumerate(self.facet_images)
            if image for probe, c in [next(iter(image.items()))]))

    def has_point(self):
        return self.point_lift is not None


def _facet_label(poly, i):
    return poly.facets[i].label or f"[D{i + 1}]"


def build_dictionary(qp):
    """Names for degree 0 and 2 classes in any dimension; in dimension two,
    also the quantum lift of the point class, stripped from the Seidel
    element of an eligible semifree vertex maximum."""
    if "dictionary" in qp._cache:
        return qp._cache["dictionary"]
    poly = qp.polytope
    ring = qp.ring
    point = point_vertex = point_xi = None
    if poly.n == 2:
        for vid in range(len(poly.vertices)):
            vertex_face = poly.face(poly.vertex_facets(vid))
            xi = tuple(sum(poly.normal(i)[k] for i in vertex_face.facets)
                       for k in range(poly.n))
            edges = edge_classes_through(poly, vertex_face)
            if not all(b.c1() >= 2 for _, b in edges):
                continue
            element = seidel_element(qp, xi)
            if element.leading_face != vertex_face.facets \
                    or not element.semifree:
                raise LeadingFaceMismatch(
                    f"the circle {xi} should have the vertex "
                    f"{sorted(vertex_face.facets)} as a semifree maximum")
            point = qscale(element.qclass,
                           NovScalar.monomial(1, -element.m_max,
                                              element.K_max, qp.cutoff))
            classical = {m: s.terms[(0, Fraction(0))]
                         for m, s in point.coeffs.items()
                         if (0, Fraction(0)) in s.terms}
            pairing = ring.integrate(classical)
            if pairing != 1:
                raise PointLiftUnnormalized(
                    f"the point lift from the Seidel element of {xi} pairs "
                    f"to {pairing}, not 1, at cutoff {qp.cutoff}")
            point_vertex = tuple(sorted(vertex_face.facets))
            point_xi = xi
            break
        else:
            raise NoEligibleVertex(
                "no vertex is a semifree maximum with all edge classes of "
                "first Chern number at least 2")
    top = [m for m in ring.standard_monomials if mono_degree(m) == 2]
    dictionary = qp._cache["dictionary"] = GeometricDictionary(
        n=poly.n,
        labels=tuple(_facet_label(poly, i) for i in range(poly.num_facets)),
        facet_images=tuple(ring.var(i) for i in range(poly.num_facets)),
        top=top[0] if len(top) == 1 else None, point_lift=point,
        point_vertex=point_vertex, point_xi=point_xi)
    return dictionary


# ------------------------------------------------------------------- reports

@dataclass(frozen=True, slots=True)
class HomologyReport:
    """Named-class expression with homology-oriented exponents."""
    entries: tuple  # (name, coefficient, q exponent, t exponent), hom flip
    raw: tuple  # ((monomial, d, kappa, coeff), ...) undecomposed leftovers
    truncated: bool
    cutoff: Fraction


def to_homology_report(dictionary, qclass, qp):
    """Rewrite a quantum class over {unit, facet classes, point lift} and
    flip the Novikov exponents to the homology orientation.  What does not
    depend on the class is read off the dictionary; no zero is made."""
    n = dictionary.n
    if n > 2 and any(mono_degree(m) > 1 and not s.is_zero()
                     for m, s in qclass.coeffs.items()):
        raise DictionaryIncomplete(
            "degree-4 and higher classes have no geometric names beyond "
            "dimension two")
    work = {m: s for m, s in qclass.coeffs.items() if not s.is_zero()}
    named = []  # (name, scalar), flipped at the end

    # point part (top degree): only decodable with a point lift
    if n == 2 and dictionary.has_point() and any(
            mono_degree(m) > 1 for m in work):
        if dictionary.top is None:
            raise DegenerateRing("top cohomology is not one dimensional")
        gamma = work.get(dictionary.top)
        if gamma is not None:
            gamma = gamma * dictionary.point_inverse
            named.append(("p", gamma))
            for m, s in dictionary.point_lift.coeffs.items():
                res = work[m] - gamma * s if m in work else -(gamma * s)
                if res.is_zero():
                    work.pop(m, None)
                else:
                    work[m] = res
    # degree two: prefer a single facet class, else the kept facet classes
    deg2 = {m: s for m, s in work.items() if mono_degree(m) == 1}
    if deg2:
        for i, image, probe, ratio in dictionary.probes:
            if deg2.keys() != image.keys():  # the probe is a key of image
                continue
            gamma = deg2[probe].scale(ratio)  # neither side holds a zero
            if all(deg2[m] == gamma.scale(c) for m, c in image.items()
                   if m != probe):
                named.append((dictionary.labels[i], gamma))
                for m in image:
                    work.pop(m, None)
                break
        else:
            for m, s in sorted(deg2.items()):
                named.append((dictionary.labels[qp.ring.kept[m.index(1)]], s))
                work.pop(m, None)
    # unit part
    unit = (0,) * qp.ring.width
    if unit in work:
        named.append(("1", work.pop(unit)))
    raw = [(m, d, kappa, c) for m, s in sorted(work.items())
           for (d, kappa), c in s.sorted_terms()]
    # sorted on the unflipped (level, d, name), all on one grid
    den = lcm(*(s.den for _, s in named))
    entries = sorted(((level * (den // s.den), d, name, c) for name, s in named
                      for (d, level), c in s.levels.items()),
                     key=itemgetter(0, 1, 2))
    return HomologyReport(entries=tuple((name, Fraction(c), -d,
                                         Fraction(-level, den))
                                        for level, d, name, c in entries),
                          raw=tuple(raw),
                          truncated=qclass.truncated, cutoff=qclass.cutoff)
