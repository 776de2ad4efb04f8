"""Seidel elements of torus subcircles, leading-term verification, and the
geometric dictionary used for homology-flavored reporting.

Everything internal is in cohomology orientation; reports flip the Novikov
exponents termwise.  The dictionary identifies degree-0 and degree-2 classes
with named facet classes in every dimension, and lifts the point class in
dimension two, where a Seidel element of an eligible vertex determines it.

The facet elements S(eta_i), their inverses and the chains of their powers
are cached on the presentation.  An inverse or a power chain records the
element it was built from and is rebuilt when that element is replaced.
"""

from dataclasses import dataclass
from fractions import Fraction

from .actions import fixed_maximum
from .errors import (
    DegenerateRing,
    DictionaryIncomplete,
    LeadingFaceMismatch,
    MissingYEntry,
    NoEligibleVertex,
    PointLiftUnnormalized,
    WrongDegree,
)
from .novikov import NovScalar
from .polynomials import mono_degree, poly_monomial
from .polytope import edge_class
from .quantum import (
    QClass,
    lift,
    qinv,
    qprod,
    qscale,
    qsub,
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


def edge_classes_through(poly, face):
    """Classes of the edges meeting a face (including edges inside it),
    each computed once per polytope by `edge_class`: the edges at a vertex
    v are its facet set minus one facet, ordered here by (first vertex,
    sorted facets)."""
    keys = {vf - {i} for vf in map(poly.vertex_facets, face.vertex_ids)
            for i in vf}
    edges = sorted(map(poly.faces.__getitem__, keys),
                   key=lambda e: (e.vertex_ids[0], sorted(e.facets)))
    return [(e, edge_class(poly, e)) for e in edges]


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
    """S(eta_i)^-1, cached with the facet element it inverts and rebuilt
    when that element is replaced."""
    element = facet_seidel(qp, i).qclass
    key = ("facet_seidel_inv", i)
    entry = qp._cache.get(key)
    if entry is None or entry[0] is not element:
        entry = qp._cache[key] = (element, qinv(element, qp))
    return entry[1]


def facet_power(qp, i, a):
    """S(eta_i)^a for a nonzero integer a, cached.

    The powers of one sign are built as `qpow` builds them: from the unit
    up, each the product of the one below with the base, S(eta_i) or its
    inverse.  The entry is (base, (base^0, base^1, ...)).  It is rebuilt
    when the base is replaced, and a longer chain is written as a new
    entry, never appended to the cached one."""
    base = facet_seidel(qp, i).qclass if a > 0 \
        else _facet_seidel_inverse(qp, i)
    key = ("facet_power", i, a > 0)
    entry = qp._cache.get(key)
    powers = entry[1] if entry is not None and entry[0] is base \
        else (qp.one(),)
    k = abs(a)
    if k >= len(powers):
        powers = list(powers)
        while len(powers) <= k:
            powers.append(qprod(powers[-1], base, qp))
        qp._cache[key] = (base, tuple(powers))
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
    vertex 0 with `facet_product`, from the cached facet powers.  An entry
    of xi that is not an int raises NonIntegralCoefficient."""
    poly = qp.polytope
    fmax = fixed_maximum(poly, xi)
    xi = tuple(xi)
    if qp.mode == "fano":
        x_a = poly_monomial({i: -w for i, w in fmax.weights.items()},
                            poly.num_facets)
        out = lift(qp, {(m, fmax.m, -fmax.K): c for m, c in x_a.items()})
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
    where a sufficient criterion applies.  Returns (ok, report dict)."""
    poly = qp.polytope
    if element is None:
        element = seidel_element(qp, xi)
    face = poly.faces[element.leading_face]
    m_max, K_max = element.m_max, element.K_max
    report = {
        "f_max": sorted(face.facets),
        "m_max": m_max,
        "K_max": K_max,
        "assumptions": [],
        "exactness": None,
        "exact_ok": None,
    }
    x_face = poly_monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    expected_lead = qp.ring.reduce_full(x_face)
    got_val = element.qclass.valuation()
    lead_ok = got_val == -K_max
    if lead_ok:
        slice_got = element.qclass.slice_at(-K_max)
        slice_want = {(m, m_max): c for m, c in expected_lead.items()}
        lead_ok = slice_got == slice_want
    report["leading_ok"] = lead_ok

    # exactness criteria
    exact_expected = None
    codim = 2 * (poly.n - face.dim)
    if qp.mode == "fano" and face.dim == poly.n - 1:
        exact_expected = lift(qp, {(m, m_max, -K_max): c
                                   for m, c in x_face.items()})
        report["exactness"] = "fano facet maximum"
        report["assumptions"].append("fano asserted by caller")
    else:
        edges = edge_classes_through(poly, face)
        if element.semifree and all(2 * b.c1() >= codim for _, b in edges):
            report["exactness"] = "semifree maximum, all edge classes have " \
                                  "2c1 >= codim"
            report["assumptions"].append(
                "sphere classes checked on toric edge classes only")
            if qp.mode == "fano":
                report["assumptions"].append("fano asserted by caller")
            else:
                report["assumptions"].append("nef asserted by caller")
            if face.dim == poly.n - 1:
                exact_expected = qscale(
                    lift(qp, {(m, 0, 0): c for m, c in x_face.items()}),
                    NovScalar.monomial(1, m_max, -K_max, qp.cutoff))
            elif face.dim == 0 and poly.n <= 2:
                dictionary = build_dictionary(qp)
                exact_expected = qscale(
                    dictionary.point_lift,
                    NovScalar.monomial(1, m_max, -K_max, qp.cutoff))
            else:
                report["assumptions"].append(
                    "no geometric lift available for a middle-dimensional "
                    "maximum; exactness not checked")
    if exact_expected is not None:
        report["exact_ok"] = qsub(element.qclass, exact_expected).is_zero()
    ok = bool(report["leading_ok"]) and report["exact_ok"] is not False
    return ok, report


# ---------------------------------------------------------------- dictionary

@dataclass
class GeometricDictionary:
    n: int
    labels: tuple  # display name per facet
    facet_images: tuple  # kept-variable polynomial per facet class
    point_lift: QClass = None
    point_vertex: tuple = None  # facet set of the eligible vertex
    point_xi: tuple = None

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
    labels = tuple(_facet_label(poly, i) for i in range(poly.num_facets))
    images = tuple(ring.var(i) for i in range(poly.num_facets))
    dictionary = GeometricDictionary(n=poly.n, labels=labels,
                                     facet_images=images)
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
            dictionary.point_lift = point
            dictionary.point_vertex = tuple(sorted(vertex_face.facets))
            dictionary.point_xi = xi
            break
        else:
            raise NoEligibleVertex(
                "no vertex is a semifree maximum with all edge classes of "
                "first Chern number at least 2")
    qp._cache["dictionary"] = dictionary
    return dictionary


# ------------------------------------------------------------------- reports

@dataclass(slots=True)
class HomologyReport:
    """Named-class expression with homology-oriented exponents."""
    entries: tuple  # (name, coefficient, q exponent, t exponent), hom flip
    raw: tuple  # ((monomial, d, kappa, coeff), ...) undecomposed leftovers
    truncated: bool
    cutoff: Fraction


def to_homology_report(dictionary, qclass, qp):
    """Rewrite a quantum class over {unit, facet classes, point lift} and
    flip the Novikov exponents to the homology orientation."""
    n = dictionary.n
    if n > 2 and any(mono_degree(m) > 1 and not s.is_zero()
                     for m, s in qclass.coeffs.items()):
        raise DictionaryIncomplete(
            "degree-4 and higher classes have no geometric names beyond "
            "dimension two")
    work = {m: s for m, s in qclass.coeffs.items() if not s.is_zero()}
    entries = []
    raw = []

    def flip(name, scalar):
        for (d, kappa), c in scalar.sorted_terms():
            entries.append((name, c, -d, -kappa))

    # point part (top degree): only decodable with a point lift
    if n == 2 and dictionary.has_point() and any(
            mono_degree(m) > 1 for m in work):
        top = [m for m in qp.ring.standard_monomials if mono_degree(m) == n]
        if len(top) != 1:
            raise DegenerateRing("top cohomology is not one dimensional")
        m_top = top[0]
        d_top = dictionary.point_lift.coeffs[m_top]
        gamma = work.get(m_top)
        if gamma is not None:
            gamma = gamma * d_top.invert()
            flip("p", gamma)
            for m, s in dictionary.point_lift.coeffs.items():
                cur = work.get(m, NovScalar.zero(qp.cutoff))
                res = cur - gamma * s
                if res.is_zero():
                    work.pop(m, None)
                else:
                    work[m] = res
    # degree two: prefer a single facet class, else the kept facet classes
    deg2 = {m: s for m, s in work.items() if mono_degree(m) == 1}
    if deg2:
        matched = False
        for i in range(len(dictionary.labels)):
            image = dictionary.facet_images[i]
            if not image:
                continue
            probe = next(iter(image))
            if probe not in deg2:
                continue
            gamma = deg2[probe].scale(Fraction(1) / image[probe])
            candidate = {m: gamma.scale(c) for m, c in image.items()}
            if all(deg2.get(m, NovScalar.zero(qp.cutoff)) == candidate.get(
                    m, NovScalar.zero(qp.cutoff))
                   for m in set(deg2) | set(candidate)):
                flip(dictionary.labels[i], gamma)
                for m in image:
                    work.pop(m, None)
                matched = True
                break
        if not matched:
            for m, s in sorted(deg2.items()):
                pos = m.index(1)
                facet = qp.ring.kept[pos]
                flip(dictionary.labels[facet], s)
                work.pop(m, None)
    # unit part
    unit = (0,) * qp.ring.width
    if unit in work:
        flip("1", work.pop(unit))
    for m, s in sorted(work.items()):
        if s.is_zero():
            continue
        for (d, kappa), c in s.sorted_terms():
            raw.append((m, d, kappa, c))
    entries.sort(key=lambda e: (-e[3], -e[2], e[0]))
    return HomologyReport(entries=tuple(entries), raw=tuple(raw),
                          truncated=qclass.truncated, cutoff=qclass.cutoff)
