"""Seidel elements of torus subcircles, leading-term verification, and the
geometric dictionary used for homology-flavored reporting.

Everything internal is in cohomology orientation; reports flip the Novikov
exponents termwise.  The dictionary identifies degree-0 and degree-2 classes
with named facet classes in every dimension, and lifts the point class in
dimension two, where a Seidel element of an eligible vertex determines it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .actions import extrema
from .errors import (
    DegenerateEdge,
    DegenerateRing,
    DictionaryIncomplete,
    LeadingFaceMismatch,
    MissingYEntry,
    NoEligibleVertex,
    NotAnEdge,
    PointLiftUnnormalized,
    WrongDegree,
)
from .novikov import NovScalar
from .polynomials import mono_degree, poly_monomial
from .polytope import H2Class
from .quantum import (
    QClass,
    lift,
    qinv,
    qpow,
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


def edge_class(poly, edge):
    """Spherical class of the sphere over an edge: pairing 1 with the two
    facets cutting its endpoints, solved through a vertex basis elsewhere."""
    if edge.dim != 1:
        raise NotAnEdge(f"face {sorted(edge.facets)} has dimension "
                        f"{edge.dim}, not 1")
    va, vb = edge.vertex_ids
    (fa,) = poly.vertex_facets(va) - edge.facets
    (fb,) = poly.vertex_facets(vb) - edge.facets
    by_facet = poly.coordinates(va, poly.normal(fb))
    if fa == fb or by_facet.get(fa) != -1:
        raise DegenerateEdge(
            f"at the edge {sorted(edge.facets)}, the normal of facet {fb} "
            f"has coordinate {by_facet.get(fa)} on facet {fa}, not -1")
    pairings = [0] * poly.num_facets
    pairings[fa] = 1
    pairings[fb] = 1
    for i in edge.facets:
        pairings[i] = -by_facet[i]
    return H2Class(tuple(pairings))


def edge_classes_through(poly, face):
    """Classes of the edges meeting a face (including edges inside it)."""
    out = []
    for e in poly.faces.values():
        if e.dim != 1:
            continue
        if (e.facets | face.facets) in poly.faces or face.facets <= e.facets:
            out.append((e, edge_class(poly, e)))
    return out


# --------------------------------------------------------------- the elements

def facet_seidel(qp, i):
    """Seidel element of the circle normal to facet i (0-based), cached.

    In Fano mode it is `seidel_element` of the facet normal eta_i, whose
    maximum is facet i with weight -1 and K = support_i: the lift of
    x_i q^-1 t^-support_i.  NEF mode reads Y_i q^-1 t^-support_i off the
    Y-table."""
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
    key = ("facet_seidel_inv", i)
    if key in qp._cache:
        return qp._cache[key]
    inv = qinv(facet_seidel(qp, i).qclass, qp)
    qp._cache[key] = inv
    return inv


def facet_product(qp, coords):
    """The product of S(eta_i)^a_i over the coordinates {i: a_i} of a
    direction at one vertex; negative powers use the cached inverses."""
    out = qp.one()
    for i, a in coords.items():
        if a > 0:
            out = qprod(out, qpow(facet_seidel(qp, i).qclass, a, qp), qp)
        elif a < 0:
            out = qprod(out, qpow(_facet_seidel_inverse(qp, i), -a, qp), qp)
    return out


def seidel_element(qp, xi):
    """Seidel element of the circle with direction xi, the product of the
    facet elements over a decomposition of xi at one vertex; the result is
    independent of that choice (checked by the oracle suite).

    Fano mode decomposes at F_max, where the coordinates are minus the
    weights, all positive: S(xi) is one normal form of x^a q^m t^-K, with no
    inverse, and exact to the cutoff since reduction only raises
    t-exponents.  NEF mode multiplies out the decomposition at vertex 0."""
    poly = qp.polytope
    xi = tuple(int(x) for x in xi)
    fmax, _ = extrema(poly, xi)
    if qp.mode == "fano":
        x_a = poly_monomial({i: -w for i, w in fmax.weights.items()},
                            poly.num_facets)
        out = lift(qp, x_a, d=fmax.m, kappa=-fmax.K)
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
        exact_expected = lift(qp, x_face, d=m_max, kappa=-K_max)
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
                    lift(qp, x_face),
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
