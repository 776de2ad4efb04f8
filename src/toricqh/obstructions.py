"""Obstruction battery deciding whether a torus subcircle is essential in
the Hamiltonian group.

Each rule is the contrapositive of a one-directional theorem, so the verdict
vocabulary is essential / inconclusive only.  Rules never certify that a
loop is contractible.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .actions import CircleTable
from .cohomology import build_ring, face_betti, restrict_to_face
from .errors import MomentDataMismatch, NotMeanNormalized
from .linalg import vec_dot
from .polynomials import poly_monomial
from .polytope import centroid, normalize
from .quantum import qsub
from .seidel import seidel_element, verify_leading_term


@dataclass(frozen=True, slots=True)
class Finding:
    rule: str
    triggered: bool
    definitive: bool
    certificate: dict
    assumptions: tuple = ()


@dataclass(frozen=True, slots=True)
class ObstructionReport:
    verdict: str  # "essential" | "inconclusive"
    findings: tuple
    seidel_summary: object = None
    normalized: bool = False

    def finding(self, rule):
        return next(f for f in self.findings if f.rule == rule)

    def triggered_rules(self):
        return [f.rule for f in self.findings if f.triggered]


# ------------------------------------------------------------------- helpers

def _euler_class_nonzero(ring, comp):
    """Euler class of the obstruction bundle along a fixed face: the product
    of the restricted facet classes to the powers (weight magnitude - 1)
    over the negative-weight facets."""
    powers = {i: -w - 1 for i, w in comp.weights.items() if w <= -2}
    if not powers:
        return True  # rank-zero bundle: the Euler class is the unit
    _, value = restrict_to_face(
        ring, poly_monomial(powers, ring.polytope.num_facets), comp.face)
    return bool(value)


def _classical_class(ring, facet_powers, classes):
    """The reduced class of prod x_i^e_i, read from or stored in `classes`,
    the monomial -> class dict that one `analyze` shares between rules."""
    x = poly_monomial(facet_powers, ring.polytope.num_facets)
    (mono,) = x
    if mono not in classes:
        classes[mono] = ring.reduce_full(x)
    return classes[mono]


# ----------------------------------------------------------------- the rules

def _rule_t1(comps):
    hits = [{"extremum": end, "face": sorted(c.facets), "K": c.K,
             "weights": dict(c.weights)}
            for end, c in (("max", comps[0]), ("min", comps[-1]))
            if c.semifree]
    return Finding(
        rule="T1", triggered=bool(hits), definitive=True,
        certificate={"semifree_extrema": hits})


def _rule_t2(ring, circle):
    comps = circle.components
    fmax = comps[0]
    visible = [all(w == 1 for w in comp.weights.values() if w > 0)
               and _euler_class_nonzero(ring, comp) for comp in comps]
    levels = [comp.K for comp, vis in zip(comps, visible)
              if vis and comp is not fmax]
    bounds = circle.superlevel_bounds(levels)
    details = []
    for comp, vis in zip(comps, visible):
        entry = {"face": sorted(comp.facets), "K": comp.K, "m": comp.m,
                 "visible": vis, "semifree": comp.semifree}
        if vis and comp is fmax:
            entry.update(case="maximum", triggered=True)
        elif vis:
            bound = bounds[comp.K]
            if bound <= 2:
                case = "interior"
                bad = comp.K != 0 or comp.m != 0 or not comp.semifree
            else:
                case, bad = "interior, inapplicable (isotropy > 2)", False
            entry.update(superlevel_isotropy=bound, case=case, triggered=bad)
        else:
            entry["triggered"] = False
        details.append(entry)
    return Finding(rule="T2", triggered=any(e["triggered"] for e in details),
                   definitive=True, certificate={"components": details})


def _rule_p4(ring, comps, classes):
    details = []
    for comp in comps:
        if not comp.semifree:
            continue
        plus = {i: 1 for i, w in comp.weights.items() if w == 1}
        minus = {i: 1 for i, w in comp.weights.items() if w == -1}
        x_plus = _classical_class(ring, plus, classes)
        x_minus = _classical_class(ring, minus, classes)
        bad = comp.K != 0 or comp.m != 0 or x_plus != x_minus
        details.append({"face": sorted(comp.facets), "K": comp.K,
                        "m": comp.m, "f_plus": sorted(plus),
                        "f_minus": sorted(minus),
                        "classes_equal": x_plus == x_minus,
                        "triggered": bad})
    return Finding(rule="P4", triggered=any(d["triggered"] for d in details),
                   definitive=True,
                   certificate={"semifree_components": details})


def _rule_r5(ring, comps, classes):
    details = []
    for comp in comps:
        plus = {i: w for i, w in comp.weights.items() if w > 0}
        minus = {i: -w for i, w in comp.weights.items() if w < 0}
        x_plus = _classical_class(ring, plus, classes)
        x_minus = _classical_class(ring, minus, classes)
        if not x_plus or not x_minus:
            continue
        bad = comp.K != 0 or comp.m != 0 or x_plus != x_minus
        details.append({"face": sorted(comp.facets), "K": comp.K,
                        "m": comp.m, "triggered": bad})
    return Finding(rule="R5", triggered=any(d["triggered"] for d in details),
                   definitive=True,
                   certificate={"components_with_nonzero_products": details})


def _rule_s2(circle):
    poly, comps = circle.poly, circle.components
    bound = circle.isotropy_bound
    if bound > 2:
        return Finding(rule="S2", triggered=False, definitive=True,
                       certificate={"applicable": False,
                                    "isotropy_bound": bound})
    fmax, fmin = comps[0], comps[-1]
    problems = []
    if fmax.K != -fmin.K:
        problems.append(f"K_max={fmax.K} != -K_min={-fmin.K}")
    if fmax.m != -fmin.m:
        problems.append(f"m_max={fmax.m} != -m_min={-fmin.m}")
    for component in circle.stratum(2).components:
        members = [c for c in comps if c.facets in component]
        if not members:
            continue
        pairs = sorted({(c.K, c.m) for c in members})
        for K, m in pairs:
            left = [c for c in members if c.K == K and c.m == m]
            right = [c for c in members if c.K == -K and c.m == -m]
            profile_l = {}
            for c in left:
                for i, b in enumerate(face_betti(poly, c.face)):
                    j = 2 * i + c.index
                    profile_l[j] = profile_l.get(j, 0) + b
            profile_r = {}
            for c in right:
                for i, b in enumerate(face_betti(poly, c.face)):
                    j = 2 * i + c.coindex
                    profile_r[j] = profile_r.get(j, 0) + b
            if profile_l != profile_r:
                problems.append(
                    f"homology profile at (K,m)=({K},{m}) is asymmetric: "
                    f"{profile_l} vs {profile_r}")
    return Finding(rule="S2", triggered=bool(problems), definitive=True,
                   certificate={"applicable": True, "isotropy_bound": bound,
                                "violations": problems})


def _rule_c(circle):
    k = circle.isotropy_bound
    a, b = circle.components[0].K, -circle.components[-1].K
    if a <= 0 or b <= 0:
        raise NotMeanNormalized(f"K_max = {a} and K_min = {-b} must have "
                                "opposite signs on mean normalized data")
    bad = max(a, b) > (k - 1) * min(a, b)
    return Finding(rule="C", triggered=bad, definitive=True,
                   certificate={"K_max": a, "abs_K_min": b,
                                "isotropy_bound": k,
                                "bound": (k - 1) * min(a, b)})


@dataclass(frozen=True, slots=True)
class ChainBound:
    min_cost: Fraction
    K_max: Fraction
    optimal_paths: tuple  # tuples of face-key tuples
    m_condition_achievable: bool
    q_values: dict


def chain_bound(poly, xi, circle=None):
    """Cheapest chain of fixed components from the maximum to the minimum,
    with cost |dK| / q over each hop, and whether some cheapest chain also
    realizes the weight-sum condition.

    Hop costs are positive and symmetric, so one Dijkstra from the minimum
    gives each component's cheapest remaining cost `rest`.  The cheapest
    chains are exactly the walks from the maximum along tight hops (those
    with cost(u, v) + rest[v] == rest[u]); `rest` falls strictly along them,
    so they visit each component at most once.  `circle` is the circle
    table of (poly, xi), when the caller holds one.
    """
    circle = circle or CircleTable(poly, xi)
    comps = circle.components
    n = len(comps)
    fmax = comps[0]
    keys = [tuple(sorted(c.facets)) for c in comps]
    qs = circle.q_pairs([c.face for c in comps])
    # comps run by decreasing K, so a hop i -> j with i < j goes down; the
    # cost and the m-step (m_i - m_j) / q are the same in both directions
    hops = {u: [] for u in range(n)}  # u -> [(v, cost, m-step)], v ascending
    for (i, j), q in qs.items():
        if comps[i].K != comps[j].K:
            hop = ((comps[i].K - comps[j].K) / q,
                   Fraction(comps[i].m - comps[j].m, q))
            hops[i].append((j, *hop))
            hops[j].append((i, *hop))
    rest = {}
    heap = [(Fraction(0), n - 1)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in rest:
            continue
        rest[u] = d
        for v, cost, _ in hops[u]:
            if v not in rest:
                heapq.heappush(heap, (d + cost, v))
    tight = {u: [(v, step) for v, cost, step in edges
                 if cost + rest[v] == rest[u]] for u, edges in hops.items()}
    walks = []

    def walk(u, path, m):
        if u == n - 1:
            walks.append((path, m))
        for v, step in tight[u]:
            walk(v, path + (keys[v],), m + step)

    walk(0, (keys[0],), Fraction(0))
    return ChainBound(min_cost=rest[0], K_max=fmax.K,
                      optimal_paths=tuple(path for path, _ in walks),
                      m_condition_achievable=any(m == fmax.m
                                                 for _, m in walks),
                      q_values={(keys[i], keys[j]): q
                                for (i, j), q in qs.items()})


def _rule_p6(circle):
    bound = chain_bound(circle.poly, circle.xi, circle)
    if bound.min_cost > bound.K_max:
        bad, why = True, "every chain is more expensive than K_max"
    elif bound.min_cost == bound.K_max and not bound.m_condition_achievable:
        bad, why = True, ("chains matching K_max exist but none realizes "
                          "the weight-sum condition")
    else:
        bad, why = False, "a compatible chain exists"
    return Finding(rule="P6", triggered=bad, definitive=True,
                   certificate={"min_cost": bound.min_cost,
                                "K_max": bound.K_max,
                                "m_condition": bound.m_condition_achievable,
                                "optimal_paths": bound.optimal_paths,
                                "note": why})


def _rule_sd(qp, xi):
    element = seidel_element(qp, xi)
    nontrivial = not qsub(element.qclass, qp.one()).is_zero()
    ok, lead_report = verify_leading_term(qp, xi, element=element)
    assumptions = ["fano asserted by caller"] if qp.mode == "fano" else \
        ["nef asserted by caller", "Y table supplied by caller"]
    return Finding(rule="SD",
                   triggered=nontrivial,
                   definitive=qp.mode == "fano",
                   certificate={"seidel_nontrivial": nontrivial,
                                "leading_term": lead_report},
                   assumptions=tuple(assumptions)), element


# ------------------------------------------------------------------ analyze

def analyze(poly, xi, qp=None):
    """Run the full battery; the verdict is essential iff some rule fires.

    The moment data is mean normalized first (the K = 0 tests depend on it).
    A supplied quantum presentation must be built on the same normalized
    polytope; its polytope and classical ring are then used as they are.
    """
    c = centroid(poly)
    normalized = any(x != 0 for x in c)
    if qp is None:
        poly = normalize(poly) if normalized else poly
        ring = build_ring(poly)
    else:
        if [(f.normal, f.support) for f in qp.polytope.facets] != \
                [(f.normal, f.support - vec_dot(f.normal, c))
                 for f in poly.facets]:
            raise MomentDataMismatch(
                "the quantum presentation was built on different moment "
                "data; rebuild it on the normalized polytope")
        poly, ring = qp.polytope, qp.ring
    circle = CircleTable(poly, xi)  # the one pass over the circle data
    comps = circle.components
    classes = {}  # reduced facet monomials, shared by P4 and R5
    findings = [_rule_t1(comps), _rule_t2(ring, circle),
                _rule_p4(ring, comps, classes),
                _rule_r5(ring, comps, classes), _rule_s2(circle),
                _rule_c(circle), _rule_p6(circle)]
    element = None
    if qp is not None:
        sd, element = _rule_sd(qp, circle.xi)
        findings.append(sd)
    verdict = "essential" if any(f.triggered for f in findings) \
        else "inconclusive"
    return ObstructionReport(verdict=verdict, findings=tuple(findings),
                             seidel_summary=element, normalized=normalized)
