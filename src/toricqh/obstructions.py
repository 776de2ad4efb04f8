"""Obstruction battery deciding whether a torus subcircle is essential in
the Hamiltonian group.

Each rule is the contrapositive of a one-directional theorem, so the verdict
vocabulary is essential / inconclusive only.  Rules never certify that a
loop is contractible.

All but xi's data is read off the polytope: T2, P4 and R5 reduce facet
monomials through the ring's memo over its elimination (zero above degree
n, with no division), and S2 reads Betti numbers from its Morse table.
"""

import heapq
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import lcm

from .actions import CircleTable, _check_xi
from .cohomology import build_ring
from .errors import MomentDataMismatch, NotMeanNormalized
from .polynomials import monomial
from .polytope import centroid
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
    # its restriction to the face is its product with [F]: x^powers * x_F
    return bool(_classical_class(
        ring, {i: powers.get(i, 0) + 1 for i in comp.facets}))


def _classical_class(ring, facet_powers):
    """The reduced class of prod x_i^e_i, from the ring's memo of reduced
    monomials, which T2, P4 and R5 share."""
    return ring.monomial_nf(monomial(facet_powers, ring.polytope.num_facets))


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
    comps, levels = circle.components, circle.component_levels
    fmax = comps[0]
    visible = [all(w == 1 for w in comp.weights.values() if w > 0)
               and _euler_class_nonzero(ring, comp) for comp in comps]
    ks = [comp.K for comp, vis in zip(comps, visible)
          if vis and comp is not fmax]
    bounds = circle.superlevel_bounds(ks)
    details = []
    for comp, level, vis in zip(comps, levels, visible):
        entry = {"face": sorted(comp.facets), "K": comp.K, "m": comp.m,
                 "visible": vis, "semifree": comp.semifree}
        if vis and comp is fmax:
            entry.update(case="maximum", triggered=True)
        elif vis:
            bound = bounds[comp.K]
            if bound <= 2:
                case = "interior"
                bad = level != 0 or comp.m != 0 or not comp.semifree
            else:
                case, bad = "interior, inapplicable (isotropy > 2)", False
            entry.update(superlevel_isotropy=bound, case=case, triggered=bad)
        else:
            entry["triggered"] = False
        details.append(entry)
    return Finding(rule="T2", triggered=any(e["triggered"] for e in details),
                   definitive=True, certificate={"components": details})


def _rule_p4(ring, comps):
    details = []
    for comp in comps:
        if not comp.semifree:
            continue
        plus = {i: 1 for i, w in comp.weights.items() if w == 1}
        minus = {i: 1 for i, w in comp.weights.items() if w == -1}
        x_plus = _classical_class(ring, plus)
        x_minus = _classical_class(ring, minus)
        bad = comp.K != 0 or comp.m != 0 or x_plus != x_minus
        details.append({"face": sorted(comp.facets), "K": comp.K,
                        "m": comp.m, "f_plus": sorted(plus),
                        "f_minus": sorted(minus),
                        "classes_equal": x_plus == x_minus,
                        "triggered": bad})
    return Finding(rule="P4", triggered=any(d["triggered"] for d in details),
                   definitive=True,
                   certificate={"semifree_components": details})


def _rule_r5(ring, comps):
    details = []
    for comp in comps:
        plus = {i: w for i, w in comp.weights.items() if w > 0}
        minus = {i: -w for i, w in comp.weights.items() if w < 0}
        x_plus = _classical_class(ring, plus)
        x_minus = _classical_class(ring, minus)
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
    # (K, m) compared as (level, m): K is the level over the scale D > 0
    levels = circle.component_levels
    fmax, fmin = comps[0], comps[-1]
    problems = []
    if levels[0] != -levels[-1]:
        problems.append(f"K_max={fmax.K} != -K_min={-fmin.K}")
    if fmax.m != -fmin.m:
        problems.append(f"m_max={fmax.m} != -m_min={-fmin.m}")
    for component in circle.stratum(2).components:
        members = [((level, c.m), c) for level, c in zip(levels, comps)
                   if c.facets in component]
        if not members:
            continue
        for level, m in sorted({side for side, _ in members}):
            profile_l, profile_r = {}, {}
            for profile, side, shift in ((profile_l, (level, m), "index"),
                                         (profile_r, (-level, -m),
                                          "coindex")):
                for c in (c for key, c in members if key == side):
                    for i, b in enumerate(poly.morse_betti(c.face)):
                        j = 2 * i + getattr(c, shift)
                        profile[j] = profile.get(j, 0) + b
            if profile_l != profile_r:
                problems.append(
                    f"homology profile at (K,m)="
                    f"({Fraction(level, circle.scale)},{m}) is asymmetric: "
                    f"{profile_l} vs {profile_r}")
    return Finding(rule="S2", triggered=bool(problems), definitive=True,
                   certificate={"applicable": True, "isotropy_bound": bound,
                                "violations": problems})


def _rule_c(circle):
    k = circle.isotropy_bound
    comps, levels = circle.components, circle.component_levels
    top, low = levels[0], -levels[-1]  # K_max and |K_min| times D
    if top <= 0 or low <= 0:
        raise NotMeanNormalized(f"K_max = {comps[0].K} and K_min = "
                                f"{comps[-1].K} must have opposite signs on "
                                "mean normalized data")
    bad = max(top, low) > (k - 1) * min(top, low)
    return Finding(rule="C", triggered=bad, definitive=True,
                   certificate={"K_max": comps[0].K,
                                "abs_K_min": -comps[-1].K,
                                "isotropy_bound": k,
                                "bound": Fraction((k - 1) * min(top, low),
                                                  circle.scale)})


# the most cheapest chains a ChainBound lists; no pinned output lists more
# than 12,288
MAX_PATHS = 2 ** 14


@dataclass(frozen=True, slots=True)
class ChainBound:
    min_cost: Fraction
    K_max: Fraction
    optimal_paths: tuple  # tuples of face-key tuples, the first MAX_PATHS
    m_condition_achievable: bool
    q_values: dict
    paths_total: int = None  # the number of chains, when the list is cut


def chain_bound(poly, xi, circle=None):
    """Cheapest chain of fixed components from the maximum to the minimum,
    with cost |dK| / q over each hop, and whether some cheapest chain also
    realizes the weight-sum condition.

    Hop costs are positive and symmetric, so one Dijkstra from the minimum
    gives each component's cheapest remaining cost `rest`.  The cheapest
    chains are exactly the walks from the maximum along tight hops (those
    with cost(u, v) + rest[v] == rest[u]).  `rest` falls strictly along
    them, so one pass by increasing `rest` counts each component's tight
    walks to the minimum and collects their m-sums, and the first
    MAX_PATHS walks are listed depth first.  Costs run in ints times D*Q
    (D the scale, Q the lcm of the q values) and m-sums times Q.  `circle`
    is the circle table of (poly, xi), when the caller holds one; a table
    of another polytope or circle is refused with MomentDataMismatch.
    """
    xi = _check_xi(xi, poly.n)
    circle = circle or CircleTable(poly, xi)
    if circle.poly is not poly:
        raise MomentDataMismatch("the circle table was built on another "
                                 "polytope")
    if circle.xi != xi:
        raise MomentDataMismatch(f"the circle table of {circle.xi} was "
                                 f"passed for {xi}")
    comps, levels = circle.components, circle.component_levels
    n = len(comps)
    fmax = comps[0]
    keys = [tuple(sorted(c.facets)) for c in comps]
    qs = circle.q_pairs([c.face for c in comps])
    big_q = lcm(*qs.values())
    # comps run by decreasing K, so a hop i -> j with i < j goes down; the
    # cost and the m-step are the same in both directions
    hops = {u: [] for u in range(n)}  # u -> [(v, cost, m-step)], v ascending
    for (i, j), q in qs.items():
        if levels[i] != levels[j]:
            hop = ((levels[i] - levels[j]) * (big_q // q),
                   (comps[i].m - comps[j].m) * (big_q // q))
            hops[i].append((j, *hop))
            hops[j].append((i, *hop))
    rest = {}  # filled by increasing cost: a tight hop u -> v has v first
    heap = [(0, n - 1)]
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
    count, m_sums = {n - 1: 1}, {n - 1: {0}}  # over the tight walks to F_min
    for u in rest:
        if u != n - 1:
            count[u] = sum(count[v] for v, _ in tight[u])
            m_sums[u] = {step + m for v, step in tight[u] for m in m_sums[v]}
    return ChainBound(min_cost=Fraction(rest[0], circle.scale * big_q),
                      K_max=fmax.K,
                      optimal_paths=tuple(islice(_walks(tight, keys, n - 1),
                                                 MAX_PATHS)),
                      m_condition_achievable=fmax.m * big_q in m_sums[0],
                      q_values={(keys[i], keys[j]): q
                                for (i, j), q in qs.items()},
                      paths_total=count[0] if count[0] > MAX_PATHS else None)


def _walks(tight, keys, last):
    """The walks along tight hops from component 0 to `last`, as tuples of
    face keys, depth first."""
    path, todo = [keys[0]], [iter(tight[0])]
    while todo:
        for v, _ in todo[-1]:
            path.append(keys[v])
            if v == last:
                yield tuple(path)
            todo.append(iter(tight[v]))
            break
        else:
            todo.pop()
            path.pop()


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
                                **({"optimal_paths_total": bound.paths_total}
                                   if bound.paths_total else {}),
                                "note": why})


def _rule_sd(qp, xi):
    element = seidel_element(qp, xi)
    nontrivial = element.qclass != qp.one()
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
    normalized = any(x != 0 for x in centroid(poly))
    if qp is not None and \
            [(f.normal, f.support) for f in qp.polytope.facets] != \
            [(f.normal, f.support) for f in poly.normalized.facets]:
        raise MomentDataMismatch(
            "the quantum presentation was built on different moment "
            "data; rebuild it on the normalized polytope")
    poly = poly.normalized if qp is None else qp.polytope
    # the one pass over the circle data; it checks xi before any ring
    circle = CircleTable(poly, xi)
    ring = build_ring(poly) if qp is None else qp.ring
    comps = circle.components
    findings = [_rule_t1(comps), _rule_t2(ring, circle),
                _rule_p4(ring, comps), _rule_r5(ring, comps), _rule_s2(circle),
                _rule_c(circle), _rule_p6(circle)]
    element = None
    if qp is not None:
        sd, element = _rule_sd(qp, circle.xi)
        findings.append(sd)
    verdict = "essential" if any(f.triggered for f in findings) \
        else "inconclusive"
    return ObstructionReport(verdict=verdict, findings=tuple(findings),
                             seidel_summary=element, normalized=normalized)
