"""References for the differential tests: the former code of each engine
function that a change replaced, verbatim but for its name, and
recomputations that take another route than the engine.  A test module
imports references from here and shared cases from `cases`, imports
nothing from another test module, and defines no reference of its own.
When a change replaces engine code, the former code comes here, beside the
reference of its job or in its place.

One reference per job, by the engine code it checks (helpers that only
references read are left out):

- the determinants of normal bases: det
- `linalg.kernel_line` and the integer lattice of H2: kernel_basis_int
- `DelzantPolytope.coordinates`: solve_unimodular
- `linalg.gauss_jordan`: reference_eliminate
- `linalg.solve_rational`: reference_solve_rational
- `linalg.rank`: reference_rank
- the lattice of spherical (omega, c1) values: reference_in_rational_lattice
- `quantum._solve_unit_system`: reference_solve_unit_system
- `polytope.validate_delzant`: reference_validate
- `polytope.primitive_sets`: former_primitive_sets
- `polytope.generic_vector`: reference_generic_vector
- `polytope.centroid`: reference_centroid
- `cohomology.betti_morse`: reference_betti_morse
- `polytope.edge_classes_through`: reference_edge_classes_through
- `polytope._eliminate`: former_eliminate
- `DelzantPolytope.elimination`: former_ring_inputs
- `polynomials.divmod_basis`: former_divmod_basis
- `polynomials.TracedBasis`: FormerTracedBasis
- `TracedBasis.standard_monomials`: former_standard_monomials
- `ClassicalRing.monomial_nf`: former_monomial_nf
- `polynomials.poly_substitute`: former_poly_substitute
- `ClassicalRing.reduce_full`: reference_reduce_full
- `ClassicalRing.integrate` and `pd_matrix`: FormerIntegral
- the weights of a fixed face in `actions`: weights
- `actions.fixed_maximum`: former_fixed_maximum
- `actions._stratum`: former_stratum
- `actions.CircleTable`: FormerCircleTable
- `obstructions.chain_bound`: former_chain_bound, and reference_chains,
  a brute force over every simple chain, on the circles with few fixed
  components; it would not end on cube4's 16 fixed points
- `obstructions._rule_s2`: former_rule_s2
- `obstructions._rule_t2`, `_rule_c` and `_rule_p6`, which compared K as
  Fractions: former_rule_t2, former_rule_c and former_rule_p6 (on
  former_chain_bound)
- `obstructions._euler_class_nonzero`: former_euler_class_nonzero
- `obstructions._classical_class`: reference_classical_class
- `obstructions._rule_sd`: reference_rule_sd
- `novikov.NovScalar`: FormerNovScalar
- `quantum.quantum_nf` and `qprod`: reference_nf, and former_quantum_nf
  and former_qprod, which alone answer as the engine where a correction
  or an input carries another cutoff than the presentation
- `quantum.lift` as the former `lift`: former_lift
- `quantum.lift` as the former `qclass_from_json`: reference_from_terms
- `quantum.fano_presentation`: reference_fano_presentation
- `quantum.nef_presentation`: reference_nef_presentation
- `quantum.qsub`: reference_qsub
- `quantum.qinv`: former_qinv
- `seidel.facet_seidel` in Fano mode: reference_facet_seidel_fano
- `seidel.facet_power` and `facet_product`: reference_facet_power and
  reference_facet_product
- `seidel.seidel_element`: reference_seidel_element
- `seidel.verify_leading_term`: former_verify_leading_term, and
  unchecked_verify_leading_term, the answer it gave before it checked its
  arguments, read off the checked copy
- `seidel.to_homology_report`: reference_to_homology_report
- `oracle.check_homomorphism`: former_check_homomorphism
- `oracle.check_inverse_law`: former_check_inverse_law
- `exprparse._tokenize`: former_tokenize
- `exprparse.parse_expression`: ReferenceParser
- the parse in `cli.main`: reference_parse
"""

import argparse
import heapq
import itertools
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, lcm

from toricqh import linalg
from toricqh.actions import (
    FIXED,
    FixedComponentData,
    IsotropyStratum,
    _check_xi,
    _component,
    _order,
    _weights,
    fixed_components,
    global_isotropy_bound,
    isotropy_components,
)
from toricqh.cli import COMMANDS
from toricqh.cohomology import ClassicalRing, build_ring, restrict_to_face
from toricqh.errors import (
    BadCorrectionValuation,
    CutoffMismatch,
    DegenerateEdge,
    DegenerateRing,
    DictionaryIncomplete,
    ElementMismatch,
    ExprSyntaxError,
    InconsistentWeights,
    MissingYEntry,
    MomentNotConstant,
    NonGenericVector,
    NonIntegralCoefficient,
    NonPositiveEnergy,
    NotAUnit,
    NotAnEdge,
    NotFullDimensional,
    NotMeanNormalized,
    NotSimple,
    NotSmooth,
    RedundantFacet,
    StratumNotClosed,
    Unbounded,
    WrongDegree,
    ZeroElement,
    ZeroVector,
)
from toricqh.novikov import NovScalar, check_term, int_if_integral
from toricqh.obstructions import ChainBound, Finding, _euler_class_nonzero
from toricqh.oracle import DEFAULT_SEED, _agree, _random_xi
from toricqh.polynomials import (
    grevlex_key,
    leading_monomial,
    mono_degree,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    poly_add,
    poly_const,
    poly_monomial,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_substitute,
    poly_term_mul,
)
from toricqh.polytope import (
    Face,
    Facet,
    H2Class,
    PrimitiveSet,
    beta_class,
    dual_cone_face,
    edge_classes_through,
    face_betti,
    generic_vector,
    primitive_sets,
)
from toricqh.quantum import (
    QClass,
    QuantumPresentation,
    _exponent_step,
    _nf_traced_cached,
    _solve_unit_system,
    _validate_y_correction,
    default_cutoff,
    lift,
    qadd,
    qinv,
    qpoly_add,
    qpoly_atoms,
    qpoly_from_poly,
    qpoly_mul,
    qpoly_scale,
    qpoly_truncated,
    qpoly_valuation,
    qpow,
    qprod,
    qscale,
    quantum_nf,
)
from toricqh.seidel import (
    HomologyReport,
    SeidelElement,
    build_dictionary,
    facet_seidel,
    seidel_element,
)

# -------------------------------------------------------------- linear algebra

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def det(m):
    """Exact determinant by fraction-free expansion (small n)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    if n == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det(minor)
    return total


def kernel_basis_int(m):
    """Basis of the integer kernel lattice {x : m x = 0} of an int matrix.

    Column-style Hermite reduction: apply unimodular column operations to
    [m; I] until the top block has pivot columns followed by zero columns;
    the bottom parts of the zero columns form a lattice basis of the kernel.
    """
    if not m:
        return []
    rows, cols = len(m), len(m[0])
    work = [list(r) for r in m] + [[1 if i == j else 0 for j in range(cols)]
                                   for i in range(cols)]
    top = rows

    def col(j):
        return [work[i][j] for i in range(len(work))]

    def swap(j, k):
        for i in range(len(work)):
            work[i][j], work[i][k] = work[i][k], work[i][j]

    def addmul(j, k, c):
        # col_j += c * col_k
        for i in range(len(work)):
            work[i][j] += c * work[i][k]

    pivot_row = 0
    pivot_col = 0
    while pivot_row < top and pivot_col < cols:
        # gcd-reduce entries of this row across columns >= pivot_col
        while True:
            nz = [j for j in range(pivot_col, cols) if work[pivot_row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(work[pivot_row][j]))
            swap(pivot_col, jmin)
            done = True
            for j in range(pivot_col + 1, cols):
                if work[pivot_row][j] != 0:
                    q = work[pivot_row][j] // work[pivot_row][pivot_col]
                    addmul(j, pivot_col, -q)
                    if work[pivot_row][j] != 0:
                        done = False
            if done:
                break
        if any(work[pivot_row][j] != 0 for j in range(pivot_col, cols)):
            pivot_col += 1
        pivot_row += 1

    basis = []
    for j in range(pivot_col, cols):
        if all(work[i][j] == 0 for i in range(top)):
            basis.append(tuple(work[i][j] for i in range(top, top + cols)))
    return basis


def solve_unimodular(cols, target):
    """The former `linalg.solve_unimodular`, kept as the reference.

    Solve sum_j a_j * cols[j] = target for an integer square system.

    `cols` is a list of n integer n-vectors with |det| = 1; the solution is
    integral.  Returns a tuple of ints.
    """
    n = len(cols)
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    sol = linalg.solve_rational(m, target)
    if any(x.denominator != 1 for x in sol):
        raise NotSmooth(f"the columns {cols} are not a unimodular basis: "
                        f"{target} has coordinates {sol}")
    return tuple(int(x) for x in sol)


def reference_eliminate(rows, rhs, order, nslots):
    """The former elimination and back substitution of _solve_unit_system:
    the solution list, or None for an inconsistent system."""
    assign = {}
    active = [dict(r) for r in rows]
    b = list(rhs)
    used_rows = set()
    for j in order:
        piv = None
        for r in range(len(active)):
            if r in used_rows:
                continue
            if active[r].get(j):
                piv = r
                break
        if piv is None:
            continue
        used_rows.add(piv)
        pv = active[piv][j]
        for r in range(len(active)):
            if r == piv or not active[r].get(j):
                continue
            f = active[r][j] / pv
            for jj, v in active[piv].items():
                cur = active[r].get(jj, Fraction(0)) - f * v
                if cur:
                    active[r][jj] = cur
                else:
                    active[r].pop(jj, None)
            b[r] -= f * b[piv]
        assign[j] = piv
    # inconsistency: a row with zero coefficients but nonzero rhs
    for r in range(len(active)):
        if r not in used_rows and b[r] and all(
                v == 0 for v in active[r].values()):
            return None
    sol = [Fraction(0)] * nslots
    for j in reversed(order):
        piv = assign.get(j)
        if piv is None:
            continue
        acc = b[piv]
        for jj, v in active[piv].items():
            if jj != j:
                acc -= v * sol[jj]
        sol[j] = acc / active[piv][j]
    return sol


def reference_solve_unit_system(qp, slots, columns, strict_cut, vala):
    """The former _solve_unit_system, its elimination block moved into
    reference_eliminate."""
    limit = qp.cutoff if strict_cut else qp.cutoff + min(vala, 0)
    width = qp.ring.width
    unit_mono = (0,) * width
    targets = set()
    for col in columns:
        for m, d, k, _ in qpoly_atoms(col.coeffs):
            if k <= limit:
                targets.add((m, d, k))
    targets.add((unit_mono, 0, Fraction(0)))
    targets = sorted(targets, key=lambda t: (t[2], t[1], t[0]))
    tindex = {t: r for r, t in enumerate(targets)}
    rows = [dict() for _ in targets]
    rhs = [Fraction(0)] * len(targets)
    rhs[tindex[(unit_mono, 0, Fraction(0))]] = Fraction(1)
    for j, col in enumerate(columns):
        for m, d, k, c in qpoly_atoms(col.coeffs):
            if k > limit:
                continue
            rows[tindex[(m, d, k)]][j] = rows[tindex[(m, d, k)]].get(
                j, Fraction(0)) + c
    nslots = len(slots)
    order = sorted(range(nslots), key=lambda j: (slots[j][2], slots[j][1]))
    sol = reference_eliminate(rows, rhs, order, nslots)
    if sol is None:
        return None
    # final verification against every stored target
    if any(sum(v * sol[j] for j, v in row.items()) != want
           for row, want in zip(rows, rhs)):
        return None
    return sol


def reference_solve_rational(m, target):
    n = len(m)
    a = [[Fraction(m[i][j]) for j in range(n)] + [Fraction(target[i])]
         for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(a[i][n] for i in range(n))


def reference_rank(m):
    if not m:
        return 0
    a = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(a), len(a[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][col]
        a[r] = [x / pv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == rows:
            break
    return r


def lattice_membership_basis(vectors):
    """Hermite basis (row form) of the lattice generated by integer vectors."""
    work = [list(v) for v in vectors if any(x != 0 for x in v)]
    if not work:
        return []
    cols = len(work[0])
    basis = []
    row = 0
    for col in range(cols):
        cand = [i for i in range(row, len(work)) if work[i][col] != 0]
        if not cand:
            continue
        while True:
            cand = [i for i in range(row, len(work)) if work[i][col] != 0]
            if len(cand) <= 1:
                break
            imin = min(cand, key=lambda i: abs(work[i][col]))
            work[row], work[imin] = work[imin], work[row]
            for i in range(row + 1, len(work)):
                if work[i][col] != 0:
                    q = work[i][col] // work[row][col]
                    work[i] = [a - q * b for a, b in zip(work[i], work[row])]
        cand = [i for i in range(row, len(work)) if work[i][col] != 0]
        if cand:
            work[row], work[cand[0]] = work[cand[0]], work[row]
            if work[row][col] < 0:
                work[row] = [-a for a in work[row]]
            basis.append(tuple(work[row]))
            row += 1
    return basis


def in_lattice(hermite_rows, v):
    v = list(v)
    for row in hermite_rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        if v[lead] % row[lead] == 0:
            q = v[lead] // row[lead]
            v = [a - q * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def reference_in_rational_lattice(rows, v):
    den = 1
    for row in rows:
        for x in row:
            den = den * Fraction(x).denominator // gcd(
                den, Fraction(x).denominator)
    for x in v:
        den = den * Fraction(x).denominator // gcd(den, Fraction(x).denominator)
    int_rows = [tuple(int(Fraction(x) * den) for x in row) for row in rows]
    int_v = tuple(int(Fraction(x) * den) for x in v)
    return in_lattice(lattice_membership_basis(int_rows), int_v)


# ---------------------------------------------------------------- the polytope

def reference_validate(specs):
    """validate_delzant with a Fraction solve per invertible n-subset, a
    Fraction feasibility test, a scan of all vertices for the second end
    of each edge, a rational rank for full dimension and a scan of all
    vertices per face.  Returns (vertices, faces) or raises as
    validate_delzant does."""
    facets = [Facet(tuple(normal), support) for normal, support in specs]
    n = len(facets[0].normal)
    normals = [f.normal for f in facets]
    points = {}
    for subset in itertools.combinations(range(len(facets)), n):
        m = [list(normals[i]) for i in subset]
        if det(m) == 0:
            continue
        point = linalg.solve_rational(m, [facets[i].support for i in subset])
        if any(linalg.vec_dot(f.normal, point) > f.support for f in facets):
            continue
        points[point] = frozenset(
            i for i, f in enumerate(facets)
            if linalg.vec_dot(f.normal, point) == f.support)
    if not points:
        raise Unbounded("no vertices; the region is empty or unbounded")
    vlist = sorted(points.items())
    for vid, (point, active) in enumerate(vlist):
        for sub in itertools.combinations(sorted(active), n - 1):
            if len(active) > n:
                kernel = kernel_basis_int(
                    [normals[i] for i in sub]) if sub else [(1,)]
                if len(kernel) != 1:
                    continue
                dots = [linalg.vec_dot(normals[i], kernel[0])
                        for i in active]
                if min(dots) < 0 < max(dots):
                    continue
            if not any(other != vid and active_other.issuperset(sub)
                       for other, (_, active_other) in enumerate(vlist)):
                raise Unbounded(
                    f"the edge of vertex ({', '.join(map(str, point))}) "
                    f"along facets {list(sub)} has no second vertex")
    base = vlist[0][0]
    if linalg.rank([list(vec_sub(p, base))
                    for p, _ in vlist[1:]]) < n:
        raise NotFullDimensional("vertices span a proper affine subspace")
    for point, active in vlist:
        if len(active) > n:
            raise NotSimple(f"vertex ({', '.join(map(str, point))}) lies on "
                            f"{len(active)} facets {sorted(active)}")
        d = abs(det([normals[i] for i in sorted(active)]))
        if d != 1:
            raise NotSmooth(
                f"vertex ({', '.join(map(str, point))}) on facets "
                f"{sorted(active)} has |det| = {d}")
    missing = set(range(len(facets))) - set().union(*(a for _, a in vlist))
    if missing:
        raise RedundantFacet(
            f"facets {sorted(missing)} support no vertex of the region")
    keys = {frozenset(sub) for _, active in vlist
            for size in range(n + 1)
            for sub in itertools.combinations(sorted(active), size)}
    faces = {key: Face(facets=key, dim=n - len(key), vertex_ids=tuple(
        vid for vid, (_, active) in enumerate(vlist) if key <= active))
        for key in keys}
    return tuple(vlist), faces


def former_primitive_sets(poly):
    """All primitive facet subsets with their dual-cone data, by size.

    Every proper subset of a primitive collection spans a cone of the
    simplicial fan, which has at most n rays, so no primitive collection
    has more than n + 1 elements (Batyrev)."""
    N = poly.num_facets
    results = []
    primitive_found = set()
    for size in range(2, min(N, poly.n + 1) + 1):
        for sub in combinations(range(N), size):
            fs = frozenset(sub)
            if fs in poly.faces:  # a cone of the normal fan
                continue
            if any(p <= fs for p in primitive_found):
                continue  # a proper subset already fails to intersect
            if all(frozenset(s) in poly.faces
                   for s in combinations(sub, size - 1)):
                primitive_found.add(fs)
                v = tuple(sum(poly.normal(i)[k] for i in sub)
                          for k in range(poly.n))
                _, support = dual_cone_face(poly, v)
                j_sorted = tuple(sorted(support))
                coeffs = tuple(support[j] for j in j_sorted)
                if any(Fraction(c).denominator != 1 or c <= 0 for c in coeffs):
                    raise NonIntegralCoefficient(
                        f"dual-cone coefficients for I={sub} are {coeffs}")
                if fs & frozenset(j_sorted):
                    raise NonIntegralCoefficient(
                        f"I={sub} meets its complement set {j_sorted}")
                beta, energy = beta_class(poly, sub, j_sorted, coeffs)
                results.append(PrimitiveSet(indices=tuple(sub),
                                            j_indices=j_sorted,
                                            coeffs=coeffs, beta=beta,
                                            energy=energy))
    results.sort(key=lambda p: (len(p.indices), p.indices))
    return results


def reference_generic_vector(poly):
    points = [poly.vertex_point(v) for v in range(len(poly.vertices))]
    den = lcm(*(x.denominator for p in points for x in p))
    points = [tuple(x.numerator * (den // x.denominator) for x in p)
              for p in points]
    M = 1 + max(abs(x) for p in points for x in p)
    for _ in range(64):
        xi = tuple(M ** j for j in range(poly.n))
        if len({linalg.vec_dot(xi, p) for p in points}) == len(points):
            return xi
        M = 2 * M + 1
    raise NonGenericVector("could not find a separating direction")


def _simplices_of_face(poly, face):
    """Recursive triangulation from the lex-least vertex of each face.

    Returns simplices as tuples of vertex ids; each has dim(face)+1 entries.
    The facets of a face F are the faces keyed F.facets | {i}.
    """
    if face.dim == 0:
        return [(face.vertex_ids[0],)]
    anchor = min(face.vertex_ids, key=poly.vertex_point)  # lex-least
    simplices = []
    for i in range(poly.num_facets):
        sub = poly.faces.get(face.facets | {i})
        if sub is None or sub.dim != face.dim - 1 or anchor in sub.vertex_ids:
            continue
        for s in _simplices_of_face(poly, sub):
            simplices.append((anchor,) + s)
    return simplices


def reference_centroid(poly):
    scale = lcm(*(x.denominator for point, _ in poly.vertices for x in point))
    points = [tuple(x.numerator * (scale // x.denominator) for x in point)
              for point, _ in poly.vertices]
    total_vol = 0
    weighted = [0] * poly.n
    for simplex in _simplices_of_face(poly, poly.face(frozenset())):
        base = points[simplex[0]]
        vol = abs(det([vec_sub(points[v], base) for v in simplex[1:]]))
        total_vol += vol
        for k in range(poly.n):
            weighted[k] += vol * sum(points[v][k] for v in simplex)
    if total_vol == 0:
        raise NotFullDimensional(
            f"the triangulation of {poly.name or 'the polytope'} has volume 0")
    return tuple(Fraction(w, total_vol * scale * (poly.n + 1))
                 for w in weighted)


def vertex_weights(poly, vid, xi):
    """The former `cohomology.vertex_weights`, verbatim: the weights of the
    circle xi at a vertex, minus the coefficients of xi in the vertex's
    outward normal basis, keyed by facet index."""
    return {i: -c for i, c in poly.coordinates(vid, xi).items()}


def reference_betti_morse(poly, xi):
    kvals = [linalg.vec_dot(xi, poly.vertex_point(v))
             for v in range(len(poly.vertices))]
    if len(set(kvals)) != len(kvals):
        raise NonGenericVector(
            f"{tuple(xi)} does not separate the vertices")
    counts = [0] * (poly.n + 1)
    for vid in range(len(poly.vertices)):
        w = vertex_weights(poly, vid, xi)
        counts[sum(1 for x in w.values() if x < 0)] += 1
    return tuple(counts)


def reference_edge_class(poly, edge):
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


def reference_edge_classes_through(poly, face):
    """Classes of the edges meeting a face (including edges inside it)."""
    out = []
    for e in poly.faces.values():
        if e.dim != 1:
            continue
        if (e.facets | face.facets) in poly.faces or face.facets <= e.facets:
            out.append((e, reference_edge_class(poly, e)))
    return out


# ---------------------------------------------------------- the classical ring

def former_classical_generators(poly):
    """Linear generators of P(Delta) (one per standard basis functional, with
    int coefficients) and the Stanley-Reisner monomial generators (one per
    primitive set), in the full N facet variables."""
    N = poly.num_facets
    units = [tuple(1 if k == i else 0 for k in range(N)) for i in range(N)]
    linear = [{units[i]: poly.normal(i)[j] for i in range(N)
               if poly.normal(i)[j]} for j in range(poly.n)]
    monomials = {p.key: poly_monomial(dict.fromkeys(p.indices, 1), N)
                 for p in primitive_sets(poly)}
    return linear, monomials


def former_eliminate(poly):
    """The former `_eliminate`, every row entry a Fraction.

    Choose one variable per linear relation to eliminate.  Pivot preference
    per row: the first variable with coefficient -1, then the first with +1,
    then the first nonzero.  Returns (kept indices, images) where images maps
    every full variable index to its expression in the kept variables."""
    N, n = poly.num_facets, poly.n
    rows = [[Fraction(poly.normal(i)[j]) for i in range(N)]
            for j in range(n)]
    elim = {}  # var index -> full-width row (its expression, pivot zeroed)
    order = []
    for row in rows:
        r = list(row)
        for e, expr in elim.items():
            if r[e]:
                c = r[e]
                r = [a + c * b for a, b in zip(r, expr)]
                r[e] = Fraction(0)
        pivot = next((i for i, c in enumerate(r) if c == -1 and i not in elim),
                     None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c == 1 and i not in elim), None)
        if pivot is None:
            pivot = next((i for i, c in enumerate(r)
                          if c != 0 and i not in elim), None)
        if pivot is None:
            raise Unbounded("linear relations are not independent: the "
                            "facet normals do not span")
        c = r[pivot]
        expr = [-a / c for a in r]
        expr[pivot] = Fraction(0)
        elim[pivot] = expr
        order.append(pivot)
    # back-substitution: later rules may appear inside earlier expressions
    for e in reversed(order):
        for e2 in order:
            if e2 == e:
                continue
            expr = elim[e2]
            if expr[e]:
                c = expr[e]
                elim[e2] = [a + c * b for a, b in zip(expr, elim[e])]
                elim[e2][e] = Fraction(0)
    kept = tuple(i for i in range(N) if i not in elim)
    width = len(kept)
    pos = {i: k for k, i in enumerate(kept)}
    images = {}
    for i in range(N):
        if i in elim:
            img = {}
            for k, c in enumerate(elim[i]):
                if c:
                    img = poly_add(img, poly_scale(
                        poly_monomial({pos[k]: 1}, width), c))
            images[i] = img
        else:
            images[i] = poly_monomial({pos[i]: 1}, width)
    return kept, images


def former_ring_inputs(poly):
    """What the former `build_ring` derived from the polytope on every
    call, before its Groebner basis: its lines, verbatim."""
    prims = primitive_sets(poly)
    linear, monomials = former_classical_generators(poly)
    kept, images = former_eliminate(poly)
    # the former `build_ring` kept an integral image coefficient as an int
    images = {i: {m: int_if_integral(c) for m, c in image.items()}
              for i, image in images.items()}
    gen_keys = tuple(p.key for p in prims)
    # substituted in ints; Fraction coefficients, as `substitute` writes them
    basis = [{m: Fraction(c) for m, c in poly_substitute(
        dict.fromkeys(monomials[k], 1), images, len(kept)).items()}
        for k in gen_keys]
    return dict(prims=tuple(prims), linear_gens=tuple(linear),
                sr_gens=monomials, kept=kept, images=images,
                gen_keys=gen_keys, basis=basis)


def former_divmod_basis(f, basis):
    """The former `polynomials.divmod_basis`.

    Multivariate division: f = sum_k q_k * basis[k] + r, with no monomial
    of r divisible by any leading monomial of the basis.

    Returns (quotients, remainder); quotients are polynomials.
    """
    width = None
    for g in basis:
        if g:
            width = len(next(iter(g)))
            break
    quotients = [dict() for _ in basis]
    remainder = {}
    work = dict(f)
    while work:
        m = leading_monomial(work)
        c = work[m]
        for k, g in enumerate(basis):
            if not g:
                continue
            lm = leading_monomial(g)
            if mono_divides(lm, m):
                factor_m = mono_div(m, lm)
                factor_c = c / g[lm]
                quotients[k] = poly_add(
                    quotients[k], {factor_m: factor_c})
                work = poly_sub(work, poly_term_mul(g, factor_m, factor_c))
                break
        else:
            remainder[m] = c
            del work[m]
    return quotients, remainder


def former_standard_monomials(self, limit):
    """The former `TracedBasis.standard_monomials`, of an engine basis or a
    `FormerTracedBasis`: all monomials not divisible by any leading
    monomial, found by breadth-first growth from 1.  `limit` caps the
    search as a safety net against a non-zero-dimensional quotient."""
    if not self.elements:
        raise ValueError("empty basis has infinite quotient")
    lms = self.leading_monomials()
    width = len(lms[0])
    start = (0,) * width
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(width):
                cand = tuple(e + (1 if j == i else 0)
                             for j, e in enumerate(m))
                if cand in seen:
                    continue
                if any(mono_divides(lm, cand) for lm in lms):
                    continue
                seen.add(cand)
                nxt.append(cand)
        frontier = nxt
        if len(seen) > limit:
            raise ValueError(
                f"quotient dimension exceeds {limit}; ideal is not "
                "zero-dimensional as expected")
    return tuple(sorted(seen, key=grevlex_key))


class FormerTracedBasis:
    """The former `polynomials.TracedBasis`.

    A Groebner basis whose elements carry cofactors over the original
    generators: element[k] == sum_i cofactors[k][i] * generators[i]."""

    def __init__(self, generators):
        self.generators = [dict(g) for g in generators]
        self.elements = []
        self.cofactors = []  # list of dicts: generator index -> poly
        self._buchberger()
        self._reduce_basis()

    # -- construction --------------------------------------------------------

    def _append(self, poly, cof):
        self.elements.append(poly)
        self.cofactors.append(cof)

    def _reduce_traced(self, f, cof):
        """Fully reduce f against the current elements, updating the cofactor
        expression alongside."""
        quotients, remainder = former_divmod_basis(f, self.elements)
        for k, q in enumerate(quotients):
            if not q:
                continue
            for gi, gpoly in self.cofactors[k].items():
                delta = poly_mul(q, gpoly)
                cof[gi] = poly_sub(cof.get(gi, {}), delta)
        return remainder, cof

    def _buchberger(self):
        width = None
        for i, g in enumerate(self.generators):
            if g:
                width = len(next(iter(g)))
                self._append(dict(g), {i: poly_const(1, width)})
        pairs = list(combinations(range(len(self.elements)), 2))
        while pairs:
            i, j = pairs.pop(0)
            fi, fj = self.elements[i], self.elements[j]
            mi, mj = leading_monomial(fi), leading_monomial(fj)
            lcm = mono_lcm(mi, mj)
            if mono_mul(mi, mj) == lcm:
                continue  # coprime leading terms: S-poly reduces to zero
            ci, cj = fi[mi], fj[mj]
            s = poly_sub(
                poly_term_mul(fi, mono_div(lcm, mi), 1 / ci),
                poly_term_mul(fj, mono_div(lcm, mj), 1 / cj))
            cof = {}
            for gi, gpoly in self.cofactors[i].items():
                cof[gi] = poly_add(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mi), 1 / ci))
            for gi, gpoly in self.cofactors[j].items():
                cof[gi] = poly_sub(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mj), 1 / cj))
            remainder, cof = self._reduce_traced(s, cof)
            if remainder:
                self._append(remainder, cof)
                new = len(self.elements) - 1
                pairs.extend((k, new) for k in range(new))

    def _reduce_basis(self):
        # minimal basis: drop elements whose LM is divisible by another LM
        keep = []
        lms = [leading_monomial(e) for e in self.elements]
        for k, lm in enumerate(lms):
            if any(mono_divides(lms[j], lm) for j in keep):
                continue
            keep = [j for j in keep if not mono_divides(lm, lms[j])]
            keep.append(k)
        elements = [self.elements[k] for k in keep]
        cofactors = [self.cofactors[k] for k in keep]
        # tail-reduce and normalize monic
        reduced, reduced_cof = [], []
        for k in range(len(elements)):
            others = reduced + elements[k + 1:]
            others_cof = reduced_cof + cofactors[k + 1:]
            quotients, remainder = former_divmod_basis(elements[k], others)
            cof = {gi: dict(p) for gi, p in cofactors[k].items()}
            for q, ocof in zip(quotients, others_cof):
                if not q:
                    continue
                for gi, gpoly in ocof.items():
                    cof[gi] = poly_sub(cof.get(gi, {}), poly_mul(q, gpoly))
            lc = remainder[leading_monomial(remainder)]
            remainder = poly_scale(remainder, 1 / lc)
            cof = {gi: poly_scale(p, 1 / lc) for gi, p in cof.items() if p}
            reduced.append(remainder)
            reduced_cof.append(cof)
        self.elements = reduced
        self.cofactors = reduced_cof

    # -- queries ---------------------------------------------------------------

    def leading_monomials(self):
        return [leading_monomial(e) for e in self.elements]

    def normal_form_traced(self, f):
        """Reduce f to normal form; return (nf, trace) where trace maps each
        original generator index to its polynomial cofactor:
        f - nf == sum_i trace[i] * generators[i]."""
        quotients, remainder = former_divmod_basis(f, self.elements)
        trace = {}
        for k, q in enumerate(quotients):
            if not q:
                continue
            for gi, gpoly in self.cofactors[k].items():
                contrib = poly_mul(q, gpoly)
                if contrib:
                    trace[gi] = poly_add(trace.get(gi, {}), contrib)
        return remainder, {gi: p for gi, p in trace.items() if p}

    def normal_form(self, f):
        return self.normal_form_traced(f)[0]

    standard_monomials = former_standard_monomials


def former_monomial_nf(ring, mono):
    """The former `ClassicalRing.monomial_nf`, memo aside: the normal form
    of the monomial's image, whatever its degree."""
    return ring.nf(poly_substitute({mono: 1}, ring.images, ring.width))


def former_poly_substitute(f, images, width):
    """Substitute variable i by the polynomial images[i], producing a
    polynomial of the given variable width.  It multiplies once per unit
    of exponent, so its cost grows with the exponents themselves: the Fano
    Seidel element of a circle with large entries lifts x^a with large a."""
    out = {}
    for m, c in f.items():
        term = poly_const(1, width)
        for i, e in enumerate(m):
            for _ in range(e):
                term = poly_mul(term, images[i])
        out = poly_add(out, poly_scale(term, c))
    return out


def reference_reduce_full(ring, full_poly):
    """The former `reduce_full`: one substitution, then one normal form."""
    return ring.nf(poly_substitute(full_poly, ring.images, ring.width))


class FormerIntegral(ClassicalRing):
    """A classical ring that integrates and pairs as the former code did:
    an integral reads the coefficient of the one top standard monomial in a
    normal form, over that of the reference vertex monomial, and a pairing
    is one such integral per entry."""

    def _top_monomial(self):
        tops = [m for m in self.standard_monomials
                if mono_degree(m) == self.polytope.n]
        if len(tops) != 1:
            raise DegenerateRing("top cohomology is not one dimensional")
        return tops[0]

    def reference_vertex_monomial(self):
        """Product of the facet classes through the lex-least vertex."""
        return self.substitute(poly_monomial(
            dict.fromkeys(self.polytope.vertex_facets(0), 1),
            self.polytope.num_facets))

    def integrate(self, poly):
        """Integral of a homogeneous top-degree class over the manifold."""
        if not poly:
            return Fraction(0)
        n = self.polytope.n
        if any(mono_degree(m) != n for m in poly):
            raise WrongDegree(
                f"integrand must be homogeneous of cohomological degree {2 * n}")
        nf = self.nf(poly)
        top = self._top_monomial()
        ref = self.nf(self.reference_vertex_monomial())
        if not ref or not set(ref) <= {top}:
            raise DegenerateRing("reference vertex monomial is not a nonzero "
                                 "multiple of the top class")
        return nf.get(top, Fraction(0)) / ref[top]

    def pd_matrix(self, degree):
        """Pairing matrix between standard monomials of cohomological degree
        `degree` and those of complementary degree."""
        k = degree // 2
        n = self.polytope.n
        rows = [m for m in self.standard_monomials if mono_degree(m) == k]
        cols = [m for m in self.standard_monomials if mono_degree(m) == n - k]
        return [[self.integrate(poly_mul({r: Fraction(1)}, {c: Fraction(1)}))
                 for c in cols] for r in rows]


# -------------------------------------------------- the circle and the battery

def weights(poly, xi, face):
    """The former `actions.weights`, kept as the reference that the circle
    table's components and `fixed_maximum` are held to.

    Weight data of the circle xi along a fixed face.

    Reads xi's coordinates at every vertex of the face and checks the
    answers agree; nonzero weights sit exactly on the facets containing the
    face.
    """
    xi = _check_xi(xi, poly.n)
    return _weights({vid: poly.coordinates(vid, xi)
                     for vid in face.vertex_ids}, face)


def former_check_xi(xi):
    """xi as a tuple of ints; every entry must be an int, not all zero."""
    xi = tuple(xi)
    for x in xi:
        if type(x) is not int:
            raise NonIntegralCoefficient(
                f"the circle direction has the non-integer entry {x!r}")
    if not any(xi):
        raise ZeroVector("the circle direction must be nonzero")
    return xi


def former_component(face, K, w):
    """The former `actions._component`."""
    return FixedComponentData(
        face=face, K=K, weights=w, m=sum(w.values()),
        index=2 * sum(1 for x in w.values() if x < 0),
        coindex=2 * sum(1 for x in w.values() if x > 0),
        semifree=all(abs(x) == 1 for x in w.values()), dimF=2 * face.dim)


def former_weights(coords, face):
    """The former `actions._weights`."""
    result = None
    for vid in face.vertex_ids:
        w = {i: -c for i, c in coords[vid].items() if c != 0}
        if any(i not in face.facets for i in w):
            raise InconsistentWeights(
                f"nonzero weight off the fixed face at vertex {vid}")
        if result is None:
            result = w
        elif result != w:
            raise InconsistentWeights(
                f"weights disagree across vertices of {sorted(face.facets)}")
    return result


def former_fixed_maximum(poly, xi):
    """F_max, the first of `fixed_components`, from one integer argmax of
    <xi, .> over the scaled vertices: the face cut out by the facets on
    which xi has a nonzero coordinate at a maximizing vertex.  Its vertices
    must be exactly the maximizing ones.  xi is checked once; the weight
    check reuses its coordinates at that vertex and solves the others'."""
    xi = former_check_xi(xi)
    scale, points = poly.scaled_vertices
    values = [linalg.vec_dot(xi, p) for p in points]
    top = max(values)
    vid = values.index(top)
    coords = {vid: poly.coordinates(vid, xi)}
    face = poly.faces[frozenset(i for i, c in coords[vid].items() if c)]
    if face.vertex_ids != tuple(v for v, k in enumerate(values) if k == top):
        raise MomentNotConstant(
            f"the maximum of <xi, .> is not the face {sorted(face.facets)}")
    coords.update((v, poly.coordinates(v, xi))
                  for v in face.vertex_ids if v != vid)
    return former_component(face, Fraction(top, scale),
                            former_weights(coords, face))


def former_stratum(orders, q):
    """The former `actions._stratum`: components by a pairwise search of
    the faces for containment, where the engine merges along a union-find."""
    qualifying = [key for key, order in orders.items()
                  if order is FIXED or order % q == 0]
    qual = set(qualifying)
    # closure under subfaces: a subface has facet set containing the face's,
    # and its stabilizer order is a multiple, so it must qualify too
    for key in qual:
        for other in orders:
            if key < other and other not in qual:
                raise StratumNotClosed(f"the {q}-stratum holds {sorted(key)}"
                                       f" but not its subface {sorted(other)}")
    seen = set()
    components = []
    for key in sorted(qualifying, key=sorted):
        if key in seen:
            continue
        comp = {key}
        frontier = [key]
        while frontier:
            cur = frontier.pop()
            for other in qualifying:
                if other in comp:
                    continue
                if cur <= other or other <= cur:
                    comp.add(other)
                    frontier.append(other)
        seen |= comp
        components.append(frozenset(comp))
    return IsotropyStratum(q=q, faces=frozenset(qualifying),
                           components=tuple(components))


class FormerCircleTable:
    """The circle xi on poly: xi's coordinates and moment value at every
    vertex, and, each on first use, the fixed components and the isotropy
    order of every face.  A table lives for one call."""

    def __init__(self, poly, xi):
        self.poly = poly
        self.xi = xi = _check_xi(xi, poly.n)
        self.coords = [poly.coordinates(vid, xi)
                       for vid in range(len(poly.vertices))]
        scale, points = poly.scaled_vertices
        self.values = [Fraction(linalg.vec_dot(xi, p), scale)
                       for p in points]

    def moment_value(self, face):
        """Value of <xi, .> on a face on which it is constant."""
        values = {self.values[vid] for vid in face.vertex_ids}
        if len(values) != 1:
            raise MomentNotConstant(
                f"<xi, .> is not constant on face {sorted(face.facets)}")
        return values.pop()

    @cached_property
    def components(self):
        # the fixed component through a vertex is cut out by the facets on
        # which xi has a nonzero coordinate there
        keys = {frozenset(i for i, c in coords.items() if c != 0)
                for coords in self.coords}
        comps = []
        for key in keys:
            face = self.poly.faces[key]
            comps.append(_component(face, self.moment_value(face),
                                    _weights(self.coords, face)))
        comps.sort(key=lambda c: (-c.K, sorted(c.facets)))
        if len({v for c in comps for v in c.face.vertex_ids}) != \
                sum(len(c.face.vertex_ids) for c in comps):
            raise InconsistentWeights("fixed faces overlap")
        return comps

    @cached_property
    def orders(self):
        """Face key -> isotropy order, read at each face's first vertex."""
        return {key: _order(self.coords[face.vertex_ids[0]], face)
                for key, face in self.poly.faces.items()}

    @cached_property
    def isotropy_bound(self):
        return max([1] + [order for order in self.orders.values()
                          if order is not FIXED])

    def stratum(self, q):
        # a new stratum on every call, by the pairwise search
        return former_stratum(self.orders, q)

    def q_pairs(self, faces):
        candidates = {d for order in self.orders.values()
                      if order is not FIXED
                      for d in range(2, order + 1) if order % d == 0}
        pairs = dict.fromkeys(combinations(range(len(faces)), 2), 1)
        for q in sorted(candidates):  # ascending: a larger q overwrites
            for comp in self.stratum(q).components:
                inside = [k for k, face in enumerate(faces)
                          if face.facets in comp]
                for pair in combinations(inside, 2):
                    pairs[pair] = q
        return pairs

    def superlevel_bounds(self, levels):
        tops = [(max(self.values[v] for v in self.poly.faces[key].vertex_ids),
                 order)
                for key, order in self.orders.items() if order is not FIXED]
        return {c: max([1] + [order for top, order in tops if top > c])
                for c in levels}


def former_chain_bound(poly, xi, circle=None):
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
    circle = circle or FormerCircleTable(poly, xi)
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


def reference_chains(poly, xi):
    """Every simple chain from the maximum to the minimum, by brute force:
    (min cost, the cheapest chains in lexicographic order of component
    indices, whether one of them meets the weight-sum condition, the q of
    each pair).  A pair's q is the largest q whose stratum has a component
    holding both faces, found by trying every q from the global bound down."""
    comps = fixed_components(poly, xi)
    n = len(comps)
    strata = [(k, isotropy_components(poly, xi, k).components)
              for k in range(global_isotropy_bound(poly, xi), 1, -1)]
    q = {}
    for i in range(n):
        for j in range(i + 1, n):
            q[(i, j)] = q[(j, i)] = next(
                (k for k, components in strata
                 if any(comps[i].facets in c and comps[j].facets in c
                        for c in components)), 1)
    chains = []

    def extend(path):
        if path[-1] == n - 1:
            chains.append(path)
            return
        for v in range(n):
            if v not in path and comps[v].K != comps[path[-1]].K:
                extend(path + [v])

    extend([0])

    def cost(path):
        return sum(abs(comps[u].K - comps[v].K) / q[(u, v)]
                   for u, v in zip(path, path[1:]))

    def m_sum(path):
        return sum(Fraction(comps[u].m - comps[v].m, q[(u, v)])
                   * (1 if comps[u].K > comps[v].K else -1)
                   for u, v in zip(path, path[1:]))

    best = min(cost(path) for path in chains)
    optimal = sorted(path for path in chains if cost(path) == best)
    keys = [tuple(sorted(c.facets)) for c in comps]
    return (best,
            tuple(tuple(keys[v] for v in path) for path in optimal),
            any(m_sum(path) == comps[0].m for path in optimal),
            {(i, j): q[(i, j)] for i in range(n) for j in range(i + 1, n)})


def former_rule_s2(circle):
    poly, comps = circle.poly, circle.components
    bound = circle.isotropy_bound
    if bound > 2:
        return Finding(rule="S2", triggered=False, definitive=True,
                       certificate={"applicable": False,
                                    "isotropy_bound": bound})
    fmax, fmin = comps[0], comps[-1]
    height = generic_vector(poly)  # one Morse height for every face
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
                for i, b in enumerate(face_betti(poly, c.face, height)):
                    j = 2 * i + c.index
                    profile_l[j] = profile_l.get(j, 0) + b
            profile_r = {}
            for c in right:
                for i, b in enumerate(face_betti(poly, c.face, height)):
                    j = 2 * i + c.coindex
                    profile_r[j] = profile_r.get(j, 0) + b
            if profile_l != profile_r:
                problems.append(
                    f"homology profile at (K,m)=({K},{m}) is asymmetric: "
                    f"{profile_l} vs {profile_r}")
    return Finding(rule="S2", triggered=bool(problems), definitive=True,
                   certificate={"applicable": True, "isotropy_bound": bound,
                                "violations": problems})


def former_rule_t2(ring, circle):
    """The former `_rule_t2`, which compared K as a Fraction."""
    comps = circle.components
    fmax = comps[0]
    visible = [all(w == 1 for w in comp.weights.values() if w > 0)
               and _euler_class_nonzero(ring, comp) for comp in comps]
    ks = [comp.K for comp, vis in zip(comps, visible)
          if vis and comp is not fmax]
    bounds = circle.superlevel_bounds(ks)
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


def former_rule_c(circle):
    """The former `_rule_c`, which compared K as a Fraction."""
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


def former_rule_p6(circle):
    """`_rule_p6` on `former_chain_bound`, which lists every chain."""
    bound = former_chain_bound(circle.poly, circle.xi, circle)
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


def former_euler_class_nonzero(ring, comp):
    """Euler class of the obstruction bundle along a fixed face: the product
    of the restricted facet classes to the powers (weight magnitude - 1)
    over the negative-weight facets."""
    powers = {i: -w - 1 for i, w in comp.weights.items() if w <= -2}
    if not powers:
        return True  # rank-zero bundle: the Euler class is the unit
    return bool(restrict_to_face(
        ring, poly_monomial(powers, ring.polytope.num_facets), comp.face))


def reference_classical_class(ring, facet_powers, classes):
    """The former _classical_class, its exponent tuple built by hand."""
    mono = [0] * ring.polytope.num_facets
    for i, e in facet_powers.items():
        mono[i] = e
    mono = tuple(mono)
    if mono not in classes:
        classes[mono] = ring.reduce_full({mono: Fraction(1)})
    return classes[mono]


# ------------------------------------------------------------ the quantum ring

class FormerNovScalar:
    """The former `novikov.NovScalar`, keyed by Fraction t-exponents with
    Fraction coefficients.  Immutable by convention; do not mutate `terms`
    after construction."""

    __slots__ = ("terms", "cutoff", "truncated")

    def __init__(self, terms, cutoff, truncated=False):
        cutoff = Fraction(cutoff)
        clean = {}
        for (d, kappa), c in terms.items():
            check_term(d, kappa, c)
            if c == 0:
                continue
            c, kappa = Fraction(c), Fraction(kappa)
            if kappa > cutoff:
                truncated = True
                continue
            clean[(d, kappa)] = c
        self.terms = clean
        self.cutoff = cutoff
        self.truncated = truncated

    # -- constructors -------------------------------------------------------

    @classmethod
    def trusted(cls, terms, cutoff, truncated):
        """A scalar on `terms` as given; see the module docstring."""
        self = object.__new__(cls)
        self.terms, self.cutoff, self.truncated = terms, cutoff, truncated
        return self

    @classmethod
    def zero(cls, cutoff):
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff):
        return cls({(0, Fraction(0)): Fraction(1)}, cutoff)

    @classmethod
    def monomial(cls, coeff, d, kappa, cutoff):
        return cls({(d, kappa): coeff}, cutoff)

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, FormerNovScalar):
            return NotImplemented
        return self.terms == other.terms and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def _check(self, other):
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(
                f"cutoffs differ: {self.cutoff} vs {other.cutoff}")

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return FormerNovScalar.trusted({k: c for k, c in terms.items() if c},
                                       self.cutoff,
                                       self.truncated or other.truncated)

    def __neg__(self):
        return FormerNovScalar.trusted({k: -c for k, c in self.terms.items()},
                                       self.cutoff, self.truncated)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        terms, cutoff = {}, self.cutoff
        truncated = self.truncated or other.truncated
        for (d1, k1), c1 in self.terms.items():
            for (d2, k2), c2 in other.terms.items():
                kappa = k1 + k2
                if kappa > cutoff:
                    truncated = True
                    continue
                key = (d1 + d2, kappa)
                terms[key] = terms.get(key, 0) + c1 * c2
        return FormerNovScalar.trusted({k: c for k, c in terms.items() if c},
                                       cutoff, truncated)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        terms = {k: c * v for k, v in self.terms.items()} if c else {}
        return FormerNovScalar.trusted(terms, self.cutoff, self.truncated)

    def with_truncated(self, flag):
        return FormerNovScalar.trusted(self.terms, self.cutoff, flag)

    # -- queries -------------------------------------------------------------

    def valuation(self):
        if not self.terms:
            raise ZeroElement("valuation of zero")
        return min(k for _, k in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: (item[0][1], item[0][0]))

    # -- inversion ------------------------------------------------------------

    def invert(self):
        """Inverse, when the minimal-kappa slice is a single monomial.

        Factors the leading monomial and expands the geometric series in the
        positive-valuation remainder, truncating at the cutoff.

        Precision: the product a * a.invert() stores exactly 1 whenever the
        valuation of a is >= 0 (the residue lives above the cutoff and is
        dropped, with the flag set).  For a unit of negative valuation -s the
        stored residue can reach down to cutoff - s, because the cancelling
        partners sit above the cutoff and cannot be stored.  Monomials invert
        exactly in every case.
        """
        if not self.terms:
            raise ZeroElement("cannot invert zero")
        v = self.valuation()
        lead = [(d, c) for (d, k), c in self.terms.items() if k == v]
        if len(lead) != 1:
            raise NotAUnit(
                "scalar has several terms of minimal t-exponent; not a unit "
                "of the Laurent ring")
        (d0, c0), = lead
        base = FormerNovScalar.monomial(Fraction(1, 1) / c0, -d0, -v,
                                        self.cutoff)
        # self = c0 q^d0 t^v (1 - r) with val(r) > 0
        r = (FormerNovScalar.one(self.cutoff) - base * self).with_truncated(
            False)
        result = FormerNovScalar.one(self.cutoff)
        power = FormerNovScalar.one(self.cutoff)
        truncated = self.truncated
        if r:
            rv = r.valuation()
            if rv <= 0:  # the inverse of the leading monomial was dropped
                raise NotAUnit(f"no inverse below the cutoff {self.cutoff}: "
                               f"t^{-v} lies above it")
            steps = int((self.cutoff - (-v)) // rv) + 1
            for _ in range(max(steps, 0)):
                power = power * r
                if not power:
                    break
                result = result + power
            truncated = True  # a genuine series continues above the cutoff
        return (base * result).with_truncated(truncated or base.truncated)

    # -- rendering -------------------------------------------------------------

    def __repr__(self):
        if not self.terms:
            return "NovScalar(0)"
        bits = []
        for (d, k), c in self.sorted_terms():
            bits.append(f"{c}*q^{d}*t^{k}")
        return "NovScalar(" + " + ".join(bits) + ")"



def reference_nf(z, qp):
    """The former quantum_nf: one NovScalar per atom and partial sum."""
    if isinstance(z, QClass):
        pending = dict(z.coeffs)
    else:
        pending = dict(z)
    result = {}
    truncated = qpoly_truncated(pending)
    pending = [(m, d, kappa, c) for m, d, kappa, c in qpoly_atoms(pending)]
    guard = 0
    while pending:
        guard += 1
        if guard >= 10000:
            raise BadCorrectionValuation("quantum reduction diverged")
        level = min(kappa for _, _, kappa, _ in pending)
        batch = [(m, d, c) for m, d, kappa, c in pending if kappa == level]
        pending = [atom for atom in pending if atom[2] != level]
        # group by q-degree; classical reduction is q-linear
        slices = {}
        for m, d, c in batch:
            slices.setdefault(d, {})
            slices[d][m] = slices[d].get(m, Fraction(0)) + c
        for d, poly in slices.items():
            for mono, coeff in poly.items():
                if not coeff:
                    continue
                nf, trace = _nf_traced_cached(qp, mono)
                for m2, c2 in nf.items():
                    s = NovScalar.monomial(coeff * c2, d, level, qp.cutoff)
                    cur = result.get(m2)
                    result[m2] = s if cur is None else cur + s
                for key, cof in trace.items():
                    delta = qp.corrections[key]
                    for mc, cc in cof.items():
                        shifted = qpoly_scale(
                            delta, NovScalar.monomial(coeff * cc, d, level,
                                                      qp.cutoff))
                        for m3, d3, k3, c3 in qpoly_atoms(
                                {mono_mul(mc, mm): ss
                                 for mm, ss in shifted.items()}):
                            if k3 > qp.cutoff:
                                truncated = True
                                continue
                            if k3 <= level:
                                raise NonPositiveEnergy(
                                    "a correction failed to raise the "
                                    "valuation; relation energies must be "
                                    "positive")
                            pending.append((m3, d3, k3, c3))
                        truncated = truncated or qpoly_truncated(shifted)
    coeffs = {}
    for m, s in result.items():
        if not s.is_zero():
            coeffs[m] = s.with_truncated(s.truncated or truncated)
    if truncated and coeffs:
        coeffs = {m: s.with_truncated(True) for m, s in coeffs.items()}
    if truncated and not coeffs:
        # preserve the flag on a zero class via an explicitly flagged zero
        return QClass({(0,) * qp.ring.width:
                       NovScalar({}, qp.cutoff, True)}, qp.cutoff)
    return QClass(coeffs, qp.cutoff)


def former_quantum_nf(z, qp):
    """`quantum_nf` as it was before the integer grid, verbatim: pending
    atoms keyed by Fraction levels, corrections read per trace entry."""
    coeffs = z.coeffs if isinstance(z, QClass) else z
    cutoff = Fraction(qp.cutoff)
    truncated = qpoly_truncated(coeffs)
    pending = {}
    for m, s in coeffs.items():
        for (d, kappa), c in s.terms.items():
            if kappa > cutoff:  # an input scalar with a larger cutoff
                truncated = True
                continue
            atoms = pending.setdefault(kappa, {})
            atoms[d, m] = atoms.get((d, m), 0) + c
    result = {}
    guard = 0
    while pending:
        guard += 1
        if guard >= 10000:
            raise BadCorrectionValuation("quantum reduction diverged")
        level = min(pending)
        for (d, mono), coeff in pending.pop(level).items():
            if not coeff:
                continue
            nf, trace = _nf_traced_cached(qp, mono)
            for m2, c2 in nf.items():
                terms = result.setdefault(m2, {})
                terms[d, level] = terms.get((d, level), 0) + coeff * c2
            for key, cof in trace.items():
                delta = qp.corrections[key]
                for mc, cc in cof.items():
                    scale = coeff * cc
                    for mm, s in delta.items():
                        truncated = truncated or s.truncated
                        m3 = mono_mul(mc, mm)
                        for (d3, k3), c3 in s.terms.items():
                            k3 += level
                            if k3 > cutoff:
                                truncated = True
                                continue
                            if k3 <= level:
                                raise NonPositiveEnergy(
                                    "a correction failed to raise the "
                                    "valuation; relation energies must be "
                                    "positive")
                            atoms = pending.setdefault(k3, {})
                            key3 = (d3 + d, m3)
                            atoms[key3] = atoms.get(key3, 0) + c3 * scale
    out = {}
    for m, terms in result.items():
        terms = {k: c for k, c in terms.items() if c}
        if terms:
            out[m] = NovScalar.trusted(terms, cutoff, truncated)
    if truncated and not out:
        # preserve the flag on a zero class via an explicitly flagged zero
        out = {(0,) * qp.ring.width: NovScalar.trusted({}, cutoff, True)}
    return QClass(out, qp.cutoff)


def former_qprod(a, b, qp):
    """`qprod` as it was: the normal form of the multiplied-out product."""
    return former_quantum_nf(qpoly_mul(a.coeffs, b.coeffs), qp)


def former_kept_qpoly(ring, terms):
    """Sum of (full-variable monomial, NovScalar) terms as a quantum
    polynomial in the kept variables; truncation flags carry over."""
    out = {}
    for mono, s in terms:
        if s.is_zero() and not s.truncated:
            continue
        for m, c in ring.monomial_image(mono).items():
            out[m] = out[m] + s.scale(c) if m in out else s.scale(c)
    return out


def former_lift(qp, full_poly, d=0, kappa=0, coeff=1):
    """Quantum class of a polynomial expression in the full facet variables,
    times an optional Novikov monomial."""
    return quantum_nf(former_kept_qpoly(qp.ring, [
        (m, NovScalar.monomial(Fraction(coeff) * c, d, kappa, qp.cutoff))
        for m, c in full_poly.items()]), qp)


def former_kept_terms(qp, terms):
    """Kept-variable form of {(full monomial, d, kappa): coefficient}."""
    return former_kept_qpoly(qp.ring, [
        (mono, NovScalar.monomial(c, d, kappa, qp.cutoff))
        for (mono, d, kappa), c in terms.items()])


def former_from_terms(qp, terms, truncated=False):
    """The former `qclass_from_json` after parsing its terms."""
    coeffs = former_kept_terms(qp, terms)
    if truncated:
        coeffs = {m: s.with_truncated(True) for m, s in coeffs.items()}
    return quantum_nf(coeffs, qp)


def reference_from_terms(qp, terms, truncated=False):
    """`former_from_terms`, except that a flagged input whose kept
    coefficients are all gone is a flagged zero: the former route set the
    flag on those coefficients and so dropped it."""
    want = former_from_terms(qp, terms, truncated)
    if truncated and not want.truncated:
        assert not want.coeffs
        want = QClass({(0,) * qp.ring.width:
                       NovScalar.trusted({}, qp.cutoff, True)}, qp.cutoff)
    return want


def reference_fano_presentation(poly, cutoff=None):
    """The former fano_presentation, with x^J built by hand."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly)
    corrections = {}
    energies = []
    for p in ring.prims:
        mono = {tuple(p.coeffs[p.j_indices.index(j)] if j in p.j_indices
                      else 0 for j in range(poly.num_facets)): Fraction(1)}
        kept = ring.substitute(mono)
        omega = p.beta.omega(poly)
        corrections[p.key] = qpoly_from_poly(kept, cutoff,
                                             d=p.beta.c1(), kappa=omega)
        energies.append(omega)
    return QuantumPresentation(ring=ring, corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="fano")


def reference_nef_presentation(poly, y_table, cutoff=None):
    """The former nef_presentation, with x_I built by hand."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly)
    y_classes = {}
    for i in range(poly.num_facets):
        if i not in y_table:
            raise MissingYEntry(
                f"no Y entry for facet {i + 1}; supply one (possibly empty)")
        corr = {m: (s if isinstance(s, NovScalar) else
                    NovScalar.monomial(s, 0, 0, cutoff))
                for m, s in y_table[i].items()}
        kept_corr = _validate_y_correction(ring, i, corr, cutoff)
        xi = qpoly_from_poly(ring.var(i), cutoff)
        y_classes[i] = qpoly_add(xi, kept_corr)

    corrections = {}
    energies = []
    for p in ring.prims:
        lead = qpoly_from_poly(ring.substitute(
            {tuple(1 if j in p.indices else 0
                   for j in range(poly.num_facets)): Fraction(1)}), cutoff)
        prod_i = None
        for i in p.indices:
            prod_i = y_classes[i] if prod_i is None \
                else qpoly_mul(prod_i, y_classes[i])
        prod_j = {(0,) * ring.width: NovScalar.one(cutoff)}
        for j, c in zip(p.j_indices, p.coeffs):
            for _ in range(c):
                prod_j = qpoly_mul(prod_j, y_classes[j])
        omega = p.beta.omega(poly)
        energy = NovScalar.monomial(1, p.beta.c1(), omega, cutoff)
        q_gen = qpoly_add(prod_i, qpoly_scale(prod_j, -energy))
        delta = qpoly_add(lead, qpoly_scale(q_gen, NovScalar.monomial(
            -1, 0, 0, cutoff)))
        val = qpoly_valuation(delta)
        if val is None or val <= 0:
            raise BadCorrectionValuation(
                f"relation correction for I={list(p.indices)} has "
                f"valuation {val}")
        corrections[p.key] = delta
        energies.append(val)
    return QuantumPresentation(ring=ring, corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="nef",
                               y_classes=y_classes)


def reference_qsub(a, b):
    """The former `qsub`: a series product with -1."""
    minus_one = NovScalar.monomial(-1, 0, 0, b.cutoff)
    return qadd(a, qscale(b, minus_one))


def former_qinv(a, qp):
    """The former `quantum.qinv`, one qprod per slot of every extension it
    tries, kept as the reference of the one column per slot.

    Inverse of a homogeneous even-degree unit, up to the cutoff.

    Unknown coefficients are placed on (standard monomial, t-exponent) slots
    whose q-exponents are pinned by the grading; the exact linear system
    qprod(a, u) = 1 is solved level by level in valuation.  Slots live on
    the exponent lattice generated by a's exponent differences and the
    correction energies; the bottom of the range is extended when leading
    slices cancel classically and the inverse valuation drops.
    """
    deg = a.degree()
    if deg == "inhomogeneous" or deg % 2:
        raise NotAUnit("inversion needs a homogeneous even-degree class")
    if a.is_zero():
        raise NotAUnit("zero is not a unit")
    vala = a.valuation()
    exps = sorted({k for _, _, k, _ in qpoly_atoms(a.coeffs)})
    corr_exps = sorted({k for delta in qp.corrections.values()
                        for _, _, k, _ in qpoly_atoms(delta)})
    step = _exponent_step([e - vala for e in exps] + corr_exps)
    deg_u = -deg
    monos = []
    for m in qp.ring.standard_monomials:
        d = (deg_u - 2 * mono_degree(m)) // 2
        if 2 * mono_degree(m) + 2 * d == deg_u:
            monos.append((m, d))
    hi = qp.cutoff - vala

    for extension in (0, 1, 2):
        lo = -vala - extension * qp.cutoff
        if step is None:
            slot_exps = [-vala]
        else:
            slot_exps = []
            k = 0
            while -vala + k * step <= min(hi, qp.cutoff):
                slot_exps.append(-vala + k * step)
                k += 1
            k = 1
            while -vala - k * step >= lo:
                slot_exps.append(-vala - k * step)
                k += 1
            slot_exps.sort()
        slots = [(m, d, k) for k in slot_exps for (m, d) in monos]
        columns = [qprod(a, QClass({m: NovScalar.monomial(1, d, k, qp.cutoff)},
                                   qp.cutoff), qp) for (m, d, k) in slots]
        for strict in (True, False):
            sol = _solve_unit_system(qp, slots, columns, strict_cut=strict,
                                     vala=vala)
            if sol is not None:
                coeffs = {}
                used_truncated = False
                for (m, d, k), c, col in zip(slots, sol, columns):
                    if not c:
                        continue
                    used_truncated = used_truncated or col.truncated
                    s = NovScalar.monomial(c, d, k, qp.cutoff)
                    coeffs[m] = coeffs[m] + s if m in coeffs else s
                truncated = (not strict) or a.truncated or used_truncated
                if truncated:
                    coeffs = {m: s.with_truncated(True)
                              for m, s in coeffs.items()}
                return QClass(coeffs, qp.cutoff)
    raise NotAUnit("no inverse exists at this cutoff")


# ------------------------------------------------------------- Seidel elements

def reference_facet_seidel_fano(qp, i):
    """The former Fano branch of facet_seidel."""
    poly = qp.polytope
    support = poly.support(i)
    full = [0] * poly.num_facets
    full[i] = 1
    qclass = lift(qp, {(tuple(full), -1, -support): 1})
    return SeidelElement(qclass=qclass, xi=poly.normal(i), mode=qp.mode,
                         leading_face=frozenset({i}), m_max=-1,
                         K_max=support, semifree=True,
                         polytope_facets=poly.facets)


def reference_inverse(qp, i, inverses):
    """S(eta_i)^-1, once per facet of one presentation."""
    if i not in inverses:
        inverses[i] = qinv(facet_seidel(qp, i).qclass, qp)
    return inverses[i]


def reference_facet_power(qp, i, a, inverses):
    """S(eta_i)^a for a nonzero integer a, rebuilt with `qpow`."""
    base = facet_seidel(qp, i).qclass if a > 0 \
        else reference_inverse(qp, i, inverses)
    return qpow(base, abs(a), qp)


def reference_facet_product(qp, coords, inverses):
    """The former `facet_product`: every power rebuilt with `qpow`."""
    out = qp.one()
    for i, a in coords.items():
        if a:
            out = qprod(out, reference_facet_power(qp, i, a, inverses), qp)
    return out


def reference_seidel_element(qp, xi, inverses=None):
    """The former `seidel_element`, F_max from every fixed component (the
    former `extrema`), a NEF element by the former `facet_product`; calls
    that pass one `inverses` dict share its facet inverses."""
    poly = qp.polytope
    fmax = fixed_components(poly, xi)[0]
    xi = tuple(xi)
    if qp.mode == "fano":
        x_a = poly_monomial({i: -w for i, w in fmax.weights.items()},
                            poly.num_facets)
        out = lift(qp, {(m, fmax.m, -fmax.K): c for m, c in x_a.items()})
    else:
        out = reference_facet_product(qp, poly.coordinates(0, xi),
                                      {} if inverses is None else inverses)
    if out.degree() != 0:
        raise WrongDegree(f"the Seidel element of {xi} has degree "
                          f"{out.degree()}, not zero")
    return SeidelElement(qclass=out, xi=xi, mode=qp.mode,
                         leading_face=fmax.facets, m_max=fmax.m, K_max=fmax.K,
                         semifree=fmax.semifree, polytope_facets=poly.facets)


def former_valuation(qclass):
    """The former `QClass.valuation`."""
    a = qclass.coeffs
    vals = [s.valuation() for s in a.values() if not s.is_zero()]
    return min(vals) if vals else None


def former_slice_at(qclass, kappa):
    """The level-kappa slice as {(monomial, d): coefficient}."""
    out = {}
    for m, d, k, c in qpoly_atoms(qclass.coeffs):
        if k == kappa:
            out[(m, d)] = out.get((m, d), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def former_verify_leading_term(qp, xi, element=None):
    """The former `verify_leading_term`, which checks xi and that an element
    passed in is the one of xi in qp's mode."""
    poly = qp.polytope
    xi = former_check_xi(xi)
    if element is None:
        element = reference_seidel_element(qp, xi)
    elif element.xi != xi or element.mode != qp.mode:
        raise ElementMismatch(f"the element of {element.xi} in {element.mode}"
                              f" mode, passed for {xi} in {qp.mode} mode")
    face = poly.faces[element.leading_face]
    m_max, K_max = element.m_max, element.K_max
    report = {"f_max": sorted(face.facets), "m_max": m_max, "K_max": K_max,
              "assumptions": [], "exactness": None, "exact_ok": None}
    (x_face,) = poly_monomial(dict.fromkeys(face.facets, 1), poly.num_facets)
    expected_lead = qp.ring.monomial_nf(x_face)
    lead_ok = former_valuation(element.qclass) == -K_max
    if lead_ok:
        slice_got = former_slice_at(element.qclass, -K_max)
        slice_want = {(m, m_max): c for m, c in expected_lead.items()}
        lead_ok = slice_got == slice_want
    report["leading_ok"] = lead_ok

    # exactness criteria
    exact_expected = None
    codim = 2 * (poly.n - face.dim)
    if qp.mode == "fano" and face.dim == poly.n - 1:
        exact_expected = lift(qp, {(x_face, m_max, -K_max): 1})
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
                    lift(qp, {(x_face, 0, 0): 1}),
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
        report["exact_ok"] = element.qclass == exact_expected
    ok = bool(report["leading_ok"]) and report["exact_ok"] is not False
    return ok, report


def unchecked_verify_leading_term(qp, xi, element):
    """`verify_leading_term` before it checked its arguments: it read an
    element passed in alone, so for an element of qp's mode it answered for
    the element's own circle, whatever xi said."""
    return former_verify_leading_term(qp, element.xi, element)


def reference_to_homology_report(dictionary, qclass, qp):
    """The former `to_homology_report`: the top monomial, the inverse of
    the point lift's top coefficient and the probe ratios derived on every
    call, zero scalars made for missing keys."""
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


def reference_rule_sd(qp, xi):
    """The former `_rule_sd`: nontriviality by a difference."""
    element = seidel_element(qp, xi)
    nontrivial = not reference_qsub(element.qclass, qp.one()).is_zero()
    ok, lead_report = former_verify_leading_term(qp, xi, element=element)
    assumptions = ["fano asserted by caller"] if qp.mode == "fano" else \
        ["nef asserted by caller", "Y table supplied by caller"]
    return Finding(rule="SD",
                   triggered=nontrivial,
                   definitive=qp.mode == "fano",
                   certificate={"seidel_nontrivial": nontrivial,
                                "leading_term": lead_report},
                   assumptions=tuple(assumptions)), element


def former_check_homomorphism(qp, trials=20, seed=DEFAULT_SEED):
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


def former_check_inverse_law(qp, trials=10, seed=DEFAULT_SEED):
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


# -------------------------------------------- expressions and the command line

def former_tokenize(text):
    """The former `exprparse._tokenize`, a character loop."""
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "+-*^(){}":
            tokens.append((c, c))
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            if j < len(text) and text[j] == "/":
                k = j + 1
                while k < len(text) and text[k].isdigit():
                    k += 1
                if k == j + 1:
                    raise ExprSyntaxError(f"bad rational at {i}: {text[i:k]}")
                try:
                    tokens.append(("num", Fraction(text[i:k])))
                except ZeroDivisionError:
                    raise ExprSyntaxError(f"zero denominator at {i}")
                i = k
            else:
                tokens.append(("num", Fraction(text[i:j])))
                i = j
            continue
        if c == "x":
            j = i + 1
            while j < len(text) and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ExprSyntaxError(f"variable needs an index at {i}")
            tokens.append(("var", int(text[i + 1:j])))
            i = j
            continue
        if c == "q":
            tokens.append(("q", None))
            i += 1
            continue
        if c == "t":
            tokens.append(("t", None))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {c!r} at {i}")
    tokens.append(("end", None))
    return tokens


class ReferenceParser:
    """The former _Parser, with its own polynomial arithmetic."""

    def __init__(self, tokens, n_vars):
        self.tokens = tokens
        self.pos = 0
        self.n = n_vars

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}, found {tok[0]!r}")
        self.pos += 1
        return tok

    # values: {(mono tuple, q exponent, t exponent): coefficient}

    def _const(self, c):
        return {((0,) * self.n, 0, Fraction(0)): Fraction(c)}

    def _scale(self, v, c):
        return {k: c * x for k, x in v.items() if c * x}

    def _add(self, a, b):
        out = dict(a)
        for k, c in b.items():
            s = out.get(k, Fraction(0)) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def _mul(self, a, b):
        out = {}
        for (m1, d1, k1), c1 in a.items():
            for (m2, d2, k2), c2 in b.items():
                key = (tuple(x + y for x, y in zip(m1, m2)), d1 + d2, k1 + k2)
                s = out.get(key, Fraction(0)) + c1 * c2
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return out

    def parse(self):
        value = self.expr()
        self.take("end")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = self._add(value, rhs if op == "+"
                              else self._scale(rhs, Fraction(-1)))
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take("*")
            value = self._mul(value, self.factor())
        return value

    def factor(self):
        if self.peek() == "-":
            self.take("-")
            return self._scale(self.factor(), Fraction(-1))
        value, kind = self.atom()
        if self.peek() == "^":
            self.take("^")
            exponent = self.exponent()
            if kind == "t":
                return {((0,) * self.n, 0, exponent): Fraction(1)}
            if kind == "q":
                if exponent.denominator != 1:
                    raise ExprSyntaxError("q exponents must be integers")
                return {((0,) * self.n, int(exponent), Fraction(0)):
                        Fraction(1)}
            if exponent.denominator != 1 or exponent < 0:
                raise ExprSyntaxError(
                    "variable exponents must be nonnegative integers")
            out = self._const(1)
            for _ in range(int(exponent)):
                out = self._mul(out, value)
            return out
        return value

    def atom(self):
        kind = self.peek()
        if kind == "num":
            return self._const(self.take()[1]), "num"
        if kind == "var":
            idx = self.take()[1]
            if not 1 <= idx <= self.n:
                raise ExprSyntaxError(
                    f"x{idx} is out of range; this polytope has {self.n} "
                    "facets")
            mono = tuple(1 if i == idx - 1 else 0 for i in range(self.n))
            return {(mono, 0, Fraction(0)): Fraction(1)}, "var"
        if kind == "q":
            self.take()
            return {((0,) * self.n, 1, Fraction(0)): Fraction(1)}, "q"
        if kind == "t":
            self.take()
            return {((0,) * self.n, 0, Fraction(1)): Fraction(1)}, "t"
        if kind == "(":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value, "group"
        raise ExprSyntaxError(f"unexpected token {kind!r}")

    def exponent(self):
        if self.peek() == "{":
            self.take("{")
            sign = 1
            if self.peek() == "-":
                self.take("-")
                sign = -1
            value = self.take("num")[1]
            self.take("}")
            return sign * value
        if self.peek() == "-":
            self.take("-")
            return -self.take("num")[1]
        return Fraction(self.take("num")[1])


def reference_build_arg_parser(command=None):
    """The former `build_arg_parser`, verbatim."""
    parser = argparse.ArgumentParser(
        prog="toricqh",
        description="Exact quantum cohomology of toric manifolds from "
                    "moment polytopes")
    # the metavar would rename `command` in the full tree's errors
    metavar = {"metavar": "{%s}" % ",".join(COMMANDS)} if command else {}
    subs = parser.add_subparsers(dest="command", required=True, **metavar)
    for name in [command] if command else COMMANDS:
        help_text, handler, specs = COMMANDS[name]
        sub = subs.add_parser(name, help=help_text)
        for flags, kwargs in specs:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(func=handler, usage_error=sub.error)
    return parser


def reference_parse(argv):
    """The former parse in `main`: the invoked command's tree alone."""
    command = argv[0] if argv and argv[0] in COMMANDS else None
    return reference_build_arg_parser(command).parse_args(argv)
