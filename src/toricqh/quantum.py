"""The small quantum ring as a quotient presentation, with quantum normal
forms, products, and unit inversion.

Internal representation: a quantum polynomial maps standard-monomial keys
(kept variables of the classical ring) to Novikov scalars.  Basis monomials
stand for iterated quantum products of the facet classes; they agree with
the classical classes in degrees 0 and 2 but not above, and the geometric
translation lives in the seidel module.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .cohomology import build_ring
from .errors import (
    BadCorrectionDegree,
    BadCorrectionValuation,
    MissingYEntry,
    NonPositiveEnergy,
    NotAUnit,
    WrongDegree,
)
from .novikov import NovScalar
from .polynomials import mono_degree, mono_mul, poly_term_mul
from .polytope import primitive_sets


# ------------------------------------------------------ quantum polynomials

def qpoly_add(a, b):
    out = dict(a)
    for m, s in b.items():
        cur = out.get(m)
        tot = s if cur is None else cur + s
        if tot.is_zero() and not tot.truncated:
            out.pop(m, None)
        else:
            out[m] = tot
    return {m: s for m, s in out.items() if not s.is_zero() or s.truncated}


def qpoly_from_poly(poly, cutoff, d=0, kappa=0):
    return {m: NovScalar.monomial(c, d, kappa, cutoff)
            for m, c in poly.items()}


def qpoly_scale(a, s):
    out = {}
    for m, v in a.items():
        val = v * s
        if not val.is_zero() or val.truncated:
            out[m] = val
    return out


def qpoly_mul(a, b):
    out = {}
    for m1, s1 in a.items():
        for m2, s2 in b.items():
            m = mono_mul(m1, m2)
            s = s1 * s2
            cur = out.get(m)
            tot = s if cur is None else cur + s
            out[m] = tot
    return {m: s for m, s in out.items() if not s.is_zero() or s.truncated}


def kept_qpoly(ring, terms):
    """Sum of (full-variable monomial, NovScalar) terms as a quantum
    polynomial in the kept variables; truncation flags carry over."""
    out = {}
    for mono, s in terms:
        if s.is_zero() and not s.truncated:
            continue
        for m, c in ring.substitute({mono: Fraction(1)}).items():
            term = s.scale(c)
            cur = out.get(m)
            out[m] = term if cur is None else cur + term
    return out


def qpoly_atoms(a):
    for m, s in a.items():
        for (d, kappa), c in s.terms.items():
            yield m, d, kappa, c


def qpoly_valuation(a):
    vals = [s.valuation() for s in a.values() if not s.is_zero()]
    return min(vals) if vals else None


def qpoly_truncated(a):
    return any(s.truncated for s in a.values())


# ------------------------------------------------------------------ classes

@dataclass(frozen=True)
class QClass:
    """A quantum class on the standard-monomial basis."""
    coeffs: dict
    cutoff: Fraction

    @property
    def truncated(self):
        return qpoly_truncated(self.coeffs)

    def is_zero(self):
        return all(s.is_zero() for s in self.coeffs.values())

    def valuation(self):
        return qpoly_valuation(self.coeffs)

    def degree(self):
        """Common degree of all atoms, or the string 'inhomogeneous'."""
        degs = {2 * mono_degree(m) + 2 * d
                for m, d, _, _ in qpoly_atoms(self.coeffs)}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return "inhomogeneous"

    def __eq__(self, other):
        if not isinstance(other, QClass):
            return NotImplemented
        a = {m: s for m, s in self.coeffs.items() if not s.is_zero()}
        b = {m: s for m, s in other.coeffs.items() if not s.is_zero()}
        return a == b and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset((m, frozenset(s.terms.items()))
                               for m, s in self.coeffs.items()),
                     self.cutoff))

    def slice_at(self, kappa):
        """The level-kappa slice as {(monomial, d): coefficient}."""
        out = {}
        for m, d, k, c in qpoly_atoms(self.coeffs):
            if k == kappa:
                out[(m, d)] = out.get((m, d), Fraction(0)) + c
        return {k: v for k, v in out.items() if v}


# ------------------------------------------------------------- presentation

@dataclass
class QuantumPresentation:
    ring: object
    prims: list
    corrections: dict  # primitive key -> quantum polynomial Delta_I
    hbar: Fraction
    cutoff: Fraction
    mode: str  # "fano" | "nef"
    y_classes: dict = None  # facet index -> kept quantum polynomial Y_i
    _nf_cache: dict = field(default_factory=dict, repr=False)
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def polytope(self):
        return self.ring.polytope

    def zero(self):
        return QClass({}, self.cutoff)

    def one(self):
        one = NovScalar.one(self.cutoff)
        return QClass({(0,) * self.ring.width: one}, self.cutoff)


def default_cutoff(poly):
    """Four times the largest relation energy."""
    energies = [p.beta.omega(poly) for p in primitive_sets(poly)]
    return 4 * max(energies)


def fano_presentation(poly, cutoff=None):
    """Quantum relations with no correction terms beyond the relation
    monomial itself; valid under the caller's assertion that every
    holomorphic sphere class has positive first Chern number."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else default_cutoff(poly)
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
    return QuantumPresentation(ring=ring, prims=ring.prims,
                               corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="fano")


def _validate_y_correction(ring, i, correction, cutoff):
    for m, s in correction.items():
        for (d, kappa), c in s.terms.items():
            if 2 * mono_degree(m) + 2 * d != 2 or d not in (0, 1):
                raise BadCorrectionDegree(
                    f"Y correction for facet {i + 1} has an atom of degree "
                    f"{2 * mono_degree(m) + 2 * d} with q-exponent {d}")
    kept = {m: s for m, s in kept_qpoly(ring, correction.items()).items()
            if not s.is_zero() or s.truncated}
    val = qpoly_valuation(kept)
    if val is not None and val <= 0:
        raise BadCorrectionValuation(
            f"Y correction for facet {i + 1} has valuation {val} <= 0 after "
            "reduction by the linear relations")
    return kept


def nef_presentation(poly, y_table, cutoff=None):
    """Quantum relations built from supplied facet unit lifts.

    `y_table` maps facet index (0-based) to the correction part of Y_i as a
    quantum polynomial in the full facet variables; an entry must be present
    for every facet (use an empty dict when Y_i = x_i).
    """
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else default_cutoff(poly)
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
    return QuantumPresentation(ring=ring, prims=ring.prims,
                               corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="nef",
                               y_classes=y_classes)


# -------------------------------------------------------------- normal form

def _nf_traced_cached(qp, mono):
    cached = qp._nf_cache.get(mono)
    if cached is None:
        cached = qp.ring.nf_traced({mono: Fraction(1)})
        qp._nf_cache[mono] = cached
    return cached


def quantum_nf(z, qp):
    """Normal form modulo the quantum ideal.

    Terms are processed by increasing valuation: each level is classically
    reduced with its trace, and every traced use of a Stanley-Reisner
    generator enqueues the matching correction, whose valuation is higher by
    at least hbar.  Terms pushed above the cutoff are dropped and flagged.
    """
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


def lift(qp, full_poly, d=0, kappa=0, coeff=1):
    """Quantum class of a polynomial expression in the full facet variables,
    times an optional Novikov monomial."""
    return quantum_nf(kept_qpoly(qp.ring, [
        (m, NovScalar.monomial(Fraction(coeff) * c, d, kappa, qp.cutoff))
        for m, c in full_poly.items()]), qp)


def qprod(a, b, qp):
    """Quantum product of two classes."""
    return quantum_nf(qpoly_mul(a.coeffs, b.coeffs), qp)


def qpow(a, k, qp):
    out = qp.one()
    for _ in range(k):
        out = qprod(out, a, qp)
    return out


def qscale(a, s):
    return QClass(qpoly_scale(a.coeffs, s), a.cutoff)


def qadd(a, b):
    return QClass(qpoly_add(a.coeffs, b.coeffs), a.cutoff)


def qsub(a, b):
    minus_one = NovScalar.monomial(-1, 0, 0, b.cutoff)
    return qadd(a, qscale(b, minus_one))


# ---------------------------------------------------------------- inversion

def _exponent_step(values):
    """Generator of the additive group spanned by the given rationals."""
    num = 0
    den = 1
    for v in values:
        v = Fraction(v)
        den = den * v.denominator // gcd(den, v.denominator)
    for v in values:
        num = gcd(num, abs(int(Fraction(v) * den)))
    if num == 0:
        return None
    return Fraction(num, den)


def qinv(a, qp):
    """Inverse of a homogeneous even-degree unit, up to the cutoff.

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
        columns = []
        for (m, d, k) in slots:
            basis_elt = {m: NovScalar.monomial(1, d, k, qp.cutoff)}
            columns.append(quantum_nf(qpoly_mul(a.coeffs, basis_elt), qp))
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
                    cur = coeffs.get(m)
                    coeffs[m] = s if cur is None else cur + s
                truncated = (not strict) or a.truncated or used_truncated
                if truncated:
                    coeffs = {m: s.with_truncated(True)
                              for m, s in coeffs.items()}
                return QClass(coeffs, qp.cutoff)
    raise NotAUnit("no inverse exists at this cutoff")


def _solve_unit_system(qp, slots, columns, strict_cut, vala):
    """Exact Gaussian elimination for sum_j c_j columns[j] = 1.

    With strict_cut the identity must hold at every stored level; otherwise
    levels in the boundary window (cutoff + min(val a, 0), cutoff] are
    dropped, which is the best achievable when the true inverse has terms
    above the cutoff."""
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
    # Gaussian elimination, pivoting on the lowest-exponent slot available
    nslots = len(slots)
    order = sorted(range(nslots), key=lambda j: (slots[j][2], slots[j][1]))
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
    # final verification against every stored target
    for r, t in enumerate(targets):
        total = sum(rows[r].get(j, Fraction(0)) * sol[j]
                    for j in rows[r].keys() | set()) if rows[r] else Fraction(0)
        if total != rhs[r]:
            return None
    return sol


# ------------------------------------------------------------ miscellaneous

def classical_limit_defect(a, b, qp):
    """Valuation of qprod(a, b) minus the classical cup product; None when
    the two agree exactly (no defect)."""
    for z in (a, b):
        if any(d != 0 or k != 0 for _, d, k, _ in qpoly_atoms(z.coeffs)):
            raise WrongDegree(
                "classical limit defect needs valuation-0, q-degree-0 inputs")
    pa = {m: s.terms[(0, Fraction(0))] for m, s in a.coeffs.items()
          if s.terms}
    pb = {m: s.terms[(0, Fraction(0))] for m, s in b.coeffs.items()
          if s.terms}
    classical = {}
    for m1, c1 in pa.items():
        for m2, c2 in pb.items():
            prod = poly_term_mul({m1: c1}, m2, c2)
            for m, c in prod.items():
                classical[m] = classical.get(m, Fraction(0)) + c
    classical_nf = qp.ring.nf({m: c for m, c in classical.items() if c})
    cup = QClass(qpoly_from_poly(classical_nf, qp.cutoff), qp.cutoff)
    diff = qsub(qprod(a, b, qp), cup)
    return diff.valuation()
