"""The small quantum ring as a quotient presentation, with quantum normal
forms, products, and unit inversion.

Internal representation: a quantum polynomial maps standard-monomial keys
(kept variables of the classical ring) to Novikov scalars.  Basis monomials
stand for iterated quantum products of the facet classes; they agree with
the classical classes in degrees 0 and 2 but not above, and the geometric
translation lives in the seidel module.

`quantum_nf`, `qprod` and `lift` share one reduction on the t-exponent grid
(1/D)Z: D is the lcm of the denominators of the cutoff and of every
correction exponent, refined per call by those of the input, and an exponent
k is the integer level k*D.  It reads one or two factors, lists of
(monomial, [((d, k), c)]); `lift` fills one with the kept images of its
terms.  Each monomial the reduction reaches gets a plan: its classical
normal form, its correction atoms (Δlevel, q-shift, monomial, c), kept when
they cancel, and the OR of the flags of the corrections used.  Integral
coefficients stay int until the result, whose terms share their
(d, Fraction(level, D)) keys and the cutoff object itself.  Grid and plans
live in `qp._cache["grid"]` with the cutoff and correction objects they
were built from, and are rebuilt when one of those is replaced.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import is_, itemgetter

from .cohomology import build_ring
from .linalg import gauss_jordan
from .errors import (
    BadCorrectionDegree,
    BadCorrectionValuation,
    CutoffMismatch,
    MissingYEntry,
    NonPositiveEnergy,
    NotAUnit,
    WrongDegree,
)
from .novikov import NovScalar
from .polynomials import mono_degree, mono_mul, poly_monomial, poly_mul
from .polytope import primitive_sets


# ------------------------------------------------------ quantum polynomials

def qpoly_add(a, b):
    out = dict(a)
    for m, s in b.items():
        out[m] = out[m] + s if m in out else s
    return {m: s for m, s in out.items() if not s.is_zero() or s.truncated}


def qpoly_from_poly(poly, cutoff, d=0, kappa=0):
    return {m: NovScalar.monomial(c, d, kappa, cutoff)
            for m, c in poly.items()}


def qpoly_scale(a, s):
    out = {m: v * s for m, v in a.items()}
    return {m: v for m, v in out.items() if v or v.truncated}


def qpoly_mul(a, b):
    out = {}
    for m1, s1 in a.items():
        for m2, s2 in b.items():
            m, s = mono_mul(m1, m2), s1 * s2
            out[m] = out[m] + s if m in out else s
    return {m: s for m, s in out.items() if not s.is_zero() or s.truncated}


def kept_qpoly(ring, terms):
    """Sum of (full-variable monomial, NovScalar) terms as a quantum
    polynomial in the kept variables; truncation flags carry over."""
    out = {}
    for mono, s in terms:
        if s.is_zero() and not s.truncated:
            continue
        for m, c in ring.monomial_image(mono).items():
            out[m] = out[m] + s.scale(c) if m in out else s.scale(c)
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

@dataclass(frozen=True, slots=True)
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
        if len(degs) > 1:
            return "inhomogeneous"
        return degs.pop() if degs else 0

    def __eq__(self, other):
        if not isinstance(other, QClass):
            return NotImplemented
        a = {m: s for m, s in self.coeffs.items() if not s.is_zero()}
        b = {m: s for m, s in other.coeffs.items() if not s.is_zero()}
        return a == b and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset((m, frozenset(s.terms.items()))
                               for m, s in self.coeffs.items()
                               if not s.is_zero()),
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


def default_cutoff(poly, prims=None):
    """Four times the largest relation energy, over `prims` when given."""
    if prims is None:
        prims = primitive_sets(poly)
    return 4 * max(p.energy for p in prims)


def fano_presentation(poly, cutoff=None):
    """Quantum relations with no correction terms beyond the relation
    monomial itself; valid under the caller's assertion that every
    holomorphic sphere class has positive first Chern number."""
    ring = build_ring(poly)
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly, ring.prims)
    corrections = {}
    energies = []
    for p in ring.prims:
        kept = ring.substitute(poly_monomial(
            dict(zip(p.j_indices, p.coeffs)), poly.num_facets))
        corrections[p.key] = qpoly_from_poly(kept, cutoff,
                                             d=p.beta.c1(), kappa=p.energy)
        energies.append(p.energy)
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
    cutoff = Fraction(cutoff) if cutoff is not None else \
        default_cutoff(poly, ring.prims)
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
        lead = qpoly_from_poly(ring.substitute(ring.sr_gens[p.key]), cutoff)
        prod_i = None
        for i in p.indices:
            prod_i = y_classes[i] if prod_i is None \
                else qpoly_mul(prod_i, y_classes[i])
        prod_j = {(0,) * ring.width: NovScalar.one(cutoff)}
        for j, c in zip(p.j_indices, p.coeffs):
            for _ in range(c):
                prod_j = qpoly_mul(prod_j, y_classes[j])
        energy = NovScalar.monomial(1, p.beta.c1(), p.energy, cutoff)
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
    if mono not in qp._nf_cache:
        qp._nf_cache[mono] = qp.ring.nf_traced({mono: Fraction(1)})
    return qp._nf_cache[mono]


_SMALL = {c: Fraction(c) for c in range(-64, 65)}  # shared coefficients


def _plan(qp, mono, D):
    """The classical normal form of `mono`, its correction atoms (Δlevel,
    q-shift, monomial, c) by increasing Δlevel, and the OR of the flags of
    the corrections used.  Atoms that cancel are kept: a dropped one flags."""
    nf, trace = _nf_traced_cached(qp, mono)
    atoms, flagged = {}, False
    for key, cof in trace.items():
        for mc, cc in cof.items():
            for mm, s in qp.corrections[key].items():
                flagged = flagged or s.truncated
                for (d3, k3), c3 in s.terms.items():
                    dl = k3.numerator * (D // k3.denominator)
                    if dl <= 0:
                        raise NonPositiveEnergy(
                            "a correction failed to raise the valuation; "
                            "relation energies must be positive")
                    atom = (dl, d3, mono_mul(mc, mm))
                    atoms[atom] = atoms.get(atom, 0) + cc * c3
    return ([(m, c.numerator if c.denominator == 1 else c)
             for m, c in nf.items()],
            sorted(((*atom, c.numerator if c.denominator == 1 else c)
                    for atom, c in atoms.items()), key=itemgetter(0)),
            flagged)


def _factor(coeffs):
    """A quantum polynomial as a factor of `_reduce`."""
    return [(m, s.terms.items()) for m, s in coeffs.items()]


def _reduce(qp, truncated, *factors):
    """The normal form of one factor or of the product of two, a factor
    being [(monomial, [((d, kappa), c), ...])]; an atom above the cutoff
    flags the result, and `truncated` flags it too, a zero one included."""
    entry = qp._cache.get("grid")
    deltas = tuple(qp.corrections.values())
    if entry is None or entry[0] is not qp.cutoff or len(entry[1]) != \
            len(deltas) or not all(map(is_, entry[1], deltas)):
        entry = qp._cache["grid"] = (qp.cutoff, deltas, lcm(
            qp.cutoff.denominator, *(k.denominator for delta in deltas
                                     for s in delta.values()
                                     for _, k in s.terms)), {})
    D = lcm(entry[2], *{k.denominator for factor in factors
                        for _, terms in factor for (_, k), _ in terms})
    if D not in entry[3]:
        entry[3][D] = (qp.cutoff.numerator * (D // qp.cutoff.denominator),
                       {}, {})
    cut, plans, keys = entry[3][D]
    atoms = [[(m, [(d, k.numerator * (D // k.denominator),
                    c.numerator if c.denominator == 1 else c)
                   for (d, k), c in terms])
              for m, terms in factor] for factor in factors]
    if len(atoms) == 2:  # the atom pairs of a*b
        atoms = [[(mono_mul(m1, m2), [(d1 + d2, l1 + l2, c1 * c2)
                                      for d1, l1, c1 in t1
                                      for d2, l2, c2 in t2])
                  for m1, t1 in atoms[0] for m2, t2 in atoms[1]]]
    pending = {}
    for m, terms in atoms[0]:
        for d, level, c in terms:
            if level > cut:
                truncated = True
            else:
                slot = pending.setdefault(level, {})
                slot[d, m] = slot.get((d, m), 0) + c
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
            plan = plans.get(mono)
            if plan is None:
                plan = plans[mono] = _plan(qp, mono, D)
            nf, corrections, flagged = plan
            truncated = truncated or flagged
            for m2, c2 in nf:
                terms = result.setdefault(m2, {})
                terms[d, level] = terms.get((d, level), 0) + coeff * c2
            for dl, dq, m3, c3 in corrections:
                if level + dl > cut:
                    truncated = True
                    break
                slot = pending.setdefault(level + dl, {})
                slot[d + dq, m3] = slot.get((d + dq, m3), 0) + coeff * c3
    out = {}
    for m, terms in result.items():
        scalar = {}
        for key, c in terms.items():
            if c:
                if key not in keys:
                    keys[key] = (key[0], Fraction(key[1], D))
                scalar[keys[key]] = _SMALL.get(c) or Fraction(c) \
                    if type(c) is int else c
        if scalar:
            out[m] = NovScalar.trusted(scalar, qp.cutoff, truncated)
    if truncated and not out:
        # preserve the flag on a zero class via an explicitly flagged zero
        out = {(0,) * qp.ring.width: NovScalar.trusted({}, qp.cutoff, True)}
    return QClass(out, qp.cutoff)


def quantum_nf(z, qp):
    """Normal form modulo the quantum ideal.

    Terms are processed by increasing valuation: each level is classically
    reduced with its trace, and every traced use of a Stanley-Reisner
    generator enqueues the matching correction, whose valuation is higher by
    at least hbar.  A term pushed above the cutoff is dropped and flags the
    result, even if it would have cancelled.
    """
    coeffs = z.coeffs if isinstance(z, QClass) else z
    return _reduce(qp, qpoly_truncated(coeffs), _factor(coeffs))


def lift(qp, terms, truncated=False):
    """Quantum class of {(full monomial, q-exponent, t-exponent): c}, as
    `exprparse.parse_expression` gives it, each term's memoized kept image
    read straight into the reduction.  A term above the cutoff flags the
    result, a zero c adds nothing, and `truncated` flags even a zero."""
    image = qp.ring.monomial_image
    return _reduce(qp, truncated, [
        (m, [((d, kappa), c * c2)])
        for (mono, d, kappa), c in terms.items() if c
        for m, c2 in image(mono).items()])


def qprod(a, b, qp):
    """Quantum product of two classes at the cutoff of `qp`, flagged as the
    product scalars would be: by a pair of atoms above the cutoff, and by a
    flagged scalar of one factor when the other factor is nonempty."""
    if a.cutoff != b.cutoff and a.coeffs and b.coeffs:
        raise CutoffMismatch(f"cutoffs differ: {a.cutoff} vs {b.cutoff}")
    # a flagged factor flags the product unless the other one is empty
    truncated = bool(a.coeffs and b.coeffs) and (a.truncated or b.truncated)
    return _reduce(qp, truncated, _factor(a.coeffs), _factor(b.coeffs))


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
    return qadd(a, QClass({m: -s for m, s in b.coeffs.items()
                           if s or s.truncated}, b.cutoff))


# ---------------------------------------------------------------- inversion

def _exponent_step(values):
    """Generator of the additive group spanned by the given rationals."""
    den = lcm(*(Fraction(v).denominator for v in values))
    num = gcd(*(int(Fraction(v) * den) for v in values))
    return Fraction(num, den) if num else None


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


def _solve_unit_system(qp, slots, columns, strict_cut, vala):
    """Solve sum_j c_j columns[j] = 1 exactly, in slot order, as a list.

    With strict_cut the identity must hold at every stored level; otherwise
    levels in the boundary window (cutoff + min(val a, 0), cutoff] are
    dropped, which is the best achievable when the true inverse has terms
    above the cutoff."""
    limit = qp.cutoff if strict_cut else qp.cutoff + min(vala, 0)
    unit = ((0,) * qp.ring.width, 0, Fraction(0))
    targets = {unit} | {(m, d, k) for col in columns
                        for m, d, k, _ in qpoly_atoms(col.coeffs)
                        if k <= limit}
    tindex = {t: r for r, t in enumerate(
        sorted(targets, key=lambda t: (t[2], t[1], t[0])))}
    rows = [{} for _ in tindex]
    rhs = [Fraction(0)] * len(tindex)
    rhs[tindex[unit]] = Fraction(1)
    for j, col in enumerate(columns):
        for m, d, k, c in qpoly_atoms(col.coeffs):
            if k <= limit:
                row = rows[tindex[m, d, k]]
                row[j] = row.get(j, 0) + c
    # the lowest-exponent slots pivot first; free slots stay 0
    x, _ = gauss_jordan(rows, rhs, sorted(
        range(len(slots)), key=lambda j: (slots[j][2], slots[j][1])))
    if x is None:
        return None
    sol = [x[j] for j in range(len(slots))]
    # final verification against every stored target
    if any(sum(v * sol[j] for j, v in row.items()) != want
           for row, want in zip(rows, rhs)):
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
    classical_nf = qp.ring.nf(poly_mul(pa, pb))
    cup = QClass(qpoly_from_poly(classical_nf, qp.cutoff), qp.cutoff)
    diff = qsub(qprod(a, b, qp), cup)
    return diff.valuation()
