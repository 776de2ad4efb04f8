"""The small quantum ring as a quotient presentation, with quantum normal
forms, products, and unit inversion.

Internal representation: a quantum polynomial maps standard-monomial keys
(kept variables of the classical ring) to Novikov scalars.  Basis monomials
stand for iterated quantum products of the facet classes; they agree with
the classical classes in degrees 0 and 2 but not above, and the geometric
translation lives in the seidel module.

A `QuantumPresentation` is a value: its fields cannot be assigned, and its
corrections and Y-classes are read-only mappings of read-only quantum
polynomials.  Its caches start empty and fill on first use; since nothing
they derive from can change, no entry is ever rebuilt.  A changed
presentation is a new one, from `dataclasses.replace`, with empty caches.

`quantum_nf`, `qprod` and `lift` share one reduction on the t-exponent grid
(1/D)Z: D is the lcm of the denominators of the cutoff and of the grids of
the corrections, refined per call by the grids of the input, and an exponent
k is the integer level k*D.  It reads one or two factors, lists of
(monomial, {(d, level): c}.items(), den), rescaling each level onto D;
`lift` fills one with the kept images of its terms.  Each monomial the
reduction reaches gets a plan: its classical normal form, its correction
atoms (Δlevel, q-shift, monomial, c), kept when they cancel, and the OR of
the flags of the corrections used.  The result's scalars live on D itself,
with int coefficients wherever integral, and share the cutoff object; no
Fraction exponent is made.  The base D and, per refined D, the plans live in
`qp._cache["grid"]`, built once per presentation.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from types import MappingProxyType

from .cohomology import build_ring
from .linalg import gauss_jordan
from .errors import (
    BadCorrectionDegree,
    BadCorrectionValuation,
    CutoffMismatch,
    DimensionMismatch,
    MissingYEntry,
    NonIntegralCoefficient,
    NonPositiveEnergy,
    NotAUnit,
    WrongDegree,
)
from .novikov import NovScalar, check_cutoff, check_term, int_if_integral
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
    """(monomial, d, Fraction kappa, Fraction c) per term, for reading."""
    for m, s in a.items():
        for (d, kappa), c in s.terms.items():
            yield m, d, kappa, c


def qpoly_valuation(a):
    return min((s.valuation() for s in a.values() if s), default=None)


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
        degs = {sum(m) + d for m, s in self.coeffs.items()
                for d, _ in s.levels}
        if len(degs) > 1:
            return "inhomogeneous"
        return 2 * degs.pop() if degs else 0

    def __eq__(self, other):
        if not isinstance(other, QClass):
            return NotImplemented
        a = {m: s for m, s in self.coeffs.items() if not s.is_zero()}
        b = {m: s for m, s in other.coeffs.items() if not s.is_zero()}
        return a == b and self.cutoff == other.cutoff

    def __hash__(self):
        return hash((frozenset((m, s) for m, s in self.coeffs.items()
                               if not s.is_zero()),
                     self.cutoff))

    def slice_at(self, kappa):
        """The level-kappa slice as {(monomial, d): coefficient}."""
        num, den = kappa.numerator, kappa.denominator
        return {(m, d): c for m, s in self.coeffs.items()
                for (d, level), c in s.levels.items()
                if level * den == num * s.den and c}


# ------------------------------------------------------------- presentation

def _read_only(table):
    """A table of quantum polynomials as a read-only mapping of read-only
    mappings."""
    return MappingProxyType({key: MappingProxyType(dict(qpoly))
                             for key, qpoly in table.items()})


@dataclass(frozen=True)
class QuantumPresentation:
    ring: object
    corrections: dict  # primitive key -> quantum polynomial Delta_I
    hbar: Fraction
    cutoff: Fraction
    mode: str  # "fano" | "nef"
    y_classes: dict = None  # facet index -> kept quantum polynomial Y_i
    _nf_cache: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        object.__setattr__(self, "corrections", _read_only(self.corrections))
        if self.y_classes is not None:
            object.__setattr__(self, "y_classes", _read_only(self.y_classes))

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
    return 4 * max(p.energy for p in primitive_sets(poly))


def fano_presentation(poly, cutoff=None):
    """Quantum relations with no correction terms beyond the relation
    monomial itself; valid under the caller's assertion that every
    holomorphic sphere class has positive first Chern number."""
    ring = build_ring(poly)
    cutoff = check_cutoff(cutoff) if cutoff is not None else \
        default_cutoff(poly)
    corrections = {}
    energies = []
    for p in ring.prims:
        kept = ring.substitute(poly_monomial(
            dict(zip(p.j_indices, p.coeffs)), poly.num_facets))
        corrections[p.key] = qpoly_from_poly(kept, cutoff,
                                             d=p.beta.c1(), kappa=p.energy)
        energies.append(p.energy)
    return QuantumPresentation(ring=ring, corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="fano")


def _validate_y_correction(ring, i, correction, cutoff):
    for m, s in correction.items():
        for d, _ in s.levels:
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
    cutoff = check_cutoff(cutoff) if cutoff is not None else \
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
    return QuantumPresentation(ring=ring, corrections=corrections,
                               hbar=min(energies), cutoff=cutoff, mode="nef",
                               y_classes=y_classes)


# -------------------------------------------------------------- normal form

def _nf_traced_cached(qp, mono):
    if mono not in qp._nf_cache:
        qp._nf_cache[mono] = qp.ring.nf_traced({mono: Fraction(1)})
    return qp._nf_cache[mono]


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
                for (d3, l3), c3 in s.levels.items():
                    dl = l3 * (D // s.den)
                    if dl <= 0:
                        raise NonPositiveEnergy(
                            "a correction failed to raise the valuation; "
                            "relation energies must be positive")
                    atom = (dl, d3, mono_mul(mc, mm))
                    atoms[atom] = atoms.get(atom, 0) + cc * c3
    return ([(m, int_if_integral(c)) for m, c in nf.items()],
            sorted(((*atom, int_if_integral(c)) for atom, c in atoms.items()),
                   key=itemgetter(0)),
            flagged)


def _factor(coeffs):
    """A quantum polynomial as a factor of `_reduce`."""
    return [(m, s.levels.items(), s.den) for m, s in coeffs.items()]


def _reduce(qp, truncated, *factors):
    """The normal form of one factor or of the product of two, a factor
    being [(monomial, [((d, level), c), ...], den)]; an atom above the cutoff
    flags the result, and `truncated` flags it too, a zero one included."""
    grid = qp._cache.get("grid")
    if grid is None:
        grid = qp._cache["grid"] = (lcm(
            qp.cutoff.denominator, *(s.den
                                     for delta in qp.corrections.values()
                                     for s in delta.values())), {})
    D = lcm(grid[0], *{den for factor in factors for _, _, den in factor})
    if D not in grid[1]:
        grid[1][D] = (qp.cutoff.numerator * (D // qp.cutoff.denominator), {})
    cut, plans = grid[1][D]
    atoms = [[(m, [(d, level * r, c) for (d, level), c in terms])
              for m, terms, den in factor for r in (D // den,)]
             for factor in factors]
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
        scalar = {key: int_if_integral(c) for key, c in terms.items() if c}
        if scalar:
            out[m] = NovScalar.on_grid(scalar, D, qp.cutoff, truncated)
    if truncated and not out:
        # preserve the flag on a zero class via an explicitly flagged zero
        out = {(0,) * qp.ring.width: NovScalar.on_grid({}, D, qp.cutoff, True)}
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
    result, a zero c adds nothing, and `truncated` flags even a zero.

    A monomial is a tuple of one int exponent >= 0 per facet, the
    q-exponent an int, and the t-exponent and c ints or Fractions; else
    DimensionMismatch, NonIntegralCoefficient or InexactNumber is raised."""
    width = qp.ring.polytope.num_facets
    for (mono, d, kappa), c in terms.items():
        if len(mono) != width:
            raise DimensionMismatch(
                f"the monomial {mono} has {len(mono)} exponents, not {width}")
        if any(type(e) is not int or e < 0 for e in mono):
            raise NonIntegralCoefficient(
                f"the monomial {mono} has an exponent that is not an int >= 0")
        check_term(d, kappa, c)
    return _lift(qp, terms.items(), truncated)


def _lift(qp, items, truncated):
    """`lift` of the ((monomial, q, t), c) items of well-formed terms."""
    image = qp.ring.monomial_image
    return _reduce(qp, truncated, [
        (m, [((d, kappa.numerator), int_if_integral(c * c2))],
         kappa.denominator)
        for (mono, d, kappa), c in items if c
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
    above the cutoff.  The columns are read as levels on one grid; their
    int coefficients enter the rows as Fractions, which `/` keeps exact."""
    limit = qp.cutoff if strict_cut else qp.cutoff + min(vala, 0)
    den = lcm(limit.denominator, *(s.den for col in columns
                                   for s in col.coeffs.values()))
    top = limit.numerator * (den // limit.denominator)
    atoms = [[(m, d, level * (den // s.den), c)
              for m, s in col.coeffs.items()
              for (d, level), c in s.levels.items()
              if level * (den // s.den) <= top] for col in columns]
    unit = ((0,) * qp.ring.width, 0, 0)
    targets = {unit} | {(m, d, level) for col in atoms
                        for m, d, level, _ in col}
    tindex = {t: r for r, t in enumerate(
        sorted(targets, key=lambda t: (t[2], t[1], t[0])))}
    rows = [{} for _ in tindex]
    rhs = [Fraction(0)] * len(tindex)
    rhs[tindex[unit]] = Fraction(1)
    for j, col in enumerate(atoms):
        for m, d, level, c in col:
            row = rows[tindex[m, d, level]]
            row[j] = row.get(j, Fraction(0)) + c
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
