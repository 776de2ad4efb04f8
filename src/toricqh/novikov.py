"""Coefficient ring arithmetic: Laurent in q, truncated rational t-exponents.

A scalar is a finite sum  sum c * q^d * t^kappa  with c rational, d integer,
kappa rational and kappa <= cutoff.  Series are written in the cohomology
orientation, so they extend toward +infinity in kappa and get truncated at
the cutoff; the `truncated` flag records that terms above the cutoff were
dropped somewhere in the history of the value.

`NovScalar(terms, cutoff, truncated)` validates outside input: it makes
exponents and cutoff int and Fraction, drops zero coefficients, and drops and
flags terms above the cutoff.  `NovScalar.trusted` checks and copies nothing;
the arithmetic here and `quantum.quantum_nf` build their results through it,
from nonzero Fractions on (int, Fraction) keys at or below the cutoff.
"""

from fractions import Fraction

from .errors import CutoffMismatch, NotAUnit, ZeroElement


class NovScalar:
    """Immutable by convention; do not mutate `terms` after construction."""

    __slots__ = ("terms", "cutoff", "truncated")

    def __init__(self, terms, cutoff, truncated=False):
        cutoff = Fraction(cutoff)
        clean = {}
        for (d, kappa), c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            kappa = Fraction(kappa)
            if kappa > cutoff:
                truncated = True
                continue
            clean[(int(d), kappa)] = c
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
        return cls({(d, Fraction(kappa)): Fraction(coeff)}, cutoff)

    # -- structure ----------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, NovScalar):
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
        return NovScalar.trusted({k: c for k, c in terms.items() if c},
                                 self.cutoff, self.truncated or other.truncated)

    def __neg__(self):
        return NovScalar.trusted({k: -c for k, c in self.terms.items()},
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
        return NovScalar.trusted({k: c for k, c in terms.items() if c},
                                 cutoff, truncated)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        terms = {k: c * v for k, v in self.terms.items()} if c else {}
        return NovScalar.trusted(terms, self.cutoff, self.truncated)

    def shift(self, d, kappa):
        """Multiply by q^d t^kappa."""
        d, kappa = int(d), Fraction(kappa)
        terms = {}
        truncated = self.truncated
        for (d0, k0), c in self.terms.items():
            k = k0 + kappa
            if k > self.cutoff:
                truncated = True
                continue
            terms[(d0 + d, k)] = c
        return NovScalar.trusted(terms, self.cutoff, truncated)

    def with_truncated(self, flag):
        return NovScalar.trusted(self.terms, self.cutoff, flag)

    # -- queries -------------------------------------------------------------

    def valuation(self):
        if not self.terms:
            raise ZeroElement("valuation of zero")
        return min(k for _, k in self.terms)

    def leading_terms(self):
        """The slice at minimal kappa, as a map d -> coefficient."""
        v = self.valuation()
        return {d: c for (d, k), c in self.terms.items() if k == v}

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
        lead = self.leading_terms()
        if len(lead) != 1:
            raise NotAUnit(
                "scalar has several terms of minimal t-exponent; not a unit "
                "of the Laurent ring")
        v = self.valuation()
        (d0,), (c0,) = zip(*lead.items())
        base = NovScalar.monomial(Fraction(1, 1) / c0, -d0, -v, self.cutoff)
        # self = c0 q^d0 t^v (1 - r) with val(r) > 0
        r = (NovScalar.one(self.cutoff) - base * self).with_truncated(False)
        result = NovScalar.one(self.cutoff)
        power = NovScalar.one(self.cutoff)
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

