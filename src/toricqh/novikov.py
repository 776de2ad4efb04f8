"""Coefficient ring arithmetic: Laurent in q, truncated rational t-exponents.

A scalar is a finite sum  sum c * q^d * t^kappa  with c rational, d integer,
kappa rational and kappa <= cutoff.  Series are written in the cohomology
orientation, so they extend toward +infinity in kappa and get truncated at
the cutoff; the `truncated` flag records that terms above the cutoff were
dropped somewhere in the history of the value.

A scalar lives on its own integer grid: `levels` maps (d, level) to c, the
t-exponent being level/den, and c is an int wherever it is integral.  The
arithmetic aligns two grids on the lcm of their dens (equal dens, the
common case, need nothing) and compares a level with floor(cutoff * den);
it makes no Fraction exponent.  Equality and hashing read the value, not
the grid.  `terms` is the read view {(d, Fraction kappa): Fraction c}.

`NovScalar(terms, cutoff, truncated)` validates outside input: it checks
the cutoff and each term by `check_term`, as `quantum.lift` does, drops zero
coefficients, drops and flags terms above the cutoff, and puts the rest on
the lcm of the denominators of the cutoff and of the exponents.
`NovScalar.trusted` checks nothing and puts Fraction-keyed terms, nonzero
and at or below the cutoff, on their grid; `NovScalar.on_grid` takes the
levels as they are, and the arithmetic here and `quantum.quantum_nf` build
their results through it.
"""

from fractions import Fraction
from math import lcm

from .errors import (
    CutoffMismatch,
    InexactNumber,
    NonIntegralCoefficient,
    NotAUnit,
    ZeroElement,
)


def check_term(d, kappa, c):
    """Raise unless the term c q^d t^kappa is exact: NonIntegralCoefficient
    for a q-exponent that is not an int, InexactNumber for a t-exponent or
    coefficient that is not an int or a Fraction."""
    if type(d) is not int:
        raise NonIntegralCoefficient(f"the q-exponent {d!r} is not an int")
    if type(kappa) not in (int, Fraction):
        raise InexactNumber(
            f"the t-exponent {kappa!r} is not an int or a Fraction")
    if type(c) not in (int, Fraction):
        raise InexactNumber(
            f"the coefficient {c!r} is not an int or a Fraction")


def check_cutoff(cutoff):
    """The cutoff as a Fraction; InexactNumber unless it is an int or a
    Fraction."""
    if type(cutoff) not in (int, Fraction):
        raise InexactNumber(
            f"the cutoff {cutoff!r} is not an int or a Fraction")
    return Fraction(cutoff)


def int_if_integral(c):
    """An int or Fraction coefficient, as an int when it is integral."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


def _nonzero(levels):
    """The nonzero entries of a level map, integral coefficients as ints."""
    return {k: int_if_integral(c) for k, c in levels.items() if c}


class NovScalar:
    """Immutable by convention; do not mutate `levels` after construction."""

    __slots__ = ("levels", "den", "cutoff", "truncated")

    def __init__(self, terms, cutoff, truncated=False):
        cutoff = check_cutoff(cutoff)
        clean = {}
        for (d, kappa), c in terms.items():
            check_term(d, kappa, c)
            if c == 0:
                continue
            if kappa > cutoff:
                truncated = True
                continue
            clean[(d, kappa)] = c
        grid = NovScalar.trusted(clean, cutoff, truncated)
        self.levels, self.den = grid.levels, grid.den
        self.cutoff, self.truncated = cutoff, truncated

    # -- constructors -------------------------------------------------------

    @classmethod
    def on_grid(cls, levels, den, cutoff, truncated):
        """A scalar on the level map `levels` and grid `den`, as given."""
        self = object.__new__(cls)
        self.levels, self.den = levels, den
        self.cutoff, self.truncated = cutoff, truncated
        return self

    @classmethod
    def trusted(cls, terms, cutoff, truncated):
        """A scalar on the Fraction-keyed `terms`, on the lcm of the
        denominators of the cutoff and of the exponents."""
        den = lcm(cutoff.denominator, *(k.denominator for _, k in terms))
        return cls.on_grid({(d, k.numerator * (den // k.denominator)):
                            int_if_integral(c) for (d, k), c in terms.items()},
                           den, cutoff, truncated)

    @classmethod
    def zero(cls, cutoff):
        return cls({}, cutoff)

    @classmethod
    def one(cls, cutoff):
        return cls({(0, 0): 1}, cutoff)

    @classmethod
    def monomial(cls, coeff, d, kappa, cutoff):
        return cls({(d, kappa): coeff}, cutoff)

    # -- structure ----------------------------------------------------------

    @property
    def terms(self):
        """The read view {(d, Fraction kappa): Fraction c}, a new dict."""
        den = self.den
        return {(d, Fraction(level, den)): Fraction(c)
                for (d, level), c in self.levels.items()}

    def is_zero(self):
        return not self.levels

    def __bool__(self):
        return bool(self.levels)

    def __eq__(self, other):
        if not isinstance(other, NovScalar):
            return NotImplemented
        if self.cutoff != other.cutoff:
            return False
        if self.den == other.den:
            return self.levels == other.levels
        return self.terms == other.terms

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.cutoff))

    def _aligned(self, other):
        """The level maps of self and other on the lcm of their grids, and
        that grid."""
        if self.cutoff != other.cutoff:
            raise CutoffMismatch(
                f"cutoffs differ: {self.cutoff} vs {other.cutoff}")
        a, b = self.den, other.den
        if a == b:
            return self.levels, other.levels, a
        den = lcm(a, b)
        return ({(d, l * (den // a)): c for (d, l), c in self.levels.items()},
                {(d, l * (den // b)): c for (d, l), c in other.levels.items()},
                den)

    def __add__(self, other):
        if not isinstance(other, NovScalar):
            return NotImplemented
        a, b, den = self._aligned(other)
        levels = dict(a)
        for key, c in b.items():
            levels[key] = levels.get(key, 0) + c
        return NovScalar.on_grid(_nonzero(levels), den, self.cutoff,
                                 self.truncated or other.truncated)

    def __neg__(self):
        return NovScalar.on_grid({k: -c for k, c in self.levels.items()},
                                 self.den, self.cutoff, self.truncated)

    def __sub__(self, other):
        if not isinstance(other, NovScalar):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, NovScalar):
            if isinstance(other, (int, Fraction, float)):
                return self.scale(other)  # a float raises InexactNumber
            return NotImplemented
        a, b, den = self._aligned(other)
        cutoff = self.cutoff
        cut = cutoff.numerator * den // cutoff.denominator
        levels = {}
        truncated = self.truncated or other.truncated
        for (d1, l1), c1 in a.items():
            for (d2, l2), c2 in b.items():
                level = l1 + l2
                if level > cut:
                    truncated = True
                    continue
                key = (d1 + d2, level)
                levels[key] = levels.get(key, 0) + c1 * c2
        return NovScalar.on_grid(_nonzero(levels), den, cutoff, truncated)

    __rmul__ = __mul__

    def scale(self, c):
        if type(c) not in (int, Fraction):
            raise InexactNumber(
                f"the factor {c!r} is not an int or a Fraction")
        return NovScalar.on_grid(
            _nonzero({k: c * v for k, v in self.levels.items()}), self.den,
            self.cutoff, self.truncated)

    def with_truncated(self, flag):
        return NovScalar.on_grid(self.levels, self.den, self.cutoff, flag)

    # -- queries -------------------------------------------------------------

    def valuation(self):
        if not self.levels:
            raise ZeroElement("valuation of zero")
        return Fraction(min(level for _, level in self.levels), self.den)

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
        if not self.levels:
            raise ZeroElement("cannot invert zero")
        low = min(level for _, level in self.levels)
        v = Fraction(low, self.den)
        lead = [(d, c) for (d, level), c in self.levels.items()
                if level == low]
        if len(lead) != 1:
            raise NotAUnit(
                "scalar has several terms of minimal t-exponent; not a unit "
                "of the Laurent ring")
        (d0, c0), = lead
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

