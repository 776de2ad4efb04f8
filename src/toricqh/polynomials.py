"""Multivariate polynomials over Q and Groebner bases with cofactor tracking.

A polynomial is a dict {exponent tuple: int or Fraction}, divided exactly;
the tuple width fixes the number of variables per context.  The monomial
order is grevlex with variable priority given by position (earlier = higher).

A `TracedBasis` runs one traced Buchberger pass, then reduces the basis: an
element is divided by the others only when one of their leading monomials
divides one of its tail terms.  Its standard monomials are read off the
staircase of the leading monomials, one degree at a time, with no search.
"""

from fractions import Fraction
from itertools import combinations
from operator import itemgetter, le

from .errors import DegenerateRing


# ----------------------------------------------------------------- monomials

def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def mono_degree(a):
    return sum(a)


def grevlex_key(m):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


_REVERSED = itemgetter(slice(None, None, -1))  # m -> m[::-1]


# --------------------------------------------------------------- polynomials

def poly_const(c, width):
    c = Fraction(c)
    return {(0,) * width: c} if c else {}


def monomial(exponents, width):
    """The exponent tuple of prod x_i^e over the items {i: e} of
    `exponents`."""
    e = [0] * width
    for i, k in exponents.items():
        e[i] = k
    return tuple(e)


def poly_monomial(exponents, width):
    """The monomial prod x_i^e over the items {i: e} of `exponents`."""
    return {monomial(exponents, width): Fraction(1)}


def poly_add(f, g):
    out = dict(f)
    for m, c in g.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        else:
            out.pop(m, None)
    return out


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_neg(f):
    return {m: -c for m, c in f.items()}


def poly_scale(f, c):
    c = Fraction(c)
    if not c:
        return {}
    return {m: c * v for m, v in f.items()}


def poly_mul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = mono_mul(m1, m2)
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def poly_term_mul(f, mono, coeff):
    coeff = Fraction(coeff)
    if not coeff:
        return {}
    return {mono_mul(m, mono): c * coeff for m, c in f.items()}


def leading_monomial(f):
    return max(f, key=grevlex_key)


def _mul_keeping_ints(f, g):
    """f * g with sums started from 0, not `poly_mul`'s Fraction(0), so
    that a product of ints stays an int."""
    product = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m3 = mono_mul(m1, m2)
            product[m3] = product.get(m3, 0) + c1 * c2
    return {k: v for k, v in product.items() if v}


def poly_pow(f, e):
    """f^e for an integer e >= 1, as a new dict, by squaring: about
    2 log2(e) products, ints kept as ints."""
    if e == 1:
        return dict(f)
    half = poly_pow(f, e // 2)
    square = _mul_keeping_ints(half, half)
    return _mul_keeping_ints(square, f) if e % 2 else square


def poly_substitute(f, images, width):
    """Substitute variable i by the polynomial images[i], in the given
    variable width, with one `poly_pow` per variable of each monomial;
    ints stay ints, and an integral Fraction becomes one."""
    out = {}
    for m, c in f.items():
        term = {(0,) * width: c}
        for i, e in enumerate(m):
            if e:
                term = _mul_keeping_ints(term, poly_pow(images[i], e))
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v.numerator if v.denominator == 1 else v
            for k, v in out.items() if v}


# ------------------------------------------------------- division and bases

def divmod_basis(f, basis, lms):
    """Multivariate division: f = sum_k q_k * basis[k] + r, with no monomial
    of r divisible by any leading monomial of the basis.  `lms` holds the
    leading monomial of each basis element.

    Returns (quotients, remainder); quotients are polynomials.
    """
    quotients = [dict() for _ in basis]
    remainder = {}
    work = dict(f)
    while work:
        m = leading_monomial(work)
        c = work[m]
        for k, g in enumerate(basis):
            if not g:
                continue
            lm = lms[k]
            if mono_divides(lm, m):
                factor_m = mono_div(m, lm)
                factor_c = Fraction(c, g[lm])  # exact for int leads too
                quotients[k] = poly_add(
                    quotients[k], {factor_m: factor_c})
                work = poly_sub(work, poly_term_mul(g, factor_m, factor_c))
                break
        else:
            remainder[m] = c
            del work[m]
    return quotients, remainder


def _monic(f, lead):
    """f / lead with Fraction coefficients, as `poly_scale` by 1 / lead
    makes them; f itself when that changes nothing."""
    if lead == 1 and all(type(c) is Fraction for c in f.values()):
        return f
    return poly_scale(f, Fraction(1, lead))


class TracedBasis:
    """A Groebner basis whose elements carry cofactors over the original
    generators: element[k] == sum_i cofactors[k][i] * generators[i]."""

    def __init__(self, generators):
        self.generators = [dict(g) for g in generators]
        self.elements = []
        self.cofactors = []  # list of dicts: generator index -> poly
        self.lms = []  # the leading monomial of each element
        self._buchberger()
        self._reduce_basis()

    # -- construction --------------------------------------------------------

    def _append(self, poly, cof):
        self.elements.append(poly)
        self.cofactors.append(cof)
        self.lms.append(leading_monomial(poly))

    @staticmethod
    def _divide(f, cof, basis, lms, cofactors):
        """Divide f by `basis` and subtract sum_k quotient_k * cofactors[k]
        from `cof`, a dict generator index -> poly, in place; return
        (remainder, cof)."""
        quotients, remainder = divmod_basis(f, basis, lms)
        for q, qcof in zip(quotients, cofactors):
            if q:
                for gi, gpoly in qcof.items():
                    cof[gi] = poly_sub(cof.get(gi, {}), poly_mul(q, gpoly))
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
            mi, mj = self.lms[i], self.lms[j]
            lcm = mono_lcm(mi, mj)
            if mono_mul(mi, mj) == lcm:
                continue  # coprime leading terms: S-poly reduces to zero
            ui, uj = Fraction(1, fi[mi]), Fraction(1, fj[mj])
            s = poly_sub(poly_term_mul(fi, mono_div(lcm, mi), ui),
                         poly_term_mul(fj, mono_div(lcm, mj), uj))
            cof = {}
            for gi, gpoly in self.cofactors[i].items():
                cof[gi] = poly_add(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mi), ui))
            for gi, gpoly in self.cofactors[j].items():
                cof[gi] = poly_sub(cof.get(gi, {}),
                                   poly_term_mul(gpoly, mono_div(lcm, mj), uj))
            remainder, cof = self._divide(s, cof, self.elements, self.lms,
                                          self.cofactors)
            if remainder:
                self._append(remainder, cof)
                new = len(self.elements) - 1
                pairs.extend((k, new) for k in range(new))

    def _reduce_basis(self):
        # minimal basis: drop elements whose LM is divisible by another LM;
        # all(map(le, a, b)) is mono_divides(a, b) without a Python call
        keep = []
        for k, lm in enumerate(self.lms):
            if any(all(map(le, self.lms[j], lm)) for j in keep):
                continue
            keep = [j for j in keep if not all(map(le, lm, self.lms[j]))]
            keep.append(k)
        elements = [self.elements[k] for k in keep]
        cofactors = [self.cofactors[k] for k in keep]
        # tail reduction keeps each leading monomial: no other divides it
        self.lms = [self.lms[k] for k in keep]
        # tail-reduce and normalize monic
        reduced, reduced_cof = [], []
        for k, element in enumerate(elements):
            others = self.lms[:k] + self.lms[k + 1:]
            if any(all(map(le, lm, m)) for m in element for lm in others):
                element, cof = self._divide(
                    element, dict(cofactors[k]), reduced + elements[k + 1:],
                    others, reduced_cof + cofactors[k + 1:])
            else:  # reduced already: its terms in the division's order
                element = {m: element[m] for m in
                           sorted(element, key=grevlex_key, reverse=True)}
                cof = cofactors[k]
            lead = element[self.lms[k]]
            reduced.append(_monic(element, lead))
            reduced_cof.append({gi: _monic(p, lead)
                                for gi, p in cof.items() if p})
        self.elements = reduced
        self.cofactors = reduced_cof

    # -- queries ---------------------------------------------------------------

    def leading_monomials(self):
        return list(self.lms)

    def normal_form_traced(self, f):
        """Reduce f to normal form; return (nf, trace) where trace maps each
        original generator index to its polynomial cofactor:
        f - nf == sum_i trace[i] * generators[i]."""
        remainder, cof = self._divide(f, {}, self.elements, self.lms,
                                      self.cofactors)
        return remainder, {gi: poly_neg(p) for gi, p in cof.items() if p}

    def normal_form(self, f):
        return divmod_basis(f, self.elements, self.lms)[1]

    def standard_monomials(self, limit):
        """All monomials not divisible by any leading monomial, walked up
        the staircase one degree at a time.  Each monomial m is made once,
        as x_j times its quotient s by its last variable x_j; s is standard,
        so a leading monomial divides m only if its exponent at x_j is
        s_j + 1, and only those are tried.  `limit` caps the count as a
        safety net against a quotient that is not zero-dimensional."""
        if not self.elements:
            raise DegenerateRing("an empty basis has an infinite quotient")
        width = len(self.lms[0])
        walls = {}  # (j, e) -> the leading monomials with exponent e at x_j
        for lm in self.lms:
            for j, e in enumerate(lm):
                if e:
                    walls.setdefault((j, e), []).append(lm)
        layer = [((0,) * width, 0)]  # (monomial, its last variable)
        standard = [layer[0][0]]
        while layer:
            layer = [(m, j) for s, last in layer for j in range(last, width)
                     for m in [s[:j] + (s[j] + 1,) + s[j + 1:]]
                     if not any(all(map(le, lm, m))
                                for lm in walls.get((j, m[j]), ()))]
            # one degree in grevlex order: reversed exponents, descending
            standard += sorted((m for m, _ in layer), key=_REVERSED,
                               reverse=True)
            if len(standard) > limit:
                raise DegenerateRing(
                    f"quotient dimension exceeds {limit}; ideal is not "
                    "zero-dimensional as expected")
        return tuple(standard)
