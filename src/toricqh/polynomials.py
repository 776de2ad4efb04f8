"""Multivariate polynomials over Q and Groebner bases with cofactor tracking.

A polynomial is a dict {exponent tuple: Fraction}; the number of variables is
fixed per context by the tuple width.  The monomial order is graded reverse
lexicographic with variable priority given by position (earlier = higher).
"""

from fractions import Fraction
from itertools import combinations


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


# --------------------------------------------------------------- polynomials

def poly_const(c, width):
    c = Fraction(c)
    return {(0,) * width: c} if c else {}


def poly_monomial(exponents, width):
    """The monomial prod x_i^e over the items {i: e} of `exponents`."""
    e = [0] * width
    for i, k in exponents.items():
        e[i] = k
    return {tuple(e): Fraction(1)}


def poly_var(i, width):
    return poly_monomial({i: 1}, width)


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


def poly_substitute(f, images, width):
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


# ------------------------------------------------------- division and bases

def divmod_basis(f, basis):
    """Multivariate division: f = sum_k q_k * basis[k] + r, with no monomial
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


class TracedBasis:
    """A Groebner basis whose elements carry cofactors over the original
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
        quotients, remainder = divmod_basis(f, self.elements)
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
            quotients, remainder = divmod_basis(elements[k], others)
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
        quotients, remainder = divmod_basis(f, self.elements)
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

    def standard_monomials(self, limit):
        """All monomials not divisible by any leading monomial, found by
        breadth-first growth from 1.  `limit` caps the search as a safety
        net against a non-zero-dimensional quotient."""
        if not self.elements:
            raise ValueError("empty basis has infinite quotient")
        width = len(self.leading_monomials()[0])
        lms = self.leading_monomials()
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
