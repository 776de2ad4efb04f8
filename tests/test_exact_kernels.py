"""The shared exact kernels against the code they replaced: gauss_jordan
against the unit-system elimination of quantum.qinv, qinv against its
former one product per slot of each extension, solve_rational and
rank against their dense eliminations, the expression parser against its
own arithmetic, and the token pattern against the former character loop.
Each former version is kept here verbatim as the reference.  The former
row-Hermite lattice test stays as the lattice reference of the action
invariant tests."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_quantum import hirz_y_table
import toricqh
from toricqh import examples, linalg
from toricqh import quantum as quantum_module
from toricqh.errors import ExprSyntaxError, NotAUnit
from toricqh.exprparse import _tokenize, parse_expression
from toricqh.novikov import NovScalar
from toricqh.polynomials import (
    mono_degree,
    poly_const,
    poly_mul,
    poly_pow,
    poly_substitute,
)
from toricqh.quantum import (
    QClass,
    _exponent_step,
    _solve_unit_system,
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qinv,
    qpoly_atoms,
    qprod,
)
from toricqh.seidel import facet_seidel

F = Fraction


# ---------------------------------------------------------- the references

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


# ---------------------------------------------------------- gauss_jordan

def _entry(rng):
    return F(rng.randint(-5, 5) or 1, rng.choice([1, 1, 2, 3]))


def random_system(rng, kind):
    """A sparse system of the given kind: "consistent", "inconsistent",
    "underdetermined" or "any" (an arbitrary right-hand side).  About one
    entry in six is an explicit zero."""
    ncols = rng.randint(1, 7)
    nrows = rng.randint(1, ncols - 1) if kind == "underdetermined" \
        and ncols > 1 else rng.randint(1, 8)
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            roll = rng.random()
            if roll < 0.35:
                row[j] = _entry(rng)
            elif roll < 0.5:
                row[j] = F(0)
        rows.append(row)
    if kind == "any":
        return rows, [_entry(rng) if rng.random() < 0.7 else F(0)
                      for _ in rows], ncols
    x = [_entry(rng) for _ in range(ncols)]
    rhs = [sum(c * x[j] for j, c in row.items()) for row in rows]
    if kind == "inconsistent":
        # a combination of two rows whose right-hand side is off by one
        a, b = rng.randrange(nrows), rng.randrange(nrows)
        ca, cb = _entry(rng), _entry(rng)
        combo = {j: ca * rows[a].get(j, 0) + cb * rows[b].get(j, 0)
                 for j in range(ncols)}
        rows.insert(rng.randint(0, nrows), combo)
        rhs.insert(rows.index(combo), ca * rhs[a] + cb * rhs[b] + 1)
    return rows, rhs, ncols


@pytest.mark.parametrize(
    "kind", ["consistent", "inconsistent", "underdetermined", "any"])
def test_gauss_jordan_matches_the_unit_system_elimination(kind):
    rng = random.Random(f"gauss-jordan-{kind}")
    outcomes = set()
    for _ in range(400):
        rows, rhs, ncols = random_system(rng, kind)
        order = rng.sample(range(ncols), ncols)
        before = [dict(row) for row in rows]
        x, rank = linalg.gauss_jordan(rows, rhs, order)
        assert rows == before  # the caller's rows are left alone
        got = None if x is None else [x[j] for j in range(ncols)]
        assert got == reference_eliminate(rows, rhs, order, ncols)
        assert rank == reference_rank(
            [[row.get(j, 0) for j in range(ncols)] for row in rows])
        outcomes.add(got is None)
    if kind == "consistent" or kind == "underdetermined":
        assert outcomes == {False}
    elif kind == "inconsistent":
        assert outcomes == {True}
    else:
        assert outcomes == {False, True}


def _random_matrix(rng, nrows, ncols):
    m = [[_entry(rng) if rng.random() < 0.6 else 0 for _ in range(ncols)]
         for _ in range(nrows)]
    if nrows > 1 and rng.random() < 0.3:  # a dependent row
        i, k = rng.sample(range(nrows), 2)
        c = _entry(rng)
        m[i] = [c * x for x in m[k]]
    return m


def test_solve_rational_and_rank_match_the_dense_eliminations():
    rng = random.Random("solve-rank")
    singular = 0
    for _ in range(1000):
        n = rng.randint(1, 4)
        m = _random_matrix(rng, n, n)
        target = [_entry(rng) for _ in range(n)]
        try:
            want = reference_solve_rational(m, target)
        except ValueError as err:
            singular += 1
            with pytest.raises(ValueError, match=str(err)):
                linalg.solve_rational(m, target)
        else:
            assert linalg.solve_rational(m, target) == want
        wide = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert linalg.rank(wide) == reference_rank(wide)
    assert 0 < singular < 1000
    assert linalg.rank([]) == reference_rank([]) == 0


# ------------------------------------------------------------------ qinv

def _snapshot(qclass):
    return {m: (s.sorted_terms(), s.truncated)
            for m, s in qclass.coeffs.items()}, qclass.truncated


def _qinv_outcome(a, qp):
    try:
        return _snapshot(qinv(a, qp))
    except NotAUnit as err:
        return "NotAUnit", str(err)


@pytest.mark.parametrize("cutoff", [None, 2, 8], ids=["default", "2", "8"])
def test_qinv_matches_the_former_unit_solver_on_hirzebruch2_nef(
        cutoff, monkeypatch):
    poly = examples.hirzebruch2(F(2))
    cutoff = default_cutoff(poly) if cutoff is None else F(cutoff)
    qp = nef_presentation(poly, hirz_y_table(cutoff), cutoff)
    elements = [facet_seidel(qp, i).qclass for i in range(poly.num_facets)]
    got = [_qinv_outcome(a, qp) for a in elements]
    monkeypatch.setattr(quantum_module, "_solve_unit_system",
                        reference_solve_unit_system)
    assert got == [_qinv_outcome(a, qp) for a in elements]
    assert all(isinstance(g[0], dict) for g in got)


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


def _unit_classes():
    """hirzebruch2 NEF's facet elements at cutoffs 4 and 8, the Fano facet
    elements of the bundled 2-D examples, one and a monomial unit."""
    poly = examples.hirzebruch2(F(2))
    for cutoff in (F(4), F(8)):
        qp = nef_presentation(poly, hirz_y_table(cutoff), cutoff)
        for i in range(poly.num_facets):
            yield (f"hirzebruch2 nef {cutoff} D{i}",
                   facet_seidel(qp, i).qclass, qp)
    for name in sorted(examples.BUILDERS):
        poly = examples.build(name)
        if poly.n != 2 or name == "hirzebruch2":
            continue
        qp = fano_presentation(poly)
        for i in range(poly.num_facets):
            yield f"{name} D{i}", facet_seidel(qp, i).qclass, qp
    yield "one", qp.one(), qp
    (unit_monomial,) = qp.one().coeffs
    unit = QClass({unit_monomial: NovScalar.monomial(
        F(-3, 2), 0, F(1, 2), qp.cutoff)}, qp.cutoff)
    yield "monomial unit", unit, qp


UNITS = list(_unit_classes())


@pytest.mark.parametrize("name,a,qp", UNITS, ids=[u[0] for u in UNITS])
def test_qinv_matches_the_former_qinv(name, a, qp):
    want = former_qinv(a, qp)
    got = qinv(a, qp)
    assert _snapshot(got) == _snapshot(want)


@pytest.mark.parametrize("name,a,qp", UNITS, ids=[u[0] for u in UNITS])
def test_qinv_computes_one_product_per_distinct_slot(name, a, qp,
                                                     monkeypatch):
    products, slots = [], set()

    def counted_qprod(a, b, qp):
        products.append(b)
        return qprod(a, b, qp)

    def recorded_solve(qp, tried, columns, **kwargs):
        slots.update(tried)
        return _solve_unit_system(qp, tried, columns, **kwargs)

    monkeypatch.setattr(quantum_module, "qprod", counted_qprod)
    monkeypatch.setattr(quantum_module, "_solve_unit_system", recorded_solve)
    qinv(a, qp)
    assert len(products) == len(slots)


def test_qinv_saves_the_repeated_columns_on_hirzebruch2_nef(monkeypatch):
    """The four facet inverses of hirzebruch2 NEF at its default cutoff
    reach the extended slot range, where the former code computed each
    column of the range before again."""
    poly = examples.hirzebruch2(F(2))
    cutoff = default_cutoff(poly)
    qp = nef_presentation(poly, hirz_y_table(cutoff), cutoff)
    elements = [facet_seidel(qp, i).qclass for i in range(poly.num_facets)]
    calls, product, answers = [], qprod, {}

    def counted_qprod(a, b, qp):
        calls.append(b)
        return product(a, b, qp)

    monkeypatch.setattr(quantum_module, "qprod", counted_qprod)
    monkeypatch.setitem(former_qinv.__globals__, "qprod", counted_qprod)
    for name, invert in (("former", former_qinv), ("qinv", qinv)):
        calls.clear()
        answers[name] = [_snapshot(invert(a, qp)) for a in elements], \
            len(calls)
    assert answers["qinv"][0] == answers["former"][0]
    assert (answers["former"][1], answers["qinv"][1]) == (176, 120)


# ------------------------------------------------------------ the parser

N_VARS = 4
RATIONALS = st.builds(lambda p, q: str(p) if q == 1 else f"{p}/{q}",
                      st.integers(0, 9), st.integers(1, 5))
EXPONENTS = st.one_of(
    st.integers(0, 3).map(str),
    st.integers(1, 3).map(lambda k: f"-{k}"),
    st.builds(lambda sign, p, q: "{" + f"{sign}{p}/{q}" + "}",
              st.sampled_from(["", "-"]), st.integers(0, 5),
              st.integers(1, 4)))
BASES = st.one_of(RATIONALS, st.just("q"), st.just("t"),
                  st.integers(1, N_VARS + 1).map(lambda i: f"x{i}"))
LEAVES = st.one_of(BASES, st.builds(lambda b, e: f"{b}^{e}", BASES,
                                    EXPONENTS))


def _compound(inner):
    return st.one_of(
        st.builds(lambda a, op, b: f"{a}{op}{b}", inner,
                  st.sampled_from([" + ", " - ", "*", " * ", "-"]), inner),
        inner.map(lambda e: f"({e})"),
        inner.map(lambda e: f"-{e}"),
        st.builds(lambda e, k: f"({e})^{k}", inner,
                  st.sampled_from(["0", "1", "2", "{1/2}", "-1"])))


EXPRESSIONS = st.recursive(LEAVES, _compound, max_leaves=8)


def _parse_outcome(parse, text):
    try:
        value = parse(text)
    except ExprSyntaxError as err:
        return "error", str(err)
    return {key: c for key, c in value.items() if c}


def _check_parse(text):
    got = _parse_outcome(lambda s: parse_expression(s, N_VARS), text)
    assert got == _parse_outcome(
        lambda s: ReferenceParser(former_tokenize(s), N_VARS).parse(), text)
    if isinstance(got, dict):
        assert all(type(d) is int and type(kappa) is Fraction
                   and all(type(e) is int for e in mono)
                   for mono, d, kappa in got)


@settings(max_examples=300, deadline=None)
@given(EXPRESSIONS)
def test_parse_expression_matches_the_former_parser(text):
    _check_parse(text)


@pytest.mark.parametrize("text", [
    "2*x1^2 - 1/2*q*t^{1/3}*(x2 + x3)", "(x1 - x2)^3",
    "q^-1 * t^{-2/3} * x1*x2", "0", "0 + x1 + 1", "x1^0 + t^{1/2}*q^2",
    "x2 - -x3", "t^{-3/4}*q^-2", "(q*t)^2", "x1^{1/2}", "q^{1/2}"])
def test_parse_expression_matches_the_former_parser_by_hand(text):
    _check_parse(text)


# One fragment of text each: the grammar's characters, ASCII digits,
# Unicode decimal digits (Arabic-Indic three, fullwidth zero, bold nine),
# digits that are no decimal (a superscript two, a circled one), spaces,
# junk, and a numeral past the int() limit of 4,300 digits.
FRAGMENTS = st.sampled_from(
    list("+-*^(){}/xqt0123456789")
    + ["\u0663", "\uff10", "\U0001d7d7", "\u00b2", "\u2460"]
    + [" ", "\t", "\n", "\u00a0", "\u3000"]
    + ["a", "X", ".", "_", "\u00e9", "\x00", "7" * 4400])


def _tokens(tokenize, text):
    """The tokens with the type of each value, or ("error", message)."""
    try:
        return [(kind, value, type(value)) for kind, value in tokenize(text)]
    except ExprSyntaxError as err:
        return "error", str(err)


@settings(max_examples=500, deadline=None)
@given(st.lists(FRAGMENTS, max_size=12).map("".join))
def test_the_token_pattern_reads_as_the_former_scanner(text):
    """Equal tokens and messages wherever the former scanner did not end
    in a ValueError; where it did, an ExprSyntaxError.  One message
    changes: the former scanner read a digit that is no decimal into the p
    of a bad rational "p/", as in "\u00b2/", and the pattern names that
    digit as an unexpected character."""
    try:
        want = _tokens(former_tokenize, text)
    except ValueError:  # too many digits, or a digit that is no decimal
        want = None
    got = _tokens(_tokenize, text)
    if want is None:
        assert got[0] == "error"
    elif got != want:
        j = next(j for j, c in enumerate(text)
                 if c.isdigit() and not c.isdecimal())
        assert want[0] == got[0] == "error"
        assert want[1].startswith("bad rational at ")
        assert got[1] == f"unexpected character {text[j]!r} at {j}"


# ------------------------------------------------------ powers by squaring

COEFFS = st.one_of(st.integers(-4, 4),
                   st.fractions(min_value=-3, max_value=3,
                                max_denominator=5)).filter(bool)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 2)] * 3), COEFFS,
                       max_size=4),
       st.integers(1, 9))
def test_poly_pow_is_the_repeated_product(f, e):
    want = poly_const(1, 3)
    for _ in range(e):
        want = poly_mul(want, f)
    got = poly_pow(f, e)
    assert got == want and got is not f
    if all(type(c) is int for c in f.values()):
        assert all(type(c) is int for c in got.values())


def test_a_huge_exponent_is_parsed_and_substituted_at_once():
    """The parser's `^` and `poly_substitute` square and multiply, so an
    exponent of 10^12 costs about 80 products, not 10^12."""
    code = (
        "from toricqh.exprparse import parse_expression\n"
        "from toricqh.polynomials import poly_substitute\n"
        "e = 10 ** 12\n"
        "print(parse_expression(f'x1^{e}*(2*x2)^3', 3)\n"
        "      == {((e, 3, 0), 0, 0): 8})\n"
        "images = {0: {(1,): -1}, 1: {(1,): 2}}\n"
        "print(poly_substitute({(e, 1): 1}, images, 1) == {(e + 1,): 2})\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricqh.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True\nTrue\n"
