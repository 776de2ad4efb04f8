"""The shared exact kernels against the code they replaced: gauss_jordan
against the unit-system elimination of quantum.qinv, qinv against its
former one product per slot of each extension, solve_rational and
rank against their dense eliminations, the expression parser against its
own arithmetic, and the token pattern against the former character loop.
The former versions are the references."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cases import hirz_y_table
from reference import (
    ReferenceParser,
    former_qinv,
    former_tokenize,
    reference_eliminate,
    reference_rank,
    reference_solve_rational,
    reference_solve_unit_system,
)
import toricqh
from toricqh import examples, linalg
from toricqh import quantum as quantum_module
from toricqh.errors import ExprSyntaxError, NotAUnit
from toricqh.exprparse import _tokenize, parse_expression
from toricqh.novikov import NovScalar
from toricqh.polynomials import poly_const, poly_mul, poly_pow
from toricqh.quantum import (
    QClass,
    _solve_unit_system,
    default_cutoff,
    fano_presentation,
    nef_presentation,
    qinv,
    qprod,
)
from toricqh.seidel import facet_seidel

F = Fraction


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
@example("7" * 4400 + "\u00b2/")
@example("7" * 4300 + "\u00b2/")
def test_the_token_pattern_reads_as_the_former_scanner(text):
    """Equal tokens and messages wherever the former scanner did not end
    in a ValueError; where it did, an ExprSyntaxError.  One message
    changes: the former scanner read a digit that is no decimal into the p
    of a bad rational "p/", as in "\u00b2/", and the pattern names that
    digit as an unexpected character, or, when the decimal digits before
    it are more than int() reads, names the numeral's start as too many
    digits."""
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
        start = int(want[1].removeprefix("bad rational at ").split(":")[0])
        if 0 < sys.get_int_max_str_digits() < j - start:
            assert got[1] == f"too many digits at {start}"
        else:
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
