"""Recursive-descent parser for quantum polynomial expressions.

Grammar (documented in the README):

    expr     := term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' exponent)?
    atom     := RATIONAL | VAR | '(' expr ')' | '-' factor
    exponent := INT | '{' SIGNED_RATIONAL '}'
    VAR      := 'x' DIGITS | 'q' | 't'

Rationals are written p/q with no spaces; there is no division operator.
The value of an expression is a linear combination of atoms
(monomial in x1..xN, q-exponent, t-exponent) over Q.  While parsing, it is
a `polynomials` dict over the extended exponent tuple (x1..xN, q, t): the
q entry is an integer and the t entry a rational, so the polynomial
arithmetic adds exponents and merges like atoms.
"""

from fractions import Fraction

from .errors import ExprSyntaxError
from .polynomials import poly_add, poly_const, poly_mul, poly_neg, poly_pow


def _tokenize(text):
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


class _Parser:
    """Values are polynomials over the extended exponent tuples
    (x1..xN, q, t) of width N + 2; `parse` splits the keys back."""

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

    def _atom(self, x=None, q=0, t=0):
        """The atom x_i * q^q * t^t for the 1-based index i = x, with no
        x factor when x is None."""
        return {tuple(int(i == x) for i in range(1, self.n + 1)) + (q, t):
                Fraction(1)}

    def parse(self):
        value = self.expr()
        self.take("end")
        return {(key[:self.n], key[self.n], Fraction(key[-1])): c
                for key, c in value.items()}

    def expr(self):
        value = self.term()
        while self.peek() in "+-":
            op = self.take()[0]
            rhs = self.term()
            value = poly_add(value, rhs if op == "+" else poly_neg(rhs))
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take("*")
            value = poly_mul(value, self.factor())
        return value

    def factor(self):
        if self.peek() == "-":
            self.take("-")
            return poly_neg(self.factor())
        value, kind = self.atom()
        if self.peek() == "^":
            self.take("^")
            exponent = self.exponent()
            if kind == "t":
                return self._atom(t=exponent)
            if kind == "q":
                if exponent.denominator != 1:
                    raise ExprSyntaxError("q exponents must be integers")
                return self._atom(q=int(exponent))
            if exponent.denominator != 1 or exponent < 0:
                raise ExprSyntaxError(
                    "variable exponents must be nonnegative integers")
            if not exponent:
                return poly_const(1, self.n + 2)
            return poly_pow(value, int(exponent))
        return value

    def atom(self):
        kind = self.peek()
        if kind == "num":
            return poly_const(self.take()[1], self.n + 2), "num"
        if kind == "var":
            idx = self.take()[1]
            if not 1 <= idx <= self.n:
                raise ExprSyntaxError(
                    f"x{idx} is out of range; this polytope has {self.n} "
                    "facets")
            return self._atom(x=idx), "var"
        if kind == "q":
            self.take()
            return self._atom(q=1), "q"
        if kind == "t":
            self.take()
            return self._atom(t=1), "t"
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


def parse_expression(text, n_vars):
    """Parse to {(monomial, q exponent, t exponent): coefficient}.  Nesting
    deeper than the interpreter's recursion limit is an ExprSyntaxError."""
    try:
        return _Parser(_tokenize(text), n_vars).parse()
    except RecursionError:
        raise ExprSyntaxError("expression nested too deeply") from None
