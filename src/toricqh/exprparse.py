r"""Recursive-descent parser for quantum polynomial expressions.

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

The tokens are the matches of one pattern, whose \d and \s are the classes
of str.isdecimal and str.isspace: a Unicode decimal digit reads as its
ASCII twin, and a superscript digit is an unexpected character.  Each
numeral is converted once, and a zero denominator or more digits than
int() reads is an ExprSyntaxError.
"""

import re
from fractions import Fraction

from .errors import ExprSyntaxError
from .polynomials import poly_add, poly_const, poly_mul, poly_neg, poly_pow


_TOKEN = re.compile(r"\s+|(?P<num>\d+(?P<den>/\d*)?)|x(?P<var>\d*)"
                    r"|(?P<op>[-+*^(){}])|(?P<qt>[qt])|(?P<other>.)", re.S)


def _tokenize(text):
    tokens = []
    for match in _TOKEN.finditer(text):
        kind, token, i = match.lastgroup, match[0], match.start()
        if kind == "op":
            tokens.append((token, token))
        elif kind == "qt":
            tokens.append((token, None))
        elif kind == "other":
            raise ExprSyntaxError(f"unexpected character {token!r} at {i}")
        elif match["den"] == "/":
            raise ExprSyntaxError(f"bad rational at {i}: {token}")
        elif token == "x":
            raise ExprSyntaxError(f"variable needs an index at {i}")
        elif kind:
            try:
                tokens.append(("num", Fraction(token)) if kind == "num"
                              else ("var", int(match["var"])))
            except ZeroDivisionError:
                raise ExprSyntaxError(f"zero denominator at {i}") from None
            except ValueError:  # beyond sys.get_int_max_str_digits()
                raise ExprSyntaxError(f"too many digits at {i}") from None
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
