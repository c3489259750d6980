"""Recursive-descent parser for the identity file language.

Grammar (whitespace-insensitive, '#' starts a comment to end of line):

    file      := header? identity+
    header    := "corpus" STRING ";"
    identity  := "identity" STRING "{" "den" INT ";" sumside productside "}"
    sumside   := "sum" "{" "indices" IDENT ("," IDENT)* ";"
                 ("sign" signexpr ";")?
                 "exponent" polyexpr ";"
                 "denoms" denom ("," denom)* ";"
                 ("bounds" INT ("," INT)* ";")? "}"
    denom     := "(" monomial ";" IDENT ")"
    productside := "product" "{" factor ("*" factor)* "}"
    factor    := ("1/")? "poch" "(" monomial "," monomial ("," INT)? ")"
    signexpr  := atom ("*" atom)*
    atom      := "(-1)^" (binom | sexp) | "i^" sexp
    sexp      := "(" linform ")" | INT | IDENT | INT "*" IDENT
    binom     := "binom(" linform ",2)"
    monomial  := ("-")? ("i" "*"?)? "q" ("^" rational)?
    polyexpr  := rational-coefficient polynomial in the indices built from
                 '+', '-', '*', '^2', parentheses and binom
    linform   := any polyexpr that reduces to an integer linear form

The bare sign exponent takes no more than INT "*" IDENT, since '*' also
separates sign atoms.  Every polyexpr is an ExponentPoly, built with its own
arithmetic; a product past degree 2 raises SemanticError at its '*' or '^'
token, naming the exponent polynomial or linear form it sits in.

The imaginary-unit atom "i^..." takes precedence over an index named i, so
identities that use an i^ sign atom should not name an index "i".

Every rejected text raises ParseError or SemanticError: an exponent nested
more than _MAX_DEPTH parentheses or binoms deep, and an integer literal too
long for int(), are ParseErrors at their token.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, Tuple

from .errors import ParseError, SemanticError
from .gaussian import I, MINUS_I, MINUS_ONE, ONE
from .identity import ExponentPoly, IdentitySpec, ProductFactor, SignAtom
from .series import Monomial

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<string>"[^"\n]*")
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<punct>[{}();,*+\-^/])
    """,
    re.VERBOSE,
)

# the deepest polyexpr nesting parsed: each level takes a few Python frames
_MAX_DEPTH = 100


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def _tokenize(text: str) -> List[_Token]:
    out = []
    pos = 0
    line = 1
    col = 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            out.append(_Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    out.append(_Token("eof", "", line, col))
    return out


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0
        self.form = "exponent polynomial"  # what a product past degree 2 is reported as
        self.depth = 0  # polyexprs open

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead=0) -> _Token:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def error(self, msg, expected=()):
        t = self.peek()
        raise ParseError("%s, got %r" % (msg, t.text or "end of file"), t.line, t.col, expected)

    def expect(self, text) -> _Token:
        t = self.peek()
        if t.text != text:
            self.error("expected %r" % text, (text,))
        return self.next()

    def accept(self, text) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def expect_int(self) -> int:
        t = self.peek()
        if t.kind != "int":
            self.error("expected integer", ("INT",))
        try:
            value = int(t.text)
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("integer literal of %d digits is too long" % len(t.text), t.line, t.col) from None
        self.next()
        return value

    def expect_ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.error("expected identifier", ("IDENT",))
        self.next()
        return t.text

    def expect_string(self) -> str:
        t = self.peek()
        if t.kind != "string":
            self.error("expected quoted string", ("STRING",))
        self.next()
        return t.text[1:-1]

    # -- grammar -----------------------------------------------------------

    def parse_file(self) -> List[IdentitySpec]:
        if self.peek().text == "corpus":
            self.next()
            self.expect_string()
            self.expect(";")
        specs = []
        while self.peek().text == "identity":
            specs.append(self.parse_identity())
        if self.peek().kind != "eof":
            self.error("expected 'identity'", ("identity",))
        if not specs:
            self.error("expected at least one identity", ("identity",))
        return specs

    def parse_identity(self) -> IdentitySpec:
        self.expect("identity")
        name = self.expect_string()
        self.expect("{")
        self.expect("den")
        den = self.expect_int()
        self.expect(";")
        indices, sign, poly, denoms, bounds = self.parse_sumside()
        product = self.parse_productside()
        self.expect("}")
        return IdentitySpec(
            name=name,
            den=den,
            indices=tuple(indices),
            sign=tuple(sign),
            exponent=poly,
            denoms=tuple(denoms),
            product=tuple(product),
            bounds=tuple(bounds) if bounds is not None else None,
        )

    def parse_sumside(self):
        self.expect("sum")
        self.expect("{")
        self.expect("indices")
        indices = [self.expect_ident()]
        while self.accept(","):
            indices.append(self.expect_ident())
        if "q" in indices:
            raise SemanticError("index name 'q' is reserved")
        self.expect(";")
        sign = []
        if self.accept("sign"):
            sign = self.parse_signexpr()
            self.expect(";")
        self.expect("exponent")
        poly = self.parse_polyexpr()
        self.expect(";")
        self.expect("denoms")
        denoms = [self.parse_denom()]
        while self.accept(","):
            denoms.append(self.parse_denom())
        self.expect(";")
        bounds = None
        if self.accept("bounds"):
            bounds = [self.expect_int()]
            while self.accept(","):
                bounds.append(self.expect_int())
            self.expect(";")
        self.expect("}")
        return indices, sign, poly, denoms, bounds

    def parse_denom(self) -> Tuple[str, Monomial]:
        self.expect("(")
        base = self.parse_monomial()
        self.expect(";")
        idx = self.expect_ident()
        self.expect(")")
        return idx, base

    def parse_productside(self) -> List[ProductFactor]:
        self.expect("product")
        self.expect("{")
        factors = [self.parse_factor()]
        while self.accept("*"):
            factors.append(self.parse_factor())
        self.expect("}")
        return factors

    def parse_factor(self) -> ProductFactor:
        power = 1
        if self.peek().text == "1" and self.peek(1).text == "/":
            self.next()
            self.next()
            power = -1
        self.expect("poch")
        self.expect("(")
        x = self.parse_monomial()
        self.expect(",")
        base = self.parse_monomial()
        finite = None
        if self.accept(","):
            finite = self.expect_int()
        self.expect(")")
        return ProductFactor(x=x, base=base, power=power, finite=finite)

    def parse_monomial(self) -> Monomial:
        neg = self.accept("-")
        imag = False
        if self.peek().text == "i":
            self.next()
            self.accept("*")
            imag = True
        self.expect("q")
        exp = Fraction(1)
        if self.accept("^"):
            exp = self.parse_rational()
        unit = {(False, False): ONE, (True, False): MINUS_ONE,
                (False, True): I, (True, True): MINUS_I}[(neg, imag)]
        return Monomial(unit, exp)

    def parse_rational(self) -> Fraction:
        neg = self.accept("-")
        num = self.expect_int()
        den = 1
        if self.accept("/"):
            den = self.expect_int()
            if den == 0:
                self.error("zero denominator")
        val = Fraction(num, den)
        return -val if neg else val

    # sign expressions

    def parse_signexpr(self) -> List[SignAtom]:
        atoms = [self.parse_sign_atom()]
        while self.accept("*"):
            atoms.append(self.parse_sign_atom())
        return atoms

    def parse_sign_atom(self) -> SignAtom:
        if self.peek().text == "(" and self.peek(1).text == "-" and self.peek(2).text == "1":
            self.next()
            self.next()
            self.next()
            self.expect(")")
            self.expect("^")
            if self.peek().text == "binom":
                return SignAtom("neg1_binom", self.parse_binom())
            return SignAtom("neg1", self.parse_sign_exponent())
        if self.peek().text == "i":
            self.next()
            self.expect("^")
            if self.peek().text == "binom":
                self.error("binom exponent only allowed after (-1)^")
            return SignAtom("i", self.parse_sign_exponent())
        self.error("expected sign atom '(-1)^...' or 'i^...'", ("(-1)^", "i^"))

    def parse_sign_exponent(self) -> ExponentPoly:
        """'(' linform ')' or a bare INT, IDENT or INT*IDENT, which takes no
        more since '*' also separates sign atoms."""
        if self.accept("("):
            form = self.parse_linform()
            self.expect(")")
            return form
        t = self.peek()
        if t.kind == "ident":
            self.next()
            return ExponentPoly.make({}, {t.text: 1})
        if t.kind != "int":
            self.error("expected linear term", ("INT", "IDENT"))
        c = self.expect_int()
        if self.accept("*"):
            return ExponentPoly.make({}, {self.expect_ident(): c})
        return ExponentPoly.make({}, {}, c)

    def parse_linform(self) -> ExponentPoly:
        """A polynomial expression that reduces to an integer linear form."""
        t = self.peek()
        outer, self.form = self.form, "linear form"
        p = self.parse_polyexpr()
        self.form = outer
        if not p.is_integer_linear():
            raise ParseError("expected an integer linear form", t.line, t.col)
        return p

    def parse_binom(self) -> ExponentPoly:
        """binom(linform, 2): its argument."""
        self.expect("binom")
        self.expect("(")
        form = self.parse_linform()
        self.expect(",")
        if self.expect_int() != 2:
            self.error("only binom(..., 2) is supported")
        self.expect(")")
        return form

    # exponent polynomials

    def parse_polyexpr(self) -> ExponentPoly:
        if self.depth == _MAX_DEPTH:
            self.error("expression nested more than %d levels deep" % _MAX_DEPTH)
        self.depth += 1
        p = self.parse_polyterm(negate=self.accept("-"))
        while self.peek().text in ("+", "-"):
            op = self.next().text
            p = p + self.parse_polyterm(negate=(op == "-"))
        self.depth -= 1
        return p

    def parse_polyterm(self, negate: bool) -> ExponentPoly:
        p = self.parse_polyfactor()
        while self.peek().text == "*":
            p = self.times(p, self.next(), self.parse_polyfactor())
        return p * -1 if negate else p

    def times(self, a: ExponentPoly, op: _Token, b: ExponentPoly) -> ExponentPoly:
        """a * b, a product past degree 2 reported at its operator token."""
        try:
            return a * b
        except SemanticError:
            raise SemanticError("line %d, col %d: %s exceeds degree 2" % (op.line, op.col, self.form)) from None

    def parse_polyfactor(self) -> ExponentPoly:
        t = self.peek()
        if t.kind == "int":
            p = ExponentPoly.make({}, {}, self.parse_rational())
        elif t.text == "binom":
            v = self.parse_binom()
            p = (v * v - v) * Fraction(1, 2)
        elif t.text == "(":
            self.next()
            p = self.parse_polyexpr()
            self.expect(")")
        elif t.kind == "ident":
            self.next()
            p = ExponentPoly.make({}, {t.text: 1})
        else:
            self.error("expected polynomial factor", ("INT", "IDENT", "binom", "("))
        if self.peek().text == "^":
            op = self.next()
            k = self.expect_int()
            if k == 1:
                pass
            elif k == 2:
                p = self.times(p, op, p)
            else:
                self.error("only powers 1 and 2 are supported in exponents")
        return p


def parse_file(text: str) -> List[IdentitySpec]:
    """Parse a corpus file into its identity specs."""
    return _Parser(text).parse_file()


def parse(text: str) -> IdentitySpec:
    """Parse a file containing exactly one identity."""
    specs = parse_file(text)
    if len(specs) != 1:
        raise SemanticError("expected exactly one identity, found %d" % len(specs))
    return specs[0]


def parse_poly(text: str) -> ExponentPoly:
    """Parse a standalone exponent polynomial (test/replay helper)."""
    p = _Parser(text)
    poly = p.parse_polyexpr()
    if p.peek().kind != "eof":
        p.error("trailing input after polynomial")
    return poly
