import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from qrr import corpus
from qrr.cli import EXIT_BAD_INPUT, main
from qrr.errors import ParseError, SemanticError
from qrr.gaussian import MINUS_ONE
from qrr.parser import parse, parse_file, parse_poly

GOOD = """
# a comment
identity "demo" {
  den 1;
  sum {
    indices n;
    exponent n^2;
    denoms (q; n);
  }
  product { 1/poch(q, q^5) * 1/poch(q^4, q^5) }
}
"""


def test_parse_single_identity():
    spec = parse(GOOD)
    assert spec.name == "demo"
    assert spec.indices == ("n",)
    assert spec.den == 1
    assert len(spec.product) == 2
    assert all(f.power == -1 for f in spec.product)


def test_parse_file_header_and_multiple():
    text = 'corpus "demo set";\n' + GOOD + GOOD.replace('"demo"', '"demo2"')
    specs = parse_file(text)
    assert [s.name for s in specs] == ["demo", "demo2"]


def test_parse_double_sum_with_signs():
    text = """
    identity "d" {
      den 4;
      sum {
        indices m, n;
        sign (-1)^binom(n-m,2);
        exponent 3/4*m^2 + 1/2*m*n + 3/4*n^2;
        denoms (q; m), (q; n);
      }
      product { 1/poch(q^2, q^10) }
    }
    """
    spec = parse(text)
    assert spec.sign[0].kind == "neg1_binom"
    assert dict(spec.sign[0].form.lin) == {"n": 1, "m": -1}
    point = {"m": 2, "n": 1}
    assert spec.exponent.eval(point) == F(3, 4) * 4 + F(1, 2) * 2 + F(3, 4)


def test_parse_i_power_sign():
    text = """
    identity "d" {
      den 4;
      sum {
        indices m, n;
        sign i^(n-m);
        exponent 1/4*m^2 + 1/2*m*n + 1/4*n^2;
        denoms (q^2; m), (q^2; n);
      }
      product { 1/poch(q, q^5) }
    }
    """
    spec = parse(text)
    assert spec.sign[0].kind == "i"


def test_parse_finite_poch_and_bounds():
    text = """
    identity "cw" {
      den 1;
      sum {
        indices i, j;
        sign (-1)^(i+j);
        exponent binom(i,2) + i*j + j^2;
        denoms (q; i), (q^2; j);
        bounds 5, 6;
      }
      product { poch(q^2, q) * 1/poch(-q^6, q^6) }
    }
    """
    spec = parse(text)
    assert spec.bounds == (5, 6)
    assert spec.product[0].power == 1
    assert spec.product[1].x.unit == MINUS_ONE


def test_parse_negative_monomial_argument():
    text = GOOD.replace("1/poch(q, q^5)", "1/poch(-q^2, q^2)")
    spec = parse(text)
    assert spec.product[0].x.unit == MINUS_ONE
    assert spec.product[0].x.exp == 2


def test_parse_errors_carry_location():
    with pytest.raises(ParseError) as ei:
        parse('identity "x" { den 1; sum { indices n; exponent n^3; } }')
    # cubic exponents are rejected (degree cap) or the parse fails cleanly
    assert ei.value.line >= 1


@pytest.mark.parametrize(
    "mutation",
    [
        ('den 1;', 'den 0;'),  # nonpositive denominator
        ('denoms (q; n);', 'denoms (q; m);'),  # unbound index
        ('denoms (q; n);', ''),  # missing denominator
        ('exponent n^2;', 'exponent m*n;'),  # unbound name in exponent
        ('indices n;', 'indices n, n;'),  # duplicate index
    ],
)
def test_semantic_errors(mutation):
    old, new = mutation
    with pytest.raises((SemanticError, ParseError)):
        parse(GOOD.replace(old, new))


def test_reject_index_named_q():
    with pytest.raises((ParseError, SemanticError)):
        parse(GOOD.replace("indices n;", "indices q;").replace("(q; n)", "(q; q)").replace("n^2", "q^2"))


def test_degree_cap():
    with pytest.raises((ParseError, SemanticError)):
        parse(GOOD.replace("exponent n^2;", "exponent n*n*n;"))


def test_unbalanced_rejected():
    with pytest.raises(ParseError):
        parse(GOOD.replace("}", "", 1))


def test_parse_poly_binom_expansion():
    p = parse_poly("binom(m+n,2)")
    assert p.eval({"m": 3, "n": 2}) == 10
    q = parse_poly("1/2*(m+n)*(m+n) - 1/2*m - 1/2*n")
    assert p == q


def test_a_constant_sign_and_a_first_power_read_as_written():
    spec = parse(GOOD.replace("exponent n^2;", "sign (-1)^3; exponent n^1*n;"))
    assert spec.exponent == parse(GOOD).exponent
    assert [atom.form.eval({"n": 5}) for atom in spec.sign] == [3]


def test_parse_poly_rejects_trailing():
    with pytest.raises(ParseError):
        parse_poly("n^2 n")


def test_exponent_matrix_view():
    p = parse_poly("3/4*m^2 + 1/2*m*n + 3/4*n^2")
    mat = p.quadratic_matrix(["m", "n"])
    assert mat == [[F(3, 2), F(1, 2)], [F(1, 2), F(3, 2)]]
    assert p.linear_vector(["m", "n"]) == [F(0), F(0)]


# sha256 of the repr of every parsed corpus spec, then of parse_poly of each
# of REPLAY_POLYS, one per line, as the parser gave them while it kept a
# polynomial class and a linear-form grammar of its own
SPEC_DIGEST = "b73849d374c3973cd05235d94c7ac9cda4008058d3f8f0336707318a8cddf749"
REPLAY_POLYS = (
    "1/2*binom(m+n,2) + binom(m,2) + 3/4*m + binom(n,2) + 3/4*n",
    "1/2*binom(m+n,2) + binom(m,2) + 7/4*m + binom(n,2) + 7/4*n",
    "1/4*(m+n)*(m+n-2) + 3/2*(m+n)",
)


def test_parsed_specs_are_unchanged():
    text = "\n".join([repr(s) for s in corpus.load_all()] + [repr(parse_poly(p)) for p in REPLAY_POLYS])
    assert hashlib.sha256(text.encode()).hexdigest() == SPEC_DIGEST


TEMPLATE = """
identity "t" {
  den 2;
  sum {
    indices m, n, k;
    sign %s;
    exponent %s;
    denoms (q; m), (q; n), (q; k);
  }
  product { 1/poch(q, q) }
}
"""
SQUARES = "m^2 + n^2 + k^2"


@pytest.mark.parametrize(
    "sign, exponent, spelled",
    [
        ("(-1)^(2*(m+n))", SQUARES, ("(-1)^(2*m + 2*n)", SQUARES)),
        ("i^(n*2)", SQUARES, ("i^2*n", SQUARES)),
        ("(-1)^binom(2*(m+n),2)", SQUARES, ("(-1)^binom(2*m+2*n,2)", SQUARES)),
        ("i^((m - k)*3 - (1 - n))", SQUARES, ("i^(3*m - 3*k + n - 1)", SQUARES)),
        ("(-1)^k", "binom(2*(m+n),2) + " + SQUARES, ("(-1)^k", "binom(2*m+2*n,2) + " + SQUARES)),
        ("(-1)^k", "binom(m*1/2*2 - (n - k)*(2 - 1),2) + " + SQUARES, ("(-1)^k", "binom(m-n+k,2) + " + SQUARES)),
    ],
)
def test_linear_forms_take_any_integer_linear_expression(sign, exponent, spelled):
    assert parse(TEMPLATE % (sign, exponent)) == parse(TEMPLATE % spelled)


@pytest.mark.parametrize(
    "sign, exponent, error",
    [
        ("(-1)^(n^2)", SQUARES, ParseError),
        ("(-1)^(m*n)", SQUARES, ParseError),
        ("(-1)^(1/2*n)", SQUARES, ParseError),
        ("(-1)^(n + 1/2)", SQUARES, ParseError),
        ("i^binom(n,2)", SQUARES, ParseError),
        ("(-1)^k", "binom(1/2*n,2) + " + SQUARES, ParseError),
        ("(-1)^k", "binom(n - 1/2,2) + " + SQUARES, ParseError),
        ("(-1)^(n*n*n)", SQUARES, SemanticError),
        ("(-1)^k", "binom(n*n*n,2) + " + SQUARES, SemanticError),
    ],
)
def test_rejected_forms_are_bad_input(sign, exponent, error, tmp_path, capsys):
    text = TEMPLATE % (sign, exponent)
    with pytest.raises(error):
        parse(text)
    path = tmp_path / "bad.id"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_BAD_INPUT
    assert "internal error" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "sign, exponent, message",
    [
        ("(-1)^(n*n*n)", SQUARES, "line 6, col 19: linear form exceeds degree 2"),
        ("(-1)^k * i^(m*(n*k))", SQUARES, "line 6, col 23: linear form exceeds degree 2"),
        ("(-1)^k", "binom(n*n*n,2) + " + SQUARES, "line 7, col 23: linear form exceeds degree 2"),
        ("(-1)^(m + n)", "m*n*k", "line 7, col 17: exponent polynomial exceeds degree 2"),
        ("(-1)^k", "(m*n)^2", "line 7, col 19: exponent polynomial exceeds degree 2"),
    ],
)
def test_degree_cap_error_points_at_the_operator(sign, exponent, message, tmp_path, capsys):
    # the * or ^ whose product passes degree 2, named as the form it sits in
    text = TEMPLATE % (sign, exponent)
    with pytest.raises(SemanticError) as ei:
        parse(text)
    assert str(ei.value) == message
    path = tmp_path / "bad.id"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err


def test_linform_error_points_at_the_form():
    with pytest.raises(ParseError) as ei:
        parse(TEMPLATE % ("(-1)^k * (-1)^(m + 1/2*n)", SQUARES))
    assert (ei.value.line, ei.value.col) == (6, 25)


def _rejected_at(text, line, col, message, tmp_path, capsys):
    """parse raises a ParseError at (line, col), and `qrr verify` on the
    text exits 2 with that one-line error after the file's path, and no
    traceback."""
    with pytest.raises(ParseError) as ei:
        parse(text)
    assert (ei.value.line, ei.value.col) == (line, col)
    assert message in str(ei.value)
    path = tmp_path / "hostile.id"
    path.write_text(text)
    assert main(["verify", str(path)]) == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert err == "error: %s: %s\n" % (path, ei.value)


@pytest.mark.parametrize("form", ["(%s)", "binom(%s,2)"])
def test_deep_nesting_is_a_parse_error(form, tmp_path, capsys):
    # 10,000 levels would overflow the Python stack of a recursive descent;
    # the parser stops at the first expression past 100 levels
    exponent = "m^2"
    for _ in range(10_000):
        exponent = form % exponent
    col = 14 + len(form.split("%")[0]) * 100  # the first token of level 101
    _rejected_at(TEMPLATE % ("(-1)^k", exponent), 7, col, "nested more than 100 levels deep", tmp_path, capsys)


def test_an_over_long_integer_literal_is_a_parse_error(tmp_path, capsys):
    # 5000 digits are past int()'s limit on a decimal string
    text = TEMPLATE % ("(-1)^k", "1" * 5000 + "*m^2 + " + SQUARES)
    _rejected_at(text, 7, 14, "integer literal of 5000 digits is too long", tmp_path, capsys)


@pytest.mark.parametrize(
    "old, new, line, col, message",
    [
        ("den 1;", "den x;", 4, 7, "line 4, col 7: expected integer, got 'x' (expected INT)"),
        ("poch(q, q^5)", "poch(q, q^5/0)", 10, 28, "line 10, col 28: zero denominator, got ')'"),
        ("exponent n^2;", "exponent binom(n,3);", 7, 23, "line 7, col 23: only binom(..., 2) is supported, got ')'"),
        ("indices n;", "indices 1;", 6, 13, "line 6, col 13: expected identifier, got '1' (expected IDENT)"),
        ('identity "demo"', "identity demo", 3, 10, "line 3, col 10: expected quoted string, got 'demo' (expected STRING)"),
        ('identity "demo"', 'idem "demo"', 3, 1, "line 3, col 1: expected 'identity', got 'idem' (expected identity)"),
        (
            "exponent n^2;",
            "sign q; exponent n^2;",
            7,
            10,
            "line 7, col 10: expected sign atom '(-1)^...' or 'i^...', got 'q' (expected (-1)^, i^)",
        ),
        ("exponent n^2;", "sign (-1)^+; exponent n^2;", 7, 15, "line 7, col 15: expected linear term, got '+' (expected INT, IDENT)"),
        ("den 1;", "den 1 @;", 4, 9, "line 4, col 9: unexpected character '@'"),
    ],
    ids=[
        "expected-integer",
        "zero-denominator",
        "binom-not-2",
        "expected-identifier",
        "expected-string",
        "expected-identity",
        "expected-sign-atom",
        "expected-linear-term",
        "unexpected-character",
    ],
)
def test_each_token_error_names_its_line_and_column(old, new, line, col, message, tmp_path, capsys):
    # each error is reported at the token after the one that broke the rule
    _rejected_at(GOOD.replace(old, new, 1), line, col, message, tmp_path, capsys)


def test_a_text_with_no_identity_is_a_parse_error(tmp_path, capsys):
    _rejected_at("# no identity\n", 2, 1, "line 2, col 1: expected at least one identity, got 'end of file'", tmp_path, capsys)


def test_parse_takes_exactly_one_identity():
    with pytest.raises(SemanticError, match="^expected exactly one identity, found 2$"):
        parse(GOOD + GOOD)


# -- grammar fuzz ------------------------------------------------------------
#
# An expression tree is ("int", c), ("rat", a, b), ("name", x), (op, left,
# right) for op in + - *, or (kind, child) for kind in sq (^2), paren, neg
# (a leading minus) and binom (binom(child, 2), child integer linear).

FUZZ_NAMES = ("m", "n", "k")
ints = st.integers(0, 9).map(lambda c: ("int", c))
names = st.sampled_from(FUZZ_NAMES).map(lambda x: ("name", x))
linear_trees = st.recursive(
    ints | names,
    lambda ch: st.tuples(st.sampled_from("+-"), ch, ch)
    | st.tuples(st.just("*"), ints, ch)
    | st.tuples(st.sampled_from(["paren", "neg"]), ch),
    max_leaves=6,
)
trees = st.recursive(
    ints | names | st.tuples(st.just("rat"), st.integers(0, 9), st.integers(1, 6)),
    lambda ch: st.tuples(st.sampled_from("+-*"), ch, ch)
    | st.tuples(st.sampled_from(["sq", "paren", "neg"]), ch)
    | st.tuples(st.just("binom"), linear_trees),
    max_leaves=8,
)
points = st.fixed_dictionaries({x: st.integers(-9, 9) for x in FUZZ_NAMES})
FACTORS = ("int", "rat", "name", "paren", "binom")


def _render(t) -> str:
    kind = t[0]
    if kind == "int":
        return str(t[1])
    if kind == "rat":
        return "%d/%d" % t[1:]
    if kind == "name":
        return t[1]
    if kind == "paren":
        return "(%s)" % _render(t[1])
    if kind == "neg":
        return "(-%s)" % _wrap(t[1], ("+", "-"))
    if kind == "binom":
        return "binom(%s,2)" % _render(t[1])
    if kind == "sq":
        return (_render(t[1]) if t[1][0] in FACTORS else "(%s)" % _render(t[1])) + "^2"
    if kind == "+":
        return "%s + %s" % (_render(t[1]), _render(t[2]))
    if kind == "-":
        return "%s - %s" % (_render(t[1]), _wrap(t[2], ("+", "-")))
    # a right operand that is a product is wrapped, so the parser multiplies
    # in the tree's order and meets the same degrees
    return "%s*%s" % (_wrap(t[1], ("+", "-")), _wrap(t[2], ("+", "-", "*")))


def _wrap(t, kinds) -> str:
    return "(%s)" % _render(t) if t[0] in kinds else _render(t)


def _value(t, point) -> F:
    kind = t[0]
    if kind in ("int", "rat"):
        return F(*t[1:])
    if kind == "name":
        return F(point[t[1]])
    if kind == "paren":
        return _value(t[1], point)
    if kind == "neg":
        return -_value(t[1], point)
    if kind == "sq":
        return _value(t[1], point) ** 2
    if kind == "binom":
        v = _value(t[1], point)
        return v * (v - 1) / 2
    a, b = _value(t[1], point), _value(t[2], point)
    return {"+": a + b, "-": a - b, "*": a * b}[kind]


class _PastDegree2(Exception):
    pass


def _poly(t) -> dict:
    """The tree's polynomial, {sorted tuple of names: nonzero coefficient};
    _PastDegree2 when it multiplies two nonzero polynomials whose degrees
    add up to more than 2."""
    kind = t[0]
    if kind in ("int", "rat"):
        return {(): F(*t[1:])} if t[1] else {}
    if kind == "name":
        return {(t[1],): F(1)}
    if kind == "paren":
        return _poly(t[1])
    if kind == "neg":
        return _times(_poly(t[1]), {(): F(-1)})
    if kind == "sq":
        return _times(_poly(t[1]), _poly(t[1]))
    if kind == "binom":
        v = _poly(t[1])
        return _times(_plus(_times(v, v), _times(v, {(): F(-1)})), {(): F(1, 2)})
    a, b = _poly(t[1]), _poly(t[2])
    if kind == "+":
        return _plus(a, b)
    if kind == "-":
        return _plus(a, _times(b, {(): F(-1)}))
    return _times(a, b)


def _plus(a, b) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _times(a, b) -> dict:
    if a and b and max(map(len, a)) + max(map(len, b)) > 2:
        raise _PastDegree2
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            out = _plus(out, {tuple(sorted(ka + kb)): ca * cb})
    return out


@settings(max_examples=300, deadline=None)
@given(trees, st.lists(points, min_size=1, max_size=3))
def test_parse_poly_evaluates_every_expression_tree(tree, at):
    text = _render(tree)
    try:
        _poly(tree)
    except _PastDegree2:
        with pytest.raises(SemanticError):
            parse_poly(text)
        return
    p = parse_poly(text)
    for point in at:
        assert p.eval(point) == _value(tree, point), text


@settings(max_examples=200, deadline=None)
@given(
    linear_trees | trees,
    st.sampled_from([("(-1)^(%s)", "neg1"), ("(-1)^binom(%s,2)", "neg1_binom"), ("i^(%s)", "i")]),
    points,
)
def test_sign_atoms_read_any_integer_linear_expression(tree, atom, point):
    text = TEMPLATE % (atom[0] % _render(tree), SQUARES)
    try:
        poly = _poly(tree)
    except _PastDegree2:
        with pytest.raises(SemanticError):
            parse(text)
        return
    if any(len(k) > 1 or c.denominator != 1 for k, c in poly.items()):
        with pytest.raises(ParseError):
            parse(text)
        return
    (sign,) = parse(text).sign
    assert sign.kind == atom[1]
    assert sign.form.eval(point) == _value(tree, point)
