import csv
import io
import json
import shlex
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import jsonschema
import pytest
import qrr.cli
import qrr.identity
import qrr.parser
from qrr import corpus
from qrr.cli import (
    EXIT_BAD_INPUT,
    EXIT_BROKEN_PIPE,
    EXIT_INVARIANT,
    EXIT_MISMATCH,
    EXIT_OK,
    REPORT_SCHEMA,
    STEP_SCHEMA,
    main,
)
from qrr.errors import QrrError
from qrr.gaussian import ZERO
from qrr.identity import eval_product, eval_sum, verify
from qrr.parser import parse
from qrr.special import NahmData, nahm_series


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def corpus_path(name):
    return str(corpus.corpus_root() / (name + ".id"))


@pytest.mark.parametrize("order", ["25", "100"])
def test_verify_corpus_all_match(order):
    # order 100 is the README's first command
    code, text = run(["verify", "--order", order])
    assert code == EXIT_OK
    assert [line.split()[1] for line in text.splitlines()] == ["match"] * 10


def test_verify_json_validates_schema():
    code, text = run(
        ["verify", corpus_path("rogers_mod5_1_4"), "--order", "30", "--format", "json"]
    )
    assert code == EXIT_OK
    docs = json.loads(text)
    assert len(docs) == 1
    for doc in docs:
        jsonschema.validate(doc, REPORT_SCHEMA)


def test_verify_mismatch_exit_code(tmp_path):
    bad = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text().replace(
        "exponent n^2;", "exponent n^2 + n;"
    )
    p = tmp_path / "bad.id"
    p.write_text(bad)
    code, text = run(["verify", str(p), "--order", "30"])
    assert code == EXIT_MISMATCH
    assert "q^1" in text

    code, text = run(["verify", str(p), "--order", "30", "--format", "json"])
    assert code == EXIT_MISMATCH
    doc = json.loads(text)[0]
    jsonschema.validate(doc, REPORT_SCHEMA)
    assert doc["first_mismatch"]["exp"] == 1


def test_verify_missing_file():
    code, _ = run(["verify", "definitely_not_here.id"])
    assert code == EXIT_BAD_INPUT


def test_verify_parse_error(tmp_path):
    p = tmp_path / "broken.id"
    p.write_text('identity "x" { den 1; sum {')
    code, _ = run(["verify", str(p)])
    assert code == EXIT_BAD_INPUT


@pytest.mark.parametrize("command", ["verify", "table"])
def test_non_utf8_file_is_bad_input(command, tmp_path, capsys):
    p = tmp_path / "latin1.id"
    p.write_bytes(b"# \xe9\n" + (corpus.corpus_root() / "rogers_mod5_1_4.id").read_bytes())
    code, text = run([command, str(p)])
    assert (code, text) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: %s is not UTF-8 text (invalid continuation byte at byte 2)\n" % p


@pytest.mark.parametrize("command", ["verify", "table"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "exponent n^2;",
            "exponent n^2 +;",
            "line 6, col 19: expected polynomial factor, got ';' (expected INT, IDENT, binom, ()",
        ),
        ("indices n;", "indices q;", "index name 'q' is reserved"),
    ],
)
def test_an_error_in_the_second_of_two_files_names_that_file(command, old, new, message, tmp_path, capsys):
    good = corpus_path("rogers_mod5_1_4")
    bad = tmp_path / "bad.id"
    bad.write_text(Path(good).read_text().replace(old, new))
    code, text = run([command, good, str(bad), "--order", "6"])
    assert (code, text) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: %s: %s\n" % (bad, message)


# IdentitySpec.validate's rejections of a spec the parser accepts: rogers_mod5_1_4
# with one text edit each
_REJECTED_TEXTS = [
    ("denoms (q; n);", "denoms (q; n), (q; n);", "index n appears in more than one denominator"),
    ("denoms (q; n);", "denoms (-q; n);", "denominator base for n must be a positive power of q"),
    ("1/poch(q, q^5)", "1/poch(q, -q^5)", "product factor base must be a positive power of q"),
    ("1/poch(q, q^5)", "1/poch(q^0, q^5)", "infinite product factor needs positive q-order argument"),
    ("denoms (q; n);", "denoms (q; n); bounds 3, 4;", "one bound per index required"),
]


@pytest.mark.parametrize("old, new, message", _REJECTED_TEXTS, ids=[m for _, _, m in _REJECTED_TEXTS])
def test_verify_names_a_rejected_spec_in_one_line(old, new, message, tmp_path, capsys):
    bad = tmp_path / "bad.id"
    bad.write_text(Path(corpus_path("rogers_mod5_1_4")).read_text().replace(old, new))
    code, text = run(["verify", str(bad), "--order", "6"])
    assert (code, text) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: %s: rogers-mod5-1-4: %s\n" % (bad, message)


def _power_two(spec):
    return {**spec, "product": tuple(replace(f, power=2) for f in spec["product"])}


def _negative_bound(spec):
    return {**spec, "bounds": (-1,)}


@pytest.mark.parametrize(
    "edit, message",
    [(_power_two, "factor power must be +1 or -1"), (_negative_bound, "bounds must be nonnegative")],
    ids=["factor power", "negative bound"],
)
def test_verify_names_a_spec_the_parser_cannot_write_in_one_line(edit, message, tmp_path, capsys, monkeypatch):
    # the grammar has no text for a factor power other than +-1 or for a
    # negative bound, so the spec is built in code: the parser's IdentitySpec
    # gets rogers_mod5_1_4's fields with that one edit
    spec = qrr.parser.IdentitySpec
    monkeypatch.setattr(qrr.parser, "IdentitySpec", lambda **fields: spec(**edit(fields)))
    bad = tmp_path / "bad.id"
    bad.write_text(Path(corpus_path("rogers_mod5_1_4")).read_text())
    code, text = run(["verify", str(bad), "--order", "6"])
    assert (code, text) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: %s: rogers-mod5-1-4: %s\n" % (bad, message)


def test_verify_directory_ordering(tmp_path):
    code, text = run(["verify", str(corpus.corpus_root()), "--order", "20"])
    assert code == EXIT_OK
    names = [line.split()[0] for line in text.strip().splitlines()]
    assert names == sorted(names)  # input order preserved despite threading


def test_table_text_shows_fractional_rows():
    code, text = run(["table", corpus_path("double_mod10_2_8"), "--order", "3"])
    assert code == EXIT_OK
    assert "3/4" in text and "5/4" in text


def test_table_csv_schema():
    code, text = run(
        [
            "table",
            corpus_path("rogers_mod5_1_4"),
            "--order",
            "6",
            "--format",
            "csv",
        ]
    )
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["exponent", "lhs_re", "lhs_im", "rhs_re", "rhs_im"]
    body = rows[1:]
    assert [r[1] for r in body] == ["1", "1", "1", "1", "2", "2", "3"]
    assert [r[1] for r in body] == [r[3] for r in body]
    assert all(r[2] == "0" and r[4] == "0" for r in body)


def test_table_json_round_trip():
    code, text = run(
        ["table", corpus_path("rogers_mod5_1_4"), "--order", "6", "--format", "json"]
    )
    assert code == EXIT_OK
    doc = json.loads(text)
    assert doc["identity"] == "rogers-mod5-1-4"
    assert [r[1] for r in doc["rows"]] == [1, 1, 1, 1, 2, 2, 3]


def test_table_puts_both_sides_on_the_finer_grid(tmp_path):
    # the sum side lives on den 1, the product side on den 2
    p = tmp_path / "half.id"
    p.write_text(
        'identity "half" {\n  den 1;\n  sum { indices n; exponent n^2; denoms (q; n); }\n'
        "  product { 1/poch(q^1/2, q) }\n}\n"
    )
    code, text = run(["table", str(p), "--order", "2", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [r[0] for r in rows] == ["0", "1/2", "1", "3/2", "2"]
    assert rows[1] == ["1/2", "0", "0", "1", "0"]


def test_table_keeps_the_declared_grid_of_an_empty_sum(tmp_path):
    # the sum is empty through the order, yet stays on its declared den 4;
    # the integer product side is lifted to it for the table
    p = tmp_path / "empty.id"
    p.write_text(
        'identity "empty" {\n  den 4;\n  sum { indices n; exponent 1/4*n^2 + 5; denoms (q; n); }\n'
        "  product { 1/poch(q, q) }\n}\n"
    )
    code, text = run(["table", str(p), "--order", "1", "--format", "csv"])
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(text)))[1:]
    assert [r[0] for r in rows] == ["0", "1/4", "1/2", "3/4", "1"]
    assert [r[1] for r in rows] == ["0"] * 5 and [r[3] for r in rows] == ["1", "0", "0", "0", "1"]


def test_replay_pass_and_step_schema():
    code, text = run(["replay", "1.5", "--order", "20", "--format", "json"])
    assert code == EXIT_OK
    docs = json.loads(text)
    assert len(docs) == 6
    for doc in docs:
        jsonschema.validate(doc, STEP_SCHEMA)
        assert doc["status"] == "pass"


def test_replay_unknown_theorem():
    code, _ = run(["replay", "9.9"])
    assert code == EXIT_BAD_INPUT


def test_nahm_matches_single_sum():
    code, text = run(["nahm", "--A", "2", "--order", "12"])
    assert code == EXIT_OK
    vals = [line.split()[1] for line in text.strip().splitlines()]
    assert vals[:7] == ["1", "1", "1", "1", "2", "2", "3"]


def test_nahm_takes_negative_vectors_in_equals_form():
    # "--B -1/4" would read -1/4 as an option; "--B=-1/4" does not
    code, text = run(["nahm", "--A", "1", "--B=-1/4", "--C=1/4", "--order", "5"])
    assert code == EXIT_OK
    assert text.split()[:2] == ["1/4", "1"]


def test_nahm_json_is_the_series_json():
    code, text = run(["nahm", "--A", "2,1;1,2", "--B", "0,1/2", "--order", "12", "--format", "json"])
    assert code == EXIT_OK
    data = NahmData(a=((F(2), F(1)), (F(1), F(2))), b=(F(0), F(1, 2)))
    assert json.loads(text) == json.loads(json.dumps(nahm_series(data, F(12)).to_json()))


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--order", "0"], "order must be positive, got 0"),
        (["nahm", "--A", "2", "--order", "-1"], "order must be positive, got -1"),
        (["verify", "--bounds", "x"], "bad bounds 'x'"),
        (["table", "--bounds", "-1"], "bounds must be nonnegative"),
    ],
)
def test_bad_orders_and_bounds_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as ex:
        run(argv)
    assert ex.value.code == EXIT_BAD_INPUT
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["verify", "table"])
def test_a_directory_with_no_identity_files_is_bad_input(command, tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no identities here")
    code, text = run([command, str(tmp_path)])
    assert (code, text) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: no .id files in directory %s\n" % tmp_path


def test_nahm_rejects_non_pd():
    code, _ = run(["nahm", "--A", "-1", "--order", "10"])
    assert code == EXIT_BAD_INPUT
    code, _ = run(["nahm", "--A", "1,1;1,1", "--order", "10"])
    assert code == EXIT_BAD_INPUT


def test_bounds_override():
    # an artificially small box must produce a mismatch
    code, _ = run(
        ["verify", corpus_path("rogers_mod5_1_4"), "--order", "30", "--bounds", "2"]
    )
    assert code == EXIT_MISMATCH


def test_format_never_affects_exit_code():
    args = ["verify", corpus_path("rogers_mod5_2_3"), "--order", "25"]
    codes = {run(args + ["--format", f])[0] for f in ("text", "json")}
    assert codes == {EXIT_OK}


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_engine_fault_exits_invariant(monkeypatch, capsys):
    monkeypatch.setattr(qrr.identity, "eval_product", _raise(TypeError("engine bug")))
    code, _ = run(["verify", corpus_path("rogers_mod5_1_4"), "--order", "10"])
    assert code == EXIT_INVARIANT
    assert "TypeError: engine bug" in capsys.readouterr().err


def test_rejected_input_is_error_status(monkeypatch):
    monkeypatch.setattr(qrr.identity, "eval_product", _raise(QrrError("bad")))
    code, text = run(["verify", corpus_path("rogers_mod5_1_4"), "--order", "10", "--format", "json"])
    assert code == EXIT_BAD_INPUT
    assert json.loads(text)[0]["status"] == "error"


def test_an_error_report_ends_its_text_line_with_kind_and_message(monkeypatch):
    monkeypatch.setattr(qrr.identity, "eval_product", _raise(QrrError("bad")))
    code, text = run(["verify", corpus_path("rogers_mod5_1_4"), "--order", "10"])
    assert code == EXIT_BAD_INPUT
    assert text.split()[:2] == ["rogers-mod5-1-4", "error"]
    assert text.endswith(" ms  (QrrError: bad)\n")


def test_replay_rejected_input_exits_bad_input(monkeypatch, capsys):
    monkeypatch.setitem(qrr.cli.REPLAYS, "1.5", _raise(QrrError("bad order")))
    code, _ = run(["replay", "1.5", "--order", "10"])
    assert code == EXIT_BAD_INPUT
    assert "bad order" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, argv, exc",
    [
        ("REPLAYS", ["replay", "1.5", "--order", "10"], TypeError),
        ("eval_product", ["table", corpus_path("rogers_mod5_1_4"), "--order", "6"], TypeError),
        ("nahm_series", ["nahm", "--A", "2", "--order", "10"], TypeError),
        # an engine ValueError is not a malformed --A/--B/--C
        ("nahm_series", ["nahm", "--A", "2", "--order", "10"], ValueError),
    ],
)
def test_engine_fault_exits_invariant_in_every_command(monkeypatch, capsys, target, argv, exc):
    fault = _raise(exc("engine bug"))
    if target == "REPLAYS":
        monkeypatch.setitem(qrr.cli.REPLAYS, "1.5", fault)
    else:
        monkeypatch.setattr(qrr.cli, target, fault)
    code, _ = run(argv)
    assert code == EXIT_INVARIANT
    assert "%s: engine bug" % exc.__name__ in capsys.readouterr().err


def test_nahm_malformed_matrix_is_bad_input():
    code, _ = run(["nahm", "--A", "1,x", "--order", "10"])
    assert code == EXIT_BAD_INPUT


def test_nahm_vector_of_the_wrong_length_is_one_error_line(capsys):
    code, out = run(["nahm", "--A", "2,1;1,2", "--B", "1"])
    assert (code, out) == (EXIT_BAD_INPUT, "")
    assert capsys.readouterr().err == "error: linear vector length must match the matrix rank\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["nahm", "--A", "2", "--C", "1/0"], "bad --C '1/0': zero denominator"),
        (["nahm", "--A", "1,1/0;1/0,1"], "bad --A entry '1/0': zero denominator"),
        (["nahm", "--A", "2", "--B", "1/0"], "bad --B entry '1/0': zero denominator"),
        (["verify", "--order", "1/0"], "bad order '1/0': zero denominator"),
    ],
)
def test_zero_denominator_names_the_option(argv, message, capsys):
    try:
        code, _ = run(argv)
    except SystemExit as ex:  # argparse rejects --order itself
        code = ex.code
    assert code == EXIT_BAD_INPUT
    assert message in capsys.readouterr().err


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away: the first write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", corpus_path("rogers_mod5_1_4"), "--order", "30"],
        ["verify", corpus_path("rogers_mod5_1_4"), "--order", "10"],
        ["nahm", "--A", "2", "--order", "10", "--format", "json"],
    ],
)
def test_closed_stdout_is_not_an_engine_fault(capsys, argv):
    assert EXIT_BROKEN_PIPE == 141
    assert main(argv, out=_ClosedPipe()) == EXIT_BROKEN_PIPE
    err = capsys.readouterr().err
    assert "Traceback" not in err and "internal error" not in err


@pytest.mark.parametrize(
    "factor, error",
    [
        ("1/poch(q^0,q,3)", "NonUnitConstantTerm: constant term 0 is not a unit of Z[i]"),
        ("1/poch(-q^0,q,3)", "NonUnitConstantTerm: constant term 2 is not a unit of Z[i]"),
        ("1/poch(i*q^0,q,3)", "NonUnitConstantTerm: constant term (1-1*i) is not a unit of Z[i]"),
        ("poch(q^-1,q,3)", "NegativeExponent: -1"),
        ("1/poch(q^-1,q,3)", "NegativeExponent: -1"),
    ],
)
def test_finite_factor_errors_keep_their_text(tmp_path, factor, error):
    text = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text()
    p = tmp_path / "finite.id"
    p.write_text(text.replace("1/poch(q, q^5) * 1/poch(q^4, q^5)", factor))
    code, out = run(["verify", str(p), "--format", "json"])
    assert code == EXIT_BAD_INPUT
    assert json.loads(out)[0]["error"] == error


# Two Euler identities whose sides carry fractional and imaginary exponents:
# sum q^(n/2)/(q;q)_n = 1/(q^(1/2);q)_inf and sum i^n q^n/(q;q)_n = 1/(iq;q)_inf
EULER_HALF = """
identity "euler-half" {
  den 2;
  sum {
    indices n;
    exponent 1/2*n;
    denoms (q; n);
  }
  product { 1/poch(q^1/2, q) }
}
"""
EULER_I = """
identity "euler-i" {
  den 1;
  sum {
    indices n;
    sign i^n;
    exponent n;
    denoms (q; n);
  }
  product { 1/poch(i*q, q) }
}
"""


@pytest.mark.parametrize(
    "text, product, wrong",
    [(EULER_HALF, "poch(q^1/2, q)", "poch(q^3/2, q)"), (EULER_I, "poch(i*q, q)", "poch(i*q^2, q)")],
    ids=["half", "i"],
)
def test_fractional_and_imaginary_identities_match(tmp_path, text, product, wrong):
    good, bad = tmp_path / "good.id", tmp_path / "bad.id"
    good.write_text(text)
    bad.write_text(text.replace(product, wrong))
    rep = verify(parse(text), 40)
    assert rep.status == "match" and rep.fractional_residue == [] and rep.imaginary_residue == []
    assert run(["verify", str(good), "--order", "40"])[0] == EXIT_OK
    code, out = run(["verify", str(bad), "--order", "40", "--format", "json"])
    assert code == EXIT_MISMATCH
    (doc,) = json.loads(out)
    assert doc["status"] == "mismatch" and doc["first_mismatch"] is not None
    # the residues are the exponents where the two sides differ
    spec = parse(bad.read_text())
    lhs, rhs = eval_sum(spec, 40), eval_product(spec, 40)
    grid = [F(k, 2) for k in range(81)]
    diff = {e: lhs.coeff(e) - rhs.coeff(e) for e in grid}
    rep = verify(spec, 40)
    assert rep.fractional_residue == [e for e in grid if diff[e] != ZERO and e.denominator > 1]
    assert rep.imaginary_residue == [e for e in grid if diff[e].im]


def test_verify_json_lists_the_imaginary_residue(tmp_path):
    # sum i^n q^n/(q;q)_n against 1/(i*q^2; q)_inf: the sides differ at
    # exponents with imaginary parts, which the report lists right after
    # the fractional ones
    p = tmp_path / "bad.id"
    p.write_text(EULER_I.replace("poch(i*q, q)", "poch(i*q^2, q)"))
    code, out = run(["verify", str(p), "--order", "20", "--format", "json"])
    assert code == EXIT_MISMATCH
    (doc,) = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    spec = parse(p.read_text())
    want = (eval_sum(spec, 20) - eval_product(spec, 20)).imaginary_support()
    assert want and doc["imaginary_residue"] == [int(e) for e in want]
    keys = list(doc)
    assert keys[keys.index("fractional_residue") + 1] == "imaginary_residue"


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_blocks():
    """(language, text) of each fenced block of README.md."""
    blocks, lang, body = [], None, []
    for line in README.read_text().splitlines():
        if not line.startswith("```"):
            body.append(line)
        elif lang is None:
            lang, body = line[3:], []
        else:
            blocks.append((lang, "\n".join(body)))
            lang = None
    return blocks


def test_readme_commands_run(monkeypatch):
    monkeypatch.chdir(README.parent)
    lines = [x for lang, text in _readme_blocks() if lang == "sh" for x in text.splitlines() if x.startswith("qrr ")]
    assert len(lines) >= 5
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        if "path/to/file.id" not in argv:
            assert run(argv)[0] == EXIT_OK, line


def test_readme_identity_example_matches():
    (text,) = [text for lang, text in _readme_blocks() if text.startswith("identity ")]
    assert verify(parse(text), 30).status == "match"
