import json
from dataclasses import replace
from fractions import Fraction

import pytest
from qrr import _kernel_py, bench

# bench.DIGESTS at the small sizes below, recorded with the rows of the
# default sizes
SMALL_DIGESTS = {
    "conv_real 3": "3fae78711f591529",
    "conv_complex 3": "bb116413ed7583dd",
    "conv_real 8": "d504087795c048ab",
    "conv_complex 8": "77d217321cd2b483",
    "conv_real 8 wide": "aa13a38a954d4947",
    "conv_complex 8 generic": "1ea34861bef4385b",
    "cao-wang-1-2-3 @5": "e1f90d0c360acb3c",
    "cao-wang-1-2-3 @7": "9e3c7e24a6efb283",
    "double-mod10-2-8 @6": "7eedc29b433c0ef0",
    "double-mod5-1-4 @8": "9d66ebf0ee44918b",
    "box corpus @8": "258ba82ec366818c",
    "rogers_szego_bw 3 @7": "b2a323c3fcdae6b6",
    "rogers_szego_bw 4 @7": "4d94964e90f75426",
    "rogers_szego_bw 5 @7": "35d9431b9f2a4542",
    "rs_at 5 t=-1 @7": "effcf0efbb90cbb8",
    "rs_at 5 t=i*q^(1/2) @7": "68e1b5434a91bf77",
    "rogers_szego_def 5 @7": "35d9431b9f2a4542",
    "poch_infinite (q;q) @9": "f218f062b4260f65",
    "poch_finite (q;q)_4 @9": "182b1c8c44d62ba5",
    "eval_product cao-wang-1-2-3 @11": "dd441af779d1f2ea",
    "z builders @6": "633d94a4a86a258a",
    "z product 1.8 @6": "1100a75fb40d59d5",
    "z product 1.8 @10": "e523ff0892d0f6a6",
    "z product jtp @8": "74a69d324d37df98",
    "z pair jtp @8": "5e14d5529cbf6f98",
    "corpus.load_all": "b02a91116d3cb8cc",
}

KERNEL_ROWS = [
    "conv_real 3",
    "conv_complex 3",
    "conv_real 8",
    "conv_complex 8",
    "conv_real 8 wide",
    "conv_complex 8 generic",
]


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(bench, "DIGESTS", SMALL_DIGESTS)
    monkeypatch.setattr(bench, "SIZES", (3, 8))
    monkeypatch.setattr(bench, "WIDE_SIZE", 8)
    monkeypatch.setattr(bench, "REPEATS", 1)
    monkeypatch.setattr(bench, "VERIFY_ORDER", Fraction(6))
    monkeypatch.setattr(bench, "SUM_ORDER", Fraction(5))
    monkeypatch.setattr(bench, "CAO_WANG_ORDER", Fraction(7))
    monkeypatch.setattr(bench, "CORPUS_ORDER", Fraction(8))
    monkeypatch.setattr(bench, "RS_N", 5)
    monkeypatch.setattr(bench, "RS_SMALL_NS", (3, 4))
    monkeypatch.setattr(bench, "RS_ORDER", Fraction(7))
    monkeypatch.setattr(bench, "PRODUCT_ORDER", Fraction(9))
    monkeypatch.setattr(bench, "CAO_WANG_PRODUCT_ORDER", Fraction(11))
    monkeypatch.setattr(bench, "REPLAY_ORDER", Fraction(6))
    monkeypatch.setattr(bench, "PAIR_ORDER", Fraction(10))
    monkeypatch.setattr(bench, "JTP_ORDER", Fraction(8))
    monkeypatch.setattr(bench, "LARGE_REPLAY_ORDER", Fraction(10))
    monkeypatch.setattr(bench, "LARGE_JTP_ORDER", Fraction(12))
    monkeypatch.setattr(bench, "LARGE_VERIFY_ORDER", Fraction(11))


def test_bench_runs_at_small_sizes(small):
    lines = []
    assert bench.main(out=lines.append) == 0
    # one header per section, each after a blank line but the first
    sections = ["kernel", "sum", "verify", "updates", "zseries", "setup", "large"]
    headers = [lines[0]] + [lines[i + 1] for i, line in enumerate(lines) if not line]
    assert headers == ["%s (best of %d, seconds)" % (s, r) for s, r in zip(sections, (1, 3, 3, 3, 3, 1, 1))]


def _assert_every_row(rows):
    assert list(rows) == ["kernel", "sum", "verify", "updates", "zseries", "setup", "large"]
    assert list(rows["kernel"]) == KERNEL_ROWS
    assert list(rows["sum"]) == [
        "cao-wang-1-2-3 @5",
        "cao-wang-1-2-3 @7",
        "double-mod10-2-8 @6",
        "double-mod5-1-4 @8",
        "box corpus @8",
    ]
    assert list(rows["verify"]) == ["double-mod10-2-8 @6"]
    assert list(rows["updates"]) == [
        "rogers_szego_bw 3 @7",
        "rogers_szego_bw 4 @7",
        "rogers_szego_bw 5 @7",
        "rs_at 5 t=-1 @7",
        "rs_at 5 t=i*q^(1/2) @7",
        "eval_product rogers-mod5-1-4 @9",
        "eval_product double-mod5-1-4 @9",
        "poch_infinite (q;q) @9",
        "poch_finite (q;q)_4 @9",
        "eval_product cao-wang-1-2-3 @11",
        "rogers_szego_def 5 @7",
    ]
    assert list(rows["zseries"]) == (
        ["z builders @6", "z product 1.8 @6", "z product 1.8 @10", "z product jtp @8", "z pair jtp @8"]
        + ["replay %s @6" % t for t in ("1.5", "1.6", "1.7", "1.8")]
        + ["jtp_check @8"]
    )
    assert list(rows["setup"]) == ["corpus.load_all", "fresh verify rogers-mod5-1-4 @20"]
    assert list(rows["large"]) == [
        "replay 1.5 @10",
        "replay 1.7 @10",
        "replay 1.8 @10",
        "jtp_check @12",
        "verify cao-wang-1-2-3 @11",
    ]
    assert all(t >= 0 for section in rows.values() for t in section.values())


def _assert_printed(rows, lines):
    """Every row's label and its printed time stand together on one line."""
    printed = [line.rsplit(None, 1) for line in lines]
    for section in rows.values():
        for label, t in section.items():
            assert [label, "%.6f" % t] in printed, label


def test_bench_json_holds_the_printed_rows(small, tmp_path, capsys):
    path = tmp_path / "bench.json"
    lines = []
    assert bench.main(["--json", str(path)], out=lines.append) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads(path.read_text())
    _assert_every_row(rows)
    _assert_printed(rows, lines)


def test_bench_names_failing_z_product_rows_and_exits_1(small, tmp_path, monkeypatch, capsys):
    # a wrong status or digest is found outside the timed calls: every row
    # is still timed and written, and the failing ones are named on stderr
    jtp = bench.jtp_check
    pair = bench._triple_product
    chain = bench.REPLAYS["1.7"]
    monkeypatch.setattr(bench, "jtp_check", lambda order: jtp(order)._replace(ok=False))
    monkeypatch.setattr(bench, "_triple_product", lambda c, b, order: -pair(c, b, order))
    monkeypatch.setitem(bench.REPLAYS, "1.7", lambda order: [replace(s, status="fail") for s in chain(order)])
    path = tmp_path / "bench.json"
    lines = []
    assert bench.main(["--json", str(path)], out=lines.append) == 1
    rows = json.loads(path.read_text())
    _assert_every_row(rows)
    _assert_printed(rows, lines)
    assert capsys.readouterr().err.splitlines() == [
        "python -m qrr.bench: wrong result in row %r" % label
        for label in (
            "zseries: z pair jtp @8",
            "zseries: replay 1.7 @6",
            "zseries: jtp_check @8",
            "large: replay 1.7 @10",
            "large: jtp_check @12",
        )
    ]


def test_bench_names_failing_product_and_verify_rows_and_exits_1(small, tmp_path, monkeypatch, capsys):
    # each eval_product row is checked against eval_sum, and each verify row
    # for a match, outside the timed calls
    product = bench.eval_product
    check = bench.verify
    monkeypatch.setattr(bench, "eval_product", lambda spec, order: -product(spec, order))
    monkeypatch.setattr(bench, "verify", lambda spec, order: replace(check(spec, order), status="mismatch"))
    path = tmp_path / "bench.json"
    lines = []
    assert bench.main(["--json", str(path)], out=lines.append) == 1
    rows = json.loads(path.read_text())
    _assert_every_row(rows)
    _assert_printed(rows, lines)
    assert capsys.readouterr().err.splitlines() == [
        "python -m qrr.bench: wrong result in row %r" % label
        for label in (
            "verify: double-mod10-2-8 @6",
            "updates: eval_product rogers-mod5-1-4 @9",
            "updates: eval_product double-mod5-1-4 @9",
            "updates: eval_product cao-wang-1-2-3 @11",
            "large: verify cao-wang-1-2-3 @11",
        )
    ]


def _load_first(module):
    """FRESH_VERIFY with `module` imported right after qrr."""
    return bench.FRESH_VERIFY.replace("import qrr\n", "import qrr\nimport %s\n" % module)


@pytest.mark.parametrize("module", ["qrr.special", "qrr.zseries", "qrr.replay"])
def test_the_fresh_verify_row_fails_if_its_child_loads_the_z_layer(small, monkeypatch, module):
    (call, check), = [(call, check) for _, label, call, _, check in bench._rows() if label.startswith("fresh verify")]
    assert check(call())
    monkeypatch.setattr(bench, "FRESH_VERIFY", _load_first(module))
    assert not check(call())


def test_bench_names_the_fresh_verify_row_and_exits_1(small, monkeypatch, capsys):
    monkeypatch.setattr(bench, "FRESH_VERIFY", _load_first("qrr.zseries"))
    assert bench.main(out=[].append) == 1
    assert capsys.readouterr().err.splitlines() == [
        "python -m qrr.bench: wrong result in row 'setup: fresh verify rogers-mod5-1-4 @20'"
    ]


def _digested():
    """The labels of the rows with no status check, without calling a row."""
    return sorted(label for _, label, _, _, check in bench._rows() if check is None)


def test_every_row_has_a_digest_or_a_status_check(small, monkeypatch):
    # the rows without a status to check are exactly the rows with a
    # recorded digest, at the small sizes and at the default ones
    assert _digested() == sorted(SMALL_DIGESTS)
    monkeypatch.undo()
    assert _digested() == sorted(bench.DIGESTS)


def test_bench_names_a_perturbed_kernel_result_and_exits_1(small, tmp_path, monkeypatch, capsys):
    # one more in the lowest digit of the row of every one-row kernel call:
    # each kernel row's digest fails, outside the timed calls, and the bench
    # names it and exits 1
    conv_terms = _kernel_py.conv_terms

    def perturbed(lists, rows, top, g):
        out = conv_terms(lists, rows, top, g)
        if len(rows) == 1:
            out = {k: (v, [re[0] + 1, *re[1:]], im) for k, (v, re, im) in out.items()}
        return out

    monkeypatch.setattr(_kernel_py, "conv_terms", perturbed)
    path = tmp_path / "bench.json"
    assert bench.main(["--json", str(path)], out=lambda line: None) == 1
    _assert_every_row(json.loads(path.read_text()))
    named = capsys.readouterr().err.splitlines()
    for label in KERNEL_ROWS:
        assert "python -m qrr.bench: wrong result in row %r" % ("kernel: " + label) in named
