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
    "z builders @6": "633d94a4a86a258a",
    "z product 1.8 @6": "1100a75fb40d59d5",
    "z product jtp @8": "74a69d324d37df98",
    "corpus.load_all": "b02a91116d3cb8cc",
}


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
    monkeypatch.setattr(bench, "REPLAY_ORDER", Fraction(6))
    monkeypatch.setattr(bench, "JTP_ORDER", Fraction(8))
    monkeypatch.setattr(bench, "LARGE_REPLAY_ORDER", Fraction(10))
    monkeypatch.setattr(bench, "LARGE_JTP_ORDER", Fraction(12))
    monkeypatch.setattr(bench, "LARGE_VERIFY_ORDER", Fraction(11))


def test_bench_runs_at_small_sizes(small):
    lines = []
    bench.main(out=lines.append)
    text = "\n".join(lines)
    assert "convolution kernel" in text
    assert "double-mod10-2-8 at order 6" in text
    assert "cao-wang-1-2-3" in text and "sum side" in text
    assert "double-mod5-1-4" in text and "box corpus" in text
    assert "z-layer: builders and replay chains at order 6, jtp_check at order 8" in text
    assert "z builders       6" in text and "z product 1.8    6" in text
    assert "z product jtp    8" in text
    assert "single-factor updates" in text
    assert "rogers_szego_bw 3" in text and "rogers_szego_bw 4" in text
    assert "rogers_szego_bw 5" in text and "eval_product rogers-mod5-1-4" in text
    assert "rs_at 5 t=-1" in text and "rs_at 5 t=i*q^(1/2)" in text and "rogers_szego_def 5" in text
    assert "replay 1.8" in text and "jtp_check" in text
    assert "corpus.load_all: parse and validate" in text
    assert "eval_product double-mod5-1-4" in text
    assert "the sizes that cost" in text
    assert "replay 1.8 @10" in text and "jtp_check @12" in text and "verify cao-wang-1-2-3 @11" in text
    assert len(lines) == 44


def _assert_every_row(rows):
    assert list(rows) == ["kernel", "sum", "verify", "updates", "zseries", "setup", "large"]
    kernel = ["conv_real 3", "conv_complex 3", "conv_real 8", "conv_complex 8", "conv_real 8 wide"]
    assert list(rows["kernel"]) == kernel
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
        "rogers_szego_def 5 @7",
    ]
    assert list(rows["zseries"]) == (
        ["z builders @6", "z product 1.8 @6", "z product jtp @8"]
        + ["replay %s @6" % t for t in ("1.5", "1.6", "1.7", "1.8")]
        + ["jtp_check @8"]
    )
    assert list(rows["setup"]) == ["corpus.load_all"]
    assert list(rows["large"]) == ["replay 1.5 @10", "replay 1.8 @10", "jtp_check @12", "verify cao-wang-1-2-3 @11"]
    assert all(t >= 0 for section in rows.values() for t in section.values())


def test_bench_json_holds_the_printed_rows(small, tmp_path, capsys):
    path = tmp_path / "bench.json"
    lines = []
    assert bench.main(["--json", str(path)], out=lines.append) == 0
    assert capsys.readouterr().err == ""
    rows = json.loads(path.read_text())
    _assert_every_row(rows)
    # every row is one printed figure, at the printed precision
    assert "%10.3f" % rows["setup"]["corpus.load_all"] in lines[-7]
    assert "%10.3f" % rows["zseries"]["jtp_check @8"] in lines[-10]
    assert "%12.6f" % rows["kernel"]["conv_complex 8"] in lines[3]
    assert "%12.6f" % rows["kernel"]["conv_real 8 wide"] in lines[4] and "wide digits" in lines[4]
    assert "%10.3f" % rows["zseries"]["z builders @6"] in lines[-17] and "z builders" in lines[-17]
    assert "%10.3f" % rows["zseries"]["z product 1.8 @6"] in lines[-16] and "z product 1.8" in lines[-16]
    assert "%10.3f" % rows["zseries"]["z product jtp @8"] in lines[-15] and "z product jtp" in lines[-15]
    assert "%10.3f" % rows["updates"]["rogers_szego_bw 3 @7"] in lines[-27]
    assert "%10.3f" % rows["updates"]["rogers_szego_bw 4 @7"] in lines[-26]
    assert "%10.3f" % rows["updates"]["rs_at 5 t=-1 @7"] in lines[-24]
    assert "%10.3f" % rows["updates"]["rs_at 5 t=i*q^(1/2) @7"] in lines[-23] and "t=i*q^(1/2)" in lines[-23]
    assert "%10.3f" % rows["updates"]["eval_product rogers-mod5-1-4 @9"] in lines[-22]
    assert "%10.3f" % rows["updates"]["eval_product double-mod5-1-4 @9"] in lines[-21]
    assert "%10.3f" % rows["updates"]["rogers_szego_def 5 @7"] in lines[-20]
    assert "%10.3f" % rows["large"]["verify cao-wang-1-2-3 @11"] in lines[-1]


def test_bench_names_failing_z_product_rows_and_exits_1(small, tmp_path, monkeypatch, capsys):
    # a wrong status is found outside the timed calls: every row is still
    # timed and written, and the failing ones are named on stderr
    jtp = bench.jtp_check
    chain = bench.REPLAYS["1.7"]
    monkeypatch.setattr(bench, "jtp_check", lambda order: jtp(order)._replace(ok=False))
    monkeypatch.setitem(bench.REPLAYS, "1.7", lambda order: [replace(s, status="fail") for s in chain(order)])
    path = tmp_path / "bench.json"
    lines = []
    assert bench.main(["--json", str(path)], out=lines.append) == 1
    _assert_every_row(json.loads(path.read_text()))
    assert len(lines) == 44
    assert capsys.readouterr().err.splitlines() == [
        "python -m qrr.bench: wrong result in row %r" % label
        for label in ("replay 1.7 @6", "jtp_check @8", "jtp_check @12")
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
    _assert_every_row(json.loads(path.read_text()))
    assert len(lines) == 44
    assert capsys.readouterr().err.splitlines() == [
        "python -m qrr.bench: wrong result in row %r" % label
        for label in (
            "double-mod10-2-8 @6",
            "eval_product rogers-mod5-1-4 @9",
            "eval_product double-mod5-1-4 @9",
            "verify cao-wang-1-2-3 @11",
        )
    ]


def test_every_row_has_a_digest_or_a_status_check(small, tmp_path, monkeypatch):
    # every row goes through _checked; the rows without a status to check
    # are exactly the rows with a recorded digest, at the default sizes too
    checked = bench._checked
    digested, statused = [], []

    def spy(section, label, fn, repeats, passes, failed):
        (statused if passes else digested).append(label)
        return checked(section, label, fn, repeats, passes, failed)

    monkeypatch.setattr(bench, "_checked", spy)
    path = tmp_path / "bench.json"
    assert bench.main(["--json", str(path)], out=lambda line: None) == 0
    rows = json.loads(path.read_text())
    assert sorted(digested + statused) == sorted(label for section in rows.values() for label in section)
    assert sorted(digested) == sorted(SMALL_DIGESTS)
    monkeypatch.undo()
    default = ["conv_%s %d" % (kind, n) for n in bench.SIZES for kind in ("real", "complex")]
    default += ["conv_real %d wide" % bench.WIDE_SIZE]
    default += ["cao-wang-1-2-3 @60", "cao-wang-1-2-3 @480", "double-mod10-2-8 @120", "corpus.load_all"]
    default += ["double-mod5-1-4 @240", "box corpus @240"]
    default += ["rogers_szego_bw %d @420" % n for n in (24, 32)]
    default += ["rogers_szego_bw 40 @420", "rs_at 40 t=-1 @420", "rs_at 40 t=i*q^(1/2) @420"]
    default += ["rogers_szego_def 40 @420"]
    default += ["z builders @80", "z product 1.8 @80", "z product jtp @300"]
    assert sorted(bench.DIGESTS) == sorted(default)


def test_bench_names_a_perturbed_kernel_result_and_exits_1(small, tmp_path, monkeypatch, capsys):
    # one more in the lowest digit of every row a one-pair kernel call makes:
    # each kernel row's digest fails, outside the timed calls, and the bench
    # names it and exits 1
    conv_rows = _kernel_py.conv_rows

    def perturbed(a, b, rows, top, g):
        out = conv_rows(a, b, rows, top, g)
        if len(a) == len(b) == 1:
            out = {k: (v, [re[0] + 1, *re[1:]], im) for k, (v, re, im) in out.items()}
        return out

    monkeypatch.setattr(_kernel_py, "conv_rows", perturbed)
    path = tmp_path / "bench.json"
    assert bench.main(["--json", str(path)], out=lambda line: None) == 1
    _assert_every_row(json.loads(path.read_text()))
    named = capsys.readouterr().err.splitlines()
    for label in ("conv_real 3", "conv_complex 3", "conv_real 8", "conv_complex 8", "conv_real 8 wide"):
        assert "python -m qrr.bench: wrong result in row %r" % label in named
