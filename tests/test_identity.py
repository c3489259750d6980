import json
from fractions import Fraction as F
from itertools import product as iproduct

import pytest
import qrr.identity
from qrr import corpus
from qrr.errors import SemanticError, UnboundedEnumeration
from qrr.gaussian import GaussianInt, MINUS_ONE, ONE
from qrr.identity import (
    LinForm,
    SignAtom,
    auto_bounds,
    eval_product,
    eval_sum,
    verify,
)
from qrr.parser import parse
from qrr.series import QSeries


def test_corpus_loads_completely():
    names = corpus.corpus_names()
    assert len(names) == 10
    specs = corpus.load_all()
    assert {s.name for s in specs} == {
        "rogers-mod5-1-4",
        "rogers-mod5-2-3",
        "rogers-mod4-1-4",
        "rogers-mod4-2-3",
        "double-mod10-2-8",
        "double-mod10-4-6",
        "double-mod5-1-4",
        "double-mod5-2-3",
        "andrews-uncu-mod6",
        "cao-wang-1-2-3",
    }


def test_single_sum_frozen_coefficients():
    spec = corpus.load("rogers_mod5_1_4")
    s = eval_sum(spec, 6)
    assert [s.coeff(n).re for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]
    p = eval_product(spec, 6)
    assert [p.coeff(n).re for n in range(7)] == [1, 1, 1, 1, 2, 2, 3]


def test_auto_bounds_covers_all_contributing_points():
    spec = corpus.load("rogers_mod5_1_4")
    (radius,) = auto_bounds(spec, 50)
    # the largest n with n^2 <= 50 is 7
    assert radius >= 7
    spec2 = corpus.load("double_mod10_2_8")
    b = auto_bounds(spec2, 30)
    assert len(b) == 2
    # every point of a wider box with exponent <= 30 lies inside the bounds
    for m, n in iproduct(range(20), repeat=2):
        if spec2.exponent.eval({"m": m, "n": n}) <= 30:
            assert m <= b[0] and n <= b[1], (m, n, b)


def test_orthant_route_handles_singular_forms():
    # (m+n)^2/4 is positive semidefinite but not definite
    spec = corpus.load("double_mod5_1_4")
    bounds = auto_bounds(spec, 40)
    assert all(F(1, 4) * (r + 1) ** 2 > 40 for r in bounds)
    assert verify(spec, 40).status == "match"


def test_all_corpus_identities_match_at_modest_order():
    for spec in corpus.load_all():
        rep = verify(spec, 25)
        assert rep.status == "match", (spec.name, rep.first_mismatch, rep.error)
        assert rep.fractional_residue == [] and rep.imaginary_residue == []


def test_fractional_exponents_cancel_in_double_sums():
    spec = corpus.load("double_mod10_2_8")
    s = eval_sum(spec, 12)
    assert s.den == 4
    assert s.fractional_support() == []
    assert s.imaginary_support() == []


def test_sign_rewrite_equivalence_at_sum_level():
    spec = corpus.load("double_mod10_2_8")
    alt = spec.with_sign((SignAtom("i", LinForm.make({"n": 1, "m": -1})),))
    assert eval_sum(spec, 20).same_through(eval_sum(alt, 20))


def test_mutated_exponent_mismatch():
    spec = corpus.load("rogers_mod5_1_4")
    text = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text()
    bad = parse(text.replace("exponent n^2;", "exponent n^2 + n;"))
    rep = verify(bad, 30)
    assert rep.status == "mismatch"
    assert rep.first_mismatch[0] == 1  # q^1: sum starts 1 + q^2, product 1 + q


def test_mutated_sign_mismatch():
    spec = corpus.load("rogers_mod5_1_4")
    bad = spec.with_sign((SignAtom("neg1", LinForm.make({"n": 1})),))
    rep = verify(bad, 30)
    assert rep.status == "mismatch" and rep.first_mismatch[0] == 1


def test_mutated_product_mismatch():
    text = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text()
    bad = parse(text.replace("poch(q^4, q^5)", "poch(q^3, q^5)"))
    rep = verify(bad, 30)
    assert rep.status == "mismatch"
    assert rep.first_mismatch[0] == 3


def test_unbounded_enumeration_reported():
    text = """
    identity "hyperbolic" {
      den 1;
      sum {
        indices m, n;
        exponent m^2 - n^2 + 20*n;
        denoms (q; m), (q; n);
      }
      product { 1/poch(q, q^2) }
    }
    """
    with pytest.raises((SemanticError, UnboundedEnumeration)):
        spec = parse(text)
        eval_sum(spec, 10)


def test_explicit_bounds_respected():
    spec = corpus.load("cao_wang_1_2_3")
    assert spec.bounds is not None
    rep = verify(spec, 20)
    assert rep.status == "match"


def test_report_json_schema_fields():
    rep = verify(corpus.load("rogers_mod5_2_3"), 15)
    doc = rep.to_json()
    assert set(doc) >= {
        "identity",
        "status",
        "order",
        "first_mismatch",
        "fractional_residue",
        "elapsed_ms",
    }
    assert doc["status"] == "match" and doc["first_mismatch"] is None
    json.dumps(doc)  # serializable


def test_error_status_on_engine_failure():
    text = """
    identity "neg" {
      den 1;
      sum {
        indices n;
        exponent n^2 - 5*n;
        denoms (q; n);
      }
      product { 1/poch(q, q^2) }
    }
    """
    rep = verify(parse(text), 20)
    assert rep.status == "error"
    assert "NegativeExponent" in rep.error


def test_engine_fault_propagates(monkeypatch):
    def boom(spec, order):
        raise TypeError("engine bug")

    monkeypatch.setattr(qrr.identity, "eval_product", boom)
    with pytest.raises(TypeError):
        verify(corpus.load("rogers_mod5_1_4"), 10)


def test_off_grid_exponent_is_semantic_error():
    text = """
    identity "grid" {
      den 2;
      sum {
        indices n;
        exponent 1/4*n^2;
        denoms (q; n);
      }
      product { 1/poch(q, q^2) }
    }
    """
    rep = verify(parse(text), 10)
    assert rep.status == "error" and "SemanticError" in rep.error
