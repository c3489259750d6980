import dataclasses
import hashlib
import json
import math
from fractions import Fraction as F
from itertools import permutations
from itertools import product as iproduct

import pytest
import qrr._kernel_py
import qrr.identity
from hypothesis import given, settings
from hypothesis import strategies as st
from qrr import corpus
from qrr.errors import NegativeExponent, QrrError, SemanticError
from qrr.gaussian import I, MINUS_I, MINUS_ONE, ONE, UNITS
from qrr.identity import (
    ExponentPoly,
    IdentitySpec,
    NahmData,
    ProductFactor,
    SignAtom,
    auto_bounds,
    eval_product,
    eval_sign,
    eval_sum,
    nahm_series,
    sign_poly,
    verify,
)
from qrr.oracle import unpruned_sum
from qrr.parser import parse
from qrr.quadform import is_positive_definite
from qrr.series import Monomial, QSeries, poch_finite, poch_infinite, qmono


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


def test_a_corpus_file_holds_one_identity(tmp_path, monkeypatch):
    text = (corpus.corpus_root() / "rogers_mod5_1_4.id").read_text()
    (tmp_path / "twice.id").write_text(text + text.replace("rogers-mod5-1-4", "again"))
    monkeypatch.setattr(corpus, "corpus_root", lambda: tmp_path)
    with pytest.raises(ValueError, match="^corpus file twice holds 2 identities$"):
        corpus.load("twice")


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


def test_no_corpus_file_sets_bounds():
    assert all(spec.bounds is None for spec in corpus.load_all())


def test_auto_boxes_of_the_singular_corpus_forms():
    # Cao-Wang through the lift Q + 2bb^T/t; its points with exponent <= 480
    # reach (30, 240, 160)
    cao = corpus.load("cao_wang_1_2_3")
    assert auto_bounds(cao, 60) == (10, 31, 20)
    assert auto_bounds(cao, 480) == (30, 241, 160)
    # t = max(target, 1): at order 0 the box is the origin, below it empty
    assert auto_bounds(cao, 0) == (0, 0, 0)
    assert eval_sum(cao, 0).coeff(0) == ONE
    raised = dataclasses.replace(cao, exponent=dataclasses.replace(cao.exponent, const=F(2)))
    assert auto_bounds(raised, 1) == (-1, -1, -1)
    # the orthant forms keep their per-coordinate boxes
    assert auto_bounds(corpus.load("double_mod5_1_4"), 240) == (30, 30)
    assert auto_bounds(corpus.load("double_mod5_2_3"), 240) == (29, 29)


@pytest.mark.parametrize(
    "exponent",
    [
        "m^2 - n^2 + 2*n",  # indefinite, though Q + 2bb^T is positive definite
        "(m - n)^2",  # semidefinite and constant along (1, 1)
        "(m - n)^2 + m - n",  # zero all along (1, 1) as well
        "(m - n)^2 + 2*m - n",  # coercive on the orthant, but b has a negative entry
    ],
)
def test_forms_without_a_minorant_need_explicit_bounds(exponent):
    text = """
    identity "no-minorant" {
      den 1;
      sum {
        indices m, n;
        exponent %s;
        denoms (q; m), (q; n);
      }
      product { 1/poch(q, q) }
    }
    """
    with pytest.raises(SemanticError, match="explicit bounds are required"):
        parse(text % exponent)
    # explicit bounds are still accepted
    assert parse(text.replace("(q; n);", "(q; n); bounds 3, 3;") % exponent).bounds == (3, 3)


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
    alt = dataclasses.replace(spec, sign=(SignAtom("i", ExponentPoly.make({}, {"n": 1, "m": -1})),))
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
    bad = dataclasses.replace(spec, sign=(SignAtom("neg1", ExponentPoly.make({}, {"n": 1})),))
    rep = verify(bad, 30)
    assert rep.status == "mismatch" and rep.first_mismatch[0] == 1


@pytest.mark.parametrize(
    "form",
    [ExponentPoly.make({}, {"n": F(1, 2)}), ExponentPoly.make({}, {}, F(1, 2)), ExponentPoly.make({("n", "n"): 1}, {})],
)
def test_sign_atom_form_must_be_integer_linear(form):
    # the parser rejects these forms at their position; a spec built in code
    # meets the same rule in validate
    spec = corpus.load("rogers_mod5_1_4")
    with pytest.raises(SemanticError, match="integer linear form"):
        dataclasses.replace(spec, sign=(SignAtom("i", form),))


@pytest.mark.parametrize("kind", ["neg2", "I", ""])
def test_sign_atom_kind_must_be_known(kind):
    # the grammar writes only neg1, neg1_binom and i; a spec built in code
    # with any other kind is refused by validate, where verify would have
    # raised a KeyError from sign_poly
    spec = corpus.load("rogers_mod5_1_4")
    with pytest.raises(SemanticError, match="^rogers-mod5-1-4: unknown sign atom kind %r$" % kind):
        dataclasses.replace(spec, sign=(SignAtom(kind, ExponentPoly.make({}, {"n": 1})),))


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
    with pytest.raises(SemanticError):
        spec = parse(text)
        eval_sum(spec, 10)


def test_explicit_bounds_respected():
    spec = dataclasses.replace(corpus.load("cao_wang_1_2_3"), bounds=(15, 60, 25))
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
        "imaginary_residue",
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


def _one_index(exponent, den=1, bounds=""):
    return parse(
        'identity "t" { den %d; sum { indices n; exponent %s; denoms (q; n); %s }'
        " product { 1/poch(q, q) } }" % (den, exponent, bounds)
    )


def test_negative_exponent_names_the_point():
    with pytest.raises(NegativeExponent, match=r"t: exponent -2 at \{'n': 1\}$"):
        eval_sum(_one_index("n^2 - 3*n"), 5)
    spec = parse(
        'identity "t" { den 1; sum { indices m, n; exponent m^2 + n^2 - 3*n;'
        " denoms (q; m), (q; n); } product { 1/poch(q, q) } }"
    )
    with pytest.raises(NegativeExponent, match=r"exponent -2 at \{'m': 0, 'n': 1\}$"):
        eval_sum(spec, 5)


def test_first_bad_point_is_named_across_outer_values():
    # m = 0 keeps every point; m = 1 and m = 2 each have two bad points
    spec = parse(
        'identity "t" { den 1; sum { indices m, n; exponent m^2 - 3*m + n^2 - 3*n + 3;'
        " denoms (q; m), (q; n); } product { 1/poch(q, q) } }"
    )
    with pytest.raises(NegativeExponent, match=r"exponent -1 at \{'m': 1, 'n': 1\}$"):
        eval_sum(spec, 5)
    # m*n/2 is off the den-1 grid exactly when m and n are both odd
    spec = parse(
        'identity "t" { den 1; sum { indices m, n; exponent m^2 + 1/2*m*n + n^2;'
        " denoms (q; m), (q; n); } product { 1/poch(q, q) } }"
    )
    with pytest.raises(SemanticError, match=r"exponent 5/2 at \{'m': 1, 'n': 1\} not representable"):
        eval_sum(spec, 12)


@pytest.mark.parametrize(
    "exponent, error, message",
    [
        # at i = 0, m = 1 and m = 2 each hold points with exponent -1
        ("2*i^2 + m^2 - 3*m + n^2 - 3*n + 3", NegativeExponent, r"exponent -1 at \{'i': 0, 'm': 1, 'n': 1\}$"),
        # at i = 0, (1, 1) is off the den-1 grid and (2, 0) is at -1
        (
            "2*i^2 + 5/2*m^2 - 21/2*m + 10 + 1/2*m*n + n^2",
            SemanticError,
            r"exponent 7/2 at \{'i': 0, 'm': 1, 'n': 1\} not representable",
        ),
    ],
)
def test_first_bad_point_is_named_within_one_fused_prefix(exponent, error, message):
    # the next-to-last index scans every value before it folds any, so the
    # lexicographically first bad point is named, not the first one folded
    spec = parse(
        'identity "t" { den 1; sum { indices i, m, n; exponent %s;'
        " denoms (q; i), (q; m), (q; n); } product { 1/poch(q, q) } }" % exponent
    )
    with pytest.raises(error, match=message) as raised:
        eval_sum(spec, 12)
    assert type(raised.value) is error


def test_rank_2_and_3_sums_never_take_the_rank_1_path(monkeypatch):
    # the last two levels are one pass: only a rank-1 sum builds its window
    # in `_Nest.last`
    last = qrr.identity._Nest.last
    calls = []

    def spy(nest, *args):
        calls.append(len(nest.bounds))
        return last(nest, *args)

    monkeypatch.setattr(qrr.identity._Nest, "last", spy)
    for key, digest in EVAL_SUM_DIGESTS.items():
        name, order = key.split("@")
        if order == "60":
            doc = eval_sum(corpus.load(name), 60).to_json()
            assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest, key
    assert calls == [1] * 4


def test_off_grid_exponent_names_the_point():
    # no quadratic part: the last index runs over its whole box
    with pytest.raises(SemanticError, match=r"exponent 1/2 at \{'n': 1\} not representable with den 1"):
        eval_sum(_one_index("1/2*n", bounds="bounds 4;"), 5)
    with pytest.raises(SemanticError, match=r"exponent 3/2 at \{'n': 1\} not representable"):
        eval_sum(_one_index("n^2 + 1/2*n"), 5)


def test_explicit_bounds_cut_the_last_index_interval():
    # n^2 <= 30 up to n = 5, m, n <= 4 hold the double sum's points at 20, and
    # Cao-Wang keeps points with k = 2, 3, 4 in i <= 2, j <= 4 at 16, on a
    # last index whose table steps by 12
    for name, bounds, order in (
        ("rogers_mod5_1_4", (3,), 30),
        ("double_mod10_2_8", (2, 3), 20),
        ("cao_wang_1_2_3", (2, 4, 1), 16),
    ):
        spec = corpus.load(name)
        cut = eval_sum(dataclasses.replace(spec, bounds=bounds), order)
        assert cut == unpruned_sum(spec, bounds, order)
        assert cut != eval_sum(spec, order)


def _two_index(exponent, bounds):
    return parse(
        'identity "t" { den 1; sum { indices m, n; exponent %s; denoms (q; m), (q; n); bounds %s; }'
        " product { 1/poch(q, q) } }" % (exponent, bounds)
    )


def test_explicit_bounds_stop_at_what_the_order_reaches(monkeypatch):
    # bounds far past the box do the box's work: the same `kept` calls on
    # the same last-index table, of at most order/b + 1 entries; a form with
    # no minorant runs over its bounds, but its table stops at order/b too
    kept = qrr.identity._Nest.kept
    tables = []  # the table length at each `kept` call

    def spy(nest, *args):
        tables.append(len(nest.table))
        return kept(nest, *args)

    def run(spec, order):
        tables.clear()
        return eval_sum(spec, order), list(tables)

    monkeypatch.setattr(qrr.identity._Nest, "kept", spy)
    for name, order in (("rogers_mod5_1_4", 10), ("double_mod10_2_8", 30), ("cao_wang_1_2_3", 24)):
        spec = corpus.load(name)
        box = auto_bounds(spec, order)
        at_box, work = run(dataclasses.replace(spec, bounds=box), order)
        far, far_work = run(dataclasses.replace(spec, bounds=(10**6,) * len(box)), order)
        assert at_box == far == eval_sum(spec, order)
        assert work == far_work, name
        assert max(work) <= order / spec.denoms[-1][1].exp + 1, name
    spec = _two_index("n^2 - m^2 + 5*m", "5, 1000000")  # indefinite: no minorant
    out, work = run(spec, 10)
    assert set(work) == {11}
    assert out == unpruned_sum(spec, (5, 5), 10)


@pytest.mark.parametrize(
    "exponent, bounds, point",
    [
        ("m^2 - 3*m + n^2 - m*n", "100000, 100000", "exponent -2 at {'m': 1, 'n': 0}"),  # a minorant
        ("m^2 - n^2 + 5*n", "30, 7", "exponent -6 at {'m': 0, 'n': 6}"),  # none
    ],
)
def test_explicit_bounds_keep_the_first_bad_point(exponent, bounds, point):
    with pytest.raises(NegativeExponent) as raised:
        eval_sum(_two_index(exponent, bounds), 10)
    assert str(raised.value) == "t: " + point


def _sum_or_error(spec, order):
    try:
        return eval_sum(spec, order)
    except QrrError as ex:
        return type(ex)


@pytest.mark.parametrize("order", [60, 120])
def test_every_index_order_gives_the_same_sum(order):
    # the sum does not depend on the index order, though the nest's table,
    # folds and box do; the first bad point is defined in the declared order,
    # so a sum that has one compares only the error type
    specs = [*corpus.load_all(), _two_index("m^2 - 3*m + n^2 - m*n", "100000, 100000")]
    for spec in specs:
        want = _sum_or_error(spec, order)
        for perm in permutations(range(len(spec.indices))):
            permuted = dataclasses.replace(
                spec,
                indices=tuple(spec.indices[i] for i in perm),
                bounds=None if spec.bounds is None else tuple(spec.bounds[i] for i in perm),
            )
            assert _sum_or_error(permuted, order) == want, (spec.name, perm)
    assert want is NegativeExponent


# sha256 of json.dumps(eval_sum(spec, order).to_json(), sort_keys=True), first
# 16 hex digits, from the per-point evaluation that preceded the nested sums
EVAL_SUM_DIGESTS = {
    "andrews_uncu_mod6@240": "fa248861aad4fe40",
    "andrews_uncu_mod6@60": "f3c30f47d3447f98",
    "cao_wang_1_2_3@60": "7d4f9f3faf1ac90e",
    # the one rank-3 sum past order 60: the outer fold runs two levels deep
    "cao_wang_1_2_3@240": "811d80ca9198fc6c",
    # recorded before the last two levels were fused into one pass
    "cao_wang_1_2_3@480": "9b3315c0e13b62d4",
    "double_mod10_2_8@480": "0ac70870dca68894",
    "double_mod10_2_8@240": "148a8f392ee4da10",
    "double_mod10_2_8@60": "acb23a217fb0b4d4",
    "double_mod10_4_6@240": "5c66fbdcb99f7145",
    "double_mod10_4_6@60": "7188c9b75acabe7f",
    "double_mod5_1_4@240": "0d7dd1593e29c13f",
    "double_mod5_1_4@60": "53aef64463217c3a",
    "double_mod5_2_3@240": "38ca939b8227b2e3",
    "double_mod5_2_3@60": "0ceaad6f27ed579b",
    "rogers_mod4_1_4@240": "70d6ecfadacf5472",
    "rogers_mod4_1_4@60": "8fa65c4824170b39",
    "rogers_mod4_2_3@240": "dfd3ea24459f75ee",
    "rogers_mod4_2_3@60": "e867fe009e19842f",
    "rogers_mod5_1_4@240": "c57df7fd145c7ace",
    "rogers_mod5_1_4@60": "846fbbd635c10aa1",
    "rogers_mod5_2_3@240": "2cd56ac4f78567a9",
    "rogers_mod5_2_3@60": "329427ecea08c399",
}


def test_eval_sum_json_is_unchanged_on_the_corpus():
    for key, digest in EVAL_SUM_DIGESTS.items():
        name, order = key.split("@")
        doc = eval_sum(corpus.load(name), int(order)).to_json()
        assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest, key


def test_eval_sum_makes_no_kernel_call(monkeypatch):
    monkeypatch.setattr(qrr._kernel_py, "conv_terms", _kernel_call)
    for key, digest in EVAL_SUM_DIGESTS.items():
        name, order = key.split("@")
        if order == "60":
            doc = eval_sum(corpus.load(name), 60).to_json()
            assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16] == digest, key


def _kernel_call(*args):
    raise AssertionError("eval_sum called the convolution kernel")


NAMES = ("a", "b", "c")
small = st.integers(-2, 2)


@st.composite
def sum_specs(draw):
    """A random rank 1-3 sum side with every exponent on its den grid: a
    diagonally dominant (so positive definite) form with auto bounds, or any
    form, last diagonal 0 or negative included, with explicit bounds."""
    rank = draw(st.integers(1, 3))
    den = draw(st.sampled_from([1, 2, 4]))
    names = NAMES[:rank]
    explicit = draw(st.booleans())
    off = {(x, y): draw(small) for i, x in enumerate(names) for y in names[i + 1 :]}
    quad = {k: F(v, den) for k, v in off.items()}
    for x in names:
        row = sum(abs(v) for k, v in off.items() if x in k)
        lo = -1 if explicit else row // 2 + 1
        quad[(x, x)] = F(draw(st.integers(lo, row // 2 + 2)), den)
    lin = {x: F(draw(st.integers(-2, 3)), den) for x in names}
    exponent = ExponentPoly.make(quad, lin, F(draw(st.integers(0, 3)), den))
    sign = tuple(
        SignAtom(kind, ExponentPoly.make({}, {x: draw(small) for x in names}, draw(small)))
        for kind in draw(st.lists(st.sampled_from(["neg1", "neg1_binom", "i"]), max_size=3))
    )
    denoms = tuple((x, qmono(F(draw(st.integers(1, 4)), 2))) for x in names)
    bounds = tuple(draw(st.integers(0, 4)) for _ in names) if explicit else None
    order = draw(st.integers(0, (16, 10, 5)[rank - 1])) + draw(st.sampled_from([0, F(1, 2)]))
    return IdentitySpec("random", den, names, sign, exponent, denoms, (), bounds), order


@settings(max_examples=60, deadline=None)
@given(sum_specs())
def test_eval_sum_matches_unpruned_oracle(case):
    spec, order = case
    # the oracle walks a box one wider than the enumerator's, or the same
    # explicit box, and sums every point with no pruning
    if spec.bounds is None:
        box = [max(b, 0) + 1 for b in auto_bounds(spec, order)]
    else:
        box = list(spec.bounds)
    try:
        want = unpruned_sum(spec, box, order)
    except NegativeExponent:
        with pytest.raises(NegativeExponent):
            eval_sum(spec, order)
        return
    assert eval_sum(spec, order) == want


# den 4 and a last base q^3 put the last index's table content on every 12th
# entry of the sum grid, a step sum_specs never draws: Cao-Wang's slice at
# i = 0, with a complex sign, and the whole rank-3 Cao-Wang sum
CAO_WANG_SLICE = """
identity "cao-wang-slice" {
  den 4;
  sum {
    indices j, k;
    sign i^(j + k) * (-1)^binom(k - j, 2);
    exponent 1/4*(2*j - 3*k)^2 + 3*k;
    denoms (q^2; j), (q^3; k);
  }
  product { 1/poch(q, q) }
}
"""


@pytest.mark.parametrize("order", [F(16), F(61, 4), F(40)])
def test_eval_sum_matches_unpruned_oracle_on_step_12_tables(order):
    piece = parse(CAO_WANG_SLICE)
    assert eval_sum(piece, order).imaginary_support()
    for spec in (piece, corpus.load("cao_wang_1_2_3")):
        box = [max(b, 0) + 1 for b in auto_bounds(spec, order)]
        assert eval_sum(spec, order) == unpruned_sum(spec, box, order)


# the outer fold's merge edge: at n = 0 the exponent is 1, 0, 5 and 16 at
# m = 0, 1, 2 and 3, so at these orders the inner windows of m = 0..2 start
# down and then up, and i^m makes m = 1 the only one that carries im
FOLD_EDGE = """
identity "fold-edge" {
  den 1;
  sum {
    indices m, n;
    sign i^m * (-1)^n;
    exponent 3*m^2 - 4*m + 1 + m*n + n^2;
    denoms (q; m), (q; n);
  }
  product { 1/poch(q, q) }
}
"""


@pytest.mark.parametrize("order", [F(12), F(31, 2)])
def test_eval_sum_matches_unpruned_oracle_where_windows_start_in_both_orders(order):
    spec = parse(FOLD_EDGE)
    assert [spec.exponent.eval({"m": m, "n": 0}) for m in range(4)] == [1, 0, 5, 16]
    box = [max(b, 0) + 1 for b in auto_bounds(spec, order)]
    got = eval_sum(spec, order)
    assert got.imaginary_support()
    assert got == unpruned_sum(spec, box, order)


sign_atoms = st.lists(
    st.builds(
        SignAtom,
        st.sampled_from(["neg1", "neg1_binom", "i"]),
        st.builds(
            ExponentPoly.make,
            st.just({}),
            st.fixed_dictionaries({x: st.integers(-5, 5) for x in NAMES}),
            st.integers(-7, 7),
        ),
    ),
    max_size=4,
)


def _sign_power(atoms, n):
    """U(n) mod 4 for the sign polynomial of `atoms` over NAMES."""
    S, s, s0 = sign_poly(atoms, NAMES)
    twice = sum(x * q * y for row, x in zip(S, n) for q, y in zip(row, n))
    assert twice % 2 == 0
    return (twice // 2 + sum(c * x for c, x in zip(s, n)) + s0) % 4


@settings(max_examples=300, deadline=None)
@given(sign_atoms, st.tuples(*[st.integers(-30, 30)] * len(NAMES)))
def test_sign_poly_matches_eval_sign(atoms, n):
    assert _sign_power(atoms, n) == UNITS.index(eval_sign(atoms, dict(zip(NAMES, n))))


def test_sign_poly_reaches_every_unit():
    atoms = (
        SignAtom("neg1_binom", ExponentPoly.make({}, {"a": 1, "b": -2}, -1)),
        SignAtom("i", ExponentPoly.make({}, {"c": -1}, 3)),
        SignAtom("neg1", ExponentPoly.make({}, {"a": -3, "c": 1})),
    )
    seen = set()
    for n in iproduct(range(-3, 4), repeat=len(NAMES)):
        u = _sign_power(atoms, n)
        assert u == UNITS.index(eval_sign(atoms, dict(zip(NAMES, n)))), n
        seen.add(u)
    assert seen == {0, 1, 2, 3}


@st.composite
def minorant_specs(draw):
    """A random rank 1-3 sum side of one kind: "definite" (a positive definite
    form, signed linear part), "orthant" (a singular form with nonnegative
    entries and positive diagonal, signed linear part) or "lift" (a singular
    positive semidefinite form, linear part >= 0).  The quadratic part is a
    sum of squares of integer linear forms over den, so every exponent is on
    the den grid.  Returns the kind, the spec's arguments, Q + 2bb^T and the
    order."""
    rank = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["definite", "orthant", "lift"]))
    den = draw(st.sampled_from([1, 2, 4]))
    names = NAMES[:rank]

    def ints(lo, hi):
        return [draw(st.integers(lo, hi)) for _ in names]

    diag = ints(1, 2) if kind == "definite" else [0] * rank
    if kind == "definite":
        squares = [ints(-2, 2) for _ in names]
    elif kind == "orthant":
        squares = [ints(1, 2)] + [ints(0, 2) for _ in names[2:]]
    else:
        squares = [ints(-1, 1) for _ in names[1:]]
    quad = {}
    for i, x in enumerate(names):
        for j in range(i, rank):
            c = sum(w[i] * w[j] for w in squares)
            quad[(x, names[j])] = F(c + diag[i] if i == j else 2 * c, den)
    lin = [F(v, den) for v in ints(0 if kind == "lift" else -2, 3)]
    exponent = ExponentPoly.make(quad, dict(zip(names, lin)), F(draw(st.integers(0, 3)), den))
    q = exponent.quadratic_matrix(names)
    lifted = [[q[i][j] + 2 * lin[i] * lin[j] for j in range(rank)] for i in range(rank)]
    sign = tuple(
        SignAtom(atom, ExponentPoly.make({}, {x: draw(small) for x in names}, draw(small)))
        for atom in draw(st.lists(st.sampled_from(["neg1", "neg1_binom", "i"]), max_size=2))
    )
    denoms = tuple((x, qmono(F(draw(st.integers(1, 4)), 2))) for x in names)
    order = F(draw(st.integers(0, (32, 20, 12)[rank - 1])), den)
    return kind, ("random", den, names, sign, exponent, denoms, ()), lifted, order


@settings(max_examples=80, deadline=None)
@given(minorant_specs())
def test_auto_box_holds_every_kept_point_of_each_minorant_kind(case):
    kind, args, lifted, order = case
    try:
        spec = IdentitySpec(*args)
    except SemanticError:
        # definite and orthant forms always have a minorant; a lift has one
        # at least when Q + 2bb^T is positive definite
        assert kind == "lift" and not is_positive_definite(lifted)
        return
    bounds = auto_bounds(spec, order)
    for n in iproduct(*(range(max(b, 0) + 4) for b in bounds)):
        if spec.exponent.eval(dict(zip(spec.indices, n))) <= order:
            assert all(x <= b for x, b in zip(n, bounds)), (kind, n, bounds)
    try:
        want = unpruned_sum(spec, [max(b, 0) + 1 for b in bounds], order)
    except NegativeExponent:
        with pytest.raises(NegativeExponent):
            eval_sum(spec, order)
        return
    assert eval_sum(spec, order) == want


@st.composite
def nahm_data(draw):
    """A rank 1-3 Nahm form with a diagonally dominant integer matrix, so
    positive definite, and B, C in halves and thirds."""
    rank = draw(st.integers(1, 3))
    a = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        for j in range(i + 1, rank):
            a[i][j] = a[j][i] = draw(small)
    for i in range(rank):
        a[i][i] = sum(abs(x) for x in a[i]) + draw(st.integers(1, 2))
    b = [F(draw(st.integers(-1, 3)), 2) for _ in range(rank)]
    return NahmData(a=a, b=b, c=F(draw(st.integers(0, 2)), 3))


# (what is summed, the largest order N drawn): rank-1, rank-2 and rank-3
# corpus sums, and random Nahm forms
HONEST = (
    ("rogers_mod5_2_3", 40),
    ("double_mod10_2_8", 30),
    ("andrews_uncu_mod6", 30),
    ("double_mod5_1_4", 30),
    ("cao_wang_1_2_3", 20),
    ("nahm", 12),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sum_side_orders_are_honest(data):
    # for fractional N < M the sum at N is the sum at M truncated to N, and
    # each claims its order exactly
    name, top = data.draw(st.sampled_from(HONEST))
    den = data.draw(st.integers(1, 6))
    low = F(data.draw(st.integers(0, top * den)), den)
    high = low + F(data.draw(st.integers(1, 4 * den)), data.draw(st.integers(1, 6)))
    if name == "nahm":
        form = data.draw(nahm_data())
        at_low, at_high = (nahm_series(form, order) for order in (low, high))
    else:
        spec = corpus.load(name)
        at_low, at_high = (eval_sum(spec, order) for order in (low, high))
    assert (at_low.order_q, at_high.order_q) == (low, high)
    assert at_low == at_high.rescale(math.lcm(at_high.den, low.denominator)).truncate(low), (name, low, high)


def _product_spec(den, factors):
    return IdentitySpec(
        "product", den, ("n",), (), ExponentPoly.make({("n", "n"): 1}, {}), (("n", qmono(1)),), factors
    )


@pytest.mark.parametrize("order", [F(30), F(61, 4), F(1, 3)])
@pytest.mark.parametrize("den", [1, 2, 4])
def test_finite_factors_match_the_multiply_and_invert_route(order, den):
    # eval_product applies (x;b)_n**-1 as n binomial divisions; the route it
    # replaced built (x;b)_n and multiplied by it or by its long-division inverse
    d = math.lcm(den, order.denominator)
    base = qmono(F(1, den))
    for unit, n, power, exp in iproduct((ONE, MINUS_ONE, I, MINUS_I), (0, 1, 3, 7), (1, -1), (0, 1, 5)):
        if power == -1 and exp == 0 and n:
            continue  # 1 - unit is no unit of Z[i]: an error, tested through the CLI
        factors = (
            ProductFactor(Monomial(unit, F(exp, den)), base, power, n),
            ProductFactor(qmono(1), qmono(2), -1),
            ProductFactor(Monomial(MINUS_ONE, F(3, den)), qmono(1), -power, 2),
        )
        want = QSeries.one(order).rescale(d)
        for f in factors:
            if f.finite is None:
                p = poch_infinite(f.x, f.base, order)
            else:
                p = poch_finite(f.x, f.base, f.finite, order)
            want = want.mul(p if f.power == 1 else p.invert_unit())
        got = eval_product(_product_spec(den, factors), order)
        assert got.to_json() == want.to_json(), (unit, n, power, exp)


@pytest.mark.parametrize("order", [F(60), F(61, 4), F(1, 3)])
def test_product_side_lives_on_its_own_grid(order):
    # the product side's grid holds the order and its factor exponents only,
    # not the sum's declared grid, and it is the multiply-and-invert product
    for spec in corpus.load_all():
        exps = [m.exp for f in spec.product for m in (f.x, f.base)]
        got = eval_product(spec, order)
        assert got.den == math.lcm(order.denominator, *(e.denominator for e in exps)), spec.name
        want = QSeries.one(order)
        for f in spec.product:
            if f.finite is None:
                p = poch_infinite(f.x, f.base, order)
            else:
                p = poch_finite(f.x, f.base, f.finite, order)
            want = want.mul(p if f.power == 1 else p.invert_unit())
        assert got == want, spec.name


def test_integer_product_side_of_a_quarter_sum_is_integer():
    p = eval_product(corpus.load("double_mod5_1_4"), 1000)
    assert (p.den, p.order, len(p.re)) == (1, 1000, 1001)
