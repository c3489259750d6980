import ast
import inspect
import random
from fractions import Fraction as F

import pytest
import qrr.oracle
from qrr import corpus
from qrr.errors import NegativeExponent, SemanticError
from qrr.gaussian import MINUS_ONE, ONE, GaussianInt
from qrr.identity import ProductFactor, eval_product, eval_sum
from qrr.oracle import PartSpec, dense_mul, partition_count, unpruned_sum
from qrr.parser import parse
from qrr.series import Monomial, QSeries, poch_infinite, qmono


def test_partition_count_examples():
    spec = corpus.load("rogers_mod5_1_4")
    ps = PartSpec.from_product(spec.product, 20)
    assert partition_count(ps, 0) == 1
    assert partition_count(ps, 4) == 2  # 4 and 1+1+1+1
    spec = corpus.load("double_mod10_2_8")
    ps = PartSpec.from_product(spec.product, 20)
    assert partition_count(ps, 0) == 1
    assert partition_count(ps, 2) == 1  # only {2}
    assert partition_count(ps, 3) == 0


def test_partition_counts_match_products():
    for name in (
        "rogers_mod5_1_4",
        "rogers_mod5_2_3",
        "double_mod10_2_8",
        "double_mod10_4_6",
        "andrews_uncu_mod6",
    ):
        spec = corpus.load(name)
        ps = PartSpec.from_product(spec.product, 40)
        counts = ps.counts(40)
        prod = eval_product(spec, 40)
        for n in range(41):
            c = prod.coeff(n)
            assert c.im == 0 and c.re == counts[n], (name, n)


def test_numerator_readings_match_the_product_walk():
    # (q;q)_inf reads as distinct parts, each counted -1, and (-q;q)_inf as
    # distinct parts, each counted +1
    for unit in (ONE, MINUS_ONE):
        x = Monomial(unit, F(1))
        ps = PartSpec.from_product([ProductFactor(x, qmono(1))], 60)
        want = poch_infinite(x, qmono(1), 60)
        assert [GaussianInt(c, 0) for c in ps.counts(60)] == [want.coeff(n) for n in range(61)]


def test_partition_readings_refuse_what_has_none():
    q = qmono(1)
    with pytest.raises(ValueError, match="^finite Pochhammer factors have no partition reading$"):
        PartSpec.from_product([ProductFactor(q, q, -1, 5)], 10)
    with pytest.raises(ValueError, match="^partition reading needs positive integer exponents$"):
        PartSpec.from_product([ProductFactor(qmono(F(1, 2)), q, -1)], 10)
    with pytest.raises(ValueError, match="^n must be nonnegative$"):
        partition_count(PartSpec((1,), ()), -1)


def test_signed_product_has_no_partition_reading():
    spec = corpus.load("rogers_mod4_1_4")  # contains 1/(-q^2;q^2)_inf
    with pytest.raises(ValueError):
        PartSpec.from_product(spec.product, 10)


def test_dense_mul_basics():
    assert dense_mul([1, 1], [1, -1]) == [1, 0, -1]
    x = [3, 1, 4, 1, 5]
    assert dense_mul(x, [1]) == x
    assert dense_mul([], x) == []


def test_dense_mul_matches_kernel_mul():
    rng = random.Random(7)
    for _ in range(20):
        n = 50
        da = {k: GaussianInt(rng.randint(-5, 5), rng.randint(-5, 5)) for k in range(n)}
        db = {k: GaussianInt(rng.randint(-5, 5), rng.randint(-5, 5)) for k in range(n)}
        a = QSeries(1, n - 1, da)
        b = QSeries(1, n - 1, db)
        fast = a.mul(b)
        la = [da.get(k, GaussianInt(0, 0)) for k in range(n)]
        lb = [db.get(k, GaussianInt(0, 0)) for k in range(n)]
        slow = dense_mul(la, lb)
        for k in range(n):
            assert fast.coeff(k) == slow[k]


def test_unpruned_sum_agrees_with_engine():
    rr = corpus.load("rogers_mod5_1_4")
    assert unpruned_sum(rr, [30], 50).same_through(eval_sum(rr, 50), F(50))
    d = corpus.load("double_mod5_1_4")
    assert unpruned_sum(d, [14, 14], 30).same_through(eval_sum(d, 30), F(30))


def test_unpruned_sum_detects_short_box():
    rr = corpus.load("rogers_mod5_1_4")
    small = unpruned_sum(rr, [2], 50)
    diff = small.first_difference(eval_sum(rr, 50), F(50))
    assert diff == 9  # first missing contribution is the n=3 term q^9


def test_unpruned_sum_quarter_grid():
    spec = corpus.load("double_mod10_2_8")
    assert unpruned_sum(spec, [10, 10], 20).same_through(eval_sum(spec, 20), F(20))


def _two_index(exponent):
    return parse(
        'identity "t" { den 1; sum { indices m, n; exponent %s;'
        " denoms (q; m), (q; n); } product { 1/poch(q, q) } }" % exponent
    )


@pytest.mark.parametrize("order", [0, 10])
def test_unpruned_sum_names_the_first_bad_point_of_the_box(order):
    # bad points (1, 1), (2, 0), (2, 1) and (3, 1): the box is walked with
    # the last index fastest, so (1, 1) is named, not (2, 0), which comes
    # first by columns, nor (2, 1), the lowest; at order 0 every point
    # before it lies above the order and is checked all the same
    spec = _two_index("m^2 - 4*m + 2*n^2 - 3*n + 3")
    with pytest.raises(NegativeExponent) as err:
        unpruned_sum(spec, [4, 4], order)
    assert str(err.value) == "exponent -1 at {'m': 1, 'n': 1}"
    # off the grid at (1, 1), (1, 3), (3, 1) and (3, 3), negative at (2, 0),
    # (2, 1) and (3, 1): the first off-grid point comes before the first
    # negative one
    spec = _two_index("m^2 - 4*m + 2*n^2 - n + 3 - 1/2*m*n")
    with pytest.raises(SemanticError) as err:
        unpruned_sum(spec, [4, 4], order)
    assert str(err.value) == "exponent 1/2 at {'m': 1, 'n': 1} off the den-1 grid"
    # a point both negative and off the grid is a negative exponent
    spec = _two_index("m^2 - 3*m + n^2 - 3*n + 3 + 1/2*m*n")
    with pytest.raises(NegativeExponent) as err:
        unpruned_sum(spec, [4, 4], order)
    assert str(err.value) == "exponent -1/2 at {'m': 1, 'n': 1}"


def test_oracle_imports_no_engine_algorithm():
    # the oracle takes from the engine only its result type, the spec and the
    # sign rule, so agreement with eval_sum is evidence, not tautology
    allowed = {"series": {"QSeries"}, "identity": {"IdentitySpec", "eval_sign"}}
    for node in ast.walk(ast.parse(inspect.getsource(qrr.oracle))):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("qrr") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").removeprefix("qrr.")
            assert module != "_kernel_py"
            if module in allowed:
                assert {a.name for a in node.names} <= allowed[module], module
    for name, value in vars(qrr.oracle).items():
        assert all(value is not m for m in (qrr._kernel_py, qrr.series, qrr.identity)), name
        home = getattr(value, "__module__", None)
        assert home != "qrr._kernel_py", name
        if home in ("qrr.series", "qrr.identity"):
            assert name in allowed[home.removeprefix("qrr.")], name
