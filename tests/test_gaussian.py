import re

import pytest

from qrr.gaussian import (
    I,
    MINUS_I,
    MINUS_ONE,
    ONE,
    UNITS,
    ZERO,
    GaussianInt,
    binom2,
    i_pow,
    is_unit,
    sign_binom2,
    unit_pow,
)


def test_ring_ops():
    a = GaussianInt(2, 3)
    b = GaussianInt(-1, 4)
    assert a + b == GaussianInt(1, 7)
    assert a - b == GaussianInt(3, -1)
    assert a * b == GaussianInt(-14, 5)
    assert -a == GaussianInt(-2, -3)
    assert a * GaussianInt(2, -3) == GaussianInt(13, 0)  # times its conjugate


def test_int_mixing():
    a = GaussianInt(2, 3)
    assert a + 1 == GaussianInt(3, 3)
    assert 1 + a == GaussianInt(3, 3)
    assert a - 1 == GaussianInt(1, 3)
    assert 1 - a == GaussianInt(-1, -3)
    assert a * 2 == GaussianInt(4, 6)
    assert 2 * a == GaussianInt(4, 6)


def test_predicates():
    assert ZERO.is_zero() and not ONE.is_zero()
    assert ONE.is_real() and MINUS_ONE.is_real() and not I.is_real()
    assert all(is_unit(u) for u in UNITS)
    assert not is_unit(ZERO) and not is_unit(GaussianInt(1, 1))


def test_i_pow_cycle():
    assert [i_pow(k) for k in range(4)] == [ONE, I, MINUS_ONE, MINUS_I]
    assert i_pow(-1) == MINUS_I
    assert i_pow(7) == i_pow(3)
    for k in range(-8, 8):
        assert unit_pow(I, k) == i_pow(k)
        assert unit_pow(MINUS_I, k) == i_pow(-k)
        assert unit_pow(MINUS_ONE, k) == (ONE if k % 2 == 0 else MINUS_ONE)
        assert unit_pow(ONE, k) == ONE


@pytest.mark.parametrize("u", [GaussianInt(0, 0), GaussianInt(1, 1), GaussianInt(2, 0), GaussianInt(0, -2)])
def test_unit_pow_names_a_non_unit(u):
    with pytest.raises(ValueError, match=r"^not a unit of Z\[i\]: %s$" % re.escape(repr(u))):
        unit_pow(u, 3)


def test_binom2():
    assert [binom2(k) for k in (-2, -1, 0, 1, 2, 3)] == [3, 1, 0, 0, 1, 3]
    assert sign_binom2(2) == MINUS_ONE
    assert sign_binom2(3) == MINUS_ONE
    assert sign_binom2(4) == ONE
    assert sign_binom2(-1) == MINUS_ONE


def test_str_forms():
    assert str(GaussianInt(3, 0)) == "3"
    assert str(GaussianInt(0, -2)) == "-2*i"
    assert "+" in str(GaussianInt(1, 2)) or "-" in str(GaussianInt(1, 2))
