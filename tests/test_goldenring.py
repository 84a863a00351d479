import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldwave.goldenring import (
    ALPHA,
    ALPHA_FLOAT,
    ONE,
    TWO_PLUS_ALPHA,
    ZERO,
    GoldenNumber,
    alpha_power,
    fibonacci,
    power_sum_identity,
)

ints = st.integers(min_value=-10**12, max_value=10**12)
gn = st.builds(GoldenNumber, ints, ints)


def sign_oracle(x: GoldenNumber) -> int:
    """Independent sign via integer square-root bracketing of sqrt(5).

    a + b*alpha = (2a - b + b*sqrt(5)) / 2, so the sign is that of
    u + b*sqrt(5) with u = 2a - b, decided by comparing u**2 and 5*b**2.
    """
    u = 2 * x.a - x.b
    b = x.b
    if b == 0:
        return (u > 0) - (u < 0)
    if u >= 0 and b > 0:
        return 1
    if u <= 0 and b < 0:
        return -1
    # opposite signs: |u| vs |b|*sqrt(5), strict since 5*b**2 is never a square
    if u > 0:
        return 1 if u * u > 5 * b * b else -1
    return -1 if u * u > 5 * b * b else 1


def test_alpha_is_root():
    assert ALPHA * ALPHA == ONE - ALPHA


def test_float_embedding():
    assert math.isclose(GoldenNumber(2, 1).to_float(), 2 + ALPHA_FLOAT)
    assert float(ZERO) == 0.0


@given(gn, gn, gn)
def test_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(gn, ints)
def test_integer_mixed_ops(x, k):
    assert x + k == GoldenNumber(x.a + k, x.b)
    assert x * k == GoldenNumber(x.a * k, x.b * k)
    assert k - x == -(x - k)


@given(gn)
def test_sign_against_oracle(x):
    assert x.sign() == sign_oracle(x)


@given(gn)
def test_sign_consistency(x):
    assert (-x).sign() == -x.sign()
    assert (x.sign() == 0) == x.is_zero()
    if not x.is_zero():
        # floats agree whenever they are not drowned by cancellation
        f = x.to_float()
        if abs(f) > 1e-3 * (abs(x.a) + abs(x.b)):
            assert math.copysign(1, f) == x.sign()


@given(gn, gn)
@settings(max_examples=50)
def test_sign_orders_products(x, y):
    assert (x * y).sign() == x.sign() * y.sign()


def test_sign_near_cancellation():
    # f_18 / f_19 is a convergent of alpha: a + b*alpha with huge cancellation
    f18, f19 = fibonacci(18), fibonacci(19)
    x = GoldenNumber(f18, -f19)  # f18 - f19 * alpha, tiny but nonzero
    assert x.sign() == sign_oracle(x)
    assert abs(x.to_float() - (f18 - f19 * ALPHA_FLOAT)) < 1e-9


def test_fibonacci_values():
    assert [fibonacci(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    with pytest.raises(ValueError):
        fibonacci(-1)


def test_alpha_power_matches_repeated_product():
    acc = ALPHA
    for n in range(1, 81):
        assert alpha_power(n) == acc
        acc = acc * ALPHA
    with pytest.raises(ValueError):
        alpha_power(0)


def test_power_sum_identity_is_constant():
    for n in range(1, 81):
        assert power_sum_identity(n) == TWO_PLUS_ALPHA
    with pytest.raises(ValueError):
        power_sum_identity(0)


def test_alpha_power_magnitude_decreases():
    values = [abs(alpha_power(n).to_float()) for n in range(1, 30)]
    assert all(b < a for a, b in zip(values, values[1:]))


def test_norm_form_never_vanishes():
    # |m**2 - m*n - n**2| >= 1 for (n, m) != 0: the field norm of m + n*alpha
    for n in range(-25, 26):
        for m in range(-25, 26):
            if (n, m) != (0, 0):
                assert abs(m * m - m * n - n * n) >= 1
