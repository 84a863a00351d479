"""Exact arithmetic in the ring Z[alpha], where alpha = (sqrt(5) - 1) / 2.

alpha is the inverse golden ratio.  It satisfies alpha**2 = 1 - alpha, so the
set {a + b*alpha : a, b integers} is closed under multiplication and every
element has a unique integer-pair representation (1 and alpha are rationally
independent).  All operations here are pure integer arithmetic; alpha is never
evaluated as a float except through the explicit ``to_float`` embedding.

Python integers are arbitrary precision, so overflow cannot occur and the
exactness contract holds for every input size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Float embedding of alpha, for display and for float-path lattice work.
ALPHA_FLOAT = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class GoldenNumber:
    """The real number a + b*alpha with integer coefficients a, b."""

    a: int
    b: int

    def __add__(self, other: GoldenNumber | int) -> GoldenNumber:
        if isinstance(other, int):
            return GoldenNumber(self.a + other, self.b)
        return GoldenNumber(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self) -> GoldenNumber:
        return GoldenNumber(-self.a, -self.b)

    def __sub__(self, other: GoldenNumber | int) -> GoldenNumber:
        return self + (-other if isinstance(other, GoldenNumber) else -other)

    def __rsub__(self, other: int) -> GoldenNumber:
        return (-self) + other

    def __mul__(self, other: GoldenNumber | int) -> GoldenNumber:
        if isinstance(other, int):
            return GoldenNumber(self.a * other, self.b * other)
        # (a1 + b1 a)(a2 + b2 a) with a**2 = 1 - a
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return GoldenNumber(a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 - b1 * b2)

    __rmul__ = __mul__

    def sign(self) -> int:
        """Exact sign of a + b*alpha, by integer arithmetic only.

        For b > 0 and a < 0 the question reduces to comparing the rational
        r = -a/b against alpha, the positive root of x**2 + x - 1.  The
        polynomial is increasing on x > -1/2, so sign(alpha - r) =
        -sign(r**2 + r - 1), and b**2 * (r**2 + r - 1) = a**2 - a*b - b**2.
        That integer is never zero for (a, b) != (0, 0) since alpha is
        irrational.
        """
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if b < 0:
            return -(-self).sign()
        if a >= 0:
            return 1  # both terms nonnegative, b*alpha > 0
        disc = a * a - a * b - b * b
        return (disc < 0) - (disc > 0)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def to_float(self) -> float:
        """Float embedding, for display only; do not use for exact tests."""
        return self.a + self.b * ALPHA_FLOAT

    def __float__(self) -> float:
        return self.to_float()

    def __repr__(self) -> str:
        return f"GoldenNumber({self.a}, {self.b})"

    def __str__(self) -> str:
        return f"{self.a}{self.b:+d}a"


ZERO = GoldenNumber(0, 0)
ONE = GoldenNumber(1, 0)
ALPHA = GoldenNumber(0, 1)
# (1 + alpha)**2 = 2 + alpha, the minimal rectangle area guaranteeing a
# lattice point.
TWO_PLUS_ALPHA = GoldenNumber(2, 1)


def fibonacci(n: int) -> int:
    """n-th Fibonacci number, f0 = 0, f1 = 1, iteratively."""
    if n < 0:
        raise ValueError(f"fibonacci index must be nonnegative, got {n}")
    prev, cur = 0, 1
    for _ in range(n):
        prev, cur = cur, prev + cur
    return prev


def alpha_power(n: int) -> GoldenNumber:
    """alpha**n as an exact GoldenNumber, for n >= 1.

    alpha**n = (-1)**(n-1) * (f_n * alpha - f_{n-1}), so the coefficient
    pair is ((-1)**n * f_{n-1}, (-1)**(n-1) * f_n).
    """
    if n < 1:
        raise ValueError(f"alpha_power requires n >= 1, got {n}")
    s = -1 if n % 2 == 0 else 1
    return GoldenNumber(-s * fibonacci(n - 1), s * fibonacci(n))


def power_sum_identity(n: int) -> GoldenNumber:
    """alpha**(n-1) * f_{n+2} + alpha**n * f_{n+1}, exactly.

    Equals 2 + alpha for every n >= 1.
    """
    if n < 1:
        raise ValueError(f"power_sum_identity requires n >= 1, got {n}")
    first = ONE if n == 1 else alpha_power(n - 1)
    return first * fibonacci(n + 2) + alpha_power(n) * fibonacci(n + 1)
