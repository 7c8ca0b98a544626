"""Exact base fields: prime fields GF(p) and the rational numbers.

Field elements are stored as plain canonical values (ints in [0, p) for
GF(p), `fractions.Fraction` for the rationals) and all arithmetic goes
through the field object.  Keeping elements unboxed makes the exhaustive
sweeps cheap; a "field scalar" in the rest of the package always means a
canonical value together with the field object that owns it.
"""

from __future__ import annotations

import functools
from fractions import Fraction


def is_prime(n: int) -> bool:
    """Trial-division primality check, adequate for the small moduli used here."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class PrimeField:
    """The field with p elements, p prime.  Elements are ints reduced to [0, p)."""

    __slots__ = ("p",)
    zero = 0
    one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        self.p = p

    @property
    def char(self) -> int:
        return self.p

    def canon(self, x) -> int:
        """Canonical representative of an integral value."""
        value = int(x)
        if value != x:
            raise TypeError(f"{x!r} is not integral, cannot reduce mod {self.p}")
        return value % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        # Fermat: a^(p-2) = a^(-1) for prime p.
        return pow(a, self.p - 2, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> range:
        return range(self.p)

    def random(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"GF({self.p})"


class RationalField:
    """The rationals with exact Fraction arithmetic; characteristic 0."""

    __slots__ = ()
    #: Shared constants, not built per access: Fractions are immutable.
    zero = Fraction(0)
    one = Fraction(1)

    @property
    def char(self) -> int:
        return 0

    def canon(self, x) -> Fraction:
        return x if type(x) is Fraction else Fraction(x)  # Fractions are immutable

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return self.mul(a, self.inv(self.canon(b)))

    def elements(self):
        raise TypeError("the rationals are not enumerable")

    def random(self, rng, bound: int = 5) -> Fraction:
        num = rng.randrange(-bound, bound + 1)
        den = rng.randrange(1, bound + 1)
        return Fraction(num, den)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __hash__(self) -> int:
        return hash("RationalField")

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()

#: The prime field with p elements: one shared PrimeField per p.
GF = functools.cache(PrimeField)
