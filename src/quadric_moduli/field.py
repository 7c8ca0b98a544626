"""The rationals as an exact base field for forms.

Field elements are stored as plain canonical values (`fractions.Fraction`)
and all arithmetic goes through the field object, so a form's code reads
the same over any field with this interface.  The sweeps build their
integer tables over the rationals and reduce them mod p themselves.
"""

from __future__ import annotations

from fractions import Fraction


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

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()
