"""The rationals as an exact base field for forms.

Field elements are stored as plain canonical values (`fractions.Fraction`)
and all arithmetic goes through the field object, so a form's code reads
the same over any field with this interface.  The sweeps build their
integer tables over the rationals and reduce them mod p themselves, so the
field holds only what a form product needs.
"""

from __future__ import annotations

from fractions import Fraction


class RationalField:
    """The rationals with exact Fraction arithmetic: the constants and the
    operations of BiForm's products and negation."""

    __slots__ = ()
    #: Shared constants, not built per access: Fractions are immutable.
    zero = Fraction(0)
    one = Fraction(1)

    def canon(self, x) -> Fraction:
        return x if type(x) is Fraction else Fraction(x)  # Fractions are immutable

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalField)

    def __repr__(self) -> str:
        return "QQ"


QQ = RationalField()
