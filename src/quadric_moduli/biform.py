"""Bihomogeneous forms on the quadric surface.

A form of bidegree (a, b) is homogeneous of degree a in the first-factor
coordinates {x, y} and of degree b in the second-factor coordinates {z, w}.
Coefficients are stored densely in a fixed monomial order, x-degree-major
and then z-degree:

    coeffs[i*(b+1) + j]  <->  coefficient of  x^(a-i) y^i z^(b-j) w^j

This layout is shared by every module in the package.  Linear forms on the
second factor are the bidegree (0, 1) case, so products like f * (1 tensor u)
are ordinary form multiplication.  The sweeps build their tables from the
products defined here, over the integers ZZ.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

import operator


class IntegerRing:
    """The integers with Python int arithmetic: the constants and the
    operations of BiForm's products and negation.  Every coefficient of a
    sweep table is a product of monomials, so it never needs a fraction."""

    __slots__ = ()
    zero = 0
    one = 1
    canon = operator.index  # a builtin, so not bound: a TypeError for every non-integer

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerRing)

    def __repr__(self) -> str:
        return "ZZ"


ZZ = IntegerRing()


class BiForm:
    """Dense bihomogeneous form of bidegree (a, b) over an exact ring."""

    __slots__ = ("field", "a", "b", "coeffs")

    def __init__(self, field, a: int, b: int, coeffs):
        if a < 0 or b < 0:
            raise ValueError(f"bidegree of a concrete form must be nonnegative, got ({a}, {b})")
        coeffs = tuple(field.canon(c) for c in coeffs)
        if len(coeffs) != (a + 1) * (b + 1):
            raise ValueError(
                f"bidegree ({a}, {b}) needs {(a + 1) * (b + 1)} coefficients, got {len(coeffs)}"
            )
        self.field = field
        self.a = a
        self.b = b
        self.coeffs = coeffs

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, field, a: int, b: int) -> "BiForm":
        return cls(field, a, b, (field.zero,) * ((a + 1) * (b + 1)))

    @classmethod
    def monomial(cls, field, a: int, b: int, i: int, j: int, c=1) -> "BiForm":
        """c * x^(a-i) y^i z^(b-j) w^j."""
        if not (0 <= i <= a and 0 <= j <= b):
            raise ValueError(f"monomial index ({i}, {j}) out of range for bidegree ({a}, {b})")
        coeffs = [field.zero] * ((a + 1) * (b + 1))
        coeffs[i * (b + 1) + j] = field.canon(c)
        return cls(field, a, b, coeffs)

    @classmethod
    def linear_zw(cls, field, cz, cw) -> "BiForm":
        """cz*z + cw*w as a bidegree (0, 1) form."""
        return cls(field, 0, 1, (cz, cw))

    def terms(self):
        """Yield ((i, j), coefficient) for each nonzero (truthy) coefficient."""
        width = self.b + 1
        for idx, c in enumerate(self.coeffs):
            if c:
                yield divmod(idx, width), c

    # -- arithmetic ------------------------------------------------------

    def __neg__(self) -> "BiForm":
        neg = self.field.neg
        return BiForm(self.field, self.a, self.b, tuple(map(neg, self.coeffs)))

    def __mul__(self, other: "BiForm") -> "BiForm":
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        field = self.field
        a, b = self.a + other.a, self.b + other.b
        width = b + 1
        out = [field.zero] * ((a + 1) * width)
        for (i1, j1), c1 in self.terms():
            for (i2, j2), c2 in other.terms():
                idx = (i1 + i2) * width + (j1 + j2)
                out[idx] = field.add(out[idx], field.mul(c1, c2))
        return BiForm(field, a, b, out)

    # -- equality, repr --------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiForm)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"BiForm({self.field!r}, {self.a}, {self.b}, {self.coeffs})"
