"""Bihomogeneous forms on the quadric surface and 2 x 2 matrices of them.

A form of bidegree (a, b) is homogeneous of degree a in the first-factor
coordinates {x, y} and of degree b in the second-factor coordinates {z, w}.
Coefficients are stored densely in a fixed monomial order, x-degree-major
and then z-degree:

    coeffs[i*(b+1) + j]  <->  coefficient of  x^(a-i) y^i z^(b-j) w^j

This layout is shared by every module in the package.  Linear forms on the two factors are the bidegree
(1, 0) and (0, 1) special cases, so products like f * (1 tensor u) are
ordinary form multiplication.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from . import linalg


class BiForm:
    """Dense bihomogeneous form of bidegree (a, b) over an exact field."""

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
    def from_terms(cls, field, a: int, b: int, terms: dict) -> "BiForm":
        """Build from a {(i, j): coefficient} dict in the fixed layout."""
        coeffs = [field.zero] * ((a + 1) * (b + 1))
        for (i, j), c in terms.items():
            if not (0 <= i <= a and 0 <= j <= b):
                raise ValueError(f"term index ({i}, {j}) out of range for bidegree ({a}, {b})")
            coeffs[i * (b + 1) + j] = field.canon(c)
        return cls(field, a, b, coeffs)

    @classmethod
    def linear_xy(cls, field, cx, cy) -> "BiForm":
        """cx*x + cy*y as a bidegree (1, 0) form."""
        return cls(field, 1, 0, (cx, cy))

    @classmethod
    def linear_zw(cls, field, cz, cw) -> "BiForm":
        """cz*z + cw*w as a bidegree (0, 1) form."""
        return cls(field, 0, 1, (cz, cw))

    # -- inspection ------------------------------------------------------

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.a, self.b)

    @property
    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(c == zero for c in self.coeffs)

    def coeff(self, i: int, j: int):
        return self.coeffs[i * (self.b + 1) + j]

    def terms(self):
        """Yield ((i, j), coefficient) for each nonzero (truthy) coefficient."""
        width = self.b + 1
        for idx, c in enumerate(self.coeffs):
            if c:
                yield divmod(idx, width), c

    # -- arithmetic ------------------------------------------------------

    def _check_compatible(self, other: "BiForm"):
        if self.field != other.field:
            raise ValueError(f"field mismatch: {self.field} vs {other.field}")
        if (self.a, self.b) != (other.a, other.b):
            raise ValueError(f"bidegree mismatch: {(self.a, self.b)} vs {(other.a, other.b)}")

    def __add__(self, other: "BiForm") -> "BiForm":
        self._check_compatible(other)
        add = self.field.add
        return BiForm(self.field, self.a, self.b, tuple(map(add, self.coeffs, other.coeffs)))

    def __sub__(self, other: "BiForm") -> "BiForm":
        self._check_compatible(other)
        sub = self.field.sub
        return BiForm(self.field, self.a, self.b, tuple(map(sub, self.coeffs, other.coeffs)))

    def __neg__(self) -> "BiForm":
        neg = self.field.neg
        return BiForm(self.field, self.a, self.b, tuple(map(neg, self.coeffs)))

    def scale(self, c) -> "BiForm":
        c = self.field.canon(c)
        mul = self.field.mul
        return BiForm(self.field, self.a, self.b, tuple(mul(c, v) for v in self.coeffs))

    def __mul__(self, other):
        if not isinstance(other, BiForm):
            return self.scale(other)
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

    def __rmul__(self, other) -> "BiForm":
        return self.scale(other)

    # -- equality, display -----------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BiForm)
            and self.field == other.field
            and self.a == other.a
            and self.b == other.b
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.a, self.b, self.coeffs))

    def __str__(self) -> str:
        parts = []
        for (i, j), c in self.terms():
            factors = []
            for var, exp in (("x", self.a - i), ("y", i), ("z", self.b - j), ("w", j)):
                if exp == 1:
                    factors.append(var)
                elif exp > 1:
                    factors.append(f"{var}^{exp}")
            if not factors:
                parts.append(str(c))
            elif c == self.field.one:
                parts.append("*".join(factors))
            else:
                parts.append("*".join([str(c)] + factors))
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"BiForm({self.field!r}, ({self.a}, {self.b}), {self})"


# -- forms and 2 x 2 matrices of forms -------------------------------------


def linearly_independent(f: BiForm, g: BiForm) -> bool:
    """Whether two forms of equal bidegree are linearly independent."""
    f._check_compatible(g)
    return linalg.rank(f.field, [list(f.coeffs), list(g.coeffs)]) == 2


def rank1_test(f: BiForm):
    """Split a (1, 1) form into a pure tensor v1*v2, if it is one.

    Returns (v1, v2) with v1 of bidegree (1, 0), v2 of bidegree (0, 1),
    v1 normalized to leading coefficient one and v1*v2 == f exactly.
    Returns None when f is not a pure tensor, i.e. when the 2 x 2
    coefficient matrix of f has nonzero determinant.
    """
    if f.bidegree != (1, 1):
        raise ValueError(f"rank-1 test needs bidegree (1, 1), got {f.bidegree}")
    if f.is_zero:
        raise ValueError("rank-1 test is undefined for the zero form")
    field = f.field
    c_xz, c_xw, c_yz, c_yw = f.coeffs
    det = field.sub(field.mul(c_xz, c_yw), field.mul(c_xw, c_yz))
    if det != field.zero:
        return None
    if c_xz != field.zero or c_xw != field.zero:
        ratio = field.div(c_yz, c_xz) if c_xz != field.zero else field.div(c_yw, c_xw)
        v1 = BiForm.linear_xy(field, field.one, ratio)
        v2 = BiForm.linear_zw(field, c_xz, c_xw)
    else:
        v1 = BiForm.linear_xy(field, field.zero, field.one)
        v2 = BiForm.linear_zw(field, c_yz, c_yw)
    return v1, v2


def mul_right_linear(f: BiForm, u: BiForm) -> BiForm:
    """f * (1 tensor u) for a linear form u on the second factor."""
    if u.bidegree != (0, 1):
        raise ValueError(f"right factor must have bidegree (0, 1), got {u.bidegree}")
    return f * u


class PhiMatrix:
    """2 x 2 matrix with first-column entries of bidegree (1, 2) and
    second-column entries of bidegree (1, 1), the shape occurring in the
    two-generator resolutions of the sheaves under study."""

    __slots__ = ("phi11", "phi12", "phi21", "phi22")

    def __init__(self, phi11: BiForm, phi12: BiForm, phi21: BiForm, phi22: BiForm):
        entries = {"phi11": (phi11, (1, 2)), "phi12": (phi12, (1, 1)),
                   "phi21": (phi21, (1, 2)), "phi22": (phi22, (1, 1))}
        field = phi11.field
        for name, (entry, expected) in entries.items():
            if entry.bidegree != expected:
                raise ValueError(f"{name} must have bidegree {expected}, got {entry.bidegree}")
            if entry.field != field:
                raise ValueError("all entries must share one field")
        self.phi11 = phi11
        self.phi12 = phi12
        self.phi21 = phi21
        self.phi22 = phi22

    @property
    def field(self):
        return self.phi11.field

    def det(self) -> BiForm:
        return self.phi11 * self.phi22 - self.phi21 * self.phi12

    def is_admissible(self) -> bool:
        """Second column linearly independent and the first column not a
        common right multiple of it (no u with phi_i1 = phi_i2 * (1 tensor u))."""
        if not linearly_independent(self.phi12, self.phi22):
            return False
        return factorization_test(self) is None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PhiMatrix)
            and self.phi11 == other.phi11
            and self.phi12 == other.phi12
            and self.phi21 == other.phi21
            and self.phi22 == other.phi22
        )

    def __hash__(self) -> int:
        return hash((self.phi11, self.phi12, self.phi21, self.phi22))

    def __repr__(self) -> str:
        return f"PhiMatrix([[{self.phi11}, {self.phi12}], [{self.phi21}, {self.phi22}]])"


def det2(phi: PhiMatrix) -> BiForm:
    """phi11*phi22 - phi21*phi12, a form of bidegree (2, 3)."""
    return phi.det()


def factorization_test(phi: PhiMatrix):
    """The unique linear form u with phi11 = phi12*(1 tensor u) and
    phi21 = phi22*(1 tensor u), or None when no such u exists.

    Requires the second column to be linearly independent; uniqueness then
    follows from phi12 != 0.  Solves the 12-equation linear system in the
    two coefficients of u.
    """
    field = phi.field
    if not linearly_independent(phi.phi12, phi.phi22):
        raise ValueError("second column must be linearly independent")
    ez = BiForm.linear_zw(field, field.one, field.zero)
    ew = BiForm.linear_zw(field, field.zero, field.one)
    col_z = (phi.phi12 * ez).coeffs + (phi.phi22 * ez).coeffs
    col_w = (phi.phi12 * ew).coeffs + (phi.phi22 * ew).coeffs
    rhs = phi.phi11.coeffs + phi.phi21.coeffs
    rows = [[cz, cw] for cz, cw in zip(col_z, col_w)]
    solution = linalg.solve(field, rows, rhs)
    if solution is None:
        return None
    return BiForm.linear_zw(field, solution[0], solution[1])
