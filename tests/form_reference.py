"""Field and form reference code that only the tests call.

The commands build their tables from BiForm products over the integers ZZ
and reduce them mod p in arrays.  The tests also need the fields: the
rationals and the prime fields GF(p), the rest of the form arithmetic, and
the 2 x 2 matrices of forms with their determinant, rank-one and
factorization tests, one form at a time.
"""

import functools
from fractions import Fraction

from quadric_moduli import linalg
from quadric_moduli.biform import BiForm


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

    def __repr__(self) -> str:
        return f"GF({self.p})"


#: The prime field with p elements: one shared PrimeField per p.
GF = functools.cache(PrimeField)


class Rationals:
    """The rationals with exact Fraction arithmetic."""

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
        return isinstance(other, Rationals)

    def __repr__(self) -> str:
        return "QQ"


#: The rationals as the tests use them.
QQ = Rationals()


# -- form arithmetic beyond products -------------------------------------------


def from_terms(field, a: int, b: int, terms: dict) -> BiForm:
    """Build from a {(i, j): coefficient} dict in the fixed layout."""
    coeffs = [field.zero] * ((a + 1) * (b + 1))
    for (i, j), c in terms.items():
        if not (0 <= i <= a and 0 <= j <= b):
            raise ValueError(f"term index ({i}, {j}) out of range for bidegree ({a}, {b})")
        coeffs[i * (b + 1) + j] = field.canon(c)
    return BiForm(field, a, b, coeffs)


def linear_xy(field, cx, cy) -> BiForm:
    """cx*x + cy*y as a bidegree (1, 0) form."""
    return BiForm(field, 1, 0, (cx, cy))


def is_zero(f: BiForm) -> bool:
    return not any(f.coeffs)


def _check_compatible(f: BiForm, g: BiForm):
    if f.field != g.field:
        raise ValueError(f"field mismatch: {f.field} vs {g.field}")
    if (f.a, f.b) != (g.a, g.b):
        raise ValueError(f"bidegree mismatch: {(f.a, f.b)} vs {(g.a, g.b)}")


def add(f: BiForm, g: BiForm) -> BiForm:
    _check_compatible(f, g)
    return BiForm(f.field, f.a, f.b, tuple(map(f.field.add, f.coeffs, g.coeffs)))


def sub(f: BiForm, g: BiForm) -> BiForm:
    _check_compatible(f, g)
    return BiForm(f.field, f.a, f.b, tuple(map(f.field.sub, f.coeffs, g.coeffs)))


def scale(f: BiForm, c) -> BiForm:
    c = f.field.canon(c)
    return BiForm(f.field, f.a, f.b, tuple(f.field.mul(c, v) for v in f.coeffs))


# -- forms and 2 x 2 matrices of forms -------------------------------------------


def linearly_independent(f: BiForm, g: BiForm) -> bool:
    """Whether two forms of equal bidegree are linearly independent."""
    _check_compatible(f, g)
    return linalg.rank(f.field, [list(f.coeffs), list(g.coeffs)]) == 2


def rank1_test(f: BiForm):
    """Split a (1, 1) form into a pure tensor v1*v2, if it is one.

    Returns (v1, v2) with v1 of bidegree (1, 0), v2 of bidegree (0, 1),
    v1 normalized to leading coefficient one and v1*v2 == f exactly.
    Returns None when f is not a pure tensor, i.e. when the 2 x 2
    coefficient matrix of f has nonzero determinant.
    """
    if (f.a, f.b) != (1, 1):
        raise ValueError(f"rank-1 test needs bidegree (1, 1), got {(f.a, f.b)}")
    if is_zero(f):
        raise ValueError("rank-1 test is undefined for the zero form")
    field = f.field
    c_xz, c_xw, c_yz, c_yw = f.coeffs
    det = field.sub(field.mul(c_xz, c_yw), field.mul(c_xw, c_yz))
    if det != field.zero:
        return None
    if c_xz != field.zero or c_xw != field.zero:
        ratio = field.div(c_yz, c_xz) if c_xz != field.zero else field.div(c_yw, c_xw)
        v1 = linear_xy(field, field.one, ratio)
        v2 = BiForm.linear_zw(field, c_xz, c_xw)
    else:
        v1 = linear_xy(field, field.zero, field.one)
        v2 = BiForm.linear_zw(field, c_yz, c_yw)
    return v1, v2


def mul_right_linear(f: BiForm, u: BiForm) -> BiForm:
    """f * (1 tensor u) for a linear form u on the second factor."""
    if (u.a, u.b) != (0, 1):
        raise ValueError(f"right factor must have bidegree (0, 1), got {(u.a, u.b)}")
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
            bidegree = (entry.a, entry.b)
            if bidegree != expected:
                raise ValueError(f"{name} must have bidegree {expected}, got {bidegree}")
            if entry.field != field:
                raise ValueError("all entries must share one field")
        self.phi11 = phi11
        self.phi12 = phi12
        self.phi21 = phi21
        self.phi22 = phi22

    @property
    def field(self):
        return self.phi11.field

    def is_admissible(self) -> bool:
        """Second column linearly independent and the first column not a
        common right multiple of it (no u with phi_i1 = phi_i2 * (1 tensor u))."""
        if not linearly_independent(self.phi12, self.phi22):
            return False
        return factorization_test(self) is None


def det2(phi: PhiMatrix) -> BiForm:
    """phi11*phi22 - phi21*phi12, a form of bidegree (2, 3)."""
    return sub(phi.phi11 * phi.phi22, phi.phi21 * phi.phi12)


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
