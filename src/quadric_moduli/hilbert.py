"""Hilbert-polynomial calculus on the quadric surface.

Numerical Hilbert polynomials P(m, n) of sheaves twisted by O(m, n) live in
a polynomial ring in two variables with rational coefficients.  The line
bundle O(a, b) has P(m, n) = (m + a + 1)(n + b + 1); a locally free
resolution by direct sums of line bundles determines the Hilbert polynomial
of the resolved sheaf through the alternating sum over its terms.  Nothing
here touches sheaves directly: the module is exact polynomial bookkeeping.
"""

from __future__ import annotations

from fractions import Fraction

#: Hard cap on the degree in each variable.  Products of the linear factors
#: occurring in resolutions on a surface never exceed it; exceeding it means
#: the input is not one of the objects this package handles.
MAX_DEGREE = 4


class BiPoly:
    """Exact polynomial in the two Hilbert variables (m, n).

    The coefficient grid is trimmed and immutable: grid[i][j] is the
    coefficient of m^i n^j as a Fraction.
    """

    __slots__ = ("grid",)

    def __init__(self, grid):
        rows = [[c if type(c) is Fraction else Fraction(c) for c in row] for row in grid]
        width = max((len(r) for r in rows), default=0)
        for r in rows:
            r.extend([Fraction(0)] * (width - len(r)))
        while rows and all(c == 0 for c in rows[-1]):
            rows.pop()
        while rows and all(row[-1] == 0 for row in rows):
            for row in rows:
                row.pop()
        if len(rows) - 1 > MAX_DEGREE or (rows and len(rows[0]) - 1 > MAX_DEGREE):
            raise ValueError(f"degree bound {MAX_DEGREE} per variable exceeded")
        self.grid = tuple(tuple(row) for row in rows)

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "BiPoly":
        return cls([])

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls([[c]])

    @classmethod
    def m(cls) -> "BiPoly":
        return cls([[0], [1]])

    @classmethod
    def n(cls) -> "BiPoly":
        return cls([[0, 1]])

    # -- inspection ------------------------------------------------------

    @property
    def deg_m(self) -> int:
        return len(self.grid) - 1 if self.grid else 0

    @property
    def deg_n(self) -> int:
        return len(self.grid[0]) - 1 if self.grid else 0

    @property
    def is_zero(self) -> bool:
        return not self.grid

    def coeff(self, i: int, j: int) -> Fraction:
        if i < len(self.grid) and j < len(self.grid[i]):
            return self.grid[i][j]
        return Fraction(0)

    def eval(self, m0, n0) -> Fraction:
        m0, n0 = Fraction(m0), Fraction(n0)
        total = Fraction(0)
        for i, row in enumerate(self.grid):
            for j, c in enumerate(row):
                if c:
                    total += c * m0**i * n0**j
        return total

    # -- arithmetic ------------------------------------------------------

    def _binop(self, other, op):
        other = other if isinstance(other, BiPoly) else BiPoly.const(other)
        rows = max(len(self.grid), len(other.grid))
        out = [[op(self.coeff(i, j), other.coeff(i, j))
                for j in range(max(self.deg_n, other.deg_n) + 1)]
               for i in range(rows)]
        return BiPoly(out)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return BiPoly.const(other) - self

    def __neg__(self):
        return BiPoly([[-c for c in row] for row in self.grid])

    def __mul__(self, other):
        if not isinstance(other, BiPoly):
            return BiPoly([[c * Fraction(other) for c in row] for row in self.grid])
        if self.is_zero or other.is_zero:
            return BiPoly.zero()
        out = [[Fraction(0)] * (self.deg_n + other.deg_n + 1)
               for _ in range(self.deg_m + other.deg_m + 1)]
        for i1, row1 in enumerate(self.grid):
            for j1, c1 in enumerate(row1):
                if not c1:
                    continue
                for i2, row2 in enumerate(other.grid):
                    for j2, c2 in enumerate(row2):
                        if c2:
                            out[i1 + i2][j1 + j2] += c1 * c2
        return BiPoly(out)

    def __rmul__(self, other):
        return self * other

    # -- equality and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = BiPoly.const(other)
        return isinstance(other, BiPoly) and self.grid == other.grid

    def __hash__(self) -> int:
        return hash(self.grid)

    def __str__(self) -> str:
        terms = []
        indices = [(i, j) for i, row in enumerate(self.grid)
                   for j, c in enumerate(row) if c]
        indices.sort(key=lambda ij: (-(ij[0] + ij[1]), -ij[0]))
        for i, j in indices:
            c = self.grid[i][j]
            body = ""
            if i:
                body += "m" if i == 1 else f"m^{i}"
            if j:
                body += "n" if j == 1 else f"n^{j}"
            if not body:
                part = str(c)
            elif c == 1:
                part = body
            elif c == -1:
                part = f"-{body}"
            else:
                part = f"{c}{body}"
            terms.append(part)
        if not terms:
            return "0"
        text = terms[0]
        for part in terms[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    def to_json(self) -> dict:
        rows = []
        for row in self.grid:
            rows.append([int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
                         for c in row])
        return {"coeffs": rows, "display": str(self)}

    @classmethod
    def from_json(cls, data: dict) -> "BiPoly":
        return cls([[Fraction(c) for c in row] for row in data["coeffs"]])


class ResolutionSpec:
    """Line-bundle summands of a resolution, one tuple of (a, b) labels per
    homological position; position 0 is the term surjecting onto the sheaf.
    Immutable, compared and hashed by its positions.  A plain class: the
    dataclasses module would cost the betti and hilbert commands a third of
    their imports."""

    __slots__ = ("positions",)
    positions: tuple[tuple[tuple[int, int], ...], ...]

    def __init__(self, positions):
        if not positions:
            raise ValueError("a resolution needs at least one position")
        canon = []
        for pos in positions:
            if not pos:
                raise ValueError("every homological position needs at least one summand")
            canon.append(tuple((int(a), int(b)) for a, b in pos))
        object.__setattr__(self, "positions", tuple(canon))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.positions == other.positions

    def __hash__(self) -> int:
        return hash(self.positions)

    def __repr__(self) -> str:
        return f"ResolutionSpec(positions={self.positions!r})"

    @classmethod
    def from_json(cls, data: dict) -> "ResolutionSpec":
        if not isinstance(data, dict) or "positions" not in data:
            raise ValueError('resolution JSON must be an object with a "positions" key')
        positions = data["positions"]
        if not isinstance(positions, list) or not all(isinstance(p, list) for p in positions):
            raise ValueError('"positions" must be a list of lists of [a, b] labels')
        for pos in positions:
            for label in pos:
                if not (isinstance(label, list) and len(label) == 2
                        and all(type(c) is int for c in label)):  # rejects bools
                    raise ValueError(f"bad line-bundle label {label!r}; expected [a, b]")
        return cls(tuple(tuple(tuple(label) for label in pos) for pos in positions))


def _line_grid(a: int, b: int) -> tuple[int, int, int, int]:
    """Integer coefficients (1, n, m, mn) of (m + a + 1)(n + b + 1)."""
    return (a + 1) * (b + 1), a + 1, b + 1, 1


def hilb_line(a: int, b: int) -> BiPoly:
    """Hilbert polynomial (m + a + 1)(n + b + 1) of the line bundle O(a, b)."""
    c00, c01, c10, c11 = _line_grid(a, b)
    return BiPoly([[c00, c01], [c10, c11]])


def hilb_resolution(res: ResolutionSpec) -> BiPoly:
    """Alternating sum of line-bundle Hilbert polynomials over a resolution."""
    c00 = c01 = c10 = c11 = 0
    for k, position in enumerate(res.positions):
        sign = -1 if k % 2 else 1
        for a, b in position:
            g0, g1, g2, g3 = _line_grid(a, b)
            c00 += sign * g0
            c01 += sign * g1
            c10 += sign * g2
            c11 += sign * g3
    return BiPoly([[c00, c01], [c10, c11]])


def hilb_combination(coeffs, twists, extra: BiPoly) -> BiPoly:
    """extra + sum of coeffs[i] * hilb_line(*twists[i])."""
    coeffs = list(coeffs)
    twists = list(twists)
    if len(coeffs) != len(twists):
        raise ValueError(f"{len(coeffs)} coefficients vs {len(twists)} twists")
    total = extra
    for c, (a, b) in zip(coeffs, twists):
        total = total + Fraction(c) * hilb_line(a, b)
    return total


def twist(P: BiPoly, a: int, b: int) -> BiPoly:
    """P(m + a, n + b), expanded exactly."""
    m_shift = BiPoly.m() + BiPoly.const(a)
    n_shift = BiPoly.n() + BiPoly.const(b)
    m_pows = [BiPoly.const(1)]
    for _ in range(P.deg_m):
        m_pows.append(m_pows[-1] * m_shift)
    n_pows = [BiPoly.const(1)]
    for _ in range(P.deg_n):
        n_pows.append(n_pows[-1] * n_shift)
    total = BiPoly.zero()
    for i, row in enumerate(P.grid):
        for j, c in enumerate(row):
            if c:
                total = total + c * (m_pows[i] * n_pows[j])
    return total


def euler_char(P: BiPoly):
    """P(0, 0); an int when integral, else the exact Fraction."""
    value = P.eval(0, 0)
    return int(value) if value.denominator == 1 else value


def genus(P: BiPoly):
    """Arithmetic genus 1 - chi for the Hilbert polynomial of a structure sheaf."""
    value = 1 - P.eval(0, 0)
    return int(value) if value.denominator == 1 else value
