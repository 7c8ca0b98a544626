"""Hilbert-polynomial calculus on the quadric surface.

Numerical Hilbert polynomials P(m, n) of sheaves twisted by O(m, n).  The
line bundle O(a, b) has P(m, n) = (m + a + 1)(n + b + 1), and a locally
free resolution by direct sums of line bundles, held as a plain tuple of
positions of (a, b) labels, determines the Hilbert polynomial of the
resolved sheaf through the alternating sum over its terms.  Every such
sum is bilinear in (m, n): four integer coefficients, added, subtracted
and scaled, never multiplied together.  Nothing here touches sheaves
directly: the module is exact polynomial bookkeeping.
"""

from __future__ import annotations


class BiPoly:
    """Exact bilinear polynomial c00 + c01*n + c10*m + c11*mn in the two
    Hilbert variables (m, n), with int coefficients."""

    __slots__ = ("c00", "c01", "c10", "c11")

    def __init__(self, c00=0, c01=0, c10=0, c11=0):
        self.c00, self.c01, self.c10, self.c11 = c00, c01, c10, c11

    def coeffs(self) -> tuple[int, int, int, int]:
        return self.c00, self.c01, self.c10, self.c11

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly(*(a + b for a, b in zip(self.coeffs(), other.coeffs())))

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly(*(a - b for a, b in zip(self.coeffs(), other.coeffs())))

    def __mul__(self, scalar) -> "BiPoly":
        return BiPoly(*(c * scalar for c in self.coeffs()))

    __rmul__ = __mul__

    # -- equality and display ---------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self.coeffs() == other.coeffs()

    def __str__(self) -> str:
        terms = []
        for c, body in ((self.c11, "mn"), (self.c10, "m"), (self.c01, "n"), (self.c00, "")):
            if not c:
                continue
            if not body:
                terms.append(str(c))
            elif c == 1:
                terms.append(body)
            elif c == -1:
                terms.append(f"-{body}")
            else:
                terms.append(f"{c}{body}")
        if not terms:
            return "0"
        text = terms[0]
        for part in terms[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text

    def __repr__(self) -> str:
        return f"BiPoly({self})"

    def to_json(self) -> dict:
        """{"coeffs": grid, "display": str}: grid[i][j] is the coefficient of
        m^i n^j, with zero trailing rows and columns trimmed."""
        rows = [[self.c00, self.c01], [self.c10, self.c11]]
        while rows and not any(rows[-1]):
            rows.pop()
        if not any(row[-1] for row in rows):
            rows = [row[:1] for row in rows]
        return {"coeffs": rows, "display": str(self)}

    @classmethod
    def from_json(cls, data: dict) -> "BiPoly":
        """Inverse of to_json, a row or column left out being zero; ValueError
        unless the grid is at most two lists of at most two JSON integers."""
        grid = data["coeffs"]
        if not isinstance(grid, list) or len(grid) > 2 or any(len(int_list(r)) > 2 for r in grid):
            raise ValueError("a coefficient grid is at most two lists of at most two integers")
        rows = [row + [0] * (2 - len(row)) for row in grid]
        (c00, c01), (c10, c11) = rows + [[0, 0]] * (2 - len(rows))
        return cls(c00, c01, c10, c11)


def int_list(value, length=None) -> list:
    """value, if it is a list of JSON integers (not booleans), of the given
    length if one is given; ValueError otherwise."""
    if not (isinstance(value, list) and length in (None, len(value))
            and all(type(c) is int for c in value)):
        raise ValueError("expected a list of integers")
    return value


def resolution(positions) -> tuple[tuple[tuple[int, int], ...], ...]:
    """A resolution's line-bundle summands as a canonical tuple, one tuple of
    (a, b) labels per homological position, where position 0 is the term
    surjecting onto the sheaf; ValueError unless every position has one."""
    if not positions or not all(positions):
        raise ValueError("a resolution needs at least one position, each with a summand")
    return tuple(tuple((int(a), int(b)) for a, b in pos) for pos in positions)


def resolution_from_json(data: dict) -> tuple[tuple[tuple[int, int], ...], ...]:
    """resolution() of a {"positions": [[[a, b], ...], ...]} object, whose
    labels must be pairs of JSON integers; ValueError otherwise."""
    if not isinstance(data, dict) or "positions" not in data:
        raise ValueError('resolution JSON must be an object with a "positions" key')
    positions = data["positions"]
    if not isinstance(positions, list) or not all(isinstance(p, list) for p in positions):
        raise ValueError('"positions" must be a list of lists of [a, b] labels')
    for label in [label for pos in positions for label in pos]:
        if not (isinstance(label, list) and len(label) == 2
                and all(type(c) is int for c in label)):  # rejects bools
            raise ValueError(f"bad line-bundle label {label!r}; expected [a, b]")
    return resolution(positions)


def hilb_line(a: int, b: int) -> BiPoly:
    """Hilbert polynomial (m + a + 1)(n + b + 1) of the line bundle O(a, b)."""
    return BiPoly((a + 1) * (b + 1), a + 1, b + 1, 1)


def hilb_resolution(positions) -> BiPoly:
    """Alternating sum of line-bundle Hilbert polynomials over the positions
    of a resolution, as resolution() gives them."""
    return sum(((-1) ** k * hilb_line(a, b)
                for k, position in enumerate(positions) for a, b in position), BiPoly())


def hilb_combination(coeffs, twists, extra: BiPoly) -> BiPoly:
    """extra + sum of coeffs[i] * hilb_line(*twists[i]); ValueError unless
    there is one coefficient per twist."""
    return sum((c * hilb_line(a, b) for c, (a, b) in zip(coeffs, twists, strict=True)), extra)


def twist(P: BiPoly, a: int, b: int) -> BiPoly:
    """P(m + a, n + b), whose constant coefficient is the value P(a, b)."""
    return BiPoly(P.c00 + b * P.c01 + a * P.c10 + a * b * P.c11,
                  P.c01 + a * P.c11, P.c10 + b * P.c11, P.c11)


def euler_char(P: BiPoly) -> int:
    """P(0, 0), the constant coefficient."""
    return P.c00


def genus(P: BiPoly) -> int:
    """Arithmetic genus 1 - chi for the Hilbert polynomial of a structure sheaf."""
    return 1 - euler_char(P)
