"""Exact integer polynomials in one variable for Betti-number bookkeeping,
and the closed point-count formulas over F_p.

The Poincare polynomial of a smooth projective variety without odd homology
doubles as its counting polynomial: evaluating at a prime power q gives the
number of points over the field with q elements.  This module provides the
polynomial arithmetic, the projective-space and (by the q-Pascal rule)
Grassmannian polynomials, the five-stratum combination for the moduli space
under study, and the same strata counted directly at a prime: the route
table of the sweeps, keyed by the primes they support, the expected
determinant-locus and orbit counts, and the stratified point count from a
measured determinant-locus total.  It imports nothing, so the Betti and
Hilbert checks run without the sweeps' array engine.
"""

from __future__ import annotations

#: Per supported prime: the routes a sweep runs, without and with --full-oracle,
#: which only adds.  The first is a count route, "kernel" (the rank of the action)
#: or "enumerate" (the fiber join), and the report's method; "raw" is the raw oracle.
SWEEP_ROUTES = {2: (("enumerate", "kernel"), ("enumerate", "kernel", "raw")),
                3: (("enumerate", "kernel"), ("enumerate", "kernel", "raw")),
                5: (("kernel",), ("enumerate", "kernel")),
                7: (("kernel",), ("kernel", "enumerate"))}
#: Primes accepted by the sweep machinery.
SUPPORTED_PRIMES = tuple(SWEEP_ROUTES)


class XiPoly:
    """Dense integer-coefficient polynomial in one variable xi.

    Coefficients are stored ascending (index = degree) with the trailing
    zeros trimmed; arithmetic is exact over the integers.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def monomial(cls, degree: int) -> "XiPoly":
        return cls([0] * degree + [1])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial mapped to -1."""
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def eval(self, q: int) -> int:
        """Exact evaluation by Horner's rule (arbitrary-precision)."""
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def __add__(self, other: "XiPoly") -> "XiPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return XiPoly([self.coeff(k) + other.coeff(k) for k in range(n)])

    def __sub__(self, other: "XiPoly") -> "XiPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return XiPoly([self.coeff(k) - other.coeff(k) for k in range(n)])

    def __mul__(self, other: "XiPoly") -> "XiPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)  # [] if either is zero
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return XiPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, XiPoly) and self.coeffs == other.coeffs


def proj_poincare(n: int) -> XiPoly:
    """Poincare polynomial 1 + xi + ... + xi^n of n-dimensional projective space."""
    if n < 0:
        raise ValueError(f"projective dimension must be nonnegative, got {n}")
    return XiPoly([1] * (n + 1))


def grass_poincare(k: int, n: int) -> XiPoly:
    """Gaussian binomial [n choose k]_xi, the Poincare polynomial of the
    Grassmannian of k-planes in n-space, built row by row by the q-Pascal
    rule [m, j] = [m - 1, j - 1] + xi^j [m - 1, j], with [m, 0] = [m, m] = 1."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    one = XiPoly([1])
    row = [one]
    for m in range(1, n + 1):
        row = [one] + [row[j - 1] + XiPoly.monomial(j) * row[j] for j in range(1, m)] + [one]
    return row[k]


def poincare_moduli() -> XiPoly:
    """Poincare polynomial of the 13-dimensional moduli space, assembled from
    its strata: a P^9-bundle over Grass(2, 4) minus a line and a quadric
    surface, plus the universal (2, 3)-curve, plus a P^11 of twisted
    structure sheaves."""
    p1 = proj_poincare(1)
    return (
        proj_poincare(9) * grass_poincare(2, 4)
        - p1
        - p1 * p1
        + proj_poincare(10) * p1 * p1
        + proj_poincare(11)
    )


def projective_count(p: int, n: int) -> int:
    """Number of points of n-dimensional projective space over F_p."""
    return (p ** (n + 1) - 1) // (p - 1)


def grass_count(p: int) -> int:
    """Number of 2-planes in 4-space over F_p, computed directly."""
    return (p * p + 1) * (p * p + p + 1)


def expected_x_count(p: int) -> int:
    """Points of the determinant locus: a line plus a quadric surface."""
    return (p + 1) + (p + 1) ** 2


def generic_orbit_sizes(p: int) -> dict[int, int]:
    """Number of generic planes with 2, 1 and 0 rank-one lines: the three
    generic GL2 x GL2 orbits, whose lines of P^3 are secant to, tangent to
    and disjoint from the quadric P^1 x P^1."""
    return {2: p * p * (p + 1) ** 2 // 2,
            1: (p - 1) * (p + 1) ** 2,
            0: p * p * (p - 1) ** 2 // 2}


def stratified_moduli_count(p: int, x_count: int) -> int:
    """Point count of the moduli space from its strata: the fiber-bundle
    count minus the det-zero locus, plus the universal-curve stratum, plus
    the projective space of twisted structure sheaves."""
    return (projective_count(p, 9) * grass_count(p)
            - x_count
            + (p + 1) ** 2 * projective_count(p, 10)
            + projective_count(p, 11))
