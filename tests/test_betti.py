import itertools

import pytest
import sympy

from quadric_moduli.betti import XiPoly, grass_poincare, poincare_moduli, proj_poincare

MODULI_COEFFS_DESC = [1, 3, 8, 10, 11, 11, 11, 11, 11, 11, 10, 8, 3, 1]


def count_projective_points(n: int, q: int) -> int:
    """Direct count of P^n(F_q): enumerate representatives with first
    nonzero coordinate one."""
    total = 0
    for vec in itertools.product(range(q), repeat=n + 1):
        nonzero = [c for c in vec if c]
        if nonzero and next(c for c in vec if c) == 1:
            total += 1
    return total


# -- projective spaces -----------------------------------------------------------

def test_proj_poincare_examples():
    assert proj_poincare(0) == XiPoly([1])
    assert proj_poincare(9) == XiPoly([1] * 10)
    assert proj_poincare(11) == XiPoly([1] * 12)
    # geometric-series identities: (xi^(n+1) - 1) = proj(n) * (xi - 1)
    for n in (9, 11):
        product = proj_poincare(n) * (XiPoly.monomial(1) - XiPoly([1]))
        assert product == XiPoly.monomial(n + 1) - XiPoly([1])
    with pytest.raises(ValueError):
        proj_poincare(-1)


def test_proj_products_count_points_of_products():
    for a, b in itertools.product(range(4), repeat=2):
        P = proj_poincare(a) * proj_poincare(b)
        for q in (2, 3):
            expected = count_projective_points(a, q) * count_projective_points(b, q)
            assert P.eval(q) == expected


# -- Gaussian binomials ------------------------------------------------------------

def test_grass_poincare_examples():
    assert grass_poincare(2, 4) == XiPoly([1, 1, 2, 1, 1])
    assert grass_poincare(0, 5) == XiPoly([1])
    assert grass_poincare(1, 2) == XiPoly([1, 1])
    with pytest.raises(ValueError):
        grass_poincare(3, 2)
    with pytest.raises(ValueError):
        grass_poincare(-1, 2)


def test_grass_duality():
    for n in range(7):
        for k in range(n + 1):
            assert grass_poincare(k, n) == grass_poincare(n - k, n)


def test_grass24_point_count_closed_form():
    for q in (2, 3, 4, 5, 7):
        assert grass_poincare(2, 4).eval(q) == (q * q + 1) * (q * q + q + 1)


def test_grass_pascal_recursion():
    # [n k]_xi = [n-1 k-1]_xi + xi^k [n-1 k]_xi: the rule grass_poincare is built
    # by, so this pins the definition; test_locus's Schubert-cell census is the
    # route that shares no code with it
    for n in range(1, 7):
        for k in range(1, n):
            lhs = grass_poincare(k, n)
            rhs = grass_poincare(k - 1, n - 1) + XiPoly.monomial(k) * grass_poincare(k, n - 1)
            assert lhs == rhs


# -- the moduli polynomial -----------------------------------------------------------

def test_poincare_moduli_coefficients():
    P = poincare_moduli()
    assert P.degree == 13
    coeffs_desc = [P.coeff(k) for k in range(13, -1, -1)]
    assert coeffs_desc == MODULI_COEFFS_DESC


def test_poincare_moduli_euler_and_palindrome():
    P = poincare_moduli()
    assert P.eval(1) == 110
    coeffs = list(P.coeffs)
    assert coeffs == coeffs[::-1]


def test_poincare_moduli_against_symbolic_route():
    # independent closed-form assembly with geometric series quotients
    xi = sympy.symbols("xi")
    expr = (
        sympy.quo(xi**10 - 1, xi - 1) * (xi**4 + xi**3 + 2 * xi**2 + xi + 1)
        - (xi + 1)
        - (xi + 1) ** 2
        + sympy.quo(xi**11 - 1, xi - 1) * (xi + 1) ** 2
        + sympy.quo(xi**12 - 1, xi - 1)
    )
    oracle = sympy.Poly(sympy.expand(expr), xi).all_coeffs()
    assert [int(c) for c in oracle] == MODULI_COEFFS_DESC


def test_eval_at_examples():
    assert poincare_moduli().eval(1) == 110
    assert proj_poincare(9).eval(2) == 1023
    assert poincare_moduli().eval(2) == 58311
    assert poincare_moduli().eval(3) == 5520988


def test_eval_at_is_big_integer_safe():
    value = poincare_moduli().eval(7)
    assert value > 2**32
    assert value == sum(c * 7**k for k, c in enumerate(poincare_moduli().coeffs))


# -- the XiPoly type -----------------------------------------------------------------

def test_xipoly_arithmetic():
    p = XiPoly([1, 2])
    q = XiPoly([0, 1, 1])
    assert p + q == XiPoly([1, 3, 1])
    assert p - p == XiPoly()
    assert p * q == XiPoly([0, 1, 3, 2])
    assert p * XiPoly() == XiPoly() * p == XiPoly()
    assert XiPoly([1, 0, 0]).degree == 0
    assert XiPoly().degree == -1

