import itertools
import random

import pytest
import sympy

from quadric_moduli.hilbert import (
    BiPoly, euler_char, genus, hilb_combination, hilb_line, hilb_resolution, resolution,
    resolution_from_json, twist,
)

# the four monomials of a bilinear polynomial, from explicit coefficients
ONE, N, M, MN = BiPoly(c00=1), BiPoly(c01=1), BiPoly(c10=1), BiPoly(c11=1)

MODULI_POLY = 3 * M + 2 * N + 2 * ONE

RES_OPEN = resolution((((0, 0), (0, 0)), ((-1, -2), (-1, -1))))
RES_EXTENSION = resolution((((-1, -1), (0, 1)), ((-2, -1), (-1, -2))))
RES_CURVE23 = resolution((((0, 0),), ((-2, -3),)))

SM, SN = sympy.symbols("m n")


def to_sympy(P: BiPoly):
    c00, c01, c10, c11 = map(sympy.Rational, P.coeffs())
    return sympy.expand(c00 + c01 * SN + c10 * SM + c11 * SM * SN)


# -- line bundles -------------------------------------------------------------

def test_hilb_line_examples():
    assert hilb_line(0, 0) == MN + M + N + ONE  # (m + 1)(n + 1)
    assert hilb_line(-1, -1) == MN
    assert hilb_line(-2, -3) == MN - 2 * M - N + 2 * ONE  # (m - 1)(n - 2)
    for a, b in itertools.product(range(-3, 4), repeat=2):
        assert to_sympy(hilb_line(a, b)) == sympy.expand((SM + a + 1) * (SN + b + 1))


def test_twist_compatibility_grid():
    base = hilb_line(0, 0)
    for a, b in itertools.product(range(-3, 4), repeat=2):
        assert hilb_line(a, b) == twist(base, a, b)


# -- resolutions ---------------------------------------------------------------

def test_both_moduli_resolutions_agree():
    assert hilb_resolution(RES_OPEN) == MODULI_POLY
    assert hilb_resolution(RES_EXTENSION) == MODULI_POLY
    assert hilb_resolution(RES_OPEN) == hilb_resolution(RES_EXTENSION)
    assert euler_char(hilb_resolution(RES_OPEN)) == 2


@pytest.mark.parametrize("r", range(5))
def test_section_family(r):
    res = resolution((((0, 0),), ((-1, -r),)))
    assert hilb_resolution(res) == r * M + N + ONE


def test_curve23_structure_sheaf():
    P = hilb_resolution(RES_CURVE23)
    assert P == 3 * M + 2 * N - ONE
    assert P == hilb_line(0, 0) - hilb_line(-2, -3)  # independent route
    assert euler_char(P) == -1
    assert genus(P) == 2


def test_alternating_sum_matches_direct_loop():
    rng = random.Random(5)
    for _ in range(50):
        positions = tuple(
            tuple((rng.randint(-3, 2), rng.randint(-3, 2))
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 4)))
        res = resolution(positions)
        expected = BiPoly()
        for k, pos in enumerate(positions):
            for a, b in pos:
                term = hilb_line(a, b)
                expected = expected + ((-1) ** k) * term
        assert hilb_resolution(res) == expected


def test_null_pair_insertion_keeps_value():
    # appending the same summand list at two consecutive tail positions
    # contributes (+S) + (-S) = 0 to the alternating sum
    rng = random.Random(11)
    for _ in range(30):
        positions = [
            tuple((rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(rng.randint(1, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        extra = tuple((rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(rng.randint(1, 2)))
        base = hilb_resolution(resolution(tuple(positions)))
        padded = hilb_resolution(resolution(tuple(positions) + (extra, extra)))
        assert base == padded


# -- combinations ----------------------------------------------------------------

def test_combination_for_auxiliary_cokernel():
    result = hilb_combination([3, -2], [(-1, -1), (0, 0)], MODULI_POLY)
    assert result == MN + M
    assert result == hilb_line(-1, 0)


def test_combination_single_line_bundle():
    assert hilb_combination([1], [(-1, 0)], BiPoly()) == MN + M  # m(n + 1)


def test_combination_length_mismatch():
    with pytest.raises(ValueError):
        hilb_combination([1, 2], [(0, 0)], BiPoly())


# -- twisting ---------------------------------------------------------------------

def test_twist_examples():
    curve = 3 * M + 2 * N - ONE
    assert twist(curve, 1, 0) == MODULI_POLY
    assert twist(curve, 0, 1) == 3 * M + 2 * N + ONE
    assert twist(MODULI_POLY, 0, 0) == MODULI_POLY


def test_twist_against_symbolic_substitution():
    rng = random.Random(17)
    for _ in range(40):
        P = BiPoly(*(rng.randint(-3, 3) for _ in range(4)))
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        shifted = twist(P, a, b)
        oracle = sympy.expand(to_sympy(P).subs({SM: SM + a, SN: SN + b}, simultaneous=True))
        assert to_sympy(shifted) == oracle


# -- euler characteristic and genus -------------------------------------------------

def test_euler_and_genus():
    assert euler_char(MODULI_POLY) == 2
    assert euler_char(BiPoly()) == 0
    assert euler_char(BiPoly(-7, 1, 2, 3)) == -7
    assert genus(3 * M + 2 * N - ONE) == 2


def test_integer_valuedness_on_grid():
    batteries = [hilb_resolution(RES_OPEN), hilb_resolution(RES_EXTENSION),
                 hilb_resolution(RES_CURVE23),
                 hilb_combination([3, -2], [(-1, -1), (0, 0)], MODULI_POLY)]
    batteries += [hilb_line(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for P in batteries:
        for m0, n0 in itertools.product(range(-3, 4), repeat=2):
            value = twist(P, m0, n0).c00  # P(m0, n0)
            assert type(value) is int


def test_values_off_the_origin_by_hand():
    # P(m0, n0) as the constant coefficient of twist(P, m0, n0), against the
    # polynomials written out by hand on the grid -3..3
    for m0, n0 in itertools.product(range(-3, 4), repeat=2):
        assert twist(MODULI_POLY, m0, n0).c00 == 3 * m0 + 2 * n0 + 2
        for a, b in ((0, 0), (-1, -1), (-2, -3), (1, -2), (3, 2)):
            assert twist(hilb_line(a, b), m0, n0).c00 == (m0 + a + 1) * (n0 + b + 1)


# -- the BiPoly type -----------------------------------------------------------------

def test_bipoly_arithmetic_and_trimming():
    assert M - M == BiPoly()
    P = MN + M + N + ONE
    assert P.coeffs() == (1, 1, 1, 1)
    assert P - P == BiPoly()
    assert 2 * P == P + P == P * 2
    assert -3 * P == BiPoly(*[-3] * 4)
    assert P == P + BiPoly()
    # to_json trims zero trailing rows and columns of the 2 x 2 grid
    assert [P.to_json()["coeffs"] for P in (BiPoly(), ONE, N, M, MN, MODULI_POLY)] == [
        [], [[1]], [[0, 1]], [[0], [1]], [[0, 0], [0, 1]], [[2, 2], [3, 0]]]


def test_bipoly_display():
    assert str(MODULI_POLY) == "3m + 2n + 2"
    assert str(3 * M + 2 * N - ONE) == "3m + 2n - 1"
    assert str(MN + M) == "mn + m"
    assert str(2 * N - MN) == "-mn + 2n"
    assert str(-3 * MN - M) == "-3mn - m"
    assert str(BiPoly()) == "0"
    assert str(BiPoly(5)) == "5"


def test_bipoly_json_roundtrip():
    P = BiPoly(-1, 2, 3)
    data = P.to_json()
    assert data == {"coeffs": [[-1, 2], [3, 0]], "display": "3m + 2n - 1"}
    assert BiPoly.from_json(data) == P
    # the golden file writes ragged grids: a left-out entry is zero
    assert BiPoly.from_json({"coeffs": [[2, 2], [3]]}) == MODULI_POLY
    assert BiPoly.from_json({"coeffs": []}) == BiPoly()
    for grid in ([[1, 0, 1]], [[1], [0], [1]], [[True]], [["x"]], [[None]], [[1.5]], [1, 2],
                 "12"):
        with pytest.raises(ValueError):
            BiPoly.from_json({"coeffs": grid})


# -- resolutions ------------------------------------------------------------------

def test_resolution_spec_validation():
    # a resolution is its canonical tuple of positions, whatever sequences held it
    assert resolution([[[0, 0], (-1, -2)]]) == (((0, 0), (-1, -2)),)
    with pytest.raises(ValueError):
        resolution(())
    with pytest.raises(ValueError):
        resolution((((0, 0),), ()))


def test_resolution_spec_json_roundtrip():
    data = {"positions": [[[0, 0], [0, 0]], [[-1, -2], [-1, -1]]]}
    spec = resolution_from_json(data)
    assert spec == RES_OPEN
    assert [[list(label) for label in pos] for pos in spec] == data["positions"]
    with pytest.raises(ValueError):
        resolution_from_json({"rows": []})
    with pytest.raises(ValueError):
        resolution_from_json({"positions": [[[0, True]]]})
