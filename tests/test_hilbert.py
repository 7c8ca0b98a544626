import itertools
import random
from fractions import Fraction

import pytest
import sympy

from quadric_moduli.hilbert import (
    BiPoly, ResolutionSpec, euler_char, genus, hilb_combination, hilb_line, hilb_resolution,
    twist,
)

M = BiPoly.m()
N = BiPoly.n()

MODULI_POLY = 3 * M + 2 * N + 2

RES_OPEN = ResolutionSpec((((0, 0), (0, 0)), ((-1, -2), (-1, -1))))
RES_EXTENSION = ResolutionSpec((((-1, -1), (0, 1)), ((-2, -1), (-1, -2))))
RES_CURVE23 = ResolutionSpec((((0, 0),), ((-2, -3),)))

SM, SN = sympy.symbols("m n")


def to_sympy(P: BiPoly):
    expr = sympy.Integer(0)
    for i, row in enumerate(P.grid):
        for j, c in enumerate(row):
            expr += sympy.Rational(c) * SM**i * SN**j
    return sympy.expand(expr)


# -- line bundles -------------------------------------------------------------

def test_hilb_line_examples():
    assert hilb_line(0, 0) == (M + 1) * (N + 1)
    assert hilb_line(-1, -1) == M * N
    assert hilb_line(-2, -3) == (M - 1) * (N - 2)


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
    res = ResolutionSpec((((0, 0),), ((-1, -r),)))
    assert hilb_resolution(res) == r * M + N + 1


def test_curve23_structure_sheaf():
    P = hilb_resolution(RES_CURVE23)
    assert P == 3 * M + 2 * N - 1
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
        res = ResolutionSpec(positions)
        expected = BiPoly.zero()
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
        base = hilb_resolution(ResolutionSpec(tuple(positions)))
        padded = hilb_resolution(ResolutionSpec(tuple(positions) + (extra, extra)))
        assert base == padded


# -- combinations ----------------------------------------------------------------

def test_combination_for_auxiliary_cokernel():
    result = hilb_combination([3, -2], [(-1, -1), (0, 0)], MODULI_POLY)
    assert result == M * N + M
    assert result == hilb_line(-1, 0)


def test_combination_single_line_bundle():
    assert hilb_combination([1], [(-1, 0)], BiPoly.zero()) == M * (N + 1)


def test_combination_length_mismatch():
    with pytest.raises(ValueError):
        hilb_combination([1, 2], [(0, 0)], BiPoly.zero())


# -- twisting ---------------------------------------------------------------------

def test_twist_examples():
    curve = 3 * M + 2 * N - 1
    assert twist(curve, 1, 0) == MODULI_POLY
    assert twist(curve, 0, 1) == 3 * M + 2 * N + 1
    assert twist(MODULI_POLY, 0, 0) == MODULI_POLY


def test_twist_against_symbolic_substitution():
    rng = random.Random(17)
    for _ in range(40):
        grid = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)]
        P = BiPoly(grid)
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        shifted = twist(P, a, b)
        oracle = sympy.expand(to_sympy(P).subs({SM: SM + a, SN: SN + b}, simultaneous=True))
        assert to_sympy(shifted) == oracle


# -- euler characteristic and genus -------------------------------------------------

def test_euler_and_genus():
    assert euler_char(MODULI_POLY) == 2
    assert euler_char(BiPoly.zero()) == 0
    assert genus(3 * M + 2 * N - 1) == 2


def test_integer_valuedness_on_grid():
    batteries = [hilb_resolution(RES_OPEN), hilb_resolution(RES_EXTENSION),
                 hilb_resolution(RES_CURVE23),
                 hilb_combination([3, -2], [(-1, -1), (0, 0)], MODULI_POLY)]
    batteries += [hilb_line(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for P in batteries:
        for m0, n0 in itertools.product(range(-3, 4), repeat=2):
            value = P.eval(m0, n0)
            assert value.denominator == 1


# -- the BiPoly type -----------------------------------------------------------------

def test_bipoly_arithmetic_and_trimming():
    assert (M - M).is_zero
    assert BiPoly([[0, 0], [0, 0]]).is_zero
    P = (M + 1) * (N + 1)
    assert P.coeff(1, 1) == 1 and P.coeff(0, 0) == 1
    assert P.deg_m == 1 and P.deg_n == 1
    assert (P - P).is_zero
    assert 2 * P == P + P
    assert P == P + BiPoly.zero()


def test_bipoly_degree_bound():
    quartic = (M * M) * (M * M)
    assert quartic.deg_m == 4
    with pytest.raises(ValueError):
        quartic * M
    with pytest.raises(ValueError):
        BiPoly([[0] * 5 + [1]])
    # an oversized but identically zero grid trims to the zero polynomial
    assert BiPoly([[0] * 6]).is_zero


def test_bipoly_display():
    assert str(MODULI_POLY) == "3m + 2n + 2"
    assert str(3 * M + 2 * N - 1) == "3m + 2n - 1"
    assert str(M * N + M) == "mn + m"
    assert str(BiPoly.zero()) == "0"
    assert str(BiPoly.const(Fraction(1, 2))) == "1/2"


def test_bipoly_json_roundtrip():
    P = BiPoly([[Fraction(1, 2), 2], [3, 0]])
    data = P.to_json()
    assert data["coeffs"] == [["1/2", 2], [3, 0]]
    assert BiPoly.from_json(data) == P


# -- ResolutionSpec ---------------------------------------------------------------

def test_resolution_spec_validation():
    with pytest.raises(ValueError):
        ResolutionSpec(())
    with pytest.raises(ValueError):
        ResolutionSpec((((0, 0),), ()))


def test_resolution_spec_json_roundtrip():
    data = {"positions": [[[0, 0], [0, 0]], [[-1, -2], [-1, -1]]]}
    spec = ResolutionSpec.from_json(data)
    assert spec == RES_OPEN
    assert [[list(label) for label in pos] for pos in spec.positions] == data["positions"]
    with pytest.raises(ValueError):
        ResolutionSpec.from_json({"rows": []})
