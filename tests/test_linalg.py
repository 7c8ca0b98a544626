from fractions import Fraction

import pytest

from quadric_moduli.linalg import rank, rref, solve
from form_reference import GF, QQ


def test_rref_identity_and_pivots():
    f = GF(5)
    reduced, pivots = rref(f, [[2, 0, 1], [0, 3, 0]])
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 3], [0, 1, 0]]


def test_rref_row_swap_and_elimination():
    f = GF(2)
    reduced, pivots = rref(f, [[0, 1, 1], [1, 1, 0]])
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 1], [0, 1, 1]]


def test_rref_over_rationals():
    reduced, pivots = rref(QQ, [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)]])
    assert pivots == [0]
    assert reduced[0] == [1, 2]
    assert all(c == 0 for c in reduced[1])


def test_rank():
    f = GF(3)
    assert rank(f, [[1, 2], [0, 1]]) == 2
    assert rank(f, [[1, 2], [2, 1]]) == 1  # second row is twice the first mod 3
    assert rank(f, [[1, 2], [2, 4]]) == 1
    assert rank(f, [[0, 0]]) == 0


def test_solve_unique():
    f = GF(7)
    # overdetermined but consistent: x = 2, y = 3
    rows = [[1, 0], [0, 1], [1, 1]]
    rhs = [2, 3, 5]
    assert solve(f, rows, rhs) == [2, 3]


def test_solve_inconsistent_returns_none():
    f = GF(7)
    rows = [[1, 0], [0, 1], [1, 1]]
    rhs = [2, 3, 6]
    assert solve(f, rows, rhs) is None


def test_solve_underdetermined_raises():
    f = GF(7)
    with pytest.raises(ValueError):
        solve(f, [[1, 2], [2, 4]], [1, 2])
