import random
from fractions import Fraction

import pytest

from form_reference import GF, QQ, PrimeField, is_prime


def test_primality_guard():
    for p in (2, 3, 5, 7, 11, 101):
        assert is_prime(p)
        PrimeField(p)
    for n in (-1, 0, 1, 4, 6, 9, 100):
        assert not is_prime(n)
        with pytest.raises(ValueError):
            PrimeField(n)


def test_gf_cache_and_equality():
    assert GF(5) is GF(5)
    assert GF(5) == PrimeField(5)
    assert GF(5) != GF(7)


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.canon(-1) == 6
    assert f.add(5, 4) == 2
    assert f.sub(2, 5) == 4
    assert f.mul(3, 5) == 1
    assert f.neg(3) == 4
    assert f.div(1, 3) == 5
    assert list(f.elements()) == [0, 1, 2, 3, 4, 5, 6]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_inverses_exhaustive(p):
    f = GF(p)
    for a in range(1, p):
        assert f.mul(a, f.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_field_rejects_non_integral():
    from fractions import Fraction as F
    f = GF(5)
    with pytest.raises(TypeError):
        f.canon(F(1, 2))
    assert f.canon(F(6, 2)) == 3  # integral fractions are fine


def test_rational_field():
    assert QQ.char == 0
    assert QQ.canon(2) == Fraction(2)
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(2, 3)) == Fraction(3, 2)
    assert QQ.div(1, 4) == Fraction(1, 4)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))
    with pytest.raises(TypeError):
        QQ.elements()


def test_random_elements_are_canonical():
    rng = random.Random(0)
    f = GF(5)
    for _ in range(50):
        assert 0 <= f.random(rng) < 5
    for _ in range(50):
        value = QQ.random(rng)
        assert isinstance(value, Fraction)


def test_integer_ring():
    # the package's ring: int coefficients, distinct from the tests' QQ
    from quadric_moduli.biform import ZZ, BiForm
    assert repr(ZZ) == "ZZ" and ZZ != QQ and QQ != ZZ
    product = BiForm.monomial(ZZ, 1, 1, 0, 0) * BiForm.monomial(ZZ, 0, 1, 0, 1)
    assert product == BiForm.monomial(ZZ, 1, 2, 0, 1)
    assert all(type(c) is int for c in product.coeffs)
    for value in (0.5, Fraction(1, 2)):
        with pytest.raises(TypeError):
            ZZ.canon(value)
