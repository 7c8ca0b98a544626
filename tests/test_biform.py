import itertools
import operator
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from quadric_moduli.biform import ZZ, BiForm
from form_reference import (
    GF, QQ, PhiMatrix, add, det2, factorization_test, is_zero, linear_xy, linearly_independent,
    mul_right_linear, rank1_test, scale,
)

F2 = GF(2)
F3 = GF(3)

X, Y, Z, W = sympy.symbols("x y z w")


def to_sympy(f: BiForm):
    """Independent symbolic rendering of a form, used as a multiplication oracle."""
    expr = sympy.Integer(0)
    for (i, j), c in f.terms():
        c = sympy.Rational(c) if f.field.char == 0 else sympy.Integer(int(c))
        expr += c * X ** (f.a - i) * Y**i * Z ** (f.b - j) * W**j
    return sympy.expand(expr)


def sympy_equal_mod(f_expr, g_expr, p: int) -> bool:
    diff = sympy.expand(f_expr - g_expr)
    if p == 0:
        return diff == 0
    poly = sympy.Poly(diff, X, Y, Z, W)
    return all(int(c) % p == 0 for c in poly.coeffs())


def mono(field, a, b, i, j, c=1):
    return BiForm.monomial(field, a, b, i, j, c)


# -- fixed forms used across the module --------------------------------------

def forms(field):
    return {
        "xz": mono(field, 1, 1, 0, 0),
        "xw": mono(field, 1, 1, 0, 1),
        "yz": mono(field, 1, 1, 1, 0),
        "yw": mono(field, 1, 1, 1, 1),
    }


# -- addition and scaling -----------------------------------------------------

def test_add_identity_and_basis_expansion():
    f = forms(QQ)
    combo = add(f["xz"], f["yw"])
    assert combo.coeffs == (1, 0, 0, 1)
    assert add(combo, BiForm.zero(QQ, 1, 1)) == combo


def test_add_characteristic_two():
    xz = forms(F2)["xz"]
    assert is_zero(add(xz, xz))


def test_add_bidegree_mismatch():
    with pytest.raises(ValueError):
        add(BiForm.zero(QQ, 1, 1), BiForm.zero(QQ, 1, 2))
    with pytest.raises(ValueError):
        add(forms(QQ)["xz"], forms(F2)["xz"])


def test_scale():
    xz = forms(QQ)["xz"]
    assert scale(xz, Fraction(3, 2)).coeffs == (Fraction(3, 2), 0, 0, 0)
    assert is_zero(scale(xz, 0))
    assert scale(xz, 2) == add(xz, xz)


def test_repr_round_trips_through_eval():
    f = BiForm.monomial(ZZ, 1, 2, 0, 1)
    assert repr(f) == "BiForm(ZZ, 1, 2, (0, 1, 0, 0, 0, 0))"
    assert eval(repr(f), {"BiForm": BiForm, "ZZ": ZZ}) == f


# -- multiplication -----------------------------------------------------------

def test_mul_monomials():
    f = forms(QQ)
    product = f["xz"] * f["yw"]
    assert (product.a, product.b) == (2, 2)
    assert product == mono(QQ, 2, 2, 1, 1)  # xy zw


def test_mul_expansion_against_symbolic_oracle():
    f = forms(QQ)
    product = f["xz"] * add(f["xw"], f["yz"])
    # oracle: x z * (x w + y z) = x^2 z w + x y z^2
    assert to_sympy(product) == sympy.expand(to_sympy(f["xz"]) * to_sympy(add(f["xw"], f["yz"])))
    assert product == add(mono(QQ, 2, 2, 0, 1), mono(QQ, 2, 2, 1, 0))


def test_mul_with_square_right_factor():
    # alpha = z*u with u = z, i.e. alpha = z^2: (x alpha) * (y w) = x y z^2 w
    x_alpha = mono(QQ, 1, 2, 0, 0)
    yw = forms(QQ)["yw"]
    product = x_alpha * yw
    assert product == mono(QQ, 2, 3, 1, 1)
    assert to_sympy(product) == sympy.expand(to_sympy(x_alpha) * to_sympy(yw))


@st.composite
def biform_strategy(draw, field, max_deg=2):
    a = draw(st.integers(0, max_deg))
    b = draw(st.integers(0, max_deg))
    size = (a + 1) * (b + 1)
    if field.char:
        coeffs = draw(st.lists(st.integers(0, field.char - 1), min_size=size, max_size=size))
    else:
        coeffs = [Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
                  for _ in range(size)]
    return BiForm(field, a, b, coeffs)


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
def test_mul_degree_additivity_and_commutativity(field):
    @settings(max_examples=60, deadline=None)
    @given(f=biform_strategy(field), g=biform_strategy(field))
    def check(f, g):
        product = f * g
        assert (product.a, product.b) == (f.a + g.a, f.b + g.b)
        assert product == g * f
        assert sympy_equal_mod(to_sympy(product), to_sympy(f) * to_sympy(g), field.char)

    check()


@pytest.mark.parametrize("field", [F2, F3, QQ], ids=["F2", "F3", "QQ"])
def test_mul_associativity(field):
    @settings(max_examples=40, deadline=None)
    @given(f=biform_strategy(field, 1), g=biform_strategy(field, 1),
           h=biform_strategy(field, 1))
    def check(f, g, h):
        assert (f * g) * h == f * (g * h)

    check()


# -- the ring contract ------------------------------------------------------------

class CanonOnly:
    """A ring with nothing but what BiForm reads: its canon, equality and name."""

    __slots__ = ()
    canon = operator.index

    def __eq__(self, other) -> bool:
        return isinstance(other, CanonOnly)

    def __repr__(self) -> str:
        return "CanonOnly"


def ring_forms(ring):
    """Zero, monomial and linear_zw forms over ring, their products and negations."""
    units = [mono(ring, 1, 1, i, j, c) for i in range(2) for j in range(2) for c in (1, -2)]
    lines = [BiForm.linear_zw(ring, 1, 0), BiForm.linear_zw(ring, 0, 1),
             BiForm.linear_zw(ring, 2, -3)]
    factors = [BiForm.zero(ring, 1, 2), *units, *lines]
    products = [f * g for f in factors for g in factors]
    return [*factors, *products, *(-f for f in factors + products)]


def test_a_ring_is_its_canon():
    built = [(f.a, f.b, f.coeffs) for f in ring_forms(CanonOnly())]
    assert built == [(f.a, f.b, f.coeffs) for f in ring_forms(ZZ)]
    assert all(type(c) is int for _, _, coeffs in built for c in coeffs)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_products_over_gf_p_are_integer_products_reduced(p):
    # reduction mod p is a ring map, so BiForm may reduce once, in canon
    rng = random.Random(p)
    for _ in range(200):
        shapes = [(rng.randrange(3), rng.randrange(4)) for _ in range(2)]
        values = [[rng.randrange(p) for _ in range((a + 1) * (b + 1))] for a, b in shapes]
        (f, g), (f_zz, g_zz) = ([BiForm(ring, a, b, c) for (a, b), c in zip(shapes, values)]
                                for ring in (GF(p), ZZ))
        product = f_zz * g_zz
        assert f * g == BiForm(GF(p), product.a, product.b, [c % p for c in product.coeffs])
        assert -f == BiForm(GF(p), f.a, f.b, [c % p for c in (-f_zz).coeffs])


# -- rank-one test -------------------------------------------------------------

def test_rank1_examples():
    f = forms(QQ)
    v1, v2 = rank1_test(f["xz"])
    assert v1 == linear_xy(QQ, 1, 0) and v2 == BiForm.linear_zw(QQ, 1, 0)
    assert rank1_test(add(f["xz"], f["yw"])) is None
    v1, v2 = rank1_test(add(f["xz"], f["xw"]))
    assert v1 == linear_xy(QQ, 1, 0) and v2 == BiForm.linear_zw(QQ, 1, 1)


def test_rank1_factors_multiply_back_and_are_normalized():
    rng = random.Random(123)
    for field in (F3, QQ):
        for _ in range(200):
            v1 = linear_xy(field, field.random(rng), field.random(rng))
            v2 = BiForm.linear_zw(field, field.random(rng), field.random(rng))
            f = v1 * v2
            if is_zero(f):
                continue
            w1, w2 = rank1_test(f)
            assert w1 * w2 == f
            lead = next(c for c in w1.coeffs if c != field.zero)
            assert lead == field.one


def test_rank1_iff_coefficient_determinant_all_16_forms():
    for coeffs in itertools.product(range(2), repeat=4):
        f = BiForm(F2, 1, 1, coeffs)
        if is_zero(f):
            with pytest.raises(ValueError):
                rank1_test(f)
            continue
        det = (coeffs[0] * coeffs[3] - coeffs[1] * coeffs[2]) % 2
        assert (rank1_test(f) is not None) == (det == 0)


def test_rank1_rejects_wrong_bidegree():
    with pytest.raises(ValueError):
        rank1_test(BiForm.zero(QQ, 1, 2))


# -- right multiplication by a linear form --------------------------------------

def test_mul_right_linear():
    f = forms(QQ)
    w_lin = BiForm.linear_zw(QQ, 0, 1)
    z_lin = BiForm.linear_zw(QQ, 1, 0)
    assert mul_right_linear(f["xz"], w_lin) == mono(QQ, 1, 2, 0, 1)  # x zw
    assert is_zero(mul_right_linear(f["xz"], BiForm.linear_zw(QQ, 0, 0)))
    expected = add(mono(QQ, 1, 2, 0, 0), mono(QQ, 1, 2, 1, 1))  # x z^2 + y zw
    assert mul_right_linear(add(f["xz"], f["yw"]), z_lin) == expected
    assert mul_right_linear(f["xz"], w_lin) == f["xz"] * w_lin
    with pytest.raises(ValueError):
        mul_right_linear(f["xz"], linear_xy(QQ, 1, 0))


# -- det2 -----------------------------------------------------------------------

def phi_from_factoring(field, f12, f22, u):
    return PhiMatrix(mul_right_linear(f12, u), f12, mul_right_linear(f22, u), f22)


def test_det2_proportional_columns_vanish():
    f = forms(QQ)
    for u in (BiForm.linear_zw(QQ, 1, 0), BiForm.linear_zw(QQ, 2, -3)):
        phi = phi_from_factoring(QQ, add(f["xz"], f["yw"]), f["xw"], u)
        assert is_zero(det2(phi))


def test_det2_shared_right_canonical_form_vanishes():
    # phi = [[x alpha, x z], [y alpha, y z]] with alpha = w^2 has det 0
    alpha_x = mono(QQ, 1, 2, 0, 2)  # x w^2
    alpha_y = mono(QQ, 1, 2, 1, 2)  # y w^2
    f = forms(QQ)
    phi = PhiMatrix(alpha_x, f["xz"], alpha_y, f["yz"])
    assert is_zero(det2(phi))


def test_det2_nonzero_example():
    f = forms(QQ)
    phi = PhiMatrix(mono(QQ, 1, 2, 0, 0), add(f["xz"], f["yw"]), BiForm.zero(QQ, 1, 2), f["xw"])
    value = det2(phi)
    assert (value.a, value.b) == (2, 3)
    assert len(value.coeffs) == 12
    assert value == mono(QQ, 2, 3, 0, 1)  # x^2 z^2 w
    assert not is_zero(value)


def random_phi(field, rng):
    c1 = [field.random(rng) for _ in range(6)]
    c2 = [field.random(rng) for _ in range(6)]
    f12 = BiForm(field, 1, 1, [field.random(rng) for _ in range(4)])
    f22 = BiForm(field, 1, 1, [field.random(rng) for _ in range(4)])
    return PhiMatrix(BiForm(field, 1, 2, c1), f12, BiForm(field, 1, 2, c2), f22)


def column_op(phi, u):
    return PhiMatrix(add(phi.phi11, mul_right_linear(phi.phi12, u)), phi.phi12,
                     add(phi.phi21, mul_right_linear(phi.phi22, u)), phi.phi22)


CANONICAL_SECOND_COLUMNS_F2 = [
    ("generic", (1, 0, 0, 1), (0, 1, 0, 0)),       # xz + yw, xw
    ("shared-right", (1, 0, 0, 0), (0, 0, 1, 0)),  # xz, yz
    ("shared-left", (1, 0, 0, 0), (0, 1, 0, 0)),   # xz, xw
]


def test_det2_column_operation_invariance_exhaustive_f2():
    for _, c12, c22 in CANONICAL_SECOND_COLUMNS_F2:
        f12 = BiForm(F2, 1, 1, c12)
        f22 = BiForm(F2, 1, 1, c22)
        for bits in itertools.product(range(2), repeat=12):
            phi = PhiMatrix(BiForm(F2, 1, 2, bits[:6]), f12, BiForm(F2, 1, 2, bits[6:]), f22)
            base = det2(phi)
            for uz, uw in itertools.product(range(2), repeat=2):
                u = BiForm.linear_zw(F2, uz, uw)
                assert det2(column_op(phi, u)) == base


def test_det2_column_operation_invariance_randomized_q():
    rng = random.Random(2024)
    for _ in range(300):
        phi = random_phi(QQ, rng)
        u = BiForm.linear_zw(QQ, QQ.random(rng), QQ.random(rng))
        assert det2(column_op(phi, u)) == det2(phi)


def test_det2_scaling_first_column():
    rng = random.Random(99)
    for field in (F3, QQ):
        for _ in range(300):
            phi = random_phi(field, rng)
            c = field.random(rng)
            scaled = PhiMatrix(scale(phi.phi11, c), phi.phi12, scale(phi.phi21, c), phi.phi22)
            assert det2(scaled) == scale(det2(phi), c)


# -- factorization test ----------------------------------------------------------

def test_factorization_recovers_constructed_u():
    f = forms(QQ)
    u = BiForm.linear_zw(QQ, 0, 1)  # w
    phi = phi_from_factoring(QQ, add(f["xz"], f["yw"]), f["xw"], u)
    assert factorization_test(phi) == u
    assert not phi.is_admissible()


def test_factorization_zero_first_column():
    f = forms(QQ)
    phi = PhiMatrix(BiForm.zero(QQ, 1, 2), f["xz"], BiForm.zero(QQ, 1, 2), f["xw"])
    assert factorization_test(phi) == BiForm.linear_zw(QQ, 0, 0)


def test_factorization_case5_end_form_is_empty():
    # phi11 = y u2 z, phi21 = y u2 w with u2 = z: no factoring u exists,
    # although the determinant vanishes; these classes are the shared-left
    # fiber points.
    f = forms(QQ)
    phi = PhiMatrix(mono(QQ, 1, 2, 1, 0), f["xz"], mono(QQ, 1, 2, 1, 1), f["xw"])
    assert factorization_test(phi) is None
    assert is_zero(det2(phi))
    assert phi.is_admissible()


def test_factorization_requires_independent_second_column():
    f = forms(QQ)
    phi = PhiMatrix(BiForm.zero(QQ, 1, 2), f["xz"], BiForm.zero(QQ, 1, 2), scale(f["xz"], 2))
    with pytest.raises(ValueError):
        factorization_test(phi)
    assert not phi.is_admissible()


def test_factorization_implies_detzero_exhaustive_f2():
    for _, c12, c22 in CANONICAL_SECOND_COLUMNS_F2:
        f12 = BiForm(F2, 1, 1, c12)
        f22 = BiForm(F2, 1, 1, c22)
        factoring = 0
        for bits in itertools.product(range(2), repeat=12):
            phi = PhiMatrix(BiForm(F2, 1, 2, bits[:6]), f12, BiForm(F2, 1, 2, bits[6:]), f22)
            u = factorization_test(phi)
            if u is not None:
                factoring += 1
                assert is_zero(det2(phi))
                assert phi.phi11 == mul_right_linear(phi.phi12, u)
                assert phi.phi21 == mul_right_linear(phi.phi22, u)
        assert factoring == 4  # exactly the pairs (f12*u, f22*u), u in F_2^2


def test_linear_independence():
    f = forms(QQ)
    assert linearly_independent(f["xz"], f["xw"])
    assert not linearly_independent(f["xz"], scale(f["xz"], 3))


def test_coefficient_layout_is_documented_order():
    # index i*(b+1)+j corresponds to x^(a-i) y^i z^(b-j) w^j
    f = BiForm(QQ, 1, 1, [5, 0, 0, 0])
    assert to_sympy(f) == 5 * X * Z
    g = BiForm(QQ, 1, 2, [0, 0, 0, 7, 0, 0])
    assert to_sympy(g) == 7 * Y * Z**2
