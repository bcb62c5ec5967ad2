"""Exact Laurent polynomial arithmetic."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, strategies as st

from knotforge.laurent import LaurentPoly

from conftest import polys

F = Fraction


Z2 = LaurentPoly.monomial(1, 2)       # z^2
T_HALF = LaurentPoly.monomial(1, F(1, 2))
TILDE_V = LaurentPoly.from_exponents(
    {-1: 2, -2: -3, -3: 3, -4: -3, -5: 2, -6: -2, -7: 1})
V_L0 = LaurentPoly.from_exponents(
    {-1: 1, -2: -1, -3: 2, -4: -1, -5: 1, -6: -1})
V_J0 = LaurentPoly.from_exponents({
    F(-1, 2): 2, F(-3, 2): -1, F(-5, 2): 2,
    F(-7, 2): -1, F(-9, 2): 1, F(-11, 2): -1})


class TestAdd:
    def test_additive_inverse_is_zero(self):
        assert Z2 + -Z2 == LaurentPoly()

    def test_conway_family_shape(self):
        a = LaurentPoly.from_exponents({0: 1, 2: 2})
        b = LaurentPoly.from_exponents({4: -3})
        assert a + b == LaurentPoly.from_exponents({0: 1, 2: 2, 4: -3})

    def test_doubling_a_term(self):
        t_inv = LaurentPoly.monomial(1, -1)
        assert t_inv + t_inv == LaurentPoly.monomial(2, -1)


class TestMul:
    def test_half_exponents_multiply(self):
        assert T_HALF * T_HALF == LaurentPoly.monomial(1, 1)

    def test_tilde_v_identity(self):
        t_inv = LaurentPoly.monomial(1, -1)
        delta = LaurentPoly.from_exponents({F(1, 2): 1, F(-1, 2): -1})
        assert t_inv * delta * V_J0 == TILDE_V

    def test_sign_and_degree(self):
        neg_z = LaurentPoly.monomial(-1, 1)
        z3 = LaurentPoly.monomial(1, 3)
        assert neg_z * z3 == LaurentPoly.monomial(-1, 4)


class TestCoeff:
    def test_family_z4_coefficient(self):
        p = LaurentPoly.from_exponents({0: 1, 2: 2, 4: -2})
        assert p.coeff(4) == -2

    def test_absent_exponent_is_zero(self):
        p = LaurentPoly.from_exponents({0: 1, 2: 2})
        assert p.coeff(4) == 0

    def test_monomial(self):
        assert LaurentPoly.monomial(1, 3).coeff(3) == 1

    def test_half_integer_lookup(self):
        assert V_J0.coeff(F(-3, 2)) == -1

    def test_whole_fraction_exponent(self):
        assert LaurentPoly.monomial(5, F(-4, 1)) == LaurentPoly.monomial(5, -4)
        assert V_L0.coeff(F(-3, 1)) == 2


class TestIntegerCoefficients:
    """Coefficients live in Z; rationals and floats are refused at the door."""

    @pytest.mark.parametrize("c", [F(1, 2), F(2), 0.5, 1.0, "1", True])
    def test_constructor_rejects_non_int(self, c):
        with pytest.raises(TypeError):
            LaurentPoly({0: c})

    @pytest.mark.parametrize("k", [True, False, 1.0, F(2)])
    def test_constructor_rejects_non_int_key(self, k):
        with pytest.raises(TypeError):
            LaurentPoly({k: 1})

    def test_coeff_returns_int(self):
        assert type(V_J0.coeff(F(-3, 2))) is int
        assert type(V_J0.coeff(7)) is int

    @pytest.mark.parametrize("c", [F(1, 2), F(3), 0.5])
    def test_scalar_multiple_takes_only_int(self, c):
        with pytest.raises(TypeError):
            V_L0 * c
        with pytest.raises(TypeError):
            c * V_L0

    def test_int_scalar_multiple(self):
        assert 3 * V_L0 == V_L0 + V_L0 + V_L0 == V_L0 * 3
        assert V_L0 * 0 == LaurentPoly()


class TestBoolExponents:
    """A bool is not an exponent or a scalar, though Python counts it as an int."""

    @pytest.mark.parametrize("e", [True, False])
    def test_monomial_rejects_bool(self, e):
        with pytest.raises(ValueError, match="exponent must be a half-integer"):
            LaurentPoly.monomial(1, e)

    @pytest.mark.parametrize("e", [True, False])
    def test_from_exponents_rejects_bool(self, e):
        with pytest.raises(ValueError, match="exponent must be a half-integer"):
            LaurentPoly.from_exponents({e: 1})

    @pytest.mark.parametrize("n", [True, False])
    def test_power_rejects_bool(self, n):
        with pytest.raises(ValueError, match="only non-negative integer powers"):
            LaurentPoly.one() ** n

    @pytest.mark.parametrize("scalar", [True, False])
    def test_multiply_rejects_bool_scalar(self, scalar):
        with pytest.raises(TypeError, match="scalar factor must be an int"):
            V_L0 * scalar
        with pytest.raises(TypeError, match="scalar factor must be an int"):
            scalar * V_L0

    def test_int_exponents_still_accepted(self):
        assert LaurentPoly.monomial(1, 1) ** 0 == LaurentPoly.one()
        assert LaurentPoly.from_exponents({0: 1}) == LaurentPoly.one()


class TestMoment:
    def test_tilde_v_moments(self):
        assert tuple(TILDE_V.moment(i) for i in range(4)) == (0, 2, -4, -28)

    def test_v_l0_second_moment(self):
        assert V_L0.moment(2) == -12

    def test_constant_polynomial(self):
        one = LaurentPoly.one()
        assert one.moment(0) == 1
        for i in range(1, 5):
            assert one.moment(i) == 0

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            V_L0.moment(-1)

    @pytest.mark.parametrize("order", [True, False, 2.0, Fraction(1), "1", None])
    def test_non_int_order_rejected(self, order):
        # a bool would be read as 0 or 1, and a float leaves the exact engine
        with pytest.raises(ValueError) as raised:
            LaurentPoly.from_exponents({-1: 1, 2: 3}).moment(order)
        assert str(raised.value) == f"moment order must be an integer, got {order!r}"


# -- randomized ring laws and cross-path agreement ---------------------------

@given(polys, polys)
def test_add_commutes(a, b):
    assert a + b == b + a


@given(polys, polys)
def test_mul_commutes(a, b):
    assert a * b == b * a


@given(polys, polys, polys)
def test_mul_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(polys, polys, polys)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


def _taylor_coeff(p: LaurentPoly, i: int) -> Fraction:
    """The h**i coefficient of p(e**h), summed term by term from e**(eh)."""
    return sum((c * F(k, 2) ** i / factorial(i)
                for k, c in p.doubled_terms().items()), F(0))


@given(polys, st.integers(0, 5))
def test_moment_agrees_with_series_derivative(p, i):
    assert _taylor_coeff(p, i) * factorial(i) == p.moment(i)


@given(polys)
def test_no_floats_anywhere(p):
    for k, c in p.doubled_terms().items():
        assert isinstance(k, int)
        assert type(c) is int
        assert c != 0


def test_equality_and_hash_by_terms():
    a = LaurentPoly.from_exponents({1: 2, F(-3, 2): -7})
    b = (LaurentPoly.from_exponents({1: 2})
         + LaurentPoly.from_exponents({F(-3, 2): -7}))
    assert a == b and hash(a) == hash(b)
    assert a != a + LaurentPoly.one()


@pytest.mark.parametrize("other", [1, 0, "1", None])
def test_other_types_neither_equal_nor_add(other):
    one = LaurentPoly.one()
    assert one != other and not one == other
    with pytest.raises(TypeError):
        one + other


def test_render_deterministic_descending():
    p = LaurentPoly.from_exponents({0: 1, 2: 2, 4: -2})
    assert p.render("z") == "-2*z^4 + 2*z^2 + 1"
    assert V_J0.render() == ("2*t^(-1/2) - t^(-3/2) + 2*t^(-5/2) - t^(-7/2) "
                             "+ t^(-9/2) - t^(-11/2)")
    assert LaurentPoly().render() == "0"


def test_power_square_and_multiply():
    loop = LaurentPoly.from_exponents({F(1, 2): 1, F(-1, 2): 1})
    by_mul = LaurentPoly.one()
    for _ in range(5):
        by_mul = by_mul * loop
    assert loop ** 5 == by_mul
    assert loop ** 0 == LaurentPoly.one()
    with pytest.raises(ValueError):
        loop ** -1
