"""Polynomial arithmetic, quotients, and the GF(2) variant."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqnet.polynomial import (
    F2Polynomial,
    FractionalPolynomial,
    Polynomial,
    UnlessForm,
    exact_divide,
    reset_registry,
    simplify_quotient,
)


def xyz():
    return (
        Polynomial.variable("x"),
        Polynomial.variable("y"),
        Polynomial.variable("z"),
    )


class TestArithmetic:
    def test_complement_sum(self):
        x, _, z = xyz()
        left = z - x * z
        right = 1 - x - z + x * z
        assert left + right == 1 - x

    def test_product_expansion(self):
        x, _, z = xyz()
        assert (1 - x) * (1 - z) == 1 - x - z + x * z

    def test_subtraction_cancels(self):
        x, _, _ = xyz()
        assert (x - x).is_zero()

    def test_constant_arithmetic(self):
        assert Polynomial.constant(Fraction(1, 4)) + Fraction(3, 4) == 1

    def test_power(self):
        x, _, _ = xyz()
        assert x**2 == x * x
        assert x**0 == Polynomial.constant(1)

    def test_rendering_order(self):
        x, y, _ = xyz()
        assert str(1 - x + x * y) == "1 - x + x*y"
        assert str(x - x * y) == "x - x*y"

    def test_rendering_powers_and_fractions(self):
        x, y, _ = xyz()
        p = x - x**2 - x * y + x**2 * y
        assert str(p) == "x - x^2 - x*y + x^2*y"
        assert str(Polynomial.constant(Fraction(3, 4)) * x) == "3/4*x"

    def test_idempotent_reduction(self):
        x, y, _ = xyz()
        assert (x**2 * y**3).reduce_idempotent() == x * y

    def test_evaluate_and_substitute(self):
        x, y, _ = xyz()
        p = 1 - x + x * y
        assert p.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 3)}) == Fraction(2, 3)
        assert p.substitute({"y": 1}) == Polynomial.constant(1)

    def test_substitute_polynomial_value(self):
        x, y, _ = xyz()
        assert (x * y).substitute({"x": 1 - y}) == y - y**2

    def test_is_identically_zero(self):
        x, _, z = xyz()
        t1 = Polynomial.variable("t1")
        t2 = Polynomial.variable("t2")
        x1 = Polynomial.variable("x1")
        x2 = Polynomial.variable("x2")
        assert (x - x).is_zero()
        assert not (1 - x - z + x * z).is_zero()
        assert (x2 + t1 * x1 - t2 * x2).substitute({"t1": 0, "t2": 1}).is_zero()


class TestQuotients:
    def test_divide_is_unreduced(self):
        x, y, _ = xyz()
        q = (x * y) / x
        assert str(q) == "(x*y) / (x)"

    def test_zero_over_zero(self):
        q = Polynomial() / Polynomial()
        assert q.is_indeterminate()
        assert str(q) == "0/0"

    def test_divide_by_one(self):
        x, _, _ = xyz()
        assert str(x / Polynomial.constant(1)) == "(x) / (1)"

    def test_exact_divide(self):
        x, _, z = xyz()
        assert exact_divide(1 - x - z + x * z, 1 - x) == 1 - z
        assert exact_divide(z - x * z, 1 - x) == z
        assert exact_divide(x, 1 - x) is None

    def test_simplify_monomial_cases(self):
        x, y, _ = xyz()
        assert str(simplify_quotient((x * y) / x)) == "y unless x = 0"
        assert str(simplify_quotient(x / x)) == "1 unless x = 0"
        assert str(simplify_quotient(Polynomial() / x)) == "0 unless x = 0"

    def test_simplify_full_division(self):
        x, _, z = xyz()
        form = simplify_quotient((1 - x - z + x * z) / (1 - x))
        assert str(form) == "1 - z unless x = 1"

    def test_simplify_guard_moves_negated_terms(self):
        x, y, _ = xyz()
        form = simplify_quotient(Polynomial() / (x - x * y))
        assert str(form) == "0 unless x*y = x"

    def test_simplify_constant_denominator_has_no_guard(self):
        x, _, _ = xyz()
        form = simplify_quotient(x / Polynomial.constant(2))
        assert form.guard is None
        assert str(form) == "1/2*x"

    def test_simplify_rejects_indeterminate(self):
        with pytest.raises(ValueError):
            simplify_quotient(Polynomial() / Polynomial())

    def test_not_divisible_keeps_quotient(self):
        x, _, _ = xyz()
        form = simplify_quotient((1 + x) / (1 - x))
        assert isinstance(form.value, FractionalPolynomial)
        assert str(form.value) == "(1 + x) / (1 - x)"

    def test_quotient_arithmetic_shares_equal_denominators(self):
        x1 = Polynomial.variable("x1")
        x2 = Polynomial.variable("x2")
        a = (x1 + x2) / (x1 + x2)
        b = x1 / (x1 + x2)
        assert str(a - b) == "(x2) / (x1 + x2)"

    def test_quotient_arithmetic_cross_multiplies(self):
        x, y, _ = xyz()
        diff = (1 - x + x * y) - (x * y) / x
        assert str(diff) == "(x - x^2 - x*y + x^2*y) / (x)"


class TestF2:
    def test_cancellation(self):
        k = F2Polynomial.variable("K")
        a = F2Polynomial.variable("A")
        one = F2Polynomial.constant(1)
        assert (one + k + a) + (one + k) == a

    def test_self_inverse(self):
        k = F2Polynomial.variable("K")
        p = F2Polynomial.constant(1) + k
        assert (p + p).is_zero()

    def test_idempotent_multiplication(self):
        k = F2Polynomial.variable("K")
        assert k * k == k

    def test_rendering(self):
        k = F2Polynomial.variable("K")
        a = F2Polynomial.variable("A")
        assert str(F2Polynomial.constant(1) + k + k * a) == "1 + K + K*A"
        assert str(F2Polynomial()) == "0"


# ---------------------------------------------------------------------------
# Property tests

names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def polynomials(draw):
    result = Polynomial()
    for _ in range(draw(st.integers(0, 5))):
        term = Polynomial.constant(
            Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        )
        for n in draw(st.lists(names, min_size=0, max_size=3)):
            term = term * Polynomial.variable(n)
        result = result + term
    return result


points = st.fixed_dictionaries(
    {
        n: st.fractions(min_value=-3, max_value=3)
        for n in ["a", "b", "c", "d"]
    }
)


class TestRingLaws:
    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials())
    def test_commutative_addition(self, p, q):
        assert p + q == q + p

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials(), polynomials())
    def test_distributivity(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials(), points)
    def test_evaluation_homomorphism(self, p, q, point):
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), points)
    def test_substitution_homomorphism(self, p, point):
        first = {"a": point["a"], "b": point["b"]}
        second = {"c": point["c"], "d": point["d"]}
        assert p.substitute(first).evaluate(second) == p.evaluate(point)

    @settings(max_examples=100, deadline=None)
    @given(polynomials(), polynomials())
    def test_exact_division_soundness(self, p, q):
        if q.is_zero():
            return
        result = exact_divide(p * q, q)
        assert result is not None
        assert result * q == p * q
