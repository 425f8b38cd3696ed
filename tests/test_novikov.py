"""Exact Novikov arithmetic: ring laws, truncation semantics, text encoding.

Expected values for the worked examples were frozen from hand expansion
before the implementation existed; see the oracle comments inline.
"""

import copy
import doctest
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from torsionlab import novikov
from torsionlab.errors import PrecisionExhausted
from torsionlab.novikov import (
    NovikovElement,
    divide_exact,
    from_text,
    invert,
    to_text,
)
from torsionlab.rationals import INFINITE

import ring_oracle
from ring_oracle import agrees_with

F = Fraction


def nov(text, trunc=INFINITE):
    return from_text(text, trunc)


def test_doctests_pass():
    failures, _ = doctest.testmod(novikov)
    assert failures == 0


# -- construction and canonical form ----------------------------------

def test_terms_sorted_and_merged():
    x = NovikovElement([(1, F(2)), (3, F(1, 2)), (2, F(2))])
    assert x.terms == ((F(3), F(1, 2)), (F(3), F(2)))


def test_zero_coefficients_dropped():
    x = NovikovElement([(1, F(1)), (-1, F(1))])
    assert x.is_zero()
    assert x.valuation() == INFINITE


def test_terms_at_or_above_trunc_dropped():
    x = NovikovElement([(1, F(0)), (1, F(3))], trunc=3)
    assert to_text(x) == "1"
    assert x.trunc == 3


# -- valuation ---------------------------------------------------------

def test_valuation_examples():
    # v(2 T^{3/2} + T^2) = 3/2, v(0) = inf, v(5) = 0
    assert nov("2*T(3/2) + T(2)").valuation() == F(3, 2)
    assert NovikovElement.zero().valuation() == INFINITE
    assert nov("5").valuation() == 0


def random_element(rng, max_terms=4, denominator=4):
    terms = []
    for _ in range(rng.randrange(max_terms + 1)):
        coeff = F(rng.randrange(-9, 10), rng.randrange(1, 5))
        t_exp = F(rng.randrange(0, 17), denominator)
        terms.append((coeff, t_exp))
    return NovikovElement(terms)


def test_valuation_additive_under_mul():
    # v(x*y) = v(x) + v(y) on a thousand random pairs, zero included
    rng = random.Random(20260816)
    for _ in range(1000):
        x = random_element(rng)
        y = random_element(rng)
        assert (x * y).valuation() == x.valuation() + y.valuation()


# -- addition and multiplication ---------------------------------------

def test_mul_hand_expansion():
    # (1 - T)(1 + T + T^2) = 1 - T^3 expanded by hand
    product = nov("1 - T(1)") * nov("1 + T(1) + T(2)")
    assert to_text(product) == "1 - T(3)"


def test_mul_truncates_at_partner_adjusted_level():
    # with both factors at trunc 3 the T^3 term is unreliable and dropped
    product = nov("1 - T(1)", trunc=3) * nov("1 + T(1) + T(2)", trunc=3)
    assert to_text(product) == "1"
    assert product.trunc == 3


def test_mul_trunc_shifts_by_valuation():
    # x reliable below 3, y = T^2 exact: product reliable below 5
    product = nov("1 - T(1)", trunc=3) * nov("T(2)")
    assert product.trunc == 5
    assert to_text(product) == "T(2) - T(3)"


def test_exponents_add_in_both_gradings():
    x = NovikovElement.monomial(2, F(3, 2))
    y = NovikovElement.monomial(3, F(1, 2))
    assert (x * y).terms == ((F(6), F(2)),)


def test_product_of_truncated_zeros_keeps_a_finite_level():
    # 0 mod T^2 times 0 mod T^3 is only known to vanish mod T^5
    product = NovikovElement.zero(2) * NovikovElement.zero(3)
    assert product.is_zero()
    assert product.trunc == 5
    assert (NovikovElement.zero(2) * NovikovElement.zero(2)).trunc == 4
    # an exact zero still makes the product exact
    assert (NovikovElement.zero() * NovikovElement.zero(2)).trunc == INFINITE
    assert (NovikovElement.zero() * nov("1 + T(1)")).trunc == INFINITE


def test_add_keeps_smaller_trunc():
    total = nov("1", trunc=5) + nov("T(1)", trunc=2)
    assert total.trunc == 2


def test_ring_laws_at_finite_truncation():
    rng = random.Random(7)
    for _ in range(300):
        trunc = F(rng.randrange(2, 9))
        x = random_element(rng).retruncate(trunc)
        y = random_element(rng).retruncate(trunc)
        z = random_element(rng).retruncate(trunc)
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        left = x * (y + z)
        right = x * y + x * z
        # distributivity holds below the shared reliable level; the trunc
        # metadata itself may differ when y + z cancels leading terms
        assert agrees_with(left, right)
        assert x + NovikovElement.zero() == x
        assert x * NovikovElement.one() == x


# -- inversion and division --------------------------------------------

def test_invert_geometric_series():
    # 1/(1 - T) = 1 + T + T^2 + ... frozen at trunc 3
    inverse = invert(nov("1 - T(1)", trunc=3))
    assert to_text(inverse) == "1 + T(1) + T(2)"


def test_invert_monomials_exact():
    assert invert(NovikovElement.monomial(1, F(5, 2))) == \
        NovikovElement.monomial(1, F(-5, 2))
    assert invert(nov("2")) == NovikovElement.monomial(F(1, 2))
    x = NovikovElement.monomial(F(-3, 4), F(1))
    assert (invert(x) * x) == NovikovElement.one()


def test_invert_times_self_is_one_below_trunc():
    rng = random.Random(11)
    checked = 0
    for _ in range(400):
        x = random_element(rng).retruncate(F(6))
        if x.is_zero():
            continue
        product = invert(x) * x
        difference = product - NovikovElement.one()
        assert difference.valuation() >= product.trunc
        checked += 1
    assert checked > 300


def test_invert_infinite_series_needs_finite_trunc():
    with pytest.raises(PrecisionExhausted):
        invert(nov("1 - T(1)"))


def monomials(min_size=0):
    return st.lists(
        st.tuples(st.fractions(-4, 4, max_denominator=6).filter(bool),
                  st.fractions(-3, 6, max_denominator=4)),
        min_size=min_size, max_size=5)


@given(monomials(), monomials(min_size=1))
def test_divide_exact_recovers_finite_quotient(q_terms, y_terms):
    q = NovikovElement(q_terms)
    y = NovikovElement(y_terms)
    if y.is_zero():
        return
    assert divide_exact(q * y, y) == q


def test_divide_exact_examples():
    # (T^3 - T^4) / T^3 = 1 - T
    assert to_text(divide_exact(nov("T(3) - T(4)"), nov("T(3)"))) == "1 - T(1)"
    # x / x = 1 even at infinite truncation
    x = nov("1 - T(1) + 3*T(2)")
    assert divide_exact(x, x) == NovikovElement.one()


def test_divide_exact_valuations_subtract():
    rng = random.Random(13)
    for _ in range(200):
        x = random_element(rng).retruncate(F(8))
        y = random_element(rng).retruncate(F(8))
        if x.is_zero() or y.is_zero():
            continue
        quotient = divide_exact(x, y)
        assert quotient.valuation() == x.valuation() - y.valuation()
        assert agrees_with(quotient * y, x)


def test_divisibility_is_valuation_comparison():
    # the quotient lies in the bounded subring exactly when the divisor's
    # valuation is at most the dividend's
    quotient = divide_exact(nov("T(2)", trunc=6), nov("T(1) - T(2)"))
    assert quotient.valuation() == 1
    assert divide_exact(nov("T(1)"), nov("T(2)")).valuation() < 0


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divide_exact(nov("1"), NovikovElement.zero())


def test_division_with_negative_valuation_result():
    quotient = divide_exact(nov("T(1)"), nov("T(3)"))
    assert quotient == NovikovElement.monomial(1, -2)
    assert quotient.valuation() < 0


# -- truncation helpers -------------------------------------------------

def test_retruncate_never_raises_level():
    x = nov("1 + T(2)", trunc=4)
    assert x.retruncate(10).trunc == 4
    assert x.retruncate(F(3, 2)).terms == ((F(1), F(0)),)


# -- text encoding -------------------------------------------------------

TEXT_CASES = [
    "0",
    "1",
    "-1",
    "2*T(3/2) + T(2)",
    "1 - T(3)",
    "T(-2) + 5",
    "1/2 - 3/4*T(1/3)",
    "-T(1) + T(2)",
]


@pytest.mark.parametrize("text", TEXT_CASES)
def test_text_round_trip_bit_exact(text):
    element = from_text(text)
    assert to_text(element) == text
    assert from_text(to_text(element)) == element


@given(st.lists(st.tuples(st.fractions(-9, 9, max_denominator=5),
                          st.fractions(-3, 6, max_denominator=7)),
                max_size=6))
def test_text_round_trip_on_random_elements(terms):
    x = NovikovElement(terms)
    assert from_text(to_text(x)) == x


def test_parse_is_liberal_about_order_and_space():
    assert from_text("  T(2)+2*T(3/2)") == from_text("2*T(3/2) + T(2)")
    assert from_text("3 * T(1)") == from_text("3*T(1)")


@pytest.mark.parametrize("bad", ["", "+", "T(", "T(1)*T(2)", "x", "1..2",
                                 "T(1.5)", "e(1/2)", "e(1)", "T(1)*e(1)",
                                 "1/0", "T(1/0)", "3*T(2/0)", "1 -", "1 +",
                                 "T(1) +", "1 + + T(1)", "1 - - T(1)",
                                 "1 + - T(1)", "1 - + T(1)", "--1", "+ -1"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        from_text(bad)


def test_a_leading_sign_is_followed_by_its_term():
    assert from_text("+1 - T(1)") == from_text("1 - T(1)")
    assert from_text("- T(1)") == NovikovElement.monomial(-1, 1)


@pytest.mark.parametrize("value", [True, False])
def test_parse_refuses_bools(value):
    with pytest.raises(TypeError):
        novikov.parse(value)


# -- value semantics ------------------------------------------------------

def test_elements_immutable_and_hashable():
    x = nov("1 + T(1)")
    with pytest.raises(AttributeError):
        x.terms = ()
    assert hash(x) == hash(nov("1 + T(1)"))
    assert x != nov("1 + T(1)", trunc=2)


def test_exact_constants_hash_like_their_fractions():
    # equal values hash equal: an exact constant equals its Fraction
    assert len({NovikovElement.one(), 1}) == 1
    assert hash(NovikovElement.one()) == hash(F(1))
    assert hash(NovikovElement.zero()) == hash(0)
    assert NovikovElement.monomial(F(3, 2)) == F(3, 2)
    assert hash(NovikovElement.monomial(F(3, 2))) == hash(F(3, 2))
    assert nov("3/2", trunc=1) != F(3, 2)


def test_equality_and_hash_ignore_the_stored_denominator():
    # T(1/2) stored over 2, and the same value reached over 6
    halves = nov("1 + T(1/2)")
    sixths = nov("1 + T(1/2) + T(1/3)") - nov("T(1/3)")
    assert (halves._den, sixths._den) == (2, 6)
    assert halves == sixths
    assert hash(halves) == hash(sixths)
    assert halves.terms == sixths.terms
    assert halves.retruncate(3) == sixths.retruncate(3)
    assert hash(halves.retruncate(3)) == hash(sixths.retruncate(3))
    assert halves != sixths.retruncate(F(5, 3))


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


@pytest.mark.parametrize("how", COPIES)
def test_elements_copy_and_pickle_as_equal_values(how):
    # "1 + T(1/2)" stored over 6 keeps that denominator through the trip
    sixths = nov("1 + T(1/2) + T(1/3)") - nov("T(1/3)")
    for x in (NovikovElement.one(), nov("-2*T(1) + T(5/2)").retruncate(7),
              sixths.retruncate(F(5, 3)), NovikovElement.zero(4)):
        y = COPIES[how](x)
        assert y == x and hash(y) == hash(x)
        assert (y.terms, y.trunc) == (x.terms, x.trunc)
        assert (y._den, y._scale) == (x._den, x._scale)
    with pytest.raises(AttributeError, match="immutable"):
        y._terms = ()


def test_scalar_coercion():
    assert nov("T(1)") + 1 == nov("1 + T(1)")
    assert 2 * nov("T(1)") == nov("2*T(1)")
    assert nov("T(1)") - F(1, 2) == nov("-1/2 + T(1)")


# -- agreement with the element-by-element oracle --------------------------
#
# ring_oracle keeps the construction the ring ops replaced: raw terms
# through one validating canonicalization, and long division that
# subtracts a whole multiple of the divisor per quotient term.

coefficients = st.fractions(-4, 4, max_denominator=6)
exponents = st.fractions(-3, 6, max_denominator=4)
levels = st.one_of(st.just(INFINITE),
                   st.fractions(-2, 8, max_denominator=3))


@st.composite
def elements(draw, trunc=levels):
    terms = draw(st.lists(st.tuples(coefficients, exponents), max_size=5))
    return NovikovElement(terms, draw(trunc))


def outcome(compute):
    """Terms and level of the result, or the exception it raised."""
    try:
        value = compute()
    except (ZeroDivisionError, PrecisionExhausted) as exc:
        return type(exc), str(exc)
    return value.terms, value.trunc


def is_canonical(x):
    exps = [l for _, l in x.terms]
    numerators = [c for c, _ in x._terms]
    return (all(type(c) is Fraction and type(l) is Fraction and c != 0
                for c, l in x.terms)
            and all(a < b for a, b in zip(exps, exps[1:]))
            and all(l < x.trunc for l in exps)
            and (type(x.trunc) is Fraction or x.trunc == INFINITE)
            # numerators over the scale in lowest terms
            and all(type(c) is int for c in numerators)
            and type(x._scale) is int and x._scale > 0
            and math.gcd(x._scale, *numerators) == 1)


@given(elements(), elements())
def test_sum_difference_product_match_oracle(x, y):
    assert outcome(lambda: x + y) == outcome(lambda: ring_oracle.add(x, y))
    assert outcome(lambda: x - y) == outcome(lambda: ring_oracle.sub(x, y))
    assert outcome(lambda: x * y) == outcome(lambda: ring_oracle.mul(x, y))
    assert outcome(lambda: -x) == outcome(lambda: ring_oracle.neg(x))


@given(elements(), elements())
def test_divide_exact_matches_oracle(x, y):
    assert (outcome(lambda: divide_exact(x, y))
            == outcome(lambda: ring_oracle.divide_exact(x, y)))


@given(elements(), elements(trunc=st.just(INFINITE)))
def test_divide_exact_of_a_multiple_matches_oracle(q, y):
    x = q * y
    assert (outcome(lambda: divide_exact(x, y))
            == outcome(lambda: ring_oracle.divide_exact(x, y)))


@given(elements())
def test_invert_matches_oracle(x):
    assert outcome(lambda: invert(x)) == outcome(lambda: ring_oracle.invert(x))


@given(coefficients.filter(bool), exponents,
       coefficients.filter(bool), st.fractions(1, 3, max_denominator=4))
def test_infinite_series_quotient_raises_like_oracle(c, l, b, a):
    # T^l / (1 + b T^a) is an infinite series for every a > 0, b != 0
    x = NovikovElement.monomial(c, l)
    y = NovikovElement([(1, 0), (b, a)])
    with pytest.raises(PrecisionExhausted) as product:
        divide_exact(x, y)
    with pytest.raises(PrecisionExhausted) as oracle:
        ring_oracle.divide_exact(x, y)
    assert str(product.value) == str(oracle.value)


@given(elements(), elements(), levels)
def test_ring_results_are_canonical(x, y, level):
    results = [x + y, x - y, x * y, -x, x.retruncate(level)]
    for compute in (lambda: divide_exact(x, y), lambda: invert(x)):
        try:
            results.append(compute())
        except (ZeroDivisionError, PrecisionExhausted):
            pass
    for result in results:
        assert is_canonical(result), result
    assert x.retruncate(level) == ring_oracle.element(
        x.terms, min(x.trunc, level))


# -- mixed exponent denominators -------------------------------------------
#
# Exponents and levels are stored as ints over one denominator per
# element; operands over different denominators are rescaled first.

DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 12)


@st.composite
def mixed_fractions(draw, low, high):
    den = draw(st.sampled_from(DENOMINATORS))
    return F(draw(st.integers(low * den, high * den)), den)


mixed_levels = st.one_of(st.just(INFINITE), mixed_fractions(-2, 8))


@st.composite
def mixed_elements(draw, trunc=mixed_levels):
    terms = draw(st.lists(st.tuples(coefficients, mixed_fractions(-3, 6)),
                          max_size=5))
    return NovikovElement(terms, draw(trunc))


def assert_ops_match_oracle(x, y, level):
    """Every ring operation on x, y (and retruncation at ``level``)
    gives the oracle's outcome, and a canonical result."""
    cases = [
        (lambda: x + y, lambda: ring_oracle.add(x, y)),
        (lambda: x - y, lambda: ring_oracle.sub(x, y)),
        (lambda: x * y, lambda: ring_oracle.mul(x, y)),
        (lambda: -x, lambda: ring_oracle.neg(x)),
        (lambda: x.retruncate(level),
         lambda: ring_oracle.element(x.terms, min(x.trunc, level))),
        (lambda: divide_exact(x, y), lambda: ring_oracle.divide_exact(x, y)),
        (lambda: invert(x), lambda: ring_oracle.invert(x)),
    ]
    for compute, oracle in cases:
        assert outcome(compute) == outcome(oracle)
        try:
            result = compute()
        except (ZeroDivisionError, PrecisionExhausted):
            continue
        assert is_canonical(result), result


@given(mixed_elements(), mixed_elements(), mixed_levels)
def test_mixed_denominators_match_oracle(x, y, level):
    assert_ops_match_oracle(x, y, level)


def assert_multiple_divides_like_oracle(q, y):
    x = q * y
    assert (outcome(lambda: divide_exact(x, y))
            == outcome(lambda: ring_oracle.divide_exact(x, y)))
    if not y.is_zero():
        assert divide_exact(x, y) == q


@given(mixed_elements(), mixed_elements(trunc=st.just(INFINITE)))
def test_mixed_denominator_multiples_divide_like_oracle(q, y):
    assert_multiple_divides_like_oracle(q, y)


@given(mixed_elements(), st.sampled_from(DENOMINATORS[1:]))
def test_stored_denominator_is_invisible(x, factor):
    rescaled = novikov._rescaled(x, x._den * factor)
    assert rescaled._den == x._den * factor
    assert rescaled == x and hash(rescaled) == hash(x)
    assert (rescaled.terms, rescaled.trunc) == (x.terms, x.trunc)
    assert to_text(rescaled) == to_text(x)


# -- wide coefficients -------------------------------------------------------
#
# Coefficients are stored as int numerators over one scale per element.
# These draw coefficients over denominators up to 35 with numerators up
# to 10^6, and pairs whose sum has integer coefficients (1/2 + 1/2), so
# that sums, products and quotients must bring scales together and
# reduce them again.

WIDE_DENOMINATORS = (1, 2, 3, 5, 7, 12, 35)


@st.composite
def wide_coefficients(draw):
    numerator = draw(st.integers(-10 ** 6, 10 ** 6).filter(bool))
    return F(numerator, draw(st.sampled_from(WIDE_DENOMINATORS)))


@st.composite
def wide_elements(draw, trunc=mixed_levels):
    terms = draw(st.lists(st.tuples(wide_coefficients(),
                                    mixed_fractions(-3, 6)), max_size=4))
    return NovikovElement(terms, draw(trunc))


@st.composite
def wide_pairs(draw):
    """Two wide elements; in half the draws the second has, at each
    exponent of the first, a coefficient that completes the first's to
    a small integer, zero included."""
    x = draw(wide_elements())
    if draw(st.booleans()):
        return x, draw(wide_elements())
    whole = draw(st.lists(st.integers(-2, 2), min_size=len(x.terms),
                          max_size=len(x.terms)))
    y = NovikovElement([(k - c, e) for (c, e), k in zip(x.terms, whole)],
                       draw(mixed_levels))
    return x, y


def test_a_sum_that_cancels_to_integers_reduces_its_scale():
    x = nov("1/2 + 1/3*T(1) - 5/12*T(2)")
    y = nov("1/2 + 2/3*T(1) + 5/12*T(2)")
    total = x + y
    assert to_text(total) == "1 + T(1)"
    assert (total._scale, total._terms) == (1, ((1, 0), (1, 1)))
    assert total == nov("1 + T(1)")


@given(wide_pairs(), mixed_levels)
def test_wide_coefficients_match_oracle(pair, level):
    assert_ops_match_oracle(*pair, level)


@given(wide_elements(), wide_elements(trunc=st.just(INFINITE)))
def test_wide_coefficient_multiples_divide_like_oracle(q, y):
    assert_multiple_divides_like_oracle(q, y)


@given(wide_pairs())
def test_ring_results_are_the_values_their_text_gives(pair):
    x, y = pair
    results = [x + y, x - y, x * y, -x]
    for compute in (lambda: divide_exact(x, y), lambda: invert(x)):
        try:
            results.append(compute())
        except (ZeroDivisionError, PrecisionExhausted):
            pass
    for result in results:
        parsed = from_text(to_text(result), result.trunc)
        for value in [result] + [how(result) for how in COPIES.values()]:
            assert value == parsed and parsed == value
            assert hash(value) == hash(parsed)


# -- text rendering ----------------------------------------------------------
#
# ``to_text`` reads the integer form; ``ring_oracle.to_text`` renders the
# Fraction terms.  Divisors of 12 over divisors of 12 put numerators that
# share factors with the scale into one element (1/4 and 1/2 over scale
# 4), and units and numerators of 1 over a scale above 1; a rescale
# stores exponents over a larger denominator.

DIVISORS = (1, 2, 3, 4, 6, 12)
shared_coefficients = st.builds(
    F, st.sampled_from(DIVISORS + tuple(-d for d in DIVISORS)),
    st.sampled_from(DIVISORS))


@given(st.lists(st.tuples(st.one_of(shared_coefficients, wide_coefficients()),
                          mixed_fractions(-3, 6)), max_size=6),
       mixed_levels, st.sampled_from((1, 2, 3, 10)))
def test_to_text_matches_the_fraction_renderer(terms, level, factor):
    x = NovikovElement(terms, level)
    for value in (x, novikov._rescaled(x, x._den * factor)):
        assert to_text(value) == ring_oracle.to_text(value)


def test_to_text_builds_no_fraction(monkeypatch):
    series = invert(nov("1 - 2*T(2/3)", trunc=32))
    assert len(series._terms) == 48
    built = []

    class Counting(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(novikov, "Fraction", Counting)
    text = to_text(series)
    monkeypatch.undo()
    assert built == []
    assert text == ring_oracle.to_text(series)


def test_normal_form_elimination_does_no_fraction_arithmetic(monkeypatch):
    from torsionlab import valmat

    m = valmat.NovikovMatrix(
        [["1/2*T(1/4) + 3/5*T(5/4)", "7/3 - T(1)", "T(1/2) + 1/2*T(3/4)",
          "2"],
         ["0", "3 - 1/7*T(1/4) + T(2)", "1/2 + 3*T(5/4)", "-2/3*T(1/4)"],
         ["-T(3/2) + 5/12*T(7/4)", "-1 + 1/2*T(3/4)", "2 + 3/35*T(5/4)",
          "1/2*T(1/4) - T(9/4)"],
         ["1/2*T(5/4) + 3*T(2)", "-T(1/2)", "1 + 1/2*T(1/4)",
          "-2 + 1/2*T(1)"]], F(6))
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__"):
        def counted(*args, _name=name, _original=getattr(Fraction, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counted)
    form = valmat.smith_normal_form(m)
    monkeypatch.undo()
    assert calls == []
    assert form.rank == 4
    assert all(d.leading_term()[0] == 1 for d in form.diagonal.diagonal())
