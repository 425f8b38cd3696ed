"""Arithmetic in the Novikov ring with exact rational exponents.

An element is a finite sum  sum_i  a_i * T^(l_i)  with rational
coefficients a_i and rational exponents l_i.  The T-adic valuation of a
nonzero element is its smallest exponent; the valuation of zero is
+infinity.  Elements with valuation >= 0 form the bounded subring, those
with valuation > 0 its maximal ideal.

Every element carries a truncation level ``trunc``: terms with T-exponent
at or above ``trunc`` have been dropped and the element is reliable only
below that level.  ``trunc = inf`` marks an exact element.  Sums truncate
at the smaller of the two levels.  Products truncate at

    min(x.trunc + min(valuation(y), y.trunc),
        y.trunc + min(valuation(x), x.trunc))

so that no retained term could have been contaminated by a dropped one;
a truncated zero counts as known to vanish up to its own level.
Inversion and division are long division against the leading term; when
the quotient is an infinite series, a finite truncation level is required
and PrecisionExhausted is raised otherwise.

Elements have one text encoding, a sum of terms COEFF*T(p/q) (see
to_text); matrix and complex files carry their entries in it.

Inside an element the T-exponents and a finite truncation level are
Python ints over one positive integer denominator, the element's own;
``inf`` stays the level of an exact element.  The coefficients are
Python ints too, numerators over a second positive denominator of the
element's own, the coefficient scale, kept in lowest terms: the scale
and the numerators have no common factor, and the scale of zero is 1.
Ring operations add, multiply and compare those ints.  An operation on
two elements over different exponent denominators first brings both to
the lcm of the two, and a sum over different scales brings the
numerators to the lcm of the scales; every result is then reduced by
one gcd.  Division runs as integer pseudo-division.  The public values
stay exact: ``terms`` gives (coefficient, exponent) Fraction pairs, and
``trunc``, ``valuation()`` and ``leading_term()`` give Fractions or
``inf``, the same whatever exponent denominator an element happens to
be stored over; so do equality and hashing.  Downstream quantities
(valuations, torsion exponents, thresholds) are therefore exact
rationals whenever they fall below the truncation budget; floating
point is never involved.

Elements are immutable values: every operation returns a new element, and
sharing across threads is safe.  Outside input (the constructor,
``monomial``, ``from_text``, ``parse``) is validated once into canonical
terms: sorted by exponent, no zero coefficient, nothing at or above
``trunc``.  Ring operations keep that form and build their results
without validating again.

>>> x = from_text("1 - T(1)")
>>> to_text(invert(x.retruncate(3)))
'1 + T(1) + T(2)'
>>> to_text(x * from_text("1 + T(1) + T(2)"))
'1 - T(3)'
"""

from __future__ import annotations

import heapq
import math
import re
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable

from .errors import PrecisionExhausted
from .rationals import INFINITE, Level, as_level, is_infinite

# A term is (coefficient, T-exponent).
Term = tuple[Fraction, Fraction]
# Inside an element: (coefficient times the scale, T-exponent times the
# denominator).
_Term = tuple[int, int]
# A level times the denominator: an int, or INFINITE.
_Level = int | float


def _canonical_terms(terms: Iterable[tuple], trunc: Level
                     ) -> tuple[tuple[_Term, ...], int, int, _Level]:
    """Validate outside input: coerce to Fraction, drop zeros and terms
    at or above ``trunc``, merge equal exponents, sort by exponent.
    Returns the terms, their coefficients over the lcm of the
    coefficient denominators (the scale, which leaves them in lowest
    terms) and their exponents over the lcm of the denominators of the
    level and of the exponents kept; then the scale, that denominator,
    and the level over it."""
    finite = not is_infinite(trunc)
    den = trunc.denominator if finite else 1
    kept = []
    for coeff, t_exp in terms:
        if type(coeff) is not Fraction:
            coeff = Fraction(coeff)
        if type(t_exp) is not Fraction:
            t_exp = Fraction(t_exp)
        if coeff and t_exp < trunc:
            kept.append((coeff, t_exp))
            den = math.lcm(den, t_exp.denominator)
    merged: dict[int, Fraction] = {}
    for coeff, t_exp in kept:
        e = t_exp.numerator * den // t_exp.denominator
        prev = merged.get(e)
        merged[e] = coeff if prev is None else prev + coeff
    level = trunc.numerator * den // trunc.denominator if finite \
        else INFINITE
    nonzero = [(c, e) for e, c in sorted(merged.items()) if c]
    scale = math.lcm(*[c.denominator for c, _ in nonzero])
    return tuple([(c.numerator * (scale // c.denominator), e)
                   for c, e in nonzero]), scale, den, level


class NovikovElement:
    """Immutable finite sum of T-monomials below a truncation level."""

    __slots__ = ("_terms", "_scale", "_den", "_level")

    def __init__(self, terms: Iterable[tuple] = (), trunc: Level = INFINITE):
        terms, scale, den, level = _canonical_terms(terms, as_level(trunc))
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_level", level)

    def __setattr__(self, name, value):
        raise AttributeError("NovikovElement is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return NovikovElement._trusted, (self._terms, self._scale,
                                         self._den, self._level)

    @classmethod
    def _trusted(cls, terms: tuple[_Term, ...], scale: int, den: int,
                 level: _Level) -> "NovikovElement":
        """Wrap terms that are already canonical over ``scale`` and
        ``den``: sorted by exponent, no zero numerator, every exponent
        below ``level``, numerators and scale in lowest terms.  Ring
        results are built here (see ``_reduced``); outside input goes
        through ``__init__``."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_level", level)
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, trunc: Level = INFINITE) -> "NovikovElement":
        return cls((), trunc)

    @classmethod
    def one(cls) -> "NovikovElement":
        return cls(((Fraction(1), Fraction(0)),))

    @classmethod
    def monomial(cls, coeff, t_exp=0,
                 trunc: Level = INFINITE) -> "NovikovElement":
        return cls(((Fraction(coeff), Fraction(t_exp)),), trunc)

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> tuple[Term, ...]:
        """(coefficient, T-exponent) Fraction pairs sorted by exponent."""
        scale, den = self._scale, self._den
        return tuple([(Fraction(c, scale), Fraction(e, den))
                      for c, e in self._terms])

    @property
    def trunc(self) -> Level:
        level = self._level
        return INFINITE if level == INFINITE else Fraction(level, self._den)

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def valuation(self) -> Level:
        """Smallest T-exponent; +inf for the zero element."""
        if not self._terms:
            return INFINITE
        return Fraction(self._terms[0][1], self._den)

    def leading_term(self) -> Term:
        if not self._terms:
            raise ValueError("zero element has no leading term")
        coeff, t_exp = self._terms[0]
        return Fraction(coeff, self._scale), Fraction(t_exp, self._den)

    def retruncate(self, trunc: Level) -> "NovikovElement":
        """Drop terms at or above ``trunc``; keeps the smaller level."""
        trunc = as_level(trunc)
        if is_infinite(trunc):
            return self
        x = _rescaled(self, math.lcm(self._den, trunc.denominator))
        level = trunc.numerator * (x._den // trunc.denominator)
        if level >= x._level:
            return self
        terms = x._terms
        return _reduced(terms[:bisect_left(terms, level, key=itemgetter(1))],
                        x._scale, x._den, level)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(value) -> "NovikovElement":
        if isinstance(value, NovikovElement):
            return value
        if isinstance(value, (int, Fraction)):
            return NovikovElement.monomial(value)
        return NotImplemented

    def __add__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _merge(self, other, False)

    __radd__ = __add__

    def __neg__(self) -> "NovikovElement":
        return NovikovElement._trusted(
            tuple([(-c, e) for c, e in self._terms]), self._scale,
            self._den, self._level)

    def __sub__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _merge(self, other, True)

    def __rsub__(self, other) -> "NovikovElement":
        return (-self) + other

    def __mul__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self, other
        if x._den != y._den:
            x, y = _aligned(x, y)
        left, right = x._terms, y._terms
        # a zero is known to vanish up to its own level
        level = min(x._level + (right[0][1] if right else y._level),
                    y._level + (left[0][1] if left else x._level))
        scale = x._scale * y._scale
        if len(left) > len(right):
            left, right = right, left
        if len(left) == 1:
            # a monomial times a sorted sum stays sorted and nonzero
            (a, la), = left
            terms = []
            for b, lb in right:
                e = la + lb
                if e >= level:
                    break
                terms.append((a * b, e))
            return _reduced(terms, scale, x._den, level)
        acc: dict[int, int] = {}
        for a, la in left:
            for b, lb in right:
                e = la + lb
                if e >= level:
                    break
                prev = acc.get(e)
                acc[e] = a * b if prev is None else prev + a * b
        return _reduced([(c, e) for e, c in sorted(acc.items()) if c],
                        scale, x._den, level)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "NovikovElement":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return divide_exact(self, other)

    # -- comparison ---------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = NovikovElement.monomial(other)
        if not isinstance(other, NovikovElement):
            return NotImplemented
        if self._den == other._den:
            # lowest terms: one value has one scale and one numerator list
            return (self._terms == other._terms
                    and self._scale == other._scale
                    and self._level == other._level)
        return self.terms == other.terms and self.trunc == other.trunc

    def __hash__(self) -> int:
        # an exact constant equals its Fraction, so it hashes like one
        terms = self._terms
        if self._level == INFINITE and (
                not terms or (len(terms) == 1 and terms[0][1] == 0)):
            return hash(Fraction(terms[0][0], self._scale)) if terms \
                else hash(0)
        return hash((self.terms, self.trunc))

    def __repr__(self) -> str:
        level = "" if self._level == INFINITE else f" (mod T^{self.trunc})"
        return f"<{to_text(self)}{level}>"


def _reduced(terms, scale: int, den: int, level: _Level) -> NovikovElement:
    """A ring result: canonical ``terms`` whose numerators lie over
    ``scale``, brought to lowest terms by one gcd."""
    if not terms:
        return NovikovElement._trusted((), 1, den, level)
    if scale != 1:
        g = math.gcd(scale, *[c for c, _ in terms])
        if g != 1:
            scale //= g
            terms = [(c // g, e) for c, e in terms]
    return NovikovElement._trusted(tuple(terms), scale, den, level)


def _rescaled(x: NovikovElement, den: int) -> NovikovElement:
    """x stored over ``den``, a multiple of its own denominator."""
    factor = den // x._den
    if factor == 1:
        return x
    return NovikovElement._trusted(
        tuple([(c, e * factor) for c, e in x._terms]), x._scale, den,
        x._level * factor)


def _aligned(x: NovikovElement, y: NovikovElement
             ) -> tuple[NovikovElement, NovikovElement]:
    """x and y stored over the lcm of their denominators."""
    den = math.lcm(x._den, y._den)
    return _rescaled(x, den), _rescaled(y, den)


def _over_leading_coefficient(values: Iterable[NovikovElement],
                              pivot: NovikovElement) -> list[NovikovElement]:
    """Each value divided by the leading coefficient of the nonzero
    ``pivot``: numerators times the pivot's scale, scale times the
    pivot's leading numerator.  Levels and exponent denominators stay."""
    num, den = pivot._scale, pivot._terms[0][0]
    if den < 0:
        num, den = -num, -den
    return [_reduced([(c * num, e) for c, e in x._terms], x._scale * den,
                     x._den, x._level) for x in values]


def _common_denominator(values: Iterable[NovikovElement]) -> int:
    """The lcm of the denominators the values are stored over."""
    return math.lcm(*{x._den for x in values})


def _order(x: NovikovElement) -> _Level:
    """The valuation times the denominator x is stored over."""
    return x._terms[0][1] if x._terms else INFINITE


def _merge(x: NovikovElement, y: NovikovElement,
           negate: bool) -> NovikovElement:
    """x + y, or x - y when ``negate``: a merge of two sorted term
    lists whose numerators are first brought to the lcm of the two
    scales."""
    if x._den != y._den:
        x, y = _aligned(x, y)
    level = min(x._level, y._level)
    left, terms = x._terms, y._terms
    if not terms and level == x._level:
        return x
    scale = x._scale
    if scale != y._scale:
        scale = math.lcm(scale, y._scale)
        factor = scale // x._scale
        if factor != 1:
            left = [(a * factor, la) for a, la in left]
        factor = scale // y._scale
        if factor != 1:
            terms = [(b * factor, lb) for b, lb in terms]
    out: list[_Term] = []
    i = j = 0
    n_left, n_right = len(left), len(terms)
    while i < n_left and j < n_right:
        a, la = left[i]
        b, lb = terms[j]
        if la == lb:
            c = a - b if negate else a + b
            if c:
                out.append((c, la))
            i += 1
            j += 1
        elif la < lb:
            out.append(left[i])
            i += 1
        else:
            out.append((-b, lb) if negate else terms[j])
            j += 1
    out.extend(left[i:])
    if negate:
        out.extend([(-b, lb) for b, lb in terms[j:]])
    else:
        out.extend(terms[j:])
    if level != INFINITE:
        while out and out[-1][1] >= level:
            out.pop()
    return _reduced(out, scale, x._den, level)


def divide_exact(x: NovikovElement, y: NovikovElement) -> NovikovElement:
    """Quotient x / y by long division against the leading term of y.

    The quotient exists in the bounded subring exactly when
    valuation(x) >= valuation(y); with negative exponents allowed the
    division always proceeds.  The quotient is truncated at
    min(x.trunc, y.trunc) - valuation(y), the level below which its terms
    are reliable.

    The division runs over the integers: with x = X / sx and y = Y / sy
    for integer numerators X, Y over the two scales, x / y is sy / sx
    times X / Y, and X / Y is found by pseudo-division.

    >>> to_text(divide_exact(from_text("T(3) - T(4)"), from_text("T(3)")))
    '1 - T(1)'
    """
    if y.is_zero():
        raise ZeroDivisionError("division by the zero element")
    if x._den != y._den:
        x, y = _aligned(x, y)
    y_terms = y._terms
    yc, yl = y_terms[0]
    out_level = min(x._level, y._level) - yl
    # At infinite truncation only a finite quotient can be returned.  Over
    # a domain the top T-exponents of a product add, so a finite quotient
    # has no term above top(x) - top(y); long division that reaches past
    # that level is producing an infinite series.
    limit = INFINITE
    if out_level == INFINITE and x._terms:
        limit = x._terms[-1][1] - y_terms[-1][1]
    # The remainder is a dict from exponent to numerator with a heap of
    # its exponents; entries cancelled to zero leave stale heap keys.
    # Terms at or above ``level`` have been dropped: each step lowers it
    # to y.trunc + (quotient exponent), the level of the subtracted
    # multiple of y.  Every exponent a step adds lies above the leading
    # one it cancels, so a popped exponent never comes back.
    # The numerators lie over ``scale``: a step whose leading numerator
    # yc does not divide first multiplies the remainder and ``scale`` by
    # the smallest factor that makes it divide.  Each quotient term keeps
    # the scale of its step until the end.
    remainder = {e: c for c, e in x._terms}
    heap = list(remainder)
    level = x._level
    y_level = y._level
    negated_tail = [(-c, e) for c, e in y_terms[1:]]
    scale = 1
    quotient: list[tuple[int, int, int]] = []
    while heap:
        rl = heapq.heappop(heap)
        rc = remainder.pop(rl, None)
        if rc is None:
            continue
        if rl >= level:
            break
        q_level = rl - yl
        if q_level >= out_level:
            break
        if q_level > limit:
            raise PrecisionExhausted(
                "quotient is an infinite series; set a finite truncation")
        q, r = divmod(rc, yc)
        if r:
            factor = abs(yc) // math.gcd(rc, yc)
            scale *= factor
            remainder = {e: c * factor for e, c in remainder.items()}
            q = rc * factor // yc
        quotient.append((q, q_level, scale))
        level = min(level, y_level + q_level)
        for c, e in negated_tail:
            e += q_level
            if e >= level:
                break
            value = remainder.get(e)
            if value is None:
                remainder[e] = q * c
                heapq.heappush(heap, e)
            else:
                value += q * c
                if value:
                    remainder[e] = value
                else:
                    del remainder[e]
    y_scale = y._scale
    return _reduced([(q * (scale // s) * y_scale, e) for q, e, s in quotient],
                    x._scale * scale, x._den, out_level)


def invert(x: NovikovElement) -> NovikovElement:
    """Multiplicative inverse, exact for monomials, truncated otherwise.

    x * invert(x) equals one below the propagated truncation level.  When
    the inverse is an infinite geometric series a finite x.trunc is
    required.

    >>> to_text(invert(NovikovElement.monomial(1, Fraction(2))))
    'T(-2)'
    """
    return divide_exact(NovikovElement.one(), x)


# -- text encoding ----------------------------------------------------
#
# Canonical form: terms sorted by T-exponent, joined by " + " / " - ",
# each term  coeff*T(p/q)  with unit coefficients and zero exponents
# omitted.  Examples: "2*T(3/2) + T(2)", "1 - T(3)", "0".  Round-trips
# are bit exact.

_TERM_PATTERN = re.compile(
    r"""^\s*
    (?:(?P<coeff>\d+(?:/\d+)?)\s*)?
    (?:\*?\s*T\(\s*(?P<t>-?\d+(?:/\d+)?)\s*\)\s*)?
    $""",
    re.VERBOSE,
)


def to_text(x: NovikovElement) -> str:
    """The canonical text of x, read straight from its integer form:
    each coefficient is |numerator| / scale and each exponent is
    exponent / denominator, brought to lowest terms by one gcd each, so
    they print as their Fractions would."""
    terms = x._terms
    if not terms:
        return "0"
    scale, den = x._scale, x._den
    pieces: list[str] = []
    for c, e in terms:
        magnitude = -c if c < 0 else c
        if magnitude != scale:
            g = math.gcd(magnitude, scale)
            body = (str(magnitude // g) if g == scale
                    else f"{magnitude // g}/{scale // g}")
        else:
            body = "" if e else "1"
        if e:
            g = math.gcd(e, den)
            power = f"T({e // g})" if g == den else f"T({e // g}/{den // g})"
            body = f"{body}*{power}" if body else power
        if pieces:
            pieces.append(f"- {body}" if c < 0 else f"+ {body}")
        else:
            pieces.append(f"-{body}" if c < 0 else body)
    return " ".join(pieces)


def _split_terms(text: str) -> list[tuple[int, str]]:
    """Split into (sign, body) summands at top-level + and - signs.

    Signs inside parentheses, as in T(-1), never split a term.  Every
    sign must be followed by a term: a sign at the end, or two signs in
    a row, is refused.
    """
    pieces: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    signed = False
    body: list[str] = []
    has_content = False
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
        if depth == 0 and char in "+-":
            if has_content:
                pieces.append((sign, "".join(body)))
                body = []
                has_content = False
            elif signed:
                raise ValueError(f"dangling sign or empty term in {text!r}")
            sign = -1 if char == "-" else 1
            signed = True
            continue
        if not char.isspace():
            has_content = True
        body.append(char)
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    if not has_content:
        raise ValueError(f"dangling sign or empty term in {text!r}")
    pieces.append((sign, "".join(body)))
    return pieces


def from_text(text: str, trunc: Level = INFINITE) -> NovikovElement:
    """Parse the text encoding.  Inverse of to_text on canonical forms."""
    stripped = text.strip()
    if stripped == "0":
        return NovikovElement.zero(trunc)
    if not stripped:
        raise ValueError("empty Novikov literal")
    terms = []
    for sign, body in _split_terms(stripped):
        body = body.strip()
        match = _TERM_PATTERN.match(body)
        if not match or not any(match.group("coeff", "t")):
            raise ValueError(f"cannot parse Novikov term {body!r}; "
                             "terms are COEFF*T(p/q)")
        coeff_text, t_text = match.group("coeff", "t")
        try:
            coeff = Fraction(coeff_text) if coeff_text else Fraction(1)
            t_exp = Fraction(t_text) if t_text else Fraction(0)
        except ZeroDivisionError:
            raise ValueError(f"cannot parse Novikov term {body!r}: zero "
                             "denominator; terms are COEFF*T(p/q)") from None
        terms.append((sign * coeff, t_exp))
    return NovikovElement(terms, trunc)


def parse(value, trunc: Level = INFINITE) -> NovikovElement:
    """Liberal constructor: element, text, int, Fraction.  A bool is
    refused although it is an int: a JSON ``true`` is not 1."""
    if isinstance(value, NovikovElement):
        return value.retruncate(trunc)
    if isinstance(value, str):
        return from_text(value, trunc)
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return NovikovElement.monomial(value, trunc=trunc)
    raise TypeError(f"cannot interpret {value!r} as a Novikov element")
