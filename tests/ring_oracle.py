"""Element-by-element Novikov arithmetic, kept as a test oracle.

``torsionlab.novikov`` merges sorted term lists and divides in place on a
dict of remainder terms.  This module keeps the plain construction those
replaced: every sum and product is a list of raw terms sent through one
validating canonicalization, and long division subtracts a whole
multiple of the divisor per quotient term.  Results are ordinary
``NovikovElement`` values, so the property tests compare terms and
truncation levels directly.
"""

from fractions import Fraction

from torsionlab.errors import PrecisionExhausted
from torsionlab.novikov import NovikovElement
from torsionlab.rationals import INFINITE, is_infinite


def canonical_terms(terms, trunc):
    """Coerce, merge equal exponents, drop zeros and terms at or above
    ``trunc``, sort by exponent."""
    merged = {}
    for coeff, t_exp in terms:
        coeff = Fraction(coeff)
        t_exp = Fraction(t_exp)
        if coeff == 0 or t_exp >= trunc:
            continue
        acc = merged.get(t_exp, Fraction(0)) + coeff
        if acc == 0:
            merged.pop(t_exp, None)
        else:
            merged[t_exp] = acc
    return tuple((coeff, t_exp) for t_exp, coeff in sorted(merged.items()))


def element(terms, trunc=INFINITE):
    return NovikovElement(canonical_terms(terms, trunc), trunc)


def add(x, y):
    return element(x.terms + y.terms, min(x.trunc, y.trunc))


def neg(x):
    return element(((-c, l) for c, l in x.terms), x.trunc)


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    # a truncated zero is known to vanish up to its own level
    trunc = min(x.trunc + min(y.valuation(), y.trunc),
                y.trunc + min(x.valuation(), x.trunc))
    if is_infinite(trunc):
        trunc = INFINITE
    return element(((a * b, la + lb) for a, la in x.terms
                    for b, lb in y.terms if la + lb < trunc), trunc)


def divide_exact(x, y):
    """Long division: one quotient term per step, then subtract that
    monomial times the whole divisor from the remainder."""
    if not y.terms:
        raise ZeroDivisionError("division by the zero element")
    yc, yl = y.terms[0]
    out_trunc = min(x.trunc, y.trunc) - yl
    if is_infinite(out_trunc):
        out_trunc = INFINITE
    limit = INFINITE
    if is_infinite(out_trunc) and x.terms:
        limit = x.terms[-1][1] - y.terms[-1][1]
    quotient = []
    remainder = x
    while remainder.terms:
        rc, rl = remainder.terms[0]
        level = rl - yl
        if level >= out_trunc:
            break
        if level > limit:
            raise PrecisionExhausted(
                "quotient is an infinite series; set a finite truncation")
        piece = (rc / yc, level)
        quotient.append(piece)
        remainder = sub(remainder, mul(element((piece,)), y))
    return element(quotient, out_trunc)


def invert(x):
    return divide_exact(element(((1, 0),)), x)


def agrees_with(x, y):
    """True when x - y vanishes below its truncation level."""
    diff = x - y
    return diff.valuation() >= diff.trunc


def _format_term(coeff, t_exp):
    parts = []
    if t_exp != 0:
        parts.append(f"T({t_exp})")
    magnitude = abs(coeff)
    if magnitude != 1 or not parts:
        parts.insert(0, str(magnitude))
    return "*".join(parts)


def to_text(x):
    """The text encoding rendered from the Fraction terms, term by term;
    ``novikov.to_text`` reads the integer form instead."""
    if not x.terms:
        return "0"
    pieces = []
    for index, (coeff, t_exp) in enumerate(x.terms):
        body = _format_term(coeff, t_exp)
        if index == 0:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(pieces)
