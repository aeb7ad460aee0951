"""Exact truncated q-expansion arithmetic and the bundled fixture forms.

All arithmetic is over exact integers/rationals; floating point enters only
when a fixture is converted to coefficient data.  The fixtures are the
discriminant form delta, the Eisenstein series e4 and e6, j744 = e4^3/delta
- 744, the reciprocal 1/delta, and the weight-1/2 theta series.  Each is
self-dual under its Fricke-type involution W_N, which is what the
functional-equation checks rely on.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from numbers import Rational

from .errors import DomainError, RangeOverflowError
from .form import FormData, _growth_fit
from .specials import trivial_character

FIXTURE_NAMES = ("delta", "e4", "e6", "j744", "inv_delta", "theta")


@dataclass(frozen=True)
class QExpansion:
    """Truncated power series sum_{n >= lead} c_n q^n with exact coefficients.

    ``coeffs[i]`` is the coefficient of q^(lead+i); ``precision`` is the
    number of retained terms.  The leading coefficient is nonzero unless the
    expansion is identically zero.
    """

    lead: int
    coeffs: tuple

    def __post_init__(self):
        if self.coeffs and self.coeffs[0] == 0 and any(c != 0 for c in self.coeffs):
            raise DomainError("leading coefficient must be nonzero (normalize)")

    @property
    def precision(self) -> int:
        return len(self.coeffs)

    def coefficient(self, n: int):
        i = n - self.lead
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        if i < 0:
            return 0
        raise DomainError(f"coefficient q^{n} beyond declared precision")

    def items(self):
        return [(self.lead + i, c) for i, c in enumerate(self.coeffs)]


def _normalized(lead: int, coeffs: list) -> QExpansion:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    if i == len(coeffs):
        return QExpansion(lead, tuple(coeffs))
    return QExpansion(lead + i, tuple(coeffs[i:]))


def qexp(lead: int, coeffs) -> QExpansion:
    return _normalized(lead, list(coeffs))


def _exact(coeffs: list) -> list:
    """``coeffs``, once each is checked to be exact (int or Fraction)."""
    if not all(isinstance(c, Rational) for c in coeffs):
        raise DomainError("q-expansion coefficients must be exact (int or Fraction)")
    return coeffs


def _integers(coeffs):
    """(d, [d c for c in coeffs]) with d the common denominator: exact integers."""
    if all(type(c) is int for c in coeffs):
        return 1, coeffs
    d = lcm(*(c.denominator for c in _exact(coeffs)))
    return d, [int(c.numerator) * (d // c.denominator) for c in coeffs]


def _product(x, y, prec: int) -> list:
    """First `prec` coefficients of x(q) y(q), by Kronecker substitution.

    Each list becomes one integer sum_i v_i 2^(8 nbytes i).  Half a slot,
    2^(8 nbytes - 1), exceeds every product coefficient in size, so the
    product plus half in each slot has nonnegative slots that carry into no
    other: one big-integer multiplication gives every coefficient.
    """
    dx, x = _integers(x)
    dy, y = _integers(y)
    bound = max(map(abs, x), default=0) * max(map(abs, y), default=0) * min(len(x), len(y))
    if not bound or not prec:
        return [0] * prec
    nbytes = (bound.bit_length() + 8) // 8
    half = 1 << (8 * nbytes - 1)
    half_slot = half.to_bytes(nbytes, "little")

    def pack(v):  # slots v_i + half, all in [0, 2^(8 nbytes)), less the bias
        biased = b"".join((c + half).to_bytes(nbytes, "little") for c in v)
        return int.from_bytes(biased, "little") - int.from_bytes(half_slot * len(v), "little")

    z = pack(x) * pack(y) + int.from_bytes(half_slot * prec, "little")
    raw = (z & ((1 << (8 * nbytes * prec)) - 1)).to_bytes(nbytes * prec, "little")
    out = [int.from_bytes(raw[i : i + nbytes], "little") - half for i in range(0, len(raw), nbytes)]
    if dx * dy == 1:
        return out
    return [c if c.denominator != 1 else c.numerator for c in (Fraction(c, dx * dy) for c in out)]


def qexp_mul(a: QExpansion, b: QExpansion) -> QExpansion:
    """Product truncated to the minimum common precision."""
    prec = min(a.precision, b.precision)
    return _normalized(a.lead + b.lead, _product(a.coeffs[:prec], b.coeffs[:prec], prec))


def qexp_add(a: QExpansion, b: QExpansion) -> QExpansion:
    lead = min(a.lead, b.lead)
    end = min(a.lead + a.precision, b.lead + b.precision)
    out = [0] * (end - lead)
    for n, c in a.items():
        if n < end:
            out[n - lead] += c
    for n, c in b.items():
        if n < end:
            out[n - lead] += c
    return _normalized(lead, _exact(out))


def qexp_scale(a: QExpansion, c) -> QExpansion:
    return _normalized(a.lead, _exact([c * x for x in a.coeffs]))


def qexp_pow(a: QExpansion, e: int) -> QExpansion:
    if e < 0:
        return qexp_pow(qexp_invert(a), -e)
    if e == 0:
        return qexp(0, [1] + [0] * (a.precision - 1))
    result, power = None, a
    while True:
        if e & 1:
            result = power if result is None else qexp_mul(result, power)
        e >>= 1
        if not e:
            return result
        power = qexp_mul(power, power)


def qexp_invert(a: QExpansion) -> QExpansion:
    """Multiplicative inverse: qexp_mul(a, invert(a)) = 1 + O(q^precision).

    Newton's iteration g <- g (2 - a g) doubles the number of correct terms
    at each step; over exact coefficients every step is exact.
    """
    if not a.coeffs or all(c == 0 for c in a.coeffs):
        raise DomainError("cannot invert the zero series")
    d, (n,) = _integers([a.coeffs[0]])  # a_0 = n / d, exactly
    inv0 = Fraction(d, n)
    g = [inv0.numerator if inv0.denominator == 1 else inv0]
    m = 1
    while m < a.precision:
        # g is the inverse mod q^h, so a g = 1 + q^h e and g (2 - a g) = g - q^h g e
        h, m = m, min(2 * m, a.precision)
        e = _product(a.coeffs[:m], g, m)[h:]
        g += [-c for c in _product(g, e, m - h)]
    return QExpansion(-a.lead, tuple(g))


# ----------------------------------------------------------------------------
# fixture construction


def _euler_product(prec: int) -> QExpansion:
    """prod_{n>=1} (1 - q^n), via the pentagonal number theorem."""
    coeffs = [0] * prec
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 >= prec and g2 >= prec:
            break
        sign = -1 if k % 2 else 1
        if g1 < prec:
            coeffs[g1] += sign
        if g2 < prec:
            coeffs[g2] += sign
        k += 1
    return QExpansion(0, tuple(coeffs))


def _sigma_series(power: int, scale: int, const: int, prec: int) -> QExpansion:
    """const + scale * sum_n sigma_power(n) q^n via a divisor sieve."""
    sig = [0] * prec
    for d in range(1, prec):
        dp = d ** power
        for m in range(d, prec, d):
            sig[m] += dp
    coeffs = [const] + [scale * s for s in sig[1:]]
    return QExpansion(0, tuple(coeffs))


@lru_cache(maxsize=None)
def fixture_qexp(name: str, precision: int = 64) -> QExpansion:
    """Exact q-expansion of a named fixture, `precision` retained terms."""
    if precision < 2:
        raise DomainError("fixture precision must be >= 2")
    if name == "delta":
        e = _euler_product(precision)
        d = qexp_pow(qexp_pow(e, 8), 3)  # (1-q^n)^24
        return QExpansion(1, d.coeffs)
    if name == "e4":
        return _sigma_series(3, 240, 1, precision)
    if name == "e6":
        return _sigma_series(5, -504, 1, precision)
    if name == "j744":
        # e4^3 / delta - 744; the product's lead is 1/delta's, q^-1
        e4_cubed = qexp_pow(fixture_qexp("e4", precision), 3)
        j = qexp_mul(e4_cubed, fixture_qexp("inv_delta", precision))
        return QExpansion(-1, (j.coeffs[0], j.coeffs[1] - 744) + j.coeffs[2:])
    if name == "inv_delta":
        return qexp_invert(fixture_qexp("delta", precision))
    if name == "theta":
        coeffs = [0] * precision
        coeffs[0] = 1
        n = 1
        while n * n < precision:
            coeffs[n * n] = 2
            n += 1
        return QExpansion(0, tuple(coeffs))
    raise DomainError(f"unknown fixture {name!r}; choose from {FIXTURE_NAMES}")


_FIXTURE_META = {
    # name: (weight2, level, n0)
    "delta": (24, 1, 0),
    "e4": (8, 1, 0),
    "e6": (12, 1, 0),
    "j744": (0, 1, 1),
    "inv_delta": (-24, 1, 1),
    "theta": (1, 4, 0),
}


@lru_cache(maxsize=None)
def fixture(name: str, precision: int = 64) -> FormData:
    """Named fixture as coefficient data (holomorphic, b-part empty).

    The declared growth constant is fitted from the exact coefficients with
    a safety margin, so truncation-tail certificates stay meaningful.
    """
    qe = fixture_qexp(name, precision)
    weight2, level, n0 = _FIXTURE_META[name]
    try:
        a = {n: complex(c) for n, c in qe.items() if c != 0}
    except OverflowError:
        n = next(n for n, c in qe.items() if abs(c) > sys.float_info.max)
        raise RangeOverflowError(f"fixture {name!r}: the coefficient of q^{n} exceeds the double "
                                 f"range; use precision <= {n - qe.lead}") from None
    return FormData(
        weight2=weight2,
        level=level,
        psi=trivial_character(level),
        period=1,
        n0=n0,
        a=a,
        b={},
        growth_C=max(1.0, 1.05 * _growth_fit(a.items()) + 0.25),
        label=name,
    )


def fixture_pair(name: str, precision: int = 64) -> tuple[FormData, FormData]:
    """(f, g) with g = f|_k W_N.

    Every bundled fixture is self-dual: delta(-1/z) = z^12 delta(z) and its
    weight-0/-12 companions inherit this, while theta(-1/(4z)) =
    sqrt(-2iz) theta(z) gives theta|_{1/2} W_4 = theta.  So g is f itself.
    """
    f = fixture(name, precision)
    return f, f
