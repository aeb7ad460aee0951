"""Exact truncated q-expansion arithmetic and the bundled fixture forms.

All arithmetic is over exact integers/rationals; floating point enters only
when a fixture is converted to coefficient data.  The fixtures are the
discriminant form delta, the Eisenstein series e4 and e6, j744 = e4^3/delta
- 744, the reciprocal 1/delta, and the weight-1/2 theta series.  Each is
self-dual under its Fricke-type involution W_N, which is what the
functional-equation checks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
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


def qexp_mul(a: QExpansion, b: QExpansion) -> QExpansion:
    """Product truncated to the minimum common precision."""
    prec = min(a.precision, b.precision)
    out = [0] * prec
    for i, ca in enumerate(a.coeffs[:prec]):
        if ca == 0:
            continue
        jmax = prec - i
        for j, cb in enumerate(b.coeffs[:jmax]):
            if cb != 0:
                out[i + j] += ca * cb
    return _normalized(a.lead + b.lead, out)


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
    return _normalized(lead, out)


def qexp_scale(a: QExpansion, c) -> QExpansion:
    return _normalized(a.lead, [c * x for x in a.coeffs])


def qexp_pow(a: QExpansion, e: int) -> QExpansion:
    if e < 0:
        return qexp_pow(qexp_invert(a), -e)
    result = qexp(0, [1] + [0] * (a.precision - 1))
    power = a
    while e:
        if e & 1:
            result = qexp_mul(result, power)
        power = qexp_mul(power, power) if e > 1 else power
        e >>= 1
    return result


def qexp_invert(a: QExpansion) -> QExpansion:
    """Multiplicative inverse: qexp_mul(a, invert(a)) = 1 + O(q^precision)."""
    if not a.coeffs or all(c == 0 for c in a.coeffs):
        raise DomainError("cannot invert the zero series")
    prec = a.precision
    a0 = a.coeffs[0]
    inv0 = Fraction(1, a0) if isinstance(a0, int) else 1 / Fraction(a0)
    if inv0.denominator == 1:
        inv0 = int(inv0)
    out = [inv0] + [0] * (prec - 1)
    for m in range(1, prec):
        acc = 0
        for j in range(1, m + 1):
            if j < len(a.coeffs) and a.coeffs[j] != 0:
                acc += a.coeffs[j] * out[m - j]
        term = -acc * inv0 if isinstance(inv0, int) else -Fraction(acc) * inv0
        if isinstance(term, Fraction) and term.denominator == 1:
            term = int(term)
        out[m] = term
    return QExpansion(-a.lead, tuple(out))


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
        # e4^3 / delta - 744; needs 2 extra working terms for the shift by q^{-1}
        prec = precision + 2
        e4 = fixture_qexp("e4", prec)
        num = qexp_pow(e4, 3)
        j = qexp_mul(num, qexp_invert(fixture_qexp("delta", prec)))
        out = qexp_add(j, qexp(0, [-744] + [0] * (prec - 1)))
        return QExpansion(out.lead, out.coeffs[:precision])
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
    a = {n: complex(c) for n, c in qe.items() if c != 0}
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
