"""Special-function kernel, built from scratch on double precision.

Provides the incomplete gamma function with its analytic continuation to
negative real second argument, the Whittaker kernel of the summation
formula, the Bessel J function of integer order, the Kronecker symbol and
its companion epsilon factor, and dense Dirichlet-character tables with
generalized Gauss sums.  Everything here is a pure function of its
arguments.

``upper_gamma`` and ``upper_gamma_scaled`` share ``_upper_gamma``, which
covers four regions of (s, x) with a finite sum, the continued fraction,
the series of DLMF 8.4.15 and Gamma(s) minus a series of one-signed terms.

Three kernels take whole arrays of points, for quadrature integrands:
``_whittaker_kernel`` (the summation formula's k - 1 M-kernels as one
series; one table of terms per block of sorted points), ``bessel_J_grid``
(the ascending series to x = 1, one single-order Miller sweep to
max(20, n), Hankel's expansion past it; within 4e-16 of mpmath on
[0, 150]) and ``_gamma_half_exp``, which runs integer orders m >= 1
through the finite-sum recurrence of ``_upper_gamma_int`` on the whole
array.  The first two give a point the value of its one-point call, bit
for bit.
``upper_gamma`` and ``upper_gamma_scaled`` stay scalar.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import AccuracyError, DomainError, RangeOverflowError

_CHUNK = 1 << 15  # entries of a table built at once (256 kB in float64)
# Largest m k n of one BLAS call, keyed by the operands' dtype codes and by
# whether numpy makes it a matrix-vector call (m or n is 1); see _matmul
_BLAS_CAPS = {
    ("d", "d", False): 1 << 18,
    ("D", "D", False): 1 << 15,
    ("d", "d", True): 1 << 17,
    ("D", "D", True): 1 << 11,
}
# m k n within every cap, and within every cap of two float64 operands
_SMALL_PRODUCT = min(_BLAS_CAPS.values())
_SMALL_REAL_PRODUCT = min(_BLAS_CAPS["d", "d", False], _BLAS_CAPS["d", "d", True])
_EULER_GAMMA = 0.5772156649015328606065120900824024

# Lanczos approximation, g = 7, 9 terms.  Relative error ~ 1e-14 on the
# half-plane Re(z) > 1/2; the reflection formula covers the rest.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Taylor coefficients d_1, d_2, ... of 1/Gamma(1+a) = 1 + sum_j d_j a^j about
# a = 0 (d_1 is Euler's constant), to 1e-18 relative at |a| <= 1/2
_RGAMMA_TAYLOR = (
    0.5772156649015329, -0.6558780715202539, -0.04200263503409524,
    0.16653861138229148, -0.04219773455554433, -0.009621971527876973,
    0.0072189432466631, -0.0011651675918590652, -0.00021524167411495098,
    0.0001280502823881162, -2.013485478078824e-05, -1.2504934821426706e-06,
    1.133027231981696e-06, -2.056338416977607e-07, 6.116095104481416e-09,
    5.002007644469223e-09, -1.18127457048702e-09, 1.0434267116911005e-10,
    7.782263439905071e-12, -3.696805618642206e-12, 5.100370287454476e-13,
    -2.0583260535665066e-14,
)


def _matmul(a, b):
    """a @ b for 1-D and 2-D operands, in BLAS calls too small to start
    BLAS's thread pool: a product runs on one core, and its value does not
    depend on the thread count.

    numpy hands an (m x k) @ (k x n) product of float64 or complex128
    operands to one BLAS call: a dot product when m = n = 1, a
    matrix-vector call when m or n is 1, a matrix-matrix call otherwise.
    A product within every cap that can apply to it goes to ``np.matmul``
    as it is.  A call whose m k n exceeds its cap in ``_BLAS_CAPS`` is
    split into row tiles of ``a``, or column tiles of ``b`` when ``a`` has
    one row or two of its rows alone exceed the cap; a tile takes a
    multiple of 4 rows or columns where 4 fit.  The inner dimension k is
    never split, so each entry is still one BLAS dot product, and a dot
    product is never split.  Past ``_SMALL_PRODUCT``, a real operand
    against a complex one is one real product of the complex one's
    (re, im) pairs, with no complex copy of the real one: a real ``a``
    times ``b``'s pairs, or ``a``'s pairs times a real matrix that holds
    each entry of ``b`` at the real and at the imaginary place.  A long
    double operand does not reach BLAS; it goes to ``np.dot``, which forms
    each entry as ``np.matmul``'s loop does, the same products summed in
    the same order, so the bits agree, and which took 0.52 ms against
    1.26 ms for a (10 x 1000) @ (1000 x 20) product (2-core x86-64 Xeon,
    numpy 2.4.6, x87 long double).  Other dtypes go to ``np.matmul``
    untiled: integers do not reach BLAS, and the library forms no
    single-precision product.

    The caps keep a margin of at least 2 below the sizes at which numpy
    2.4.6's bundled OpenBLAS 0.3.31 (DYNAMIC_ARCH; SkylakeX kernels, and
    Haswell kernels forced by OpenBLAS's core-type variable) starts its
    second thread on a 2-core x86-64 machine, each shape timed in a fresh
    process after the spin that follows ``import numpy`` had ended:

        call                one thread at        two threads at       cap
        dgemm (SkylakeX)    16x800x78 = 998400   20x800x78 = 1248000  2^18
        dgemm (Haswell)     8x800x81 = 518400    8x800x82 = 524800    2^18
        zgemm               2x256x127 = 65024    2x256x128 = 65536    2^15
        dgemv               600x700 = 420000     700x700 = 490000     2^17
        zgemv               16x255 = 4080        16x256 = 4096        2^11
        ddot, zdotu         10000                10001                none

    Other BLAS builds were not measured.
    """
    a, b = np.asarray(a), np.asarray(b)
    n = b.shape[1] if b.ndim == 2 else 1
    pair = a.dtype.char + b.dtype.char
    if "g" in pair or "G" in pair:
        return np.dot(a, b)
    mkn = a.size * n
    if mkn <= _SMALL_PRODUCT or (mkn <= _SMALL_REAL_PRODUCT and pair == "dd"):
        return np.matmul(a, b)
    if pair == "dD":
        pairs = np.ascontiguousarray(b).view(np.float64)
        out = _tiled(a, pairs.reshape(-1, 2) if b.ndim == 1 else pairs)
    elif pair == "Dd":
        # a's pairs against b twice over: b2[2i, 2j] = b2[2i + 1, 2j + 1] = b[i, j]
        b2 = np.zeros((2 * len(b), 2 * n))
        b2[0::2, 0::2] = b2[1::2, 1::2] = b.reshape(len(b), n)
        out = _tiled(np.ascontiguousarray(a).view(np.float64), b2)
    else:
        return _tiled(a, b)
    # [()] makes the product of two vectors a scalar, as a @ b does
    return out.view(np.complex128).reshape(a.shape[:-1] + b.shape[1:])[()]


def _tiled(a: np.ndarray, b: np.ndarray, out=None):
    """``np.matmul(a, b, out=out)`` in BLAS calls within ``_BLAS_CAPS``."""
    m = a.shape[0] if a.ndim == 2 else 1
    k = b.shape[0]
    n = b.shape[1] if b.ndim == 2 else 1
    cap = _BLAS_CAPS.get((a.dtype.char, b.dtype.char, m == 1 or n == 1))
    if cap is None or m * k * n <= cap or m == n == 1:
        return np.matmul(a, b, out=out)
    if out is None:
        out = np.empty(a.shape[:-1] + b.shape[1:], dtype=a.dtype)
    # tiles of a multiple of 4 rows or columns fill BLAS's vector lanes: a
    # (30 x 792) @ (792 x 24) product took 18 us in 12-row tiles and 24 us
    # in 13-row tiles (SkylakeX kernels, warm caches)
    if m > 1 and (n == 1 or 2 * k * n <= cap):
        step = _tile_width(cap // (k * n))
        for i in range(0, m, step):
            _tiled(a[i:i + step], b, out[i:i + step])
    else:
        step = _tile_width(cap // (k * min(m, 2)))
        for j in range(0, n, step):
            _tiled(a, b[:, j:j + step], out[..., j:j + step])
    return out


def _tile_width(fits: int) -> int:
    """The rows or columns of a tile when ``fits`` of them fit the cap."""
    return fits - fits % 4 if fits >= 4 else max(1, fits)


def complete_gamma(s: complex) -> complex:
    """Gamma function for complex argument (Lanczos + reflection)."""
    z = complex(s)
    if z.imag == 0.0:
        x = z.real
        if x == round(x) and x <= 0:
            raise DomainError(f"gamma pole at s={x}")
        try:
            return complex(math.gamma(x))
        except OverflowError:
            return complex(math.inf)
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        sinpiz = cmath.sin(cmath.pi * z)
        if sinpiz == 0:
            raise DomainError(f"gamma pole at s={z}")
        return cmath.pi / (sinpiz * complete_gamma(1.0 - z))
    z -= 1.0
    acc = complex(_LANCZOS_C[0])
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * cmath.exp(-t) * acc


def _principal_pow(x: float, s: complex) -> complex:
    """x**s on the principal branch, arg(x) = +pi for x < 0;
    ``RangeOverflowError`` where it overflows."""
    if x == 0:
        raise DomainError("0**s undefined here")
    log_x = math.log(x) if x > 0 else complex(math.log(-x), math.pi)
    try:
        return cmath.exp(complex(s) * log_x)
    except OverflowError:
        raise RangeOverflowError(f"{x}**{s} overflows double precision") from None


def i_pow(k: int) -> complex:
    """i**k exactly, for integer k of either sign."""
    return (1 + 0j, 1j, -1 + 0j, -1j)[k % 4]


def _gamma_cf_bottom_up(a: complex, x: float, depth: int) -> complex:
    """The continued fraction x + (1-a)/(1 + 1/(x + (2-a)/(1 + 2/(x + ...))))
    of DLMF 8.9.2, Gamma(a, x) = e^{-x} x^a / (it), evaluated bottom-up from
    ``depth``.  Its partial numerators are positive at real a < 1, so no
    step cancels."""
    t = x
    for n in range(depth, 0, -1):
        t = x + (n - a) / (1.0 + n / t)
    return t


def _upper_gamma_cf(s: complex, x: float, scaled: bool = False, max_iter: int = 1000) -> complex:
    """Continued fraction for Gamma(s, x), x > 0 (modified Lentz).

    ``scaled`` drops the factor e^{-x}, returning e^x Gamma(s, x).  Below
    x = 8 the forward pass only finds the depth: its products leave up to
    1.5e-14 near x = 1 and 4e-15 at x = 3 to 8, so the fraction is evaluated
    again bottom-up from twice the depth at which the forward pass settled,
    within 1e-15 of mpmath there but for the rounding of x^s."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b if b != 0 else 1.0 / tiny
    h = d
    for i in range(1, max_iter):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            if x < 8.0:
                h = 1.0 / _gamma_cf_bottom_up(s, x, 2 * i)
            return h * (1.0 if scaled else math.exp(-x)) * _principal_pow(x, s)
    raise AccuracyError(f"Gamma(s,x) continued fraction stalled at s={s}, x={x}")


def _lower_gamma_series(s: complex, x: float, max_iter: int = 2000) -> complex:
    """gamma(s, x) for real x != 0 by a series of one-signed terms (for real
    s): x^s e^{-x} sum_k x^k / (s (s+1) ... (s+k)) for x > 0 (DLMF 8.5.1, s > 0),
    x^s sum_k (-x)^k / (k! (s+k)) for x < 0 (DLMF 8.7.1, from k > -s on)."""
    acc = 1.0 / s
    if x > 0.0:
        term = acc
        for k in range(1, max_iter):
            term *= x / (s + k)
            acc += term
            if abs(term) < 1e-18 * abs(acc):
                return _principal_pow(x, s) * math.exp(-x) * acc
    else:
        power = 1.0  # (-x)^k / k!
        for k in range(1, max_iter):
            power *= -x / k
            term = power / (s + k)
            acc += term
            if k > -x and abs(term) <= 1e-18 * abs(acc):
                return _principal_pow(x, s) * acc
    raise AccuracyError(f"lower gamma series stalled at s={s}, x={x}")


def _upper_gamma_int(m: int, x, scaled: bool = False):
    """Gamma(m, x) for integer m >= 1 and real x, by the finite sum
    e^x Gamma(m, x) = (m-1)! sum_{j<m} x^j / j!.

    The sum is the recurrence Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x}
    run upward from Gamma(1, x) = e^{-x}, with the powers x^j formed by
    repeated products.  Every term carries e^{-x}, so ``scaled``
    (e^x Gamma(m, x)) drops it.  ``x`` may also be an array, and the result
    is real (a float or a float array).
    """
    val = 1.0
    xj = 1.0
    for j in range(1, m):
        xj = xj * x
        val = j * val + xj
    return val if scaled else val * np.exp(-x)


def _upper_gamma_negint_series(n: int, x: float) -> complex:
    """Gamma(-n, x) for integer n >= 0 and real x != 0, by its power series.

    Gamma(-n, z) = (-1)^n [(psi(n+1) - log z) / n!
                           - sum_{j >= 0, j != n} (-z)^{j-n} / (j! (j-n))]
    (DLMF 8.4.15).  For z < 0 every (-z)^{j-n} is positive, so the terms
    below j = n share one sign and those above share the other: nothing
    cancels within either group (at 0 < z < 2 they alternate but fall off
    fast).  Past n = 170, where 1/n! underflows, the order recurs downward
    from -170; a step multiplies the error by |x| / (j+1), so x < -171 raises.
    """
    if n > 170:
        if x < -171.0:
            raise AccuracyError(f"Gamma({-n}, {x}): the downward recurrence is unstable")
        val = _upper_gamma_negint_series(170, x)
        try:
            for j in range(170, n):  # x^{-j-1} e^{-x} in two factors: x^{-j-1} may underflow
                val = (val - math.exp(-x) * x ** -(j // 2 + 1) * x ** (j // 2 - j)) / (-j - 1)
        except OverflowError:
            raise RangeOverflowError(f"Gamma({-n}, {x}) overflows double precision") from None
        return val
    w = -x
    inv_fact = 1.0 / math.factorial(n)  # (-z)^{j-n} / j! at j = n
    below = 0.0  # j < n: the terms (-z)^{j-n} / (j! (n-j)), added
    term = inv_fact
    for j in range(n - 1, -1, -1):
        term *= (j + 1) / w
        below += term / (n - j)
    above = 0.0  # j > n: the terms (-z)^{j-n} / (j! (j-n)), subtracted
    term = inv_fact
    for j in range(n + 1, n + 2000):
        term *= w / j
        contrib = term / (j - n)
        above += contrib
        if j > abs(w) and abs(contrib) <= 1e-18 * abs(above):
            break
    else:
        raise AccuracyError(f"Gamma({-n}, {x}) series stalled")
    psi = -_EULER_GAMMA + math.fsum(1.0 / i for i in range(1, n + 1))
    log_z = complex(math.log(abs(x)), math.pi if x < 0.0 else 0.0)
    return (-1.0) ** n * ((psi - log_z) * inv_fact + below - above)


def _expm1(z: complex) -> complex:
    """e^z - 1 without cancellation at small |z|, for complex z."""
    if z.imag == 0.0:
        return complex(math.expm1(z.real))
    e = math.expm1(z.real)
    return complex(e * math.cos(z.imag) - 2.0 * math.sin(0.5 * z.imag) ** 2, (e + 1.0) * math.sin(z.imag))


def _upper_gamma_small(a: complex, x: float, max_iter: int = 2000) -> complex:
    """Gamma(a, x) for 0 < |a| <= 1/2 and x > 0, where Gamma(a) - gamma(a, x)
    would cancel near the pole at a = 0.

    At x < 1 the closed form

        Gamma(a, x) = (Gamma(1+a) - 1)/a - (x^a - 1)/a
                      - x^a sum_{k>=1} (-x)^k / (k! (a+k))

    (DLMF 8.7.1 with its k = 0 term x^a / a taken into the first two),
    whose differences are formed without cancelling: (Gamma(1+a) - 1)/a is
    -d / (1 + a d) with d = (1/Gamma(1+a) - 1)/a from ``_RGAMMA_TAYLOR``,
    and (x^a - 1)/a is expm1(a log x) / a.  Its three terms cancel more as
    x grows (a factor 50 at x = 2), so at x >= 1 the continued fraction
    e^{-x} x^a / (x + (1-a)/(1 + 1/(x + (2-a)/(1 + 2/(x + ...)))))
    (DLMF 8.9.2) is evaluated from depth 160 / x up by
    ``_gamma_cf_bottom_up``.
    """
    if x >= 1.0:
        return math.exp(-x) * _principal_pow(x, a) / _gamma_cf_bottom_up(a, x, math.ceil(160.0 / x))
    d = 0j
    for c in reversed(_RGAMMA_TAYLOR):
        d = d * a + c
    series, term = 0.0, 1.0
    for k in range(1, max_iter):
        term *= -x / k
        contrib = term / (a + k)
        series += contrib
        if abs(contrib) <= 1e-18 * abs(series):
            break
    else:
        raise AccuracyError(f"Gamma({a}, {x}) series stalled")
    log_x = math.log(x)
    return -d / (1.0 + a * d) - _expm1(a * log_x) / a - cmath.exp(a * log_x) * series


def _upper_gamma(s: complex, x: float, scaled: bool) -> complex:
    """Gamma(s, x), or e^x Gamma(s, x) with ``scaled``, for real x != 0.

    Four regions: integer orders m >= 1 take the finite sum of
    ``_upper_gamma_int``; x >= 2 at integer orders and x >= max(Re s + 2, 1)
    at the others the continued fraction; integer orders m <= 0 at x < 2
    the series of DLMF 8.4.15; other orders Gamma(s) - gamma(s, x) by
    ``_lower_gamma_series``, Re s raised into [1, 2) first at x > 0.  At
    x > 0 an order within 1/2 of a nonpositive integer m starts instead at
    s - m, next to the pole at 0, by ``_upper_gamma_small``: the shift
    down through that order would divide a near-equal difference by s - m.
    Both recur down to s by Gamma(s, x) = (Gamma(s+1, x) - x^s e^{-x}) / s.
    """
    m = round(s.real)
    integer = s.imag == 0.0 and abs(s.real - m) < 1e-12
    if integer and m >= 1:
        return complex(_upper_gamma_int(m, x, scaled))
    if x >= (2.0 if integer else max(s.real + 2.0, 1.0)):
        return _upper_gamma_cf(s, x, scaled)
    if integer:
        val = _upper_gamma_negint_series(-m, x)
    else:
        if x > 0.0 and m <= 0 and abs(s - m) <= 0.5:
            shift = -m  # from the order s - m next to 0
            val = _upper_gamma_small(s - m, x)
        else:
            shift = max(0, math.ceil(1.0 - s.real)) if x > 0.0 else 0
            val = complete_gamma(s + shift) - _lower_gamma_series(s + shift, x)
        for j in range(shift, 0, -1):
            val = (val - _principal_pow(x, s + j - 1) * math.exp(-x)) / (s + j - 1)
    if not cmath.isfinite(val):
        raise RangeOverflowError(f"Gamma({s}, {x}) overflows double precision")
    return val * math.exp(x) if scaled else val


def upper_gamma(s: complex, x: float) -> complex:
    """Incomplete gamma Gamma(s, x) for complex s and real x != 0.

    For x > 0 this is the usual tail integral of e^{-t} t^{s-1}; for x < 0
    it is the principal-branch analytic continuation (entire in s).  The
    recurrence Gamma(s+1, x) = s Gamma(s, x) + x^s e^{-x} holds with x^s on
    the principal branch.
    """
    s = complex(s)
    x = float(x)
    if x == 0.0:
        if s.real > 0:
            return complete_gamma(s)
        raise DomainError("Gamma(s, 0) diverges for Re(s) <= 0")
    if x < -700.0:
        raise RangeOverflowError(f"Gamma(s, {x}) overflows double precision")
    return _upper_gamma(s, x, scaled=False)


def upper_gamma_scaled(s: complex, x: float) -> complex:
    """e^x Gamma(s, x) for x > 0, finite where Gamma(s, x) underflows.

    Products such as Gamma(s, x) e^{x/2} are formed as
    upper_gamma_scaled(s, x) e^{-x/2}, never as 0 * inf.
    """
    x = float(x)
    if not x > 0.0:
        raise DomainError("upper_gamma_scaled requires x > 0")
    return _upper_gamma(complex(s), x, scaled=True)


def _gamma_half_exp(s: complex, xs: np.ndarray) -> np.ndarray:
    """Gamma(s, x) e^{x/2} on an array of x > 0 (any shape), from the
    scaled gamma.

    Integer orders m >= 1 take the whole array through the recurrence of
    ``_upper_gamma_int``; other orders go point by point.  Where e^{-x/2}
    underflows the value is exactly 0.
    """
    s = complex(s)
    xs = np.asarray(xs, dtype=float)
    m = round(s.real)
    with np.errstate(over="ignore", invalid="ignore"):
        if s.imag == 0.0 and m >= 1 and abs(s.real - m) < 1e-12:
            if not np.all(xs > 0.0):
                raise DomainError("upper_gamma_scaled requires x > 0")
            scaled = _upper_gamma_int(m, xs, scaled=True)
        else:
            scaled = np.array(
                [upper_gamma_scaled(s, x) for x in xs.ravel()], dtype=complex
            ).reshape(xs.shape)
        half = np.exp(-0.5 * xs)
        return np.where(half > 0.0, scaled * half, 0.0).astype(complex)


_WHITTAKER_BLOCK = 64  # kernel ratios per cached block; rows of a continuation table


def _whittaker_kernel(k: int, z) -> np.ndarray:
    """sum_{l=0}^{k-2} 2^{l+1} M_{1-k/2+l, (k-1)/2}(z) on an array of z > 0
    (even k >= 2), as one series of positive terms.

    The terms share mu = (k-1)/2, hence b = k and the seed e^{-z/2} z^{k/2},
    and their Kummer parameters a_l = k-1-l are positive integers, so the
    sum is (2^k - 2) seed sum_j C_j z^j with C_0 = 1.  Since
    (a)_j / (k)_j = prod_{i=a}^{k-1} i / (i + j) for integer a,
    C_j j! is proportional to e_j = sum_{a=1}^{k-1} prod_{i=a}^{k-1} 2i / (i + j).
    The ratios C_{j+1} / C_j are formed from it in exact rationals, a block
    at a time (cached per k and block), rounded once, and summed by
    ``_seeded_series``.
    """
    return (2.0 ** k - 2.0) * _seeded_series(np.asarray(z, dtype=float), k)


@lru_cache(maxsize=256)
def _kernel_ratios(k: int, block: int) -> np.ndarray:
    """C_{j+1} / C_j of ``_whittaker_kernel`` for one block of j, each an
    exact rational rounded once (read-only, as it is shared)."""
    j0 = block * _WHITTAKER_BLOCK
    e = [sum(accumulate((Fraction(2 * i, i + j) for i in range(k - 1, 0, -1)), operator.mul))
         for j in range(j0, j0 + _WHITTAKER_BLOCK + 1)]
    out = np.array([float(e[i + 1] / (e[i] * (j0 + i + 1))) for i in range(_WHITTAKER_BLOCK)])
    out.flags.writeable = False
    return out


def _series_terms(z: np.ndarray) -> np.ndarray:
    """Rows of a point's first table in ``_seeded_series``.  The kernels of
    k = 2, 4, 12 settle by z + 8 sqrt(z) + 22."""
    return (z + 8.0 * np.sqrt(z) + 30.0).astype(np.int64)


def _seeded_series(zs: np.ndarray, k: int) -> np.ndarray:
    """sum_j t_j(z) on the flattened array of z > 0, with
    t_0 = e^{-z/2} z^{k/2} (as e^{-z/4} z^{k/2} e^{-z/4}) and
    t_{j+1} / t_j = z C_{j+1} / C_j, the ratios of ``_kernel_ratios``.

    Each point takes its partial sum at the tenth of ten consecutive terms
    below 1e-16 of it.  The points are sorted by z, in blocks of at most
    ``_CHUNK`` table entries: the seeds in row 0, ``_series_terms`` rows of
    the block's largest z below.  One cumprod and one cumsum down the
    columns run the scalar recurrence, so a value depends on its z alone.
    A point not settled continues from nine rows before the end (a quiet
    run across the edge is seen whole) with ``_WHITTAKER_BLOCK`` more rows.
    ``RangeOverflowError`` where the seed or a partial sum leaves the
    double range; a seed that underflows at z <= 1 gives 0.
    """
    name = f"the M-kernel sum at k={k}"
    if not np.all(zs > 0):
        raise DomainError(f"{name} requires z > 0")
    flat = zs.ravel()
    quarter = np.exp(-0.25 * flat)
    with np.errstate(over="ignore", invalid="ignore"):
        seed = quarter * flat ** (0.5 * k) * quarter
    # a seed that underflows leaves the sum at 0 for small z and beyond range for large z
    if np.any(((seed == 0.0) & (flat > 1.0)) | ~np.isfinite(seed)):
        raise RangeOverflowError(f"{name} overflows double precision")
    out = np.zeros(flat.size)
    live = np.flatnonzero(seed)
    live = live[np.argsort(flat[live], kind="stable")]
    terms = _series_terms(flat[live])
    rows = np.maximum(terms, _WHITTAKER_BLOCK) + 1  # a continuation table fits too
    fits = np.arange(live.size) - _CHUNK // rows  # points [i, e) fit one table when fits[e - 1] < i
    bufs, quiet_buf = np.empty((3, _CHUNK)), np.empty(_CHUNK, dtype=bool)
    i = 0
    while i < live.size:
        e = max(i + 1, int(np.searchsorted(fits, i)))
        pts, z = live[i:e], flat[live[i:e]]
        j0, term, acc = 0, seed[pts], seed[pts]
        n = int(terms[e - 1])
        while pts.size:
            if j0 > 100000:
                raise AccuracyError(f"{name}: series did not settle")
            t, s, bound = bufs[:, :(n + 1) * pts.size].reshape(3, n + 1, pts.size)
            quiet = quiet_buf[:n * pts.size].reshape(n, pts.size)
            first, last = j0 // _WHITTAKER_BLOCK, (j0 + n - 1) // _WHITTAKER_BLOCK
            ratios = np.concatenate([_kernel_ratios(k, b) for b in range(first, last + 1)])
            np.multiply.outer(ratios[j0 - first * _WHITTAKER_BLOCK:][:n], z, out=t[1:])
            t[0] = term
            with np.errstate(over="ignore", invalid="ignore"):
                np.cumprod(t, axis=0, out=t)
                t[0] = acc
                np.cumsum(t, axis=0, out=s)
                if not np.all(np.isfinite(s[-1])):
                    raise RangeOverflowError(f"{name} overflows double precision")
                r0 = max(0, n - 9)
                term = t[r0].copy() if r0 else term
                np.multiply(np.abs(s[1:], out=bound[1:]), 1e-16, out=bound[1:])
                np.less(np.abs(t[1:], out=t[1:]), bound[1:], out=quiet)
            settled = quiet[:max(0, n - 9)].copy()  # row r: terms r+1..r+10 all quiet
            for d in range(1, 10):
                settled &= quiet[d:d + len(settled)]
            keep = ~settled.any(axis=0)
            if not keep.all():
                done = np.flatnonzero(~keep)
                out[pts[done]] = s[settled.argmax(axis=0)[done] + 10, done]
            pts, z, term, acc = pts[keep], z[keep], term[keep], s[r0, keep]
            j0, n = j0 + r0, _WHITTAKER_BLOCK
        i = e
    return out


def _bessel_j_series(n: int, x: np.ndarray) -> np.ndarray:
    """J_n on an array of 0 <= x <= 1 by the ascending series to its term
    k = 10, in Horner form in q = x^2 / 4.  J_n has no zero there and its
    terms alternate and fall, so the sum is at least 3/4 of its first term,
    and the first term left out is below 2e-22 of it."""
    q = 0.25 * x * x
    acc = 1.0
    for k in range(10, 0, -1):
        acc = 1.0 - q / (k * (n + k)) * acc
    return (0.5 * x) ** n * (1 / math.factorial(n)) * acc


def _bessel_j_miller(n: int, x: np.ndarray) -> np.ndarray:
    """J_n on a 1-D array of x > 1 by one backward (Miller) sweep, integer n >= 0.

    Normalized with J_0 + 2 J_2 + 2 J_4 + ... = 1, so nothing cancels.
    Each point starts at its own depth m(x) = x + 1.3 sqrt(x) + 30 + n
    (rounded up to even) and is rescaled by itself, so every point follows
    the scalar sweep; only J_n is kept.  That depth falls short of 1e-16
    where x is far above n (6e-13 at n = 0, x = 145); ``bessel_J_grid``
    runs the sweep only below max(20, n).  The points are sorted by depth,
    so the points that start at a step are one slice.  A step multiplies
    the larger of |J_k|, |J_{k+1}| by at most 2k/x + 1 < 70 + 2n (x > 1,
    k <= m), so eight steps from 1e250 stay finite for n < 10^6: the 1e250
    rescale test runs every eighth step, and only where the product of
    these factors could carry the start value 1e-300 past 1e250.
    """
    depth = (x + 1.3 * x ** 0.5 + 30 + n).astype(np.int64)
    depth += depth % 2
    order = np.argsort(-depth, kind="stable")
    xs, depth = x[order], depth[order]
    kmax = int(depth[0]) if depth.size else 0
    grows = np.log1p(2.0 * np.arange(1, kmax + 1) / xs.min(initial=np.inf)).sum() > 550 * math.log(10)
    # the points with depth >= k are xs[:active[k]]
    active = np.searchsorted(-depth, -np.arange(kmax + 2), side="right").tolist()
    jp, jc, half, jn, step = np.zeros((5, xs.size))  # jc is 0 until a point's sweep starts
    for k in range(kmax, 0, -1):
        if active[k] > active[k + 1]:
            jc[active[k + 1]:active[k]] = 1e-300
        np.divide(2.0 * k, xs, out=step)
        step *= jc
        jp, jc = jc, np.subtract(step, jp, out=jp)  # jc now approximates J_{k-1}
        if grows and k % 8 == 0:
            big = np.flatnonzero(np.maximum(np.abs(jc), np.abs(jp)) > 1e250)
            if big.size:
                for a in (jc, jp, half, jn):
                    a[big] *= 1e-250
        if k % 2 == 1 and k > 1:
            half += jc  # J_2 + J_4 + ..., doubled once at the end (exactly)
        if k == n + 1:
            jn[:] = jc
    return (jn / (2.0 * half + jc))[np.argsort(order)]  # jc = unnormalized J_0


def _hankel_rows(rows: int) -> np.ndarray:
    """Horner rows in w = 1/x^2, highest power first, of Hankel's P(nu, x)
    and x Q(nu, x) for nu = 0, 1 (DLMF 10.17.3): row j holds
    (-1)^j a_{2j}(nu) and (-1)^j a_{2j+1}(nu), with
    a_k(nu) = (4nu^2 - 1)(4nu^2 - 9)...(4nu^2 - (2k-1)^2) / (k! 8^k)."""
    def a(k, nu):
        return Fraction(math.prod(4 * nu * nu - (2 * i - 1) ** 2 for i in range(1, k + 1)),
                        math.factorial(k) * 8 ** k)
    return np.array([[float((-1) ** j * a(2 * j + q, nu)) for nu in (0, 1) for q in (0, 1)]
                     for j in reversed(range(rows))])


# the first terms left out are below 5.4e-18 of J at x = 20
_HANKEL = _hankel_rows(12)[:, :, None]


def _bessel_j_hankel(n: int, x: np.ndarray) -> np.ndarray:
    """J_n on a 1-D array of x >= max(20, n): J_0 and J_1 by Hankel's
    expansion, then n - 1 steps of the forward recurrence
    J_{k+1} = (2k/x) J_k - J_{k-1}, which loses nothing while k < x.

    J_nu = (pi x)^{-1/2} (P (cos x + sin x) - Q (sin x - cos x)) at nu = 0
    and (pi x)^{-1/2} (P (sin x - cos x) + Q (sin x + cos x)) at nu = 1:
    the phase x - nu pi/2 - pi/4 is never formed, since forming it would
    cost about x eps absolute at large x; sin x and cos x reduce the double
    x exactly.  P and Q of both orders run as one Horner sweep.
    """
    w = 1.0 / (x * x)
    acc = np.zeros((4, x.size))
    for row in _HANKEL:
        acc *= w
        acc += row
    p0, q0, p1, q1 = acc
    s, c = np.sin(x), np.cos(x)
    amp = 1.0 / np.sqrt(math.pi * x)
    j0 = amp * (p0 * (c + s) - q0 / x * (s - c))
    if n == 0:
        return j0
    j1 = amp * (p1 * (s - c) + q1 / x * (s + c))
    for k in range(1, n):
        j0, j1 = j1, 2.0 * k / x * j1 - j0
    return j1


def bessel_J_grid(n: int, xs: np.ndarray) -> np.ndarray:
    """J_n on an array of finite nonnegative points (integer order n).

    Three regimes, chosen point by point: the ascending series at x <= 1,
    one backward Miller sweep at 1 < x < max(20, n), and Hankel's expansion
    with the forward recurrence at x >= max(20, n).  The sweep's length is
    set by its deepest point, at most about 56 + 2n steps, not by the
    largest x.  Within 4e-16 absolute of mpmath on [0, 150] at n <= 60.
    """
    xs = np.asarray(xs, dtype=float)
    if n < 0 or not np.all((xs >= 0) & (xs < np.inf)):
        raise DomainError("bessel_J_grid requires n >= 0 and finite x >= 0")
    out = np.empty(xs.shape)
    far = xs >= max(20.0, n)
    near = xs <= 1.0
    for mask, kernel in ((near, _bessel_j_series), (~(near | far), _bessel_j_miller),
                         (far, _bessel_j_hankel)):
        if mask.any():
            out[mask] = kernel(n, xs[mask])
    return out


# ----------------------------------------------------------------------------
# Number-theoretic kernel


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), fully extended (n may be even, zero, negative)."""
    a = int(a)
    n = int(n)
    if n == 0:
        return 1 if abs(a) == 1 else 0
    if a % 2 == 0 and n % 2 == 0:
        return 0
    k = 1
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    if v % 2 == 1 and abs(a) % 8 in (3, 5):
        k = -k
    if n < 0:
        n = -n
        if a < 0:
            k = -k
    # n odd and positive from here; standard Jacobi loop
    a %= n
    while a != 0:
        v = 0
        while a % 2 == 0:
            a //= 2
            v += 1
        if v % 2 == 1 and n % 8 in (3, 5):
            k = -k
        if a % 4 == 3 and n % 4 == 3:
            k = -k
        a, n = n % a, a
    return k if n == 1 else 0


def epsilon_d(d: int) -> complex:
    """1 if d = 1 mod 4, i if d = 3 mod 4 (d odd); epsilon_d^2 = (-1|d)."""
    if d % 2 == 0:
        raise DomainError("epsilon_d requires odd d")
    return complex(1.0) if d % 4 == 1 else 1j


def _factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def euler_phi(n: int) -> int:
    out = 1
    for p, e in _factorize(n):
        out *= p ** (e - 1) * (p - 1)
    return out


def _primitive_root(p: int, e: int) -> int:
    """Primitive root mod p^e for odd prime p."""
    phi = p - 1
    qs = [q for q, _ in _factorize(phi)]
    g = 2
    while True:
        if all(pow(g, phi // q, p) != 1 for q in qs):
            break
        g += 1
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


def _crt_lift(res: int, mod: int, d: int) -> int:
    """x = res (mod mod), x = 1 (mod d/mod)."""
    other = d // mod
    if other == 1:
        return res % d
    inv = pow(mod % other, -1, other)
    return (res + mod * (((1 - res) * inv) % other)) % d


@dataclass(frozen=True, eq=False)
class Character:
    """Dirichlet character mod D as a dense value table.

    ``values[u]`` is chi(u) for residues u, zero off the unit group.
    ``index`` is the mixed-radix rank of the exponent tuple with respect to
    the cyclic decomposition of (Z/D)^*, so the enumeration is deterministic
    and conjugates / pointwise products stay inside it.
    """

    modulus: int
    values: np.ndarray = field(repr=False)
    index: int = 0
    is_primitive: bool = True
    conductor: int = 1
    exponents: tuple[int, ...] = field(default=(), repr=False)
    orders: tuple[int, ...] = field(default=(), repr=False)

    def __call__(self, n: int) -> complex:
        return complex(self.values[n % self.modulus])

    @property
    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def conjugate(self) -> "Character":
        exps = tuple((-e) % d for e, d in zip(self.exponents, self.orders))
        return _character_from_exponents(self.modulus, exps)

    def __mul__(self, other: "Character") -> "Character":
        if self.modulus != other.modulus:
            raise DomainError("character product requires equal moduli")
        exps = tuple(
            (e1 + e2) % d
            for e1, e2, d in zip(self.exponents, other.exponents, self.orders)
        )
        return _character_from_exponents(self.modulus, exps)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Character)
            and self.modulus == other.modulus
            and self.index == other.index
        )

    def __hash__(self):
        return hash((self.modulus, self.index))


_CHARACTER_CAP = 10_000


@lru_cache(maxsize=None)
def _unit_group(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Generators and cyclic orders of (Z/d)^*, CRT-lifted to mod d."""
    gens: list[int] = []
    orders: list[int] = []
    for p, e in _factorize(d):
        q = p ** e
        if p == 2:
            if e == 2:
                gens.append(_crt_lift(3, q, d))
                orders.append(2)
            elif e >= 3:
                gens.append(_crt_lift(q - 1, q, d))
                orders.append(2)
                gens.append(_crt_lift(5, q, d))
                orders.append(2 ** (e - 2))
        else:
            g = _primitive_root(p, e)
            gens.append(_crt_lift(g, q, d))
            orders.append(q // p * (p - 1))
    return tuple(gens), tuple(orders)


@lru_cache(maxsize=None)
def _dlog_table(d: int) -> dict[int, tuple[int, ...]]:
    """unit residue -> exponent tuple over the cyclic decomposition."""
    gens, orders = _unit_group(d)
    table = {1 % d: tuple([0] * len(gens))}
    for i, (g, o) in enumerate(zip(gens, orders)):
        base = dict(table)
        p = 1
        for t in range(1, o):
            p = p * g % d
            for u, ex in base.items():
                ex2 = list(ex)
                ex2[i] = t
                table[u * p % d] = tuple(ex2)
    return table


def _values_from_exponents(d: int, exps: tuple[int, ...]) -> np.ndarray:
    _, orders = _unit_group(d)
    values = np.zeros(max(d, 1), dtype=complex)
    for u, ex in _dlog_table(d).items():
        phase = sum(t * e / o for t, e, o in zip(exps, ex, orders))
        values[u] = cmath.exp(2j * math.pi * phase)
    return values


def _divisors(n: int) -> list[int]:
    out = [1]
    for p, e in _factorize(n):
        out = [q * p ** j for q in out for j in range(e + 1)]
    return sorted(out)


def _conductor(d: int, values: np.ndarray) -> int:
    """Smallest f | d such that chi(u) = 1 whenever u = 1 mod f, (u,d)=1."""
    for f in _divisors(d):
        ok = True
        for u in range(1, d):
            if math.gcd(u, d) == 1 and u % f == 1 % f:
                if abs(values[u] - 1.0) > 1e-9:
                    ok = False
                    break
        if ok:
            return f
    return d


def _mixed_radix_rank(exps: tuple[int, ...], orders: tuple[int, ...]) -> int:
    r = 0
    for e, o in zip(exps, orders):
        r = r * o + e
    return r


@lru_cache(maxsize=None)
def _character_from_exponents(d: int, exps: tuple[int, ...]) -> Character:
    _, orders = _unit_group(d)
    values = _values_from_exponents(d, exps)
    if d == 1:
        values[0] = 1.0
    cond = _conductor(d, values) if d > 1 else 1
    return Character(
        modulus=d,
        values=values,
        index=_mixed_radix_rank(exps, orders),
        is_primitive=(cond == d),
        conductor=cond,
        exponents=exps,
        orders=orders,
    )


def characters_mod(d: int) -> list[Character]:
    """All phi(d) Dirichlet characters mod d, index 0 being the trivial one."""
    if d < 1:
        raise DomainError("characters_mod requires d >= 1")
    if d > _CHARACTER_CAP:
        raise DomainError(f"character table cap is {_CHARACTER_CAP}")
    if d == 1:
        return [_character_from_exponents(1, ())]
    _, orders = _unit_group(d)
    total = 1
    for o in orders:
        total *= o
    out = []
    for rank in range(total):
        exps = []
        r = rank
        for o in reversed(orders):
            exps.append(r % o)
            r //= o
        out.append(_character_from_exponents(d, tuple(reversed(exps))))
    return out


def trivial_character(d: int) -> Character:
    return characters_mod(d)[0]


@lru_cache(maxsize=None)
def kronecker_character(d: int) -> Character:
    """The real character u -> (u|d) as a Character mod d (d odd); cached
    like the characters themselves, so the search over the characters mod d
    runs once per d."""
    if d % 2 == 0:
        raise DomainError("kronecker_character requires odd d")
    if d == 1:
        return trivial_character(1)
    target = np.zeros(d, dtype=complex)
    for u in range(d):
        if math.gcd(u, d) == 1:
            target[u] = kronecker(u, d)
    for chi in characters_mod(d):
        if np.max(np.abs(chi.values - target)) < 1e-9:
            return chi
    raise DomainError(f"(.|{d}) did not match a character mod {d}")


def gauss_sum(chi: Character, n: int) -> complex:
    """Generalized Gauss sum: sum over u mod D of chi(u) e^{2 pi i n u / D}."""
    d = chi.modulus
    if d == 1:
        return 1.0 + 0.0j
    u = np.arange(d)
    phases = np.exp(2j * math.pi * (n % d) * u / d)
    return complex(np.sum(chi.values * phases))


def gauss_sums(chi: Character) -> np.ndarray:
    """``gauss_sum(chi, r)`` for every r mod D, bit for bit: the same products
    in the same order, one row of phases per r, in blocks of at most
    ``_CHUNK`` phases (a single block for D < 182)."""
    d = chi.modulus
    if d == 1:
        return np.ones(1, dtype=complex)
    u = np.arange(d)
    out = np.empty(d, dtype=complex)
    rows = max(1, _CHUNK // d)
    for r in range(0, d, rows):
        phases = np.exp((2j * math.pi * u[r:r + rows])[:, None] * u / d)
        out[r:r + rows] = np.sum(chi.values * phases, axis=1)
    return out
